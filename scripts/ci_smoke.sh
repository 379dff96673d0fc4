#!/usr/bin/env bash
# End-to-end smokes of the compile service, shared by CI's
# build-test and TSan jobs. Build into build/ first, then:
#
#   scripts/ci_smoke.sh serve|network|chaos|socket-chaos
#
#   serve         dmsd's in-process load generator: the report must
#                 show cache hits and no invalid requests. A second
#                 run on a 16-entry cache must also evict.
#   network       a --listen daemon (tracing armed) hammered by a
#                 --connect client: the client's report (the
#                 daemon's counters, fetched over the wire) must
#                 show hits and no invalid requests, every request
#                 must be terminal, and the daemon must exit 0 on
#                 SIGTERM. The trace must be valid JSON with request
#                 spans and the metrics must carry wire latencies.
#   chaos         the load generator under DMS_FAULTS at every serve
#                 and pipeline site with retries, shedding and
#                 deadlines: faults must fire, no request may be
#                 invalid, and the trace must hold failed spans.
#   socket-chaos  daemon + client with the serve.net.* sites
#                 dropping connections: every request must still
#                 resolve to one terminal status.
#
# Every mode requires each --metrics-out and --trace-out artifact to
# audit clean under dmslint (any output fails). Artifacts live in a
# temporary directory removed on exit, and a daemon still running
# then is killed.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
bin=$root/build
work=$(mktemp -d)
daemon=""
port=""

cleanup() {
    if [ -n "$daemon" ]; then
        kill "$daemon" 2>/dev/null || true
        wait "$daemon" 2>/dev/null || true
    fi
    rm -rf "$work"
}
trap cleanup EXIT
cd "$work"

# lint_clean FILE...: dmslint must print nothing for each file.
lint_clean() {
    local f
    for f in "$@"; do
        "$bin/dmslint" "$f" | tee lint.out
        test ! -s lint.out
    done
}

# start_daemon LOG [OPTION...]: run `dmsd --listen 0` in the
# background and set $port once it prints its listening line.
start_daemon() {
    local log=$1
    shift
    "$bin/dmsd" --listen 0 "$@" > "$log" 2>&1 &
    daemon=$!
    for _ in $(seq 1 100); do
        port=$(sed -n 's/^dmsd: listening on 127\.0\.0\.1:\([0-9]*\)$/\1/p' "$log")
        [ -n "$port" ] && return 0
        sleep 0.1
    done
    cat "$log" >&2
    echo "ci_smoke: dmsd never started listening" >&2
    return 1
}

# stop_daemon: SIGTERM must drain the daemon to a clean exit 0.
stop_daemon() {
    kill -TERM "$daemon"
    local pid=$daemon
    daemon=""
    wait "$pid"
}

case "${1:-}" in
serve)
    export DMS_SERVE_QUEUE_DEPTH=64
    "$bin/dmsd" --load 120 --clients 8 --metrics-out serve.metrics |
        tee dmsd.out
    grep -E 'serve: .* [1-9][0-9]* hits' dmsd.out
    grep -E ', 0 invalid' dmsd.out
    DMS_SERVE_CACHE_CAP=16 "$bin/dmsd" --load 300 --clients 8 \
        --metrics-out evict.metrics | tee evict.out
    grep -E 'serve: .* [1-9][0-9]* hits' evict.out
    grep -E 'cache: .* [1-9][0-9]* evicted' evict.out
    grep -E ', 0 invalid' evict.out
    lint_clean serve.metrics evict.metrics
    ;;
network)
    export DMS_SERVE_QUEUE_DEPTH=64 DMS_TRACE=1
    start_daemon daemon.out --metrics-out net.metrics \
        --trace-out net.trace
    "$bin/dmsd" --connect "127.0.0.1:$port" --load 120 --clients 8 \
        --metrics-out client.metrics | tee client.out
    grep -E 'serve: .* [1-9][0-9]* hits' client.out
    grep -E ', 0 invalid' client.out
    grep -E 'network: 120/120 requests terminal' client.out
    stop_daemon
    python3 -m json.tool net.trace > /dev/null
    grep -q '"name":"request"' net.trace
    grep -E '^histogram serve\.latency_ms count=[1-9]' net.metrics
    lint_clean net.metrics client.metrics net.trace
    ;;
chaos)
    export DMS_FAULTS="serve.*:0.15:1337,pipeline.*:0.1:42"
    export DMS_SERVE_QUEUE_DEPTH=16 DMS_TRACE=1 DMS_TRACE_CAP=1024
    "$bin/dmsd" --load 150 --clients 8 --retries 3 \
        --submit-wait-ms 5 --deadline-ms 2000 \
        --metrics-out chaos.metrics --trace-out chaos.trace |
        tee chaos.out
    grep -E 'injected: [1-9][0-9]* faults' chaos.out
    grep -E ', 0 invalid' chaos.out
    python3 -m json.tool chaos.trace > /dev/null
    grep -q '"failed":1' chaos.trace
    lint_clean chaos.metrics chaos.trace
    ;;
socket-chaos)
    # The client process has no fault sites: grep the daemon log.
    export DMS_FAULTS="serve.net.*:0.1:7,serve.*:0.15:1337"
    export DMS_SERVE_QUEUE_DEPTH=16
    start_daemon chaosd.out --metrics-out chaos_net.metrics
    "$bin/dmsd" --connect "127.0.0.1:$port" --load 120 --clients 8 \
        --retries 3 --deadline-ms 2000 | tee chaosc.out
    grep -E 'network: 120/120 requests terminal' chaosc.out
    stop_daemon
    grep -E 'injected: [1-9][0-9]* faults' chaosd.out
    lint_clean chaos_net.metrics
    ;;
*)
    echo "usage: $0 serve|network|chaos|socket-chaos" >&2
    exit 2
    ;;
esac
echo "ci_smoke: $1 ok"
