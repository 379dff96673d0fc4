#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the dms library from src/ plus the dmsbench driver)
in $CARGO_TARGET_DIR, or .bench_build when that is unset; later calls
only rebuild what changed. Build output goes to stderr. The benchmark's
own output goes to stdout, and its last line is the result object
{"correct", "attempted", "failed", "metrics"}. A traced run (--trace 1)
also writes its spans as Chrome trace_event JSON under <build>/traces/.

--selftest runs the benchmark's self-tests and checks that
BENCHMARK.json names exactly the metrics dmsbench reports.
"""

import argparse
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_SECONDS = 850
RUN_SECONDS = 175


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def source_sha():
    """sha256 over the library and benchmark sources, path-sorted."""
    digest = hashlib.sha256()
    files = [p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*")
             if p.is_file() and p.suffix in (".h", ".cc", ".cpp", ".txt", ".py")]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha():
    """HEAD's commit when the checkout is a git work tree, else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head[:16]
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()[:16]
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0][:16]
    except OSError:
        pass
    return "unknown"


def run(cmd, timeout, stdout=subprocess.PIPE, env=None):
    """Run @cmd in its own process group; kill the group on timeout."""
    try:
        proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                                text=True, start_new_session=True, env=env)
    except OSError as err:
        fail(f"cannot run {cmd[0]}: {err}")
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{' '.join(cmd[:2])} did not finish within {timeout:.0f} s")
    return subprocess.CompletedProcess(cmd, proc.returncode, out)


def build(out):
    if not (ROOT / "src" / "core" / "pipeline.h").is_file():
        fail(f"no dms sources under {ROOT / 'src'}; run from a full checkout")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    deadline = time.monotonic() + BUILD_SECONDS
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "-j", jobs])
    # Keep the compilers' temporary files inside the build tree.
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        done = run(cmd, max(1, deadline - time.monotonic()),
                   stdout=sys.stderr, env=env)
        if done.returncode != 0:
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}")
    binary = out / "dmsbench"
    if not binary.is_file():
        fail("build produced no dmsbench binary")
    return binary


def selftest(binary):
    done = run([str(binary), "selftest"], RUN_SECONDS)
    sys.stdout.write(done.stdout)
    failures = 0 if done.returncode == 0 else 1

    names = json.loads(run([str(binary), "names"], 30).stdout)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    name_re = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    for section in ("end_to_end", "per_layer"):
        want = [(m["name"], m["unit"], m["better"]) for m in names[section]]
        have = [(m["name"], m["unit"], m["better"]) for m in spec[section]]
        ok = want == have and all(name_re.fullmatch(n) for n, _, _ in have)
        print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json {section} lists "
              f"the {len(want)} metrics dmsbench reports")
        failures += 0 if ok else 1
    workloads = [w["name"] for w in spec["workloads"]]
    ok = set(workloads) <= set(names["workloads"]) and len(workloads) >= 2
    print(f"{'ok  ' if ok else 'FAIL'} BENCHMARK.json workloads {workloads} "
          f"are among dmsbench's {names['workloads']}")
    failures += 0 if ok else 1
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    started = time.monotonic()
    out = build_dir()
    binary = build(out)
    if args.selftest:
        return selftest(binary)

    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", repr(args.seconds), "--trace",
           str(args.trace), "--src-sha", source_sha(), "--git-sha",
           git_sha()]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-seed{args.seed}.json")]
    budget = RUN_SECONDS - (time.monotonic() - started)
    done = run(cmd, max(budget, 60))
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
