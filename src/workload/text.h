#ifndef DMS_WORKLOAD_TEXT_H
#define DMS_WORKLOAD_TEXT_H

/**
 * @file
 * Human-readable DDG serialization, so loop bodies can be stored
 * in files, diffed, and fed to the command-line driver and the
 * compile service. Format:
 *
 *   # comment
 *   loop dot_product trip 500
 *   op 0 load stream=0
 *   op 1 load stream=1
 *   op 2 mul
 *   op 3 add
 *   op 4 store stream=2
 *   edge 0 2 flow dist=0 slot=0
 *   edge 1 2 flow dist=0 slot=1
 *   edge 2 3 flow dist=0 slot=0
 *   edge 3 3 flow dist=1 slot=1
 *   edge 3 4 flow dist=0 slot=0
 *
 * Flow-edge latencies come from the latency model at parse time;
 * non-flow edges take an explicit lat=N attribute (default 1 for
 * memory, 0 for anti, 1 for output).
 *
 * Tokenisation, frozen by the parser pins in tests/test_text.cc:
 *   - a line is trimmed of ASCII whitespace, then split into fields
 *     on ' ' only, so a tab inside a line is part of a field
 *     ("op\t1" is one unknown directive);
 *   - a '#' starts a comment only as the first byte of a trimmed
 *     line; anywhere else it is an ordinary byte;
 *   - attributes are key=value fields with exactly one '='; keys a
 *     directive does not read are ignored, and a repeated key keeps
 *     its last value;
 *   - integer fields take the decimal strtol grammar (surrounding
 *     whitespace, '+', leading zeros, "-0") and must be consumed
 *     whole (parseInt).
 * Op ids need not be dense or ascending. The machine format
 * (machine/desc.h) tokenises differently: it splits on spaces and
 * tabs, and a '#' starts a comment anywhere.
 *
 * loopToText emits the *canonical* form: live operations renumbered
 * densely from 0 in id order, edges in edge-id order, attributes in
 * a fixed order. Canonicalization is idempotent —
 * loopToText(loopFromText(t)) is a fixed point after one round trip
 * — which is what lets the serve cache key on the canonical text.
 */

#include <string>

#include "workload/kernels.h"

namespace dms {

/** Serialize a loop (ops, edges, trip count) in canonical form. */
std::string loopToText(const Loop &loop);

/**
 * Parse the textual format into @p out. Returns false and fills
 * @p error (prefixed "line N: " where applicable) on malformed
 * input; @p out is unspecified then. Flow-edge latencies are taken
 * from @p lat.
 */
bool loopFromText(const std::string &text, Loop &out,
                  std::string &error,
                  const LatencyModel &lat = LatencyModel());

/** Parsing front-end that fatal()s on malformed input. */
Loop loopFromText(const std::string &text,
                  const LatencyModel &lat = LatencyModel());

/**
 * Resolve a loop spec the way the CLI and the service both do:
 * "kernel:NAME" names a built-in kernel, anything else is a path
 * to a file in the textual format above. Returns false and fills
 * @p error on an unknown kernel, unreadable file, or parse error.
 */
bool loadLoopSpec(const std::string &spec, Loop &out,
                  std::string &error,
                  const LatencyModel &lat = LatencyModel());

} // namespace dms

#endif // DMS_WORKLOAD_TEXT_H
