#ifndef DMS_MACHINE_DESC_H
#define DMS_MACHINE_DESC_H

/**
 * @file
 * Declarative machine descriptions: a small line-oriented text
 * format from which a MachineModel is built, so experiment configs
 * (eval/runner sweeps, dmsc --machine, tests) are data instead of
 * compiled-in factory calls. Format, one "key value..." per line:
 *
 *   # the paper's 4-cluster ring
 *   machine ring4                 # optional name
 *   clusters 4
 *   topology ring                 # ring | crossbar | mesh RxC
 *   regfile queues                # queues | conventional
 *   fus ldst=1 add=1 mul=1 copy=1
 *   latency mul=2 div=8           # optional opcode overrides
 *
 * Fields split on spaces and tabs, and a '#' starts a comment
 * anywhere on a line (the loop format, workload/text.h, differs on
 * both). Defaults when a key is absent: 1 cluster, ring topology, a
 * conventional register file, fus ldst=1 add=1 mul=1 copy=0 and the
 * default latency table. Every key except `latency` may appear at
 * most once. Sweep templates may use the placeholder `$C`
 * (expandMachineTemplate substitutes the cluster count), which is
 * how eval/runner derives one machine per configuration from a
 * single description.
 */

#include <string>
#include <string_view>

#include "machine/machine.h"

namespace dms {

/**
 * Parse the textual format into @p out. Returns false and fills
 * @p error (prefixed "line N: ") on malformed input; @p out is
 * unspecified then.
 */
bool machineFromText(const std::string &text, MachineModel &out,
                     std::string &error);

/** Parsing front-end that fatal()s on malformed input. */
MachineModel machineFromTextOrDie(const std::string &text);

/**
 * Serialize a machine into the canonical description: every shape
 * key explicit, plus `latency` lines for opcodes that differ from
 * the default table. machineFromText() round-trips it.
 */
std::string machineToText(const MachineModel &machine);

/** Replace every `$C` in @p tmpl with the decimal @p clusters. */
std::string expandMachineTemplate(std::string_view tmpl,
                                  int clusters);

} // namespace dms

#endif // DMS_MACHINE_DESC_H
