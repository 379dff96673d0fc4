#ifndef DMS_ANALYSIS_BUILTIN_CHECKS_H
#define DMS_ANALYSIS_BUILTIN_CHECKS_H

/**
 * @file
 * The builtin check tables. Each family lives in its own translation
 * unit (kernel_checks.cc, loop_checks.cc, machine_checks.cc,
 * obs_checks.cc, queue_checks.cc, schedule_checks.cc) as check
 * functions plus one constant table ordered by id; allChecks() in
 * check.cc concatenates the tables.
 */

#include "analysis/check.h"

namespace dms {
namespace lint {

/** One family's checks: a constant array ordered by id. */
struct CheckTable
{
    const Check *begin;
    const Check *end;
};

extern const CheckTable kKernelChecks;
extern const CheckTable kLoopChecks;
extern const CheckTable kMachineChecks;
extern const CheckTable kObsChecks;
extern const CheckTable kQueueChecks;
extern const CheckTable kScheduleChecks;

} // namespace lint
} // namespace dms

#endif // DMS_ANALYSIS_BUILTIN_CHECKS_H
