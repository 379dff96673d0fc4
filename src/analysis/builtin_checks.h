#ifndef DMS_ANALYSIS_BUILTIN_CHECKS_H
#define DMS_ANALYSIS_BUILTIN_CHECKS_H

/**
 * @file
 * Internal glue for the builtin checker families. Each family lives
 * in its own translation unit (machine_checks.cc, loop_checks.cc,
 * schedule_checks.cc, queue_checks.cc, kernel_checks.cc) and
 * registers through one of the functions below;
 * registerBuiltinChecks() in builtin_checks.cc fans out to all of
 * them.
 */

#include "analysis/check.h"

namespace dms {
namespace lint {

/** Boilerplate base: stores the id/description/artifact triple. */
class BuiltinCheck : public Check
{
  public:
    BuiltinCheck(const char *id, const char *description,
                 ArtifactKind artifact)
        : id_(id), description_(description), artifact_(artifact)
    {
    }

    const char *id() const override { return id_; }
    const char *description() const override { return description_; }
    ArtifactKind artifact() const override { return artifact_; }

  private:
    const char *id_;
    const char *description_;
    ArtifactKind artifact_;
};

void registerMachineChecks(CheckRegistry &registry);
void registerLoopChecks(CheckRegistry &registry);
void registerScheduleChecks(CheckRegistry &registry);
void registerQueueChecks(CheckRegistry &registry);
void registerKernelChecks(CheckRegistry &registry);
void registerObsChecks(CheckRegistry &registry);

} // namespace lint
} // namespace dms

#endif // DMS_ANALYSIS_BUILTIN_CHECKS_H
