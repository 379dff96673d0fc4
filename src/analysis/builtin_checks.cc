#include "analysis/builtin_checks.h"

namespace dms {

void
registerBuiltinChecks(CheckRegistry &registry)
{
    lint::registerMachineChecks(registry);
    lint::registerLoopChecks(registry);
    lint::registerScheduleChecks(registry);
    lint::registerQueueChecks(registry);
    lint::registerKernelChecks(registry);
    lint::registerObsChecks(registry);
}

} // namespace dms
