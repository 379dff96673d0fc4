#ifndef DMS_TESTS_REQUESTS_H
#define DMS_TESTS_REQUESTS_H

/**
 * @file
 * The canonical service request for one (loop, machine, options)
 * cell: the exact texts and resolved scheduler name the compile
 * service keys its cache on.
 */

#include "machine/desc.h"
#include "serve/service.h"
#include "workload/text.h"

namespace dms {

inline CompileRequest
makeRequest(const Loop &loop, const MachineModel &machine,
            const PipelineOptions &options)
{
    CompileRequest req;
    req.loopText = loopToText(loop);
    req.machineText = machineToText(machine);
    req.options = options;
    if (req.options.scheduler.empty())
        req.options.scheduler =
            machine.clustered() ? "dms" : "ims";
    return req;
}

} // namespace dms

#endif // DMS_TESTS_REQUESTS_H
