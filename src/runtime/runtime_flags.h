// Applies the shared command-line flags that configure the process-wide
// runtime. Split out of common/flags.h so the flag *parser* stays at the
// bottom of the layer DAG (common depends on nothing) while this glue — which
// reaches up into runtime:: and obs:: — lives at the runtime layer, where the
// layering analyzer (tools/lint/layering.cc) allows those edges.
#ifndef URCL_RUNTIME_RUNTIME_FLAGS_H_
#define URCL_RUNTIME_RUNTIME_FLAGS_H_

#include "common/flags.h"

namespace urcl {
namespace runtime {

// Applies flags that configure the process-wide runtime: `--threads N` sets
// the compute thread count (runtime::SetNumThreads), the URCL_FAULT env var
// arms the fault-injection harness (common/fault_injector.h), and the
// observability layer is configured from URCL_OBS plus `--metrics-out`,
// `--trace-out` and `--profile-out` (each enables its subsystem and sets the
// file obs::WriteConfiguredOutputs() writes at exit). Call once at startup in
// any binary that accepts flags; a no-op when nothing is set.
void ApplyRuntimeFlags(const Flags& flags);

}  // namespace runtime
}  // namespace urcl

#endif  // URCL_RUNTIME_RUNTIME_FLAGS_H_
