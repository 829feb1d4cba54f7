// One synthesis as a user runs it — synthesize(), audit_result(),
// implementation_report() — untraced, and the same composition replayed
// from the library's public pieces with a span around each layer.
#pragma once

#include <map>
#include <string>

#include "bench.hpp"
#include "trace.hpp"

namespace perfbench {

/// Per-layer totals of the traced run, keyed by metric name.
using Layers = std::map<std::string, double>;

/// synthesize + audit + report, timed as one call.
[[nodiscard]] SynthesisRun run_untraced(const Instance& instance);

/// The single-island composition of synthesize() from public calls: loop
/// Evaluator -> MappingGa start/step/finish/harvest -> fine-DVS
/// Evaluator::evaluate through the warm mode cache; then audit and
/// report. Spans go to `trace` under a per-instance root span tagged
/// `id`; counters and layer times are added into `layers`. Must produce
/// the report bytes of run_untraced.
[[nodiscard]] SynthesisRun run_traced(const Instance& instance, Trace& trace,
                                      std::uint64_t id, Layers& layers);

}  // namespace perfbench
