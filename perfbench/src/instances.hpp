// Seeded inputs of every workload: the generator settings and the
// instance sets. The library receives only the generated `.mmsyn` text,
// parsed back exactly as a user's file is.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

/// Wall time of each set-up step, summed over the instances built, and of
/// the whole set-up.
struct SetupTimes {
  double total = 0.0;
  double generate = 0.0;   ///< tgff: building the systems
  double serialize = 0.0;  ///< model: system_to_string
  double parse = 0.0;      ///< model: system_from_string + validate
  double input_kb = 0.0;   ///< size of the generated text
};

/// Serializes a generated system, parses the text back and validates it
/// (as the CLI and the job server do before they synthesize).
[[nodiscard]] Instance materialize(std::string name,
                                   const mmsyn::System& generated,
                                   mmsyn::JobOptions job, SetupTimes& times);

/// Instance set of a closed-loop workload (`synth_nodvs`, `synth_dvs_4t`).
[[nodiscard]] std::vector<Instance> make_synth_instances(
    const std::string& workload, std::uint64_t seed, SetupTimes& times);

}  // namespace perfbench
