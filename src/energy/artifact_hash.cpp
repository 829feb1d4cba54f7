#include "energy/artifact_hash.hpp"

#include <bit>
#include <vector>

namespace mmsyn {
namespace {

std::uint64_t mix_double(std::uint64_t h, double v) {
  return mix_word(h, std::bit_cast<std::uint64_t>(v));
}

std::uint64_t mix_bits(std::uint64_t h, const std::vector<bool>& bits) {
  h = mix_word(h, bits.size());
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < bits.size(); ++i) {
    word |= static_cast<std::uint64_t>(bits[i]) << (i % 64);
    if (i % 64 == 63) {
      h = mix_word(h, word);
      word = 0;
    }
  }
  return bits.size() % 64 != 0 ? mix_word(h, word) : h;
}

}  // namespace

std::uint64_t mode_evaluation_digest(const ModeEvaluation& m) {
  std::uint64_t h = kWordHashSeed;
  h = mix_double(h, m.dyn_energy);
  h = mix_double(h, m.dyn_power);
  h = mix_double(h, m.static_power);
  h = mix_double(h, m.timing_violation);
  h = mix_double(h, m.makespan);
  h = mix_bits(h, m.pe_active);
  h = mix_bits(h, m.cl_active);
  h = mix_word(h, m.routable ? 1 : 0);
  h = mix_double(h, m.baseline_static_power);
  h = mix_double(h, m.idle_energy_saved);
  h = mix_double(h, m.wake_energy);
  h = mix_double(h, m.temperature);
  return h;
}

bool equal_mode_evaluations(const ModeEvaluation& a, const ModeEvaluation& b) {
  return a.dyn_energy == b.dyn_energy && a.dyn_power == b.dyn_power &&
         a.static_power == b.static_power &&
         a.timing_violation == b.timing_violation &&
         a.makespan == b.makespan && a.pe_active == b.pe_active &&
         a.cl_active == b.cl_active && a.routable == b.routable &&
         a.baseline_static_power == b.baseline_static_power &&
         a.idle_energy_saved == b.idle_energy_saved &&
         a.wake_energy == b.wake_energy && a.temperature == b.temperature;
}

bool equal_mode_schedules(const ModeSchedule& a, const ModeSchedule& b) {
  if (a.tasks.size() != b.tasks.size() || a.comms.size() != b.comms.size() ||
      a.makespan != b.makespan || a.routable != b.routable)
    return false;
  for (std::size_t i = 0; i < a.tasks.size(); ++i) {
    const ScheduledTask& x = a.tasks[i];
    const ScheduledTask& y = b.tasks[i];
    if (x.task != y.task || x.pe != y.pe ||
        x.core_instance != y.core_instance || x.start != y.start ||
        x.finish != y.finish)
      return false;
  }
  for (std::size_t i = 0; i < a.comms.size(); ++i) {
    const ScheduledComm& x = a.comms[i];
    const ScheduledComm& y = b.comms[i];
    if (x.edge != y.edge || x.cl != y.cl || x.local != y.local ||
        x.start != y.start || x.finish != y.finish)
      return false;
  }
  return true;
}

}  // namespace mmsyn
