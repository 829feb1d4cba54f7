#include "energy/evaluator.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <stdexcept>
#include <utility>

#include "common/failpoint.hpp"
#include "energy/artifact_hash.hpp"
#include "power/power_model.hpp"

namespace mmsyn {
namespace {

// Failpoint on memo insertion. `corrupt`
// poisons the stored copy *after* its digest is taken (a deterministic
// bit flip in the hottest scalar), so the next lookup of that key fails
// verification and quarantines the entry; `fail` drops the insert — a
// lost memo entry is recomputed on the next miss, also self-healing.
failpoint::Site fp_cache_insert{"cache.insert"};

// Self-healing digests live in energy/artifact_hash.hpp — one shared
// field enumeration with the auditor's equality checks, so a new
// ModeEvaluation field can't silently drop out of either.

enum class InsertFault : std::uint8_t { kProceed, kSkip, kCorrupt };

/// Maps a cache.insert firing onto the insert-specific semantics above.
/// `fail` becomes a skipped insert rather than an exception: a memo
/// insert has no caller-side retry (the value is already computed), and
/// dropping it is exactly as recoverable.
InsertFault cache_insert_fault() {
  switch (fp_cache_insert.hit()) {
    case failpoint::Action::kNone:
      return InsertFault::kProceed;
    case failpoint::Action::kFail:
      return InsertFault::kSkip;
    case failpoint::Action::kKill:
      std::_Exit(failpoint::kKillExitCode);
    case failpoint::Action::kCorrupt:
      return InsertFault::kCorrupt;
  }
  return InsertFault::kProceed;
}

}  // namespace

ModeEvalKey::ModeEvalKey(std::uint32_t mode,
                         std::uint64_t options_fingerprint,
                         std::vector<PeId> task_to_pe,
                         std::vector<CoreSet> cores)
    : mode_(mode),
      options_fingerprint_(options_fingerprint),
      task_to_pe_(std::move(task_to_pe)),
      cores_(std::move(cores)) {
  auto pe_word = [](PeId pe) {
    return static_cast<std::uint64_t>(static_cast<std::uint32_t>(pe.value()));
  };
  std::uint64_t h = mix_word(kWordHashSeed, mode_);
  h = mix_word(h, options_fingerprint_);
  h = mix_word(h, task_to_pe_.size());
  std::size_t i = 0;
  for (; i + 1 < task_to_pe_.size(); i += 2)
    h = mix_word(h, pe_word(task_to_pe_[i]) |
                        pe_word(task_to_pe_[i + 1]) << 32);
  if (i < task_to_pe_.size()) h = mix_word(h, pe_word(task_to_pe_[i]));
  h = mix_word(h, cores_.size());
  for (const CoreSet& set : cores_) {
    h = mix_word(h, set.entries().size());
    for (const auto& [type, count] : set.entries())
      h = mix_word(h, static_cast<std::uint32_t>(type.value()) |
                          static_cast<std::uint64_t>(
                              static_cast<std::uint32_t>(count))
                              << 32);
  }
  hash_ = h;
}

const ModeEvaluation* ModeEvalCache::find(const ModeEvalKey& key) {
  ++lookups_;
  const auto it = map_.find(key);
  if (it == map_.end()) return nullptr;
  if (mode_evaluation_digest(it->second.value) != it->second.digest) {
    // Poisoned entry: quarantine (erase) and report a miss so the caller
    // recomputes. Recomputation is bit-identical to a cold evaluation.
    ++quarantined_;
    order_.erase(std::find(order_.begin(), order_.end(), &it->first));
    map_.erase(it);
    return nullptr;
  }
  ++hits_;
  return &it->second.value;
}

void ModeEvalCache::insert(ModeEvalKey key, const ModeEvaluation& value) {
  // A duplicate key is a complete no-op: no failpoint hit, and no
  // eviction — evicting first would lose the FIFO head and shrink the
  // cache. try_emplace moves the key only when it inserts.
  const auto [it, inserted] = map_.try_emplace(std::move(key));
  if (!inserted) return;
  const InsertFault fault = cache_insert_fault();
  if (fault == InsertFault::kSkip) {
    map_.erase(it);
    return;
  }
  if (capacity_ > 0) {
    // The new node is not in order_ yet, so it is never the one evicted.
    while (map_.size() > capacity_ && !order_.empty()) {
      map_.erase(map_.find(*order_.front()));
      order_.pop_front();
    }
  }
  Stored& stored = it->second;
  stored.value = value;
  stored.digest = mode_evaluation_digest(value);
  if (fault == InsertFault::kCorrupt)
    stored.value.dyn_energy =
        std::bit_cast<double>(std::bit_cast<std::uint64_t>(
                                  stored.value.dyn_energy) ^ 1u);
  order_.push_back(&it->first);
}

std::vector<std::pair<ModeEvalKey, ModeEvaluation>> ModeEvalCache::entries()
    const {
  std::vector<std::pair<ModeEvalKey, ModeEvaluation>> out;
  out.reserve(order_.size());
  for (const ModeEvalKey* key : order_)
    out.emplace_back(*key, map_.at(*key).value);
  return out;
}

void ModeEvalCache::restore(
    std::vector<std::pair<ModeEvalKey, ModeEvaluation>> entries, long hits,
    long lookups) {
  map_.clear();
  order_.clear();
  for (auto& [key, value] : entries) insert(std::move(key), value);
  hits_ = hits;
  lookups_ = lookups;
}

void ModeEvalCache::clear() {
  map_.clear();
  order_.clear();
  hits_ = 0;
  lookups_ = 0;
  quarantined_ = 0;
}

Evaluator::Evaluator(const System& system, EvaluationOptions options)
    : system_(system),
      options_(std::move(options)),
      pipeline_(system, PipelineOptions{options_.scheduling_policy,
                                        options_.use_dvs, options_.dvs,
                                        options_.keep_schedules,
                                        options_.profiler, options_.power}) {
  true_probs_ = system.omsm.probabilities();
  if (options_.weight_override.empty()) {
    weights_ = true_probs_;
  } else {
    if (options_.weight_override.size() != system.omsm.mode_count())
      throw std::invalid_argument(
          "EvaluationOptions::weight_override size mismatch");
    weights_ = options_.weight_override;
  }
  double total = 0.0;
  for (double w : weights_) total += w;
  if (total <= 0.0)
    throw std::invalid_argument("optimisation weights must sum > 0");
  for (double& w : weights_) w /= total;
}

ModeEvaluation Evaluator::evaluate_mode(std::size_t m,
                                        const MultiModeMapping& mapping,
                                        const CoreAllocation& cores) const {
  return pipeline_.run(m, mapping.modes[m], cores.per_mode[m]);
}

ModeEvalKey Evaluator::mode_key(std::size_t m, const MultiModeMapping& mapping,
                                const CoreAllocation& cores) const {
  return ModeEvalKey(static_cast<std::uint32_t>(m),
                     pipeline_.evaluation_fingerprint(),
                     mapping.modes[m].task_to_pe, cores.per_mode[m]);
}

Evaluation Evaluator::assemble(const MultiModeMapping& mapping,
                               const CoreAllocation& cores,
                               std::vector<ModeEvaluation> modes) const {
  (void)mapping;
  const Omsm& omsm = system_.omsm;
  const Architecture& arch = system_.arch;
  const TechLibrary& tech = system_.tech;
  assert(modes.size() == omsm.mode_count());

  Evaluation eval;
  eval.modes = std::move(modes);

  // Accumulated in ascending mode order so the floating-point sums are
  // bitwise-identical to the pre-decomposition evaluator.
  for (std::size_t m = 0; m < omsm.mode_count(); ++m) {
    const Mode& mode = omsm.mode(ModeId{static_cast<ModeId::value_type>(m)});
    const ModeEvaluation& me = eval.modes[m];
    const double mode_power = mode_total_power(me);
    eval.avg_power_true += mode_power * true_probs_[m];
    eval.avg_power_weighted += mode_power * weights_[m];
    // Normalised by the mode period: the timing penalty is expressed in
    // fractions of the period, never raw seconds (scale-independent).
    eval.weighted_timing_violation +=
        weights_[m] * me.timing_violation / mode.period;
  }

  // ---- Area usage and violations (line 06). -----------------------------
  eval.pe_used_area.assign(arch.pe_count(), 0.0);
  eval.pe_area_violation.assign(arch.pe_count(), 0.0);
  for (PeId p : arch.pe_ids()) {
    const Pe& pe = arch.pe(p);
    if (!is_hardware(pe.kind)) continue;
    eval.pe_used_area[p.index()] = cores.required_area(p, tech);
    eval.pe_area_violation[p.index()] =
        std::max(0.0, eval.pe_used_area[p.index()] - pe.area_capacity);
    eval.total_area_violation += eval.pe_area_violation[p.index()];
  }

  // ---- Mode-transition (FPGA reconfiguration) times (line 08). ----------
  eval.transition_times.assign(omsm.transition_count(), 0.0);
  eval.transition_violations.assign(omsm.transition_count(), 0.0);
  for (std::size_t t = 0; t < omsm.transition_count(); ++t) {
    const ModeTransition& tr =
        omsm.transition(TransitionId{static_cast<TransitionId::value_type>(t)});
    double time = 0.0;
    for (PeId p : arch.pe_ids()) {
      const Pe& pe = arch.pe(p);
      if (pe.kind != PeKind::kFpga) continue;
      const double delta = cores.cores(tr.to, p).delta_area_from(
          cores.cores(tr.from, p), tech, p);
      // FPGAs reconfigure in parallel with each other; the transition
      // waits for the slowest one.
      time = std::max(time, delta / pe.reconfig_bandwidth);
    }
    eval.transition_times[t] = time;
    eval.transition_violations[t] =
        std::max(0.0, time - tr.max_transition_time);
  }

  return eval;
}

Evaluation Evaluator::evaluate(const MultiModeMapping& mapping,
                               const CoreAllocation& cores) const {
  std::vector<ModeEvaluation> modes;
  modes.reserve(system_.omsm.mode_count());
  for (std::size_t m = 0; m < system_.omsm.mode_count(); ++m)
    modes.push_back(evaluate_mode(m, mapping, cores));
  return assemble(mapping, cores, std::move(modes));
}

Evaluation Evaluator::evaluate(const MultiModeMapping& mapping,
                               const CoreAllocation& cores,
                               ModeEvalCache* cache) const {
  // Cached entries carry no schedules, so keep_schedules evaluates cold.
  if (cache == nullptr || options_.keep_schedules)
    return evaluate(mapping, cores);
  std::vector<ModeEvaluation> modes;
  modes.reserve(system_.omsm.mode_count());
  for (std::size_t m = 0; m < system_.omsm.mode_count(); ++m) {
    ModeEvalKey key = mode_key(m, mapping, cores);
    if (const ModeEvaluation* hit = cache->find(key)) {
      modes.push_back(*hit);
      continue;
    }
    modes.push_back(evaluate_mode(m, mapping, cores));
    cache->insert(std::move(key), modes.back());
  }
  return assemble(mapping, cores, std::move(modes));
}

}  // namespace mmsyn
