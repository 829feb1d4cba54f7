// Shared field-by-field hashing and exact equality of the per-mode
// pipeline artifacts.
//
// The mode cache's self-healing digest and the auditor's stage-replay /
// cache-invariant comparisons used to each enumerate the ModeEvaluation
// fields independently — a new field silently dropped from one copy
// would weaken the digest or the replay check without any test noticing.
// This header is the single enumeration both consume: the digest covers
// exactly the fields the equality predicate compares (the optional
// retained schedule excluded — memoised entries never carry one, and the
// auditor replays schedules separately with equal_mode_schedules).
//
// Stability: the digest is an in-memory integrity check, recomputed on
// every cache insert (checkpoints store values, not digests), so the
// definition may evolve with the structs — but within one build it must
// be deterministic across calls and processes, which the hash-stability
// test pins.
#pragma once

#include <cstdint>

#include "pipeline/artifacts.hpp"
#include "sched/schedule.hpp"

namespace mmsyn {

/// Start value of a word-wise hash (any nonzero constant).
inline constexpr std::uint64_t kWordHashSeed = 0xcbf29ce484222325ull;

/// One word-wise mixing step: one multiply per 64-bit word. For a fixed
/// word the step is a bijection of `h` (xor, multiply by an odd constant,
/// xorshift), so changing any one word of a fixed-length sequence always
/// changes the result. Used by the mode-cache key hash and the digest.
[[nodiscard]] constexpr std::uint64_t mix_word(std::uint64_t h,
                                               std::uint64_t w) {
  h = (h ^ w) * 0x9e3779b97f4a7c15ull;
  return h ^ (h >> 29);
}

/// Word-wise digest of every compared ModeEvaluation field: the scalars
/// by bit pattern, then each bool vector as its length followed by its
/// bits packed 64 per word.
[[nodiscard]] std::uint64_t mode_evaluation_digest(const ModeEvaluation& m);

/// Exact (bitwise) equality over the digested ModeEvaluation fields.
[[nodiscard]] bool equal_mode_evaluations(const ModeEvaluation& a,
                                          const ModeEvaluation& b);

/// Exact (bitwise) equality over every ModeSchedule field.
[[nodiscard]] bool equal_mode_schedules(const ModeSchedule& a,
                                        const ModeSchedule& b);

}  // namespace mmsyn
