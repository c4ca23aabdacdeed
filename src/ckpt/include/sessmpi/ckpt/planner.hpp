#pragma once

// Checkpoint-interval planner (Young's model). The planner turns two
// measured quantities — mean time between failures as observed by the
// workload (e.g. under the sim's chaos schedule) and the EWMA cost of a
// coordinated save — into the optimal checkpoint interval
//
//   tau = sqrt(2 * delta * M)
//
// with delta = save cost and M = MTBF, both in nanoseconds.
//
// One process-wide planner instance (`planner()`) aggregates failures from
// every rank of the simulated cluster — MTBF is a system property, not a
// per-rank one. It is wired into the MPI_T namespace:
//
//   gauges  ckpt.planner.mtbf_ns, ckpt.planner.interval_ns,
//           ckpt.planner.save_cost_ns
//   counter ckpt.planner.failures
//   cvars   ckpt.interval.mode      "fixed" | "planned"
//           ckpt.interval.fixed_ns  fixed-mode interval (also the planned-
//                                   mode fallback until enough failures)
//
// so a soak test can A/B fixed vs planned cadence by flipping cvars.

#include <cstdint>

namespace sessmpi::ckpt {

class IntervalPlanner {
 public:
  /// Record an observed failure (rank death detected by the workload or
  /// the chaos schedule) at absolute time `now_ns`. Thread-safe.
  void note_failure(std::int64_t now_ns);

  /// Record the measured cost of one coordinated save (EWMA, alpha 1/4).
  void note_save_cost(std::int64_t cost_ns);

  /// Mean time between observed failures; 0 until two failures were seen.
  [[nodiscard]] std::int64_t mtbf_ns() const;

  [[nodiscard]] std::int64_t save_cost_ns() const;

  /// Young interval from the current estimates; 0 while MTBF or save cost
  /// is unknown.
  [[nodiscard]] std::int64_t planned_interval_ns() const;

  /// The interval the `ckpt.interval.*` cvars currently ask for: the fixed
  /// interval in "fixed" mode, the planned one (with fixed fallback) in
  /// "planned" mode. 0 = no time-based cadence configured.
  [[nodiscard]] std::int64_t effective_interval_ns() const;

  [[nodiscard]] std::uint64_t failures() const;

  /// Forget all measurements (tests isolate themselves with this).
  void reset();

  /// Pure planner math, exposed for unit tests.
  static std::int64_t young(std::int64_t save_cost_ns, std::int64_t mtbf_ns);
};

/// The process-wide planner (created on first use, registered with the
/// obs pvar/cvar namespace, immortal).
IntervalPlanner& planner();

}  // namespace sessmpi::ckpt
