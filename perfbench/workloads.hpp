#pragma once

// The four benchmark workloads and the per-cluster harness they report to.
//
// Every rank body follows the same shape:
//   set up (first Session, first communicator, buffers, warm-up) and time a
//   second warm-up batch on rank 0 -> Harness::setup_done
//   for each pass (untraced; traced with --trace 1):
//     Harness::begin_pass
//     Harness::kRounds x (Harness::begin_round -> a slice of every phase)
//     Harness::end_pass
//   tear down.
// The harness's rendezvous never sends a message: ranks spin on shared
// memory, yielding to the fiber scheduler, so no pvar counts it and the
// counts read at end_pass belong to the timed phases alone.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// Deterministic 64-bit stream: the benchmark's inputs all come from here,
/// keyed by the run seed, an input id and an index.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index);

/// Everything one pass measured, merged over ranks.
struct PassResult {
  double wall_s = 0;               ///< begin_pass release .. end_pass
  std::uint64_t attempted = 0;     ///< verified operations
  std::uint64_t units = 0;         ///< denominator of the per-op counts
  std::uint64_t failed = 0;        ///< distinct operations that failed
  std::vector<std::string> failures;  ///< first few failure descriptions
  /// Timing samples (microseconds) per series name, pooled over ranks.
  std::map<std::string, std::vector<double>> series;
  /// pvar values read at the end of the pass (a histogram as its .p50).
  std::map<std::string, double> pvars;
};

class Harness {
 public:
  struct Options {
    int ranks = 0;
    double seconds = 1;    ///< timed budget of the whole run
    bool timed = true;     ///< false: set up, then tear down (setup reps)
    bool traced = false;   ///< add a traced pass after the untraced one
    int wrong_expected = 0;  ///< added to one expected value per pass
  };
  explicit Harness(Options opts);

  Harness(const Harness&) = delete;
  Harness& operator=(const Harness&) = delete;

  [[nodiscard]] const Options& options() const { return opts_; }
  [[nodiscard]] int passes() const { return opts_.traced ? 2 : 1; }

  /// Start of set-up, taken by the driver just before the cluster exists.
  void set_setup_start(std::int64_t ns) { setup_t0_ = ns; }
  /// Seconds from set_setup_start until the last rank reached setup_done.
  [[nodiscard]] double setup_seconds() const {
    return static_cast<double>(setup_t1_ - setup_t0_) / 1e9;
  }

  /// Rounds per pass. Phases run interleaved, one slice of each per round,
  /// so a slow spell of the host lands on every phase alike.
  static constexpr int kRounds = 10;

  /// Rendezvous after warm-up. Rank 0 passes the seconds one iteration of
  /// each timed phase took in warm-up, with each phase's share of the
  /// budget.
  void setup_done(int rank, const std::vector<double>& per_iter_s = {},
                  const std::vector<double>& shares = {});

  /// Rendezvous at the start of each round; returns how many iterations
  /// each phase runs in it, the same on every rank. In the untraced pass
  /// the counts follow the pace measured so far, so the pass fills its
  /// share of the budget however fast the host runs; the traced pass
  /// repeats the untraced pass's counts.
  std::vector<std::uint64_t> begin_round(int pass, int round);

  /// Rendezvous; the last rank resets every pvar. Returns the span log for
  /// this rank, or nullptr in the untraced pass.
  SpanLog* begin_pass(int rank, int pass);
  /// Rendezvous; the last rank waits for the fabric to drain and reads the
  /// pvars.
  void end_pass(int pass);

  /// Per-rank sample series of the current pass.
  std::vector<double>& series(int rank, int pass, const std::string& name);
  /// Record a failed operation (an output check or a thrown error).
  void fail(int rank, int pass, std::uint64_t op, const std::string& what);
  /// Rank 0 records what the pass attempted and its per-op denominator.
  void count(int pass, std::uint64_t attempted, std::uint64_t units);
  /// Value to add to the first expected value a pass checks.
  [[nodiscard]] int bias(std::uint64_t op) const {
    return op == 0 ? opts_.wrong_expected : 0;
  }

  /// Merged results; call after the cluster has run.
  [[nodiscard]] PassResult result(int pass) const;
  [[nodiscard]] const std::vector<SpanLog>& span_logs() const { return logs_; }

 private:
  void rendezvous(const std::function<void()>& last);

  Options opts_;
  std::int64_t setup_t0_ = 0;
  std::int64_t setup_t1_ = 0;
  std::vector<double> calib_s_;
  std::vector<double> shares_;
  /// Iterations per round and phase at the warm-up pace.
  std::vector<double> base_;
  double scale_ = 1;
  std::int64_t round_t0_ = 0;
  /// Counts of every round of the untraced pass, replayed when traced.
  std::vector<std::vector<std::uint64_t>> plan_;
  std::vector<std::uint64_t> current_;

  std::atomic<int> arrived_{0};
  std::atomic<std::uint64_t> generation_{0};

  struct PassState {
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::uint64_t attempted = 0;
    std::uint64_t units = 0;
    std::map<std::string, double> pvars;
    /// Indexed by rank; each rank writes only its own entry.
    std::vector<std::map<std::string, std::vector<double>>> series;
    std::vector<std::map<std::uint64_t, std::string>> failed;
  };
  std::vector<PassState> pass_;
  std::vector<SpanLog> logs_;
};

/// One rank's view of its harness.
struct Ctx {
  Harness& h;
  int rank;
  std::uint64_t seed;
};

/// A figure a workload reports under its own name (lat_8B_us, ...).
struct Named {
  std::string name;
  double value;
  std::string unit;
};

/// Where an end-to-end slot's value comes from: quantile `q` of a series.
struct SlotSource {
  const char* series;
  double q;
};

struct Workload {
  const char* name;
  int nodes;
  int ppn;
  std::function<void(Ctx&)> body;
  /// The generic end-to-end slots: lat_us (lat.q and its p90), mid_us and
  /// bulk_us. BENCHMARK.json gates these; every workload fills all three.
  SlotSource lat;
  SlotSource mid;
  SlotSource bulk;
  /// The op unit the per-layer counts are divided by ("msg", "op", ...).
  const char* unit;
  /// The workload's figures under their own names, from a merged pass.
  std::function<std::vector<Named>(const PassResult&)> named;
};

/// Quantile `q` of `v` by linear interpolation; 0 if empty.
double quantile(std::vector<double> v, double q);
/// Quantile `q` of a merged series; 0 if the pass has no such series.
double quantile(const PassResult& r, const std::string& series, double q);

/// The workloads, by name; nullopt for an unknown name.
std::optional<Workload> find_workload(const std::string& name);

}  // namespace perfbench
