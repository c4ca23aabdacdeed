#pragma once

// Small statistics helpers shared by the benchmark harnesses: percentile,
// mean, min/max over timing samples, and a fixed-width table printer that
// renders the paper-style result tables.

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace sessmpi::base {

namespace detail {
struct TlsShards;
}  // namespace detail

struct Summary {
  double min = 0, max = 0, mean = 0, median = 0, p99 = 0;
  std::size_t count = 0;
};

/// Compute summary statistics; `samples` is copied and sorted internally.
Summary summarize(std::vector<double> samples);

/// Paper-style fixed-width table. Columns sized to the widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  /// Render with column separators and a rule under the header.
  void print(std::ostream& os) const;

  static std::string fmt(double value, int precision = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Process-wide named event counters, sharded per thread. Layers bump
/// counters on their hot paths (pml matching, fabric sends, FT revokes,
/// chaos kills, ...); tests and the benchmark harnesses read them back by
/// name.
///
/// Each name resolves (under a lock, once) to a small index; each thread
/// owns a shard of relaxed atomic cells indexed by it, so a bump is one
/// relaxed fetch_add on a thread-private cache line — no lock, no sharing.
/// Reads fold every shard's cell for the index. Shards of exited threads
/// are parked on a freelist (values retained, so no counts are lost) and
/// recycled by new threads, bounding memory at max *concurrent* threads.
///
/// Hot paths should resolve a Handle once (static local) and bump through
/// it; the string-keyed add() stays for cold paths.
class Counters {
 public:
  static constexpr std::size_t kMaxCounters = 1024;

  struct Shard {
    std::array<std::atomic<std::uint64_t>, kMaxCounters> cells{};
  };

  /// Pre-resolved counter index; add() through a handle is lock-free.
  class Handle {
   public:
    Handle() = default;
    void add(std::uint64_t delta = 1) const;
    [[nodiscard]] std::uint64_t value() const;

   private:
    friend class Counters;
    Handle(Counters* owner, std::size_t idx) : owner_(owner), idx_(idx) {}
    Counters* owner_ = nullptr;
    std::size_t idx_ = 0;
  };

  Counters() = default;
  Counters(const Counters&) = delete;
  Counters& operator=(const Counters&) = delete;

  /// Resolve `name` to a reusable handle (created on first use).
  Handle handle(const std::string& name);

  /// One-shot bump for cold paths (resolves the name every call).
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Current value (0 if the counter was never touched).
  std::uint64_t value(const std::string& name) const;

  /// Snapshot of every counter, sorted by name.
  std::vector<std::pair<std::string, std::uint64_t>> snapshot() const;

  /// One-line JSON object of every counter: {"name": value, ...}, as
  /// written into postmortem bundles. (The bench record line formats
  /// snapshot() itself; see bench/record.hpp.)
  void print_json(std::ostream& os) const;

  /// Reset all counters to zero (tests isolate themselves with this),
  /// then run every registered reset hook — so other per-run statistics
  /// (obs histograms, future pvars) stay in lockstep with one call.
  void reset();

  /// Zero a single counter across all shards (MPI_T pvar reset).
  void reset_one(const std::string& name);

  /// Register a callback fired at the end of every reset(). Hooks run
  /// outside the counter lock and live for the process lifetime.
  void add_reset_hook(std::function<void()> hook);

 private:
  friend class Handle;
  friend struct detail::TlsShards;

  std::size_t index_of(const std::string& name);           // creates
  std::uint64_t fold_locked(std::size_t idx) const;        // mu_ held
  Shard* local_shard();                                    // this thread's shard
  void retire_shard(Shard* shard);                         // thread exit

  mutable std::mutex mu_;
  std::map<std::string, std::size_t> index_;               // name -> idx
  std::vector<const std::string*> names_;                  // idx -> name
  std::vector<std::unique_ptr<Shard>> shards_;             // every shard ever made
  std::vector<Shard*> free_shards_;                        // parked by exited threads
  std::mutex hooks_mu_;
  std::vector<std::function<void()>> reset_hooks_;
};

/// The process-wide counter registry.
Counters& counters();

/// Shorthand: resolve a handle in the process-wide registry. Typical hot
/// path: `static const auto c = base::counter("pml.match_bin_hits"); c.add();`
inline Counters::Handle counter(const std::string& name) {
  return counters().handle(name);
}

}  // namespace sessmpi::base
