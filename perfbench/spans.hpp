#pragma once

// The benchmark's own spans, recorded around every public call it makes
// into the program (Session, Communicator, Request, ckpt::Checkpointer).
// Each rank owns one SpanLog and is its only writer, so recording takes no
// lock. A span's layer is its name up to the first '.', e.g. "pml.isend"
// belongs to pml. Self time is a span's duration minus the time its
// direct child spans cover; spans on one rank nest strictly because every
// rank issues one call at a time.

#include <array>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Layers a span name may start with, in report order.
inline constexpr const char* kLayers[] = {"bench", "core", "pml", "coll",
                                          "ckpt"};
inline constexpr std::size_t kNumLayers = std::size(kLayers);

class SpanLog {
 public:
  /// Keep at most this many spans per rank for the trace file; self time
  /// and per-name durations still cover every span.
  static constexpr std::size_t kKeptSpans = 20000;
  /// Per-name duration samples kept for the medians.
  static constexpr std::size_t kKeptSamples = 1 << 18;

  /// `name` must be a string literal: kept spans store the pointer.
  void open(const char* name);
  void close();

  struct Kept {
    const char* name = nullptr;
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    int parent = -1;  ///< index into kept(), -1 at top level
  };
  [[nodiscard]] const std::vector<Kept>& kept() const { return kept_; }
  /// Self ns summed per layer, indexed like kLayers.
  [[nodiscard]] const std::array<std::int64_t, kNumLayers>& self_ns() const {
    return self_ns_;
  }
  /// Span durations (ns) per span name, in first-use order.
  using Durations =
      std::vector<std::pair<const char*, std::vector<std::int64_t>>>;
  [[nodiscard]] const Durations& durations() const { return durations_; }

 private:
  struct Open {
    const char* name;
    std::int64_t t0;
    std::int64_t child_ns;
    int kept_index;
  };
  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  std::array<std::int64_t, kNumLayers> self_ns_{};
  Durations durations_;
};

/// RAII span; a null log records nothing (the untraced pass).
class Span {
 public:
  Span(SpanLog* log, const char* name) : log_(log) {
    if (log_ != nullptr) {
      log_->open(name);
    }
  }
  ~Span() {
    if (log_ != nullptr) {
      log_->close();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog* log_;
};

/// Self time per layer and duration samples per span name, summed over
/// every rank's log.
struct SpanSummary {
  std::array<std::int64_t, kNumLayers> self_ns{};
  std::map<std::string, std::vector<std::int64_t>> durations;
};
SpanSummary summarize(const std::vector<SpanLog>& logs);

/// Write the kept spans as Chrome trace-event files, one per rank
/// (`<dir>/<prefix>.rank<N>.trace.json`), in the schema tools/trace_merge
/// reads. Returns the paths written.
std::vector<std::string> write_chrome_traces(const std::vector<SpanLog>& logs,
                                             const std::string& dir,
                                             const std::string& prefix);

}  // namespace perfbench
