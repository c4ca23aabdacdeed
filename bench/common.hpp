#pragma once

// Shared infrastructure for the figure-reproduction benchmarks: calibrated
// clusters, cross-rank timing collection, and paper-style table output.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "record.hpp"
#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/stats.hpp"
#include "sessmpi/mpi.hpp"
#include "sessmpi/obs/sampler.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/trace_json.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/pmix/client.hpp"
#include "sessmpi/sim/cluster.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace sessmpi::bench {

inline sim::Cluster::Options calibrated_opts(int nodes, int ppn) {
  sim::Cluster::Options o;
  o.topo = {nodes, ppn};
  o.cost = base::CostModel::calibrated();
  return o;
}

/// Collects one double per rank, thread-safely; reduces afterwards.
class RankSamples {
 public:
  void add(double v) {
    std::lock_guard lock(mu_);
    samples_.push_back(v);
  }
  [[nodiscard]] double max() const {
    std::lock_guard lock(mu_);
    return samples_.empty()
               ? 0.0
               : *std::max_element(samples_.begin(), samples_.end());
  }
  [[nodiscard]] double mean() const {
    std::lock_guard lock(mu_);
    if (samples_.empty()) {
      return 0.0;
    }
    double s = 0;
    for (double v : samples_) {
      s += v;
    }
    return s / static_cast<double>(samples_.size());
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> samples_;
};

/// Run `body` on a fresh calibrated cluster.
inline void run_cluster(int nodes, int ppn,
                        const std::function<void(sim::Process&)>& body) {
  sim::Cluster cluster{calibrated_opts(nodes, ppn)};
  cluster.run(body);
}

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!note.empty()) {
    std::cout << note << "\n";
  }
  std::cout << "\n";
}

/// Value of a `--key=value` argument, or nullopt.
inline std::optional<std::string> arg_value(int argc, char** argv,
                                            const char* prefix) {
  const std::size_t len = std::strlen(prefix);
  std::optional<std::string> out;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix, len) == 0) {
      out = argv[i] + len;
    }
  }
  return out;
}

/// Print this run's one BENCH_RECORD line (bench/record.hpp) for
/// `bench_name`: its headline metrics plus a snapshot of every process-wide
/// counter. Metric names are the join key against the checked-in
/// BENCH_<bench>.json baselines, so keep them stable across runs.
inline void print_record(const std::string& bench_name,
                         std::map<std::string, Metric> metrics = {}) {
  Record record{bench_name, std::move(metrics), {}};
  for (const auto& [name, value] : base::counters().snapshot()) {
    record.counters.emplace(name, value);
  }
  std::cout << to_line(record) << "\n";
}

/// `--metrics=<period_ms>`: start the background pvar sampler for the whole
/// run (via the obs.metrics.period_ms cvar, so the same knob works outside
/// the benches). Returns the period for flush_metrics' symmetry.
inline std::optional<int> metrics_period_from_args(int argc, char** argv) {
  const auto v = arg_value(argc, argv, "--metrics=");
  if (!v) {
    return std::nullopt;
  }
  if (!obs::cvar_write("obs.metrics.period_ms", *v)) {
    std::cerr << "bad --metrics=" << *v << " (period in ms, 0..60000)\n";
    std::exit(2);
  }
  return std::stoi(*v);
}

/// Stop the sampler and export the collected time-series as
/// `<dir>/<bench>.metrics.jsonl` (one `{"ts_ns":..,"pvars":{..}}` object
/// per line). Prints a `METRICS=<path>` marker like TRACE=.
inline void flush_metrics(const std::optional<int>& period,
                          const std::string& dir,
                          const std::string& bench_name) {
  if (!period) {
    return;
  }
  obs::MetricsSampler& sampler = obs::MetricsSampler::instance();
  sampler.set_period_ms(0);
  sampler.sample_now();  // final snapshot so even a short run has data
  const std::string path = dir + "/" + bench_name + ".metrics.jsonl";
  const std::size_t lines = sampler.write_jsonl(path);
  std::cout << "METRICS=" << path << " (" << lines << " samples)\n";
}

/// Apply `--sched=threads|fibers` and `--modex=eager|lazy` (if present) to
/// the `sim.scheduler` / `pmix.modex` cvars, so one bench binary can be
/// invoked once per sweep cell. Returns the effective {sched, modex} pair.
inline std::pair<std::string, std::string> apply_mode_flags(int argc,
                                                            char** argv) {
  sim::register_scheduler_cvar();
  pmix::register_modex_cvar();
  if (auto v = arg_value(argc, argv, "--sched=")) {
    if (!obs::cvar_write("sim.scheduler", *v)) {
      std::cerr << "bad --sched=" << *v << " (threads|fibers)\n";
      std::exit(2);
    }
  }
  if (auto v = arg_value(argc, argv, "--modex=")) {
    if (!obs::cvar_write("pmix.modex", *v)) {
      std::cerr << "bad --modex=" << *v << " (eager|lazy)\n";
      std::exit(2);
    }
  }
  return {obs::cvar_read("sim.scheduler").value_or("?"),
          obs::cvar_read("pmix.modex").value_or("?")};
}

/// Peak RSS ("VmHWM") or current RSS ("VmRSS") in KiB from
/// /proc/self/status; 0 if unavailable (non-Linux). VmHWM is monotone over
/// the process lifetime, so memory-density cells run as separate
/// invocations.
inline long read_proc_status_kib(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, len, key) == 0) {
      return std::strtol(line.c_str() + len + 1, nullptr, 10);
    }
  }
  return 0;
}

/// True if `name` appears among the args.
inline bool flag_present(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return true;
    }
  }
  return false;
}

/// `--trace <dir>` / `--trace=<dir>`: output directory for per-rank Chrome
/// trace files. Parsing it also enables the tracer for the whole run.
inline std::optional<std::string> trace_dir_from_args(int argc, char** argv) {
  std::optional<std::string> dir;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      dir = argv[i + 1];
    } else if (std::strncmp(argv[i], "--trace=", 8) == 0) {
      dir = argv[i] + 8;
    }
  }
  if (dir) {
    obs::Tracer::instance().set_enabled(true);
  }
  return dir;
}

/// Flush the collected trace into per-rank files under `dir` and print one
/// `TRACE=<path>` line per file (the driver-side marker). Call after every
/// cluster has been destroyed — the tracer's rings may only be read once
/// all writer threads are quiescent.
inline void flush_trace(const std::optional<std::string>& dir,
                        const std::string& bench_name) {
  if (!dir) {
    return;
  }
  obs::Tracer& tracer = obs::Tracer::instance();
  tracer.set_enabled(false);
  const auto events = tracer.collect();
  const auto paths = obs::write_rank_traces(*dir, bench_name, events);
  for (const auto& path : paths) {
    std::cout << "TRACE=" << path << "\n";
  }
  if (tracer.evicted() > 0) {
    std::cout << "TRACE_EVICTED=" << tracer.evicted()
              << " (oldest events dropped; raise obs.trace.ring_events)\n";
  }
  std::cout << "merge with: trace_merge";
  for (const auto& path : paths) {
    std::cout << ' ' << path;
  }
  std::cout << " -o merged.trace.json\n";
}

}  // namespace sessmpi::bench
