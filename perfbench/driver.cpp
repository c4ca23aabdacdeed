// Repository benchmark driver: runs one workload of perfbench on a
// simulated cluster with base::CostModel::zero() and the fiber scheduler,
// so every reported time is the software's own cost, and prints one JSON
// result line last.
//
//   perfbench_driver --workload <p2p|coll|sessions|ckpt> --seed <n>
//                    --seconds <s> --trace <0|1>
//                    [--setup-reps <k>] [--wrong-expected]
//                    [--trace-dir <dir>]
//
// --trace 0 reports the end-to-end metrics; --trace 1 runs an untraced and
// a traced pass of the same iterations and reports the per-layer metrics.
// --wrong-expected skews one expected value per pass, so the result must
// show a failed operation (the self-test uses it).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/cost_model.hpp"
#include "sessmpi/fabric/cc.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/pmix/client.hpp"
#include "sessmpi/sim/cluster.hpp"
#include "sessmpi/sim/scheduler.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  int setup_reps = 9;
  bool wrong_expected = false;
  std::string trace_dir = ".bench_build/perfbench/traces";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why
            << "\nusage: perfbench_driver --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--setup-reps <k>] "
               "[--wrong-expected] [--trace-dir <dir>]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--wrong-expected") {
      a.wrong_expected = true;
      continue;
    }
    if (i + 1 >= argc) {
      usage("missing value for " + key);
    }
    const std::string v = argv[++i];
    try {
      if (key == "--workload") {
        a.workload = v;
      } else if (key == "--seed") {
        a.seed = std::stoull(v);
      } else if (key == "--seconds") {
        a.seconds = std::stod(v);
      } else if (key == "--trace") {
        a.trace = std::stoi(v) != 0;
      } else if (key == "--setup-reps") {
        a.setup_reps = std::stoi(v);
      } else if (key == "--trace-dir") {
        a.trace_dir = v;
      } else {
        usage("unknown argument " + key);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + key + ": " + v);
    }
  }
  if (a.seconds <= 0 || a.setup_reps < 1) {
    usage("--seconds and --setup-reps must be positive");
  }
  return a;
}

/// The configuration every run pins through the cvar API: the values the
/// workloads were designed around, read back as the program took them.
constexpr std::pair<const char*, const char*> kPinned[] = {
    {"sim.scheduler", "fibers"},
    {"coll.algorithm", "hier"},
    {"pmix.modex", "lazy"},
    {"fabric.cc", "fixed"},
};

std::string pin_config() {
  sessmpi::sim::register_scheduler_cvar();
  sessmpi::pmix::register_modex_cvar();
  sessmpi::fabric::register_fabric_cvars();
  std::ostringstream os;
  for (const auto& [name, value] : kPinned) {
    if (!sessmpi::obs::cvar_write(name, value)) {
      std::cerr << "perfbench_driver: cannot set cvar " << name << "=" << value
                << "\n";
      std::exit(3);
    }
    os << " " << name << "=" << sessmpi::obs::cvar_read(name).value_or("?");
  }
  return os.str();
}

double p50_ns(const SpanSummary& s, const char* name) {
  auto it = s.durations.find(name);
  if (it == s.durations.end()) {
    return 0;
  }
  return quantile(std::vector<double>(it->second.begin(), it->second.end()),
                  0.5);
}

/// Per-layer metrics of the traced pass. Counts are summed over ranks and
/// divided by the workload's op unit (`units`); span times are medians
/// over every call on every rank.
std::vector<Named> per_layer(const PassResult& traced,
                              const PassResult& untraced,
                              const SpanSummary& spans) {
  const auto pv = [&](const char* name) {
    auto it = traced.pvars.find(name);
    return it == traced.pvars.end() ? 0.0 : it->second;
  };
  const double units = static_cast<double>(std::max<std::uint64_t>(traced.units, 1));
  const auto per_op = [&](const char* name) { return pv(name) / units; };
  const auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double save_p50_ns = p50_ns(spans, "ckpt.save");
  std::vector<Named> m = {
      {"core.session_init_us", p50_ns(spans, "core.session_init") / 1e3, "us"},
      {"core.group_from_pset_us", p50_ns(spans, "core.group_from_pset") / 1e3, "us"},
      {"core.comm_create_from_group_us",
       p50_ns(spans, "core.comm_create_from_group") / 1e3, "us"},
      {"core.comm_dup_us", p50_ns(spans, "core.comm_dup") / 1e3, "us"},
      {"core.comm_free_us", p50_ns(spans, "core.comm_free") / 1e3, "us"},
      {"core.session_finalize_us", p50_ns(spans, "core.session_finalize") / 1e3, "us"},
      {"pml.isend_call_ns", p50_ns(spans, "pml.isend"), "ns"},
      {"pml.irecv_call_ns", p50_ns(spans, "pml.irecv"), "ns"},
      {"pml.wait_all_us", p50_ns(spans, "pml.wait_all") / 1e3, "us"},
      {"pml.send_ns.p50", pv("pt2pt.send_ns.p50"), "ns"},
      {"pml.recv_ns.p50", pv("pt2pt.recv_ns.p50"), "ns"},
      {"pml.match_bin_hits_per_msg", per_op("pml.match_bin_hits"), "count"},
      {"pml.wildcard_scans", pv("pml.wildcard_scans"), "count"},
      {"pml.seq_anomalies", pv("pml.seq_anomalies"), "count"},
      {"fabric.acks_per_msg", per_op("fabric.acks"), "count"},
      {"fabric.retransmits", pv("fabric.retransmits"), "count"},
      {"fabric.fast_retransmits", pv("fabric.fast_retransmits"), "count"},
      {"fabric.tlp_probes", pv("fabric.tlp_probes"), "count"},
      {"fabric.dup_suppressed", pv("fabric.dup_suppressed"), "count"},
      {"fabric.rto_escalations", pv("fabric.rto_escalations"), "count"},
      {"fabric.payload_copies", pv("fabric.payload_copies"), "count"},
      {"fabric.pool_hit_pct", pv("fabric.pool_hit_rate"), "pct"},
      {"coll.shm_publishes_per_op", per_op("coll.shm_publishes"), "count"},
      {"coll.shm_reads_per_op", per_op("coll.shm_reads"), "count"},
      {"coll.wire_sends_per_op", per_op("coll.wire_sends"), "count"},
      {"coll.wire_bytes_per_op", per_op("coll.wire_bytes"), "B"},
      {"coll.payload_copies", pv("coll.payload_copies"), "count"},
      {"coll.zero_copy_pct", pv("coll.zero_copy_pct"), "pct"},
      {"coll.plan_builds", pv("coll.plan_builds"), "count"},
      {"sim.fiber_switches_per_op", per_op("sim.fiber_switches"), "count"},
      {"pmix.modex_lazy_fetches_per_cycle", per_op("pmix.modex_lazy_fetches"), "count"},
      {"pmix.modex_cache_hits_per_cycle", per_op("pmix.modex_cache_hits"), "count"},
      {"ft.agrees_per_save", per_op("ft.agrees"), "count"},
      {"ckpt.encode_us", pv("ckpt.encode_ns.p50") / 1e3, "us"},
      {"ckpt.encode_share", ratio(pv("ckpt.encode_ns.p50"), save_p50_ns), "ratio"},
      {"ckpt.save_bytes_per_save", ratio(pv("ckpt.save_bytes"), pv("ckpt.saves")), "B"},
      {"ckpt.redundancy_ratio",
       ratio(pv("ckpt.redundancy_bytes"), pv("ckpt.save_bytes")), "ratio"},
      {"ckpt.restore_bytes_per_restore",
       ratio(pv("ckpt.restore_bytes"), pv("ckpt.restores")), "B"},
      {"obs.trace_overhead_ratio", ratio(traced.wall_s, untraced.wall_s), "ratio"},
  };
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    m.push_back({std::string("self.") + kLayers[i] + "_us_per_op",
                 static_cast<double>(spans.self_ns[i]) / 1e3 / units, "us"});
  }
  return m;
}

void print_self_table(const Workload& w, const PassResult& traced,
                      const SpanSummary& spans) {
  std::int64_t total = 0;
  for (std::int64_t ns : spans.self_ns) {
    total += ns;
  }
  const double units = static_cast<double>(std::max<std::uint64_t>(traced.units, 1));
  std::printf("\nself time by layer, %s, %llu %s (spans summed over ranks)\n",
              w.name, static_cast<unsigned long long>(traced.units), w.unit);
  std::printf("  %-6s %12s %12s %8s\n", "layer", "self_ms", "us_per_op", "share");
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    const double ns = static_cast<double>(spans.self_ns[i]);
    std::printf("  %-6s %12.3f %12.3f %7.1f%%\n", kLayers[i], ns / 1e6,
                ns / 1e3 / units, total > 0 ? 100.0 * ns / static_cast<double>(total) : 0.0);
  }
}

/// Timed clusters of one untraced run; see main().
constexpr int kSegments = 3;

/// Add one timed cluster's pass to the run's. The pvars are the latest
/// cluster's: only a traced run, which has one cluster, reports them.
void absorb(PassResult& into, PassResult from) {
  into.wall_s += from.wall_s;
  into.attempted += from.attempted;
  into.units += from.units;
  into.failed += from.failed;
  into.failures.insert(into.failures.end(), from.failures.begin(),
                       from.failures.end());
  for (auto& [name, v] : from.series) {
    auto& all = into.series[name];
    all.insert(all.end(), v.begin(), v.end());
  }
  into.pvars = std::move(from.pvars);
}

void print_json_number(std::ostream& os, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const auto workload = find_workload(args.workload);
  if (!workload) {
    usage("unknown workload '" + args.workload + "'");
  }
  const Workload& w = *workload;
  const std::string config = pin_config();
  std::printf("config%s cost_model=zero shape=%dx%d workload=%s seed=%llu "
              "seconds=%g trace=%d\n",
              config.c_str(), w.nodes, w.ppn, w.name,
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0);

  // An untraced run measures in kSegments clusters spread among the set-up
  // repetitions (s s T s s T s s T for nine), so neither the set-up median
  // nor the timed samples rest on one short stretch of the host's time. A
  // traced run measures in one cluster, so its counts and spans stay whole.
  const int segments = args.trace ? 1 : std::min(kSegments, args.setup_reps);
  std::vector<double> setups;
  std::vector<PassResult> passes;
  SpanSummary spans;
  std::string error;
  for (int rep = 0; rep < args.setup_reps && error.empty(); ++rep) {
    // Spreads `segments` timed repetitions evenly; the last one is timed.
    const bool timed = (rep + 1) * segments % args.setup_reps < segments;
    Harness h({w.nodes * w.ppn, args.seconds / segments, timed, args.trace,
               args.wrong_expected ? 1 : 0});
    h.set_setup_start(sessmpi::base::now_ns());
    try {
      sessmpi::sim::Cluster::Options opts;
      opts.topo = {w.nodes, w.ppn};
      opts.cost = sessmpi::base::CostModel::zero();
      sessmpi::sim::Cluster cluster{opts};
      cluster.run([&](sessmpi::sim::Process& p) {
        Ctx ctx{h, p.rank(), args.seed};
        w.body(ctx);
      });
    } catch (const std::exception& e) {
      error = e.what();
      break;
    }
    setups.push_back(h.setup_seconds());
    if (!timed) {
      continue;
    }
    passes.resize(static_cast<std::size_t>(h.passes()));
    for (int pass = 0; pass < h.passes(); ++pass) {
      absorb(passes[static_cast<std::size_t>(pass)], h.result(pass));
    }
    if (args.trace) {
      spans = summarize(h.span_logs());
      for (const std::string& path :
           write_chrome_traces(h.span_logs(), args.trace_dir,
                               std::string("perfbench.") + w.name)) {
        std::printf("trace file %s\n", path.c_str());
      }
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const PassResult& p : passes) {
    attempted += p.attempted;
    failed += p.failed;
    for (const std::string& f : p.failures) {
      std::printf("FAILED %s\n", f.c_str());
    }
  }
  if (!error.empty()) {
    std::printf("FAILED error: %s\n", error.c_str());
    attempted += 1;
    failed += 1;
  }

  std::vector<Named> metrics;
  if (!passes.empty()) {
    const PassResult& u = passes.front();
    std::printf("\n%s: %llu ops attempted, %llu failed, timed %.3f s untraced\n",
                w.name, static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), u.wall_s);
    for (const Named& n : w.named(u)) {
      std::printf("metric %s %.6g %s\n", n.name.c_str(), n.value, n.unit.c_str());
    }
    if (!args.trace) {
      metrics = {
          {"setup_s", quantile(setups, 0.5), "s"},
          {"lat_us", quantile(u, w.lat.series, w.lat.q), "us"},
          {"lat_us.p90", quantile(u, w.lat.series, 0.9), "us"},
          {"mid_us", quantile(u, w.mid.series, w.mid.q), "us"},
          {"bulk_us", quantile(u, w.bulk.series, w.bulk.q), "us"},
      };
    } else {
      const PassResult& t = passes.back();
      metrics = per_layer(t, u, spans);
      print_self_table(w, t, spans);
    }
  }
  std::printf("\n");
  for (const Named& m : metrics) {
    std::printf("%-36s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }

  bool correct = error.empty() && failed == 0 && !passes.empty();
  std::ostringstream js;
  js << "{\"correct\": ";
  std::ostringstream ms;
  ms << "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      correct = false;
    }
    ms << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": ";
    print_json_number(ms, std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    ms << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  ms << "}";
  js << (correct ? "true" : "false") << ", \"attempted\": "
     << std::max<std::uint64_t>(attempted, 1) << ", \"failed\": " << failed
     << ", \"metrics\": " << ms.str() << "}";
  std::fflush(stdout);
  std::cout << js.str() << std::endl;
  return 0;
}
