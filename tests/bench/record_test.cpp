// The bench record (bench/record.hpp): writer -> parser round trip, the
// malformed-input errors, and the regression gate that report_merge
// --baseline applies to every record of a bench output.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "record.hpp"

namespace sessmpi::bench {
namespace {

Record make(const std::string& bench,
            std::map<std::string, Metric> metrics,
            std::map<std::string, std::uint64_t> counters = {}) {
  return Record{bench, std::move(metrics), std::move(counters)};
}

/// The RecordError a malformed text raises; any other exception escapes
/// and fails the test.
RecordError error_of(const std::string& text) {
  try {
    parse_record(text);
  } catch (const RecordError& e) {
    return e;
  }
  ADD_FAILURE() << "parsed: " << text;
  return RecordError(0, "");
}

std::string verdict_of(const Record& base, const Record& run,
                       const std::string& metric) {
  for (const GateRow& row : gate(base, run)) {
    if (row.metric == metric) {
      return row.verdict;
    }
  }
  ADD_FAILURE() << "no gate row for " << metric;
  return "";
}

bool any_fails(const std::vector<GateRow>& rows) {
  for (const GateRow& row : rows) {
    if (row.fails) {
      return true;
    }
  }
  return false;
}

TEST(BenchRecord, RoundTripKeepsDottedMetricAndCounterNames) {
  const Record r = make(
      "bench_init_scale",
      {{"sess.total_ms", {0.1, Better::lower}},
       {"msg_rate", {123456.789, Better::higher}},
       {"tiny", {1e-9, Better::lower}},
       {"zero", {0.0, Better::lower}},
       {"negative", {-2.5, Better::higher}}},
      {{"pmix.modex_lazy_fetches", 4096},
       {"sim.fiber_switches", std::numeric_limits<std::uint64_t>::max()},
       {"fabric.acks", 0}});
  EXPECT_EQ(parse_record(to_line(r).substr(kRecordPrefix.size())), r);

  std::istringstream out("bench output\n" + to_line(r) + "\nSMOKE PASS\n");
  EXPECT_EQ(scan_records(out), std::vector<Record>{r});
}

TEST(BenchRecord, LineIsPrefixPlusOneLineObject) {
  const Record r = make("bench_pt2pt",
                        {{"overhead_ratio", {1.1, Better::lower}}},
                        {{"ft.agrees", 2}});
  EXPECT_EQ(to_line(r),
            "BENCH_RECORD {\"bench\": \"bench_pt2pt\", \"metrics\": "
            "{\"overhead_ratio\": {\"value\": 1.1, \"better\": \"lower\"}}, "
            "\"counters\": {\"ft.agrees\": 2}}");
}

TEST(BenchRecord, ParserAcceptsWhitespaceAndNewlines) {
  const Record r = parse_record(
      "{\n  \"bench\": \"b\",\n  \"metrics\": {\"m\": {\"value\": "
      "2.0,\n \"better\": \"higher\"}},\n  \"counters\": {}\n}\n");
  EXPECT_EQ(r, make("b", {{"m", {2.0, Better::higher}}}));
}

TEST(BenchRecord, MalformedInputIsARecordErrorNeverAnotherException) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "expected '{'"},
      {"{\"bench\": \"b\", \"metrics\": {}}", "expected ','"},
      {"{\"metrics\": {}, \"bench\": \"b\", \"counters\": {}}",
       "expected key \"bench\""},
      {"{\"bench\": \"\", \"metrics\": {}, \"counters\": {}}",
       "empty bench name"},
      {"{\"bench\": \"b\", \"metrics\": {}, \"counters\": {}, \"x\": 1}",
       "expected '}'"},
      {"{\"bench\": \"b\", \"metrics\": {\"m\": {\"value\": 1}}, "
       "\"counters\": {}}",
       "expected ','"},
      {"{\"bench\": \"b\", \"metrics\": {\"m\": {\"value\": 1, \"better\": "
       "\"up\"}}, \"counters\": {}}",
       "\"better\" must be"},
      {"{\"bench\": \"b\", \"metrics\": {\"m\": {\"value\": inf, \"better\": "
       "\"lower\"}}, \"counters\": {}}",
       "expected a finite number"},
      {"{\"bench\": \"b\", \"metrics\": {\"m\": {\"value\": nan, "
       "\"better\": \"lower\"}}, \"counters\": {}}",
       "expected a finite number"},
      {"{\"bench\": \"b\", \"metrics\": {\"m\": {\"value\": 1e999, "
       "\"better\": \"lower\"}}, \"counters\": {}}",
       "expected a finite number"},
      {"{\"bench\": \"b\", \"metrics\": {}, \"counters\": {\"c\": -1}}",
       "expected a finite number"},
      {"{\"bench\": \"b\", \"metrics\": {}, \"counters\": {\"c\": 1.5}}",
       "expected '}'"},
      {"{\"bench\": \"b\", \"metrics\": {}, \"counters\": {}} trailing",
       "text after the record"},
      {"{\"bench\": \"b", "unterminated string"},
  };
  for (const auto& [text, why] : cases) {
    const std::string what = error_of(text).what();
    EXPECT_NE(what.find(why), std::string::npos) << text << " -> " << what;
  }
}

TEST(BenchRecord, ErrorLineCountsNewlinesOfTheParsedText) {
  EXPECT_EQ(error_of("{\"bench\": \"b\",\n \"metrics\": {},\n "
                     "\"counters\": {\"c\": x}}")
                .line,
            3U);
}

TEST(BenchGate, LowerMetricJustInsideAndJustOutsideFifteenPercent) {
  const Record base = make("b", {{"lat_us", {100.0, Better::lower}}});
  EXPECT_EQ(verdict_of(base, make("b", {{"lat_us", {114.9, Better::lower}}}),
                       "lat_us"),
            "ok");
  EXPECT_EQ(verdict_of(base, make("b", {{"lat_us", {115.1, Better::lower}}}),
                       "lat_us"),
            "REGRESSED");
  // Far better in the good direction never fails.
  EXPECT_EQ(verdict_of(base, make("b", {{"lat_us", {1.0, Better::lower}}}),
                       "lat_us"),
            "ok");
}

TEST(BenchGate, HigherMetricJustInsideAndJustOutsideFifteenPercent) {
  const Record base = make("b", {{"msg_rate", {100.0, Better::higher}}});
  EXPECT_EQ(verdict_of(base, make("b", {{"msg_rate", {85.1, Better::higher}}}),
                       "msg_rate"),
            "ok");
  EXPECT_EQ(verdict_of(base, make("b", {{"msg_rate", {84.9, Better::higher}}}),
                       "msg_rate"),
            "REGRESSED");
  EXPECT_EQ(verdict_of(base, make("b", {{"msg_rate", {1e9, Better::higher}}}),
                       "msg_rate"),
            "ok");
}

TEST(BenchGate, ZeroBaselineGatesAnyNonzeroValue) {
  const auto copies = [](double v) {
    return make("b", {{"payload_copies", {v, Better::lower}}});
  };
  EXPECT_EQ(verdict_of(copies(0.0), copies(0.0), "payload_copies"),
            "ok");
  EXPECT_EQ(verdict_of(copies(0.0), copies(1.0), "payload_copies"),
            "REGRESSED");
}

TEST(BenchGate, NewRunMetricWarnsAndPasses) {
  const Record base = make("b", {{"m", {1.0, Better::lower}}});
  const Record run = make("b", {{"m", {1.0, Better::lower}},
                                {"extra", {5.0, Better::higher}}});
  EXPECT_EQ(verdict_of(base, run, "extra"), "new");
  EXPECT_FALSE(any_fails(gate(base, run)));
}

// Earlier gate: a run that dropped a gated metric passed with a warning.
TEST(BenchGate, BaselineMetricMissingFromTheRunFails) {
  const Record base =
      make("bench_coll", {{"hier_speedup", {2.0, Better::higher}},
                          {"payload_copies", {0.0, Better::lower}}});
  const Record run =
      make("bench_coll", {{"hier_speedup", {4.0, Better::higher}}});
  EXPECT_EQ(verdict_of(base, run, "payload_copies"), "MISSING");
  EXPECT_TRUE(any_fails(gate(base, run)));
}

// Earlier gate: two bench lines in one file merged under the last name,
// so the first bench's baseline was never read.
TEST(BenchGate, EachRecordOfAFileKeepsItsOwnBenchAndMetrics) {
  std::istringstream out(
      "BENCH_RECORD {\"bench\": \"bench_coll\", \"metrics\": "
      "{\"hier_speedup\": {\"value\": 1.0, \"better\": \"higher\"}, "
      "\"payload_copies\": {\"value\": 0, \"better\": \"lower\"}}, "
      "\"counters\": {}}\n"
      "MATCH_SMOKE PASS\n"
      "BENCH_RECORD {\"bench\": \"bench_matching\", \"metrics\": "
      "{\"depth_ratio\": {\"value\": 1.2, \"better\": \"lower\"}}, "
      "\"counters\": {}}\n");
  const std::vector<Record> records = scan_records(out);
  ASSERT_EQ(records.size(), 2U);
  EXPECT_EQ(records[0].bench, "bench_coll");
  EXPECT_EQ(records[0].metrics.size(), 2U);
  EXPECT_EQ(records[1].bench, "bench_matching");
  EXPECT_EQ(records[1].metrics.size(), 1U);

  // Gated against its own baseline, the coll record's halved speedup fails.
  const Record coll_base =
      make("bench_coll", {{"hier_speedup", {2.0, Better::higher}},
                          {"payload_copies", {0.0, Better::lower}}});
  const Record matching_base =
      make("bench_matching", {{"depth_ratio", {3.0, Better::lower}}});
  EXPECT_EQ(verdict_of(coll_base, records[0], "hier_speedup"),
            "REGRESSED");
  EXPECT_FALSE(any_fails(gate(matching_base, records[1])));
}

// Earlier gate: a non-numeric value aborted with an uncaught exception.
TEST(BenchGate, NonNumericValueIsAnErrorWithItsLine) {
  std::istringstream out(
      "bench_coll: hierarchical vs flat collectives\n"
      "64-rank 64 KiB allreduce: flat 10 us, hier 4 us\n"
      "BENCH_RECORD {\"bench\": \"bench_coll\", \"metrics\": "
      "{\"hier_speedup\": {\"value\": oops, \"better\": \"higher\"}}, "
      "\"counters\": {}}\n");
  try {
    scan_records(out);
    ADD_FAILURE() << "scanned a non-numeric value";
  } catch (const RecordError& e) {
    EXPECT_EQ(e.line, 3U);
    EXPECT_STREQ(e.what(), "expected a finite number");
  }
}

// The checked-in baselines are the benches' smoke floors: 7 files, 14
// metrics, each value and direction pinned here so none is loosened by
// accident.
TEST(BenchGate, CheckedInBaselinesParseAndHoldTheSmokeFloors) {
  const std::map<std::string, std::map<std::string, Metric>> floors = {
      {"bench_ckpt",
       {{"rs_redundancy_ratio", {0.5, Better::lower}},
        {"drain_overlap_pct", {50, Better::higher}}}},
      {"bench_coll",
       {{"hier_speedup", {2.0, Better::higher}},
        {"payload_copies", {0, Better::lower}}}},
      {"bench_init_smoke",
       {{"wall_s", {120, Better::lower}},
        {"lazy_fetches_per_rank", {8, Better::lower}}}},
      {"bench_matching", {{"depth_ratio", {3.0, Better::lower}}}},
      {"bench_mbw_mr",
       {{"msg_rate", {8000, Better::higher}},
        {"pool_hit_pct", {50, Better::higher}},
        {"payload_copies", {0, Better::lower}}}},
      {"bench_mbw_mr_loss",
       {{"loss5_aimd_over_fixed", {3.0, Better::higher}},
        {"rails4_bw_speedup", {2.0, Better::higher}},
        {"sweep_escalations", {0, Better::lower}}}},
      {"bench_pt2pt", {{"overhead_ratio", {1.10, Better::lower}}}},
  };
  std::size_t metrics = 0;
  for (const auto& [bench, expected] : floors) {
    const std::string path =
        std::string(SESSMPI_BASELINE_DIR) + "/BENCH_" + bench + ".json";
    std::ifstream in(path);
    ASSERT_TRUE(in) << path;
    std::stringstream text;
    text << in.rdbuf();
    const Record r = parse_record(text.str());
    EXPECT_EQ(r.bench, bench);
    EXPECT_EQ(r.metrics, expected) << path;
    metrics += r.metrics.size();
  }
  EXPECT_EQ(metrics, 14U);

  std::size_t files = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(SESSMPI_BASELINE_DIR)) {
    files += entry.path().extension() == ".json" ? 1 : 0;
  }
  EXPECT_EQ(files, floors.size());
}

}  // namespace
}  // namespace sessmpi::bench
