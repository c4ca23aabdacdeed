// Merge the counters of the BENCH_RECORD lines (bench/record.hpp) in bench
// outputs into one EXPERIMENTS.md-ready table (counters as rows, records as
// columns):
//
//   ./report_merge lat.txt mbw.txt >> EXPERIMENTS.md
//
// or gate each record against its own `<dir>/BENCH_<bench>.json` (CI
// regression gate, DESIGN.md §16):
//
//   ./report_merge --baseline bench/baselines pt2pt.txt mbw.txt
//
// The gate exits 1 when a metric is >15% worse or missing from the run (a
// run metric with no baseline yet only warns), and on an input without a
// record, a missing baseline, or a malformed record or baseline, naming
// the file and line.

#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "record.hpp"
#include "sessmpi/base/stats.hpp"

namespace {

using namespace sessmpi::bench;

/// Every record line of a bench output or, for a baseline, the whole file
/// as one record. Throws std::runtime_error naming the file and line.
std::vector<Record> read(const std::string& path, bool baseline) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error((baseline ? "missing baseline " : "cannot open ") +
                             path);
  }
  try {
    if (!baseline) {
      return scan_records(in);
    }
    std::stringstream text;
    text << in.rdbuf();
    return {parse_record(text.str())};
  } catch (const RecordError& e) {
    throw std::runtime_error(path + ":" + std::to_string(e.line) + ": " +
                             e.what());
  }
}

int run_baseline_gate(const std::string& dir,
                      const std::vector<std::string>& files) {
  const auto cell = [](const std::optional<double>& v) {
    return v ? sessmpi::base::Table::fmt(*v, 3) : std::string("-");
  };
  bool failed = false;
  sessmpi::base::Table table{
      {"bench", "metric", "baseline", "current", "verdict"}};
  for (const auto& file : files) {
    const std::vector<Record> runs = read(file, false);
    if (runs.empty()) {
      throw std::runtime_error("no BENCH_RECORD line in " + file);
    }
    for (const Record& run : runs) {
      const std::string path = dir + "/BENCH_" + run.bench + ".json";
      const Record base = read(path, true).front();
      if (base.bench != run.bench) {
        throw std::runtime_error(path + ":1: baseline is for " + base.bench);
      }
      for (const GateRow& row : gate(base, run)) {
        if (!row.baseline) {
          std::cerr << "report_merge: warning: metric " << run.bench << "/"
                    << row.metric << " has no baseline yet (not gated)\n";
        }
        failed = failed || row.fails;
        table.add_row({run.bench, row.metric, cell(row.baseline),
                       cell(row.run), row.verdict});
      }
    }
  }
  table.print(std::cout);
  if (failed) {
    std::cerr << "report_merge: baseline gate FAILED (a metric >"
              << static_cast<int>(kGateTolerance * 100)
              << "% worse, or missing from the run)\n";
    return 1;
  }
  std::cout << "baseline gate: ok\n";
  return 0;
}

int run_counter_table(const std::vector<std::string>& files) {
  std::vector<Record> runs;
  for (const auto& file : files) {
    const std::vector<Record> records = read(file, false);
    if (records.empty()) {
      std::cerr << "report_merge: no BENCH_RECORD line in " << file << "\n";
    }
    runs.insert(runs.end(), records.begin(), records.end());
  }
  if (runs.empty()) {
    return 1;
  }

  std::vector<std::string> header{"counter"};
  std::map<std::string, std::vector<std::string>> rows;  // one per counter
  for (std::size_t i = 0; i < runs.size(); ++i) {
    header.push_back(runs[i].bench);
    for (const auto& [name, value] : runs[i].counters) {
      auto& row = rows.try_emplace(name, runs.size() + 1, "-").first->second;
      row[0] = name;
      row[i + 1] = std::to_string(value);
    }
  }
  sessmpi::base::Table table{header};
  for (const auto& [name, row] : rows) {
    table.add_row(row);
  }
  table.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const bool gate_mode = argc >= 2 && std::string(argv[1]) == "--baseline";
  const int first_file = gate_mode ? 3 : 1;
  if (argc <= first_file) {
    std::cerr << "usage: report_merge [--baseline <dir>] "
                 "<bench-output-file>...\n";
    return 2;
  }
  const std::vector<std::string> files(argv + first_file, argv + argc);
  try {
    return gate_mode ? run_baseline_gate(argv[2], files)
                     : run_counter_table(files);
  } catch (const std::exception& e) {
    std::cerr << "report_merge: " << e.what() << "\n";
    return 1;
  }
}
