#pragma once

// The bench record: the one line a bench binary prints per bench name per
// run, its one parser, and the regression gate over it. On one line:
//
//   BENCH_RECORD {"bench": "<name>", "metrics": {"<metric>": {"value": <v>,
//     "better": "lower"|"higher"}, ...}, "counters": {"<counter>": <n>, ...}}
//
// A baseline bench/baselines/BENCH_<bench>.json is one record's JSON object.

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <istream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace sessmpi::bench {

inline constexpr std::string_view kRecordPrefix = "BENCH_RECORD ";
inline constexpr double kGateTolerance = 0.15;

/// Which direction of a metric is an improvement.
enum class Better { lower, higher };

struct Metric {
  double value = 0.0;
  Better better = Better::lower;  ///< most bench metrics are costs
  bool operator==(const Metric&) const = default;
};

struct Record {
  std::string bench;
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::uint64_t> counters;  ///< counter snapshot
  bool operator==(const Record&) const = default;
};

/// A malformed record; `line` is 1-based in the file that was read.
struct RecordError : std::runtime_error {
  RecordError(std::size_t at_line, const std::string& what)
      : std::runtime_error(what), line(at_line) {}
  std::size_t line;
};

namespace record_detail {

/// Reader for the record's fixed layout: keys in the order to_line writes
/// them, strings without escapes, finite numbers.
class Parser {
 public:
  /// `first_line`: the text's line number in its file.
  Parser(std::string_view text, std::size_t first_line)
      : text_(text), first_line_(first_line) {}

  Record record() {
    Record r;
    key('{', "bench");
    r.bench = string();
    key(',', "metrics");
    entries([&](const std::string& name) {
      Metric& m = r.metrics[name];
      key('{', "value");
      m.value = number<double>();
      key(',', "better");
      const std::string dir = string();
      if (dir != "lower" && dir != "higher") {
        fail("\"better\" must be \"lower\" or \"higher\"");
      }
      m.better = dir == "lower" ? Better::lower : Better::higher;
      eat('}');
    });
    key(',', "counters");
    entries([&](const std::string& name) {
      r.counters[name] = number<std::uint64_t>();
    });
    eat('}');
    if (r.bench.empty()) {
      fail("empty bench name");
    }
    if (skip_ws(); pos_ != text_.size()) {
      fail("text after the record");
    }
    return r;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    const auto end = text_.begin() + static_cast<std::ptrdiff_t>(pos_);
    const auto newlines = std::count(text_.begin(), end, '\n');
    throw RecordError(first_line_ + static_cast<std::size_t>(newlines), what);
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])) != 0) {
      ++pos_;
    }
  }

  bool eat_if(char c) {
    skip_ws();
    const bool hit = pos_ < text_.size() && text_[pos_] == c;
    pos_ += hit ? 1 : 0;
    return hit;
  }

  void eat(char c) {
    if (!eat_if(c)) {
      fail(std::string("expected '") + c + "'");
    }
  }

  std::string string() {
    eat('"');
    const std::size_t close = text_.find('"', pos_);
    if (close == std::string_view::npos) {
      fail("unterminated string");
    }
    std::string out(text_.substr(pos_, close - pos_));
    pos_ = close + 1;
    return out;
  }

  /// `<punct> "<name>":`
  void key(char punct, std::string_view name) {
    eat(punct);
    if (string() != name) {
      fail("expected key \"" + std::string(name) + "\"");
    }
    eat(':');
  }

  /// `{"<name>": <value>, ...}`: `value(name)` reads each value.
  template <class Value>
  void entries(Value&& value) {
    eat('{');
    if (eat_if('}')) {
      return;
    }
    do {
      const std::string name = string();
      eat(':');
      value(name);
    } while (eat_if(','));
    eat('}');
  }

  /// A double for metrics, an unsigned integer for counters.
  template <class T>
  T number() {
    skip_ws();
    T out{};
    const auto [end, ec] =
        std::from_chars(text_.data() + pos_, text_.data() + text_.size(), out);
    if (ec != std::errc() || !std::isfinite(static_cast<double>(out))) {
      fail("expected a finite number");
    }
    pos_ = static_cast<std::size_t>(end - text_.data());
    return out;
  }

  std::string_view text_;
  std::size_t first_line_;
  std::size_t pos_ = 0;
};

}  // namespace record_detail

/// The line a bench prints. Names are identifiers from the code, so they
/// need no escapes; a non-finite value prints as inf/nan and fails the
/// parser, so a broken metric fails the gate.
inline std::string to_line(const Record& r) {
  const auto number_text = [](auto v) {  // shortest round-trip text
    char buf[32];
    return std::string(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  };
  std::string out = std::string(kRecordPrefix) + "{\"bench\": \"" + r.bench +
                    "\", \"metrics\": {";
  for (const auto& [name, m] : r.metrics) {
    out += (out.back() == '{' ? "\"" : ", \"") + name + "\": {\"value\": " +
           number_text(m.value) + ", \"better\": \"" +
           (m.better == Better::lower ? "lower" : "higher") + "\"}";
  }
  out += "}, \"counters\": {";
  for (const auto& [name, n] : r.counters) {
    out += (out.back() == '{' ? "\"" : ", \"") + name + "\": " +
           number_text(n);
  }
  return out + "}}";
}

/// One record's JSON object: a record line without its prefix, or a whole
/// baseline file. Throws RecordError.
inline Record parse_record(std::string_view text) {
  return record_detail::Parser(text, 1).record();
}

/// Every record of a bench output: each line starting with the prefix.
/// Throws RecordError.
inline std::vector<Record> scan_records(std::istream& in) {
  std::vector<Record> out;
  std::string line;
  for (std::size_t n = 1; std::getline(in, line); ++n) {
    if (line.starts_with(kRecordPrefix)) {
      line.erase(0, kRecordPrefix.size());
      out.push_back(record_detail::Parser(line, n).record());
    }
  }
  return out;
}

struct GateRow {
  std::string metric;
  std::optional<double> baseline, run;
  const char* verdict;  ///< "ok" | "REGRESSED" | "MISSING" | "new"
  bool fails;           ///< REGRESSED or MISSING; a new metric only warns
};

/// Join a run record against its own baseline: a row per baseline metric,
/// then one per run metric the baseline lacks. The baseline's direction
/// rules, within kGateTolerance; a zero baseline (e.g. payload_copies = 0)
/// gates any nonzero lower-is-better value.
inline std::vector<GateRow> gate(const Record& baseline, const Record& run) {
  std::vector<GateRow> rows;
  for (const auto& [name, base] : baseline.metrics) {
    const auto it = run.metrics.find(name);
    if (it == run.metrics.end()) {
      rows.push_back({name, base.value, std::nullopt, "MISSING", true});
      continue;
    }
    const double v = it->second.value;
    const bool worse = base.better == Better::higher
                           ? v < base.value * (1.0 - kGateTolerance)
                           : v > base.value * (1.0 + kGateTolerance);
    rows.push_back({name, base.value, v, worse ? "REGRESSED" : "ok", worse});
  }
  for (const auto& [name, m] : run.metrics) {
    if (!baseline.metrics.contains(name)) {
      rows.push_back({name, std::nullopt, m.value, "new", false});
    }
  }
  return rows;
}

}  // namespace sessmpi::bench
