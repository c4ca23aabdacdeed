#include "sessmpi/obs/trace_json.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <ostream>
#include <set>
#include <sstream>

#include "sessmpi/base/error.hpp"

namespace sessmpi::obs {

namespace {

char phase_char(Phase ph) {
  switch (ph) {
    case Phase::begin:
      return 'B';
    case Phase::end:
      return 'E';
    case Phase::instant:
      return 'i';
    case Phase::async_begin:
      return 'b';
    case Phase::async_instant:
      return 'n';
    case Phase::async_end:
      return 'e';
    case Phase::flow_start:
      return 's';
    case Phase::flow_step:
      return 't';
    case Phase::flow_end:
      return 'f';
  }
  return 'i';
}

bool is_async(char ph) { return ph == 'b' || ph == 'n' || ph == 'e'; }

bool is_flow(char ph) { return ph == 's' || ph == 't' || ph == 'f'; }

/// Chrome wants microseconds; keep nanosecond precision as 3 decimals.
std::string format_ts_us(std::int64_t ts_ns) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%lld.%03lld",
                static_cast<long long>(ts_ns / 1000),
                static_cast<long long>(ts_ns % 1000));
  return buf;
}

}  // namespace

void write_event_json(std::ostream& os, const Event& ev, int pid_override) {
  const int pid = pid_override >= 0
                      ? pid_override
                      : (ev.track >= 0 ? ev.track : kRuntimeTrackPid);
  const char ph = phase_char(ev.phase);
  os << "{\"name\":\"" << (ev.name != nullptr ? ev.name : "?")
     << "\",\"cat\":\"" << (ev.cat != nullptr ? ev.cat : "?")
     << "\",\"ph\":\"" << ph << "\",\"ts\":" << format_ts_us(ev.ts_ns)
     << ",\"pid\":" << pid << ",\"tid\":" << ev.tid;
  if (is_async(ph) || is_flow(ph)) {
    char idbuf[24];
    std::snprintf(idbuf, sizeof idbuf, "0x%llx",
                  static_cast<unsigned long long>(ev.id));
    os << ",\"id\":\"" << idbuf << "\"";
  }
  if (ev.arg != 0 || ev.arg2 != 0) {
    os << ",\"args\":{\"v\":" << ev.arg;
    if (ev.arg2 != 0) os << ",\"v2\":" << ev.arg2;
    os << "}";
  }
  if (ev.phase == Phase::instant) {
    os << ",\"s\":\"t\"";  // thread-scoped instant (draws as a tick)
  }
  if (is_flow(ph)) {
    os << ",\"bp\":\"e\"";  // bind to enclosing slice, not the next one
  }
  os << "}";
}

void write_trace_file(std::ostream& os, const std::vector<Event>& events,
                      int pid, std::int64_t clock_ns_offset,
                      std::uint64_t evicted) {
  const int rank = pid == kRuntimeTrackPid ? -1 : pid;
  os << "{\"otherData\": {\"rank\": " << rank
     << ", \"clock_ns_offset\": " << clock_ns_offset
     << ", \"evicted\": " << evicted << "},\n";
  os << "\"displayTimeUnit\": \"ns\",\n";
  os << "\"traceEvents\": [\n";
  bool first = true;
  for (const Event& ev : events) {
    if (!first) os << ",\n";
    first = false;
    write_event_json(os, ev, pid);
  }
  os << "\n]}\n";
}

std::vector<std::string> write_rank_traces(const std::string& dir,
                                           const std::string& prefix,
                                           const std::vector<Event>& events) {
  std::filesystem::create_directories(dir);
  std::map<int, std::vector<Event>> by_pid;
  for (const Event& ev : events) {
    by_pid[ev.track >= 0 ? ev.track : kRuntimeTrackPid].push_back(ev);
  }
  std::vector<std::string> paths;
  for (const auto& [pid, evs] : by_pid) {
    const std::string label =
        pid == kRuntimeTrackPid ? "runtime" : "rank" + std::to_string(pid);
    const std::string path =
        (std::filesystem::path(dir) / (prefix + "." + label + ".trace.json"))
            .string();
    std::ofstream os(path, std::ios::trunc);
    if (!os) {
      throw base::Error(base::ErrClass::other,
                        "cannot open trace file " + path);
    }
    // Events on a skewed track carry the skew in their timestamps; the
    // negation recorded here is what realigns them at merge time.
    const std::int64_t offset =
        pid == kRuntimeTrackPid ? 0 : -Tracer::track_skew_ns(pid);
    write_trace_file(os, evs, pid, offset, /*evicted=*/0);
    paths.push_back(path);
  }
  return paths;
}

namespace {

// Minimal scanner for the one-event-per-line schema this module writes:
// find a quoted key, then read the value after the colon.
std::optional<std::string> find_string_value(const std::string& line,
                                             const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos += needle.size();
  while (pos < line.size() && (line[pos] == ' ')) ++pos;
  if (pos >= line.size() || line[pos] != '"') return std::nullopt;
  ++pos;
  auto end = line.find('"', pos);
  if (end == std::string::npos) return std::nullopt;
  return line.substr(pos, end - pos);
}

std::optional<double> find_number_value(const std::string& line,
                                        const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  pos += needle.size();
  while (pos < line.size() && line[pos] == ' ') ++pos;
  auto end = pos;
  while (end < line.size() &&
         (std::isdigit(static_cast<unsigned char>(line[end])) != 0 ||
          line[end] == '-' || line[end] == '.' || line[end] == '+' ||
          line[end] == 'e' || line[end] == 'E')) {
    ++end;
  }
  if (end == pos) return std::nullopt;
  return std::stod(line.substr(pos, end - pos));
}

}  // namespace

std::vector<ParsedEvent> parse_trace_file(const std::string& path) {
  std::ifstream is(path);
  if (!is) {
    throw base::Error(base::ErrClass::rte_not_found,
                      "cannot open trace file " + path);
  }
  std::vector<ParsedEvent> out;
  std::int64_t clock_ns_offset = 0;
  std::string line;
  bool saw_events_array = false;
  while (std::getline(is, line)) {
    if (auto off = find_number_value(line, "clock_ns_offset")) {
      clock_ns_offset = static_cast<std::int64_t>(*off);
    }
    if (line.find("\"traceEvents\"") != std::string::npos) {
      saw_events_array = true;
    }
    auto name = find_string_value(line, "name");
    auto ph = find_string_value(line, "ph");
    auto ts = find_number_value(line, "ts");
    if (!name || !ph || !ts || ph->empty()) continue;
    ParsedEvent ev;
    ev.name = *name;
    ev.cat = find_string_value(line, "cat").value_or("");
    ev.ph = (*ph)[0];
    ev.ts_us = *ts + static_cast<double>(clock_ns_offset) / 1000.0;
    ev.pid = static_cast<int>(find_number_value(line, "pid").value_or(0));
    ev.tid =
        static_cast<std::uint32_t>(find_number_value(line, "tid").value_or(0));
    if (auto id = find_string_value(line, "id")) {
      ev.has_id = true;
      ev.id = std::stoull(*id, nullptr, 0);
    }
    ev.arg = static_cast<std::uint64_t>(find_number_value(line, "v").value_or(0));
    ev.arg2 =
        static_cast<std::uint64_t>(find_number_value(line, "v2").value_or(0));
    out.push_back(std::move(ev));
  }
  if (!saw_events_array) {
    throw base::Error(base::ErrClass::other,
                      "not a trace file (no traceEvents): " + path);
  }
  return out;
}

std::size_t merge_traces(const std::vector<std::string>& files,
                         std::ostream& out) {
  std::vector<ParsedEvent> all;
  for (const auto& file : files) {
    // A killed-rank chaos run routinely leaves missing, empty, or truncated
    // per-rank files; losing one rank's view must not lose the merge.
    try {
      auto events = parse_trace_file(file);
      all.insert(all.end(), events.begin(), events.end());
    } catch (const base::Error& e) {
      std::cerr << "trace_merge: skipping " << file << ": " << e.what()
                << "\n";
    }
  }
  std::stable_sort(all.begin(), all.end(),
                   [](const ParsedEvent& a, const ParsedEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  const double t0 = all.empty() ? 0.0 : all.front().ts_us;

  out << "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  bool first = true;
  // Track labels so Perfetto shows "rank N" instead of bare pids.
  std::set<int> pids;
  for (const ParsedEvent& ev : all) pids.insert(ev.pid);
  for (int pid : pids) {
    const std::string label =
        pid == kRuntimeTrackPid ? "runtime" : "rank " + std::to_string(pid);
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"name\":\"" << label << "\"}}";
    out << ",\n{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":" << pid
        << ",\"tid\":0,\"args\":{\"sort_index\":" << pid << "}}";
  }
  for (const ParsedEvent& ev : all) {
    if (!first) out << ",\n";
    first = false;
    char ts[40];
    std::snprintf(ts, sizeof ts, "%.3f", ev.ts_us - t0);
    out << "{\"name\":\"" << ev.name << "\",\"cat\":\"" << ev.cat
        << "\",\"ph\":\"" << ev.ph << "\",\"ts\":" << ts
        << ",\"pid\":" << ev.pid << ",\"tid\":" << ev.tid;
    if (ev.has_id) {
      char idbuf[24];
      std::snprintf(idbuf, sizeof idbuf, "0x%llx",
                    static_cast<unsigned long long>(ev.id));
      out << ",\"id\":\"" << idbuf << "\"";
    }
    if (ev.arg != 0 || ev.arg2 != 0) {
      out << ",\"args\":{\"v\":" << ev.arg;
      if (ev.arg2 != 0) out << ",\"v2\":" << ev.arg2;
      out << "}";
    }
    if (ev.ph == 'i') out << ",\"s\":\"t\"";
    if (is_flow(ev.ph)) out << ",\"bp\":\"e\"";
    out << "}";
  }
  out << "\n]}\n";
  return all.size();
}

}  // namespace sessmpi::obs
