#include "spans.hpp"

#include <cstring>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/obs/trace_json.hpp"

namespace perfbench {
namespace {

/// Index into kLayers of the layer `name` starts with (0, "bench", if
/// none).
std::size_t layer_of(const char* name) {
  for (std::size_t i = 0; i < kNumLayers; ++i) {
    const std::size_t n = std::strlen(kLayers[i]);
    if (std::strncmp(name, kLayers[i], n) == 0 && name[n] == '.') {
      return i;
    }
  }
  return 0;
}

}  // namespace

void SpanLog::open(const char* name) {
  int kept_index = -1;
  if (kept_.size() < kKeptSpans) {
    const int parent = stack_.empty() ? -1 : stack_.back().kept_index;
    kept_index = static_cast<int>(kept_.size());
    kept_.push_back({name, 0, 0, parent});
  }
  const std::int64_t t0 = sessmpi::base::now_ns();
  if (kept_index >= 0) {
    kept_[static_cast<std::size_t>(kept_index)].t0 = t0;
  }
  stack_.push_back({name, t0, 0, kept_index});
}

void SpanLog::close() {
  const std::int64_t t1 = sessmpi::base::now_ns();
  const Open top = stack_.back();
  stack_.pop_back();
  const std::int64_t dur = t1 - top.t0;
  if (top.kept_index >= 0) {
    kept_[static_cast<std::size_t>(top.kept_index)].t1 = t1;
  }
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
  }
  self_ns_[layer_of(top.name)] += dur - top.child_ns;
  auto it = durations_.begin();
  while (it != durations_.end() && it->first != top.name) {
    ++it;
  }
  if (it == durations_.end()) {
    it = durations_.emplace(durations_.end(), top.name,
                            std::vector<std::int64_t>{});
  }
  if (it->second.size() < kKeptSamples) {
    it->second.push_back(dur);
  }
}

SpanSummary summarize(const std::vector<SpanLog>& logs) {
  SpanSummary s;
  for (const SpanLog& log : logs) {
    for (std::size_t i = 0; i < kNumLayers; ++i) {
      s.self_ns[i] += log.self_ns()[i];
    }
    for (const auto& [name, d] : log.durations()) {
      auto& all = s.durations[name];
      all.insert(all.end(), d.begin(), d.end());
    }
  }
  return s;
}

std::vector<std::string> write_chrome_traces(const std::vector<SpanLog>& logs,
                                             const std::string& dir,
                                             const std::string& prefix) {
  using sessmpi::obs::Event;
  using sessmpi::obs::Phase;
  std::vector<Event> events;
  for (std::size_t rank = 0; rank < logs.size(); ++rank) {
    const auto& kept = logs[rank].kept();
    const auto emit = [&](const SpanLog::Kept& k, Phase ph) {
      Event ev;
      ev.name = k.name;
      ev.cat = kLayers[layer_of(k.name)];
      ev.ts_ns = ph == Phase::begin ? k.t0 : k.t1;
      ev.track = static_cast<std::int32_t>(rank);
      ev.phase = ph;
      events.push_back(ev);
    };
    // Kept spans are in open order and nest strictly, so closing every
    // open span that is not the next span's parent yields B/E pairs in
    // time order.
    std::vector<int> open;
    for (std::size_t i = 0; i < kept.size(); ++i) {
      while (!open.empty() && open.back() != kept[i].parent) {
        emit(kept[static_cast<std::size_t>(open.back())], Phase::end);
        open.pop_back();
      }
      emit(kept[i], Phase::begin);
      open.push_back(static_cast<int>(i));
    }
    while (!open.empty()) {
      emit(kept[static_cast<std::size_t>(open.back())], Phase::end);
      open.pop_back();
    }
  }
  return sessmpi::obs::write_rank_traces(dir, prefix, events);
}

}  // namespace perfbench
