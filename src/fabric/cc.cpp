#include "sessmpi/fabric/cc.hpp"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <string>

#include "sessmpi/obs/tvar.hpp"

namespace sessmpi::fabric {

namespace {

// Process-global congestion/striping knobs behind the MPI_T cvars. A
// Fabric snapshots them at construction (cc_config_from_cvars), so setting
// them mid-run affects the next cluster, not in-flight flows — same
// contract as sim.scheduler.
std::atomic<int>& engine_flag() {
  static std::atomic<int> v{static_cast<int>(CcConfig{}.engine)};
  return v;
}
std::atomic<int>& rails_flag() {
  static std::atomic<int> v{1};
  return v;
}
std::atomic<std::uint64_t>& stripe_threshold_flag() {
  static std::atomic<std::uint64_t> v{CcConfig{}.stripe_threshold};
  return v;
}
std::atomic<std::int64_t>& ecn_threshold_flag() {
  // Default: mark CE once a modeled link's backlog exceeds 2 ms — a few
  // bulk segments deep at the calibrated inter-node bandwidth, far above
  // anything a healthy flow queues.
  static std::atomic<std::int64_t> v{2'000'000};
  return v;
}

bool parse_u64(const std::string& v, std::uint64_t& out) {
  if (v.empty()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  out = n;
  return true;
}

}  // namespace

void register_fabric_cvars() {
  static std::once_flag once;
  std::call_once(once, [] {
    obs::register_cvar(
        "fabric.cc",
        "per-flow congestion control engine: \"aimd\" (slow start + "
        "NewReno fast retransmit/recovery + additive increase, default) or "
        "\"fixed\" (unlimited window, RTO-only recovery)",
        [] {
          return std::string(cc_engine_name(
              static_cast<CcEngine>(engine_flag().load(std::memory_order_acquire))));
        },
        [](const std::string& v) {
          const auto e = cc_engine_from_name(v);
          if (!e) {
            return false;
          }
          engine_flag().store(static_cast<int>(*e), std::memory_order_release);
          return true;
        });
    obs::register_cvar(
        "fabric.rails",
        "per-pair rails (parallel endpoints) for striping bulk messages; "
        "1 (default) disables striping, max 4",
        [] { return std::to_string(rails_flag().load(std::memory_order_acquire)); },
        [](const std::string& v) {
          std::uint64_t n = 0;
          if (!parse_u64(v, n) || n < 1 || n > kMaxRails) {
            return false;
          }
          rails_flag().store(static_cast<int>(n), std::memory_order_release);
          return true;
        });
    obs::register_cvar(
        "fabric.stripe_threshold",
        "payload bytes at or above which rndv_data is striped across "
        "fabric.rails (default 262144)",
        [] {
          return std::to_string(
              stripe_threshold_flag().load(std::memory_order_acquire));
        },
        [](const std::string& v) {
          std::uint64_t n = 0;
          if (!parse_u64(v, n) || n == 0) {
            return false;
          }
          stripe_threshold_flag().store(n, std::memory_order_release);
          return true;
        });
    obs::register_cvar(
        "fabric.ecn_threshold_ns",
        "modeled link backlog (ns) above which the sim sets the CE bit; "
        "0 disables ECN marking (default 2000000)",
        [] {
          return std::to_string(
              ecn_threshold_flag().load(std::memory_order_acquire));
        },
        [](const std::string& v) {
          std::uint64_t n = 0;
          if (!parse_u64(v, n)) {
            return false;
          }
          ecn_threshold_flag().store(static_cast<std::int64_t>(n),
                                     std::memory_order_release);
          return true;
        });
  });
}

CcConfig cc_config_from_cvars() {
  register_fabric_cvars();
  CcConfig cfg;
  cfg.engine =
      static_cast<CcEngine>(engine_flag().load(std::memory_order_acquire));
  cfg.rails = rails_flag().load(std::memory_order_acquire);
  cfg.stripe_threshold = static_cast<std::size_t>(
      stripe_threshold_flag().load(std::memory_order_acquire));
  return cfg;
}

std::int64_t ecn_threshold_ns_from_cvars() {
  register_fabric_cvars();
  return ecn_threshold_flag().load(std::memory_order_acquire);
}

}  // namespace sessmpi::fabric
