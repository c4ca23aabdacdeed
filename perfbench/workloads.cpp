#include "workloads.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "sessmpi/base/clock.hpp"
#include "sessmpi/base/error.hpp"
#include "sessmpi/base/yield.hpp"
#include "sessmpi/ckpt/ckpt.hpp"
#include "sessmpi/mpi.hpp"
#include "sessmpi/obs/tvar.hpp"
#include "sessmpi/sim/cluster.hpp"

namespace perfbench {

using sessmpi::Communicator;
using sessmpi::Datatype;
using sessmpi::Errhandler;
using sessmpi::Info;
using sessmpi::Op;
using sessmpi::Request;
using sessmpi::Session;
using sessmpi::base::now_ns;

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream,
                  std::uint64_t index) {
  // splitmix64 finaliser over the three keys.
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL +
                    index * 0x94d049bb133111ebULL + 0x2545f4914f6cdd1dULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// --- harness ------------------------------------------------------------------

namespace {

/// Counters, histograms and gauges read at the end of every pass.
constexpr const char* kCounters[] = {
    "pml.match_bin_hits",   "pml.wildcard_scans",    "pml.seq_anomalies",
    "fabric.acks",          "fabric.retransmits",    "fabric.fast_retransmits",
    "fabric.tlp_probes",    "fabric.dup_suppressed", "fabric.rto_escalations",
    "fabric.payload_copies", "coll.shm_publishes",   "coll.shm_reads",
    "coll.wire_sends",      "coll.wire_bytes",       "coll.payload_copies",
    "coll.plan_builds",     "sim.fiber_switches",    "pmix.modex_lazy_fetches",
    "pmix.modex_cache_hits", "ft.agrees",            "ckpt.saves",
    "ckpt.save_bytes",      "ckpt.redundancy_bytes", "ckpt.restores",
    "ckpt.restore_bytes",
};
constexpr const char* kHistograms[] = {"pt2pt.send_ns", "pt2pt.recv_ns",
                                       "ckpt.encode_ns"};
constexpr const char* kGauges[] = {"fabric.pool_hit_rate",
                                   "coll.zero_copy_pct"};

/// Wait (bounded) until no fabric flow holds an unacknowledged packet, so
/// acks of the last timed message land before counters are reset or read.
void wait_fabric_quiet() {
  const std::int64_t deadline = now_ns() + 500'000'000;
  while (now_ns() < deadline) {
    const auto inflight = sessmpi::obs::pvar_read_gauge("fabric.flow.inflight");
    if (!inflight || *inflight == 0) {
      return;
    }
    sessmpi::base::try_yield();
  }
}

}  // namespace

Harness::Harness(Options opts) : opts_(opts) {
  pass_.resize(static_cast<std::size_t>(passes()));
  for (auto& p : pass_) {
    p.series.resize(static_cast<std::size_t>(opts_.ranks));
    p.failed.resize(static_cast<std::size_t>(opts_.ranks));
  }
  logs_.resize(static_cast<std::size_t>(opts_.ranks));
}

void Harness::rendezvous(const std::function<void()>& last) {
  const std::uint64_t gen = generation_.load(std::memory_order_acquire);
  if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == opts_.ranks) {
    arrived_.store(0, std::memory_order_relaxed);
    last();
    generation_.fetch_add(1, std::memory_order_release);
    return;
  }
  const sessmpi::sim::Cluster& cluster =
      sessmpi::sim::Cluster::current().cluster();
  while (generation_.load(std::memory_order_acquire) == gen) {
    if (cluster.aborted()) {
      throw std::runtime_error("another rank failed; leaving rendezvous");
    }
    sessmpi::base::try_yield();
  }
}

void Harness::setup_done(int rank, const std::vector<double>& per_iter_s,
                         const std::vector<double>& shares) {
  if (rank == 0) {
    calib_s_ = per_iter_s;
    shares_ = shares;
  }
  rendezvous([this] {
    setup_t1_ = now_ns();
    const double round_s = opts_.seconds / passes() / kRounds;
    base_.clear();
    for (std::size_t i = 0; i < calib_s_.size(); ++i) {
      base_.push_back(round_s * shares_.at(i) / std::max(calib_s_[i], 1e-9));
    }
    plan_.assign(kRounds, {});
  });
}

std::vector<std::uint64_t> Harness::begin_round(int pass, int round) {
  rendezvous([this, pass, round] {
    const std::int64_t now = now_ns();
    if (pass == 0) {
      const double budget_s = opts_.seconds / passes();
      if (round > 0) {
        // Steer the next round toward budget / kRounds from how long the
        // last one took; the clamp keeps one odd round from swinging it.
        const double took_s = static_cast<double>(now - round_t0_) / 1e9;
        scale_ *= std::clamp(budget_s / kRounds / std::max(took_s, 1e-6),
                             0.25, 4.0);
      }
      // Past twice the budget the host has stalled: finish the rounds with
      // one iteration each so the run still ends in time.
      const bool late =
          static_cast<double>(now - pass_.at(0).t0) / 1e9 > 2 * budget_s;
      auto& counts = plan_.at(static_cast<std::size_t>(round));
      counts.clear();
      for (double b : base_) {
        counts.push_back(late ? 1
                              : std::max<std::uint64_t>(
                                    1, static_cast<std::uint64_t>(b * scale_)));
      }
    }
    round_t0_ = now;
    current_ = plan_.at(static_cast<std::size_t>(round));
  });
  return current_;
}

SpanLog* Harness::begin_pass(int rank, int pass) {
  rendezvous([this, pass] {
    wait_fabric_quiet();
    sessmpi::obs::pvar_reset_all();
    pass_.at(static_cast<std::size_t>(pass)).t0 = now_ns();
  });
  return pass == 1 ? &logs_.at(static_cast<std::size_t>(rank)) : nullptr;
}

void Harness::end_pass(int pass) {
  rendezvous([this, pass] {
    PassState& p = pass_.at(static_cast<std::size_t>(pass));
    p.t1 = now_ns();
    wait_fabric_quiet();
    for (const char* name : kCounters) {
      p.pvars[name] = static_cast<double>(
          sessmpi::obs::pvar_read_counter(name).value_or(0));
    }
    for (const char* name : kHistograms) {
      const auto h = sessmpi::obs::pvar_read_histogram(name);
      p.pvars[std::string(name) + ".p50"] = h ? h->p50 : 0.0;
    }
    for (const char* name : kGauges) {
      p.pvars[name] = static_cast<double>(
          sessmpi::obs::pvar_read_gauge(name).value_or(0));
    }
  });
}

std::vector<double>& Harness::series(int rank, int pass,
                                     const std::string& name) {
  return pass_.at(static_cast<std::size_t>(pass))
      .series.at(static_cast<std::size_t>(rank))[name];
}

void Harness::fail(int rank, int pass, std::uint64_t op,
                   const std::string& what) {
  pass_.at(static_cast<std::size_t>(pass))
      .failed.at(static_cast<std::size_t>(rank))
      .emplace(op, what);
}

void Harness::count(int pass, std::uint64_t attempted, std::uint64_t units) {
  PassState& p = pass_.at(static_cast<std::size_t>(pass));
  p.attempted = attempted;
  p.units = units;
}

PassResult Harness::result(int pass) const {
  const PassState& p = pass_.at(static_cast<std::size_t>(pass));
  PassResult r;
  r.wall_s = static_cast<double>(p.t1 - p.t0) / 1e9;
  r.attempted = p.attempted;
  r.units = p.units;
  r.pvars = p.pvars;
  for (const auto& per_rank : p.series) {
    for (const auto& [name, v] : per_rank) {
      auto& all = r.series[name];
      all.insert(all.end(), v.begin(), v.end());
    }
  }
  std::map<std::uint64_t, std::string> failed;
  for (const auto& per_rank : p.failed) {
    failed.insert(per_rank.begin(), per_rank.end());
  }
  r.failed = failed.size();
  for (const auto& [op, what] : failed) {
    if (r.failures.size() < 5) {
      r.failures.push_back("op " + std::to_string(op) + ": " + what);
    }
  }
  // A retransmission timeout that escalated, or a sequence anomaly in
  // matching, is a failed delivery even when the payload checked out.
  for (const char* name : {"fabric.rto_escalations", "pml.seq_anomalies"}) {
    const auto n = static_cast<std::uint64_t>(r.pvars[name]);
    if (n > 0) {
      r.failed += n;
      r.failures.push_back(std::string(name) + " = " + std::to_string(n));
    }
  }
  return r;
}

// --- shared helpers -------------------------------------------------------------

namespace {

/// Where a timed phase reports; null during warm-up, where a failed check
/// throws instead because no pass exists to count it against.
struct Rec {
  Harness& h;
  int pass;
  SpanLog* log;
  std::uint64_t op_base;
};

void check(Rec* rec, int rank, bool ok, std::uint64_t op,
           const char* what) {
  if (ok) {
    return;
  }
  if (rec == nullptr) {
    throw std::runtime_error(std::string("warm-up check failed: ") + what);
  }
  rec->h.fail(rank, rec->pass, rec->op_base + op, what);
}

SpanLog* log_of(Rec* rec) { return rec != nullptr ? rec->log : nullptr; }

int bias_of(Rec* rec, std::uint64_t op) {
  return rec != nullptr ? rec->h.bias(rec->op_base + op) : 0;
}

void sample(Rec* rec, int rank, const char* series, double us) {
  if (rec != nullptr) {
    rec->h.series(rank, rec->pass, series).push_back(us);
  }
}

double us_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

Session open_session() {
  return Session::init(Info::null(), Errhandler::errors_return());
}

Communicator world_comm(const Session& s, const std::string& tag) {
  return Communicator::create_from_group(s.group_from_pset("mpi://world"), tag,
                                         Info::null(),
                                         Errhandler::errors_return());
}

/// Operation ids of phase p start at p * kPhaseOps, so ids stay unique
/// across the phases of a pass.
constexpr std::uint64_t kPhaseOps = std::uint64_t{1} << 40;

/// Seconds per iteration of `run(begin, end)`, timed on a second batch of
/// `n` iterations after an untimed first batch has warmed caches and pools.
template <typename Run>
double warm_per_iter_s(std::uint64_t n, Run&& run) {
  run(std::uint64_t{0}, n);
  const std::int64_t t0 = now_ns();
  run(n, 2 * n);
  return us_since(t0) / 1e6 / static_cast<double>(n);
}

/// Run `run(pass, log)` between begin_pass and end_pass for every pass;
/// a set-up-only repetition runs none.
template <typename RunPasses>
void run_passes(Ctx& c, RunPasses&& run) {
  if (!c.h.options().timed) {
    return;
  }
  for (int pass = 0; pass < c.h.passes(); ++pass) {
    SpanLog* log = c.h.begin_pass(c.rank, pass);
    run(pass, log);
    c.h.end_pass(pass);
  }
}

// Input streams for mix().
enum Stream : std::uint64_t {
  kPing = 1,
  kSmallMsg,
  kLargeBody,
  kLargeStamp,
  kAr8,
  kAr64,
  kBcastBody,
  kBcastStamp,
  kCkptData,
};

// --- p2p ----------------------------------------------------------------------

constexpr int kPingTag = 1;
constexpr int kStreamTag = 2;
constexpr int kAckTag = 3;
constexpr std::uint64_t kEchoMask = 0xa5a5a5a5a5a5a5a5ULL;
constexpr int kSmallWindow = 64;
constexpr int kLargeWindow = 8;
constexpr std::size_t kLargeBytes = 256 * 1024;

/// Fill `n` bytes with stream `s` of the seed, 8 bytes per index.
void fill_seeded(std::byte* p, std::size_t n, std::uint64_t seed,
                 std::uint64_t s, std::uint64_t first_index) {
  for (std::size_t off = 0; off < n; off += 8) {
    const std::uint64_t v = mix(seed, s, first_index + off / 8);
    std::memcpy(p + off, &v, std::min<std::size_t>(8, n - off));
  }
}

struct P2p {
  Ctx& c;
  const Communicator& comm;
  bool sender = c.rank == 0;
  int peer = 1 - c.rank;
  std::vector<std::uint64_t> small = std::vector<std::uint64_t>(kSmallWindow);
  /// Send (sender) or receive (receiver) buffers, one per window slot, and
  /// the seeded body every slot must carry.
  std::vector<std::vector<std::byte>> large;
  std::vector<std::vector<std::byte>> expect;
  std::vector<Request> reqs;

  P2p(Ctx& ctx, const Communicator& cm) : c(ctx), comm(cm) {
    for (int j = 0; j < kLargeWindow; ++j) {
      expect.emplace_back(kLargeBytes);
      fill_seeded(expect.back().data(), kLargeBytes, c.seed, kLargeBody,
                  static_cast<std::uint64_t>(j) * kLargeBytes);
      large.push_back(sender ? expect.back()
                             : std::vector<std::byte>(kLargeBytes));
    }
  }

  /// One-way latency of an 8-byte ping-pong; the echo is the ping xor a
  /// mask, so both ends check a value that changes every iteration.
  void pingpong(std::uint64_t begin, std::uint64_t end, Rec* rec) {
    SpanLog* log = log_of(rec);
    for (std::uint64_t i = begin; i < end; ++i) {
      Span it(log, "bench.pingpong");
      const std::uint64_t v = mix(c.seed, kPing, i);
      std::uint64_t got = 0;
      if (sender) {
        const std::int64_t t0 = now_ns();
        {
          Span s(log, "pml.send");
          comm.send(&v, 8, Datatype::byte(), peer, kPingTag);
        }
        {
          Span s(log, "pml.recv");
          comm.recv(&got, 8, Datatype::byte(), peer, kPingTag);
        }
        sample(rec, c.rank, "lat_8B_us", us_since(t0) / 2);
        check(rec, c.rank, got == (v ^ kEchoMask) + bias_of(rec, i), i,
              "ping-pong echo");
      } else {
        {
          Span s(log, "pml.recv");
          comm.recv(&got, 8, Datatype::byte(), peer, kPingTag);
        }
        check(rec, c.rank, got == v, i, "ping-pong ping");
        const std::uint64_t echo = got ^ kEchoMask;
        Span s(log, "pml.send");
        comm.send(&echo, 8, Datatype::byte(), peer, kPingTag);
      }
    }
  }

  /// Windowed stream: `window` messages in flight, then an ack from the
  /// receiver, so the sender's next window waits for the receiver.
  void stream(bool big, std::uint64_t begin, std::uint64_t end, Rec* rec) {
    SpanLog* log = log_of(rec);
    const int window = big ? kLargeWindow : kSmallWindow;
    const int bytes = big ? static_cast<int>(kLargeBytes) : 8;
    const char* series = big ? "stream_256KiB_us_per_msg" : "stream_8B_us_per_msg";
    const auto slot = [&](int j) -> std::byte* {
      return big ? large[static_cast<std::size_t>(j)].data()
                 : reinterpret_cast<std::byte*>(&small[static_cast<std::size_t>(j)]);
    };
    const auto stamp = [&](std::uint64_t w, int j) {
      return mix(c.seed, big ? kLargeStamp : kSmallMsg,
                 w * static_cast<std::uint64_t>(window) +
                     static_cast<std::uint64_t>(j));
    };
    for (std::uint64_t w = begin; w < end; ++w) {
      Span it(log, "bench.window");
      reqs.clear();
      if (sender) {
        for (int j = 0; j < window; ++j) {
          const std::uint64_t st = stamp(w, j);
          std::memcpy(slot(j), &st, 8);
          if (big) {
            std::memcpy(slot(j) + kLargeBytes - 8, &st, 8);
          }
        }
        const std::int64_t t0 = now_ns();
        for (int j = 0; j < window; ++j) {
          Span s(log, "pml.isend");
          reqs.push_back(
              comm.isend(slot(j), bytes, Datatype::byte(), peer, kStreamTag));
        }
        {
          Span s(log, "pml.wait_all");
          Request::wait_all(reqs);
        }
        std::uint64_t ack = 0;
        {
          Span s(log, "pml.recv");
          comm.recv(&ack, 8, Datatype::byte(), peer, kAckTag);
        }
        sample(rec, c.rank, series, us_since(t0) / window);
        check(rec, c.rank, ack == w, w * static_cast<std::uint64_t>(window),
              "stream ack");
        continue;
      }
      for (int j = 0; j < window; ++j) {
        Span s(log, "pml.irecv");
        reqs.push_back(
            comm.irecv(slot(j), bytes, Datatype::byte(), peer, kStreamTag));
      }
      {
        Span s(log, "pml.wait_all");
        Request::wait_all(reqs);
      }
      {
        Span s(log, "pml.send");
        comm.send(&w, 8, Datatype::byte(), peer, kAckTag);
      }
      // Checked after the ack, so the sender's window time excludes it.
      for (int j = 0; j < window; ++j) {
        const std::uint64_t op =
            w * static_cast<std::uint64_t>(window) + static_cast<std::uint64_t>(j);
        const std::uint64_t st = stamp(w, j);
        const std::byte* p = slot(j);
        bool ok = std::memcmp(p, &st, 8) == 0;
        if (big) {
          ok = ok && std::memcmp(p + kLargeBytes - 8, &st, 8) == 0 &&
               std::memcmp(p + 8, expect[static_cast<std::size_t>(j)].data() + 8,
                           kLargeBytes - 16) == 0;
        }
        check(rec, c.rank, ok, op, big ? "256 KiB stream payload" : "8 B stream payload");
      }
    }
  }
};

void p2p_body(Ctx& c) {
  Session s = open_session();
  Communicator comm = world_comm(s, "perfbench.p2p");
  P2p w(c, comm);
  // Warm-up; rank 0's timings size the phases.
  const std::vector<double> per_iter = {
      warm_per_iter_s(200, [&](auto b, auto e) { w.pingpong(b, e, nullptr); }),
      warm_per_iter_s(20, [&](auto b, auto e) { w.stream(false, b, e, nullptr); }),
      warm_per_iter_s(3, [&](auto b, auto e) { w.stream(true, b, e, nullptr); }),
  };
  c.h.setup_done(c.rank, per_iter, {1.0 / 3, 1.0 / 3, 1.0 / 3});

  run_passes(c, [&](int pass, SpanLog* log) {
    Rec ping{c.h, pass, log, 0};
    Rec small{c.h, pass, log, kPhaseOps};
    Rec large{c.h, pass, log, 2 * kPhaseOps};
    std::uint64_t n_ping = 0;
    std::uint64_t n_small = 0;
    std::uint64_t n_large = 0;
    for (int r = 0; r < Harness::kRounds; ++r) {
      const auto n = c.h.begin_round(pass, r);
      w.pingpong(n_ping, n_ping + n[0], &ping);
      w.stream(false, n_small, n_small + n[1], &small);
      w.stream(true, n_large, n_large + n[2], &large);
      n_ping += n[0];
      n_small += n[1];
      n_large += n[2];
    }
    if (c.rank == 0) {
      c.h.count(pass, n_ping + n_small * kSmallWindow + n_large * kLargeWindow,
                2 * n_ping + n_small * (kSmallWindow + 1) +
                    n_large * (kLargeWindow + 1));
    }
  });
  comm.free();
  s.finalize();
}

// --- coll ---------------------------------------------------------------------

constexpr int kAr64Count = 64 * 1024 / 8;
constexpr std::size_t kBcastBytes = 256 * 1024;

struct Coll {
  Ctx& c;
  const Communicator& comm;
  int n = comm.size();
  double tri = static_cast<double>(n) * (n - 1) / 2;  // sum of ranks
  std::vector<double> base = std::vector<double>(kAr64Count);
  std::vector<double> in = std::vector<double>(kAr64Count);
  std::vector<double> out = std::vector<double>(kAr64Count);
  std::vector<std::byte> body = std::vector<std::byte>(kBcastBytes);
  std::vector<std::byte> buf = std::vector<std::byte>(kBcastBytes);

  Coll(Ctx& ctx, const Communicator& cm) : c(ctx), comm(cm) {
    for (int j = 0; j < kAr64Count; ++j) {
      base[static_cast<std::size_t>(j)] =
          static_cast<double>(mix(c.seed, kAr64, static_cast<std::uint64_t>(j)) % (1u << 20));
    }
    fill_seeded(body.data(), kBcastBytes, c.seed, kBcastBody, 0);
    if (c.rank == 0) {
      buf = body;
    }
  }

  /// Inputs are small integers, so the float64 sums are exact and must
  /// equal their closed forms.
  void allreduce_8b(std::uint64_t begin, std::uint64_t end, Rec* rec) {
    SpanLog* log = log_of(rec);
    for (std::uint64_t i = begin; i < end; ++i) {
      Span it(log, "bench.allreduce_8B");
      const double k = static_cast<double>(mix(c.seed, kAr8, i) % (1u << 20));
      const double x = k + c.rank;
      double sum = 0;
      const std::int64_t t0 = now_ns();
      {
        Span s(log, "coll.allreduce");
        comm.allreduce(&x, &sum, 1, Datatype::float64(), Op::sum());
      }
      sample(rec, c.rank, "allreduce_8B_us", us_since(t0));
      check(rec, c.rank, sum == n * k + tri + bias_of(rec, i), i,
            "allreduce 8 B sum");
    }
  }

  void allreduce_64k(std::uint64_t begin, std::uint64_t end, Rec* rec) {
    SpanLog* log = log_of(rec);
    for (std::uint64_t i = begin; i < end; ++i) {
      Span it(log, "bench.allreduce_64KiB");
      const double off = static_cast<double>(i % 4096);
      for (int j = 0; j < kAr64Count; ++j) {
        in[static_cast<std::size_t>(j)] = base[static_cast<std::size_t>(j)] + off + c.rank;
      }
      const std::int64_t t0 = now_ns();
      {
        Span s(log, "coll.allreduce");
        comm.allreduce(in.data(), out.data(), kAr64Count, Datatype::float64(),
                       Op::sum());
      }
      sample(rec, c.rank, "allreduce_64KiB_us", us_since(t0));
      bool ok = true;
      for (int j = 0; j < kAr64Count; ++j) {
        ok = ok && out[static_cast<std::size_t>(j)] ==
                       n * (base[static_cast<std::size_t>(j)] + off) + tri;
      }
      check(rec, c.rank, ok, i, "allreduce 64 KiB sums");
    }
  }

  /// The root stamps both ends of its seeded buffer each iteration; every
  /// receiver checks the stamps and every byte in between.
  void bcast_256k(std::uint64_t begin, std::uint64_t end, Rec* rec) {
    SpanLog* log = log_of(rec);
    for (std::uint64_t i = begin; i < end; ++i) {
      Span it(log, "bench.bcast_256KiB");
      const std::uint64_t st = mix(c.seed, kBcastStamp, i);
      if (c.rank == 0) {
        std::memcpy(buf.data(), &st, 8);
        std::memcpy(buf.data() + kBcastBytes - 8, &st, 8);
      }
      const std::int64_t t0 = now_ns();
      {
        Span s(log, "coll.bcast");
        comm.bcast(buf.data(), static_cast<int>(kBcastBytes), Datatype::byte(), 0);
      }
      sample(rec, c.rank, "bcast_256KiB_us", us_since(t0));
      const bool ok = std::memcmp(buf.data(), &st, 8) == 0 &&
                      std::memcmp(buf.data() + kBcastBytes - 8, &st, 8) == 0 &&
                      std::memcmp(buf.data() + 8, body.data() + 8,
                                  kBcastBytes - 16) == 0;
      check(rec, c.rank, ok, i, "bcast 256 KiB payload");
    }
  }
};

void coll_body(Ctx& c) {
  Session s = open_session();
  Communicator comm = world_comm(s, "perfbench.coll");
  Coll w(c, comm);
  const std::vector<double> per_iter = {
      warm_per_iter_s(200, [&](auto b, auto e) { w.allreduce_8b(b, e, nullptr); }),
      warm_per_iter_s(20, [&](auto b, auto e) { w.allreduce_64k(b, e, nullptr); }),
      warm_per_iter_s(5, [&](auto b, auto e) { w.bcast_256k(b, e, nullptr); }),
  };
  c.h.setup_done(c.rank, per_iter, {1.0 / 3, 1.0 / 3, 1.0 / 3});

  run_passes(c, [&](int pass, SpanLog* log) {
    Rec r8{c.h, pass, log, 0};
    Rec r64{c.h, pass, log, kPhaseOps};
    Rec rb{c.h, pass, log, 2 * kPhaseOps};
    std::uint64_t n8 = 0;
    std::uint64_t n64 = 0;
    std::uint64_t nb = 0;
    for (int r = 0; r < Harness::kRounds; ++r) {
      const auto n = c.h.begin_round(pass, r);
      w.allreduce_8b(n8, n8 + n[0], &r8);
      w.allreduce_64k(n64, n64 + n[1], &r64);
      w.bcast_256k(nb, nb + n[2], &rb);
      n8 += n[0];
      n64 += n[1];
      nb += n[2];
    }
    if (c.rank == 0) {
      c.h.count(pass, n8 + n64 + nb, n8 + n64 + nb);
    }
  });
  comm.free();
  s.finalize();
}

// --- sessions -----------------------------------------------------------------

constexpr int kDupsPerCycle = 4;

/// One Sessions cycle while the set-up session stays open, as a library
/// that opens its own session inside a running application would.
void session_cycle(Ctx& c, std::uint64_t i, Rec* rec) {
  SpanLog* log = log_of(rec);
  Span it(log, "bench.cycle");
  const std::int64_t t_cycle = now_ns();
  Session s;
  {
    Span sp(log, "core.session_init");
    s = Session::init(Info::null(), Errhandler::errors_return());
  }
  const sessmpi::Group g = [&] {
    Span sp(log, "core.group_from_pset");
    return s.group_from_pset("mpi://world");
  }();
  Communicator comm;
  const std::int64_t t_create = now_ns();
  {
    Span sp(log, "core.comm_create_from_group");
    comm = Communicator::create_from_group(g, "perfbench.cycle", Info::null(),
                                           Errhandler::errors_return());
  }
  sample(rec, c.rank, "comm_create_us", us_since(t_create));
  bool ok = true;
  for (int k = 0; k < kDupsPerCycle; ++k) {
    const std::int64_t t_dup = now_ns();
    Communicator d;
    {
      Span sp(log, "core.comm_dup");
      d = comm.dup();
    }
    const std::int64_t one = 1;
    std::int64_t size = 0;
    {
      Span sp(log, "coll.allreduce");
      d.allreduce(&one, &size, 1, Datatype::int64(), Op::sum());
    }
    {
      Span sp(log, "core.comm_free");
      d.free();
    }
    sample(rec, c.rank, "comm_dup_us", us_since(t_dup));
    ok = ok && size == comm.size() + (k == 0 ? bias_of(rec, i) : 0);
  }
  {
    Span sp(log, "core.comm_free");
    comm.free();
  }
  {
    Span sp(log, "core.session_finalize");
    s.finalize();
  }
  sample(rec, c.rank, "session_cycle_us", us_since(t_cycle));
  check(rec, c.rank, ok, i, "allreduce over a dup != comm size");
}

void sessions_body(Ctx& c) {
  Session s = open_session();
  Communicator comm = world_comm(s, "perfbench.sessions");
  c.h.setup_done(c.rank, {warm_per_iter_s(20, [&](auto b, auto e) {
                    for (auto i = b; i < e; ++i) {
                      session_cycle(c, i, nullptr);
                    }
                  })},
                 {1.0});

  run_passes(c, [&](int pass, SpanLog* log) {
    Rec rec{c.h, pass, log, 0};
    std::uint64_t done = 0;
    for (int r = 0; r < Harness::kRounds; ++r) {
      const std::uint64_t n = c.h.begin_round(pass, r)[0];
      for (std::uint64_t i = done; i < done + n; ++i) {
        session_cycle(c, i, &rec);
      }
      done += n;
    }
    if (c.rank == 0) {
      c.h.count(pass, done, done);
    }
  });
  comm.free();
  s.finalize();
}

// --- ckpt ---------------------------------------------------------------------

constexpr std::size_t kCkptBytes = 64 * 1024;
constexpr std::uint64_t kRestoreEvery = 4;

struct Ckpt {
  Ctx& c;
  const Communicator& comm;
  std::vector<std::byte> data = std::vector<std::byte>(kCkptBytes);
  std::vector<std::byte> snapshot;
  sessmpi::ckpt::Checkpointer ck{"perfbench", [] {
                                   sessmpi::ckpt::Config cfg;
                                   cfg.scheme =
                                       sessmpi::ckpt::Scheme::reed_solomon;
                                   cfg.set_data = 6;
                                   cfg.set_parity = 2;
                                   cfg.spill_to_fs = false;
                                   return cfg;
                                 }()};
  std::uint64_t iteration = 0;  ///< continues across warm-up and passes

  Ckpt(Ctx& ctx, const Communicator& cm) : c(ctx), comm(cm) {
    ck.register_dataset("state", data.data(), data.size());
  }

  /// Save every iteration; every kRestoreEvery-th, zero the dataset,
  /// restore it and compare against what was saved.
  void run(std::uint64_t begin, std::uint64_t end, Rec* rec) {
    SpanLog* log = log_of(rec);
    for (std::uint64_t i = begin; i < end; ++i, ++iteration) {
      Span it(log, "bench.ckpt_iter");
      fill_seeded(data.data(), kCkptBytes, c.seed,
                  kCkptData + static_cast<std::uint64_t>(c.rank) * 1000003,
                  iteration * (kCkptBytes / 8));
      const std::uint64_t before = ck.last_committed();
      std::int64_t t0 = now_ns();
      std::uint64_t epoch = 0;
      {
        Span s(log, "ckpt.save");
        epoch = ck.save(comm);
      }
      sample(rec, c.rank, "ckpt_save_us", us_since(t0));
      check(rec, c.rank,
            epoch == before + 1 + static_cast<std::uint64_t>(bias_of(rec, 2 * i)),
            2 * i, "save did not commit the next epoch");
      if (i % kRestoreEvery != kRestoreEvery - 1) {
        continue;
      }
      snapshot = data;
      std::fill(data.begin(), data.end(), std::byte{0});
      t0 = now_ns();
      sessmpi::ckpt::RestoreResult r;
      {
        Span s(log, "ckpt.restore");
        r = ck.restore(comm);
      }
      sample(rec, c.rank, "ckpt_restore_us", us_since(t0));
      check(rec, c.rank, r.epoch == epoch && data == snapshot, 2 * i + 1,
            "restore differs from the saved dataset");
    }
  }
};

void ckpt_body(Ctx& c) {
  Session s = open_session();
  Communicator comm = world_comm(s, "perfbench.ckpt");
  Ckpt w(c, comm);
  c.h.setup_done(c.rank, {warm_per_iter_s(kRestoreEvery * 2, [&](auto b, auto e) {
                    w.run(b, e, nullptr);
                  })},
                 {1.0});

  run_passes(c, [&](int pass, SpanLog* log) {
    Rec rec{c.h, pass, log, 0};
    std::uint64_t done = 0;
    for (int r = 0; r < Harness::kRounds; ++r) {
      const std::uint64_t n = c.h.begin_round(pass, r)[0];
      w.run(done, done + n, &rec);
      done += n;
    }
    if (c.rank == 0) {
      c.h.count(pass, done + done / kRestoreEvery, done);
    }
  });
  comm.free();
  s.finalize();
}

}  // namespace

double quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double quantile(const PassResult& r, const std::string& series, double q) {
  const auto it = r.series.find(series);
  return it == r.series.end() ? 0.0 : quantile(it->second, q);
}

std::optional<Workload> find_workload(const std::string& name) {
  if (name == "p2p") {
    return Workload{
        "p2p", 2, 1, p2p_body,
        {"lat_8B_us", 0.5}, {"stream_8B_us_per_msg", 0.5},
        {"stream_256KiB_us_per_msg", 0.5}, "msg",
        [](const PassResult& r) {
          return std::vector<Named>{
              {"lat_8B_us", quantile(r, "lat_8B_us", 0.5), "us"},
              {"lat_8B_us.p90", quantile(r, "lat_8B_us", 0.9), "us"},
              {"rate_8B_msg_s", 1e6 / quantile(r, "stream_8B_us_per_msg", 0.5), "msg/s"},
              {"bw_256KiB_MBps",
               static_cast<double>(kLargeBytes) /
                   quantile(r, "stream_256KiB_us_per_msg", 0.5),
               "MB/s"},
          };
        }};
  }
  if (name == "coll") {
    return Workload{
        "coll", 2, 4, coll_body,
        {"allreduce_8B_us", 0.5}, {"allreduce_64KiB_us", 0.5},
        {"bcast_256KiB_us", 0.5}, "op",
        [](const PassResult& r) {
          return std::vector<Named>{
              {"allreduce_8B_us", quantile(r, "allreduce_8B_us", 0.5), "us"},
              {"allreduce_8B_us.p90", quantile(r, "allreduce_8B_us", 0.9), "us"},
              {"allreduce_64KiB_us", quantile(r, "allreduce_64KiB_us", 0.5), "us"},
              {"bcast_256KiB_us", quantile(r, "bcast_256KiB_us", 0.5), "us"},
          };
        }};
  }
  if (name == "sessions") {
    return Workload{
        "sessions", 2, 4, sessions_body,
        {"comm_dup_us", 0.5}, {"comm_create_us", 0.5},
        {"session_cycle_us", 0.5}, "cycle",
        [](const PassResult& r) {
          return std::vector<Named>{
              {"session_cycle_us", quantile(r, "session_cycle_us", 0.5), "us"},
              {"comm_create_us", quantile(r, "comm_create_us", 0.5), "us"},
              {"comm_dup_us", quantile(r, "comm_dup_us", 0.5), "us"},
              {"comm_dup_us.p90", quantile(r, "comm_dup_us", 0.9), "us"},
          };
        }};
  }
  if (name == "ckpt") {
    return Workload{
        "ckpt", 2, 4, ckpt_body,
        {"ckpt_restore_us", 0.5}, {"ckpt_save_us", 0.9},
        {"ckpt_save_us", 0.5}, "save",
        [](const PassResult& r) {
          return std::vector<Named>{
              {"ckpt_save_us", quantile(r, "ckpt_save_us", 0.5), "us"},
              {"ckpt_save_us.p90", quantile(r, "ckpt_save_us", 0.9), "us"},
              {"ckpt_restore_us", quantile(r, "ckpt_restore_us", 0.5), "us"},
              {"ckpt_restore_us.p90", quantile(r, "ckpt_restore_us", 0.9), "us"},
          };
        }};
  }
  return std::nullopt;
}

}  // namespace perfbench
