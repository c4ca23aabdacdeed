#include "sessmpi/sim/cluster.hpp"

#include <thread>

#include "sessmpi/base/error.hpp"
#include "sessmpi/base/log.hpp"
#include "sessmpi/obs/trace.hpp"
#include "sessmpi/sim/scheduler.hpp"

namespace sessmpi::sim {

namespace {
thread_local Process* tls_current = nullptr;
}

Process::Process(Cluster& cluster, Rank rank)
    : cluster_(cluster),
      rank_(rank),
      node_(cluster.topology().node_of(rank)),
      local_rank_(cluster.topology().local_rank_of(rank)),
      endpoint_(cluster.fabric().endpoint(rank)) {}

void Process::fail() {
  // Runtime first: a survivor that sees the death on the wire and then
  // re-queries a pset must already get the shrunken set.
  cluster_.dvm().pmix().notify_proc_failed(rank_);
  cluster_.fabric().mark_failed(rank_);
}

bool Process::failed() const {
  return cluster_.fabric().is_failed(rank_);
}

Cluster::Cluster(Options opts)
    : dvm_(prte::JobSpec{opts.topo, opts.cost, std::move(opts.extra_psets)}),
      fabric_(opts.topo, opts.cost, opts.reliability) {
  procs_.reserve(static_cast<std::size_t>(opts.topo.size()));
  for (Rank r = 0; r < opts.topo.size(); ++r) {
    procs_.push_back(std::make_unique<Process>(*this, r));
  }
  // Clock skew is a property of the cluster being simulated: start from
  // aligned clocks, then inject the configured per-rank offsets.
  obs::Tracer::reset_track_skews();
  for (std::size_t r = 0;
       r < opts.clock_skew_ns.size() &&
       r < static_cast<std::size_t>(opts.topo.size());
       ++r) {
    obs::Tracer::set_track_skew_ns(static_cast<std::int32_t>(r),
                                   opts.clock_skew_ns[r]);
  }
  // Retry exhaustion in the fabric is a failure detection: surface it
  // through the same PMIx proc_failed announcement as any other death so
  // fault-aware layers (Communicator::get_failed, src/ft) hear about it.
  fabric_.set_unreachable_callback(
      [this](Rank r) { dvm_.pmix().notify_proc_failed(r); });
  // ECN: charge every sequenced inter-node packet against a modeled link
  // and mark CE once the backlog crosses the threshold (DESIGN.md §17). A
  // cost model that charges inter-node packets no wire occupancy (even a
  // 1 TiB one; CostModel::zero()) never builds a backlog, so its marker
  // could never fire: install none rather than lock the link table on
  // every packet for nothing.
  const std::int64_t ecn_threshold =
      opts.ecn_threshold_ns ? *opts.ecn_threshold_ns
                            : fabric::ecn_threshold_ns_from_cvars();
  const bool links_can_queue =
      opts.cost.wire_occupancy(/*same_node=*/false, std::size_t{1} << 40,
                               std::size_t{1} << 10) > 0;
  if (ecn_threshold > 0 && opts.topo.num_nodes > 1 && links_can_queue) {
    link_load_ = std::make_unique<LinkLoad>();
    fabric_.set_ce_marker(
        make_ce_marker(*link_load_, opts.topo, opts.cost, ecn_threshold));
  }
}

Cluster::~Cluster() = default;

Process& Cluster::process(Rank r) {
  if (!topology().valid_rank(r)) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid rank");
  }
  return *procs_[static_cast<std::size_t>(r)];
}

void Cluster::fail_rank(Rank r) { process(r).fail(); }

void Cluster::fail_node(int node) {
  if (node < 0 || node >= topology().num_nodes) {
    throw base::Error(base::ErrClass::rte_bad_param, "invalid node");
  }
  for (Rank r = 0; r < size(); ++r) {
    if (topology().node_of(r) == node) {
      fabric_.mark_failed(r);
    }
  }
  dvm_.notify_node_failed(node);
}

void Cluster::run(const std::function<void(Process&)>& rank_main) {
  std::vector<Rank> all(static_cast<std::size_t>(size()));
  for (int i = 0; i < size(); ++i) {
    all[static_cast<std::size_t>(i)] = i;
  }
  run_on(all, rank_main);
}

void Cluster::run_on(const std::vector<Rank>& ranks,
                     const std::function<void(Process&)>& rank_main) {
  struct Outcome {
    std::exception_ptr error;
  };
  std::vector<Outcome> outcomes(ranks.size());

  // The rank body is identical in both scheduling modes; only the carrier
  // differs (dedicated OS thread vs pinned fiber).
  const auto body_of = [this, &outcomes, &rank_main](std::size_t i, Rank r) {
    return [this, r, i, &outcomes, &rank_main] {
      Process& proc = *procs_[static_cast<std::size_t>(r)];
      try {
        dvm_.attach_process(r);
        rank_main(proc);
      } catch (...) {
        outcomes[i].error = std::current_exception();
        // Mark the rank dead so peers blocked in runtime collectives abort
        // (rte_proc_failed) instead of deadlocking the whole run, and flip
        // the cluster-wide abort flag so message-progress loops bail too.
        aborted_.store(true, std::memory_order_release);
        proc.fail();
      }
    };
  };

  if (scheduler_mode() == SchedulerMode::fibers) {
    std::vector<FiberTask> tasks(ranks.size());
    // Rank TLS travels with the fiber: every resume installs this rank's
    // block (Cluster::current(), merged-trace track, flow context); every
    // suspend saves it back and installs the empty block, so scheduler
    // code never impersonates a rank and the next fiber starts clean.
    std::vector<RankTls> blocks(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const Rank r = ranks[i];
      blocks[i] = RankTls::of(process(r));  // validate before scheduling
      tasks[i].body = body_of(i, r);
      RankTls* block = &blocks[i];
      tasks[i].on_resume = [block] { block->install(); };
      tasks[i].on_suspend = [block] {
        *block = RankTls::capture();
        RankTls{}.install();
      };
    }
    FiberPool::run(std::move(tasks));
  } else {
    std::vector<std::thread> threads;
    threads.reserve(ranks.size());
    for (std::size_t i = 0; i < ranks.size(); ++i) {
      const Rank r = ranks[i];
      (void)process(r);  // validate before spawning
      threads.emplace_back([this, r, body = body_of(i, r)] {
        // Rank threads own their merged-trace track: every probe this
        // thread fires lands on rank r's timeline.
        RankTls::of(*procs_[static_cast<std::size_t>(r)]).install();
        body();
        RankTls{}.install();
      });
    }
    for (auto& t : threads) {
      t.join();
    }
  }
  for (auto& o : outcomes) {
    if (o.error) {
      std::rethrow_exception(o.error);
    }
  }
}

Process& Cluster::current() {
  if (tls_current == nullptr) {
    throw base::Error(base::ErrClass::intern,
                      "not called from a simulated rank thread");
  }
  return *tls_current;
}

Process* Cluster::current_ptr() noexcept { return tls_current; }

RankTls RankTls::of(Process& proc) noexcept {
  return RankTls{&proc, {proc.rank(), 0}};
}

RankTls RankTls::capture() noexcept {
  return RankTls{tls_current, obs::Tracer::thread_state()};
}

void RankTls::install() const noexcept {
  tls_current = proc;
  obs::Tracer::set_thread_state(trace);
}

ProcessAdopter::ProcessAdopter(Process& proc)
    : previous_(RankTls::capture()) {
  RankTls::of(proc).install();
}

ProcessAdopter::~ProcessAdopter() { previous_.install(); }

}  // namespace sessmpi::sim
