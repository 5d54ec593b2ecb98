// Differential oracle for cores running ahead of the event queue
// (CoreModel::run over EventQueue::advance_if_next; the argument is in
// event_queue.h and core_model.h).
//
// Every scenario runs twice: once through Simulation::run, whose cores
// run a step or issue in place when no pending event precedes it, and
// once through ReferenceDriver, which is Simulation::run's driver over
// oracle::ReferenceCoreModel, the two-event core that sends every step
// and issue through the queue. The two must agree exactly on the finish
// tick, queue().now(), System::Stats, the memory controller's counters,
// the monitors' counters, every core's instructions and finish tick, and
// the number of events dispatched (in-place runs count as dispatched).
//
// Scenarios: make_mix mixes on the mini machine under every defense x
// inclusion x monitor-level cell; the checked-in fuzz corpus replayed
// through assign_trace_scenario on its cell's machine; and run limits
// that land inside a run-ahead chain, exactly on an in-place tick and
// between two, each followed by a second, unlimited run.
#include <algorithm>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/perf_experiment.h"
#include "fuzz/corpus.h"
#include "fuzz/scenario.h"
#include "sim/simulation.h"
#include "tests/oracle/reference_core_model.h"
#include "tests/sim/test_configs.h"
#include "workload/mixes.h"

#ifndef PIPO_CORPUS_DIR
#define PIPO_CORPUS_DIR "corpus"
#endif

namespace pipo {
namespace {

using Workloads = std::vector<std::unique_ptr<Workload>>;
/// Builds one fresh, identical set of per-core workloads per call.
using WorkloadFactory = std::function<Workloads()>;

constexpr Tick kPeriod = Simulation::kUncoreTickPeriod;

/// The reference: Simulation::run's driver, uncore tick and skip rule
/// included, over cores that schedule every phase.
class ReferenceDriver {
 public:
  ReferenceDriver(const SystemConfig& cfg, Workloads workloads)
      : cfg_(cfg), system_(cfg), workloads_(std::move(workloads)) {}

  Tick run(Tick max_ticks = kNeverTick) {
    queue_.clear();
    cores_.clear();
    running_cores_ = cfg_.num_cores;
    for (CoreId c = 0; c < cfg_.num_cores; ++c) {
      cores_.push_back(std::make_unique<oracle::ReferenceCoreModel>(
          c, &system_, &queue_, workloads_[c].get(), &running_cores_));
      cores_.back()->start(queue_.now());
    }
    run_limit_ = max_ticks;
    schedule_uncore_tick(queue_.now() + kPeriod);
    events_dispatched_ = queue_.run_active(max_ticks);
    Tick finish = 0;
    for (const auto& c : cores_) {
      finish = std::max(finish, c->done() ? c->finish_tick() : queue_.now());
    }
    return finish;
  }

  System& system() { return system_; }
  EventQueue& queue() { return queue_; }
  const oracle::ReferenceCoreModel& core(CoreId c) const { return *cores_[c]; }
  std::uint32_t num_cores() const { return cfg_.num_cores; }
  std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  void schedule_uncore_tick(Tick when) {
    queue_.schedule(when, [this] {
      const Tick now = queue_.now();
      system_.drain_prefetches(now);
      if (running_cores_ == 0 || now >= run_limit_) return;
      Tick wake = std::min(system_.next_drain_tick(), run_limit_);
      if (!queue_.empty()) wake = std::min(wake, queue_.next_tick());
      const Tick periods = wake > now ? (wake - now - 1) / kPeriod + 1 : 1;
      if (periods > (kNeverTick - now) / kPeriod) return;
      schedule_uncore_tick(now + periods * kPeriod);
    });
  }

  SystemConfig cfg_;
  System system_;
  EventQueue queue_;
  Workloads workloads_;
  std::vector<std::unique_ptr<oracle::ReferenceCoreModel>> cores_;
  Tick run_limit_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::uint32_t running_cores_ = 0;
};

/// Everything a run leaves that running ahead could disturb, as text, so
/// a mismatch prints both sides in full.
template <typename Driver>
std::string record(Driver& d, Tick finish) {
  System& sys = d.system();
  MemController& mc = sys.mem();
  const MonitorIface& mon = sys.active_monitor();
  std::ostringstream os;
  os << "finish " << finish << " now " << d.queue().now() << " events "
     << d.events_dispatched() << '\n';
  sys.stats().dump(os);
  os << "mc demand " << mc.demand_fetches() << " prefetch "
     << mc.prefetch_fetches() << " writebacks " << mc.writebacks()
     << " queue " << mc.total_queue_delay() << '\n'
     << "monitor captures " << mon.captures() << " prefetches "
     << mon.prefetches_issued() << " next_due " << mon.next_due_tick()
     << " pipo " << sys.monitor().accesses() << '/'
     << sys.monitor().pevicts() << '/' << sys.monitor().pevicts_dropped()
     << '\n';
  if (sys.config().defense == DefenseKind::kDirectoryMonitor) {
    os << "dir evictions " << sys.directory_monitor().evictions() << '\n';
  }
  for (CoreId c = 0; c < d.num_cores(); ++c) {
    const auto& core = d.core(c);
    os << "core " << c << " instr " << core.instructions() << " mem "
       << core.mem_accesses() << " done " << core.done() << " at "
       << core.finish_tick() << '\n';
  }
  return os.str();
}

/// What one compare() call saw on the live machine, summed over its runs.
struct Compared {
  std::uint64_t in_place = 0;     ///< steps and issues run in place
  std::uint64_t core_events = 0;  ///< steps and issues of finished runs
};

/// Runs `make`'s workloads on `cfg` through Simulation::run and through
/// the reference driver, one run() per entry of `limits` on the same two
/// machines, and expects identical records after every run.
Compared compare(const SystemConfig& cfg, const WorkloadFactory& make,
                 const std::string& label,
                 const std::vector<Tick>& limits = {kNeverTick}) {
  Simulation sim(cfg);
  Workloads live = make();
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    sim.set_workload(c, std::move(live[c]));
  }
  ReferenceDriver ref(cfg, make());
  Compared out;
  for (std::size_t i = 0; i < limits.size(); ++i) {
    const std::uint64_t in_place = sim.queue().ran_in_place();
    const Tick a = sim.run(limits[i]);
    const Tick b = ref.run(limits[i]);
    EXPECT_EQ(record(sim, a), record(ref, b))
        << label << ", run " << i << " (limit " << limits[i] << ")";
    out.in_place += sim.queue().ran_in_place() - in_place;
    // A finished core took one step and one issue per access and a last
    // step that found no request.
    for (CoreId c = 0; c < cfg.num_cores; ++c) {
      if (sim.core(c).done()) {
        out.core_events += 2 * sim.core(c).mem_accesses() + 1;
      }
    }
  }
  return out;
}

/// Takes `donor`'s assigned workloads; the donor is never run.
Workloads take_workloads(Simulation& donor) {
  Workloads out(donor.num_cores());
  for (CoreId c = 0; c < donor.num_cores(); ++c) {
    donor.wrap_workload(c, [&](std::unique_ptr<Workload> w) {
      out[c] = std::move(w);
      return std::unique_ptr<Workload>();
    });
  }
  return out;
}

SystemConfig mini_cell(DefenseKind defense, InclusionPolicy inclusion,
                       MonitorLevel level) {
  SystemConfig cfg = testcfg::mini();
  cfg.defense = defense;
  cfg.monitor.enabled = defense == DefenseKind::kPiPoMonitor;
  cfg.inclusion = inclusion;
  cfg.monitor_level = level;
  return cfg;
}

std::string cell_label(const SystemConfig& cfg) {
  return std::string(to_string(cfg.defense)) + "/" +
         to_string(cfg.inclusion) + "/" + to_string(cfg.monitor_level);
}

WorkloadFactory mix(unsigned number, std::uint64_t instr, std::uint64_t seed,
                    std::uint64_t ws_div) {
  return [=] { return make_mix(number, instr, seed, ws_div); };
}

constexpr DefenseKind kDefenses[] = {
    DefenseKind::kNone,  DefenseKind::kPiPoMonitor,
    DefenseKind::kDirectoryMonitor, DefenseKind::kSharp,
    DefenseKind::kBitp,  DefenseKind::kRic};
constexpr InclusionPolicy kInclusions[] = {InclusionPolicy::kInclusive,
                                           InclusionPolicy::kExclusive};
constexpr MonitorLevel kLevels[] = {MonitorLevel::kL1, MonitorLevel::kL2,
                                    MonitorLevel::kLlc};

TEST(RunAheadOracle, MixesMatchOnEveryHierarchyCell) {
  for (DefenseKind d : kDefenses) {
    for (InclusionPolicy inc : kInclusions) {
      for (MonitorLevel lvl : kLevels) {
        const SystemConfig cfg = mini_cell(d, inc, lvl);
        std::uint64_t in_place = 0;
        for (unsigned m : {1u, 4u, 9u}) {
          in_place += compare(cfg, mix(m, 3000, m, 64),
                              cell_label(cfg) + " mix " + std::to_string(m))
                          .in_place;
        }
        // Anti-vacuity: every cell exercises running ahead.
        EXPECT_GT(in_place, 0u) << cell_label(cfg);
      }
    }
  }
}

TEST(RunAheadOracle, CorpusScenariosMatch) {
  const std::vector<CorpusEntry> entries = load_corpus_dir(PIPO_CORPUS_DIR);
  ASSERT_FALSE(entries.empty()) << "no corpus under " << PIPO_CORPUS_DIR;
  for (const CorpusEntry& e : entries) {
    const SystemConfig cfg = fuzz_system_config(e.axes);
    const Compared n = compare(
        cfg,
        [&] {
          Simulation donor(cfg);
          assign_trace_scenario(donor, e.dir);
          return take_workloads(donor);
        },
        e.name);
    EXPECT_GT(n.in_place, 0u) << e.name;
  }
}

TEST(RunAheadOracle, MostCoreEventsRunInPlaceOnTheTableIIMachine) {
  // The sweep's shape: the Table II machine at working sets / 16.
  for (const unsigned m : {1u, 3u, 7u}) {
    for (const DefenseKind d : {DefenseKind::kNone, DefenseKind::kPiPoMonitor,
                                DefenseKind::kBitp}) {
      const SystemConfig cfg = SystemConfig::with_defense(d);
      const std::string label =
          "mix " + std::to_string(m) + " on " + to_string(d);
      const Compared n = compare(cfg, mix(m, 20'000, cfg.seed, 16), label);
      EXPECT_GE(n.in_place * 2, n.core_events) << label;
    }
  }
}

/// Forwards to the wrapped workload and logs each of its core's phases:
/// the tick it ran at and whether it ran in place. A phase ran in place
/// exactly when the queue's in-place count moved since the last phase
/// of any core, because advance_if_next counts the run immediately
/// before the phase calls next() (a step) or on_complete() (an issue).
class PhaseLog : public Workload {
 public:
  struct Phase {
    Tick tick;
    bool in_place;
  };
  struct Shared {
    const EventQueue* queue;
    std::uint64_t seen = 0;
    std::vector<Phase> phases;
  };

  PhaseLog(std::unique_ptr<Workload> inner, Shared* shared)
      : inner_(std::move(inner)), shared_(shared) {}

  std::optional<MemRequest> next(Tick now) override {
    log(now);
    return inner_->next(now);
  }
  void on_complete(const MemRequest& req, Tick issued,
                   Tick completed) override {
    log(issued);
    inner_->on_complete(req, issued, completed);
  }

 private:
  void log(Tick now) {
    const std::uint64_t n = shared_->queue->ran_in_place();
    shared_->phases.push_back({now, n != shared_->seen});
    shared_->seen = n;
  }

  std::unique_ptr<Workload> inner_;
  Shared* shared_;
};

/// The phases of every core of one run of `make` on `cfg` up to
/// `limit`, in the order they ran.
std::vector<PhaseLog::Phase> phases_of(const SystemConfig& cfg,
                                       const WorkloadFactory& make,
                                       Tick limit = kNeverTick) {
  Simulation sim(cfg);
  PhaseLog::Shared shared{&sim.queue(), 0, {}};
  Workloads w = make();
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    sim.set_workload(c, std::move(w[c]));
    sim.wrap_workload(c, [&](std::unique_ptr<Workload> inner) {
      return std::make_unique<PhaseLog>(std::move(inner), &shared);
    });
  }
  sim.run(limit);
  return shared.phases;
}

TEST(RunAheadOracle, RunLimitsInsideARunAheadChain) {
  // A limit exactly on the tick of a phase run in place makes that phase
  // the event that crosses the limit, reached by running ahead from an
  // earlier tick. A limit between two consecutive in-place phases is
  // crossed inside the chain. Either way the chain must stop where
  // run_active would, and a second, unlimited run must go on from there.
  //
  // A limit re-arms the uncore tick at the first boundary at or after
  // it, which an unlimited run may skip, so candidates keep every
  // boundary out of (previous phase, crossing phase]: the chain then runs
  // ahead under the limit as it did without one, which the limited run's
  // own phase log confirms.
  for (const DefenseKind d : {DefenseKind::kNone, DefenseKind::kPiPoMonitor,
                              DefenseKind::kBitp}) {
    const SystemConfig cfg =
        mini_cell(d, InclusionPolicy::kInclusive, MonitorLevel::kLlc);
    const WorkloadFactory make = mix(3, 3000, 3, 64);
    const std::vector<PhaseLog::Phase> phases = phases_of(cfg, make);
    std::vector<Tick> on_tick;
    std::vector<Tick> between;
    for (std::size_t i = 1; i < phases.size(); ++i) {
      const PhaseLog::Phase& prev = phases[i - 1];
      const PhaseLog::Phase& cur = phases[i];
      if (!cur.in_place || cur.tick <= prev.tick ||
          cur.tick / kPeriod != prev.tick / kPeriod) {
        continue;
      }
      on_tick.push_back(cur.tick);
      if (prev.in_place && cur.tick > prev.tick + 1) {
        between.push_back(prev.tick + 1);
      }
    }
    ASSERT_GE(on_tick.size(), 8u) << to_string(d);
    ASSERT_GE(between.size(), 8u) << to_string(d);
    // Eight limits of each kind, spread over the run.
    for (const bool on : {true, false}) {
      const std::vector<Tick>& limits = on ? on_tick : between;
      for (std::size_t k = 0; k < 8; ++k) {
        const Tick limit = limits[k * (limits.size() - 1) / 7];
        const std::string label =
            std::string(to_string(d)) +
            (on ? " limit on an in-place tick " : " limit inside a chain ") +
            std::to_string(limit);
        compare(cfg, make, label, {limit, kNeverTick});
        // The phase that crossed the limit ran in place, and a limit
        // between phases fell between two in-place ones.
        const std::vector<PhaseLog::Phase> capped =
            phases_of(cfg, make, limit);
        ASSERT_GE(capped.size(), 2u) << label;
        const PhaseLog::Phase& last = capped.back();
        const PhaseLog::Phase& before = capped[capped.size() - 2];
        EXPECT_TRUE(last.in_place) << label;
        if (on) {
          EXPECT_EQ(last.tick, limit) << label;
        } else {
          EXPECT_TRUE(before.in_place) << label;
          EXPECT_LT(before.tick, limit) << label;
          EXPECT_GT(last.tick, limit) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pipo
