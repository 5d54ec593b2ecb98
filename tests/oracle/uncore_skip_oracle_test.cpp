// Differential oracle for the uncore tick's idle-boundary skip
// (Simulation::run; the rule and its argument are in simulation.h).
//
// Every scenario runs twice: once through Simulation::run, and once
// through FixedChainDriver, which builds the same CoreModels over its
// own System and EventQueue and drains on the fixed chain the skip
// replaced — a drain at every kUncoreTickPeriod boundary of the run's
// start tick, stopping after the first tick that sees no running core
// or reaches the run limit. The two must agree exactly on the finish
// tick, queue().now(), System::Stats, the memory controller's counters,
// the monitors' counters, and every core's instructions and finish tick.
//
// Scenarios: make_mix mixes on the mini machine under every defense x
// inclusion x monitor-level cell; the checked-in fuzz corpus replayed
// through assign_trace_scenario on its cell's machine; and directed
// corners — the last core finishing exactly on a boundary, a prefetch
// due exactly on a boundary, a zero prefetch delay, run limits on and
// between boundaries, a second run() after a capped one, and a
// prefetch's data arriving a period before the next prefetch is due
// while every core sleeps.
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/perf_experiment.h"
#include "fuzz/corpus.h"
#include "fuzz/scenario.h"
#include "sim/core_model.h"
#include "sim/simulation.h"
#include "tests/sim/test_configs.h"
#include "workload/mixes.h"
#include "workload/trace.h"

#ifndef PIPO_CORPUS_DIR
#define PIPO_CORPUS_DIR "corpus"
#endif

namespace pipo {
namespace {

using Workloads = std::vector<std::unique_ptr<Workload>>;
/// Builds one fresh, identical set of per-core workloads per call.
using WorkloadFactory = std::function<Workloads()>;

constexpr Tick kPeriod = Simulation::kUncoreTickPeriod;

/// The reference: Simulation::run's driver with the uncore tick on the
/// fixed every-boundary chain.
class FixedChainDriver {
 public:
  FixedChainDriver(const SystemConfig& cfg, Workloads workloads)
      : cfg_(cfg), system_(cfg), workloads_(std::move(workloads)) {}

  Tick run(Tick max_ticks = kNeverTick) {
    queue_.clear();
    cores_.clear();
    running_cores_ = cfg_.num_cores;
    for (CoreId c = 0; c < cfg_.num_cores; ++c) {
      cores_.push_back(std::make_unique<CoreModel>(
          c, &system_, &queue_, workloads_[c].get(), &running_cores_));
      cores_.back()->start(queue_.now());
    }
    run_limit_ = max_ticks;
    schedule_tick();
    events_dispatched_ = queue_.run_active(max_ticks);
    Tick finish = 0;
    for (const auto& c : cores_) {
      finish = std::max(finish, c->done() ? c->finish_tick() : queue_.now());
    }
    return finish;
  }

  System& system() { return system_; }
  EventQueue& queue() { return queue_; }
  const CoreModel& core(CoreId c) const { return *cores_[c]; }
  std::uint32_t num_cores() const { return cfg_.num_cores; }
  std::uint64_t events_dispatched() const { return events_dispatched_; }

 private:
  void schedule_tick() {
    queue_.schedule_in(kPeriod, [this] {
      system_.drain_prefetches(queue_.now());
      if (running_cores_ > 0 && queue_.now() < run_limit_) schedule_tick();
    });
  }

  SystemConfig cfg_;
  System system_;
  EventQueue queue_;
  Workloads workloads_;
  std::vector<std::unique_ptr<CoreModel>> cores_;
  Tick run_limit_ = 0;
  std::uint64_t events_dispatched_ = 0;
  std::uint32_t running_cores_ = 0;
};

/// Everything a run leaves that the skip could disturb, as text, so a
/// mismatch prints both sides in full.
template <typename Driver>
std::string record(Driver& d, Tick finish) {
  System& sys = d.system();
  MemController& mc = sys.mem();
  const MonitorIface& mon = sys.active_monitor();
  std::ostringstream os;
  os << "finish " << finish << " now " << d.queue().now() << '\n';
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
    const CoreModel& core = d.core(c);
    os << "core " << c << " instr " << core.instructions() << " mem "
       << core.mem_accesses() << " done " << core.done() << " at "
       << core.finish_tick() << '\n';
  }
  return os.str();
}

/// What one compare() call saw: event counts summed over its runs, and
/// the live machine's state after the last one.
struct Compared {
  std::uint64_t live_events = 0;
  std::uint64_t reference_events = 0;
  Tick finish = 0;               ///< the last run's finish tick
  std::uint64_t prefetches = 0;  ///< the active monitor's, after all runs
};

/// Runs `make`'s workloads on `cfg` through Simulation::run and through
/// the fixed chain, one run() per entry of `limits` on the same two
/// machines, and expects identical records after every run.
Compared compare(const SystemConfig& cfg, const WorkloadFactory& make,
                 const std::string& label,
                 const std::vector<Tick>& limits = {kNeverTick}) {
  Simulation sim(cfg);
  Workloads live = make();
  for (CoreId c = 0; c < cfg.num_cores; ++c) {
    sim.set_workload(c, std::move(live[c]));
  }
  FixedChainDriver ref(cfg, make());
  Compared out;
  for (std::size_t i = 0; i < limits.size(); ++i) {
    out.finish = sim.run(limits[i]);
    const Tick b = ref.run(limits[i]);
    EXPECT_EQ(record(sim, out.finish), record(ref, b))
        << label << ", run " << i << " (limit " << limits[i] << ")";
    out.live_events += sim.events_dispatched();
    out.reference_events += ref.events_dispatched();
  }
  out.prefetches = sim.system().active_monitor().prefetches_issued();
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

/// A corpus entry's recorded traces, as assign_trace_scenario loads them.
WorkloadFactory corpus_traces(const SystemConfig& cfg, const std::string& dir) {
  return [cfg, dir] {
    Simulation donor(cfg);
    assign_trace_scenario(donor, dir);
    return take_workloads(donor);
  };
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

WorkloadFactory mix(unsigned number, std::uint64_t instr = 3000) {
  return [=] { return make_mix(number, instr, /*seed=*/number, 64); };
}

constexpr DefenseKind kDefenses[] = {
    DefenseKind::kNone,  DefenseKind::kPiPoMonitor,
    DefenseKind::kDirectoryMonitor, DefenseKind::kSharp,
    DefenseKind::kBitp,  DefenseKind::kRic};
constexpr InclusionPolicy kInclusions[] = {InclusionPolicy::kInclusive,
                                           InclusionPolicy::kExclusive};
constexpr MonitorLevel kLevels[] = {MonitorLevel::kL1, MonitorLevel::kL2,
                                    MonitorLevel::kLlc};

TEST(UncoreSkipOracle, MixesMatchOnEveryHierarchyCell) {
  for (DefenseKind d : kDefenses) {
    for (InclusionPolicy inc : kInclusions) {
      for (MonitorLevel lvl : kLevels) {
        const SystemConfig cfg = mini_cell(d, inc, lvl);
        for (unsigned m : {1u, 4u, 9u}) {
          compare(cfg, mix(m), cell_label(cfg) + " mix " + std::to_string(m));
        }
      }
    }
  }
}

TEST(UncoreSkipOracle, CorpusScenariosMatch) {
  const std::vector<CorpusEntry> entries = load_corpus_dir(PIPO_CORPUS_DIR);
  ASSERT_FALSE(entries.empty()) << "no corpus under " << PIPO_CORPUS_DIR;
  Compared total;
  for (const CorpusEntry& e : entries) {
    const SystemConfig cfg = fuzz_system_config(e.axes);
    const Compared n = compare(cfg, corpus_traces(cfg, e.dir), e.name);
    total.live_events += n.live_events;
    total.reference_events += n.reference_events;
  }
  // Anti-vacuity: these idle-gap scenarios are what the skip is for.
  EXPECT_LT(total.live_events * 2, total.reference_events);
}

/// Request traces for the mini machine's four cores; cores without one
/// idle.
Workloads script(std::vector<std::vector<MemRequest>> per_core) {
  per_core.resize(4);
  Workloads out;
  for (auto& trace : per_core) {
    out.push_back(std::make_unique<TraceWorkload>(std::move(trace)));
  }
  return out;
}

MemRequest load(Addr addr, std::uint32_t gap = 0, bool bypass = false) {
  return MemRequest{addr, AccessType::kLoad, gap, bypass};
}

TEST(UncoreSkipOracle, LastCoreFinishingOnABoundary) {
  // Sweeping the last access's gap over two full periods lands the
  // final step on every phase of the tick, boundaries included — once
  // behind the tick in FIFO order (an L1 hit, scheduled after it) and
  // once ahead of it (a DRAM miss, scheduled more than a period early).
  const SystemConfig cfg = testcfg::mini();
  int on_boundary = 0;
  for (bool miss : {false, true}) {
    for (std::uint32_t gap = 0; gap < 2 * kPeriod; ++gap) {
      const Addr last = miss ? 0x9000 : 0x1000;
      const WorkloadFactory make = [&] {
        return script({{load(0x1000), load(last, 300 + gap)},
                       {load(0x5000, 40)}});
      };
      const Compared n = compare(
          cfg, make, "gap " + std::to_string(gap) + (miss ? " miss" : " hit"));
      if (n.finish % kPeriod == 0) ++on_boundary;
    }
  }
  EXPECT_GE(on_boundary, 4);
}

/// Core 0 holds line `l`; core 1 then loads the eight lines congruent
/// with it in the mini LLC, so the eighth evicts `l` and
/// back-invalidates core 0's copy. Core 0 idles long enough after that
/// for any prefetch to land while every core sleeps.
Workloads back_invalidation_scenario(Addr l, std::uint32_t tail_gap) {
  std::vector<MemRequest> evictor;
  for (std::uint64_t k = 1; k <= 8; ++k) {
    evictor.push_back(load(l + byte_of(k * testcfg::mini_l3_stride()),
                           k == 1 ? 300 : 0));
  }
  return script({{load(l), load(l + 0x100000, tail_gap)}, evictor});
}

TEST(UncoreSkipOracle, PrefetchDueOnEveryPhaseOfTheTick) {
  // BITP prefetches the back-invalidated line prefetch_delay cycles
  // after the eviction, which happens at the same tick whatever the
  // delay; sweeping the delay over two periods therefore puts the due
  // tick on every phase of the tick, exactly on a boundary included.
  for (std::uint32_t delay = 0; delay < 2 * kPeriod; ++delay) {
    SystemConfig cfg = mini_cell(DefenseKind::kBitp,
                                 InclusionPolicy::kInclusive,
                                 MonitorLevel::kLlc);
    cfg.bitp.prefetch_delay = delay;
    const Compared n =
        compare(cfg, [] { return back_invalidation_scenario(0x4000, 5000); },
                "bitp delay " + std::to_string(delay));
    EXPECT_EQ(n.prefetches, 1u) << "delay " << delay;
    EXPECT_LT(n.live_events * 2, n.reference_events) << "delay " << delay;
  }
}

TEST(UncoreSkipOracle, ZeroPrefetchDelay) {
  // With no delay a prefetch is due on the tick of the pEvict or
  // back-invalidation that queued it. The corpus attack scenarios drive
  // each prefetching defense through that; a mix adds a busy machine.
  const std::vector<CorpusEntry> entries = load_corpus_dir(PIPO_CORPUS_DIR);
  ASSERT_FALSE(entries.empty()) << "no corpus under " << PIPO_CORPUS_DIR;
  for (DefenseKind k : {DefenseKind::kPiPoMonitor, DefenseKind::kBitp,
                        DefenseKind::kDirectoryMonitor}) {
    auto zero_delay = [](SystemConfig cfg) {
      cfg.monitor.prefetch_delay = 0;
      cfg.bitp.prefetch_delay = 0;
      cfg.dir_monitor.prefetch_delay = 0;
      return cfg;
    };
    std::uint64_t prefetches = 0;
    for (const CorpusEntry& e : entries) {
      FuzzCellAxes axes = e.axes;
      axes.defense = k;
      const SystemConfig cfg = zero_delay(fuzz_system_config(axes));
      prefetches += compare(cfg, corpus_traces(cfg, e.dir),
                            e.name + " as " + cell_label(cfg) + " delay 0")
                        .prefetches;
    }
    EXPECT_GT(prefetches, 0u) << to_string(k) << " never prefetched";
    for (InclusionPolicy inc : kInclusions) {
      const SystemConfig cfg =
          zero_delay(mini_cell(k, inc, MonitorLevel::kLlc));
      compare(cfg, mix(2), cell_label(cfg) + " delay 0 mix 2");
    }
  }
}

TEST(UncoreSkipOracle, RunLimitsOnAndBetweenBoundaries) {
  // Limits on boundaries (multiples of 64) and just off them, before,
  // around and after the scenario's prefetch.
  const SystemConfig cfg = mini_cell(
      DefenseKind::kBitp, InclusionPolicy::kInclusive, MonitorLevel::kLlc);
  for (Tick limit : {Tick{0}, Tick{1}, Tick{63}, Tick{64}, Tick{65},
                     Tick{2400}, Tick{2431}, Tick{2432}, Tick{2433},
                     Tick{3008}, Tick{3011}, Tick{6400}}) {
    compare(cfg, [] { return back_invalidation_scenario(0x4000, 5000); },
            "limit " + std::to_string(limit), {limit});
    compare(cfg, mix(3), "mix 3 limit " + std::to_string(limit), {limit});
  }
}

TEST(UncoreSkipOracle, SecondRunAfterACappedOne) {
  // The second run starts where the capped one stopped, off the first
  // run's boundary grid, with the capped run's prefetches still queued.
  const SystemConfig cfg = mini_cell(
      DefenseKind::kBitp, InclusionPolicy::kInclusive, MonitorLevel::kLlc);
  for (Tick cap : {Tick{2431}, Tick{2432}, Tick{2500}, Tick{2650}}) {
    compare(cfg, [] { return back_invalidation_scenario(0x4000, 5000); },
            "cap " + std::to_string(cap), {cap, kNeverTick});
    compare(cfg, mix(6), "mix 6 cap " + std::to_string(cap),
            {cap, kNeverTick});
  }
}

TEST(UncoreSkipOracle, InFlightFillDrainsBeforeALaterPrefetch) {
  // Two BITP prefetches, A then B, come due while every core sleeps; A's
  // data arrives more than a period before B is due, and A's fill evicts
  // a dirty LLC line. Draining A at the boundary after its data arrives
  // puts the writeback on the memory channel before B's fetch; a tick
  // that slept through in-flight fills would fetch B first and queue the
  // writeback behind it.
  const Addr a = 0x4000;           // A's line, held by core 0
  const Addr b = a + kLineSizeBytes;  // B's line, in another LLC set
  auto congruent = [](Addr line, std::uint64_t k) {
    return line + byte_of(k * testcfg::mini_l3_stride());
  };
  for (std::uint32_t b_start : {800u, 830u, 860u}) {
    SystemConfig cfg = mini_cell(DefenseKind::kBitp,
                                 InclusionPolicy::kInclusive,
                                 MonitorLevel::kLlc);
    cfg.bitp.prefetch_delay = 3000;
    const WorkloadFactory make = [&] {
      // Core 1 dirties a's first congruent line (its store, merged into
      // the LLC when core 2 reads it) and then evicts a with seven more,
      // leaving the dirty line least recently used; core 3 evicts b
      // about 300 cycles later.
      std::vector<MemRequest> c1 = {
          MemRequest{congruent(a, 1), AccessType::kStore, 300},
          load(congruent(a, 2), 200)};
      for (std::uint64_t k = 3; k <= 8; ++k) c1.push_back(load(congruent(a, k)));
      std::vector<MemRequest> c3;
      for (std::uint64_t k = 1; k <= 8; ++k) {
        c3.push_back(load(congruent(b, k), k == 1 ? b_start : 0));
      }
      return script({{load(a), load(b), load(a + 0x100000, 20000)},
                     c1,
                     {load(congruent(a, 1), 600)},
                     c3});
    };
    compare(cfg, make, "b_start " + std::to_string(b_start));
  }
}

}  // namespace
}  // namespace pipo
