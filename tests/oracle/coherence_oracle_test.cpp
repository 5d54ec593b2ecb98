// Randomized MESI coherence oracle across the hierarchy-variant matrix
// (FlexiCAS RegressionGen idiom): random multi-core load/store/ifetch/
// bypass traces over every (inclusion-variant x slice-hash x defense x
// core-count) cell, with System::check_invariants() audited after EVERY
// access — a protocol violation fails at the precise operation that
// introduced it, not at whatever later point a test happened to look.
//
// Four more layers give the matrix teeth:
//  * directed protocol-corner traces (same-set thrash, cross-core write
//    sharing, bypass-probe rounds, RIC orphans), each with anti-vacuity
//    floors on the counters its corner must move;
//  * a differential leg proves the explicitly-spelled default variant
//    (inclusive LLC, low-bits slice hash, LLC-attached monitor) is
//    byte-identical to a default-constructed System — the degenerate
//    case of the composable hierarchy MUST be the historical engine;
//  * teeth tests corrupt machine state directly and demand the audit
//    reports it, for both inclusion policies;
//  * the directed RIC regressions reproduce the orphan-upgrade and
//    bypass-fill coherence bugs this oracle tier was built to catch:
//    both store-hit upgrade paths used to re-establish an orphaned LLC
//    entry via fill_l3 with presence = {writer} and skip
//    reconcile_ric_orphans, leaving a sibling's stale Shared copy alive
//    next to the new Modified one (single-writer violation); the
//    bypass_private memory fill had the same blind spot with
//    presence = 0. On the pre-fix engine every one of these traces
//    makes check_invariants() report M-plus-cached-elsewhere.
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/system.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

using testcfg::mini;
using testcfg::mini_l3_stride;

constexpr Tick kDrainPeriod = 64;

struct Op {
  Tick at = 0;
  CoreId core = 0;
  Addr addr = 0;
  AccessType type = AccessType::kLoad;
  bool bypass = false;
};

std::vector<Op> random_trace(std::uint64_t seed, std::uint32_t num_cores,
                             std::uint64_t working_lines, int n) {
  Rng rng(seed);
  std::vector<Op> ops;
  ops.reserve(n);
  Tick now = rng.below(50);
  for (int i = 0; i < n; ++i) {
    Op op;
    op.at = now;
    op.core = static_cast<CoreId>(rng.below(num_cores));
    op.addr = byte_of(rng.below(working_lines)) + rng.below(kLineSizeBytes);
    if (rng.chance(0.3)) {
      op.type = AccessType::kStore;
    } else if (rng.chance(0.1)) {
      op.type = AccessType::kInstFetch;
    }
    op.bypass = op.type == AccessType::kLoad && rng.chance(0.07);
    ops.push_back(op);
    now += rng.below(40);
  }
  return ops;
}

struct StepwiseResult {
  std::vector<System::AccessOutcome> outcomes;
  System::Stats stats{};
  std::string first_violation;  ///< "op N: <violation>" or empty
};

/// Replays `ops` with the Simulation's periodic drain cadence, auditing
/// the full structural invariant set after every single access.
StepwiseResult replay_stepwise(const SystemConfig& cfg,
                               const std::vector<Op>& ops) {
  System sys(cfg);
  StepwiseResult r;
  Tick next_drain = kDrainPeriod;
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const Op& op = ops[i];
    while (next_drain <= op.at) {
      sys.drain_prefetches(next_drain);
      next_drain += kDrainPeriod;
    }
    r.outcomes.push_back(
        sys.access(op.at, op.core, op.addr, op.type, op.bypass));
    if (r.first_violation.empty()) {
      if (std::string v = sys.check_invariants(); !v.empty()) {
        r.first_violation = "op " + std::to_string(i) + ": " + v;
        break;  // state is already broken; later audits add no signal
      }
    }
  }
  r.stats = sys.stats();
  return r;
}

SystemConfig variant_cfg(InclusionPolicy inclusion, SliceHashKind hash,
                         DefenseKind defense, std::uint32_t num_cores) {
  SystemConfig cfg = mini();
  cfg.inclusion = inclusion;
  cfg.slice_hash = hash;
  cfg.defense = defense;
  cfg.monitor.enabled = (defense == DefenseKind::kPiPoMonitor);
  cfg.num_cores = num_cores;
  return cfg;
}

const DefenseKind kAllDefenses[] = {
    DefenseKind::kNone, DefenseKind::kPiPoMonitor,
    DefenseKind::kDirectoryMonitor, DefenseKind::kSharp,
    DefenseKind::kBitp, DefenseKind::kRic,
};

// ---------------------------------------------------------------------
// The randomized matrix: every hierarchy variant, stepwise-audited.

TEST(CoherenceOracle, RandomTracesAcrossTheVariantMatrix) {
  for (InclusionPolicy inclusion :
       {InclusionPolicy::kInclusive, InclusionPolicy::kExclusive}) {
    for (SliceHashKind hash :
         {SliceHashKind::kLowBits, SliceHashKind::kIntelCas}) {
      for (DefenseKind defense : kAllDefenses) {
        for (std::uint32_t cores : {1u, 2u, 4u}) {
          const SystemConfig cfg =
              variant_cfg(inclusion, hash, defense, cores);
          const std::uint64_t seed =
              1 + static_cast<std::uint64_t>(inclusion) * 1009 +
              static_cast<std::uint64_t>(hash) * 157 +
              static_cast<std::uint64_t>(defense) * 31 + cores;
          const auto ops =
              random_trace(seed, cores, 3 * mini_l3_stride(), 420);
          const StepwiseResult r = replay_stepwise(cfg, ops);
          EXPECT_EQ(r.first_violation, "")
              << to_string(inclusion) << " / " << to_string(hash) << " / "
              << to_string(defense) << " / " << cores << " cores";
        }
      }
    }
  }
}

TEST(CoherenceOracle, MonitorAttachLevelsStayCoherent) {
  // The per-level attachment only re-routes observation/tag/pEvict; it
  // must never perturb the protocol. Audit the monitors that actually
  // react (PiPoMonitor, DirectoryMonitor) at each attach level under
  // both inclusion policies.
  for (InclusionPolicy inclusion :
       {InclusionPolicy::kInclusive, InclusionPolicy::kExclusive}) {
    for (MonitorLevel level :
         {MonitorLevel::kL1, MonitorLevel::kL2, MonitorLevel::kLlc}) {
      for (DefenseKind defense :
           {DefenseKind::kPiPoMonitor, DefenseKind::kDirectoryMonitor}) {
        SystemConfig cfg =
            variant_cfg(inclusion, SliceHashKind::kLowBits, defense, 4);
        cfg.monitor_level = level;
        const auto ops = random_trace(
            91 + static_cast<std::uint64_t>(level), 4,
            3 * mini_l3_stride(), 420);
        const StepwiseResult r = replay_stepwise(cfg, ops);
        EXPECT_EQ(r.first_violation, "")
            << to_string(inclusion) << " / " << to_string(defense)
            << " attached at " << to_string(level);
      }
    }
  }
}

// ---------------------------------------------------------------------
// Directed protocol corners: shapes random traces reach only rarely,
// each with an anti-vacuity floor proving it exercised its target path.

/// Same-set LLC thrash: 12 lines congruent in the mini() LLC (> 8 ways)
/// demanded from rotating cores — evictions, back-invalidations and,
/// under PiPoMonitor, the pEvict -> prefetch -> re-evict loop.
std::vector<Op> thrash_trace(int rounds, std::uint32_t num_cores) {
  std::vector<Op> ops;
  Tick now = 0;
  for (int r = 0; r < rounds; ++r) {
    for (std::uint64_t k = 0; k < 12; ++k) {
      ops.push_back(Op{now, static_cast<CoreId>((r + k) % num_cores),
                       byte_of(1 + k * mini_l3_stride()), AccessType::kLoad,
                       false});
      now += 7;
    }
  }
  return ops;
}

/// Cross-core write sharing: every core reads the round's line (S
/// everywhere), then one core stores it — an S->M directory upgrade
/// plus invalidation of the other sharers.
std::vector<Op> sharing_trace(int rounds, std::uint32_t num_cores) {
  std::vector<Op> ops;
  Tick now = 0;
  for (int r = 0; r < rounds; ++r) {
    const Addr a = byte_of(5 + static_cast<std::uint64_t>(r % 3));
    for (CoreId c = 0; c < num_cores; ++c) {
      ops.push_back(Op{now, c, a, AccessType::kLoad, false});
      now += 3;
    }
    ops.push_back(Op{now, static_cast<CoreId>(r % num_cores), a,
                     AccessType::kStore, false});
    now += 3;
  }
  return ops;
}

/// Attacker-style probe rounds: core 0 sweeps a congruent eviction set
/// with bypass probes while core 1 keeps demanding the victim line.
std::vector<Op> probe_trace(int rounds) {
  std::vector<Op> ops;
  Tick now = 0;
  for (int r = 0; r < rounds; ++r) {
    ops.push_back(Op{now, 1, byte_of(3), AccessType::kLoad, false});
    now += 11;
    for (std::uint64_t k = 1; k <= 10; ++k) {
      ops.push_back(Op{now, 0, byte_of(3 + k * mini_l3_stride()),
                       AccessType::kLoad, true});
      now += 5;
    }
  }
  return ops;
}

/// RIC orphan shape: read-share a line on every core, thrash its LLC set
/// to orphan the private copies, then store it from a rotating core.
std::vector<Op> ric_orphan_trace(int rounds, std::uint32_t num_cores) {
  std::vector<Op> ops;
  Tick now = 0;
  for (int r = 0; r < rounds; ++r) {
    for (CoreId c = 0; c < num_cores; ++c) {
      ops.push_back(Op{now, c, byte_of(9), AccessType::kLoad, false});
      now += 5;
    }
    for (std::uint64_t k = 1; k <= 10; ++k) {
      ops.push_back(Op{now, 0, byte_of(9 + k * mini_l3_stride()),
                       AccessType::kLoad, false});
      now += 5;
    }
    ops.push_back(Op{now, static_cast<CoreId>(r % num_cores), byte_of(9),
                     AccessType::kStore, false});
    now += 9;
  }
  return ops;
}

TEST(CoherenceOracle, DirectedProtocolCornersStayCoherent) {
  const auto run = [](DefenseKind defense, const std::vector<Op>& ops) {
    const StepwiseResult r = replay_stepwise(
        variant_cfg(InclusionPolicy::kInclusive, SliceHashKind::kLowBits,
                    defense, 4),
        ops);
    EXPECT_EQ(r.first_violation, "") << to_string(defense);
    return r.stats;
  };

  for (DefenseKind defense : {DefenseKind::kPiPoMonitor, DefenseKind::kBitp,
                              DefenseKind::kSharp}) {
    const System::Stats st = run(defense, thrash_trace(40, 4));
    EXPECT_GT(st.back_invalidations, 0u) << to_string(defense);
    if (defense == DefenseKind::kPiPoMonitor) {
      EXPECT_GT(st.pevicts, 0u);
      // Prefetches either landed or were dropped because the thrash
      // demanded the line back first: both are pipeline activity.
      EXPECT_GT(st.prefetch_fills + st.prefetch_drops, 0u);
    }
  }

  const System::Stats sharing = run(DefenseKind::kNone, sharing_trace(60, 4));
  EXPECT_GT(sharing.upgrades, 0u);
  EXPECT_GT(sharing.invalidations_for_write, 0u);

  EXPECT_GT(run(DefenseKind::kPiPoMonitor, probe_trace(30)).l3_misses, 0u);

  EXPECT_GT(run(DefenseKind::kRic, ric_orphan_trace(20, 4)).ric_exemptions,
            0u);
}

// ---------------------------------------------------------------------
// Differential: the composable default IS the historical engine.

TEST(CoherenceOracle, ExplicitDefaultVariantIsByteIdentical) {
  for (DefenseKind defense : kAllDefenses) {
    SystemConfig spelled = mini();
    spelled.defense = defense;
    spelled.monitor.enabled = (defense == DefenseKind::kPiPoMonitor);
    spelled.inclusion = InclusionPolicy::kInclusive;
    spelled.slice_hash = SliceHashKind::kLowBits;
    spelled.monitor_level = MonitorLevel::kLlc;
    SystemConfig implicit = mini();  // pre-variant construction path
    implicit.defense = defense;
    implicit.monitor.enabled = spelled.monitor.enabled;

    const auto ops = random_trace(
        211 + static_cast<std::uint64_t>(defense), 4,
        3 * mini_l3_stride(), 500);
    const StepwiseResult a = replay_stepwise(spelled, ops);
    const StepwiseResult b = replay_stepwise(implicit, ops);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
      ASSERT_TRUE(a.outcomes[i].complete == b.outcomes[i].complete &&
                  a.outcomes[i].latency == b.outcomes[i].latency &&
                  a.outcomes[i].level == b.outcomes[i].level)
          << to_string(defense) << ": outcome " << i << " diverged";
    }
    EXPECT_EQ(std::memcmp(&a.stats, &b.stats, sizeof a.stats), 0)
        << to_string(defense) << ": Stats diverged from the default";
    EXPECT_EQ(a.first_violation, "");
  }
}

TEST(CoherenceOracle, VariantsActuallyChangeBehavior) {
  // Anti-vacuity: the new axes must not be silently ignored. The same
  // trace under the exclusive LLC / the CAS slice hash must diverge from
  // the default machine's stats (different slice routing and fill
  // traffic), or the matrix above is testing one engine six ways. The
  // working set exceeds LLC capacity so per-slice conflict patterns —
  // the only way a routing function can show up in aggregate counters —
  // actually occur.
  const auto ops = random_trace(77, 4, 16 * mini_l3_stride(), 1500);
  const StepwiseResult base = replay_stepwise(
      variant_cfg(InclusionPolicy::kInclusive, SliceHashKind::kLowBits,
                  DefenseKind::kNone, 4),
      ops);
  const StepwiseResult exc = replay_stepwise(
      variant_cfg(InclusionPolicy::kExclusive, SliceHashKind::kLowBits,
                  DefenseKind::kNone, 4),
      ops);
  const StepwiseResult cas = replay_stepwise(
      variant_cfg(InclusionPolicy::kInclusive, SliceHashKind::kIntelCas,
                  DefenseKind::kNone, 4),
      ops);
  EXPECT_NE(std::memcmp(&base.stats, &exc.stats, sizeof base.stats), 0)
      << "exclusive LLC produced identical stats to inclusive";
  EXPECT_NE(std::memcmp(&base.stats, &cas.stats, sizeof base.stats), 0)
      << "intel-cas slice hash produced identical stats to low-bits";
}

// ---------------------------------------------------------------------
// Teeth: the audit must detect manufactured corruption.

TEST(CoherenceOracle, TeethInclusiveInclusionViolation) {
  SystemConfig cfg = mini();
  System sys(cfg);
  sys.access(0, 0, byte_of(9), AccessType::kLoad);
  ASSERT_EQ(sys.check_invariants(), "");
  // Drop the LLC copy behind the directory's back: the private L2 line
  // now violates inclusion.
  ASSERT_TRUE(sys.l3().invalidate(line_of(byte_of(9))).has_value());
  EXPECT_NE(sys.check_invariants(), "");
}

TEST(CoherenceOracle, TeethExclusiveMutualExclusionViolation) {
  SystemConfig cfg = mini();
  cfg.inclusion = InclusionPolicy::kExclusive;
  System sys(cfg);
  sys.access(0, 0, byte_of(9), AccessType::kLoad);
  ASSERT_EQ(sys.check_invariants(), "");
  // Force the line into the LLC while core 0 still holds it privately.
  (void)sys.l3().fill(line_of(byte_of(9)));
  EXPECT_NE(sys.check_invariants(), "");
}

TEST(CoherenceOracle, TeethExclusivePresenceBitsDetected) {
  SystemConfig cfg = mini();
  cfg.inclusion = InclusionPolicy::kExclusive;
  System sys(cfg);
  const LineAddr line = line_of(byte_of(17));
  auto r = sys.l3().fill(line);  // a legitimate victim line...
  sys.l3().line_for(line, r.slot).presence = 0b10;  // ...with a directory bit
  EXPECT_NE(sys.check_invariants(), "");
}

// ---------------------------------------------------------------------
// The directed RIC regressions (failing on the pre-fix engine).

/// Orphans a read-shared line: cores `sharers` load `addr`, then core
/// `thrasher` walks 12 congruent lines to evict its LLC entry. Under
/// RIC the private copies survive (ric_exemptions grows).
void orphan_line(System& sys, Tick& now, Addr addr,
                 const std::vector<CoreId>& sharers, CoreId thrasher) {
  for (CoreId c : sharers) {
    sys.access(now, c, addr, AccessType::kLoad);
    now += 50;
  }
  const std::uint64_t stride = mini_l3_stride();
  for (std::uint64_t k = 1; k <= 12; ++k) {
    sys.access(now, thrasher, addr + byte_of(k * stride),
               AccessType::kLoad);
    now += 50;
  }
  ASSERT_FALSE(sys.l3().lookup(line_of(addr)).has_value())
      << "thrash failed to evict the shared line's LLC entry";
  ASSERT_TRUE(sys.l1d(sharers.back()).lookup(line_of(addr)).has_value())
      << "RIC failed to preserve the orphan copy";
}

SystemConfig ric_cfg() {
  SystemConfig cfg = mini();
  cfg.defense = DefenseKind::kRic;
  cfg.monitor.enabled = false;
  return cfg;
}

TEST(CoherenceOracle, RicOrphanUpgradeViaL1StoreHit) {
  // Cores 0 and 1 hold RIC orphans of one line; core 0 stores it. The
  // store hits core 0's L1 S copy -> upgrade path with no LLC entry.
  // Pre-fix: fill_l3 re-created the entry with presence = {0} and
  // make_exclusive never saw core 1's copy -> stale S next to M.
  System sys(ric_cfg());
  Tick now = 0;
  const Addr x = byte_of(9);
  orphan_line(sys, now, x, {0, 1}, 2);
  EXPECT_GT(sys.stats().ric_exemptions, 0u);

  sys.access(now, 0, x, AccessType::kStore);
  EXPECT_EQ(sys.check_invariants(), "");
  EXPECT_FALSE(sys.l1d(1).lookup(line_of(x)).has_value())
      << "sibling orphan survived the upgrade";
  EXPECT_GT(sys.stats().invalidations_for_write, 0u);
}

TEST(CoherenceOracle, RicOrphanUpgradeViaL2StoreHit) {
  // Same, but the writer's L1 copy is displaced first so the store hits
  // its L2 (the second buggy upgrade path).
  System sys(ric_cfg());
  Tick now = 0;
  const Addr x = byte_of(9);
  orphan_line(sys, now, x, {0, 1}, 2);

  // Displace x from core 0's L1D (2KB/2-way/32-set): two lines congruent
  // in L1D set 9 but in other LLC sets, so the orphan state is untouched.
  const std::uint64_t l1d_sets = 32;
  for (std::uint64_t k = 1; k <= 2; ++k) {
    sys.access(now, 0, x + byte_of(k * l1d_sets), AccessType::kLoad);
    now += 50;
  }
  ASSERT_FALSE(sys.l1d(0).lookup(line_of(x)).has_value());
  ASSERT_TRUE(sys.l2(0).lookup(line_of(x)).has_value());

  sys.access(now, 0, x, AccessType::kStore);
  EXPECT_EQ(sys.check_invariants(), "");
  EXPECT_FALSE(sys.l1d(1).lookup(line_of(x)).has_value())
      << "sibling orphan survived the L2-path upgrade";
}

TEST(CoherenceOracle, RicBypassFillReRegistersOrphans) {
  // The bypass_private memory fill re-establishes the LLC entry with no
  // presence information. Pre-fix it skipped reconciliation, so the
  // surviving orphans were invisible to a later store that went through
  // the (hit) directory path: M-plus-cached-elsewhere again.
  System sys(ric_cfg());
  Tick now = 0;
  const Addr x = byte_of(9);
  orphan_line(sys, now, x, {0, 1}, 2);

  sys.access(now, 3, x, AccessType::kLoad, /*bypass_private=*/true);
  now += 50;
  const auto slot = sys.l3().lookup(line_of(x));
  ASSERT_TRUE(slot.has_value());
  EXPECT_EQ(sys.l3().line_for(line_of(x), *slot).presence, 0b11u)
      << "bypass fill must re-register both orphan holders";

  sys.access(now, 3, x, AccessType::kStore);
  EXPECT_EQ(sys.check_invariants(), "");
  EXPECT_FALSE(sys.l1d(0).lookup(line_of(x)).has_value());
  EXPECT_FALSE(sys.l1d(1).lookup(line_of(x)).has_value());
}

TEST(CoherenceOracle, RicRandomizedStoreHeavySharing) {
  // Randomized variant of the orphan-upgrade shape: heavy read-sharing
  // with interleaved stores and set thrash, stepwise-audited. This is
  // the trace family that flushes out any remaining reconcile gaps.
  SystemConfig cfg = ric_cfg();
  Rng rng(1234);
  std::vector<Op> ops;
  Tick now = 0;
  const std::uint64_t stride = mini_l3_stride();
  for (int i = 0; i < 900; ++i) {
    Op op;
    op.at = now;
    op.core = static_cast<CoreId>(rng.below(4));
    if (rng.chance(0.5)) {
      // Focus on 3 hot shared lines; mostly reads, some writes.
      op.addr = byte_of(9 + rng.below(3));
      op.type = rng.chance(0.2) ? AccessType::kStore : AccessType::kLoad;
    } else {
      // Thrash the hot lines' LLC sets to create orphans.
      op.addr = byte_of(9 + (1 + rng.below(12)) * stride);
    }
    ops.push_back(op);
    now += 5 + rng.below(20);
  }
  const StepwiseResult r = replay_stepwise(cfg, ops);
  EXPECT_EQ(r.first_violation, "");
  EXPECT_GT(r.stats.ric_exemptions, 0u) << "trace never orphaned a line";
}

}  // namespace
}  // namespace pipo
