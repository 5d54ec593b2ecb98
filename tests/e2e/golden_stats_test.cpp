// Golden end-to-end snapshot of simulated results.
//
// Runs the (mix x defense) matrix on the downscaled mini() machine and
// compares every System::Stats counter, the finish tick and the retired
// instruction count against checked-in golden values captured from the
// seed engine. Any engine change that silently alters *simulated*
// results — replacement decisions, filter placements, latencies — fails
// here even if all unit invariants still hold. Perf refactors must keep
// this bit-identical; a deliberate semantic change regenerates the
// goldens and reviews the diff.
//
// Regeneration:
//   PIPO_GOLDEN_REGEN=/path/to/tests/e2e/golden_stats.inc
//     ./pipo_e2e_tests --gtest_filter='GoldenStats.*'
// writes the .inc and skips the comparison.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/perf_experiment.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

// Every counter in System::Stats, in declaration order (the order the
// aggregate initializers in golden_stats.inc use).
#define PIPO_GOLDEN_STATS_FIELDS(X) \
  X(accesses)                       \
  X(l1_hits)                        \
  X(l2_hits)                        \
  X(l3_hits)                        \
  X(l3_misses)                      \
  X(back_invalidations)             \
  X(upgrades)                       \
  X(invalidations_for_write)        \
  X(l2_evictions)                   \
  X(writebacks)                     \
  X(prefetch_fills)                 \
  X(prefetch_drops)                 \
  X(pp_tag_fills)                   \
  X(pevicts)                        \
  X(ric_exemptions)

struct GoldenRow {
  unsigned mix;
  DefenseKind defense;
  Tick exec_time;
  std::uint64_t instructions;
  System::Stats stats;
};

const GoldenRow kGolden[] = {
#include "tests/e2e/golden_stats.inc"
};

constexpr unsigned kMixes[] = {1, 4, 8};
constexpr DefenseKind kDefenses[] = {
    DefenseKind::kNone,          DefenseKind::kPiPoMonitor,
    DefenseKind::kDirectoryMonitor, DefenseKind::kSharp,
    DefenseKind::kBitp,          DefenseKind::kRic,
};
constexpr std::uint64_t kInstrBudget = 5000;
constexpr std::uint64_t kWsDivisor = 16;
constexpr std::uint64_t kSeed = 2026;

GoldenRow run_cell(unsigned mix, DefenseKind defense) {
  SystemConfig cfg = testcfg::mini();
  cfg.defense = defense;
  cfg.monitor.enabled = (defense == DefenseKind::kPiPoMonitor);
  const MixPerfResult r = run_mix_perf(mix, cfg, kInstrBudget, kSeed,
                                       kWsDivisor);
  return GoldenRow{mix, defense, r.exec_time, r.instructions, r.stats};
}

void expect_matches_golden(const GoldenRow& got, const GoldenRow& want) {
  ASSERT_EQ(got.mix, want.mix);
  ASSERT_EQ(got.defense, want.defense);
  EXPECT_EQ(got.exec_time, want.exec_time);
  EXPECT_EQ(got.instructions, want.instructions);
#define PIPO_X(field) EXPECT_EQ(got.stats.field, want.stats.field) << #field;
  PIPO_GOLDEN_STATS_FIELDS(PIPO_X)
#undef PIPO_X
}

void write_goldens(const char* path, const std::vector<GoldenRow>& rows) {
  FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr) << "cannot open " << path;
  std::fprintf(f,
               "// Generated by GoldenStats.MatrixMatchesGolden with "
               "PIPO_GOLDEN_REGEN.\n"
               "// mix, defense, exec_time, instructions, {System::Stats "
               "in declaration order}\n");
  for (const GoldenRow& r : rows) {
    std::fprintf(f, "{%u, DefenseKind(%u), %llu, %llu,\n {", r.mix,
                 static_cast<unsigned>(r.defense),
                 static_cast<unsigned long long>(r.exec_time),
                 static_cast<unsigned long long>(r.instructions));
    bool first = true;
#define PIPO_X(field)                                                     \
  std::fprintf(f, "%s%llu", first ? "" : ", ",                            \
               static_cast<unsigned long long>(r.stats.field));           \
  first = false;
    PIPO_GOLDEN_STATS_FIELDS(PIPO_X)
#undef PIPO_X
    std::fprintf(f, "}},\n");
  }
  std::fclose(f);
}

TEST(GoldenStats, MatrixMatchesGolden) {
  std::vector<GoldenRow> rows;
  for (unsigned mix : kMixes) {
    for (DefenseKind defense : kDefenses) {
      rows.push_back(run_cell(mix, defense));
    }
  }

  if (const char* regen = std::getenv("PIPO_GOLDEN_REGEN")) {
    write_goldens(regen, rows);
    GTEST_SKIP() << "goldens regenerated into " << regen;
  }

  ASSERT_EQ(rows.size(), std::size(kGolden))
      << "matrix shape changed — regenerate golden_stats.inc";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "mix" << rows[i].mix << " / "
                                    << to_string(rows[i].defense));
    expect_matches_golden(rows[i], kGolden[i]);
  }
}

// The goldens have teeth: a different workload seed must not reproduce
// them (guards against the matrix accidentally comparing constants).
TEST(GoldenStats, DifferentSeedDiverges) {
  SystemConfig cfg = testcfg::mini();
  const MixPerfResult a =
      run_mix_perf(kMixes[0], cfg, kInstrBudget, kSeed, kWsDivisor);
  const MixPerfResult b =
      run_mix_perf(kMixes[0], cfg, kInstrBudget, kSeed + 1, kWsDivisor);
  EXPECT_NE(a.exec_time, b.exec_time);
}

}  // namespace
}  // namespace pipo
