// Golden end-to-end snapshot of the non-default hierarchy cells.
//
// golden_stats_test.cpp pins the paper's machine: an inclusive LLC,
// the low-bits slice hash and an LLC-attached monitor. This matrix pins
// one step away from it on each axis — the exclusive LLC, the Intel CAS
// slice hash, and the monitor attached at L1 and at L2, each with the
// other axes at their defaults — under all six defenses on mixes 1 and
// 4 of the mini() machine. Per row it compares every System::Stats
// counter, the finish tick and the retired instruction count. The
// monitor's own counters (MixPerfResult::captures and prefetches) are
// left out: they read the PiPoMonitor under every defense.
//
// Regeneration:
//   PIPO_GOLDEN_REGEN=/path/to/tests/e2e/variant_golden.inc
//     ./pipo_e2e_tests --gtest_filter='VariantGolden.*'
// writes the .inc and skips the comparison.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/perf_experiment.h"
#include "tests/sim/test_configs.h"

namespace pipo {
namespace {

/// One hierarchy cell: a SystemConfig axis moved off its default.
struct Cell {
  const char* name;
  InclusionPolicy inclusion;
  SliceHashKind slice_hash;
  MonitorLevel monitor_level;
};

constexpr Cell kCells[] = {
    {"exc", InclusionPolicy::kExclusive, SliceHashKind::kLowBits,
     MonitorLevel::kLlc},
    {"cas", InclusionPolicy::kInclusive, SliceHashKind::kIntelCas,
     MonitorLevel::kLlc},
    {"l1", InclusionPolicy::kInclusive, SliceHashKind::kLowBits,
     MonitorLevel::kL1},
    {"l2", InclusionPolicy::kInclusive, SliceHashKind::kLowBits,
     MonitorLevel::kL2},
};

struct VariantRow {
  unsigned cell;  ///< index into kCells
  unsigned mix;
  DefenseKind defense;
  Tick exec_time;
  std::uint64_t instructions;
  System::Stats stats;
};

const VariantRow kGolden[] = {
#include "tests/e2e/variant_golden.inc"
};

constexpr unsigned kMixes[] = {1, 4};
constexpr DefenseKind kDefenses[] = {
    DefenseKind::kNone,          DefenseKind::kPiPoMonitor,
    DefenseKind::kDirectoryMonitor, DefenseKind::kSharp,
    DefenseKind::kBitp,          DefenseKind::kRic,
};
// At this budget every cell has a defended row that differs from its
// baseline row (VariantGolden.EveryCellHasADefenseThatActs).
constexpr std::uint64_t kInstrBudget = 5000;
constexpr std::uint64_t kWsDivisor = 16;
constexpr std::uint64_t kSeed = 2026;

VariantRow run_cell(unsigned cell, unsigned mix, DefenseKind defense) {
  SystemConfig cfg = testcfg::mini();
  cfg.inclusion = kCells[cell].inclusion;
  cfg.slice_hash = kCells[cell].slice_hash;
  cfg.monitor_level = kCells[cell].monitor_level;
  cfg.defense = defense;
  cfg.monitor.enabled = (defense == DefenseKind::kPiPoMonitor);
  const MixPerfResult r =
      run_mix_perf(mix, cfg, kInstrBudget, kSeed, kWsDivisor);
  return VariantRow{cell, mix, defense, r.exec_time, r.instructions, r.stats};
}

/// The matrix in .inc order: cell, then mix, then defense.
const std::vector<VariantRow>& matrix() {
  static const std::vector<VariantRow> rows = [] {
    std::vector<VariantRow> out;
    for (unsigned cell = 0; cell < std::size(kCells); ++cell) {
      for (unsigned mix : kMixes) {
        for (DefenseKind defense : kDefenses) {
          out.push_back(run_cell(cell, mix, defense));
        }
      }
    }
    return out;
  }();
  return rows;
}

bool same_outcome(const VariantRow& a, const VariantRow& b) {
  bool same = a.exec_time == b.exec_time && a.instructions == b.instructions;
#define PIPO_X(field) same = same && a.stats.field == b.stats.field;
  PIPO_SYSTEM_STATS(PIPO_X)
#undef PIPO_X
  return same;
}

void expect_matches_golden(const VariantRow& got, const VariantRow& want) {
  ASSERT_EQ(got.cell, want.cell);
  ASSERT_EQ(got.mix, want.mix);
  ASSERT_EQ(got.defense, want.defense);
  EXPECT_EQ(got.exec_time, want.exec_time);
  EXPECT_EQ(got.instructions, want.instructions);
#define PIPO_X(field) EXPECT_EQ(got.stats.field, want.stats.field) << #field;
  PIPO_SYSTEM_STATS(PIPO_X)
#undef PIPO_X
}

void write_goldens(const char* path, const std::vector<VariantRow>& rows) {
  FILE* f = std::fopen(path, "w");
  ASSERT_NE(f, nullptr) << "cannot open " << path;
  std::fprintf(f,
               "// Generated by VariantGolden.MatrixMatchesGolden with "
               "PIPO_GOLDEN_REGEN.\n"
               "// cell, mix, defense, exec_time, instructions, "
               "{System::Stats in declaration order}\n");
  for (const VariantRow& r : rows) {
    std::fprintf(f, "{%u /* %s */, %u, DefenseKind(%u), %llu, %llu,\n {",
                 r.cell, kCells[r.cell].name, r.mix,
                 static_cast<unsigned>(r.defense),
                 static_cast<unsigned long long>(r.exec_time),
                 static_cast<unsigned long long>(r.instructions));
    bool first = true;
#define PIPO_X(field)                                                     \
  std::fprintf(f, "%s%llu", first ? "" : ", ",                            \
               static_cast<unsigned long long>(r.stats.field));           \
  first = false;
    PIPO_SYSTEM_STATS(PIPO_X)
#undef PIPO_X
    std::fprintf(f, "}},\n");
  }
  std::fclose(f);
}

std::string row_label(const VariantRow& r) {
  std::string label = kCells[r.cell].name;
  label += " / mix";
  label += std::to_string(r.mix);
  label += " / ";
  label += to_string(r.defense);
  return label;
}

TEST(VariantGolden, MatrixMatchesGolden) {
  const std::vector<VariantRow>& rows = matrix();
  if (const char* regen = std::getenv("PIPO_GOLDEN_REGEN")) {
    write_goldens(regen, rows);
    GTEST_SKIP() << "goldens regenerated into " << regen;
  }

  ASSERT_EQ(rows.size(), std::size(kGolden))
      << "matrix shape changed — regenerate variant_golden.inc";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(row_label(rows[i]));
    expect_matches_golden(rows[i], kGolden[i]);
  }
}

// Anti-vacuity: a cell whose defended rows all equal its baseline row
// would pin nothing a defense does there. Every cell must have at least
// one defended row that differs from its baseline row on the same mix.
TEST(VariantGolden, EveryCellHasADefenseThatActs) {
  const std::vector<VariantRow>& rows = matrix();
  for (unsigned cell = 0; cell < std::size(kCells); ++cell) {
    unsigned acting = 0;
    for (const VariantRow& r : rows) {
      if (r.cell != cell || r.defense == DefenseKind::kNone) continue;
      for (const VariantRow& base : rows) {
        if (base.cell == cell && base.mix == r.mix &&
            base.defense == DefenseKind::kNone && !same_outcome(r, base)) {
          ++acting;
        }
      }
    }
    EXPECT_GT(acting, 0u) << "no defense acts in cell " << kCells[cell].name;
  }
}

// RIC's relaxed inclusion must actually be exercised: every inclusive
// cell's RIC rows keep private copies across LLC evictions. The
// exclusive LLC keeps no presence bits, so there RIC has nothing to
// exempt.
TEST(VariantGolden, RicRowsExemptUnderAnInclusiveLlc) {
  for (const VariantRow& r : matrix()) {
    if (r.defense != DefenseKind::kRic) continue;
    SCOPED_TRACE(row_label(r));
    if (kCells[r.cell].inclusion == InclusionPolicy::kInclusive) {
      EXPECT_GT(r.stats.ric_exemptions, 0u);
    } else {
      EXPECT_EQ(r.stats.ric_exemptions, 0u);
    }
  }
}

}  // namespace
}  // namespace pipo
