// The coverage-guided attack-scenario fuzzer.
//
// Search loop: a population of ScenarioGenotypes evolves over
// generations. Each generation is packaged as one fuzz campaign
// (fabric/campaign.h FuzzCell) and run in process by run_campaign, the
// thread pool sweep_runner also uses. Its results come back in
// config-id order whatever the thread count, which makes the whole
// fuzzer deterministic at any worker count. Every candidate is scored
// on every (defense) cell of the configured hierarchy axes by the
// multi-symbol leakage estimator with its permutation-test significance
// gate. Selection reads each cell's score from its ConfigResult, as the
// six decimals the campaign record prints.
//
// Selection is two-channel, the coverage-guided part:
//  * fitness — significant leakage, weighted 4x on defended cells
//    (leaking *through* a defense is the find that matters);
//  * novelty — a candidate whose coverage signature (fuzz/coverage.h)
//    was never seen on some cell survives regardless of score, so the
//    search keeps visiting new machine behaviors instead of climbing
//    one hill.
// Elites survive verbatim; the rest of the next generation is mutants,
// crossovers and fresh randoms, all drawn from one seeded Rng.
//
// Everything the run did is in the FuzzReport: the genotype stream and
// mutation log (byte-identical across runs and worker counts — the
// determinism test pins this), every campaign record, and the best
// significant find per cell. archive_fuzz_corpus turns those finds into
// replayable corpus entries (fuzz/corpus.h), including the defended
// "contrast" entries that pin the defense still suppressing each leak.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "fuzz/corpus.h"
#include "fuzz/genotype.h"
#include "fuzz/scenario.h"
#include "sim/system_config.h"

namespace pipo {

struct FuzzerConfig {
  std::uint64_t seed = 1;          ///< the whole run derives from this
  std::uint32_t population = 24;   ///< candidates per generation
  std::uint32_t generations = 8;
  unsigned workers = 0;            ///< run_campaign threads (0 = 1)
  /// Cells = defenses x the one hierarchy-variant triple below.
  std::vector<DefenseKind> defenses{DefenseKind::kNone,
                                    DefenseKind::kPiPoMonitor};
  InclusionPolicy inclusion = InclusionPolicy::kInclusive;
  SliceHashKind slice_hash = SliceHashKind::kLowBits;
  MonitorLevel monitor_level = MonitorLevel::kLlc;
  std::uint32_t perm_rounds = 200;  ///< significance shuffles per cell
  double p_threshold = 0.01;        ///< significance gate for "a find"
  std::ostream* progress = nullptr;  ///< per-generation lines (nullable)
};

/// The best significant survivor of one (defense x hierarchy) cell.
struct FuzzFind {
  std::string cell;  ///< fuzz_cell_name of the cell it leaked on
  DefenseKind defense = DefenseKind::kNone;
  ScenarioGenotype genotype;
  double mi_bits = 0.0;
  double p_value = 1.0;
  double decoder_acc = 0.0;
  std::uint32_t rounds = 0;
  std::string signature;
};

struct FuzzReport {
  /// Every candidate in evaluation order: "gen<g> cand<i>: PPG1:...".
  std::vector<std::string> genotype_stream;
  /// How each candidate came to be, same order: seeds, mutation ops
  /// (with field-level old->new detail), crossover parents, randoms.
  std::vector<std::string> mutation_log;
  /// Every campaign record of every generation, in config-id order
  /// within each generation (run_campaign's result order).
  std::vector<std::string> records;
  /// Best significant find per cell, sorted by cell name.
  std::vector<FuzzFind> best;
  std::uint64_t candidates = 0;        ///< genotypes evaluated
  std::uint64_t evaluations = 0;       ///< candidate x cell runs
  std::uint64_t novel_signatures = 0;  ///< first-seen (cell, signature)s
  std::uint64_t significant = 0;       ///< evaluations with p <= threshold
  std::uint64_t failed = 0;            ///< error records
};

class Fuzzer {
 public:
  /// Validates the config (population >= 4, at least one defense,
  /// generations >= 1; throws std::invalid_argument).
  explicit Fuzzer(FuzzerConfig cfg);

  /// Runs the full evolution and returns the report. Deterministic:
  /// identical (config, seed) gives a byte-identical report at any
  /// worker count.
  FuzzReport run();

  const FuzzerConfig& config() const { return cfg_; }

 private:
  FuzzerConfig cfg_;
};

/// Archives the report's finds under `corpus_root`:
///  * "best_<cell>" for each significant find — bounds pin that the
///    leak keeps reproducing (mi >= half the recorded value, p within
///    the gate);
///  * for each undefended find, "contrast_<cell>" entries re-measuring
///    the same genotype under every *other* configured defense — bounds
///    pin that the defense keeps suppressing it (mi <= half the
///    undefended leak). A defense that does not suppress the genotype
///    is skipped with a note line (that is a finding, not a corpus
///    entry).
/// Returns the entries written; `notes` (nullable) receives one line
/// per skip/write.
std::vector<CorpusEntry> archive_fuzz_corpus(
    const FuzzReport& report, const FuzzerConfig& cfg,
    const std::string& corpus_root,
    std::vector<std::string>* notes = nullptr);

}  // namespace pipo
