// The replayable regression corpus: the fuzzer's best finds, pinned.
//
// A corpus entry is one directory under corpus/:
//
//   corpus/<name>/genotype.txt    metadata (key: value lines — the
//                                 genotype, its cell, the leakage bounds
//                                 the entry must keep satisfying, and
//                                 the measurements recorded at archive
//                                 time)
//   corpus/<name>/core<i>.trace   the request streams the archived run
//                                 consumed (TraceCapture layout, v1 text)
//
// Verification is a *live re-run*: the genotype is executed again on
// the entry's cell and the measured leakage must land inside the
// entry's [mi_lo, mi_hi] x [0, p_hi] box. (Replaying the recorded
// traces alone could never re-measure leakage — the attacker adapts to
// what it observes — so the traces are verified as a loadable,
// cleanly-replayable snapshot while the *bounds* carry the regression
// meaning: an undefended entry pins that the leak still reproduces, a
// defended "contrast" entry pins that the defense still suppresses it.)
// Failure messages name the genotype and the cell, so a regression in a
// 600-entry corpus is diagnosable from the ctest log alone.
#pragma once

#include <string>
#include <vector>

#include "fuzz/scenario.h"

namespace pipo {

struct CorpusEntry {
  std::string name;       ///< directory name under the corpus root
  FuzzCellAxes axes;      ///< the (defense x hierarchy-variant) cell
  ScenarioGenotype genotype;
  std::uint32_t perm_rounds = 200;  ///< significance shuffles per verify
  // --- the regression box a verify run must land in ---
  double mi_lo = 0.0;     ///< measured I(K;O) must be >= this
  double mi_hi = 64.0;    ///< ... and <= this (defended cells pin decay)
  double p_hi = 1.0;      ///< measured p-value must be <= this
  // --- measurements recorded when the entry was archived ---
  double recorded_mi = 0.0;
  double recorded_p = 1.0;
  double recorded_decoder_acc = 0.0;
  std::string recorded_signature;  ///< coverage signature hex
  std::string note;       ///< one free-form provenance line

  std::string dir;        ///< absolute entry directory (set by load)
};

/// Renders/parses the genotype.txt metadata block. parse throws
/// std::invalid_argument naming the offending line.
std::string corpus_entry_text(const CorpusEntry& e);
CorpusEntry parse_corpus_entry_text(const std::string& text);

/// Archives one entry: re-runs the genotype on its cell with text trace
/// capture into <corpus_root>/<e.name>/, fills the recorded_* fields
/// from that run, and writes genotype.txt. Throws std::runtime_error if
/// the fresh measurement already violates the entry's own bounds —
/// archiving a corpus entry that fails verification would poison CI.
/// Returns the completed entry (recorded_* and dir set).
CorpusEntry write_corpus_entry(const std::string& corpus_root, CorpusEntry e);

/// Loads every entry directory under `corpus_root` (a directory with a
/// genotype.txt), sorted by name. Returns empty if the root does not
/// exist. Throws std::invalid_argument on a malformed entry.
std::vector<CorpusEntry> load_corpus_dir(const std::string& corpus_root);

/// Verifies one entry: live genotype re-run against the bounds, plus
/// (with `replay_traces`) a clean replay of the recorded streams.
/// Returns an empty string on success, else a failure description that
/// names the genotype and the cell.
std::string verify_corpus_entry(const CorpusEntry& e,
                                bool replay_traces = true);

}  // namespace pipo
