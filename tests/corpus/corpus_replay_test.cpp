// The `corpus` ctest tier: replays the checked-in regression corpus.
//
// Every entry under the repo's corpus/ directory (path baked in as
// PIPO_CORPUS_DIR, overridable via the environment for local triage)
// is verified with a live genotype re-run against its pinned leakage
// box plus a clean replay of its recorded trace streams. Undefended
// entries pin that the fuzzer's found leaks still reproduce; defended
// "contrast" entries pin that the paper's defense still suppresses
// them. A failure names the entry, its cell and its genotype. A missing
// or empty corpus fails the tier.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "fuzz/corpus.h"

#ifndef PIPO_CORPUS_DIR
#define PIPO_CORPUS_DIR "corpus"
#endif

namespace pipo {
namespace {

std::string corpus_root() {
  if (const char* env = std::getenv("PIPO_CORPUS_DIR_OVERRIDE")) return env;
  return PIPO_CORPUS_DIR;
}

TEST(CorpusReplay, EveryEntryVerifies) {
  std::vector<CorpusEntry> entries;
  ASSERT_NO_THROW(entries = load_corpus_dir(corpus_root()))
      << "malformed corpus under " << corpus_root();
  ASSERT_FALSE(entries.empty()) << "no corpus entries under " << corpus_root();
  for (const CorpusEntry& e : entries) {
    SCOPED_TRACE("entry " + e.name);
    const std::string err = verify_corpus_entry(e, /*replay_traces=*/true);
    EXPECT_EQ(err, "");
  }
}

TEST(CorpusReplay, CorpusCoversBothSidesOfTheAcceptanceCriterion) {
  // The PR's acceptance criterion, as a standing regression: at least
  // one undefended entry pins a significant leak, and at least one
  // contrast entry pins the paper's defense suppressing the same class
  // of scenario.
  const auto entries = load_corpus_dir(corpus_root());
  ASSERT_FALSE(entries.empty()) << "no corpus entries under " << corpus_root();
  bool undefended_leak = false;
  bool defended_contrast = false;
  for (const CorpusEntry& e : entries) {
    if (e.axes.defense == DefenseKind::kNone && e.mi_lo > 0.0 &&
        e.p_hi <= 0.05) {
      undefended_leak = true;
    }
    if (e.axes.defense == DefenseKind::kPiPoMonitor &&
        e.name.rfind("contrast_", 0) == 0) {
      defended_contrast = true;
    }
  }
  EXPECT_TRUE(undefended_leak)
      << "corpus lost its significant undefended find";
  EXPECT_TRUE(defended_contrast)
      << "corpus lost its defended contrast entry";
}

}  // namespace
}  // namespace pipo
