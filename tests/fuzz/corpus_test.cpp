// Corpus machinery round-trip (fuzz/corpus.h): metadata text form,
// archive -> load -> verify on a temp directory, bound enforcement at
// archive time, and the failure-message contract (every failure names
// the entry, its cell and its genotype — satellite 3's diagnosability
// requirement).
#include "fuzz/corpus.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "workload/trace_codec.h"

namespace pipo {
namespace {

namespace fs = std::filesystem;

CorpusEntry sample_entry(const std::string& name) {
  CorpusEntry e;
  e.name = name;
  e.axes.defense = DefenseKind::kNone;
  e.genotype = paper_like_genotype();
  e.perm_rounds = 99;
  e.mi_lo = 0.1;
  e.mi_hi = 64.0;
  e.p_hi = 0.05;
  e.note = "unit-test entry";
  return e;
}

struct TempCorpus {
  std::string root;
  explicit TempCorpus(const std::string& tag) {
    root = testing::TempDir() + "pipo_corpus_" + tag;
    fs::remove_all(root);
  }
  ~TempCorpus() { fs::remove_all(root); }
};

TEST(Corpus, MetadataTextRoundTrips) {
  CorpusEntry e = sample_entry("best_none_inc_low_llc");
  e.recorded_mi = 0.970951;
  e.recorded_p = 0.004975;
  e.recorded_decoder_acc = 1.0;
  e.recorded_signature = "deadbeef";
  const CorpusEntry back = parse_corpus_entry_text(corpus_entry_text(e));
  EXPECT_EQ(back.name, e.name);
  EXPECT_EQ(back.genotype, e.genotype);
  EXPECT_EQ(fuzz_cell_name(back.axes), fuzz_cell_name(e.axes));
  EXPECT_EQ(back.perm_rounds, e.perm_rounds);
  EXPECT_DOUBLE_EQ(back.mi_lo, e.mi_lo);
  EXPECT_DOUBLE_EQ(back.mi_hi, e.mi_hi);
  EXPECT_DOUBLE_EQ(back.p_hi, e.p_hi);
  EXPECT_EQ(back.recorded_signature, e.recorded_signature);
  EXPECT_EQ(back.note, e.note);
}

TEST(Corpus, MalformedMetadataNamesTheLine) {
  CorpusEntry e = sample_entry("x");
  std::string text = corpus_entry_text(e);
  text.replace(text.find("genotype: "), 10, "genotype: BROKEN");
  EXPECT_THROW(parse_corpus_entry_text(text), std::invalid_argument);
  EXPECT_THROW(parse_corpus_entry_text("not: a\nreal: entry\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_corpus_entry_text(""), std::invalid_argument);
}

TEST(Corpus, PermRoundsMustBeAPositiveInteger) {
  for (const char* bad : {"-1", "1e12", "2.5", "0", "4294967296"}) {
    std::string text = corpus_entry_text(sample_entry("x"));
    text.replace(text.find("perm_rounds: 99"), 15,
                 std::string("perm_rounds: ") + bad);
    try {
      parse_corpus_entry_text(text);
      ADD_FAILURE() << "perm_rounds " << bad << " accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("perm_rounds"), std::string::npos)
          << e.what();
    }
  }
}

TEST(Corpus, ArchiveLoadVerifyRoundTrip) {
  TempCorpus tmp("roundtrip");
  const CorpusEntry written =
      write_corpus_entry(tmp.root, sample_entry("best_none_inc_low_llc"));
  EXPECT_GT(written.recorded_mi, 0.1)
      << "the paper genotype must leak undefended";
  EXPECT_LE(written.recorded_p, 0.05);
  EXPECT_FALSE(written.recorded_signature.empty());
  EXPECT_TRUE(fs::exists(fs::path(written.dir) / "genotype.txt"));
  const fs::path trace = fs::path(written.dir) / "core0.trace";
  ASSERT_TRUE(fs::exists(trace));
  std::ifstream trace_file(trace, std::ios::binary);
  EXPECT_EQ(detect_trace_format(trace_file), TraceFormat::kTextV1);

  const auto loaded = load_corpus_dir(tmp.root);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "best_none_inc_low_llc");
  EXPECT_EQ(loaded[0].genotype, written.genotype);
  EXPECT_EQ(verify_corpus_entry(loaded[0]), "");
}

TEST(Corpus, ArchiveRefusesAnEntryThatViolatesItsOwnBounds) {
  TempCorpus tmp("bounds");
  CorpusEntry e = sample_entry("impossible");
  e.mi_lo = 50.0;  // no mini-machine scenario leaks 50 bits/iteration
  EXPECT_THROW(write_corpus_entry(tmp.root, e), std::runtime_error);
}

TEST(Corpus, VerifyFailureNamesGenotypeAndCell) {
  TempCorpus tmp("failmsg");
  CorpusEntry written =
      write_corpus_entry(tmp.root, sample_entry("best_none_inc_low_llc"));
  // Tighten the box after the fact so the (deterministic) re-run lands
  // outside it.
  written.mi_lo = written.recorded_mi + 1.0;
  const std::string err = verify_corpus_entry(written, false);
  ASSERT_FALSE(err.empty());
  EXPECT_NE(err.find("best_none_inc_low_llc"), std::string::npos) << err;
  EXPECT_NE(err.find("none_inc_low_llc"), std::string::npos) << err;
  EXPECT_NE(err.find("PPG1:"), std::string::npos) << err;
}

TEST(Corpus, LoadRejectsNameMismatch) {
  TempCorpus tmp("mismatch");
  write_corpus_entry(tmp.root, sample_entry("proper_name"));
  fs::rename(fs::path(tmp.root) / "proper_name",
             fs::path(tmp.root) / "renamed");
  EXPECT_THROW(load_corpus_dir(tmp.root), std::invalid_argument);
}

TEST(Corpus, MissingRootIsEmptyNotAnError) {
  EXPECT_TRUE(load_corpus_dir(testing::TempDir() + "pipo_no_such_corpus")
                  .empty());
}

}  // namespace
}  // namespace pipo
