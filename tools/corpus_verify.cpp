// Standalone corpus checker (src/fuzz/corpus.h): loads every entry
// under a corpus root, re-runs each genotype live on its cell, and
// verifies the measured leakage lands inside the entry's pinned bounds
// (plus a clean replay of the recorded trace streams). The same checks
// the `corpus` ctest tier runs in CI, as a CLI for local triage:
//
//   corpus_verify [--corpus DIR] [--no-replay] [--list]
//
// Exits 0 when every entry verifies, 1 on any failure (each failure is
// one line naming the entry, its cell and its genotype), 2 on a
// malformed corpus or a root that is not a directory or holds no entry.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "fuzz/corpus.h"

int main(int argc, char** argv) {
  using namespace pipo;
  std::string corpus_dir = "corpus";
  bool replay = true;
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--corpus") {
      if (++i >= argc) {
        std::fprintf(stderr, "--corpus needs a value\n");
        return 2;
      }
      corpus_dir = argv[i];
    } else if (arg == "--no-replay") {
      replay = false;
    } else if (arg == "--list") {
      list_only = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return 2;
    }
  }

  std::vector<CorpusEntry> entries;
  try {
    entries = load_corpus_dir(corpus_dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "corpus_verify: %s\n", e.what());
    return 2;
  }
  if (entries.empty()) {
    std::fprintf(stderr,
                 "corpus_verify: no corpus entries under %s (not a "
                 "directory, or no entry in it)\n",
                 corpus_dir.c_str());
    return 2;
  }

  unsigned failures = 0;
  for (const CorpusEntry& e : entries) {
    if (list_only) {
      std::printf("%s cell=%s recorded_mi=%.6f recorded_p=%.6f %s\n",
                  e.name.c_str(), fuzz_cell_name(e.axes).c_str(),
                  e.recorded_mi, e.recorded_p,
                  e.genotype.to_string().c_str());
      continue;
    }
    const std::string err = verify_corpus_entry(e, replay);
    if (err.empty()) {
      std::printf("ok %s\n", e.name.c_str());
    } else {
      std::printf("FAIL %s\n", err.c_str());
      ++failures;
    }
  }
  if (failures > 0) {
    std::fprintf(stderr, "corpus_verify: %u of %zu entries failed\n",
                 failures, entries.size());
    return 1;
  }
  return 0;
}
