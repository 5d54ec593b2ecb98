#include "fuzz/corpus.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/parse_num.h"

namespace pipo {

namespace fs = std::filesystem;

namespace {

std::string fmt_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

double parse_double_field(const std::string& key, const std::string& v) {
  const std::string what = "corpus entry field '" + key + "'";
  return pipo::parse_double(v, what.c_str());
}

}  // namespace

std::string corpus_entry_text(const CorpusEntry& e) {
  std::string out;
  out += "name: " + e.name + "\n";
  out += "cell: " + fuzz_cell_name(e.axes) + "\n";
  out += "genotype: " + e.genotype.to_string() + "\n";
  out += "perm_rounds: " + std::to_string(e.perm_rounds) + "\n";
  out += "mi_lo: " + fmt_double(e.mi_lo) + "\n";
  out += "mi_hi: " + fmt_double(e.mi_hi) + "\n";
  out += "p_hi: " + fmt_double(e.p_hi) + "\n";
  out += "recorded_mi: " + fmt_double(e.recorded_mi) + "\n";
  out += "recorded_p: " + fmt_double(e.recorded_p) + "\n";
  out += "recorded_decoder_acc: " + fmt_double(e.recorded_decoder_acc) + "\n";
  out += "recorded_signature: " + e.recorded_signature + "\n";
  out += "note: " + e.note + "\n";
  return out;
}

CorpusEntry parse_corpus_entry_text(const std::string& text) {
  CorpusEntry e;
  bool have_name = false, have_cell = false, have_genotype = false;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    if (line.empty()) continue;
    const auto colon = line.find(": ");
    if (colon == std::string::npos) {
      // "key:" with an empty value is legal (e.g. an empty note).
      if (!line.empty() && line.back() == ':') {
        continue;
      }
      throw std::invalid_argument("corpus entry line has no 'key: value' "
                                  "form: " + line);
    }
    const std::string key = line.substr(0, colon);
    const std::string value = line.substr(colon + 2);
    if (key == "name") {
      e.name = value;
      have_name = true;
    } else if (key == "cell") {
      e.axes = parse_fuzz_cell_name(value);
      have_cell = true;
    } else if (key == "genotype") {
      e.genotype = ScenarioGenotype::parse(value);
      have_genotype = true;
    } else if (key == "perm_rounds") {
      const std::string what = "corpus entry field '" + key + "'";
      e.perm_rounds = parse_uint32(value, what.c_str(), 1);
    } else if (key == "mi_lo") {
      e.mi_lo = parse_double_field(key, value);
    } else if (key == "mi_hi") {
      e.mi_hi = parse_double_field(key, value);
    } else if (key == "p_hi") {
      e.p_hi = parse_double_field(key, value);
    } else if (key == "recorded_mi") {
      e.recorded_mi = parse_double_field(key, value);
    } else if (key == "recorded_p") {
      e.recorded_p = parse_double_field(key, value);
    } else if (key == "recorded_decoder_acc") {
      e.recorded_decoder_acc = parse_double_field(key, value);
    } else if (key == "recorded_signature") {
      e.recorded_signature = value;
    } else if (key == "note") {
      e.note = value;
    } else {
      throw std::invalid_argument("unknown corpus entry field: " + key);
    }
  }
  if (!have_name || !have_cell || !have_genotype) {
    throw std::invalid_argument(
        "corpus entry is missing a required field (name, cell, genotype)");
  }
  return e;
}

CorpusEntry write_corpus_entry(const std::string& corpus_root, CorpusEntry e) {
  const fs::path dir = fs::path(corpus_root) / e.name;
  fs::create_directories(dir);
  const TraceCapture capture{dir.string(), TraceFormat::kTextV1};
  const ScenarioOutcome out = run_fuzz_scenario(
      e.genotype, fuzz_system_config(e.axes), e.perm_rounds, &capture);
  e.recorded_mi = out.mi_bits;
  e.recorded_p = out.p_value;
  e.recorded_decoder_acc = out.decoder_acc;
  e.recorded_signature = out.signature.to_string();
  e.dir = dir.string();
  if (out.mi_bits < e.mi_lo || out.mi_bits > e.mi_hi ||
      out.p_value > e.p_hi) {
    throw std::runtime_error(
        "corpus entry '" + e.name + "' fails its own bounds at archive "
        "time: mi=" + fmt_double(out.mi_bits) + " p=" +
        fmt_double(out.p_value) + " bounds=[" + fmt_double(e.mi_lo) + ", " +
        fmt_double(e.mi_hi) + "] p_hi=" + fmt_double(e.p_hi));
  }
  std::ofstream f(dir / "genotype.txt", std::ios::binary);
  f << corpus_entry_text(e);
  f.close();
  if (!f) {
    throw std::runtime_error("failed to write " +
                             (dir / "genotype.txt").string());
  }
  return e;
}

std::vector<CorpusEntry> load_corpus_dir(const std::string& corpus_root) {
  std::vector<CorpusEntry> out;
  if (!fs::is_directory(corpus_root)) return out;
  for (const auto& entry : fs::directory_iterator(corpus_root)) {
    if (!entry.is_directory()) continue;
    const fs::path meta = entry.path() / "genotype.txt";
    if (!fs::exists(meta)) continue;
    std::ifstream f(meta, std::ios::binary);
    if (!f) {
      throw std::invalid_argument("cannot read " + meta.string());
    }
    std::ostringstream ss;
    ss << f.rdbuf();
    CorpusEntry e;
    try {
      e = parse_corpus_entry_text(ss.str());
    } catch (const std::exception& ex) {
      throw std::invalid_argument(meta.string() + ": " + ex.what());
    }
    if (e.name != entry.path().filename().string()) {
      throw std::invalid_argument(
          meta.string() + ": entry name '" + e.name +
          "' does not match its directory name '" +
          entry.path().filename().string() + "'");
    }
    e.dir = entry.path().string();
    out.push_back(std::move(e));
  }
  std::sort(out.begin(), out.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              return a.name < b.name;
            });
  return out;
}

std::string verify_corpus_entry(const CorpusEntry& e, bool replay_traces) {
  const std::string identity = "corpus entry '" + e.name + "' (cell " +
                               fuzz_cell_name(e.axes) + ", genotype " +
                               e.genotype.to_string() + ")";
  ScenarioOutcome out;
  try {
    out = run_fuzz_scenario(e.genotype, fuzz_system_config(e.axes),
                            e.perm_rounds, nullptr);
  } catch (const std::exception& ex) {
    return identity + ": live re-run threw: " + ex.what();
  }
  if (out.mi_bits < e.mi_lo || out.mi_bits > e.mi_hi) {
    return identity + ": measured leakage " + fmt_double(out.mi_bits) +
           " bits is outside the pinned range [" + fmt_double(e.mi_lo) +
           ", " + fmt_double(e.mi_hi) + "] (recorded " +
           fmt_double(e.recorded_mi) + ")";
  }
  if (out.p_value > e.p_hi) {
    return identity + ": significance p=" + fmt_double(out.p_value) +
           " exceeds the pinned p_hi=" + fmt_double(e.p_hi) +
           " (recorded " + fmt_double(e.recorded_p) + ")";
  }
  if (!e.recorded_signature.empty() &&
      out.signature.to_string() != e.recorded_signature) {
    return identity + ": coverage signature drifted from " +
           e.recorded_signature + " to " + out.signature.to_string() +
           " (the run no longer reproduces the archived behavior)";
  }
  if (replay_traces && !e.dir.empty()) {
    bool any_trace = false;
    for (const auto& f : fs::directory_iterator(e.dir)) {
      if (is_core_trace_name(f.path().filename().string())) any_trace = true;
    }
    if (!any_trace) {
      return identity + ": entry has no core<i>.trace recording";
    }
    try {
      (void)run_trace_perf(e.dir, fuzz_system_config(e.axes));
    } catch (const std::exception& ex) {
      return identity + ": recorded trace replay failed: " + ex.what();
    }
  }
  return {};
}

}  // namespace pipo
