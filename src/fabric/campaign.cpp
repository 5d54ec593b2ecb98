#include "fabric/campaign.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <stdexcept>
#include <thread>

#include "common/parse_num.h"
#include "fuzz/genotype.h"
#include "fuzz/scenario.h"
#include "workload/mixes.h"

namespace pipo {

namespace {

/// Any core<i>.trace file marks a scenario directory — captures need
/// not start at core 0 (assign_trace_scenario idle-fills gaps). The
/// naming contract itself lives in analysis/perf_experiment.h.
bool has_core_traces(const std::filesystem::path& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (is_core_trace_name(entry.path().filename().string())) return true;
  }
  return false;
}

/// Scenario label for the JSON record: the last path component, robust
/// to trailing slashes ("rec/scen/" must label as "scen", not "") so
/// compare_replay_stats.py can key the record to its live counterpart.
std::string scenario_name(const std::filesystem::path& p) {
  std::string s = p.lexically_normal().string();
  while (s.size() > 1 &&
         s.back() == std::filesystem::path::preferred_separator) {
    s.pop_back();
  }
  const std::string name = std::filesystem::path(s).filename().string();
  return name.empty() || name == "." ? s : name;
}

}  // namespace

void CampaignSpec::validate() const {
  if (run_mixes &&
      (mix_lo < 1 || mix_hi > num_mixes() || mix_lo > mix_hi)) {
    throw std::invalid_argument("mix range out of 1.." +
                                std::to_string(num_mixes()));
  }
  if (defenses.empty()) {
    throw std::invalid_argument("campaign has no defenses");
  }
  if (!run_mixes && scenarios.empty() && fuzz.empty()) {
    throw std::invalid_argument(
        "campaign runs neither mixes nor trace scenarios nor fuzz cells");
  }
  for (const FuzzCell& cell : fuzz) {
    if (cell.name.empty() || cell.genotype.empty()) {
      throw std::invalid_argument(
          "fuzz cell needs a name and a genotype string");
    }
  }
  if (!fuzz.empty() && fuzz_perm_rounds == 0) {
    throw std::invalid_argument(
        "fuzz cells need fuzz_perm_rounds >= 1 (the significance gate)");
  }
  if (run_mixes && seeds == 0) {
    throw std::invalid_argument("campaign needs at least one seed");
  }
  if (!run_mixes && !record_dir.empty()) {
    // Only mix configurations are recorded (replays already *are*
    // recordings); silently ignoring the capture would look like one.
    throw std::invalid_argument(
        "record_dir applies to mix configurations; enable mixes");
  }
}

std::vector<DefenseKind> all_defenses() {
  return {DefenseKind::kNone,  DefenseKind::kPiPoMonitor,
          DefenseKind::kDirectoryMonitor, DefenseKind::kSharp,
          DefenseKind::kBitp,  DefenseKind::kRic};
}

DefenseKind parse_defense(const std::string& s) {
  std::string names;
  for (DefenseKind k : all_defenses()) {
    if (s == defense_short_name(k)) return k;
    if (!names.empty()) names += '|';
    names += defense_short_name(k);
  }
  throw std::invalid_argument("unknown defense: " + s + " (" + names + ")");
}

std::vector<DefenseKind> parse_defense_list(const std::string& csv) {
  if (csv == "all") return all_defenses();
  std::vector<DefenseKind> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    const auto comma = csv.find(',', start);
    const auto end = comma == std::string::npos ? csv.size() : comma;
    out.push_back(parse_defense(csv.substr(start, end - start)));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return out;
}

InclusionPolicy parse_inclusion(const std::string& s) {
  if (s == "inc" || s == "inclusive") return InclusionPolicy::kInclusive;
  if (s == "exc" || s == "exclusive") return InclusionPolicy::kExclusive;
  throw std::invalid_argument("unknown inclusion policy: " + s +
                              " (want inc|exc)");
}

SliceHashKind parse_slice_hash_kind(const std::string& s) {
  if (const auto h = parse_slice_hash(s)) return *h;
  throw std::invalid_argument("unknown slice hash: " + s + " (want low|cas)");
}

MonitorLevel parse_monitor_level(const std::string& s) {
  if (s == "l1") return MonitorLevel::kL1;
  if (s == "l2") return MonitorLevel::kL2;
  if (s == "llc") return MonitorLevel::kLlc;
  throw std::invalid_argument("unknown monitor level: " + s +
                              " (want l1|l2|llc)");
}

bool parse_campaign_flag(const std::string& arg,
                         const std::function<std::string()>& value,
                         CampaignSpec& spec,
                         std::vector<std::string>& trace_paths) {
  if (parse_axis_flag(arg, value, spec)) return true;
  if (arg == "--mixes") {
    const std::string v = value();
    const auto dash = v.find('-');
    if (dash == std::string::npos) {
      spec.mix_lo = spec.mix_hi = parse_uint32(v, "--mixes", 1);
    } else {
      spec.mix_lo = parse_uint32(v.substr(0, dash), "--mixes", 1);
      spec.mix_hi = parse_uint32(v.substr(dash + 1), "--mixes", 1);
    }
  } else if (arg == "--seeds") {
    spec.seeds = parse_uint32(value(), "--seeds", 1);
  } else if (arg == "--instr") {
    spec.instr = parse_uint(value(), "--instr", 1);
  } else if (arg == "--ws-div") {
    spec.ws_div = parse_uint(value(), "--ws-div", 1);
  } else if (arg == "--trace") {
    trace_paths.push_back(value());
  } else if (arg == "--no-mixes") {
    spec.run_mixes = false;
  } else {
    return false;
  }
  return true;
}

std::vector<TraceScenario> expand_trace_paths(
    const std::vector<std::string>& paths) {
  namespace fs = std::filesystem;
  std::vector<TraceScenario> out;
  for (const std::string& p : paths) {
    if (!fs::exists(p)) {
      throw std::invalid_argument("--trace path does not exist: " + p);
    }
    if (!fs::is_directory(p) || has_core_traces(p)) {
      out.push_back({scenario_name(p), p});
      continue;
    }
    std::vector<TraceScenario> nested;
    for (const auto& entry : fs::directory_iterator(p)) {
      if (entry.is_directory() && has_core_traces(entry.path())) {
        nested.push_back(
            {entry.path().filename().string(), entry.path().string()});
      }
    }
    if (nested.empty()) {
      throw std::invalid_argument(
          "--trace directory has no core<i>.trace files and no scenario "
          "subdirectories: " + p);
    }
    std::sort(nested.begin(), nested.end(),
              [](const TraceScenario& a, const TraceScenario& b) {
                return a.name < b.name;
              });
    out.insert(out.end(), nested.begin(), nested.end());
  }
  return out;
}

std::vector<ConfigKey> enumerate_campaign(const CampaignSpec& spec) {
  std::vector<ConfigKey> keys;
  if (spec.run_mixes) {
    for (unsigned mix = spec.mix_lo; mix <= spec.mix_hi; ++mix) {
      for (DefenseKind kind : spec.defenses) {
        for (unsigned s = 0; s < spec.seeds; ++s) {
          keys.push_back(ConfigKey{mix, kind, 42 + s, -1});
        }
      }
    }
  }
  // Trace replay is deterministic — one run per (scenario, defense),
  // no seed axis.
  for (std::size_t t = 0; t < spec.scenarios.size(); ++t) {
    for (DefenseKind kind : spec.defenses) {
      keys.push_back(ConfigKey{0, kind, 42, static_cast<int>(t), -1});
    }
  }
  // Fuzz cells likewise: every genotype's entire RNG story derives from
  // its own fields, so one run per (genotype, defense).
  for (std::size_t g = 0; g < spec.fuzz.size(); ++g) {
    for (DefenseKind kind : spec.defenses) {
      keys.push_back(ConfigKey{0, kind, 42, -1, static_cast<int>(g)});
    }
  }
  return keys;
}

ConfigResult run_campaign_config(const CampaignSpec& spec,
                                 std::uint64_t config_id,
                                 const ConfigKey& key) {
  ConfigResult out;
  out.config_id = config_id;
  out.key = key;
  if (key.trace >= 0 &&
      static_cast<std::size_t>(key.trace) < spec.scenarios.size()) {
    out.trace_name = spec.scenarios[static_cast<std::size_t>(key.trace)].name;
  }
  if (key.fuzz >= 0 &&
      static_cast<std::size_t>(key.fuzz) < spec.fuzz.size()) {
    out.fuzz_name = spec.fuzz[static_cast<std::size_t>(key.fuzz)].name;
  }
  const auto t0 = std::chrono::steady_clock::now();
  // An escaping exception would take down the whole campaign (or, in
  // the fabric, the worker process); capture it as the structured
  // failure record and let the remaining configurations run.
  try {
    if (key.trace >= 0 &&
        static_cast<std::size_t>(key.trace) >= spec.scenarios.size()) {
      throw std::invalid_argument("config references scenario " +
                                  std::to_string(key.trace) +
                                  " but the campaign has " +
                                  std::to_string(spec.scenarios.size()));
    }
    if (key.fuzz >= 0) {
      if (static_cast<std::size_t>(key.fuzz) >= spec.fuzz.size()) {
        throw std::invalid_argument("config references fuzz cell " +
                                    std::to_string(key.fuzz) +
                                    " but the campaign has " +
                                    std::to_string(spec.fuzz.size()));
      }
      // Fuzz cells run on the fuzzer's mini-scale machine, not the
      // Table II machine — thousands of candidate scenarios must fit in
      // a smoke budget. The campaign's hierarchy axes still apply.
      const FuzzCell& cell = spec.fuzz[static_cast<std::size_t>(key.fuzz)];
      const ScenarioGenotype g = ScenarioGenotype::parse(cell.genotype);
      const FuzzCellAxes axes{key.defense, spec.inclusion, spec.slice_hash,
                              spec.monitor_level};
      const ScenarioOutcome sc =
          run_fuzz_scenario(g, fuzz_system_config(axes),
                            spec.fuzz_perm_rounds);
      out.genotype = cell.genotype;
      out.mi_bits = sc.mi_bits;
      out.p_value = sc.p_value;
      out.decoder_acc = sc.decoder_acc;
      out.fuzz_rounds = sc.rounds;
      out.signature = sc.signature.to_string();
      out.r.stats = sc.stats;
      out.r.captures = sc.captures;
      out.r.prefetches = sc.prefetches;
      const auto t1f = std::chrono::steady_clock::now();
      out.wall_ms =
          std::chrono::duration<double, std::milli>(t1f - t0).count();
      return out;
    }
    SystemConfig cfg = SystemConfig::with_defense(key.defense);
    cfg.inclusion = spec.inclusion;
    cfg.slice_hash = spec.slice_hash;
    cfg.monitor_level = spec.monitor_level;
    if (key.trace >= 0) {
      out.r = run_trace_perf(
          spec.scenarios[static_cast<std::size_t>(key.trace)].path, cfg);
    } else if (!spec.record_dir.empty()) {
      const TraceCapture capture{
          spec.record_dir + "/mix" + std::to_string(key.mix) + "_" +
              to_string(key.defense) + "_s" + std::to_string(key.seed),
          spec.record_format};
      out.r = run_mix_perf(key.mix, cfg, spec.instr, key.seed, spec.ws_div,
                           &capture);
    } else {
      out.r = run_mix_perf(key.mix, cfg, spec.instr, key.seed, spec.ws_div);
    }
  } catch (const std::exception& e) {
    out.error = e.what();
    if (out.error.empty()) out.error = "unknown error";
  } catch (...) {
    out.error = "unknown error";
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  return out;
}

std::vector<ConfigResult> run_campaign(const CampaignSpec& spec,
                                       unsigned threads) {
  const std::vector<ConfigKey> keys = enumerate_campaign(spec);
  std::vector<ConfigResult> results(keys.size());
  // Each result is written by the one thread that took its index, and
  // read only after every worker has joined.
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < keys.size(); i = next++) {
      results[i] = run_campaign_config(spec, i, keys[i]);
    }
  };
  const std::size_t n = std::max<std::size_t>(
      1, std::min<std::size_t>(threads, keys.size()));
  std::vector<std::jthread> pool;  // joined on unwind as well
  for (std::size_t t = 1; t < n; ++t) pool.emplace_back(worker);
  worker();
  for (std::jthread& th : pool) th.join();
  return results;
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string config_result_json(const ConfigResult& t, bool include_wall) {
  // Trace scenarios identify themselves by name instead of mix number;
  // the simulated fields are the same, so a replay record diffs cleanly
  // against its live mix record (scripts/compare_replay_stats.py).
  std::string id;
  if (t.key.fuzz >= 0) {
    id = "\"fuzz\": \"" + json_escape(t.fuzz_name) + "\"";
  } else if (t.key.trace >= 0) {
    id = "\"trace\": \"" + json_escape(t.trace_name) + "\"";
  } else {
    id = "\"mix\": " + std::to_string(t.key.mix);
  }
  // The id / error strings are unbounded (trace names, exception
  // messages) — only the numeric tails go through fixed snprintf
  // buffers, so a long path can never truncate a record into bad JSON.
  char buf[448];
  if (!t.error.empty()) {
    // The structured failure record: self-identifying by config id so a
    // distributed merge (or a grep of a huge campaign) can name the
    // failed cell without re-deriving the enumeration.
    std::snprintf(buf, sizeof buf, ", \"defense\": \"%s\", \"seed\": %llu, ",
                  to_string(t.key.defense),
                  static_cast<unsigned long long>(t.key.seed));
    return "{\"config\": " + std::to_string(t.config_id) + ", " + id + buf +
           "\"error\": \"" + json_escape(t.error) + "\"}";
  }
  const System::Stats& s = t.r.stats;
  std::string wall;
  if (include_wall) {
    char wbuf[48];
    std::snprintf(wbuf, sizeof wbuf, ", \"wall_ms\": %.1f", t.wall_ms);
    wall = wbuf;
  }
  if (t.key.fuzz >= 0) {
    // Fuzz cells report the leakage verdict, not the perf fields: the
    // record is what the fuzzer's selection loop (and a human grepping
    // a campaign dump) needs to rank the genotype. The genotype and
    // signature strings are bounded (canonical forms), so the fixed
    // buffer cannot truncate.
    char fbuf[768];
    std::snprintf(
        fbuf, sizeof fbuf,
        ", \"defense\": \"%s\", \"genotype\": \"%s\", "
        "\"mi_bits\": %.6f, \"p_value\": %.6f, \"decoder_acc\": %.6f, "
        "\"rounds\": %u, \"signature\": \"%s\", "
        "\"captures\": %llu, \"prefetches\": %llu, "
        "\"l3_misses\": %llu, \"back_invalidations\": %llu%s}",
        to_string(t.key.defense), json_escape(t.genotype).c_str(),
        t.mi_bits, t.p_value, t.decoder_acc, t.fuzz_rounds,
        t.signature.c_str(),
        static_cast<unsigned long long>(t.r.captures),
        static_cast<unsigned long long>(t.r.prefetches),
        static_cast<unsigned long long>(s.l3_misses),
        static_cast<unsigned long long>(s.back_invalidations),
        wall.c_str());
    return "{\"config\": " + std::to_string(t.config_id) + ", " + id + fbuf;
  }
  std::snprintf(
      buf, sizeof buf,
      ", \"defense\": \"%s\", \"seed\": %llu, "
      "\"exec_time\": %llu, \"instructions\": %llu, "
      "\"prefetches\": %llu, \"captures\": %llu, "
      "\"false_positives_per_mi\": %.4f, "
      "\"l3_hits\": %llu, \"l3_misses\": %llu, "
      "\"back_invalidations\": %llu, \"writebacks\": %llu%s}",
      to_string(t.key.defense),
      static_cast<unsigned long long>(t.key.seed),
      static_cast<unsigned long long>(t.r.exec_time),
      static_cast<unsigned long long>(t.r.instructions),
      static_cast<unsigned long long>(t.r.prefetches),
      static_cast<unsigned long long>(t.r.captures),
      t.r.false_positives_per_mi,
      static_cast<unsigned long long>(s.l3_hits),
      static_cast<unsigned long long>(s.l3_misses),
      static_cast<unsigned long long>(s.back_invalidations),
      static_cast<unsigned long long>(s.writebacks), wall.c_str());
  return "{" + id + buf;
}

void write_campaign_records(std::FILE* f,
                            const std::vector<std::string>& records,
                            const std::string& trailing) {
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bool last = i + 1 == records.size() && trailing.empty();
    std::fprintf(f, "  %s%s\n", records[i].c_str(), last ? "" : ",");
  }
  if (!trailing.empty()) std::fprintf(f, "  %s\n", trailing.c_str());
  std::fprintf(f, "]\n");
}

void write_campaign_file(const std::string& path,
                         const std::vector<std::string>& records,
                         const std::string& trailing) {
  const std::string name = path.empty() ? "stdout" : path;
  std::FILE* f = path.empty() ? stdout : std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot open " + name);
  write_campaign_records(f, records, trailing);
  // stdio reports a failed write only through these calls; a full disk
  // typically surfaces at the flush of the last buffer.
  bool ok = std::fflush(f) == 0 && std::ferror(f) == 0;
  if (f != stdout && std::fclose(f) != 0) ok = false;
  if (!ok) {
    throw std::runtime_error("failed to write campaign records to " + name);
  }
}

}  // namespace pipo
