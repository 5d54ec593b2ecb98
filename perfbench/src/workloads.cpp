#include "workloads.h"

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "bench_math.h"
#include "workload/mixes.h"

namespace perfbench {

namespace {

/// Table II machine grid of ROADMAP's default sweep: mixes 1-10 x all six
/// defenses, 200k instructions per core, working sets divided by 16.
pipo::CampaignSpec sweep_spec() {
  pipo::CampaignSpec spec;
  spec.mix_lo = 1;
  spec.mix_hi = pipo::num_mixes();
  spec.defenses = pipo::all_defenses();
  spec.instr = 200'000;
  spec.ws_div = 16;
  return spec;
}

/// ROADMAP's fuzz-smoke campaign: seed 7, population 20, perm_rounds 200,
/// cells {none, pipo} on the inc/low/llc machine, 10 generations.
pipo::FuzzerConfig fuzz_config(std::uint64_t seed, unsigned workers) {
  pipo::FuzzerConfig cfg;
  cfg.seed = seed;
  cfg.population = 20;
  cfg.generations = 10;
  cfg.workers = workers;
  cfg.defenses = {pipo::DefenseKind::kNone, pipo::DefenseKind::kPiPoMonitor};
  cfg.perm_rounds = 200;
  return cfg;
}

void setup_sweep(Prepared& p) {
  p.spec = sweep_spec();
  p.keys = pipo::enumerate_campaign(p.spec);
  for (pipo::ConfigKey& k : p.keys) k.seed = p.seed;
  // Warm-up: two configs per worker, so the timed phase starts on warm
  // cores and a warm allocator.
  closed_loop(std::min<std::size_t>(2 * p.threads, p.keys.size()), p.threads, 0,
              [&](std::size_t i, unsigned) {
                return run_grid_config(p, i);
              });
}

void setup_replay(Prepared& p, const std::string& work_dir) {
  // Capture each mix's undefended run at full working sets as a framed
  // v3 scenario directory, in parallel: what `sweep_runner --record`
  // does before a replay campaign.
  namespace fs = std::filesystem;
  const unsigned mixes = pipo::num_mixes();
  const std::string root =
      work_dir + "/replay-s" + std::to_string(p.seed);
  p.spec = pipo::CampaignSpec{};
  p.spec.run_mixes = false;
  p.spec.defenses = pipo::all_defenses();
  p.live.assign(mixes, {});
  p.capture_ns.assign(mixes, 0);
  for (unsigned m = 1; m <= mixes; ++m) {
    p.spec.scenarios.push_back(
        {"mix" + std::to_string(m), root + "/mix" + std::to_string(m)});
  }
  closed_loop(mixes, p.threads, 0, [&](std::size_t i, unsigned) {
    const pipo::TraceCapture cap{p.spec.scenarios[i].path,
                                 pipo::TraceFormat::kFramedV3};
    const std::int64_t t0 = now_ns();
    p.live[i] = pipo::run_mix_perf(
        static_cast<unsigned>(i + 1),
        pipo::SystemConfig::with_defense(pipo::DefenseKind::kNone), 200'000,
        p.seed, 1, &cap);
    p.capture_ns[i] = static_cast<double>(now_ns() - t0);
    return std::pair<std::string, bool>{{}, true};
  });
  p.capture_bytes = 0;
  for (const pipo::TraceScenario& s : p.spec.scenarios) {
    for (const auto& e : fs::directory_iterator(s.path)) {
      p.capture_bytes += e.file_size();
    }
  }
  p.keys = pipo::enumerate_campaign(p.spec);
}

void setup_fuzz(Prepared& p) {
  p.fuzz = fuzz_config(p.seed, p.threads);
  // Warm-up: ROADMAP's fuzz smoke (seed 7) once, untimed. Its seed is
  // fixed so that setup_s does not move with the workload seed: one
  // campaign's cost differs by up to 2x between seeds.
  pipo::Fuzzer(fuzz_config(default_seed(Kind::kFuzz), p.threads)).run();
}

}  // namespace

const char* kind_name(Kind k) {
  switch (k) {
    case Kind::kSweep: return "sweep";
    case Kind::kReplay: return "replay";
    case Kind::kFuzz: return "fuzz";
  }
  return "?";
}

std::uint64_t default_seed(Kind k) { return k == Kind::kFuzz ? 7 : 42; }

namespace {
std::atomic<std::uint64_t> yardstick_sink{0};  // keeps the work observable
}  // namespace

double yardstick_ns() {
  constexpr std::size_t kWays = 16, kSets = std::size_t{1} << 14;
  constexpr int kAccesses = 60'000;
  thread_local std::vector<std::uint64_t> tags(kSets * kWays);
  const std::int64_t c0 = thread_cpu_ns();
  // Every run starts from the same empty array and address stream, so
  // every run does exactly the same work.
  std::fill(tags.begin(), tags.end(), ~std::uint64_t{0});
  std::uint64_t x = 0x9e3779b97f4a7c15ull, hits = 0;
  for (int i = 0; i < kAccesses; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    // Three accesses in four go to a hot region of 2 lines per set.
    const std::uint64_t line =
        (x & 3) != 0 ? (x >> 8) & 0x7fff : (x >> 8) & 0xffffff;
    std::uint64_t* set = &tags[(line % kSets) * kWays];
    const std::uint64_t tag = line / kSets;
    std::size_t w = 0;
    while (w < kWays - 1 && set[w] != tag) ++w;
    hits += set[w] == tag;
    std::copy_backward(set, set + w, set + w + 1);  // to the MRU position
    set[0] = tag;
  }
  const std::int64_t c1 = thread_cpu_ns();
  yardstick_sink.fetch_add(hits, std::memory_order_relaxed);
  return static_cast<double>(c1 - c0);
}

std::vector<double> yardstick_burst(unsigned threads) {
  const LoopResult loop = closed_loop(
      2 * std::size_t{threads}, threads, 0,
      [](std::size_t, unsigned) {
        return std::pair<std::string, bool>{{}, true};
      },
      /*yardstick=*/true);
  std::vector<double> out;
  for (const LoopItem& item : loop.items) out.push_back(item.ref_ns);
  return out;
}

std::string stats_text(const pipo::System::Stats& s) {
  std::ostringstream os;
  s.dump(os);
  return os.str();
}

Prepared setup(Kind kind, std::uint64_t seed, const std::string& work_dir) {
  Prepared p;
  p.kind = kind;
  p.seed = seed;
  // Every workload runs one worker per hardware thread. Replay included:
  // on one worker a 30 s run gives each config only 3-6 timed runs, too
  // few for its fastest run to be steady on a shared host.
  p.threads = std::max(1u, std::thread::hardware_concurrency());
  switch (kind) {
    case Kind::kSweep: setup_sweep(p); break;
    case Kind::kReplay: setup_replay(p, work_dir); break;
    case Kind::kFuzz: setup_fuzz(p); break;
  }
  return p;
}

std::pair<std::string, bool> run_grid_config(const Prepared& p,
                                             std::size_t id,
                                             pipo::ConfigResult* keep) {
  const pipo::ConfigKey& key = p.keys[id];
  pipo::ConfigResult r = pipo::run_campaign_config(p.spec, id, key);
  std::string record = pipo::config_result_json(r, false);
  bool ok = r.error.empty();
  if (ok && p.kind == Kind::kReplay &&
      key.defense == pipo::DefenseKind::kNone) {
    // The undefended replay must reproduce its live capture run exactly:
    // the same record (bar the mix/trace identity) and every counter.
    pipo::ConfigResult live = r;
    live.r = p.live[static_cast<std::size_t>(key.trace)];
    live.r.mix = r.r.mix;
    ok = pipo::config_result_json(live, false) == record &&
         stats_text(live.r.stats) == stats_text(r.r.stats);
  }
  if (keep != nullptr) *keep = std::move(r);
  return {std::move(record), ok};
}

std::vector<FuzzGeneration> fuzz_generations(const pipo::FuzzerConfig& cfg,
                                             const pipo::FuzzReport& report) {
  // Mirrors Fuzzer::run's per-generation campaign: genotype_stream lines
  // read "gen<g> cand<i>: PPG1:..." and cells are named "g<g>_<i>".
  std::vector<FuzzGeneration> gens;
  for (const std::string& line : report.genotype_stream) {
    const auto sp = line.find(' ');
    const auto colon = line.find(": ");
    if (line.rfind("gen", 0) != 0 || sp == std::string::npos ||
        colon == std::string::npos) {
      throw std::runtime_error("unexpected genotype stream line: " + line);
    }
    const std::string gen = line.substr(3, sp - 3);
    const std::string cand = line.substr(sp + 5, colon - sp - 5);
    const std::size_t g = static_cast<std::size_t>(std::stoul(gen));
    if (g == gens.size()) {
      FuzzGeneration fg;
      fg.spec.run_mixes = false;
      fg.spec.defenses = cfg.defenses;
      fg.spec.inclusion = cfg.inclusion;
      fg.spec.slice_hash = cfg.slice_hash;
      fg.spec.monitor_level = cfg.monitor_level;
      fg.spec.fuzz_perm_rounds = cfg.perm_rounds;
      gens.push_back(std::move(fg));
    }
    gens.back().spec.fuzz.push_back(
        {"g" + gen + "_" + cand, line.substr(colon + 2)});
  }
  for (FuzzGeneration& g : gens) g.keys = pipo::enumerate_campaign(g.spec);
  return gens;
}

namespace {

TimedResult timed_grid(const Prepared& p, double seconds) {
  TimedResult out;
  const std::size_t n = p.keys.size();
  const LoopResult loop = closed_loop(
      n, p.threads, seconds,
      [&](std::size_t i, unsigned) { return run_grid_config(p, i % n); },
      /*yardstick=*/true);
  // Items 0..n-1 are the first round; every later item must repeat its
  // config's first-round record byte for byte.
  Digest digest;
  // Each run is scaled to the nominal host speed by the yardstick run
  // right after it on the same thread; a config's time is the median of
  // its scaled runs.
  std::vector<std::vector<double>> runs(n);
  for (const LoopItem& item : loop.items) {
    if (item.index < n) digest.add(item.record);
    const bool repeat_ok = item.record_hash ==
                           loop.items[item.index % n].record_hash;
    if (!item.ok || !repeat_ok) ++out.failed;
    const double cpu = static_cast<double>(item.cpu_ns);
    const double scaled = at_nominal_speed(cpu, item.ref_ns);
    runs[item.index % n].push_back(scaled / 1e6);
    out.cpu_s += cpu / 1e9;
    out.scaled_cpu_s += scaled / 1e9;
    out.yardstick_ms.push_back(item.ref_ns / 1e6);
  }
  for (const std::vector<double>& r : runs) out.config_ms.push_back(median(r));
  out.attempted = loop.items.size();
  out.configs = loop.items.size();
  out.rounds = static_cast<unsigned>(loop.items.size() / n);
  out.wall_s = loop.wall_ns() / 1e9;
  out.digest = digest.hex();
  return out;
}

/// Fuzzer seed of the fuzz workload's campaign `round`; round 0 runs the
/// workload seed itself.
std::uint64_t fuzz_round_seed(std::uint64_t seed, unsigned round) {
  return seed + round * 1'000'000'007ull;
}

/// Every kLatencyStride-th config of each fuzz campaign, up to
/// kLatencySamples in all, is re-timed once for the latency sample; the
/// cap bounds the re-timing work whatever the throughput and keeps the
/// tail at p95. A generation is 40 configs (20 candidates x 2 cells), and
/// a stride prime to 40 visits every candidate and cell in turn.
constexpr std::size_t kLatencyStride = 41;
constexpr std::size_t kLatencySamples = 999;

TimedResult timed_fuzz(const Prepared& p, double seconds) {
  TimedResult out;
  // Throughput: whole Fuzzer::run campaigns, closed loop, until the time
  // is up. Campaign r runs seed fuzz_round_seed(seed, r): one campaign's
  // cost depends on where its evolution drifts, so a run averages over
  // many, which keeps the figures steady across workload seeds.
  struct Sample {
    pipo::CampaignSpec spec;  ///< the config's generation, cut to its cell
    std::uint64_t id = 0;
    pipo::ConfigKey key;
    std::string record;       ///< what the fabric returned for it
  };
  Digest digest;
  const std::int64_t start = now_ns();
  double busy = 0;
  // Fuzzer::run's workers are its own threads, so a campaign is scaled
  // by yardstick bursts on as many threads just before and after it.
  std::vector<double> before = yardstick_burst(p.threads);
  do {
    pipo::FuzzerConfig cfg = p.fuzz;
    cfg.seed = fuzz_round_seed(p.seed, out.rounds);
    const std::int64_t t0 = now_ns();
    const std::int64_t c0 = process_cpu_ns();
    const pipo::FuzzReport rep = pipo::Fuzzer(cfg).run();
    const auto cpu = static_cast<double>(process_cpu_ns() - c0);
    busy += static_cast<double>(now_ns() - t0);
    std::vector<double> after = yardstick_burst(p.threads);
    std::vector<double> around = before;
    around.insert(around.end(), after.begin(), after.end());
    out.cpu_s += cpu / 1e9;
    out.scaled_cpu_s += at_nominal_speed(cpu, median(around)) / 1e9;
    for (double y : after) out.yardstick_ms.push_back(y / 1e6);
    before = std::move(after);
    out.candidates += rep.candidates;
    out.configs += rep.evaluations;
    out.attempted += rep.evaluations;
    out.failed += rep.failed;
    if (out.rounds == 0) {
      for (const std::string& rec : rep.records) digest.add(rec);
    }
    ++out.rounds;
    if (out.config_ms.size() >= kLatencySamples) continue;

    // Latency: Fuzzer::run exposes no per-config boundary, so sampled
    // configs of each campaign are timed again right after it, as direct
    // run_campaign_config calls (spreading the sample over the whole
    // run); each must reproduce the fabric's record. They run on this
    // thread, each followed by a yardstick run: a fresh thread's first
    // config pays for its allocator arena and would set the tail.
    std::vector<Sample> batch;
    std::size_t flat = 0;  // config index across the campaign
    for (const FuzzGeneration& gen : fuzz_generations(cfg, rep)) {
      for (std::size_t id = 0; id < gen.keys.size(); ++id, ++flat) {
        if (flat % kLatencyStride != 0 || flat >= rep.records.size() ||
            out.config_ms.size() + batch.size() >= kLatencySamples) {
          continue;
        }
        Sample s{gen.spec, id, gen.keys[id], rep.records[flat]};
        s.spec.fuzz = {gen.spec.fuzz[static_cast<std::size_t>(s.key.fuzz)]};
        s.key.fuzz = 0;
        batch.push_back(std::move(s));
      }
    }
    const LoopResult loop = closed_loop(
        batch.size(), 1, 0, [&](std::size_t i, unsigned) {
          const Sample& s = batch[i];
          const pipo::ConfigResult r =
              pipo::run_campaign_config(s.spec, s.id, s.key);
          std::string rec = pipo::config_result_json(r, false);
          const bool ok = r.error.empty() && rec == s.record;
          return std::pair<std::string, bool>{std::move(rec), ok};
        },
        /*yardstick=*/true);
    for (const LoopItem& item : loop.items) {
      if (!item.ok) ++out.failed;
      out.config_ms.push_back(
          at_nominal_speed(static_cast<double>(item.cpu_ns), item.ref_ns) /
          1e6);
    }
    out.attempted += loop.items.size();
  } while (static_cast<double>(now_ns() - start) < seconds * 1e9);
  out.wall_s = busy / 1e9;
  out.digest = digest.hex();
  return out;
}

}  // namespace

TimedResult run_timed(const Prepared& p, double seconds) {
  return p.kind == Kind::kFuzz ? timed_fuzz(p, seconds)
                               : timed_grid(p, seconds);
}

bool check_digest(Kind kind, std::uint64_t seed, const std::string& digest,
                  const std::string& pinned_file, const std::string& seen_file,
                  std::string* status) {
  const std::string key =
      std::string(kind_name(kind)) + " " + std::to_string(seed) + " ";
  auto lookup = [&](const std::string& file) -> std::string {
    std::ifstream in(file);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind(key, 0) == 0) return line.substr(key.size());
    }
    return {};
  };
  if (seed == default_seed(kind)) {
    const std::string pinned = lookup(pinned_file);
    const bool ok = pinned == digest;
    *status = pinned.empty() ? "no digest pinned for the default seed"
              : ok           ? "matches the pinned digest"
                             : "DIFFERS from the pinned digest " + pinned;
    return ok;
  }
  const std::string seen = lookup(seen_file);
  if (seen.empty()) {
    std::filesystem::create_directories(
        std::filesystem::path(seen_file).parent_path());
    std::ofstream(seen_file, std::ios::app) << key << digest << "\n";
    *status = "first run of this seed (recorded for the next run to match)";
    return true;
  }
  const bool ok = seen == digest;
  *status = ok ? "matches an earlier run of this seed"
               : "DIFFERS from an earlier run of this seed: " + seen;
  return ok;
}

}  // namespace perfbench
