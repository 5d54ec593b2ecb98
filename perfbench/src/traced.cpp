#include "traced.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>

#include "filter/observer.h"
#include "fuzz/scenario.h"
#include "sim/simulation.h"
#include "workload/mixes.h"
#include "workload/stream_trace.h"
#include "workload/trace.h"

namespace perfbench {

namespace {

using pipo::CoreId;
using pipo::Tick;

/// Period of the simulation driver's uncore tick (Simulation's default;
/// the traced run never changes it).
constexpr Tick kUncorePeriod = 64;

struct SpanSum {
  std::uint64_t n = 0;
  double raw_ns = 0;

  void add(std::int64_t d) {
    ++n;
    raw_ns += static_cast<double>(d);
  }
  void merge(const SpanSum& o) {
    n += o.n;
    raw_ns += o.raw_ns;
  }
  double mean_ns(const SpanCost& c) const {
    return n == 0 ? 0 : corrected_sum_ns(raw_ns, n, c) / static_cast<double>(n);
  }
};

/// Layer work of one or more configs: leaf spans folded into sums as
/// they close (storing ~10^5 access-level spans per config individually
/// would take hundreds of MB per pass) and the simulated counters.
struct LayerAgg {
  std::uint64_t next_calls = 0, accesses = 0, drains = 0;
  double sim_self_ns = 0;
  SpanSum next_synth, next_trace, drain, pipo;
  SpanSum access[4];  ///< system.access by HitLevel
  pipo::System::Stats stats;
  std::uint64_t mem_fetches = 0, mem_queue_cycles = 0;
  std::uint64_t pipo_cfg_accesses = 0;  ///< accesses of pipo-defended configs
  std::uint64_t pipo_accesses = 0, pipo_captures = 0, pipo_pevicts = 0,
                pipo_prefetches = 0;

  void merge(const LayerAgg& o) {
    next_calls += o.next_calls;
    accesses += o.accesses;
    drains += o.drains;
    sim_self_ns += o.sim_self_ns;
    next_synth.merge(o.next_synth);
    next_trace.merge(o.next_trace);
    drain.merge(o.drain);
    pipo.merge(o.pipo);
    for (int i = 0; i < 4; ++i) access[i].merge(o.access[i]);
    stats += o.stats;
    mem_fetches += o.mem_fetches;
    mem_queue_cycles += o.mem_queue_cycles;
    pipo_cfg_accesses += o.pipo_cfg_accesses;
    pipo_accesses += o.pipo_accesses;
    pipo_captures += o.pipo_captures;
    pipo_pevicts += o.pipo_pevicts;
    pipo_prefetches += o.pipo_prefetches;
  }
};

/// A span kept individually: config-level and sim.run spans.
struct SpanRec {
  const char* name = "";
  std::uint64_t config = 0;
  std::int64_t parent = -1;  ///< index in the same worker's log, or -1
  std::int64_t start_ns = 0, end_ns = 0;
};

struct SpanLog {
  std::vector<SpanRec> spans;
  std::int64_t add(const char* name, std::uint64_t config, std::int64_t parent,
                   std::int64_t start, std::int64_t end) {
    spans.push_back({name, config, parent, start, end});
    return static_cast<std::int64_t>(spans.size()) - 1;
  }
};

struct AccessLogEntry {
  Tick issued = 0;
  pipo::Addr addr = 0;
  CoreId core = 0;
  pipo::AccessType type = pipo::AccessType::kLoad;
  bool bypass = false;
};

/// Tracing state of one config's simulation, shared by its decorators.
struct ConfigTracer {
  LayerAgg agg;
  SpanSum children;  ///< every workload.next span: sim.run's children
  std::vector<AccessLogEntry> log;
  Tick finish = 0;   ///< tick the last core ran out of requests
};

/// Workload decorator: a workload.next span around every next() call,
/// and a log entry (issue tick, core, request) for every completed
/// access, which the fresh-System replay re-issues.
class TracedWorkload final : public pipo::Workload {
 public:
  TracedWorkload(std::unique_ptr<pipo::Workload> inner, CoreId core,
                 ConfigTracer& t)
      : inner_(std::move(inner)), core_(core), t_(t) {
    if (dynamic_cast<pipo::StreamingTraceWorkload*>(inner_.get())) {
      sum_ = &t.agg.next_trace;
    } else if (!dynamic_cast<pipo::IdleWorkload*>(inner_.get())) {
      sum_ = &t.agg.next_synth;
    }
  }

  std::optional<pipo::MemRequest> next(Tick now) override {
    const std::int64_t t0 = now_ns();
    std::optional<pipo::MemRequest> r = inner_->next(now);
    const std::int64_t d = now_ns() - t0;
    t_.children.add(d);
    if (sum_ != nullptr) sum_->add(d);
    ++t_.agg.next_calls;
    if (!r) t_.finish = std::max(t_.finish, now);
    return r;
  }

  void on_complete(const pipo::MemRequest& req, Tick issued,
                   Tick completed) override {
    t_.log.push_back({issued, req.addr, core_, req.type, req.bypass_private});
    inner_->on_complete(req, issued, completed);
  }

 private:
  std::unique_ptr<pipo::Workload> inner_;
  CoreId core_;
  ConfigTracer& t_;
  SpanSum* sum_ = nullptr;  ///< null for idle cores
};

/// The line stream the PiPoMonitor's filter sees: every filter access
/// opens with a query hit or an insert of its line.
class LineStream final : public pipo::FilterObserver {
 public:
  void on_query_hit(pipo::LineAddr a, std::size_t, std::size_t) override {
    lines.push_back(a);
  }
  void on_insert_start(pipo::LineAddr a) override { lines.push_back(a); }
  std::vector<pipo::LineAddr> lines;
};

struct Calib {
  SpanCost span;
  double log_ns = 0;
};

/// Measures an empty span recorded exactly as TracedWorkload records
/// one, and the cost of one access-log entry. Medians of five trials.
Calib calibrate() {
  constexpr int kSpans = 200'000;
  std::vector<double> inner, total, log;
  for (int trial = 0; trial < 5; ++trial) {
    SpanSum children, sum;
    const std::int64_t a0 = now_ns();
    for (int i = 0; i < kSpans; ++i) {
      const std::int64_t t0 = now_ns();
      const std::int64_t d = now_ns() - t0;
      children.add(d);
      sum.add(d);
    }
    const std::int64_t a1 = now_ns();
    inner.push_back(children.raw_ns / kSpans);
    total.push_back(static_cast<double>(a1 - a0) / kSpans);
    std::vector<AccessLogEntry> entries;
    const std::int64_t l0 = now_ns();
    for (int i = 0; i < kSpans; ++i) {
      entries.push_back({static_cast<Tick>(i), 0, 0, pipo::AccessType::kLoad,
                         false});
    }
    log.push_back(static_cast<double>(now_ns() - l0) / kSpans);
  }
  return {{median(inner), median(total)}, median(log)};
}

/// The untraced run's result for one config. `captures` and
/// `prefetches` are the PiPoMonitor's (campaign records) or, with
/// `active_monitor`, the active defense's (fuzz scenario outcomes).
struct Expected {
  pipo::System::Stats stats;
  std::uint64_t captures = 0, prefetches = 0;
  bool active_monitor = false;
};

struct ConfigOutcome {
  bool live_ok = false, system_ok = false, monitor_ok = false;
  LayerAgg agg;
  std::int64_t traced_ns = 0;  ///< the traced live simulation's config span
};

/// What a System exposes about a finished run, for comparing two runs.
struct SystemCounters {
  std::string stats;
  std::uint64_t demand = 0, prefetch = 0, writebacks = 0, queue = 0;
  std::uint64_t captures = 0, prefetches = 0;          ///< active defense
  std::uint64_t pipo_captures = 0, pipo_prefetches = 0;  ///< PiPoMonitor

  explicit SystemCounters(pipo::System& s)
      : stats(stats_text(s.stats())),
        demand(s.mem().demand_fetches()),
        prefetch(s.mem().prefetch_fetches()),
        writebacks(s.mem().writebacks()),
        queue(s.mem().total_queue_delay()),
        captures(s.active_monitor().captures()),
        prefetches(s.active_monitor().prefetches_issued()),
        pipo_captures(s.monitor().captures()),
        pipo_prefetches(s.monitor().prefetches_issued()) {}
  bool operator==(const SystemCounters&) const = default;
};

/// One config, traced: the live simulation with decorated workloads and
/// the filter's line stream, then the fresh-System replay of the access
/// log and the standalone monitor replay of the line stream.
template <class Assign>
ConfigOutcome trace_config(const pipo::SystemConfig& cfg, Tick max_ticks,
                           Assign assign, const Expected& want,
                           const Calib& cal, std::uint64_t config,
                           SpanLog& spans) {
  ConfigOutcome out;
  ConfigTracer t;
  LineStream lines;
  LayerAgg& agg = t.agg;
  std::optional<SystemCounters> live;
  std::uint64_t live_pipo_accesses = 0;
  const std::int64_t c0 = now_ns();
  std::int64_t r0 = 0, r1 = 0;
  {
    pipo::Simulation sim(cfg, &lines);
    assign(sim);
    for (CoreId c = 0; c < sim.num_cores(); ++c) {
      sim.wrap_workload(c, [&](std::unique_ptr<pipo::Workload> w) {
        return std::make_unique<TracedWorkload>(std::move(w), c, t);
      });
    }
    r0 = now_ns();
    sim.run(max_ticks);
    r1 = now_ns();
    live.emplace(sim.system());
    const pipo::PiPoMonitor& mon = sim.system().monitor();
    live_pipo_accesses = mon.accesses();
    if (cfg.defense == pipo::DefenseKind::kPiPoMonitor) {
      agg.pipo_accesses = mon.accesses();
      agg.pipo_captures = mon.captures();
      agg.pipo_pevicts = mon.pevicts();
      agg.pipo_prefetches = mon.prefetches_issued();
    }
    agg.stats = sim.system().stats();
  }
  const std::int64_t c1 = now_ns();
  out.traced_ns = c1 - c0;
  const std::int64_t parent = spans.add("config.traced", config, -1, c0, c1);
  spans.add("sim.run", config, parent, r0, r1);
  out.live_ok = live->stats == stats_text(want.stats) &&
                (want.active_monitor ? live->captures : live->pipo_captures) ==
                    want.captures &&
                (want.active_monitor ? live->prefetches
                                     : live->pipo_prefetches) ==
                    want.prefetches &&
                t.log.size() == want.stats.accesses;
  agg.accesses = t.log.size();
  agg.sim_self_ns =
      self_time_ns(static_cast<double>(r1 - r0), t.children.n,
                   t.children.raw_ns, cal.span) -
      static_cast<double>(t.log.size()) * cal.log_ns;
  agg.mem_fetches = live->demand + live->prefetch;
  agg.mem_queue_cycles = live->queue;
  if (cfg.defense == pipo::DefenseKind::kPiPoMonitor) {
    agg.pipo_cfg_accesses = agg.accesses;
  }

  // Fresh-System replay: the logged accesses in issue order, with the
  // driver's uncore drain at every 64-tick boundary up to each access.
  pipo::System sys(cfg);
  Tick tick = kUncorePeriod;
  auto drain = [&] {
    const std::int64_t t0 = now_ns();
    sys.drain_prefetches(tick);
    agg.drain.add(now_ns() - t0);
    ++agg.drains;
    tick += kUncorePeriod;
  };
  for (const AccessLogEntry& e : t.log) {
    while (tick <= e.issued) drain();
    const std::int64_t t0 = now_ns();
    const pipo::System::AccessOutcome o =
        sys.access(e.issued, e.core, e.addr, e.type, e.bypass);
    agg.access[static_cast<int>(o.level)].add(now_ns() - t0);
  }
  // The simulation keeps ticking until a tick finds every core finished.
  while (tick < t.finish + kUncorePeriod) drain();
  out.system_ok = SystemCounters(sys) == *live;
  if (!out.system_ok && t.finish % kUncorePeriod == 0) {
    // When the last core finishes on a tick boundary, the event order of
    // that tick and the core's final step decides whether one more tick
    // runs; the log cannot show it, so the replay tries both.
    drain();
    out.system_ok = SystemCounters(sys) == *live;
  }

  // Standalone monitor replay of the filter's line stream.
  pipo::MonitorConfig mcfg = cfg.monitor;
  if (cfg.defense != pipo::DefenseKind::kPiPoMonitor) mcfg.enabled = false;
  pipo::PiPoMonitor mon(mcfg);
  for (pipo::LineAddr line : lines.lines) {
    const std::int64_t t0 = now_ns();
    mon.on_access(line);
    agg.pipo.add(now_ns() - t0);
  }
  out.monitor_ok = mon.accesses() == live_pipo_accesses &&
                   (cfg.defense != pipo::DefenseKind::kPiPoMonitor ||
                    mon.captures() == agg.pipo_captures);
  out.agg = std::move(agg);
  return out;
}

/// Config spans of the untraced passes, by (group, defense); a group is
/// a mix, a replay scenario or a fuzz genotype. Each config's time is
/// the median of its passes.
class ConfigSpans {
 public:
  void add(std::uint64_t group, pipo::DefenseKind d, double ns) {
    ns_[{group, static_cast<int>(d)}].push_back(ns);
  }
  /// Σ time(defense) / Σ time(undefended) - 1, in percent, over the
  /// groups that ran both.
  double overhead_pct(pipo::DefenseKind d) const {
    double num = 0, den = 0;
    for (const auto& [k, v] : ns_) {
      if (k.second != static_cast<int>(d)) continue;
      const auto base =
          ns_.find({k.first, static_cast<int>(pipo::DefenseKind::kNone)});
      if (base == ns_.end()) continue;
      num += median(v);
      den += median(base->second);
    }
    return den == 0 ? 0 : (num / den - 1) * 100;
  }
  /// Σ over configs of their median time.
  double total_ns() const {
    double t = 0;
    for (const auto& [k, v] : ns_) t += median(v);
    return t;
  }

 private:
  std::map<std::pair<std::uint64_t, int>, std::vector<double>> ns_;
};

/// Everything the per-layer metrics are computed from.
struct TraceTotals {
  LayerAgg agg;             ///< configs whose three checks passed
  double busy_ratio = 0;
  ConfigSpans config_spans;  ///< untraced passes
  double traced_ns = 0;      ///< Σ traced config spans
  double capture_ns = 0;    ///< host time of capturing runs
  std::uint64_t captured_requests = 0, captured_bytes = 0;
  std::vector<double> eval_ms;   ///< fuzz: run_fuzz_scenario spans
  double score_ns = 0;           ///< fuzz: Σ (span at 200 - span at 1)
};

void fold_outcomes(const std::vector<ConfigOutcome>& outs, TracedResult& res,
                   TraceTotals& tot) {
  for (const ConfigOutcome& o : outs) {
    ++res.traced_configs;
    res.live_pass += o.live_ok;
    res.system_pass += o.system_ok;
    res.monitor_pass += o.monitor_ok;
    tot.traced_ns += static_cast<double>(o.traced_ns);
    if (o.live_ok && o.system_ok && o.monitor_ok) {
      tot.agg.merge(o.agg);
    } else {
      ++res.failed;
    }
  }
  res.attempted += outs.size();
}

std::vector<Metric> layer_metrics(const TraceTotals& t, const Calib& cal) {
  const LayerAgg& a = t.agg;
  const pipo::System::Stats& s = a.stats;
  const SpanCost& c = cal.span;
  using pipo::HitLevel;
  auto lvl = [&](HitLevel l) {
    return a.access[static_cast<int>(l)].mean_ns(c);
  };
  std::vector<Metric> m = {
      {"fabric.busy_ratio", t.busy_ratio, "ratio"},
      {"sim.events_per_access",
       ratio(static_cast<double>(a.next_calls + a.accesses + a.drains),
             static_cast<double>(a.accesses)),
       "events/acc"},
      {"sim.uncore_ticks_per_access",
       ratio(static_cast<double>(a.drains), static_cast<double>(a.accesses)),
       "ticks/acc"},
      {"sim.drain_ns", a.drain.mean_ns(c), "ns"},
      {"sim.self_ns_per_access",
       ratio(a.sim_self_ns, static_cast<double>(a.accesses)), "ns"},
      {"workload.next_ns", a.next_synth.mean_ns(c), "ns"},
      {"trace.decode_ns", a.next_trace.mean_ns(c), "ns"},
      {"trace.capture_ns",
       ratio(t.capture_ns, static_cast<double>(t.captured_requests)), "ns/req"},
      {"trace.bytes_per_request",
       ratio(static_cast<double>(t.captured_bytes),
             static_cast<double>(t.captured_requests)),
       "B/req"},
      {"cache.l1_hit_ns", lvl(HitLevel::kL1), "ns"},
      {"cache.l2_hit_ns", lvl(HitLevel::kL2), "ns"},
      {"cache.l1_hit_ratio",
       ratio(static_cast<double>(s.l1_hits), static_cast<double>(s.accesses)),
       "ratio"},
      {"cache.l2_hit_ratio",
       ratio(static_cast<double>(s.l2_hits), static_cast<double>(s.accesses)),
       "ratio"},
      {"llc.hit_ns", lvl(HitLevel::kL3), "ns"},
      {"llc.hit_ratio",
       ratio(static_cast<double>(s.l3_hits),
             static_cast<double>(s.l3_hits + s.l3_misses)),
       "ratio"},
      {"llc.back_invalidations_per_kacc",
       per_kacc(s.back_invalidations, s.accesses), "1/kacc"},
      {"llc.writebacks_per_kacc", per_kacc(s.writebacks, s.accesses),
       "1/kacc"},
      {"llc.upgrades_per_kacc", per_kacc(s.upgrades, s.accesses), "1/kacc"},
      {"mem.miss_ns", lvl(HitLevel::kMemory), "ns"},
      {"mem.fetches_per_kacc", per_kacc(a.mem_fetches, s.accesses), "1/kacc"},
      {"mem.queue_cycles_per_fetch",
       ratio(static_cast<double>(a.mem_queue_cycles),
             static_cast<double>(a.mem_fetches)),
       "cycles"},
      {"pipo.access_ns", a.pipo.mean_ns(c), "ns"},
      {"pipo.accesses_per_kacc", per_kacc(a.pipo_accesses, a.pipo_cfg_accesses),
       "1/kacc"},
      {"pipo.captures", static_cast<double>(a.pipo_captures), "count"},
      {"pipo.pevicts", static_cast<double>(a.pipo_pevicts), "count"},
      {"pipo.prefetches", static_cast<double>(a.pipo_prefetches), "count"},
      {"pipo.config_overhead_pct",
       t.config_spans.overhead_pct(pipo::DefenseKind::kPiPoMonitor), "%"},
      {"defense.dir.config_overhead_pct",
       t.config_spans.overhead_pct(pipo::DefenseKind::kDirectoryMonitor), "%"},
      {"defense.sharp.config_overhead_pct",
       t.config_spans.overhead_pct(pipo::DefenseKind::kSharp), "%"},
      {"defense.bitp.config_overhead_pct",
       t.config_spans.overhead_pct(pipo::DefenseKind::kBitp), "%"},
      {"defense.ric.config_overhead_pct",
       t.config_spans.overhead_pct(pipo::DefenseKind::kRic), "%"},
      {"analysis.score_ms",
       t.eval_ms.empty() ? 0 : t.score_ns / 1e6 / static_cast<double>(t.eval_ms.size()),
       "ms"},
      {"fuzz.eval_ms_p50", t.eval_ms.empty() ? 0 : median(t.eval_ms), "ms"},
      {"tracing_overhead_pct",
       (ratio(t.traced_ns, t.config_spans.total_ns()) - 1) * 100, "%"},
  };
  return m;
}

/// Untraced passes over each workload's items before the traced pass,
/// for the config spans (per-config medians) and the busy ratio.
constexpr unsigned kUntracedPasses = 3;

/// Untraced passes over a sweep or replay grid recording the config
/// spans, then the traced pass.
void traced_grid(const Prepared& p, const Calib& cal,
                 std::vector<SpanLog>& logs, TracedResult& res,
                 TraceTotals& tot) {
  const std::size_t n = p.keys.size();
  std::vector<pipo::ConfigResult> results(n);
  const LoopResult loop = closed_loop(
      n * kUntracedPasses, p.threads, 0, [&](std::size_t i, unsigned) {
        return run_grid_config(p, i % n, i < n ? &results[i] : nullptr);
      });
  Digest digest;
  double busy = 0;
  for (const LoopItem& item : loop.items) {
    const std::size_t id = item.index % n;
    if (item.index < n) digest.add(item.record);
    if (!item.ok || item.record_hash != loop.items[id].record_hash) {
      ++res.failed;
    }
    const double ns = static_cast<double>(item.end_ns - item.start_ns);
    busy += ns;
    const pipo::ConfigKey& k = p.keys[id];
    tot.config_spans.add(
        p.kind == Kind::kSweep ? k.mix : static_cast<std::uint64_t>(k.trace),
        k.defense, ns);
    logs[0].add("config", id, -1, item.start_ns, item.end_ns);
  }
  res.attempted += loop.items.size();
  res.digest = digest.hex();
  tot.busy_ratio = busy_ratio(busy, p.threads, loop.wall_ns());

  std::vector<ConfigOutcome> outs(n);
  closed_loop(n, p.threads, 0, [&](std::size_t i, unsigned w) {
    const pipo::ConfigKey& k = p.keys[i];
    // The SystemConfig run_campaign_config builds for this key.
    pipo::SystemConfig cfg = pipo::SystemConfig::with_defense(k.defense);
    cfg.inclusion = p.spec.inclusion;
    cfg.slice_hash = p.spec.slice_hash;
    cfg.monitor_level = p.spec.monitor_level;
    const pipo::MixPerfResult& r = results[i].r;
    const Expected want{r.stats, r.captures, r.prefetches};
    auto assign = [&](pipo::Simulation& sim) {
      if (p.kind == Kind::kReplay) {
        pipo::assign_trace_scenario(
            sim, p.spec.scenarios[static_cast<std::size_t>(k.trace)].path);
        return;
      }
      auto wl = pipo::make_mix(k.mix, p.spec.instr, k.seed, p.spec.ws_div);
      for (CoreId c = 0; c < sim.num_cores() && c < wl.size(); ++c) {
        sim.set_workload(c, std::move(wl[c]));
      }
    };
    outs[i] = trace_config(cfg, ~Tick{0}, assign, want, cal, i, logs[w]);
    return std::pair<std::string, bool>{{}, true};
  });
  fold_outcomes(outs, res, tot);
  if (p.kind == Kind::kReplay) {
    for (std::size_t m = 0; m < p.live.size(); ++m) {
      tot.capture_ns += p.capture_ns[m];
      tot.captured_requests += p.live[m].stats.accesses;
    }
    tot.captured_bytes = p.capture_bytes;
  }
}

/// The tick cap run_fuzz_scenario gives its simulation.
Tick fuzz_max_ticks(const pipo::ScenarioGenotype& g) {
  const std::uint64_t total_probes =
      static_cast<std::uint64_t>(g.key_bits + 1) * 2 * g.ev_lines;
  const Tick far_slack =
      g.far_period == 0 ? 0
                        : (total_probes / g.far_period + 1) * g.far_delay;
  return (static_cast<Tick>(g.key_bits) + 4) * g.interval + 1'000'000 +
         far_slack;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::uint64_t b = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    b += e.file_size();
  }
  return b;
}

/// One Fuzzer::run campaign, its configs timed as direct calls (the
/// untraced spans), then each config traced through its captured
/// request streams.
void traced_fuzz(const Prepared& p, const Calib& cal,
                 const std::string& work_dir, std::vector<SpanLog>& logs,
                 TracedResult& res, TraceTotals& tot) {
  const std::int64_t f0 = now_ns();
  const pipo::FuzzReport rep = pipo::Fuzzer(p.fuzz).run();
  const double fuzz_wall = static_cast<double>(now_ns() - f0);
  res.attempted += rep.evaluations;
  res.failed += rep.failed;
  Digest digest;
  for (const std::string& r : rep.records) digest.add(r);
  res.digest = digest.hex();

  const std::vector<FuzzGeneration> gens = fuzz_generations(p.fuzz, rep);
  std::vector<std::pair<std::size_t, std::size_t>> items;
  for (std::size_t g = 0; g < gens.size(); ++g) {
    for (std::size_t id = 0; id < gens[g].keys.size(); ++id) {
      items.emplace_back(g, id);
    }
  }
  const std::size_t n = items.size();
  const LoopResult loop = closed_loop(
      n * kUntracedPasses, p.threads, 0, [&](std::size_t i, unsigned) {
        const auto [g, id] = items[i % n];
        const pipo::ConfigResult r =
            pipo::run_campaign_config(gens[g].spec, id, gens[g].keys[id]);
        std::string rec = pipo::config_result_json(r, false);
        const bool ok = rec == rep.records[i % n];
        return std::pair<std::string, bool>{std::move(rec), ok};
      });
  double busy = 0;
  for (const LoopItem& item : loop.items) {
    if (!item.ok) ++res.failed;
    const double ns = static_cast<double>(item.end_ns - item.start_ns);
    busy += ns;
    const auto [g, id] = items[item.index % n];
    const pipo::ConfigKey& k = gens[g].keys[id];
    tot.config_spans.add(g * p.fuzz.population + static_cast<std::uint64_t>(k.fuzz),
                         k.defense, ns);
    logs[0].add("config", item.index % n, -1, item.start_ns, item.end_ns);
  }
  res.attempted += loop.items.size();
  // The fabric's busy share: the configs' own time (one pass) against
  // the thread capacity of the Fuzzer::run campaign that ran them.
  tot.busy_ratio = busy_ratio(busy / kUntracedPasses, p.threads,
                              fuzz_wall);

  std::vector<ConfigOutcome> outs(items.size());
  std::vector<double> eval_ns(items.size()), score_ns(items.size()),
      capture_ns(items.size());
  std::vector<std::uint64_t> requests(items.size()), bytes(items.size());
  std::vector<char> capture_ok(items.size(), 0);
  closed_loop(items.size(), p.threads, 0, [&](std::size_t i, unsigned w) {
    const auto [g, id] = items[i];
    const pipo::CampaignSpec& spec = gens[g].spec;
    const pipo::ConfigKey& k = gens[g].keys[id];
    const pipo::ScenarioGenotype geno = pipo::ScenarioGenotype::parse(
        spec.fuzz[static_cast<std::size_t>(k.fuzz)].genotype);
    const pipo::SystemConfig sys = pipo::fuzz_system_config(
        {k.defense, spec.inclusion, spec.slice_hash, spec.monitor_level});
    SpanLog& log = logs[w];
    std::int64_t t0 = now_ns();
    const pipo::ScenarioOutcome full =
        pipo::run_fuzz_scenario(geno, sys, spec.fuzz_perm_rounds);
    std::int64_t t1 = now_ns();
    log.add("fuzz.eval", i, -1, t0, t1);
    eval_ns[i] = static_cast<double>(t1 - t0);
    t0 = now_ns();
    pipo::run_fuzz_scenario(geno, sys, 1);
    t1 = now_ns();
    log.add("fuzz.eval.perm1", i, -1, t0, t1);
    score_ns[i] = eval_ns[i] - static_cast<double>(t1 - t0);
    const std::string dir = work_dir + "/fuzz-capture/w" + std::to_string(w);
    const pipo::TraceCapture cap{dir, pipo::TraceFormat::kFramedV3};
    t0 = now_ns();
    const pipo::ScenarioOutcome captured =
        pipo::run_fuzz_scenario(geno, sys, spec.fuzz_perm_rounds, &cap);
    t1 = now_ns();
    log.add("trace.capture", i, -1, t0, t1);
    capture_ns[i] = static_cast<double>(t1 - t0);
    requests[i] = captured.stats.accesses;
    bytes[i] = dir_bytes(dir);
    capture_ok[i] = stats_text(captured.stats) == stats_text(full.stats) &&
                    captured.captures == full.captures;
    const Expected want{full.stats, full.captures, full.prefetches, true};
    outs[i] = trace_config(
        sys, fuzz_max_ticks(geno),
        [&](pipo::Simulation& sim) { pipo::assign_trace_scenario(sim, dir); },
        want, cal, i, log);
    return std::pair<std::string, bool>{{}, true};
  });
  fold_outcomes(outs, res, tot);
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (!capture_ok[i]) ++res.failed;
    tot.eval_ms.push_back(eval_ns[i] / 1e6);
    tot.score_ns += score_ns[i];
    tot.capture_ns += capture_ns[i];
    tot.captured_requests += requests[i];
    tot.captured_bytes += bytes[i];
  }
  // For fuzz the instrumented live run is the capturing one; the
  // replays after it are analysis, not overhead of the run.
  tot.traced_ns = 0;
  for (double ns : capture_ns) tot.traced_ns += ns;
}

void write_spans(const std::string& path, const std::vector<SpanLog>& logs) {
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path());
  std::ofstream out(path);
  out << "worker\tindex\tname\tconfig\tparent\tstart_ns\tend_ns\n";
  for (std::size_t w = 0; w < logs.size(); ++w) {
    for (std::size_t i = 0; i < logs[w].spans.size(); ++i) {
      const SpanRec& s = logs[w].spans[i];
      out << w << '\t' << i << '\t' << s.name << '\t' << s.config << '\t'
          << s.parent << '\t' << s.start_ns << '\t' << s.end_ns << '\n';
    }
  }
}

}  // namespace

TracedResult run_traced(const Prepared& p, const std::string& work_dir,
                        const std::string& span_file) {
  TracedResult res;
  const Calib cal = calibrate();
  res.span_cost = cal.span;
  res.log_ns = cal.log_ns;
  std::vector<SpanLog> logs(p.threads);
  TraceTotals tot;
  if (p.kind == Kind::kFuzz) {
    traced_fuzz(p, cal, work_dir, logs, res, tot);
  } else {
    traced_grid(p, cal, logs, res, tot);
  }
  res.metrics = layer_metrics(tot, cal);
  write_spans(span_file, logs);
  return res;
}

}  // namespace perfbench
