#include "fuzz/fuzzer.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>

#include "common/rng.h"
#include "fabric/campaign.h"

namespace pipo {

namespace {

std::string fmt6(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

/// `v` as campaign records print it (%.6f). Selection ranks on the
/// digits the records show, so the records alone explain every choice.
double as_printed(double v) {
  // lint:allow(raw-parse) reads back our own %.6f rendering; a
  // malformed value throws std::invalid_argument right here
  return std::stod(fmt6(v));
}

}  // namespace

Fuzzer::Fuzzer(FuzzerConfig cfg) : cfg_(std::move(cfg)) {
  if (cfg_.population < 4) {
    throw std::invalid_argument("fuzzer population must be >= 4");
  }
  if (cfg_.generations < 1) {
    throw std::invalid_argument("fuzzer needs >= 1 generation");
  }
  if (cfg_.defenses.empty()) {
    throw std::invalid_argument("fuzzer needs at least one defense cell");
  }
  if (cfg_.perm_rounds == 0) {
    throw std::invalid_argument("fuzzer needs perm_rounds >= 1");
  }
}

FuzzReport Fuzzer::run() {
  FuzzReport report;
  Rng rng(cfg_.seed);
  const std::size_t n_def = cfg_.defenses.size();

  // Pre-compute the cell names (one per defense on the fixed hierarchy
  // triple) and the per-cell axes.
  std::vector<std::string> cell_names;
  for (DefenseKind d : cfg_.defenses) {
    cell_names.push_back(fuzz_cell_name(
        {d, cfg_.inclusion, cfg_.slice_hash, cfg_.monitor_level}));
  }

  // Seed population: the paper's attack plus mutated/random variants.
  std::vector<ScenarioGenotype> pop;
  std::vector<std::string> origin;  // mutation-log line per candidate
  pop.push_back(paper_like_genotype());
  origin.push_back("<- paper seed");
  while (pop.size() < cfg_.population) {
    if (pop.size() % 3 == 0) {
      pop.push_back(random_genotype(rng));
      origin.push_back("<- random");
    } else {
      ScenarioGenotype g = paper_like_genotype();
      const std::string ops = mutate_genotype(g, rng);
      pop.push_back(g);
      origin.push_back("<- mutate(paper): " + ops);
    }
  }

  std::set<std::string> seen_signatures;  // "(cell)|(signature hex)"
  std::map<std::string, FuzzFind> best_by_cell;

  for (std::uint32_t gen = 0; gen < cfg_.generations; ++gen) {
    // Log this generation's candidates before running them, so a crash
    // mid-campaign still leaves the stream/log prefix-complete.
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const std::string tag =
          "gen" + std::to_string(gen) + " cand" + std::to_string(i);
      report.genotype_stream.push_back(tag + ": " + pop[i].to_string());
      report.mutation_log.push_back(tag + " " + origin[i]);
    }
    report.candidates += pop.size();

    // One campaign per generation, run in process by run_campaign.
    // Its results come back in config-id order, so the records — and
    // everything derived from them — are identical at any worker count.
    CampaignSpec spec;
    spec.run_mixes = false;
    spec.defenses = cfg_.defenses;
    spec.inclusion = cfg_.inclusion;
    spec.slice_hash = cfg_.slice_hash;
    spec.monitor_level = cfg_.monitor_level;
    spec.fuzz_perm_rounds = cfg_.perm_rounds;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      // Appends rather than operator+ chains: gcc 12's -Wrestrict trips
      // a known false positive on the temporary-concatenation pattern.
      std::string name = "g";
      name += std::to_string(gen);
      name += '_';
      name += std::to_string(i);
      spec.fuzz.push_back(FuzzCell{std::move(name), pop[i].to_string()});
    }
    const std::vector<ConfigResult> results = run_campaign(spec, cfg_.workers);
    for (const ConfigResult& r : results) {
      report.records.push_back(config_result_json(r, /*include_wall=*/false));
    }

    // Score every candidate from its results: significant leakage
    // (defended cells weighted 4x) plus a small novelty bonus per
    // first-seen coverage signature.
    std::vector<double> fitness(pop.size(), 0.0);
    std::vector<bool> novel(pop.size(), false);
    double gen_best_mi = 0.0;
    std::string gen_best_cell;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      for (std::size_t d = 0; d < n_def; ++d) {
        const ConfigResult& r = results[i * n_def + d];
        ++report.evaluations;
        if (!r.error.empty()) {
          ++report.failed;
          continue;
        }
        const double mi = as_printed(r.mi_bits);
        const double p = as_printed(r.p_value);
        if (seen_signatures.insert(cell_names[d] + "|" + r.signature).second) {
          ++report.novel_signatures;
          novel[i] = true;
          fitness[i] += 0.05;
        }
        if (p <= cfg_.p_threshold) {
          ++report.significant;
          const bool defended = cfg_.defenses[d] != DefenseKind::kNone;
          fitness[i] += mi * (defended ? 4.0 : 1.0);
          auto it = best_by_cell.find(cell_names[d]);
          if (it == best_by_cell.end() || mi > it->second.mi_bits) {
            FuzzFind f;
            f.cell = cell_names[d];
            f.defense = cfg_.defenses[d];
            f.genotype = pop[i];
            f.mi_bits = mi;
            f.p_value = p;
            f.decoder_acc = as_printed(r.decoder_acc);
            f.rounds = r.fuzz_rounds;
            f.signature = r.signature;
            best_by_cell[f.cell] = f;
          }
          if (mi > gen_best_mi) {
            gen_best_mi = mi;
            gen_best_cell = cell_names[d];
          }
        }
      }
    }
    if (cfg_.progress != nullptr) {
      *cfg_.progress << "gen " << gen << ": candidates=" << pop.size()
                     << " significant_total=" << report.significant
                     << " novel_total=" << report.novel_signatures;
      if (!gen_best_cell.empty()) {
        *cfg_.progress << " gen_best_mi=" << fmt6(gen_best_mi) << " on "
                       << gen_best_cell;
      }
      *cfg_.progress << "\n";
    }
    if (gen + 1 == cfg_.generations) break;

    // Selection: elites by fitness (ties broken by canonical genotype
    // text, then index — fully deterministic), plus every novel
    // candidate's survival through the elite ranking's novelty bonus.
    std::vector<std::size_t> order(pop.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                if (fitness[a] != fitness[b]) return fitness[a] > fitness[b];
                const std::string sa = pop[a].to_string();
                const std::string sb = pop[b].to_string();
                if (sa != sb) return sa < sb;
                return a < b;
              });
    const std::size_t n_elite =
        std::max<std::size_t>(2, cfg_.population / 4);
    std::vector<ScenarioGenotype> next;
    std::vector<std::string> next_origin;
    for (std::size_t e = 0; e < n_elite && e < order.size(); ++e) {
      next.push_back(pop[order[e]]);
      next_origin.push_back("<- elite(gen" + std::to_string(gen) + " cand" +
                            std::to_string(order[e]) + ")");
    }
    while (next.size() < cfg_.population) {
      const std::uint64_t op = rng.below(10);
      if (op < 6) {
        const std::size_t p = order[rng.below(n_elite)];
        ScenarioGenotype g = pop[p];
        const std::string ops = mutate_genotype(g, rng);
        next.push_back(g);
        next_origin.push_back("<- mutate(gen" + std::to_string(gen) +
                              " cand" + std::to_string(p) + "): " + ops);
      } else if (op < 8) {
        const std::size_t pa = order[rng.below(n_elite)];
        const std::size_t pb = order[rng.below(n_elite)];
        next.push_back(crossover_genotype(pop[pa], pop[pb], rng));
        next_origin.push_back("<- crossover(gen" + std::to_string(gen) +
                              " cand" + std::to_string(pa) + ", cand" +
                              std::to_string(pb) + ")");
      } else {
        next.push_back(random_genotype(rng));
        next_origin.push_back("<- random");
      }
    }
    pop = std::move(next);
    origin = std::move(next_origin);
  }

  for (const auto& [cell, find] : best_by_cell) report.best.push_back(find);
  return report;
}

std::vector<CorpusEntry> archive_fuzz_corpus(
    const FuzzReport& report, const FuzzerConfig& cfg,
    const std::string& corpus_root, std::vector<std::string>* notes) {
  auto note = [&](const std::string& line) {
    if (notes != nullptr) notes->push_back(line);
  };
  std::vector<CorpusEntry> written;
  for (const FuzzFind& f : report.best) {
    CorpusEntry e;
    e.name = "best_" + f.cell;
    e.axes = parse_fuzz_cell_name(f.cell);
    e.genotype = f.genotype;
    e.perm_rounds = cfg.perm_rounds;
    e.mi_lo = f.mi_bits * 0.5;
    e.mi_hi = 64.0;
    e.p_hi = cfg.p_threshold;
    e.note = "fuzzer best find on " + f.cell +
             " (seed " + std::to_string(cfg.seed) + ")";
    written.push_back(write_corpus_entry(corpus_root, e));
    note("wrote " + e.name + ": mi=" + fmt6(written.back().recorded_mi) +
         " p=" + fmt6(written.back().recorded_p));
    if (f.defense != DefenseKind::kNone) continue;

    // The acceptance contrast: the undefended winner re-measured under
    // every defended cell, pinning that each defense keeps suppressing
    // this exact scenario (leakage at most half the undefended leak).
    for (DefenseKind d : cfg.defenses) {
      if (d == DefenseKind::kNone) continue;
      const FuzzCellAxes axes{d, cfg.inclusion, cfg.slice_hash,
                              cfg.monitor_level};
      const std::string cell = fuzz_cell_name(axes);
      const ScenarioOutcome defended = run_fuzz_scenario(
          f.genotype, fuzz_system_config(axes), cfg.perm_rounds);
      if (defended.mi_bits > f.mi_bits * 0.5) {
        note("skipped contrast_" + cell + ": defense does not suppress "
             "this genotype (mi=" + fmt6(defended.mi_bits) +
             " vs undefended " + fmt6(f.mi_bits) +
             ") — that is a finding, not a corpus entry");
        continue;
      }
      CorpusEntry c;
      c.name = "contrast_" + cell;
      c.axes = axes;
      c.genotype = f.genotype;
      c.perm_rounds = cfg.perm_rounds;
      c.mi_lo = 0.0;
      c.mi_hi = f.mi_bits * 0.5;
      c.p_hi = 1.0;  // no significance demanded of a suppressed channel
      c.note = "defense contrast for best_" + f.cell + ": undefended mi=" +
               fmt6(f.mi_bits) + ", must stay suppressed below half";
      written.push_back(write_corpus_entry(corpus_root, c));
      note("wrote " + c.name + ": mi=" + fmt6(written.back().recorded_mi) +
           " (undefended " + fmt6(f.mi_bits) + ")");
    }
  }
  return written;
}

}  // namespace pipo
