// Tests of the benchmark's own arithmetic (bench_math.h) and of the
// stability of its record digest across two runs of the simulator.
// Run with `python3 perfbench/run.py --self-test`; exits nonzero on any
// failed check.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_math.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int g_failures = 0;

void check(bool ok, const char* what, int line) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL line %d: %s\n", line, what);
  }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void test_quantile() {
  CHECK(near(quantile({4, 1, 3, 2}, 0.5), 2.5));
  CHECK(near(quantile({4, 1, 3, 2}, 0.0), 1));
  CHECK(near(quantile({4, 1, 3, 2}, 1.0), 4));
  CHECK(near(quantile({7}, 0.9), 7));
  CHECK(near(median(one_to(5)), 3));
}

void test_tail_rule() {
  // The highest ladder percentile with at least ten samples beyond it.
  CHECK(tail_percentile(one_to(400)).percentile == 95);
  CHECK(near(tail_percentile(one_to(400)).value, 1 + 0.95 * 399));
  CHECK(tail_percentile(one_to(1000)).percentile == 99);
  // The counts the workloads produce: 60 per-config times (sweep,
  // replay) and 200 to 999 re-timed configs (fuzz, capped at 999).
  CHECK(tail_percentile(one_to(60)).percentile == 80);
  CHECK(near(tail_percentile(one_to(60)).value, 1 + 0.8 * 59));
  CHECK(tail_percentile(one_to(200)).percentile == 95);
  CHECK(tail_percentile(one_to(999)).percentile == 95);
  CHECK(tail_percentile(one_to(100)).percentile == 90);
  CHECK(tail_percentile(one_to(67)).percentile == 85);
  CHECK(tail_percentile(one_to(20)).percentile == 50);
  CHECK(tail_percentile(one_to(20)).samples == 20);
  // Too few samples for any ladder step: the maximum, as percentile 100.
  CHECK(tail_percentile(one_to(19)).percentile == 100);
  CHECK(near(tail_percentile(one_to(19)).value, 19));
  CHECK(samples_beyond(95, 400) == 20);
  CHECK(samples_beyond(99, 400) == 4);
}

void test_closed_loop_runs_whole_rounds() {
  // Time-bounded: stops on a round boundary, so every config runs the
  // same number of times.
  const LoopResult timed =
      closed_loop(7, 3, 0.05, [](std::size_t i, unsigned) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
        return std::pair<std::string, bool>{std::to_string(i % 7), true};
      });
  CHECK(timed.items.size() >= 7);
  CHECK(timed.items.size() % 7 == 0);
  for (std::size_t i = 0; i < timed.items.size(); ++i) {
    CHECK(timed.items[i].index == i);
  }
  CHECK(timed.items[0].record == "0");
  CHECK(timed.items.size() < 8 || timed.items[7].record.empty());
  // seconds 0: exactly one round.
  const LoopResult once = closed_loop(5, 2, 0, [](std::size_t, unsigned) {
    return std::pair<std::string, bool>{"r", true};
  });
  CHECK(once.items.size() == 5);
  // A throwing item is a failed item.
  const LoopResult thrown = closed_loop(2, 1, 0, [](std::size_t i, unsigned) {
    if (i == 1) throw std::runtime_error("boom");
    return std::pair<std::string, bool>{"r", true};
  });
  CHECK(thrown.items.size() == 2 && thrown.items[0].ok && !thrown.items[1].ok);
  CHECK(closed_loop(0, 2, 1, [](std::size_t, unsigned) {
          return std::pair<std::string, bool>{"r", true};
        }).items.empty());
}

void test_self_time() {
  const SpanCost c{10, 25};
  // 1000 ns parent, three children measuring 300 ns in all: each child
  // carries 10 ns of its own bias and cost the parent 25 ns to record.
  CHECK(near(self_time_ns(1000, 3, 300, c), 1000 - 10 - (300 - 30 + 75)));
  CHECK(near(self_time_ns(500, 0, 0, c), 490));
  CHECK(near(corrected_sum_ns(300, 3, c), 270));
}

void test_busy_ratio_and_normalisation() {
  CHECK(near(busy_ratio(3e9, 4, 1e9), 0.75));
  CHECK(near(busy_ratio(1e9, 1, 1e9), 1.0));
  CHECK(busy_ratio(1e9, 0, 1e9) == 0);
  CHECK(busy_ratio(1e9, 4, 0) == 0);
  CHECK(near(per_kacc(5, 2000), 2.5));
  CHECK(per_kacc(5, 0) == 0);
}

void test_nominal_speed_scaling() {
  // A host twice as slow doubles both the work and the yardstick.
  CHECK(near(at_nominal_speed(80e6, kYardstickNominalNs), 80e6));
  CHECK(near(at_nominal_speed(160e6, 2 * kYardstickNominalNs), 80e6));
  CHECK(near(at_nominal_speed(40e6, 0.5 * kYardstickNominalNs), 80e6));
  bool threw = false;
  try {
    at_nominal_speed(1, 0);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  // The closed loop runs the yardstick after each item when asked, and
  // outside the item's own CPU time.
  const LoopResult loop = closed_loop(
      4, 2, 0,
      [](std::size_t, unsigned) {
        return std::pair<std::string, bool>{"r", true};
      },
      true);
  for (const LoopItem& item : loop.items) {
    CHECK(item.ref_ns > 0);
    CHECK(static_cast<double>(item.cpu_ns) < item.ref_ns);
  }
  CHECK(yardstick_burst(3).size() == 6);
}

void test_digest_known_values() {
  CHECK(Digest().hex() == "cbf29ce484222325");
  Digest a;
  a.add("a");
  CHECK(a.hex() == "089bdc07b544e7b2");
  Digest ab, ba, joined;
  ab.add("a");
  ab.add("b");
  ba.add("b");
  ba.add("a");
  joined.add("ab");
  CHECK(ab.hex() == "78ed6781f136a14e");
  CHECK(ab.hex() != ba.hex());
  CHECK(ab.hex() != joined.hex());
}

/// Runs the first `n` sweep configs and returns their records' digest.
std::string sweep_digest(const Prepared& p, std::size_t n) {
  Digest d;
  for (std::size_t id = 0; id < n; ++id) d.add(run_grid_config(p, id).first);
  return d.hex();
}

void test_digest_stable_across_runs() {
  Prepared p;
  p.kind = Kind::kSweep;
  p.spec.mix_lo = 1;
  p.spec.mix_hi = 1;
  p.spec.defenses = pipo::all_defenses();
  p.spec.instr = 20'000;
  p.spec.ws_div = 16;
  p.keys = pipo::enumerate_campaign(p.spec);
  CHECK(p.keys.size() == 6);
  const std::string first = sweep_digest(p, p.keys.size());
  CHECK(first == sweep_digest(p, p.keys.size()));
  // ... and sensitive to the inputs: another seed, another digest.
  for (pipo::ConfigKey& k : p.keys) k.seed = 43;
  CHECK(first != sweep_digest(p, p.keys.size()));

  pipo::FuzzerConfig f;
  f.seed = 7;
  f.population = 4;
  f.generations = 2;
  f.perm_rounds = 20;
  const pipo::FuzzReport r1 = pipo::Fuzzer(f).run();
  f.workers = 2;
  const pipo::FuzzReport r2 = pipo::Fuzzer(f).run();
  Digest d1, d2;
  for (const std::string& r : r1.records) d1.add(r);
  for (const std::string& r : r2.records) d2.add(r);
  CHECK(!r1.records.empty());
  CHECK(d1.hex() == d2.hex());
  // The fuzz latency pass rebuilds each generation's campaign from the
  // report; its direct records must equal the fabric's.
  const std::vector<FuzzGeneration> gens = fuzz_generations(f, r1);
  CHECK(gens.size() == 2);
  std::size_t i = 0;
  for (const FuzzGeneration& g : gens) {
    for (std::size_t id = 0; id < g.keys.size(); ++id, ++i) {
      const pipo::ConfigResult r = pipo::run_campaign_config(g.spec, id, g.keys[id]);
      CHECK(i < r1.records.size() &&
            pipo::config_result_json(r, false) == r1.records[i]);
    }
  }
  CHECK(i == r1.records.size());
}

}  // namespace

int main() {
  test_quantile();
  test_tail_rule();
  test_closed_loop_runs_whole_rounds();
  test_self_time();
  test_busy_ratio_and_normalisation();
  test_nominal_speed_scaling();
  test_digest_known_values();
  test_digest_stable_across_runs();
  std::printf("%s (%d failed checks)\n", g_failures ? "FAILED" : "ok",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
