// The three pinned workloads (sweep, replay, fuzz): their set-up, the
// closed loop that times them, and the output checks. perfbench.cpp
// drives the timed run, traced.cpp the per-layer run.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_math.h"
#include "fabric/campaign.h"
#include "fuzz/fuzzer.h"

namespace perfbench {

enum class Kind { kSweep, kReplay, kFuzz };

const char* kind_name(Kind k);
/// Workload seed when --seed is not given: 42, 42 and 7. The pinned
/// digests cover these seeds only.
std::uint64_t default_seed(Kind k);

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::int64_t clock_ns(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return std::int64_t{ts.tv_sec} * 1'000'000'000 + ts.tv_nsec;
}

/// CPU time of the calling thread. Unlike wall time it stands still while
/// the thread waits for a processor: while the guest runs another process
/// and while the host runs another guest (the kernel subtracts steal
/// time). The end-to-end metrics are CPU times for that reason.
inline std::int64_t thread_cpu_ns() {
  return clock_ns(CLOCK_THREAD_CPUTIME_ID);
}

/// CPU time of the whole process since it started: every thread, live or
/// already exited.
inline std::int64_t process_cpu_ns() {
  return clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

/// Runs the yardstick once on the calling thread and returns the thread
/// CPU time it took, in ns. The yardstick is a fixed piece of host work
/// that resembles the simulator's inner loop (lookups in a 16-way LRU tag
/// array of 2 MiB, driven by a xorshift address stream) and depends on
/// nothing in src/, so no change to the simulator moves it. The shared
/// host's speed drifts by up to 2x from one minute to the next; timed on
/// the same thread right beside the simulator's work, the yardstick turns
/// the simulator's CPU times into times at one fixed host speed.
double yardstick_ns();

/// Inputs a workload's timed phase and traced run draw from.
struct Prepared {
  Kind kind = Kind::kSweep;
  std::uint64_t seed = 0;
  unsigned threads = 1;  ///< closed-loop workers: one per hardware thread
  // sweep, replay: one campaign and its config keys in config-id order.
  pipo::CampaignSpec spec;
  std::vector<pipo::ConfigKey> keys;
  // replay: the live undefended run of each captured mix (scenario
  // order), the host time of each capture and the bytes it wrote.
  std::vector<pipo::MixPerfResult> live;
  std::vector<double> capture_ns;
  std::uint64_t capture_bytes = 0;
  // fuzz
  pipo::FuzzerConfig fuzz;
};

/// Builds the workload's inputs and runs its warm-up (sweep, fuzz) or
/// its trace capture (replay), on one worker per hardware thread.
/// Deterministic given the seed.
Prepared setup(Kind kind, std::uint64_t seed, const std::string& work_dir);

struct LoopItem {
  std::size_t index = 0;   ///< position in the closed loop's item stream
  std::int64_t start_ns = 0, end_ns = 0;
  std::int64_t cpu_ns = 0; ///< the worker thread's CPU time over the item
  double ref_ns = 0;       ///< the yardstick run right after it, if asked
  std::string record;      ///< the record, kept for the first round only
  std::uint64_t record_hash = 0;  ///< FNV-1a of the record
  bool ok = true;          ///< the item's own check passed
};

struct LoopResult {
  std::vector<LoopItem> items;  ///< sorted by index
  std::int64_t start_ns = 0, end_ns = 0;
  double wall_ns() const { return static_cast<double>(end_ns - start_ns); }
};

/// Closed loop over items 0, 1, 2, ... (item i is config i % n): each of
/// `threads` workers takes the next item when it finishes one. The loop
/// runs whole rounds of n items only, so every config weighs the same in
/// every metric: at least one, then more until the round boundary
/// nearest `seconds` (0: exactly one round). `fn(index, worker)` returns
/// the item's record and whether its check passed; only the first
/// round's records are kept whole (later ones as hashes), so memory does
/// not grow with the number of items run. With `yardstick` the worker
/// runs the yardstick after each item, outside the item's times.
template <class Fn>
LoopResult closed_loop(std::size_t n, unsigned threads, double seconds,
                       Fn fn, bool yardstick = false) {
  LoopResult out;
  std::mutex mu;
  std::size_t next = 0;
  bool stopped = false;
  std::vector<std::vector<LoopItem>> per_worker(threads);
  out.start_ns = out.end_ns = now_ns();
  if (n == 0) return out;
  const double budget_ns = seconds * 1e9;
  auto take = [&](std::size_t* i) {
    const std::lock_guard<std::mutex> lock(mu);
    if (!stopped && next > 0 && next % n == 0) {
      // At the boundary after round k: stop if it is nearer the deadline
      // than the next boundary, estimating a round as elapsed / k.
      const double elapsed = static_cast<double>(now_ns() - out.start_ns);
      const double rounds = static_cast<double>(next / n);
      stopped = elapsed + elapsed / (2 * rounds) >= budget_ns;
    }
    if (stopped) return false;
    *i = next++;
    return true;
  };
  auto work = [&](unsigned w) {
    std::size_t i = 0;
    while (take(&i)) {
      LoopItem item;
      item.index = i;
      item.start_ns = now_ns();
      const std::int64_t c0 = thread_cpu_ns();
      std::pair<std::string, bool> res;
      try {
        res = fn(i, w);
      } catch (const std::exception& e) {
        // A throwing item is a failed item, not a dead worker thread.
        res = {std::string("error: ") + e.what(), false};
      }
      item.cpu_ns = thread_cpu_ns() - c0;
      item.end_ns = now_ns();
      if (yardstick) item.ref_ns = yardstick_ns();
      Digest h;
      h.add(res.first);
      item.record_hash = h.value();
      if (i < n) item.record = std::move(res.first);
      item.ok = res.second;
      per_worker[w].push_back(std::move(item));
    }
  };
  std::vector<std::thread> pool;
  for (unsigned w = 1; w < threads; ++w) pool.emplace_back(work, w);
  work(0);
  for (std::thread& t : pool) t.join();
  for (auto& v : per_worker) {
    for (LoopItem& item : v) {
      out.end_ns = std::max(out.end_ns, item.end_ns);
      out.items.push_back(std::move(item));
    }
  }
  std::sort(out.items.begin(), out.items.end(),
            [](const LoopItem& a, const LoopItem& b) {
              return a.index < b.index;
            });
  return out;
}

/// Two yardstick runs on each of `threads` threads at once, to take the
/// host's speed where no item is there to pair one with; returns their
/// times in ns.
std::vector<double> yardstick_burst(unsigned threads);

/// System::Stats as its dump() text, the form the output checks compare.
std::string stats_text(const pipo::System::Stats& s);

/// Runs config `id` of a sweep or replay campaign; the record is
/// config_result_json(r, false). Replay's undefended configs must also
/// reproduce their live capture run exactly.
std::pair<std::string, bool> run_grid_config(const Prepared& p,
                                             std::size_t id,
                                             pipo::ConfigResult* keep = nullptr);

/// The fuzz campaign of every generation of `report` (what Fuzzer::run
/// handed the fabric), as (spec, keys) pairs in generation order.
struct FuzzGeneration {
  pipo::CampaignSpec spec;
  std::vector<pipo::ConfigKey> keys;
};
std::vector<FuzzGeneration> fuzz_generations(const pipo::FuzzerConfig& cfg,
                                             const pipo::FuzzReport& report);

/// Result of the timed (untraced) run.
struct TimedResult {
  std::uint64_t attempted = 0, failed = 0;
  std::uint64_t configs = 0;     ///< configs completed in the throughput phase
  std::uint64_t candidates = 0;  ///< fuzz: genotypes evaluated
  double wall_s = 0;             ///< throughput phase wall time
  double cpu_s = 0;              ///< throughput phase CPU time, as measured
  double scaled_cpu_s = 0;       ///< the same at the nominal host speed
  /// Host CPU time per config at the nominal host speed, in ms. sweep,
  /// replay: the median of each config's runs in the timed phase (so
  /// always 60 values); fuzz: one value per re-timed config.
  std::vector<double> config_ms;
  std::vector<double> yardstick_ms;  ///< every yardstick run of the phase
  unsigned rounds = 0;          ///< full passes over the workload's items
  std::string digest;            ///< over the first round's records
};

TimedResult run_timed(const Prepared& p, double seconds);

/// Compares `digest` with the one pinned in `pinned_file` for the default
/// seed; any other seed is compared with the digest an earlier run of
/// the same seed left in `seen_file` (recorded there on first sight).
/// Returns true when it agrees; `status` describes the comparison.
bool check_digest(Kind kind, std::uint64_t seed, const std::string& digest,
                  const std::string& pinned_file, const std::string& seen_file,
                  std::string* status);

}  // namespace perfbench
