// Event-queue engine microbenchmark: the allocation-free inline-callback
// 4-ary-heap EventQueue vs. the original std::function + binary
// priority_queue engine (reproduced below as LegacyEventQueue).
//
// Two workloads:
//  * chains — 4 self-rescheduling events with deltas of 1-64 ticks: the
//    simulator's queue depth (one pending step/issue event per core);
//    its deltas are shorter than the simulator's, whose DRAM
//    completions land 200+ ticks out, but a heap's cost follows its
//    depth, not its deltas;
//  * churn  — a deep queue of 4096 independent one-shot events at
//    scattered ticks, a stress shape far deeper than any simulation.
//
// Reports events/sec and heap allocations per event (via a counting
// global operator new), human-readable by default, one JSON object with
// --json for BENCH_engine.json trajectories.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <new>
#include <queue>
#include <vector>

#include "sim/event_queue.h"

// ----------------------------------------------------------------------
// Allocation counter: every global operator new in the process ticks it.
namespace {
std::uint64_t g_allocs = 0;
}

void* operator new(std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n);
}
void* operator new[](std::size_t n) {
  ++g_allocs;
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc{};
}
// Over-aligned forms: the engine's cache-line-aligned callback pool
// chunks land here — they must tick the same counter so the comparison
// against the std::function baseline stays symmetric.
void* operator new(std::size_t n, std::align_val_t al) {
  ++g_allocs;
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  ++g_allocs;
  // aligned_alloc requires a size that is a multiple of the alignment.
  const auto a = static_cast<std::size_t>(al);
  if (void* p = std::aligned_alloc(a, (n + a - 1) / a * a)) return p;
  throw std::bad_alloc{};
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using pipo::Tick;

// ----------------------------------------------------------------------
// The seed repository's engine, verbatim: std::function callbacks in a
// binary std::priority_queue. Kept here as the measured baseline.
class LegacyEventQueue {
 public:
  using Callback = std::function<void()>;

  void schedule(Tick when, Callback fn) {
    heap_.push(Event{when, seq_++, std::move(fn)});
  }
  void schedule_in(Tick delta, Callback fn) {
    schedule(now_ + delta, std::move(fn));
  }
  Tick now() const { return now_; }
  bool empty() const { return heap_.empty(); }

  bool run_one() {
    if (heap_.empty()) return false;
    Event ev = heap_.top();
    heap_.pop();
    now_ = ev.when;
    ev.fn();
    return true;
  }

  std::uint64_t run_all() {
    std::uint64_t n = 0;
    while (run_one()) ++n;
    return n;
  }

 private:
  struct Event {
    Tick when;
    std::uint64_t seq;
    Callback fn;
    bool operator>(const Event& o) const {
      return when != o.when ? when > o.when : seq > o.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, std::greater<>> heap_;
  Tick now_ = 0;
  std::uint64_t seq_ = 0;
};

std::uint64_t splitmix(std::uint64_t& s) {
  s += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = s;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct Measurement {
  double events_per_sec = 0;
  double allocs_per_event = 0;
};

/// N self-rescheduling chains, `total` events overall. The callback
/// captures one pointer — the simulator's core-step shape.
template <typename Queue>
Measurement chains(unsigned num_chains, std::uint64_t total) {
  Queue q;
  std::uint64_t remaining = total;
  std::uint64_t rng = 42;

  struct Chain {
    Queue* q;
    std::uint64_t* remaining;
    std::uint64_t* rng;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      q->schedule_in(1 + (splitmix(*rng) & 63), Chain{q, remaining, rng});
    }
  };

  for (unsigned c = 0; c < num_chains; ++c) {
    q.schedule(c, Chain{&q, &remaining, &rng});
  }
  // Warm up past vector growth so the steady state is measured.
  for (int i = 0; i < 1024; ++i) q.run_one();

  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t n = q.run_all();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 = g_allocs;

  Measurement m;
  m.events_per_sec =
      static_cast<double>(n) /
      std::chrono::duration<double>(t1 - t0).count();
  m.allocs_per_event =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(n);
  return m;
}

/// Deep-queue churn: `depth` pending one-shot events; every pop pushes a
/// replacement, 1-1024 ticks out, until `total` events ran.
template <typename Queue>
Measurement churn(std::size_t depth, std::uint64_t total) {
  Queue q;
  std::uint64_t remaining = total;
  std::uint64_t rng = 7;

  struct Shot {
    Queue* q;
    std::uint64_t* remaining;
    std::uint64_t* rng;
    void operator()() const {
      if (*remaining == 0) return;
      --*remaining;
      q->schedule_in(1 + (splitmix(*rng) & 1023), Shot{q, remaining, rng});
    }
  };

  for (std::size_t i = 0; i < depth; ++i) {
    q.schedule(splitmix(rng) & 1023, Shot{&q, &remaining, &rng});
  }
  for (int i = 0; i < 4096; ++i) q.run_one();

  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t n = q.run_all();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs1 = g_allocs;

  Measurement m;
  m.events_per_sec =
      static_cast<double>(n) /
      std::chrono::duration<double>(t1 - t0).count();
  m.allocs_per_event =
      static_cast<double>(allocs1 - allocs0) / static_cast<double>(n);
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = argc > 1 && std::strcmp(argv[1], "--json") == 0;
  constexpr std::uint64_t kTotal = 20'000'000;
  constexpr int kReps = 3;

  // Best-of-N: the throughput ceiling is the engine's property, the
  // slower repetitions are the machine's (scheduler preemption, shared
  // box). allocs/event is deterministic and identical across reps.
  auto best = [](Measurement a, Measurement b) {
    return a.events_per_sec >= b.events_per_sec ? a : b;
  };
  Measurement legacy_chain, engine_chain, legacy_churn, engine_churn;
  for (int r = 0; r < kReps; ++r) {
    legacy_chain = best(legacy_chain, chains<LegacyEventQueue>(4, kTotal));
    engine_chain = best(engine_chain, chains<pipo::EventQueue>(4, kTotal));
    legacy_churn = best(legacy_churn, churn<LegacyEventQueue>(4096, kTotal));
    engine_churn = best(engine_churn, churn<pipo::EventQueue>(4096, kTotal));
  }

  if (json) {
    std::printf(
        "{\"bench\":\"micro_event_queue\",\"events\":%llu,"
        "\"chains\":{\"legacy_eps\":%.0f,\"engine_eps\":%.0f,"
        "\"speedup\":%.2f,\"legacy_allocs_per_event\":%.3f,"
        "\"engine_allocs_per_event\":%.3f},"
        "\"churn\":{\"legacy_eps\":%.0f,\"engine_eps\":%.0f,"
        "\"speedup\":%.2f,\"legacy_allocs_per_event\":%.3f,"
        "\"engine_allocs_per_event\":%.3f}}\n",
        static_cast<unsigned long long>(kTotal), legacy_chain.events_per_sec,
        engine_chain.events_per_sec,
        engine_chain.events_per_sec / legacy_chain.events_per_sec,
        legacy_chain.allocs_per_event, engine_chain.allocs_per_event,
        legacy_churn.events_per_sec, engine_churn.events_per_sec,
        engine_churn.events_per_sec / legacy_churn.events_per_sec,
        legacy_churn.allocs_per_event, engine_churn.allocs_per_event);
    return 0;
  }

  std::printf("micro_event_queue: %llu events per workload\n\n",
              static_cast<unsigned long long>(kTotal));
  std::printf("%-22s %15s %15s %9s\n", "workload", "events/sec",
              "allocs/event", "speedup");
  std::printf("%-22s %15.2e %15.3f %9s\n", "chains  legacy",
              legacy_chain.events_per_sec, legacy_chain.allocs_per_event, "");
  std::printf("%-22s %15.2e %15.3f %8.2fx\n", "chains  engine",
              engine_chain.events_per_sec, engine_chain.allocs_per_event,
              engine_chain.events_per_sec / legacy_chain.events_per_sec);
  std::printf("%-22s %15.2e %15.3f %9s\n", "churn   legacy",
              legacy_churn.events_per_sec, legacy_churn.allocs_per_event, "");
  std::printf("%-22s %15.2e %15.3f %8.2fx\n", "churn   engine",
              engine_churn.events_per_sec, engine_churn.allocs_per_event,
              engine_churn.events_per_sec / legacy_churn.events_per_sec);
  return 0;
}
