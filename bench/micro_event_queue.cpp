// Event-queue engine microbenchmark: the production EventQueue (a sorted
// array of inline events) against the oracle's ReferenceEventQueue, the
// seed engine (std::function in a binary std::priority_queue).
//
// One workload, `chains`, at the two depths the simulator's queue spans:
// self-rescheduling events with deltas of 1-64 ticks, each callable
// capturing one context pointer. Every blocking core keeps one step or
// issue event in flight and Simulation one uncore tick, so
//  * chains at 5 pending events is the Table II machine (4 cores plus
//    the uncore tick);
//  * chains at 33 is SystemConfig's 32-core cap plus the uncore tick.
// The simulator's own deltas are longer (a DRAM completion lands 200+
// ticks out), which moves where an insertion lands, not how many events
// it can pass.
//
// Reports events/sec and heap allocations per event (via a counting
// global operator new), human-readable by default, one JSON object with
// --json for BENCH_engine.json trajectories.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>

#include "sim/event_queue.h"
#include "tests/oracle/reference_event_queue.h"

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
// Over-aligned forms tick the same counter, so an allocation counts
// whatever its alignment and the two queues are counted alike.
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

/// `depth` self-rescheduling chains, `total` events overall. Each
/// callable captures one context pointer, the shape of the simulator's
/// `[this]` lambdas, so the queue stays `depth` events deep.
template <typename Queue>
Measurement chains(unsigned depth, std::uint64_t total) {
  struct Context {
    Queue q;
    std::uint64_t remaining;
    std::uint64_t rng;
  };
  struct Chain {
    Context* c;
    void operator()() const {
      if (c->remaining == 0) return;
      --c->remaining;
      c->q.schedule_in(1 + (splitmix(c->rng) & 63), Chain{c});
    }
  };

  Context ctx{Queue{}, total, 42};
  for (unsigned i = 0; i < depth; ++i) ctx.q.schedule(i, Chain{&ctx});
  // Warm up past vector growth so the steady state is measured.
  for (int i = 0; i < 1024; ++i) ctx.q.run_one();

  const std::uint64_t allocs0 = g_allocs;
  const auto t0 = std::chrono::steady_clock::now();
  const std::uint64_t n = ctx.q.run_all();
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
  constexpr unsigned kDepths[] = {5, 33};

  // Best-of-N: the throughput ceiling is the engine's property, the
  // slower repetitions are the machine's (scheduler preemption, shared
  // box). allocs/event is deterministic and identical across reps.
  auto best = [](Measurement a, Measurement b) {
    return a.events_per_sec >= b.events_per_sec ? a : b;
  };
  Measurement reference[2], engine[2];
  for (int r = 0; r < kReps; ++r) {
    for (int d = 0; d < 2; ++d) {
      reference[d] =
          best(reference[d],
               chains<pipo::oracle::ReferenceEventQueue>(kDepths[d], kTotal));
      engine[d] =
          best(engine[d], chains<pipo::EventQueue>(kDepths[d], kTotal));
    }
  }

  if (json) {
    std::printf("{\"bench\":\"micro_event_queue\",\"events\":%llu,"
                "\"shapes\":[",
                static_cast<unsigned long long>(kTotal));
    for (int d = 0; d < 2; ++d) {
      std::printf(
          "%s{\"name\":\"chains\",\"pending\":%u,\"reference_eps\":%.0f,"
          "\"engine_eps\":%.0f,\"speedup\":%.2f,"
          "\"reference_allocs_per_event\":%.3f,"
          "\"engine_allocs_per_event\":%.3f}",
          d ? "," : "", kDepths[d], reference[d].events_per_sec,
          engine[d].events_per_sec,
          engine[d].events_per_sec / reference[d].events_per_sec,
          reference[d].allocs_per_event, engine[d].allocs_per_event);
    }
    std::printf("]}\n");
    return 0;
  }

  std::printf("micro_event_queue: %llu events per workload\n\n",
              static_cast<unsigned long long>(kTotal));
  std::printf("%-22s %15s %15s %9s\n", "workload", "events/sec",
              "allocs/event", "speedup");
  for (int d = 0; d < 2; ++d) {
    char label[32];
    std::snprintf(label, sizeof label, "chains %-2u reference", kDepths[d]);
    std::printf("%-22s %15.2e %15.3f %9s\n", label,
                reference[d].events_per_sec, reference[d].allocs_per_event,
                "");
    std::snprintf(label, sizeof label, "chains %-2u engine", kDepths[d]);
    std::printf("%-22s %15.2e %15.3f %8.2fx\n", label,
                engine[d].events_per_sec, engine[d].allocs_per_event,
                engine[d].events_per_sec / reference[d].events_per_sec);
  }
  return 0;
}
