// Streaming trace subsystem (workload/stream_trace.h): streaming replay
// equals whole-vector replay for both formats, a trace spanning many
// frames replays in full (the ASan CI leg additionally watches this
// test for leaks/overflows), and TraceRecorder captures exactly the
// stream the simulation consumed.
#include "workload/stream_trace.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "workload/profile.h"
#include "workload/synthetic.h"
#include "workload/trace.h"
#include "workload/trace_frame.h"

namespace pipo {
namespace {

std::vector<MemRequest> random_trace(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<MemRequest> t(n);
  for (auto& r : t) {
    r.addr = rng.next() & ((1ull << 48) - 1);
    r.type = static_cast<AccessType>(rng.next() % 3);
    r.bypass_private = (rng.next() & 3) == 0;
    r.pre_delay = static_cast<std::uint32_t>(rng.next() & 1023);
  }
  return t;
}

constexpr TraceFormat kAllFormats[] = {TraceFormat::kTextV1,
                                       TraceFormat::kFramedV3};

/// Framed traces are packed 50 requests per frame, so every replay
/// crosses frame boundaries.
constexpr std::size_t kFrameRequests = 50;

std::unique_ptr<std::istream> encoded_stream(
    const std::vector<MemRequest>& t, TraceFormat fmt) {
  auto ss = std::make_unique<std::stringstream>();
  if (fmt == TraceFormat::kFramedV3) {
    FramedTraceOptions opts;
    opts.frame_requests = kFrameRequests;
    FramedTraceEncoder enc(*ss, opts);
    for (const MemRequest& r : t) enc.put(r);
    enc.finish();
  } else {
    save_trace_as(*ss, t, fmt);
  }
  return ss;
}

TEST(StreamingTrace, MatchesVectorReplayBothFormats) {
  const auto t = random_trace(777, 1);
  for (TraceFormat fmt : kAllFormats) {
    StreamingTraceWorkload streaming(encoded_stream(t, fmt));
    TraceWorkload vec(t);
    // Decoding ahead consumes nothing: next() below must still start at
    // request 0.
    ASSERT_TRUE(streaming.has_requests()) << to_string(fmt);
    EXPECT_EQ(streaming.replayed(), 0u) << to_string(fmt);
    for (std::size_t i = 0;; ++i) {
      const auto a = streaming.next(0);
      const auto b = vec.next(0);
      ASSERT_EQ(a.has_value(), b.has_value())
          << to_string(fmt) << " req " << i;
      if (!a) break;
      EXPECT_EQ(a->addr, b->addr) << to_string(fmt) << " req " << i;
      EXPECT_EQ(a->type, b->type) << to_string(fmt) << " req " << i;
      EXPECT_EQ(a->pre_delay, b->pre_delay)
          << to_string(fmt) << " req " << i;
      EXPECT_EQ(a->bypass_private, b->bypass_private)
          << to_string(fmt) << " req " << i;
    }
    EXPECT_EQ(streaming.replayed(), t.size());
  }
}

// A trace of 129 frames, the last one partial, replays in full. (Run
// under the ASan CI leg, this also proves the decode loop neither leaks
// nor overflows.)
TEST(StreamingTrace, ChunkBufferStaysFixedOnLargeTrace) {
  constexpr std::size_t kRequests = 128 * kFrameRequests + 13;
  const auto t = random_trace(kRequests, 2);
  for (TraceFormat fmt : kAllFormats) {
    StreamingTraceWorkload w(encoded_stream(t, fmt));
    std::size_t n = 0;
    while (w.next(0)) ++n;
    EXPECT_EQ(n, kRequests) << to_string(fmt);
  }
}

TEST(StreamingTrace, MalformedStreamThrowsFromNext) {
  // Requests are decoded one at a time: the first next() returns the
  // good line and only the second reaches the bad one.
  auto ss = std::make_unique<std::stringstream>("1000 L 0\nbogus\n");
  StreamingTraceWorkload w(std::move(ss));
  EXPECT_TRUE(w.next(0).has_value());
  EXPECT_THROW(w.next(0), std::invalid_argument);
}

TEST(StreamingTrace, MissingFileThrows) {
  EXPECT_THROW(StreamingTraceWorkload("/nonexistent/trace.bin"),
               std::runtime_error);
}

TEST(TraceRecorderTest, CapturesExactlyTheConsumedStream) {
  const auto t = random_trace(200, 3);
  for (TraceFormat fmt : kAllFormats) {
    auto sink = std::make_unique<std::stringstream>();
    std::stringstream* sink_view = sink.get();
    TraceRecorder rec(std::make_unique<TraceWorkload>(t), std::move(sink),
                      fmt);
    // Consume only half the stream: the capture must hold exactly the
    // consumed prefix, not the whole inner workload.
    for (std::size_t i = 0; i < t.size() / 2; ++i) {
      const auto r = rec.next(0);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->addr, t[i].addr) << i;
    }
    rec.finish();
    EXPECT_EQ(rec.recorded(), t.size() / 2);
    const auto captured = load_trace_auto(*sink_view);
    ASSERT_EQ(captured.size(), t.size() / 2) << to_string(fmt);
    for (std::size_t i = 0; i < captured.size(); ++i) {
      EXPECT_EQ(captured[i].addr, t[i].addr) << i;
      EXPECT_EQ(captured[i].type, t[i].type) << i;
      EXPECT_EQ(captured[i].pre_delay, t[i].pre_delay) << i;
      EXPECT_EQ(captured[i].bypass_private, t[i].bypass_private) << i;
    }
  }
}

TEST(TraceRecorderTest, ForwardsOnCompleteToInner) {
  auto inner = std::make_unique<TraceWorkload>(random_trace(4, 4));
  TraceWorkload* inner_view = inner.get();
  TraceRecorder rec(std::move(inner),
                    std::make_unique<std::stringstream>(),
                    TraceFormat::kTextV1);
  const auto r = rec.next(0);
  ASSERT_TRUE(r.has_value());
  rec.on_complete(*r, 10, 25);
  ASSERT_EQ(inner_view->latencies().size(), 1u);
  EXPECT_EQ(inner_view->latencies()[0], 15u);
}

// Snapshot-and-replay of a synthetic workload: the recorded stream
// replays identically to a second, identically-seeded generator run.
TEST(TraceRecorderTest, SyntheticSnapshotReplaysDeterministically) {
  const BenchmarkProfile profile = spec_profile("mcf", 256);
  constexpr std::uint64_t kBudget = 5000;
  constexpr std::uint64_t kSeed = 99;
  const Addr base = SyntheticWorkload::disjoint_base(0);

  auto sink = std::make_unique<std::stringstream>();
  std::stringstream* sink_view = sink.get();
  TraceRecorder rec(
      std::make_unique<SyntheticWorkload>(profile, base, kBudget, kSeed),
      std::move(sink), TraceFormat::kFramedV3);
  while (rec.next(0)) {
  }
  rec.finish();

  StreamingTraceWorkload replay(
      std::make_unique<std::stringstream>(sink_view->str()));
  SyntheticWorkload fresh(profile, base, kBudget, kSeed);
  for (std::size_t i = 0;; ++i) {
    const auto a = replay.next(0);
    const auto b = fresh.next(0);
    ASSERT_EQ(a.has_value(), b.has_value()) << i;
    if (!a) break;
    EXPECT_EQ(a->addr, b->addr) << i;
    EXPECT_EQ(a->type, b->type) << i;
    EXPECT_EQ(a->pre_delay, b->pre_delay) << i;
    EXPECT_EQ(a->bypass_private, b->bypass_private) << i;
  }
  EXPECT_EQ(replay.replayed(), rec.recorded());
}

}  // namespace
}  // namespace pipo
