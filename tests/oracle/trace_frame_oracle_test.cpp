// Differential oracles for the framed trace container
// (workload/trace_frame.h), in the pattern of docs/testing.md:
//
//  * the text v1 codec — line-per-request, the seed's only trace path —
//    is the reference implementation: randomized traces must decode
//    identically through framed containers at adversarial frame sizes,
//    read whole and through a stream buffer that refills one byte at a
//    time (so every header field, checksum, varint, payload and index
//    field straddles a refill), and a teeth test proves that comparison
//    can fail;
//  * seek replay: for random frame boundaries k, replaying a framed
//    file from frame k must equal the tail of a full replay — the
//    request stream AND the simulated System::Stats, so the seek path
//    can never drift from the only-path-that-existed-before semantics;
//  * a teeth test proves the stats comparison can fail.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/simulation.h"
#include "tests/sim/test_configs.h"
#include "tests/workload/one_byte_streambuf.h"
#include "workload/trace.h"
#include "workload/trace_codec.h"
#include "workload/trace_frame.h"

namespace pipo {
namespace {

namespace fs = std::filesystem;

MemRequest random_request(Rng& rng) {
  MemRequest r;
  switch (rng.next() % 8) {
    case 0: r.addr = 0; break;
    case 1: r.addr = ~Addr{0}; break;  // full 64-bit corner
    case 2: r.addr = (1ull << 48) - 1; break;
    default: r.addr = rng.next() & ((1ull << 48) - 1); break;
  }
  r.type = static_cast<AccessType>(rng.next() % 3);
  r.bypass_private = (rng.next() & 1) != 0;
  r.pre_delay = (rng.next() & 7) == 0 ? 0xFFFFFFFFu
                                      : static_cast<std::uint32_t>(
                                            rng.next() & 0xFFFF);
  return r;
}

void expect_equal(const std::vector<MemRequest>& got,
                  const std::vector<MemRequest>& want,
                  const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].addr, want[i].addr) << label << " req " << i;
    ASSERT_EQ(got[i].type, want[i].type) << label << " req " << i;
    ASSERT_EQ(got[i].pre_delay, want[i].pre_delay) << label << " req " << i;
    ASSERT_EQ(got[i].bypass_private, want[i].bypass_private)
        << label << " req " << i;
  }
}

std::vector<MemRequest> drain(Workload& w) {
  std::vector<MemRequest> out;
  while (auto r = w.next(0)) out.push_back(*r);
  return out;
}

// Framed decode must agree with the text reference on the same request
// stream, for adversarial frame sizes, read whole and a byte at a time.
TEST(TraceFrameDifferential, FramedAgreesWithTextReference) {
  for (std::uint64_t seed = 0; seed < 150; ++seed) {
    Rng rng(seed * 0x9E3779B97F4A7C15ull + 7);
    std::vector<MemRequest> t(1 + rng.next() % 64);
    for (auto& r : t) r = random_request(rng);
    const std::string label = "seed " + std::to_string(seed);

    // Reference: text v1 round trip.
    std::stringstream text;
    save_trace_as(text, t, TraceFormat::kTextV1);
    const std::vector<MemRequest> reference = load_trace_auto(text);
    expect_equal(reference, t, label + " text");

    FramedTraceOptions opts;
    opts.frame_requests = 1 + rng.next() % 17;
    std::ostringstream os(std::ios::binary);
    {
      FramedTraceEncoder enc(os, opts);
      for (const MemRequest& r : t) enc.put(r);
      enc.finish();
    }
    const std::string bytes = os.str();
    std::istringstream whole(bytes, std::ios::binary);
    testbuf::OneByteStreambuf buf(bytes);
    std::istream one_byte(&buf);
    for (std::istream* is : {static_cast<std::istream*>(&whole), &one_byte}) {
      FramedTraceDecoder dec(*is);
      std::vector<MemRequest> got;
      while (auto r = dec.next()) got.push_back(*r);
      expect_equal(got, reference,
                   label + " frame_requests=" +
                       std::to_string(opts.frame_requests) +
                       (is == &whole ? " whole" : " one byte at a time"));
    }
  }
}

// Teeth: a flipped bypass bit under a recomputed checksum must be
// visible in the decode (the equality above cannot pass vacuously).
TEST(TraceFrameDifferential, ComparisonHasTeeth) {
  MemRequest r;
  r.addr = 0x1234C0;
  std::ostringstream os(std::ios::binary);
  {
    FramedTraceEncoder enc(os);
    enc.put(r);
    enc.finish();
  }
  std::string bytes = os.str();
  // magic(8), marker, request count 1, payload and raw lengths (one
  // byte each for a one-record frame), crc32 at 12..15, payload at 16.
  ASSERT_EQ(bytes[9], 1);
  const auto payload_len = static_cast<std::size_t>(bytes[10]);
  ASSERT_EQ(bytes[11], bytes[10]);
  bytes[16] ^= 0x04;  // the record's flags byte: flip bypass_private
  const std::uint32_t crc = framed_crc32(
      reinterpret_cast<const std::uint8_t*>(bytes.data()) + 16, payload_len);
  for (int i = 0; i < 4; ++i) {
    bytes[12 + i] = static_cast<char>((crc >> (8 * i)) & 0xFF);
  }
  std::istringstream is(bytes, std::ios::binary);
  FramedTraceDecoder dec(is);
  const auto back = dec.next();
  ASSERT_TRUE(back.has_value());
  EXPECT_NE(back->bypass_private, r.bypass_private);
  EXPECT_EQ(back->addr, r.addr);
  EXPECT_FALSE(dec.next().has_value());
}

// ------------------------------------------------------- seek vs. tail

struct ReplayResult {
  Tick exec_time;
  System::Stats stats;
};

ReplayResult replay_on_core0(std::unique_ptr<Workload> w) {
  Simulation sim(testcfg::mini());
  sim.set_workload(0, std::move(w));
  for (CoreId c = 1; c < sim.num_cores(); ++c) {
    sim.set_workload(c, std::make_unique<IdleWorkload>());
  }
  ReplayResult r;
  r.exec_time = sim.run();
  r.stats = sim.system().stats();
  return r;
}

void expect_stats_identical(const ReplayResult& got, const ReplayResult& want,
                            const std::string& label) {
  EXPECT_EQ(got.exec_time, want.exec_time) << label;
#define PIPO_X(field) \
  EXPECT_EQ(got.stats.field, want.stats.field) << label << ": " << #field;
  PIPO_SYSTEM_STATS(PIPO_X)
#undef PIPO_X
}

class TraceFrameSeekOracle : public ::testing::Test {
 protected:
  // One directory per test and process: under `ctest -j` each case runs
  // in its own process, and a shared name let one case's TearDown delete
  // the other's trace mid-run.
  void SetUp() override {
    const ::testing::TestInfo* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = testing::TempDir();
    dir_ += "pipo_";
    dir_ += info->test_suite_name();
    dir_ += '_';
    dir_ += info->name();
    dir_ += '_';
    dir_ += std::to_string(getpid());
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  std::string dir_;
};

TEST_F(TraceFrameSeekOracle, SeekReplayEqualsTailOfFullReplay) {
  // Cache-friendly addresses (small strides) so the replays actually
  // exercise hits, evictions and the monitor, not just misses.
  Rng rng(0xF00DF00Dull);
  std::vector<MemRequest> t(600);
  for (std::size_t i = 0; i < t.size(); ++i) {
    MemRequest r;
    r.addr = ((rng.next() % 96) << 6) + (rng.next() & 63);
    r.type = static_cast<AccessType>(rng.next() % 3);
    r.bypass_private = (rng.next() % 5) == 0;
    r.pre_delay = static_cast<std::uint32_t>(rng.next() % 4);
    t[i] = r;
  }
  const std::string path = dir_ + "/seek.trace";
  {
    std::ofstream f(path, std::ios::binary);
    FramedTraceOptions opts;
    opts.frame_requests = 48;
    FramedTraceEncoder enc(f, opts);
    for (const MemRequest& r : t) enc.put(r);
    enc.finish();
  }

  FramedTraceFile file(path);
  ASSERT_EQ(file.total_requests(), t.size());
  const std::size_t n_frames = file.frames().size();
  ASSERT_GE(n_frames, 10u);

  // Full decode once — the reference the tails are cut from.
  const std::vector<MemRequest> full = drain(*file.workload_from_frame(0));
  expect_equal(full, t, "full decode");

  // Random frame boundaries, plus both ends.
  std::vector<std::size_t> ks = {0, 1, n_frames - 1, n_frames};
  for (int i = 0; i < 6; ++i) ks.push_back(rng.next() % (n_frames + 1));
  for (const std::size_t k : ks) {
    const std::string label = "frame " + std::to_string(k);
    const std::uint64_t first =
        k == n_frames ? t.size() : file.frames()[k].first_request;
    const std::vector<MemRequest> tail(t.begin() + first, t.end());

    // Axis 1: the decoded request stream.
    const std::vector<MemRequest> got = drain(*file.workload_from_frame(k));
    expect_equal(got, tail, label);

    // Axis 2: the simulated stats, seek replay vs. materialized tail.
    const ReplayResult want =
        replay_on_core0(std::make_unique<TraceWorkload>(tail));
    expect_stats_identical(
        replay_on_core0(file.workload_from_frame(k)), want, label);
  }
}

// Teeth: a tail starting one request later must NOT replay
// stats-identically — proves the comparison can fail.
TEST_F(TraceFrameSeekOracle, ComparisonHasTeeth) {
  Rng rng(0xBEEF);
  std::vector<MemRequest> t(200);
  for (auto& r : t) {
    r.addr = ((rng.next() % 32) << 6);
    r.type = AccessType::kLoad;
    r.pre_delay = 1;
  }
  const ReplayResult a =
      replay_on_core0(std::make_unique<TraceWorkload>(t));
  const ReplayResult b = replay_on_core0(std::make_unique<TraceWorkload>(
      std::vector<MemRequest>(t.begin() + 1, t.end())));
  EXPECT_NE(a.stats.accesses, b.stats.accesses);
}

}  // namespace
}  // namespace pipo
