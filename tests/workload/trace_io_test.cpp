// Text v1 codec (workload/trace_codec.h): the grammar, its diagnostics
// and both directions of the fidelity contract, through the whole-trace
// wrappers.
#include "workload/trace_codec.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

namespace pipo {
namespace {

std::vector<MemRequest> sample_trace() {
  std::vector<MemRequest> t;
  MemRequest a;
  a.addr = 0x1000;
  a.type = AccessType::kLoad;
  a.pre_delay = 3;
  MemRequest b;
  b.addr = 0xDEADBEEF40;
  b.type = AccessType::kStore;
  MemRequest c;
  c.addr = 0x42;
  c.type = AccessType::kInstFetch;
  c.pre_delay = 100;
  MemRequest d;
  d.addr = 0x77C0;
  d.type = AccessType::kLoad;
  d.bypass_private = true;
  t.insert(t.end(), {a, b, c, d});
  return t;
}

/// All 6 (type x bypass) combinations — including the bypass store and
/// bypass inst-fetch the pre-fix 'P' encoding collapsed to bypass load.
std::vector<MemRequest> all_combinations() {
  std::vector<MemRequest> t;
  std::uint32_t delay = 0;
  for (AccessType type : {AccessType::kLoad, AccessType::kStore,
                          AccessType::kInstFetch}) {
    for (bool bypass : {false, true}) {
      MemRequest r;
      r.addr = 0x4000 + (t.size() << 6);
      r.type = type;
      r.bypass_private = bypass;
      r.pre_delay = delay++;
      t.push_back(r);
    }
  }
  return t;
}

TEST(TraceIo, RoundTripsExactly) {
  const auto t = sample_trace();
  std::stringstream ss;
  save_trace_as(ss, t, TraceFormat::kTextV1);
  const auto back = load_trace_auto(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i].addr, t[i].addr) << i;
    EXPECT_EQ(back[i].type, t[i].type) << i;
    EXPECT_EQ(back[i].pre_delay, t[i].pre_delay) << i;
    EXPECT_EQ(back[i].bypass_private, t[i].bypass_private) << i;
  }
}

TEST(TraceIo, SkipsCommentsAndBlankLines) {
  std::stringstream ss("# header\n\n1000 L 0\n\n# mid comment\n2000 S 5\n");
  const auto t = load_trace_auto(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x1000u);
  EXPECT_EQ(t[1].addr, 0x2000u);
  EXPECT_EQ(t[1].type, AccessType::kStore);
  EXPECT_EQ(t[1].pre_delay, 5u);
}

TEST(TraceIo, ProbeLinesSetBypass) {
  std::stringstream ss("abc P 0\n");
  const auto t = load_trace_auto(ss);
  ASSERT_EQ(t.size(), 1u);
  EXPECT_TRUE(t[0].bypass_private);
  EXPECT_EQ(t[0].type, AccessType::kLoad);
}

// The headline contract fix: bypass_private is encoded orthogonally to
// the access type (lowercase letters), so a bypass store or bypass
// inst-fetch no longer reloads as a bypass *load*.
TEST(TraceIo, AllTypeBypassCombinationsRoundTrip) {
  const auto t = all_combinations();
  std::stringstream ss;
  save_trace_as(ss, t, TraceFormat::kTextV1);
  const auto back = load_trace_auto(ss);
  ASSERT_EQ(back.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(back[i].addr, t[i].addr) << i;
    EXPECT_EQ(back[i].type, t[i].type) << i;
    EXPECT_EQ(back[i].pre_delay, t[i].pre_delay) << i;
    EXPECT_EQ(back[i].bypass_private, t[i].bypass_private) << i;
  }
}

TEST(TraceIo, LowercaseLettersParseAsBypass) {
  std::stringstream ss("1000 l 0\n2000 s 1\n3000 i 2\n");
  const auto t = load_trace_auto(ss);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_EQ(t[0].type, AccessType::kLoad);
  EXPECT_EQ(t[1].type, AccessType::kStore);
  EXPECT_EQ(t[2].type, AccessType::kInstFetch);
  for (const auto& r : t) EXPECT_TRUE(r.bypass_private);
}

// save(load(s)) == s for canonical traces: what save wrote reparses and
// re-saves byte-identically (legacy 'P' is normalized to 'l', so it is
// canonical only after one round).
TEST(TraceIo, CanonicalTextIsAFixedPoint) {
  std::stringstream first;
  save_trace_as(first, all_combinations(), TraceFormat::kTextV1);
  const std::string canonical = first.str();
  std::stringstream in(canonical), second;
  save_trace_as(second, load_trace_auto(in), TraceFormat::kTextV1);
  EXPECT_EQ(second.str(), canonical);
}

TEST(TraceIo, RejectsNegativePreDelay) {
  // Pre-fix behavior: unsigned extraction wrapped "-5" to ~4e9 cycles.
  std::stringstream ss("1000 L -5\n");
  try {
    load_trace_auto(ss);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 1"), std::string::npos)
        << e.what();
  }
}

TEST(TraceIo, RejectsPlusSignAndOverflowPreDelay) {
  std::stringstream plus("1000 L +5\n");
  EXPECT_THROW(load_trace_auto(plus), std::invalid_argument);
  std::stringstream overflow("1000 L 4294967296\n");  // 2^32
  EXPECT_THROW(load_trace_auto(overflow), std::invalid_argument);
  std::stringstream max("1000 L 4294967295\n");  // 2^32 - 1 is fine
  EXPECT_EQ(load_trace_auto(max).at(0).pre_delay, 0xFFFFFFFFu);
}

TEST(TraceIo, RejectsNegativeAddress) {
  std::stringstream ss("-1000 L 5\n");
  EXPECT_THROW(load_trace_auto(ss), std::invalid_argument);
}

// The pre-PR-5 istream hex extraction accepted a 0x prefix; externally
// converted traces use it, so the hand-rolled parser must too.
TEST(TraceIo, AcceptsOptionalHexPrefix) {
  std::stringstream ss("0x1A40 L 0\n0XFF S 2\n");
  const auto t = load_trace_auto(ss);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[0].addr, 0x1A40u);
  EXPECT_EQ(t[1].addr, 0xFFu);
  std::stringstream bare_x("x40 L 0\n");
  EXPECT_THROW(load_trace_auto(bare_x), std::invalid_argument);
}

TEST(TraceIo, RejectsUnknownType) {
  std::stringstream ss("1000 X 0\n");
  EXPECT_THROW(load_trace_auto(ss), std::invalid_argument);
}

TEST(TraceIo, RejectsMalformedLineWithLineNumber) {
  std::stringstream ss("1000 L 0\nnot-a-trace-line\n");
  try {
    load_trace_auto(ss);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(TraceIo, RejectsTrailingTokens) {
  std::stringstream ss("1000 L 0 junk\n");
  EXPECT_THROW(load_trace_auto(ss), std::invalid_argument);
}

TEST(TraceIo, EmptyStreamGivesEmptyTrace) {
  std::stringstream ss;
  EXPECT_TRUE(load_trace_auto(ss).empty());
}

TEST(TraceIo, FileRoundTrip) {
  const std::string path = testing::TempDir() + "pipo_trace_test.txt";
  const auto t = sample_trace();
  save_trace_file_as(path, t, TraceFormat::kTextV1);
  const auto back = load_trace_file_auto(path);
  EXPECT_EQ(back.size(), t.size());
  std::remove(path.c_str());
}

TEST(TraceIo, MissingFileThrows) {
  EXPECT_THROW(load_trace_file_auto("/nonexistent/path/trace.txt"),
               std::runtime_error);
}

}  // namespace
}  // namespace pipo
