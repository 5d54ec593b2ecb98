// The sweep runner's scaling record must degrade gracefully on hosts
// that cannot demonstrate thread scaling: a single-hardware-thread
// machine emits *no* record rather than a meaningless configs/sec
// number labeled as scaling data.
#include <thread>

#include <gtest/gtest.h>

#include "analysis/scaling_record.h"

namespace pipo {
namespace {

SweepScaling sample() {
  SweepScaling s;
  s.hw_threads = 8;
  s.threads = 4;
  s.configs = 120;
  s.sweep_seconds = 10.0;
  return s;
}

TEST(ScalingRecord, SingleHardwareThreadEmitsNothing) {
  SweepScaling s = sample();
  s.hw_threads = 1;
  EXPECT_EQ(scaling_record_json(s), "");
  s.hw_threads = 0;  // hardware_concurrency() may legally return 0
  EXPECT_EQ(scaling_record_json(s), "");
}

TEST(ScalingRecord, DegenerateSweepsEmitNothing) {
  SweepScaling s = sample();
  s.configs = 0;
  EXPECT_EQ(scaling_record_json(s), "");
  s = sample();
  s.sweep_seconds = 0.0;
  EXPECT_EQ(scaling_record_json(s), "");
}

TEST(ScalingRecord, MultiCoreHostEmitsFullRecord) {
  const std::string j = scaling_record_json(sample());
  EXPECT_NE(j.find("\"scaling\""), std::string::npos);
  EXPECT_NE(j.find("\"hw_threads\": 8"), std::string::npos);
  EXPECT_NE(j.find("\"threads\": 4"), std::string::npos);
  EXPECT_NE(j.find("\"configs\": 120"), std::string::npos);
  EXPECT_NE(j.find("\"configs_per_sec\": 12.00"), std::string::npos);
}

TEST(ScalingRecord, ThisHostBehavesPerItsConcurrency) {
  // Whatever machine runs the suite, the record's presence must agree
  // with its hardware concurrency — on a 1-core host this pins the
  // graceful fallback end to end.
  SweepScaling s = sample();
  s.hw_threads = std::thread::hardware_concurrency();
  const std::string j = scaling_record_json(s);
  if (s.hw_threads <= 1) {
    EXPECT_EQ(j, "");
  } else {
    EXPECT_NE(j.find("\"scaling\""), std::string::npos);
  }
}

}  // namespace
}  // namespace pipo
