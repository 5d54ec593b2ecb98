// End-to-end capture/replay oracle: a live mix run recorded via
// TraceRecorder and replayed via StreamingTraceWorkload must reproduce
// the live run's System::Stats, exec_time and retired-instruction count
// byte-identically — for both trace formats, and after a text -> framed
// conversion. This is the differential-oracle pattern of
// docs/testing.md applied to the capture/replay loop: the live run is
// the reference, the recorded artifact plus the streaming reader is the
// system under test.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "analysis/perf_experiment.h"
#include "sim/simulation.h"
#include "tests/sim/test_configs.h"
#include "workload/stream_trace.h"
#include "workload/trace_codec.h"

namespace pipo {
namespace {

namespace fs = std::filesystem;

constexpr unsigned kMix = 1;
constexpr std::uint64_t kInstrBudget = 5000;
constexpr std::uint64_t kWsDivisor = 16;
constexpr std::uint64_t kSeed = 2026;

void expect_identical(const MixPerfResult& replay, const MixPerfResult& live,
                      const std::string& label) {
  EXPECT_EQ(replay.exec_time, live.exec_time) << label;
  EXPECT_EQ(replay.instructions, live.instructions) << label;
  EXPECT_EQ(replay.prefetches, live.prefetches) << label;
  EXPECT_EQ(replay.captures, live.captures) << label;
#define PIPO_X(field) \
  EXPECT_EQ(replay.stats.field, live.stats.field) << label << ": " << #field;
  PIPO_SYSTEM_STATS(PIPO_X)
#undef PIPO_X
}

SystemConfig config_for(DefenseKind defense) {
  SystemConfig cfg = testcfg::mini();
  cfg.defense = defense;
  cfg.monitor.enabled = (defense == DefenseKind::kPiPoMonitor);
  return cfg;
}

std::string fresh_dir(const std::string& name) {
  const std::string dir =
      testing::TempDir() + "pipo_replay_e2e_" + name;
  fs::remove_all(dir);
  return dir;
}

// The core acceptance loop: capture a live run in each format, replay
// it streaming, compare everything — under both an undefended machine
// and the PiPoMonitor (crossing the monitor/prefetch paths).
TEST(TraceReplayE2E, RecordedRunReplaysByteIdentically) {
  for (DefenseKind defense :
       {DefenseKind::kNone, DefenseKind::kPiPoMonitor}) {
    const SystemConfig cfg = config_for(defense);
    for (TraceFormat fmt : {TraceFormat::kTextV1, TraceFormat::kFramedV3}) {
      const std::string label = std::string(to_string(defense)) + "/" +
                                to_string(fmt);
      const std::string dir = fresh_dir(label.substr(0, label.find('/')) +
                                        std::string("_") + to_string(fmt));
      const TraceCapture capture{dir, fmt};
      const MixPerfResult live =
          run_mix_perf(kMix, cfg, kInstrBudget, kSeed, kWsDivisor,
                       &capture);
      const MixPerfResult replay = run_trace_perf(dir, cfg);
      expect_identical(replay, live, label);
      fs::remove_all(dir);
    }
  }
}

// Recording must be invisible: a recorded run's results equal an
// unrecorded run's.
TEST(TraceReplayE2E, RecordingDoesNotPerturbTheRun) {
  const SystemConfig cfg = config_for(DefenseKind::kPiPoMonitor);
  const std::string dir = fresh_dir("perturb");
  const TraceCapture capture{dir, TraceFormat::kFramedV3};
  const MixPerfResult recorded =
      run_mix_perf(kMix, cfg, kInstrBudget, kSeed, kWsDivisor, &capture);
  const MixPerfResult plain =
      run_mix_perf(kMix, cfg, kInstrBudget, kSeed, kWsDivisor);
  expect_identical(recorded, plain, "recorded-vs-plain");
  fs::remove_all(dir);
}

// Converting the capture text -> framed must not change the replay
// either (the tools/trace_convert loop, in-process).
TEST(TraceReplayE2E, ConvertedCaptureReplaysIdentically) {
  const SystemConfig cfg = config_for(DefenseKind::kPiPoMonitor);
  const std::string dir = fresh_dir("convert_src");
  const std::string conv = fresh_dir("convert_dst");
  const TraceCapture capture{dir, TraceFormat::kTextV1};
  const MixPerfResult live =
      run_mix_perf(kMix, cfg, kInstrBudget, kSeed, kWsDivisor, &capture);

  fs::create_directories(conv);
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto trace = load_trace_file_auto(entry.path().string());
    save_trace_file_as((fs::path(conv) / entry.path().filename()).string(),
                       trace, TraceFormat::kFramedV3);
  }
  const MixPerfResult replay = run_trace_perf(conv, cfg);
  expect_identical(replay, live, "converted");
  fs::remove_all(dir);
  fs::remove_all(conv);
}

// Teeth: replaying a *different* capture (another seed) must diverge —
// the byte-identical comparison above cannot pass vacuously.
TEST(TraceReplayE2E, DifferentSeedCaptureDiverges) {
  const SystemConfig cfg = config_for(DefenseKind::kNone);
  const std::string dir = fresh_dir("teeth");
  const TraceCapture capture{dir, TraceFormat::kFramedV3};
  const MixPerfResult live =
      run_mix_perf(kMix, cfg, kInstrBudget, kSeed, kWsDivisor, &capture);
  const std::string dir2 = fresh_dir("teeth2");
  const TraceCapture capture2{dir2, TraceFormat::kFramedV3};
  run_mix_perf(kMix, cfg, kInstrBudget, kSeed + 1, kWsDivisor, &capture2);
  const MixPerfResult other = run_trace_perf(dir2, cfg);
  EXPECT_NE(other.exec_time, live.exec_time);
  fs::remove_all(dir);
  fs::remove_all(dir2);
}

// A single-file scenario drives core 0 and leaves the rest idle.
TEST(TraceReplayE2E, SingleFileScenarioRuns) {
  const SystemConfig cfg = config_for(DefenseKind::kNone);
  const std::string dir = fresh_dir("single");
  const TraceCapture capture{dir, TraceFormat::kTextV1};
  run_mix_perf(kMix, cfg, kInstrBudget, kSeed, kWsDivisor, &capture);
  const MixPerfResult r = run_trace_perf(dir + "/core0.trace", cfg);
  EXPECT_GT(r.instructions, 0u);
  EXPECT_GT(r.stats.accesses, 0u);
  fs::remove_all(dir);
}

// A scenario recorded on a bigger machine must be rejected, not
// silently truncated to the cores this config has.
TEST(TraceReplayE2E, ScenarioForMissingCoreThrows) {
  const SystemConfig cfg = config_for(DefenseKind::kNone);  // 4 cores
  const std::string dir = fresh_dir("too_many_cores");
  fs::create_directories(dir);
  for (CoreId c : {CoreId{0}, CoreId{4}}) {
    std::ofstream f(dir + "/core" + std::to_string(c) + ".trace");
    f << "1000 L 0\n";
  }
  try {
    run_trace_perf(dir, cfg);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("core 4"), std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

// Zero-padded names would pass the core-range validation but never be
// probed by the canonical-name assignment loop — reject them outright.
TEST(TraceReplayE2E, ZeroPaddedCoreNameThrows) {
  const SystemConfig cfg = config_for(DefenseKind::kNone);
  const std::string dir = fresh_dir("zero_padded");
  fs::create_directories(dir);
  for (const char* name : {"core0.trace", "core01.trace"}) {
    std::ofstream f(dir + "/" + name);
    f << "1000 L 0\n";
  }
  try {
    run_trace_perf(dir, cfg);
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("non-canonical"),
              std::string::npos)
        << e.what();
  }
  fs::remove_all(dir);
}

// Captures need not start at core 0: a core1-only scenario drives
// core 1 and idles the rest.
TEST(TraceReplayE2E, ScenarioWithoutCore0Replays) {
  const SystemConfig cfg = config_for(DefenseKind::kNone);
  const std::string dir = fresh_dir("no_core0");
  fs::create_directories(dir);
  {
    std::ofstream f(dir + "/core1.trace");
    f << "1000 L 0\n2000 S 3\n";
  }
  const MixPerfResult r = run_trace_perf(dir, cfg);
  EXPECT_EQ(r.stats.accesses, 2u);
  fs::remove_all(dir);
}

// A single file aimed at a core the machine does not have must throw,
// not silently replay an all-idle simulation.
TEST(TraceReplayE2E, SingleFileOnOutOfRangeCoreThrows) {
  const SystemConfig cfg = config_for(DefenseKind::kNone);  // 4 cores
  const std::string dir = fresh_dir("out_of_range_core");
  fs::create_directories(dir);
  const std::string file = dir + "/core0.trace";
  {
    std::ofstream f(file);
    f << "1000 L 0\n";
  }
  Simulation sim(cfg);
  EXPECT_EQ(assign_trace_scenario(sim, file, 3), 1u);
  Simulation sim2(cfg);
  EXPECT_THROW(assign_trace_scenario(sim2, file, 4), std::runtime_error);
  fs::remove_all(dir);
}

// Headline bugfix repro: a zero-request trace file — truncated to
// nothing, whitespace-only text, or a framed container with no frames —
// used to decode as a clean empty trace and silently replay as
// an idle core, skewing scenario stats (the same silent-failure class
// as misnamed core files). Scenario loading must reject it naming the
// file; direct codec users keep the permissive behavior.
TEST(TraceReplayE2E, ZeroRequestTraceFileThrowsNamingTheFile) {
  const SystemConfig cfg = config_for(DefenseKind::kNone);
  const auto write_file = [](const std::string& path,
                             const std::string& bytes) {
    std::ofstream f(path, std::ios::binary);
    f << bytes;
  };
  std::stringstream no_frames;
  save_trace_as(no_frames, {}, TraceFormat::kFramedV3);
  struct Case {
    const char* name;
    std::string bytes;
  };
  for (const Case& c :
       {Case{"empty", ""}, Case{"whitespace", "\n  \n# comment only\n"},
        Case{"no_frames", no_frames.str()}}) {
    const std::string dir = fresh_dir(std::string("zero_req_") + c.name);
    fs::create_directories(dir);
    const std::string file = dir + "/core1.trace";
    write_file(dir + "/core0.trace", "1000 L 0\n");  // one healthy core
    write_file(file, c.bytes);
    try {
      run_trace_perf(dir, cfg);
      FAIL() << c.name << ": zero-request trace replayed silently";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(file), std::string::npos)
          << c.name << ": diagnostic must name the file, got: " << e.what();
    }
    // The single-file path must reject it too.
    EXPECT_THROW(run_trace_perf(file, cfg), std::runtime_error) << c.name;
    fs::remove_all(dir);
  }
}

// Direct codec users keep the permissive behavior: an empty stream is a
// clean zero-request trace for the decoders themselves.
TEST(TraceReplayE2E, DirectCodecUsersStillAcceptEmptyTraces) {
  std::istringstream empty_text("");
  EXPECT_TRUE(load_trace_auto(empty_text).empty());
  std::stringstream no_frames;
  save_trace_as(no_frames, {}, TraceFormat::kFramedV3);
  EXPECT_TRUE(load_trace_auto(no_frames).empty());
}

TEST(TraceReplayE2E, EmptyScenarioDirectoryThrows) {
  const std::string dir = fresh_dir("empty");
  fs::create_directories(dir);
  EXPECT_THROW(run_trace_perf(dir, config_for(DefenseKind::kNone)),
               std::runtime_error);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace pipo
