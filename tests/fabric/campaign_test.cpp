// Unit tests for the shared campaign layer (fabric/campaign.h):
// enumeration order (the config-id contract both sweep_runner and the
// fabric key on), structured error capture, the JSON record shapes, the
// in-process campaign runner, the shared campaign flags and the checked
// output writer.
#include "fabric/campaign.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/fuzzer.h"

namespace pipo {
namespace {

CampaignSpec small_spec() {
  CampaignSpec spec;
  spec.mix_lo = 1;
  spec.mix_hi = 2;
  spec.defenses = {DefenseKind::kNone, DefenseKind::kPiPoMonitor};
  spec.seeds = 2;
  spec.instr = 5'000;
  return spec;
}

TEST(Campaign, EnumerationOrderIsMixesOuterDefensesMiddleSeedsInner) {
  const auto keys = enumerate_campaign(small_spec());
  ASSERT_EQ(keys.size(), 8u);  // 2 mixes x 2 defenses x 2 seeds
  EXPECT_EQ(keys[0], (ConfigKey{1, DefenseKind::kNone, 42, -1}));
  EXPECT_EQ(keys[1], (ConfigKey{1, DefenseKind::kNone, 43, -1}));
  EXPECT_EQ(keys[2], (ConfigKey{1, DefenseKind::kPiPoMonitor, 42, -1}));
  EXPECT_EQ(keys[3], (ConfigKey{1, DefenseKind::kPiPoMonitor, 43, -1}));
  EXPECT_EQ(keys[4], (ConfigKey{2, DefenseKind::kNone, 42, -1}));
  EXPECT_EQ(keys[7], (ConfigKey{2, DefenseKind::kPiPoMonitor, 43, -1}));
}

TEST(Campaign, ScenariosFollowTheMixGrid) {
  CampaignSpec spec = small_spec();
  spec.seeds = 1;
  spec.scenarios = {{"a", "/nope/a"}, {"b", "/nope/b"}};
  const auto keys = enumerate_campaign(spec);
  // 2 mixes x 2 defenses x 1 seed, then 2 scenarios x 2 defenses.
  ASSERT_EQ(keys.size(), 8u);
  EXPECT_EQ(keys[4], (ConfigKey{0, DefenseKind::kNone, 42, 0}));
  EXPECT_EQ(keys[5], (ConfigKey{0, DefenseKind::kPiPoMonitor, 42, 0}));
  EXPECT_EQ(keys[6], (ConfigKey{0, DefenseKind::kNone, 42, 1}));
  EXPECT_EQ(keys[7], (ConfigKey{0, DefenseKind::kPiPoMonitor, 42, 1}));
}

TEST(Campaign, ValidateRejectsImpossibleCampaigns) {
  CampaignSpec spec = small_spec();
  spec.mix_lo = 3;
  spec.mix_hi = 2;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.defenses.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.run_mixes = false;  // and no scenarios
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = small_spec();
  spec.run_mixes = false;
  spec.scenarios = {{"a", "/nope/a"}};
  spec.record_dir = "/tmp/rec";  // capture without mixes
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  EXPECT_NO_THROW(small_spec().validate());
}

TEST(Campaign, RunCapturesPerConfigFailureAsStructuredError) {
  CampaignSpec spec = small_spec();
  spec.scenarios = {{"ghost", "/nonexistent/trace/path"}};
  // A config referencing a missing trace must not throw — it must come
  // back as an error record carrying its identity.
  const ConfigKey bad{0, DefenseKind::kNone, 42, 0};
  const ConfigResult r = run_campaign_config(spec, 6, bad);
  EXPECT_EQ(r.config_id, 6u);
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.trace_name, "ghost");

  const std::string json = config_result_json(r, /*include_wall=*/false);
  EXPECT_NE(json.find("\"config\": 6"), std::string::npos) << json;
  EXPECT_NE(json.find("\"trace\": \"ghost\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"error\": \""), std::string::npos) << json;
  // Error records never carry stats fields.
  EXPECT_EQ(json.find("\"exec_time\""), std::string::npos) << json;
}

TEST(Campaign, RunOutOfRangeScenarioIsAnErrorRecordNotACrash) {
  const CampaignSpec spec = small_spec();  // no scenarios
  const ConfigResult r =
      run_campaign_config(spec, 0, ConfigKey{0, DefenseKind::kNone, 42, 3});
  EXPECT_FALSE(r.error.empty());
}

TEST(Campaign, SuccessRecordKeepsTheHistoricalShape) {
  CampaignSpec spec = small_spec();
  const auto keys = enumerate_campaign(spec);
  const ConfigResult r = run_campaign_config(spec, 0, keys[0]);
  ASSERT_TRUE(r.error.empty()) << r.error;

  const std::string det = config_result_json(r, /*include_wall=*/false);
  // Field order is the byte-identity contract: mix, defense, seed, then
  // the stats block — and no "config" field on success records
  // (scripts/compare_replay_stats.py keys on the historical shape).
  EXPECT_EQ(det.find("{\"mix\": 1, \"defense\": \"baseline\", \"seed\": 42, "
                     "\"exec_time\": "),
            0u)
      << det;
  EXPECT_EQ(det.find("\"config\""), std::string::npos) << det;
  EXPECT_EQ(det.find("\"wall_ms\""), std::string::npos) << det;
  EXPECT_EQ(det.back(), '}');

  // include_wall appends exactly one field at the end.
  const std::string wall = config_result_json(r, /*include_wall=*/true);
  EXPECT_NE(wall.find("\"wall_ms\": "), std::string::npos) << wall;
  EXPECT_EQ(wall.find(det.substr(0, det.size() - 1)), 0u)
      << "wall record must extend the deterministic record: " << wall;
}

TEST(Campaign, RecordsRenderIdenticallyAcrossCalls) {
  // The whole byte-identity story assumes rendering is a pure function
  // of the result — same config, same bytes, every time.
  CampaignSpec spec = small_spec();
  const auto keys = enumerate_campaign(spec);
  const ConfigResult a = run_campaign_config(spec, 2, keys[2]);
  const ConfigResult b = run_campaign_config(spec, 2, keys[2]);
  ASSERT_TRUE(a.error.empty()) << a.error;
  EXPECT_EQ(config_result_json(a, false), config_result_json(b, false));
}

// ------------------------------------------------------ fuzz-cell kind

CampaignSpec fuzz_spec() {
  CampaignSpec spec;
  spec.run_mixes = false;
  spec.defenses = {DefenseKind::kNone, DefenseKind::kPiPoMonitor};
  spec.fuzz = {{"g0_0", "PPG1:interval=5000,ev_lines=8,ev_stride=1,"
                        "bypass_pct=100,far_delay=0,far_period=0,"
                        "key_bits=32,phase_pct=50,key_seed=0xf00d,"
                        "obs_bins=4"}};
  spec.fuzz_perm_rounds = 49;
  return spec;
}

TEST(Campaign, FuzzCellsEnumerateAfterScenariosFuzzOuterDefenseInner) {
  CampaignSpec spec = small_spec();
  spec.seeds = 1;
  spec.scenarios = {{"a", "/nope/a"}};
  spec.fuzz = {{"g0_0", "x"}, {"g0_1", "y"}};
  const auto keys = enumerate_campaign(spec);
  // 2 mixes x 2 defenses x 1 seed, 1 scenario x 2 defenses, then
  // 2 fuzz cells x 2 defenses.
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys[6], (ConfigKey{0, DefenseKind::kNone, 42, -1, 0}));
  EXPECT_EQ(keys[7], (ConfigKey{0, DefenseKind::kPiPoMonitor, 42, -1, 0}));
  EXPECT_EQ(keys[8], (ConfigKey{0, DefenseKind::kNone, 42, -1, 1}));
  EXPECT_EQ(keys[9], (ConfigKey{0, DefenseKind::kPiPoMonitor, 42, -1, 1}));
}

TEST(Campaign, FuzzOnlyCampaignValidates) {
  EXPECT_NO_THROW(fuzz_spec().validate());
  CampaignSpec spec = fuzz_spec();
  spec.fuzz[0].name.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = fuzz_spec();
  spec.fuzz[0].genotype.clear();
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = fuzz_spec();
  spec.fuzz_perm_rounds = 0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

TEST(Campaign, FuzzSuccessRecordCarriesTheLeakageFields) {
  const CampaignSpec spec = fuzz_spec();
  const auto keys = enumerate_campaign(spec);
  ASSERT_EQ(keys.size(), 2u);
  const ConfigResult r = run_campaign_config(spec, 0, keys[0]);
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_EQ(r.fuzz_name, "g0_0");
  EXPECT_GT(r.fuzz_rounds, 0u);
  EXPECT_LE(r.fuzz_rounds, 32u);  // at most key_bits observation rounds

  const std::string json = config_result_json(r, /*include_wall=*/false);
  EXPECT_EQ(json.find("{\"config\": 0, \"fuzz\": \"g0_0\", "
                      "\"defense\": \"baseline\", \"genotype\": \"PPG1:"),
            0u)
      << json;
  EXPECT_NE(json.find("\"mi_bits\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"p_value\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"decoder_acc\": "), std::string::npos) << json;
  EXPECT_NE(json.find("\"signature\": \""), std::string::npos) << json;
  EXPECT_EQ(json.find("\"wall_ms\""), std::string::npos) << json;

  // Deterministic: the same fuzz config renders the same bytes.
  const ConfigResult again = run_campaign_config(spec, 0, keys[0]);
  EXPECT_EQ(config_result_json(again, false), json);
}

TEST(Campaign, FuzzBadGenotypeIsAnErrorRecordNotACrash) {
  CampaignSpec spec = fuzz_spec();
  spec.fuzz[0].genotype = "PPG1:corrupt";
  const ConfigResult r =
      run_campaign_config(spec, 5, ConfigKey{0, DefenseKind::kNone, 42,
                                             -1, 0});
  EXPECT_FALSE(r.error.empty());
  EXPECT_EQ(r.fuzz_name, "g0_0");
  const std::string json = config_result_json(r, false);
  EXPECT_NE(json.find("\"config\": 5"), std::string::npos) << json;
  EXPECT_NE(json.find("\"fuzz\": \"g0_0\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"error\": \""), std::string::npos) << json;
}

TEST(Campaign, FuzzOutOfRangeCellIsAnErrorRecord) {
  const CampaignSpec spec = fuzz_spec();
  const ConfigResult r =
      run_campaign_config(spec, 0, ConfigKey{0, DefenseKind::kNone, 42,
                                             -1, 7});
  EXPECT_FALSE(r.error.empty());
}

// sweep_runner and the fuzzer run whole campaigns through run_campaign;
// at any thread count it must return what the serial loop over
// run_campaign_config returns, failures included, in config-id order.
TEST(Campaign, RunCampaignMatchesSerialAtAnyThreadCount) {
  CampaignSpec spec = small_spec();
  spec.seeds = 1;
  spec.instr = 2'000;
  spec.fuzz = {{"bad", "PPG1:corrupt"}};
  const std::vector<ConfigKey> keys = enumerate_campaign(spec);
  ASSERT_EQ(keys.size(), 6u);  // 2 mixes x 2 defenses, 1 cell x 2
  std::vector<std::string> serial;
  for (std::size_t id = 0; id < keys.size(); ++id) {
    serial.push_back(
        config_result_json(run_campaign_config(spec, id, keys[id]), false));
  }
  for (unsigned threads : {0u, 1u, 2u, 4u}) {
    const std::vector<ConfigResult> results = run_campaign(spec, threads);
    ASSERT_EQ(results.size(), keys.size()) << threads << " threads";
    for (std::size_t id = 0; id < results.size(); ++id) {
      EXPECT_EQ(results[id].config_id, id);
      EXPECT_EQ(results[id].key, keys[id]);
      // The corrupt cell's two configs fail; every mix config runs.
      EXPECT_EQ(results[id].error.empty(), keys[id].fuzz < 0)
          << threads << " threads, config " << id;
      EXPECT_EQ(config_result_json(results[id], false), serial[id])
          << threads << " threads, config " << id;
    }
  }
}

TEST(Campaign, JsonEscapeHandlesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape(std::string("a\nb")), "a\\u000ab");
}

TEST(Campaign, DefenseListParsing) {
  EXPECT_EQ(parse_defense_list("all"), all_defenses());
  const auto two = parse_defense_list("none,ric");
  ASSERT_EQ(two.size(), 2u);
  EXPECT_EQ(two[0], DefenseKind::kNone);
  EXPECT_EQ(two[1], DefenseKind::kRic);
  EXPECT_THROW(parse_defense_list("none,bogus"), std::invalid_argument);
  EXPECT_THROW(parse_defense_list(""), std::invalid_argument);
}

TEST(Campaign, SharedFlagsParseMixesAndRejectBadValues) {
  CampaignSpec spec;
  std::vector<std::string> traces;
  const auto parse = [&](const std::string& flag, const std::string& v) {
    return parse_campaign_flag(flag, [&] { return v; }, spec, traces);
  };
  EXPECT_TRUE(parse("--mixes", "3"));
  EXPECT_EQ(spec.mix_lo, 3u);
  EXPECT_EQ(spec.mix_hi, 3u);
  EXPECT_TRUE(parse("--mixes", "2-7"));
  EXPECT_EQ(spec.mix_lo, 2u);
  EXPECT_EQ(spec.mix_hi, 7u);
  EXPECT_TRUE(parse("--trace", "rec/a"));
  EXPECT_EQ(traces, std::vector<std::string>{"rec/a"});
  // The four cell-axis flags parse the same into a campaign and into the
  // fuzzer's config, long spellings included.
  FuzzerConfig fuzz;
  const std::pair<std::string, std::string> axes[] = {
      {"--defenses", "none,dir"},
      {"--llc", "exclusive"},
      {"--slice-hash", "intel-cas"},
      {"--monitor-level", "l2"}};
  for (const auto& [flag, v] : axes) {
    EXPECT_TRUE(parse(flag, v)) << flag;
    EXPECT_TRUE(parse_axis_flag(flag, [&] { return v; }, fuzz)) << flag;
  }
  EXPECT_EQ(spec.defenses, (std::vector<DefenseKind>{
                               DefenseKind::kNone,
                               DefenseKind::kDirectoryMonitor}));
  EXPECT_EQ(spec.inclusion, InclusionPolicy::kExclusive);
  EXPECT_EQ(spec.slice_hash, SliceHashKind::kIntelCas);
  EXPECT_EQ(spec.monitor_level, MonitorLevel::kL2);
  EXPECT_EQ(fuzz.defenses, spec.defenses);
  EXPECT_EQ(fuzz.inclusion, spec.inclusion);
  EXPECT_EQ(fuzz.slice_hash, spec.slice_hash);
  EXPECT_EQ(fuzz.monitor_level, spec.monitor_level);
  EXPECT_THROW(parse("--slice-hash", "bogus"), std::invalid_argument);
  EXPECT_THROW(parse("--llc", "bogus"), std::invalid_argument);
  // A flag the caller owns is left to it, and its value is not taken.
  EXPECT_FALSE(parse_campaign_flag(
      "--threads", []() -> std::string { throw std::logic_error("taken"); },
      spec, traces));
}

// A full disk used to leave a truncated record file behind an exit
// status of 0: stdio reports the failure only at fflush/fclose.
TEST(Campaign, WriteCampaignFileThrowsWhenTheWriteFails) {
  if (!std::filesystem::exists("/dev/full")) {
    GTEST_SKIP() << "no /dev/full on this system";
  }
  const std::vector<std::string> records = {"{\"config\": 0}"};
  EXPECT_THROW(write_campaign_file("/dev/full", records),
               std::runtime_error);

  const std::string path = testing::TempDir() + "pipo_campaign_write_" +
                           std::to_string(getpid()) + ".json";
  write_campaign_file(path, records);
  std::ifstream in(path);
  std::ostringstream got;
  got << in.rdbuf();
  EXPECT_EQ(got.str(), "[\n  {\"config\": 0}\n]\n");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace pipo
