// Equivalence oracle for the distributed sweep fabric: the merged
// output of a coordinator + N workers must be byte-identical to a
// serial run of the same campaign — at any worker count, under
// kill/restart schedules (workers crashing while holding leases and
// right after completing them), and under a seeded fault-injection
// transport that drops, duplicates, truncates and delays frames.
//
// This is the repo's parallel-equivalence idiom (ROADMAP: every
// parallel or distributed execution path is proven against the serial
// one, not eyeballed): the serial side is sweep_runner's path —
// enumerate_campaign + run_campaign_config + config_result_json — run
// in-process, so a divergence is a real fabric bug, never a test
//-harness difference. A final teeth test checks the comparison can
// actually fail.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fabric/campaign.h"
#include "fabric/coordinator.h"
#include "fabric/worker.h"

namespace pipo {
namespace {

CampaignSpec test_spec(unsigned mixes = 2, unsigned seeds = 1) {
  CampaignSpec spec;
  spec.mix_lo = 1;
  spec.mix_hi = mixes;
  spec.defenses = {DefenseKind::kNone, DefenseKind::kPiPoMonitor};
  spec.seeds = seeds;
  spec.instr = 5'000;  // small but real simulations
  return spec;
}

/// The serial reference: exactly what `sweep_runner --deterministic`
/// emits for this campaign, record by record.
std::vector<std::string> serial_records(const CampaignSpec& spec) {
  const auto keys = enumerate_campaign(spec);
  std::vector<std::string> out;
  out.reserve(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    out.push_back(config_result_json(run_campaign_config(spec, i, keys[i]),
                                     /*include_wall=*/false));
  }
  return out;
}

struct WorkerRun {
  WorkerOptions opt;
  int rc = -1;
  std::uint64_t configs = 0;
  std::uint64_t reconnects = 0;
};

/// Test-speed retry tuning: a worker whose dial raced the end of the
/// campaign (possible on a 1-CPU host — the campaign can finish before
/// a late worker thread ever runs) gets connection-refused and must
/// drain its attempts in ~a second, not minutes of default backoff.
void fast_backoff(WorkerOptions& o) {
  o.backoff_base_ms = 10;
  o.backoff_max_ms = 100;
  o.max_reconnects = 20;
}

/// Runs the coordinator on this thread and each WorkerRun on its own
/// thread (dialing 127.0.0.1:<ephemeral port>); returns the merge.
CampaignOutcome run_fabric(const CampaignSpec& spec,
                           CoordinatorOptions copt,
                           std::vector<WorkerRun>& workers) {
  Coordinator coord(spec, copt);
  std::vector<std::thread> threads;
  threads.reserve(workers.size());
  for (WorkerRun& w : workers) {
    w.opt.host = "127.0.0.1";
    w.opt.port = coord.port();
    threads.emplace_back([&w] {
      Worker worker(w.opt);
      w.rc = worker.run();
      w.configs = worker.configs_run();
      w.reconnects = worker.reconnects();
    });
  }
  const CampaignOutcome outcome = coord.run();
  for (auto& t : threads) t.join();
  return outcome;
}

void expect_identical(const std::vector<std::string>& serial,
                      const std::vector<std::string>& fabric,
                      const std::string& label) {
  ASSERT_EQ(serial.size(), fabric.size()) << label;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i], fabric[i]) << label << ": record " << i;
  }
}

TEST(FabricEquivalence, TcpWorkersMatchSerialAtEveryWorkerCount) {
  const CampaignSpec spec = test_spec(3);
  const auto serial = serial_records(spec);
  for (unsigned n : {1u, 2u, 4u}) {
    std::vector<WorkerRun> workers(n);
    for (unsigned i = 0; i < n; ++i) {
      workers[i].opt.seed = i + 1;
      fast_backoff(workers[i].opt);
    }
    CoordinatorOptions copt;
    const CampaignOutcome out = run_fabric(spec, copt, workers);
    expect_identical(serial, out.records, std::to_string(n) + " workers");
    std::uint64_t total = 0;
    std::size_t clean = 0;
    for (const WorkerRun& w : workers) {
      // A worker that ran anything was connected, so it must have been
      // handed its clean Shutdown. One whose dial raced the end of the
      // campaign may legitimately exhaust its retries against a closed
      // port instead (rc 1) — but only ever with zero configs run.
      if (w.configs > 0) {
        EXPECT_EQ(w.rc, 0) << "participating worker should see Shutdown";
      }
      clean += w.rc == 0 ? 1 : 0;
      total += w.configs;
    }
    EXPECT_GE(clean, 1u) << "someone must have finished cleanly";
    // Every config ran somewhere; duplicates (there are none here) would
    // be deduped, so total == campaign size exactly.
    EXPECT_EQ(total, serial.size());
  }
}

// Workers crash at the two interesting instants: holding an unfinished
// lease (its deadline must expire and the config be reassigned) and
// right after sending a result (an abrupt close the coordinator must
// shrug off). The merge must not show a seam.
TEST(FabricEquivalence, KillScheduleWhileHoldingLeasesMatchesSerial) {
  // 10 configs: enough runway that every worker handshakes and draws
  // grants before the survivor can finish the campaign alone.
  const CampaignSpec spec = test_spec(5);
  const auto serial = serial_records(spec);

  std::vector<WorkerRun> workers(3);
  workers[0].opt.seed = 1;
  workers[0].opt.die_after_grants = 2;  // vanishes holding lease #2
  workers[1].opt.seed = 2;
  workers[1].opt.die_after_results = 1;  // abrupt close after 1 result
  workers[2].opt.seed = 3;               // the survivor
  for (WorkerRun& w : workers) fast_backoff(w.opt);

  CoordinatorOptions copt;
  copt.lease_ms = 200;  // short: expiry path must actually run
  copt.heartbeat_timeout_ms = 2'000;
  const CampaignOutcome out = run_fabric(spec, copt, workers);

  expect_identical(serial, out.records, "kill schedule");
  EXPECT_EQ(out.failed, 0u);
  EXPECT_EQ(workers[0].rc, 3) << "die_after_grants hook should fire";
  EXPECT_EQ(workers[1].rc, 3) << "die_after_results hook should fire";
  EXPECT_EQ(workers[2].rc, 0) << "survivor sees the clean Shutdown";
}

TEST(FabricEquivalence, EveryWorkerButOneDiesImmediately) {
  const CampaignSpec spec = test_spec(2);
  std::vector<WorkerRun> workers(3);
  workers[0].opt.seed = 1;
  workers[0].opt.die_after_grants = 1;
  workers[1].opt.seed = 2;
  workers[1].opt.die_after_grants = 1;
  workers[2].opt.seed = 3;
  for (WorkerRun& w : workers) fast_backoff(w.opt);

  CoordinatorOptions copt;
  copt.lease_ms = 150;
  const CampaignOutcome out = run_fabric(spec, copt, workers);
  expect_identical(serial_records(spec), out.records, "mass die-off");
}

// The fault-injection proof: workers whose every frame may be dropped,
// duplicated, truncated or delayed, across several seeds. Truncation
// kills connections (reconnect + resend paths), duplication exercises
// dedup, drops exercise lease expiry. Bytes must still match.
TEST(FabricEquivalence, FaultyTransportMatchesSerialAcrossSeeds) {
  const CampaignSpec spec = test_spec(3);  // 6 configs
  const auto serial = serial_records(spec);

  for (std::uint64_t fault_seed : {11ull, 22ull, 33ull}) {
    std::vector<WorkerRun> workers(2);
    for (std::size_t i = 0; i < workers.size(); ++i) {
      WorkerOptions& o = workers[i].opt;
      o.seed = 100 + i;
      o.faults.seed = fault_seed + i;
      o.faults.drop_pct = 10;
      o.faults.dup_pct = 10;
      o.faults.trunc_pct = 10;
      o.faults.delay_pct = 10;
      o.faults.delay_max_ms = 2;
      o.backoff_base_ms = 10;
      o.backoff_max_ms = 50;
      o.recv_timeout_ms = 500;  // dropped replies must not stall 30s
      // High enough that faults can't plausibly exhaust it while the
      // coordinator lives (consecutive-failure odds are geometric and
      // reset on every handshake), low enough that a worker that missed
      // the Shutdown broadcast drains fast once connects are refused.
      o.max_reconnects = 40;
    }
    CoordinatorOptions copt;
    copt.lease_ms = 400;
    copt.heartbeat_timeout_ms = 2'000;
    const CampaignOutcome out = run_fabric(spec, copt, workers);
    expect_identical(serial, out.records,
                     "fault seed " + std::to_string(fault_seed));
    EXPECT_EQ(out.failed, 0u);
  }
}

// Teeth: the byte-comparison must be able to fail. A campaign with a
// different seed axis must not compare equal, and a tampered record
// must be caught — guards against a vacuously-green oracle.
TEST(FabricEquivalence, ComparisonHasTeeth) {
  const auto a = serial_records(test_spec(2, 1));
  const auto b = serial_records(test_spec(2, 2));
  EXPECT_NE(a.size(), b.size());

  auto tampered = a;
  ASSERT_FALSE(tampered.empty());
  tampered[0][tampered[0].find("exec_time") + 12] ^= 1;
  EXPECT_NE(a[0], tampered[0]);

  // And the serial reference itself is stable run-to-run.
  EXPECT_EQ(a, serial_records(test_spec(2, 1)));
}

}  // namespace
}  // namespace pipo
