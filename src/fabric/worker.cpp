#include "fabric/worker.h"

#include <chrono>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "common/log.h"
#include "common/rng.h"
#include "fabric/campaign.h"

namespace pipo {

namespace {

/// Sends a Heartbeat on the shared channel every interval while the
/// main thread is busy simulating. Send failures are swallowed — the
/// main loop's next send/recv surfaces the dead link with a proper
/// diagnostic, and a broken pump must not crash the worker.
class HeartbeatPump {
 public:
  HeartbeatPump(FrameChannel& ch, std::uint64_t interval_ms)
      : ch_(ch), interval_ms_(interval_ms) {
    if (interval_ms_ > 0) {
      thread_ = std::thread([this] { pump(); });
    }
  }

  ~HeartbeatPump() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

 private:
  void pump() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!stop_) {
      if (cv_.wait_for(lock, std::chrono::milliseconds(interval_ms_),
                       [this] { return stop_; })) {
        return;
      }
      lock.unlock();
      try {
        ch_.send(make_heartbeat());
      } catch (...) {
        lock.lock();
        return;
      }
      lock.lock();
    }
  }

  FrameChannel& ch_;
  std::uint64_t interval_ms_;
  std::thread thread_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
};

}  // namespace

Worker::Worker(WorkerOptions opt) : opt_(std::move(opt)) {
  opt_.faults.validate();
}

int Worker::run() {
  Rng rng(opt_.seed * 0x9E3779B97F4A7C15ull + 0x3072ull);
  std::uint64_t backoff = opt_.backoff_base_ms;
  unsigned attempts = 0;
  bool have_spec = false;
  CampaignSpec spec;
  std::vector<ConfigKey> keys;
  std::uint64_t grants = 0;
  // A result computed but not (provably) delivered: re-sent after every
  // reconnect until a send succeeds. The coordinator dedupes.
  std::optional<ResultMsg> pending;

  auto sleep_backoff = [&] {
    // Exponential with "equal jitter": half fixed, half uniform — the
    // stampede-avoidance shape, deterministic from the worker's seed.
    const std::uint64_t base = std::min(backoff, opt_.backoff_max_ms);
    const std::uint64_t ms = base / 2 + rng.below(base / 2 + 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(ms));
    backoff = std::min(backoff * 2, opt_.backoff_max_ms);
  };

  while (attempts <= opt_.max_reconnects) {
    std::unique_ptr<ByteLink> link;
    try {
      link = tcp_connect(opt_.host, opt_.port);
      if (opt_.faults.any()) {
        // Each connection gets its own fault stream so a reconnect
        // does not replay the exact fault that killed the last link.
        FaultSpec per_link = opt_.faults;
        per_link.seed = opt_.faults.seed + 0x9E37 * (reconnects_ + 1);
        link = std::make_unique<FaultyTransport>(std::move(link), per_link);
      }
    } catch (const TransportError& e) {
      PIPO_LOG_DEBUG("worker: connect failed: %s", e.what());
      ++attempts;
      ++reconnects_;
      sleep_backoff();
      continue;
    }

    FrameChannel ch(std::move(link));
    try {
      ch.send(make_hello(HelloMsg{worker_id_}));
      Frame f;
      const FrameChannel::Recv st = ch.recv(f, opt_.recv_timeout_ms);
      if (st != FrameChannel::Recv::kFrame) {
        throw TransportError(st == FrameChannel::Recv::kTimeout
                                 ? "timed out waiting for Welcome"
                                 : "connection closed before Welcome");
      }
      if (f.type == FrameType::kShutdown) return 0;
      const WelcomeMsg wm = decode_welcome(f);
      worker_id_ = wm.worker_id;
      if (!have_spec) {
        spec = wm.spec;
        keys = enumerate_campaign(spec);
        have_spec = true;
      }
      // Handshake succeeded: the coordinator is alive, so prior
      // failures no longer predict anything.
      attempts = 0;
      backoff = opt_.backoff_base_ms;

      HeartbeatPump pump(ch, opt_.heartbeat_ms);
      for (;;) {
        if (pending) {
          ch.send(make_result(*pending));
          pending.reset();
          if (opt_.die_after_results != 0 &&
              configs_run_ >= opt_.die_after_results) {
            return 3;  // controlled crash: abrupt close, no goodbye
          }
        }
        ch.send(make_lease_request());
        Frame g;
        const FrameChannel::Recv rst = ch.recv(g, opt_.recv_timeout_ms);
        if (rst == FrameChannel::Recv::kTimeout) {
          throw TransportError("timed out waiting for a lease");
        }
        if (rst == FrameChannel::Recv::kEof) {
          throw TransportError("coordinator closed the connection");
        }
        switch (g.type) {
          case FrameType::kLeaseGrant: {
            const LeaseGrantMsg gm = decode_lease_grant(g);
            if (gm.config_id >= keys.size()) {
              throw std::invalid_argument(
                  "lease for out-of-range config " +
                  std::to_string(gm.config_id));
            }
            ++grants;
            if (opt_.die_after_grants != 0 &&
                grants >= opt_.die_after_grants) {
              return 3;  // controlled crash while holding the lease
            }
            ConfigResult r = run_campaign_config(spec, gm.config_id,
                                                 keys[gm.config_id]);
            ++configs_run_;
            pending = ResultMsg{
                gm.lease_id, gm.config_id, !r.error.empty(),
                config_result_json(r, /*include_wall=*/false)};
            break;
          }
          case FrameType::kNoWork: {
            const NoWorkMsg nm = decode_no_work(g);
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::min<std::uint64_t>(nm.retry_ms, 1000)));
            // The campaign may have finished while we slept: take a
            // buffered Shutdown now instead of racing a LeaseRequest
            // against the coordinator's exit.
            Frame peeked;
            if (ch.recv(peeked, 0) == FrameChannel::Recv::kFrame &&
                peeked.type == FrameType::kShutdown) {
              return 0;
            }
            break;
          }
          case FrameType::kShutdown:
            return 0;
          case FrameType::kHeartbeat:
            break;
          default:
            throw std::invalid_argument(
                std::string("unexpected ") + to_string(g.type) +
                " frame from coordinator");
        }
      }
    } catch (const TransportError& e) {
      PIPO_LOG_DEBUG("worker: connection lost: %s", e.what());
    } catch (const std::invalid_argument& e) {
      // Malformed or out-of-protocol stream: unrecoverable on this
      // connection, but a fresh connection may be fine.
      PIPO_LOG_WARN("worker: protocol error: %s", e.what());
    }
    ch.close();
    ++attempts;
    ++reconnects_;
    sleep_backoff();
  }
  PIPO_LOG_WARN("worker: giving up after %u consecutive failed attempts",
                opt_.max_reconnects);
  return 1;
}

}  // namespace pipo
