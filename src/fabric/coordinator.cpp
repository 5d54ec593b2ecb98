#include "fabric/coordinator.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "common/log.h"
#include "fabric/frames.h"
#include "fabric/lease_table.h"
#include "fabric/transport.h"

namespace pipo {

namespace {

/// Retry hint sent with NoWork when everything is leased.
constexpr std::uint64_t kNoWorkRetryMs = 20;

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

struct Coordinator::Impl {
  CampaignSpec spec;
  CoordinatorOptions opt;
  std::vector<ConfigKey> keys;
  LeaseTable table;
  struct Rec {
    std::string json;
    bool error = false;
  };
  std::vector<Rec> recs;

  int listen_fd = -1;

  struct Conn {
    int fd = -1;
    FrameDecoder decoder;
    std::vector<std::uint8_t> outbuf;
    std::size_t outpos = 0;
    std::uint64_t worker_id = 0;  ///< 0 until Hello
    std::uint64_t last_seen_ms = 0;
    bool dead = false;
  };
  std::vector<std::unique_ptr<Conn>> conns;
  std::uint64_t next_worker_id = 1;

  Impl(CampaignSpec s, CoordinatorOptions o)
      : spec(std::move(s)),
        opt(o),
        keys(enumerate_campaign(spec)),
        table(keys.size(), std::max<std::uint64_t>(o.lease_ms, 1)),
        recs(keys.size()) {}
  Impl(const Impl&) = delete;
  Impl& operator=(const Impl&) = delete;

  ~Impl() {
    for (auto& c : conns) {
      if (c->fd >= 0) ::close(c->fd);
    }
    if (listen_fd >= 0) ::close(listen_fd);
  }

  // --------------------------------------------------- result plumbing

  /// Returns true if this was the first completion (the result was
  /// recorded); duplicates return false and are dropped.
  bool store_result(std::uint64_t config_id, std::string json, bool error) {
    if (!table.complete(config_id)) return false;
    recs[config_id].json = std::move(json);
    recs[config_id].error = error;
    return true;
  }

  // -------------------------------------------------- connection I/O

  void queue_frame(Conn& c, const Frame& f) {
    const std::vector<std::uint8_t> bytes = encode_frame(f);
    c.outbuf.insert(c.outbuf.end(), bytes.begin(), bytes.end());
    flush(c);
  }

  void flush(Conn& c) {
    while (c.outpos < c.outbuf.size()) {
      const ssize_t w = ::send(c.fd, c.outbuf.data() + c.outpos,
                               c.outbuf.size() - c.outpos, MSG_NOSIGNAL);
      if (w < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        drop(c, std::strerror(errno));
        return;
      }
      c.outpos += static_cast<std::size_t>(w);
    }
    if (c.outpos == c.outbuf.size()) {
      c.outbuf.clear();
      c.outpos = 0;
    }
  }

  void drop(Conn& c, const std::string& why) {
    if (c.dead) return;
    c.dead = true;
    if (opt.verbose) {
      PIPO_LOG_INFO("coordinator: dropping worker %llu: %s",
                    static_cast<unsigned long long>(c.worker_id),
                    why.c_str());
    }
    const std::uint64_t released =
        c.worker_id != 0 ? table.release_owner(c.worker_id) : 0;
    if (released > 0 && opt.verbose) {
      PIPO_LOG_INFO("coordinator: released %llu lease(s)",
                    static_cast<unsigned long long>(released));
    }
  }

  void handle_frame(Conn& c, const Frame& f) {
    c.last_seen_ms = steady_ms();
    switch (f.type) {
      case FrameType::kHello: {
        const HelloMsg m = decode_hello(f);
        // A fresh worker gets the next id; a reconnect keeps its old
        // one. An id we never issued is treated as fresh — trusting it
        // would let a confused peer release another worker's leases.
        if (m.worker_id != 0 && m.worker_id < next_worker_id) {
          c.worker_id = m.worker_id;
          // The previous connection for this identity is stale — its
          // socket may linger half-open for the full heartbeat
          // timeout, holding leases hostage. Drop it now.
          for (auto& other : conns) {
            if (other.get() != &c && !other->dead &&
                other->worker_id == m.worker_id) {
              drop(*other, "superseded by reconnect");
            }
          }
        } else {
          c.worker_id = next_worker_id++;
        }
        queue_frame(c, make_welcome(WelcomeMsg{c.worker_id, spec}));
        break;
      }
      case FrameType::kLeaseRequest: {
        if (c.worker_id == 0) {
          drop(c, "lease request before Hello");
          break;
        }
        if (table.done()) {
          queue_frame(c, make_shutdown());
        } else if (const std::optional<LeaseTable::Grant> grant =
                       table.acquire(c.worker_id, steady_ms())) {
          queue_frame(c, make_lease_grant(LeaseGrantMsg{
                             grant->lease_id, grant->config_id,
                             opt.lease_ms}));
        } else {
          queue_frame(c, make_no_work(NoWorkMsg{kNoWorkRetryMs}));
        }
        break;
      }
      case FrameType::kResult: {
        if (c.worker_id == 0) {
          drop(c, "result before Hello");
          break;
        }
        const ResultMsg m = decode_result(f);
        if (m.config_id >= keys.size()) {
          drop(c, "result for out-of-range config " +
                      std::to_string(m.config_id));
          break;
        }
        if (!store_result(m.config_id, m.json, m.error) && opt.verbose) {
          PIPO_LOG_INFO("coordinator: deduped duplicate result for "
                        "config %llu",
                        static_cast<unsigned long long>(m.config_id));
        }
        break;
      }
      case FrameType::kHeartbeat:
        break;  // last_seen refresh is the whole point
      default:
        // Coordinator-bound streams never carry coordinator->worker
        // frame types.
        drop(c, std::string("unexpected ") + to_string(f.type) + " frame");
        break;
    }
  }

  void read_conn(Conn& c) {
    std::uint8_t buf[64 * 1024];
    for (;;) {
      const ssize_t n = ::recv(c.fd, buf, sizeof buf, 0);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR) continue;
        drop(c, std::strerror(errno));
        return;
      }
      if (n == 0) {
        drop(c, c.decoder.mid_frame()
                    ? "connection closed mid-frame (stream truncated at "
                      "byte " + std::to_string(c.decoder.byte_offset()) + ")"
                    : "connection closed");
        return;
      }
      try {
        c.decoder.feed(buf, static_cast<std::size_t>(n));
        while (std::optional<Frame> f = c.decoder.next()) {
          handle_frame(c, *f);
          if (c.dead) return;
        }
      } catch (const std::invalid_argument& e) {
        // Malformed frame: the codec's diagnostic names the byte
        // offset; the stream is unrecoverable past it.
        drop(c, e.what());
        return;
      }
      if (static_cast<std::size_t>(n) < sizeof buf) return;
    }
  }

  void accept_new() {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN and transient errors alike
      set_nonblocking(fd);
      auto c = std::make_unique<Conn>();
      c->fd = fd;
      c->last_seen_ms = steady_ms();
      conns.push_back(std::move(c));
      if (opt.verbose) {
        PIPO_LOG_INFO("coordinator: accepted connection (%zu open)",
                      conns.size());
      }
    }
  }

  void reap_dead() {
    for (auto& c : conns) {
      if (c->dead && c->fd >= 0) {
        ::close(c->fd);
        c->fd = -1;
      }
    }
    conns.erase(std::remove_if(conns.begin(), conns.end(),
                               [](const std::unique_ptr<Conn>& c) {
                                 return c->dead;
                               }),
                conns.end());
  }

  // --------------------------------------------------------- main loop

  void event_loop() {
    while (!table.done()) {
      std::vector<pollfd> pfds;
      pfds.push_back(pollfd{listen_fd, POLLIN, 0});
      constexpr std::size_t conns_at = 1;
      for (auto& c : conns) {
        short events = POLLIN;
        if (c->outpos < c->outbuf.size()) events |= POLLOUT;
        pfds.push_back(pollfd{c->fd, events, 0});
      }

      // Sleep until the next lease deadline (so expiry is prompt) but
      // at most 200 ms (heartbeat bookkeeping), at least 10 ms.
      const std::uint64_t deadline = table.next_deadline();
      const std::uint64_t now = steady_ms();
      std::uint64_t wait = 200;
      if (deadline != UINT64_MAX) {
        wait = deadline > now ? std::min<std::uint64_t>(deadline - now, 200)
                              : 0;
      }
      wait = std::max<std::uint64_t>(wait, conns.empty() ? 10 : 0);

      const int pr = ::poll(pfds.data(), pfds.size(),
                            static_cast<int>(wait));
      if (pr < 0 && errno != EINTR) {
        throw TransportError(std::string("coordinator poll: ") +
                             std::strerror(errno));
      }

      if (pfds[0].revents & POLLIN) accept_new();
      // Only connections that existed before poll() have a pfds slot;
      // the ones accept_new() just appended wait for the next round.
      const std::size_t polled = pfds.size() - conns_at;
      for (std::size_t i = 0; i < polled; ++i) {
        Conn& c = *conns[i];
        const short re = pfds[conns_at + i].revents;
        if (c.dead) continue;
        if (re & (POLLERR | POLLHUP)) {
          // Drain whatever the peer managed to send before the hangup
          // (a worker's final Result may be sitting in the buffer).
          read_conn(c);
          if (!c.dead) drop(c, "hangup");
          continue;
        }
        if (re & POLLIN) read_conn(c);
        if (!c.dead && (re & POLLOUT)) flush(c);
      }

      // Lease expiry: configs stuck on dead-but-undetected workers
      // return to the pool.
      const std::uint64_t expired = table.expire(steady_ms());
      if (expired > 0 && opt.verbose) {
        PIPO_LOG_INFO("coordinator: %llu lease(s) expired and reassignable",
                      static_cast<unsigned long long>(expired));
      }
      // Heartbeat timeouts: a silent connection is a dead worker whose
      // TCP stack never said goodbye (SIGKILL, kernel panic, netsplit).
      const std::uint64_t hb_now = steady_ms();
      for (auto& c : conns) {
        if (!c->dead &&
            hb_now - c->last_seen_ms > opt.heartbeat_timeout_ms) {
          drop(*c, "heartbeat timeout");
        }
      }
      reap_dead();
    }
  }

  void shutdown_workers() {
    // Drain the accept backlog first: a worker whose connect() landed
    // in the queue while the last configs finished deserves its
    // Shutdown like everyone else — closing the listener would reset
    // its connection and send it into a futile reconnect spiral.
    accept_new();
    // Then close the listener so any *later* connect is refused
    // immediately (the worker gives up after max_reconnects) instead
    // of parking in a backlog nobody will ever accept from — a full
    // backlog leaves connect() in SYN-SENT indefinitely.
    ::close(listen_fd);
    listen_fd = -1;
    // Broadcast Shutdown and give the sockets a moment to drain — a
    // worker blocked in recv gets its clean exit instead of an EOF.
    for (auto& c : conns) {
      if (!c->dead) queue_frame(*c, make_shutdown());
    }
    const std::uint64_t give_up = steady_ms() + 250;
    for (;;) {
      bool pending = false;
      for (auto& c : conns) {
        if (!c->dead && c->outpos < c->outbuf.size()) {
          flush(*c);
          pending |= !c->dead && c->outpos < c->outbuf.size();
        }
      }
      if (!pending || steady_ms() >= give_up) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (auto& c : conns) {
      if (c->fd >= 0) {
        ::close(c->fd);
        c->fd = -1;
      }
      c->dead = true;
    }
  }
};

Coordinator::Coordinator(CampaignSpec spec, CoordinatorOptions opt) {
  spec.validate();
  if (!spec.record_dir.empty()) {
    throw std::invalid_argument(
        "coordinator: capture campaigns (record_dir) are standalone-only "
        "— each worker would record to its own disk");
  }
  impl_ = std::make_unique<Impl>(std::move(spec), opt);
  std::uint16_t port = opt.port;
  impl_->listen_fd = tcp_listen(port, 64);
  set_nonblocking(impl_->listen_fd);
  port_ = port;
}

Coordinator::~Coordinator() = default;

CampaignOutcome Coordinator::run() {
  Impl& im = *impl_;
  im.event_loop();
  im.shutdown_workers();

  CampaignOutcome out;
  out.records.reserve(im.recs.size());
  for (const Impl::Rec& r : im.recs) {
    out.records.push_back(r.json);
    out.failed += r.error ? 1 : 0;
  }
  return out;
}

}  // namespace pipo
