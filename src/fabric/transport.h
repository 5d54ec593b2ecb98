// Transport for the sweep fabric: blocking byte links over BSD sockets,
// a frame channel that pairs a link with the frame codec, and the
// deterministic fault-injection wrapper the proof layer runs on.
//
// Layering (worker side; the coordinator owns raw nonblocking fds in
// its poll loop instead):
//
//   FrameChannel  — send(Frame)/recv(Frame&) with timeouts; exactly one
//     │             send_all() call per frame (the convention
//     │             FaultyTransport keys on)
//   FaultyTransport (optional) — drops / duplicates / truncates /
//     │             delays whole frames, deterministically from a seed
//   FdLink        — one connected socket (TCP or socketpair)
//
// All transport failures (ECONNREFUSED, EPIPE, mid-frame EOF, an
// injected truncation) throw TransportError; malformed frames throw
// std::invalid_argument from the codec. Callers treat both as "this
// connection is gone" — the worker reconnects with backoff, the
// coordinator releases the connection's leases. Nothing here retries
// silently: retry policy lives in worker.h where it is testable.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "fabric/frames.h"

namespace pipo {

struct TransportError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// A connected, blocking byte-stream endpoint (a socket).
class ByteLink {
 public:
  virtual ~ByteLink() = default;
  /// Writes all n bytes or throws TransportError.
  virtual void send_all(const void* data, std::size_t n) = 0;
  /// Reads up to n bytes. Returns the count (> 0), 0 on EOF, or -1 on
  /// timeout (timeout_ms >= 0; negative blocks forever). Throws
  /// TransportError on socket errors.
  virtual std::ptrdiff_t recv_some(void* data, std::size_t n,
                                   int timeout_ms) = 0;
  /// Idempotent; further sends/recvs fail.
  virtual void close_link() = 0;
};

/// ByteLink over an owned file descriptor (TCP socket or socketpair
/// end). Sends use MSG_NOSIGNAL so a dead peer surfaces as
/// TransportError, not SIGPIPE.
class FdLink final : public ByteLink {
 public:
  explicit FdLink(int fd) : fd_(fd) {}
  ~FdLink() override { close_link(); }
  FdLink(const FdLink&) = delete;
  FdLink& operator=(const FdLink&) = delete;

  void send_all(const void* data, std::size_t n) override;
  std::ptrdiff_t recv_some(void* data, std::size_t n,
                           int timeout_ms) override;
  void close_link() override;

 private:
  int fd_;
};

/// Connects to host:port (IPv4/IPv6, names resolved); throws
/// TransportError with the failing step in the message.
std::unique_ptr<ByteLink> tcp_connect(const std::string& host,
                                      std::uint16_t port);

/// Listens on `port` (0 = ephemeral; the chosen port is written back).
/// Returns the listening fd (nonblocking). Throws TransportError.
int tcp_listen(std::uint16_t& port, int backlog);

// ------------------------------------------------------ fault injection

/// Deterministic per-frame fault plan. Rates are percentages (0-100);
/// at most one fault fires per frame, drawn from one seeded stream, so
/// a (seed, frame sequence) pair always yields the same fault schedule.
struct FaultSpec {
  std::uint64_t seed = 0;
  std::uint32_t drop_pct = 0;      ///< frame silently discarded
  std::uint32_t dup_pct = 0;       ///< frame sent twice
  std::uint32_t trunc_pct = 0;     ///< frame cut mid-bytes, link closed
  std::uint32_t delay_pct = 0;     ///< frame delivered late
  std::uint32_t delay_max_ms = 5;  ///< max injected delay

  bool any() const {
    return drop_pct || dup_pct || trunc_pct || delay_pct;
  }
  void validate() const;  ///< throws if rates exceed 100 in total
};

/// Wraps a link and applies FaultSpec to each send_all() call — i.e. to
/// each frame, per FrameChannel's one-send-per-frame convention.
/// Truncation sends a prefix of the frame, closes the link and throws
/// TransportError (a torn frame is not survivable by a byte stream —
/// the peer sees a mid-frame EOF). Receives pass through untouched.
class FaultyTransport final : public ByteLink {
 public:
  FaultyTransport(std::unique_ptr<ByteLink> inner, const FaultSpec& spec);

  void send_all(const void* data, std::size_t n) override;
  std::ptrdiff_t recv_some(void* data, std::size_t n,
                           int timeout_ms) override;
  void close_link() override;

  std::uint64_t faults_injected() const { return faults_; }

 private:
  std::unique_ptr<ByteLink> inner_;
  FaultSpec spec_;
  Rng rng_;
  std::uint64_t faults_ = 0;
};

// -------------------------------------------------------- frame channel

/// Blocking frame I/O over a ByteLink. send() is thread-safe (the
/// worker's heartbeat thread shares the channel with its main loop);
/// recv() is single-consumer.
class FrameChannel {
 public:
  explicit FrameChannel(std::unique_ptr<ByteLink> link)
      : link_(std::move(link)) {}

  /// Sends one frame as one send_all. Throws TransportError.
  void send(const Frame& f);

  enum class Recv { kFrame, kTimeout, kEof };
  /// Receives the next frame (timeout_ms < 0 blocks forever). kEof is
  /// a clean close at a frame boundary; a close mid-frame throws
  /// TransportError naming the stream offset, and malformed bytes
  /// throw std::invalid_argument from the decoder.
  Recv recv(Frame& out, int timeout_ms);

  void close() { link_->close_link(); }

 private:
  std::unique_ptr<ByteLink> link_;
  FrameDecoder decoder_;
  std::mutex send_mu_;
};

}  // namespace pipo
