#include "fabric/transport.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

namespace pipo {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw TransportError(what + ": " + std::strerror(errno));
}

}  // namespace

// ------------------------------------------------------------- FdLink

void FdLink::send_all(const void* data, std::size_t n) {
  if (fd_ < 0) throw TransportError("send on closed link");
  const auto* p = static_cast<const std::uint8_t*>(data);
  while (n > 0) {
    const ssize_t w = ::send(fd_, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      throw_errno("send");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

std::ptrdiff_t FdLink::recv_some(void* data, std::size_t n,
                                 int timeout_ms) {
  if (fd_ < 0) throw TransportError("recv on closed link");
  for (;;) {
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, timeout_ms);
    if (pr < 0) {
      if (errno == EINTR) continue;
      throw_errno("poll");
    }
    if (pr == 0) return -1;  // timeout
    const ssize_t r = ::recv(fd_, data, n, 0);
    if (r < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) {
        continue;
      }
      // A peer that vanished (RST after a kill -9) is an EOF-with-
      // prejudice, not a programming error; let the caller's mid-frame
      // check decide whether data was torn.
      if (errno == ECONNRESET) return 0;
      throw_errno("recv");
    }
    return r;
  }
}

void FdLink::close_link() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

// --------------------------------------------------------- TCP helpers

std::unique_ptr<ByteLink> tcp_connect(const std::string& host,
                                      std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const std::string service = std::to_string(port);
  const int gr = ::getaddrinfo(host.c_str(), service.c_str(), &hints, &res);
  if (gr != 0) {
    throw TransportError("resolve " + host + ": " + gai_strerror(gr));
  }
  int fd = -1;
  int saved_errno = 0;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) {
      saved_errno = errno;
      continue;
    }
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) break;
    saved_errno = errno;
    ::close(fd);
    fd = -1;
  }
  ::freeaddrinfo(res);
  if (fd < 0) {
    errno = saved_errno;
    throw_errno("connect " + host + ":" + service);
  }
  // Lease grants and results are small request/response frames; Nagle
  // only adds latency here.
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return std::make_unique<FdLink>(fd);
}

int tcp_listen(std::uint16_t& port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw_errno("socket");
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_ANY);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("bind port " + std::to_string(port));
  }
  if (::listen(fd, backlog) < 0) {
    const int e = errno;
    ::close(fd);
    errno = e;
    throw_errno("listen");
  }
  socklen_t len = sizeof addr;
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  return fd;
}

// ------------------------------------------------------ fault injection

void FaultSpec::validate() const {
  if (drop_pct + dup_pct + trunc_pct + delay_pct > 100) {
    throw std::invalid_argument(
        "FaultSpec: drop+dup+trunc+delay rates exceed 100%");
  }
}

FaultyTransport::FaultyTransport(std::unique_ptr<ByteLink> inner,
                                 const FaultSpec& spec)
    : inner_(std::move(inner)), spec_(spec),
      rng_(spec.seed * 0x9E3779B97F4A7C15ull + 0xFA0171ull) {
  spec_.validate();
}

void FaultyTransport::send_all(const void* data, std::size_t n) {
  // One draw per frame partitioned by cumulative rates: the schedule is
  // a pure function of (seed, frame index), independent of host timing.
  const std::uint64_t roll = rng_.below(100);
  std::uint64_t edge = spec_.drop_pct;
  if (roll < edge) {
    ++faults_;
    return;  // dropped
  }
  edge += spec_.dup_pct;
  if (roll < edge) {
    ++faults_;
    inner_->send_all(data, n);
    inner_->send_all(data, n);  // duplicated
    return;
  }
  edge += spec_.trunc_pct;
  if (roll < edge) {
    ++faults_;
    // A torn frame desynchronizes the byte stream for good; send the
    // prefix, kill the link, and surface the failure to the sender too.
    const std::size_t keep =
        n > 1 ? 1 + static_cast<std::size_t>(rng_.below(n - 1)) : 0;
    if (keep > 0) inner_->send_all(data, keep);
    inner_->close_link();
    throw TransportError("fault injection: frame truncated after " +
                         std::to_string(keep) + " of " + std::to_string(n) +
                         " bytes");
  }
  edge += spec_.delay_pct;
  if (roll < edge) {
    ++faults_;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(rng_.below(spec_.delay_max_ms + 1)));
  }
  inner_->send_all(data, n);
}

std::ptrdiff_t FaultyTransport::recv_some(void* data, std::size_t n,
                                          int timeout_ms) {
  return inner_->recv_some(data, n, timeout_ms);
}

void FaultyTransport::close_link() { inner_->close_link(); }

// -------------------------------------------------------- frame channel

void FrameChannel::send(const Frame& f) {
  const std::vector<std::uint8_t> bytes = encode_frame(f);
  std::lock_guard<std::mutex> lock(send_mu_);
  link_->send_all(bytes.data(), bytes.size());
}

FrameChannel::Recv FrameChannel::recv(Frame& out, int timeout_ms) {
  const auto started = std::chrono::steady_clock::now();
  for (;;) {
    if (std::optional<Frame> f = decoder_.next()) {
      out = std::move(*f);
      return Recv::kFrame;
    }
    int remaining = timeout_ms;
    if (timeout_ms >= 0) {
      const auto elapsed =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              std::chrono::steady_clock::now() - started)
              .count();
      remaining = static_cast<int>(
          std::max<long long>(0, timeout_ms - elapsed));
    }
    std::uint8_t buf[64 * 1024];
    const std::ptrdiff_t n = link_->recv_some(buf, sizeof buf, remaining);
    if (n == -1) return Recv::kTimeout;
    if (n == 0) {
      if (decoder_.mid_frame()) {
        throw TransportError(
            "connection closed mid-frame (stream truncated after byte " +
            std::to_string(decoder_.byte_offset()) + ")");
      }
      return Recv::kEof;
    }
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

}  // namespace pipo
