// Unit tests for the fabric transport layer (fabric/transport.h):
// FrameChannel over a real socketpair (send/recv, timeout, clean EOF
// vs mid-frame truncation), a coordinator that cannot listen, and the
// deterministic FaultyTransport — same seed, same frame sequence, same
// fault schedule, every time.
#include "fabric/transport.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "fabric/coordinator.h"
#include "fabric/frames.h"

namespace pipo {
namespace {

std::pair<std::unique_ptr<ByteLink>, std::unique_ptr<ByteLink>>
make_socketpair() {
  int fds[2];
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {std::make_unique<FdLink>(fds[0]), std::make_unique<FdLink>(fds[1])};
}

TEST(FrameChannelTest, SendRecvOverSocketpair) {
  auto [a, b] = make_socketpair();
  FrameChannel left(std::move(a));
  FrameChannel right(std::move(b));

  left.send(make_lease_grant(LeaseGrantMsg{9, 4, 250}));
  Frame f;
  ASSERT_EQ(right.recv(f, 1000), FrameChannel::Recv::kFrame);
  const LeaseGrantMsg m = decode_lease_grant(f);
  EXPECT_EQ(m.lease_id, 9u);
  EXPECT_EQ(m.config_id, 4u);

  // The channel is bidirectional.
  right.send(make_result(ResultMsg{9, 4, false, "{\"mix\": 1}"}));
  ASSERT_EQ(left.recv(f, 1000), FrameChannel::Recv::kFrame);
  EXPECT_EQ(decode_result(f).json, "{\"mix\": 1}");
}

TEST(FrameChannelTest, ZeroTimeoutPeeksWithoutBlocking) {
  auto [a, b] = make_socketpair();
  FrameChannel left(std::move(a));
  FrameChannel right(std::move(b));
  Frame f;
  EXPECT_EQ(right.recv(f, 0), FrameChannel::Recv::kTimeout);
  left.send(make_shutdown());
  // Already-buffered (or at least already-arrived) bytes are returned
  // even at timeout 0 — the worker's post-NoWork shutdown peek.
  FrameChannel::Recv st = FrameChannel::Recv::kTimeout;
  for (int i = 0; i < 100 && st == FrameChannel::Recv::kTimeout; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    st = right.recv(f, 0);
  }
  EXPECT_EQ(st, FrameChannel::Recv::kFrame);
  EXPECT_EQ(f.type, FrameType::kShutdown);
}

TEST(FrameChannelTest, CleanCloseAtFrameBoundaryIsEof) {
  auto [a, b] = make_socketpair();
  FrameChannel left(std::move(a));
  FrameChannel right(std::move(b));
  left.send(make_heartbeat());
  left.close();
  Frame f;
  ASSERT_EQ(right.recv(f, 1000), FrameChannel::Recv::kFrame);
  EXPECT_EQ(right.recv(f, 1000), FrameChannel::Recv::kEof);
}

TEST(FrameChannelTest, MidFrameCloseIsATransportErrorNamingTheOffset) {
  auto [a, b] = make_socketpair();
  FrameChannel right(std::move(b));
  const auto bytes =
      encode_frame(make_result(ResultMsg{1, 2, false, "{\"mix\": 3}"}));
  // A heartbeat, then half a frame, then the peer dies.
  const auto hb = encode_frame(make_heartbeat());
  a->send_all(hb.data(), hb.size());
  a->send_all(bytes.data(), bytes.size() / 2);
  a->close_link();
  Frame f;
  ASSERT_EQ(right.recv(f, 1000), FrameChannel::Recv::kFrame);
  try {
    right.recv(f, 1000);
    ADD_FAILURE() << "expected TransportError for mid-frame EOF";
  } catch (const TransportError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("byte " + std::to_string(hb.size())),
              std::string::npos)
        << "message '" << msg << "' should name the frame boundary offset";
  }
}

TEST(FrameChannelTest, LoopbackTcpListenConnect) {
  std::uint16_t port = 0;
  const int listen_fd = tcp_listen(port, 4);
  ASSERT_GT(listen_fd, 0);
  ASSERT_NE(port, 0) << "ephemeral port must be written back";

  auto client = tcp_connect("127.0.0.1", port);
  int conn = -1;
  for (int i = 0; i < 1000 && conn < 0; ++i) {
    conn = ::accept(listen_fd, nullptr, nullptr);
    if (conn < 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(conn, 0);

  FrameChannel server_ch(std::make_unique<FdLink>(conn));
  FrameChannel client_ch(std::move(client));
  client_ch.send(make_hello(HelloMsg{42}));
  Frame f;
  ASSERT_EQ(server_ch.recv(f, 1000), FrameChannel::Recv::kFrame);
  EXPECT_EQ(decode_hello(f).worker_id, 42u);
  ::close(listen_fd);
}

TEST(TransportTest, ConnectRefusedThrowsTransportError) {
  // Grab an ephemeral port, close the listener, then dial it.
  std::uint16_t port = 0;
  const int fd = tcp_listen(port, 1);
  ::close(fd);
  EXPECT_THROW(tcp_connect("127.0.0.1", port), TransportError);
}

// A coordinator serves TCP workers only: one whose port another
// listener holds throws rather than run the campaign some other way.
TEST(Coordinator, HeldPortThrowsTransportError) {
  std::uint16_t port = 0;
  const int held = tcp_listen(port, 1);
  CampaignSpec spec;
  spec.mix_hi = 1;
  spec.defenses = {DefenseKind::kNone};
  CoordinatorOptions opt;
  opt.port = port;
  EXPECT_THROW({ Coordinator coord(spec, opt); }, TransportError);
  ::close(held);
}

// --------------------------------------------------- fault injection

/// ByteLink double that records every send_all as one chunk.
class RecordingLink final : public ByteLink {
 public:
  void send_all(const void* data, std::size_t n) override {
    if (closed_) throw TransportError("send on closed RecordingLink");
    const auto* p = static_cast<const std::uint8_t*>(data);
    sends.emplace_back(p, p + n);
  }
  std::ptrdiff_t recv_some(void*, std::size_t, int) override { return 0; }
  void close_link() override { closed_ = true; }

  std::vector<std::vector<std::uint8_t>> sends;
  bool closed_ = false;
};

FaultSpec drop_spec(std::uint64_t seed) {
  FaultSpec s;
  s.seed = seed;
  s.drop_pct = 30;
  s.dup_pct = 20;
  return s;
}

std::vector<std::size_t> fault_schedule(const FaultSpec& spec, int frames) {
  // Returns how many copies of each frame actually hit the wire.
  auto rec = std::make_unique<RecordingLink>();
  RecordingLink* raw = rec.get();
  FaultyTransport ft(std::move(rec), spec);
  const auto bytes = encode_frame(make_heartbeat());
  std::vector<std::size_t> copies;
  for (int i = 0; i < frames; ++i) {
    const std::size_t before = raw->sends.size();
    ft.send_all(bytes.data(), bytes.size());
    copies.push_back(raw->sends.size() - before);
  }
  return copies;
}

TEST(FaultyTransportTest, SameSeedSameSchedule) {
  const auto a = fault_schedule(drop_spec(1234), 200);
  const auto b = fault_schedule(drop_spec(1234), 200);
  EXPECT_EQ(a, b) << "fault schedule must be a pure function of the seed";
  const auto c = fault_schedule(drop_spec(99), 200);
  EXPECT_NE(a, c) << "different seeds should differ somewhere in 200 frames";
}

TEST(FaultyTransportTest, RatesRoughlyHonored) {
  const auto copies = fault_schedule(drop_spec(7), 1000);
  std::size_t dropped = 0, duped = 0;
  for (std::size_t c : copies) {
    if (c == 0) ++dropped;
    if (c == 2) ++duped;
  }
  // 30% drop / 20% dup over 1000 frames; generous +-10pt tolerance —
  // this asserts the knobs are wired up, not the RNG's quality.
  EXPECT_GT(dropped, 200u);
  EXPECT_LT(dropped, 400u);
  EXPECT_GT(duped, 100u);
  EXPECT_LT(duped, 300u);
}

TEST(FaultyTransportTest, TruncationSendsAPrefixClosesAndThrows) {
  FaultSpec spec;
  spec.seed = 5;
  spec.trunc_pct = 100;  // every frame truncates
  auto rec = std::make_unique<RecordingLink>();
  RecordingLink* raw = rec.get();
  FaultyTransport ft(std::move(rec), spec);
  const auto bytes = encode_frame(make_result(
      ResultMsg{1, 2, false, "{\"mix\": 1, \"exec_time\": 12345}"}));
  EXPECT_THROW(ft.send_all(bytes.data(), bytes.size()), TransportError);
  ASSERT_EQ(raw->sends.size(), 1u);
  EXPECT_GT(raw->sends[0].size(), 0u);
  EXPECT_LT(raw->sends[0].size(), bytes.size());
  EXPECT_TRUE(raw->closed_);
  EXPECT_EQ(ft.faults_injected(), 1u);
}

TEST(FaultyTransportTest, ZeroRatesPassThroughUntouched) {
  FaultSpec spec;
  spec.seed = 5;
  EXPECT_FALSE(spec.any());
  auto rec = std::make_unique<RecordingLink>();
  RecordingLink* raw = rec.get();
  FaultyTransport ft(std::move(rec), spec);
  const auto bytes = encode_frame(make_heartbeat());
  for (int i = 0; i < 50; ++i) ft.send_all(bytes.data(), bytes.size());
  EXPECT_EQ(raw->sends.size(), 50u);
  EXPECT_EQ(ft.faults_injected(), 0u);
  for (const auto& s : raw->sends) EXPECT_EQ(s, bytes);
}

TEST(FaultyTransportTest, RatesOver100Rejected) {
  FaultSpec spec;
  spec.drop_pct = 60;
  spec.dup_pct = 50;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.dup_pct = 40;
  EXPECT_NO_THROW(spec.validate());
}

}  // namespace
}  // namespace pipo
