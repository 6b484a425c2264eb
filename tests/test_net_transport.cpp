// In-process SocketTransport tests over a socketpair: two transports wired
// back to back with fake FrameSinks, exercising the delta switch both ways
// (an enabled sender thins a quiet link to delta frames, a disabled one
// sends full frames only) and the zero-copy receive path (full frames
// decode into the sink's persistent inbox, deltas patch it in place with
// the epoch rule).
#include <gtest/gtest.h>

#include <sys/socket.h>

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "net/socket_transport.hpp"
#include "ode/boundary_delta.hpp"

namespace {

using namespace aiac;
using algo::Side;

/// Minimal worker stand-in: persistent per-peer inboxes with the same
/// epoch bookkeeping NetWorker does, plus counters for every event.
class TestSink final : public net::FrameSink {
 public:
  explicit TestSink(std::size_t processors)
      : inbox_(processors), epoch_(processors, 0), has_base_(processors) {}

  ode::BoundaryMessage& boundary_inbox(std::size_t peer) override {
    return inbox_[peer];
  }
  void on_boundary_stored(std::size_t peer) override {
    ++fulls;
    epoch_[peer] = inbox_[peer].sender_iteration;
    has_base_[peer] = true;
  }
  void on_boundary_delta(std::size_t peer,
                         const ode::BoundaryDeltaMessage& delta) override {
    ++deltas;
    EXPECT_TRUE(has_base_[peer]) << "delta before any full frame";
    EXPECT_TRUE(apply_boundary_delta(delta, epoch_[peer], inbox_[peer]));
  }
  void on_migration(std::size_t, ode::MigrationPayload&&) override {}
  void on_control(const algo::ControlFrame&) override {}
  void on_mig_ack(std::size_t) override {}
  void on_token_request(std::size_t) override {}
  void on_token_grant(std::size_t) override {}
  void on_goodbye(std::size_t, bool) override { ++goodbyes; }
  void on_peer_down(std::size_t, const std::string& reason) override {
    ++downs;
    down_reason = reason;
  }

  const ode::BoundaryMessage& inbox(std::size_t peer) const {
    return inbox_[peer];
  }

  std::size_t fulls = 0;
  std::size_t deltas = 0;
  std::size_t goodbyes = 0;
  std::size_t downs = 0;
  std::string down_reason;

 private:
  std::vector<ode::BoundaryMessage> inbox_;
  std::vector<std::size_t> epoch_;
  std::vector<bool> has_base_;
};

/// A rank-0/rank-1 pair joined by a socketpair (the handshake is assumed
/// already done).
struct LinkedPair {
  net::TransportConfig config;
  runtime::BytePool byte_pool_a, byte_pool_b;
  runtime::BufferPool row_pool_a, row_pool_b;
  TestSink sink_a{2}, sink_b{2};
  std::unique_ptr<net::SocketTransport> a, b;

  explicit LinkedPair(double threshold = 0.25,
                      std::size_t refresh_period = 16) {
    config.delta_boundaries = true;
    config.delta_threshold = threshold;
    config.delta_refresh_period = refresh_period;
    a = std::make_unique<net::SocketTransport>(0, 2, config, byte_pool_a,
                                               row_pool_a, sink_a);
    b = std::make_unique<net::SocketTransport>(1, 2, config, byte_pool_b,
                                               row_pool_b, sink_b);
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a->adopt_peer(1, fds[0]);
    b->adopt_peer(0, fds[1]);
  }

  void pump_both(int rounds = 10) {
    for (int i = 0; i < rounds; ++i) {
      a->pump(1);
      b->pump(1);
    }
  }
};

ode::BoundaryMessage boundary(std::size_t iteration, double value) {
  ode::BoundaryMessage msg;
  msg.global_first = 4;
  msg.row_count = 2;
  msg.points = 8;
  msg.sender_iteration = iteration;
  msg.sender_components = 12;
  msg.sender_residual = 0.125;
  msg.sender_load = 2.0;
  msg.rows.assign(msg.row_count * msg.points, value);
  return msg;
}

TEST(NetTransportNegotiation, CapablePairThinsQuietLinkToDeltas) {
  LinkedPair pair;

  // First send rebases (full); later sends drift within the threshold
  // and must leave as deltas that keep the receiver's inbox current.
  pair.a->send_boundary(0, Side::kRight, boundary(1, 1.0));
  pair.pump_both();
  ASSERT_EQ(pair.sink_b.fulls, 1u);
  EXPECT_EQ(pair.sink_b.inbox(0).sender_iteration, 1u);

  for (std::size_t it = 2; it <= 6; ++it) {
    pair.a->send_boundary(0, Side::kRight,
                          boundary(it, 1.0 + 0.01 * static_cast<double>(it)));
    pair.pump_both();
  }
  EXPECT_EQ(pair.sink_b.fulls, 1u);  // nothing forced a refresh
  EXPECT_EQ(pair.sink_b.deltas, 5u);
  EXPECT_EQ(pair.sink_b.downs, 0u);
  // The receiver's metadata tracked every thinned send.
  EXPECT_EQ(pair.sink_b.inbox(0).sender_iteration, 6u);
  // Quiet-link deltas carry no rows (a fixed 88-byte frame each), so the
  // six sends must cost well under six full frames on the wire.
  const trace::CommsRecord comms = pair.a->comms_record(1);
  EXPECT_EQ(comms.frames_full, 1u);
  EXPECT_EQ(comms.frames_delta, 5u);
  const std::size_t full_bytes =
      net::kFrameHeaderBytes + 7 * 8 + 2 * 8 * 8;  // 200 per full frame
  EXPECT_LT(comms.bytes_sent, 4 * full_bytes);     // vs. 6 when all-full
  EXPECT_EQ(comms.rows_suppressed, 10u);
}

TEST(NetTransportNegotiation, RowsBeyondThresholdArriveExactly) {
  LinkedPair pair(/*threshold=*/0.25);

  pair.a->send_boundary(0, Side::kRight, boundary(1, 1.0));
  pair.pump_both();
  ode::BoundaryMessage moved = boundary(2, 1.0);
  moved.rows[9] = 7.5;  // row 1 crossed the threshold
  pair.a->send_boundary(0, Side::kRight, moved);
  pair.pump_both();

  ASSERT_EQ(pair.sink_b.deltas, 1u);
  EXPECT_EQ(pair.sink_b.inbox(0).rows[9], 7.5);
  EXPECT_EQ(pair.sink_b.inbox(0).rows[0], 1.0);  // untouched baseline row
  EXPECT_EQ(pair.sink_b.inbox(0).sender_iteration, 2u);
}

TEST(NetTransportNegotiation, DisabledConfigNeverThinsEvenWithCapablePeer) {
  // The sender's config decides: with delta_boundaries off, every
  // boundary leaves full, even toward a peer that has deltas on.
  net::TransportConfig disabled;
  disabled.delta_boundaries = false;
  net::TransportConfig enabled;
  runtime::BytePool byte_a, byte_b;
  runtime::BufferPool rows_a, rows_b;
  TestSink sink_a(2), sink_b(2);
  net::SocketTransport a(0, 2, disabled, byte_a, rows_a, sink_a);
  net::SocketTransport b(1, 2, enabled, byte_b, rows_b, sink_b);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  a.adopt_peer(1, fds[0]);
  b.adopt_peer(0, fds[1]);

  for (std::size_t it = 1; it <= 4; ++it) {
    a.send_boundary(0, Side::kRight, boundary(it, 1.0));
    for (int round = 0; round < 10; ++round) {
      a.pump(1);
      b.pump(1);
    }
  }
  EXPECT_EQ(sink_b.fulls, 4u);
  EXPECT_EQ(sink_b.deltas, 0u);
}

TEST(NetTransportNegotiation, RefreshPeriodResyncsOnTheWire) {
  LinkedPair pair(/*threshold=*/0.25, /*refresh_period=*/3);
  for (std::size_t it = 1; it <= 9; ++it) {
    pair.a->send_boundary(0, Side::kRight, boundary(it, 1.0));
    pair.pump_both();
  }
  // Sends 1, 5, 9 are full (rebase after every 3 deltas).
  EXPECT_EQ(pair.sink_b.fulls, 3u);
  EXPECT_EQ(pair.sink_b.deltas, 6u);
  EXPECT_EQ(pair.sink_b.inbox(0).sender_iteration, 9u);
}

}  // namespace
