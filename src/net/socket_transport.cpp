#include "net/socket_transport.hpp"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

namespace aiac::net {

namespace {

using Clock = std::chrono::steady_clock;

double monotonic_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    throw std::runtime_error(errno_string("fcntl(O_NONBLOCK)"));
}

void set_nodelay(int fd) {
  // Boundary frames are small and latency-sensitive; Nagle would batch
  // them behind unacknowledged data.
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

// ---- SocketTransport --------------------------------------------------

SocketTransport::SocketTransport(std::size_t rank, std::size_t processors,
                                 const TransportConfig& config,
                                 runtime::BytePool& byte_pool,
                                 runtime::BufferPool& row_pool,
                                 FrameSink& sink)
    : rank_(rank),
      processors_(processors),
      config_(config),
      byte_pool_(&byte_pool),
      row_pool_(&row_pool),
      sink_(&sink),
      peers_(processors),
      delta_senders_(processors,
                     ode::BoundaryDeltaSender(ode::BoundaryDeltaSender::Config{
                         config.delta_threshold,
                         config.delta_refresh_period})),
      t0_(monotonic_seconds()) {
  poll_fds_.reserve(processors);
  poll_ranks_.reserve(processors);
}

SocketTransport::~SocketTransport() {
  for (auto& peer : peers_)
    if (peer.fd >= 0) ::close(peer.fd);
}

double SocketTransport::now() const { return monotonic_seconds() - t0_; }

SocketTransport::Peer& SocketTransport::peer_for(std::size_t r) {
  if (r >= processors_ || r == rank_)
    throw std::logic_error("SocketTransport: bad peer rank");
  return peers_[r];
}

void SocketTransport::adopt_peer(std::size_t r, int fd,
                                 std::span<const std::uint8_t> leftover) {
  Peer& peer = peer_for(r);
  if (peer.fd >= 0) throw std::logic_error("SocketTransport: duplicate peer");
  set_nonblocking(fd);
  set_nodelay(fd);
  if (config_.socket_buffer_bytes > 0) {
    // Pin both buffer sizes (see TransportConfig::socket_buffer_bytes):
    // autotuned receive windows can collapse below the loopback MSS and
    // degrade the link to persist-probe trickles.
    const int size = static_cast<int>(std::min<std::size_t>(
        config_.socket_buffer_bytes,
        static_cast<std::size_t>(std::numeric_limits<int>::max())));
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &size, sizeof(size));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &size, sizeof(size));
  }
  peer.fd = fd;
  peer.last_write_progress = now();
  if (!leftover.empty()) {
    // Bytes the handshake read past the Hello frame — the prefix of this
    // peer's data stream. Discarding them would desync the framing.
    peer.inbuf.insert(peer.inbuf.end(), leftover.begin(), leftover.end());
    peer.bytes_from += leftover.size();
    dispatch_frames(r);
  }
}

void SocketTransport::enqueue(std::size_t dst, OutFrame&& frame) {
  Peer& peer = peer_for(dst);
  bytes_sent_ += frame.total_bytes();
  peer.bytes_to += frame.total_bytes();
  ++peer.frames_sent;
  if (peer.fd < 0 || peer.goodbye_sent) {
    // Goodbye was our promise of silence, and a downed link reads
    // nothing more; dropping beats dying on EPIPE. A peer that sent
    // *us* its goodbye still reads (its drain waits for ours), so those
    // frames go out normally.
    byte_pool_->release(std::move(frame.payload));
    return;
  }
  if (peer.sendq.empty()) peer.last_write_progress = now();
  peer.sendq.push_back(std::move(frame));
}

template <typename EncodeFn>
void SocketTransport::queue_frame(std::size_t dst, bool control,
                                  EncodeFn&& encode) {
  OutFrame frame;
  frame.payload = byte_pool_->acquire();
  frame.payload.clear();
  encode(frame.header, frame.payload);
  if (control)
    ++control_messages_;
  else
    ++data_messages_;
  enqueue(dst, std::move(frame));
}

void SocketTransport::send_boundary(std::size_t src, algo::Side toward,
                                    ode::BoundaryMessage msg) {
  if (src != rank_)
    throw std::logic_error("SocketTransport: send_boundary from foreign rank");
  const std::size_t dst = toward == algo::Side::kLeft ? src - 1 : src + 1;
  Peer& peer = peer_for(dst);
  if (peer.fd < 0 || peer.goodbye_sent) {
    // Dropped, but accounted like enqueue()'s drop path (as a full
    // frame); the planner is left untouched so a dead link accrues no
    // baseline it can never deliver.
    const std::size_t dropped = kFrameHeaderBytes + msg.byte_size();
    bytes_sent_ += dropped;
    peer.bytes_to += dropped;
    ++peer.frames_sent;
    ++peer.frames_full;
    row_pool_->release(std::move(msg.rows));
    return;
  }
  const bool slot_live =
      peer.boundary_qidx != Peer::kNoFrame &&
      !(peer.boundary_qidx == 0 && peer.front_pos > 0);
  OutFrame frame;
  frame.payload = byte_pool_->acquire();
  frame.payload.clear();
  bool is_full = true;
  if (config_.delta_boundaries) {
    // Replacing a queued unsent full with a delta would thin against a
    // baseline that never reaches the peer — force a rebase instead.
    const bool force_full = slot_live && peer.boundary_q_full;
    if (delta_senders_[dst].plan(msg, delta_send_scratch_, force_full) ==
        ode::BoundaryDeltaSender::Plan::kDelta) {
      encode_boundary_delta_sg(delta_send_scratch_, frame.header,
                               frame.payload);
      is_full = false;
    }
  }
  if (is_full)
    encode_boundary_sg(msg, frame.header, frame.payload);
  row_pool_->release(std::move(msg.rows));
  if (is_full)
    ++peer.frames_full;
  else
    ++peer.frames_delta;
  if (slot_live) {
    // Coalesce: a queued boundary frame that has not started onto the
    // wire is replaced by the fresher one. Whatever the rate mismatch
    // between this rank and its peer, at most one boundary frame ever
    // waits per link, so the send queue stays bounded by control traffic
    // alone. (A delta replacing a delta loses nothing: deltas are
    // cumulative against the baseline, so the newer one carries every
    // row the replaced one did.)
    OutFrame& slot = peer.sendq[peer.boundary_qidx];
    bytes_sent_ += frame.total_bytes();
    bytes_sent_ -= slot.total_bytes();
    peer.bytes_to += frame.total_bytes();
    peer.bytes_to -= slot.total_bytes();
    ++peer.frames_suppressed;
    byte_pool_->release(std::move(slot.payload));
    slot = std::move(frame);
    peer.boundary_q_full = is_full;
    return;  // replaces a frame already counted in data_messages_
  }
  ++data_messages_;
  ++peer.frames_sent;
  bytes_sent_ += frame.total_bytes();
  peer.bytes_to += frame.total_bytes();
  if (peer.sendq.empty()) peer.last_write_progress = now();
  peer.sendq.push_back(std::move(frame));
  peer.boundary_qidx = peer.sendq.size() - 1;
  peer.boundary_q_full = is_full;
}

void SocketTransport::send_migration(std::size_t src, algo::Side toward,
                                     ode::MigrationPayload payload) {
  if (src != rank_)
    throw std::logic_error(
        "SocketTransport: send_migration from foreign rank");
  const std::size_t dst = toward == algo::Side::kLeft ? src - 1 : src + 1;
  queue_frame(dst, /*control=*/false,
              [&](FrameHeaderArray& header, std::vector<std::uint8_t>& body) {
                encode_migration_sg(payload, header, body);
              });
  row_pool_->release(std::move(payload.rows));
}

void SocketTransport::send_control(std::size_t src, std::size_t dst,
                                   const algo::ControlFrame& frame) {
  if (src != rank_)
    throw std::logic_error("SocketTransport: send_control from foreign rank");
  ++control_messages_;
  if (dst == rank_) {
    // Self-sends (the coordinator is rank 0 talking to itself) skip the
    // wire but keep queue semantics: the sink queues the frame, and it is
    // handled at the worker's next control drain like a remote one.
    sink_->on_control(frame);
    return;
  }
  OutFrame out;
  out.payload = byte_pool_->acquire();
  out.payload.clear();
  encode_control_sg(frame, out.header, out.payload);
  enqueue(dst, std::move(out));
}

void SocketTransport::send_mig_ack(std::size_t dst) {
  queue_frame(dst, /*control=*/true,
              [](FrameHeaderArray& header, std::vector<std::uint8_t>&) {
                encode_empty_sg(FrameType::kMigAck, header);
              });
}

void SocketTransport::send_token_request(std::size_t dst) {
  queue_frame(dst, /*control=*/true,
              [](FrameHeaderArray& header, std::vector<std::uint8_t>&) {
                encode_empty_sg(FrameType::kTokenRequest, header);
              });
}

void SocketTransport::send_token_grant(std::size_t dst) {
  queue_frame(dst, /*control=*/true,
              [](FrameHeaderArray& header, std::vector<std::uint8_t>&) {
                encode_empty_sg(FrameType::kTokenGrant, header);
              });
}

void SocketTransport::send_goodbye_all(bool failed) {
  for (std::size_t r = 0; r < processors_; ++r) {
    if (r == rank_) continue;
    Peer& peer = peers_[r];
    if (peer.fd < 0 || peer.goodbye_sent) continue;
    queue_frame(r, /*control=*/true,
                [&](FrameHeaderArray& header, std::vector<std::uint8_t>& body) {
                  encode_goodbye_sg(failed, header, body);
                });
    peer.goodbye_sent = true;
  }
}

std::size_t SocketTransport::sendq_frames() const noexcept {
  std::size_t total = 0;
  for (const auto& peer : peers_) total += peer.sendq.size();
  return total;
}

std::size_t SocketTransport::inbuf_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& peer : peers_) total += peer.inbuf.size();
  return total;
}

bool SocketTransport::peer_open(std::size_t r) const noexcept {
  return peers_[r].fd >= 0;
}

bool SocketTransport::peer_said_goodbye(std::size_t r) const noexcept {
  return peers_[r].goodbye_received;
}

bool SocketTransport::link_used(std::size_t r) const noexcept {
  return peers_[r].bytes_to > 0 || peers_[r].bytes_from > 0;
}

trace::CommsRecord SocketTransport::comms_record(std::size_t r) const {
  const Peer& peer = peers_[r];
  trace::CommsRecord rec;
  rec.src = rank_;
  rec.dst = r;
  rec.frames_sent = peer.frames_sent;
  rec.frames_full = peer.frames_full;
  rec.frames_delta = peer.frames_delta;
  rec.frames_suppressed = peer.frames_suppressed;
  rec.rows_suppressed = delta_senders_[r].rows_suppressed();
  rec.bytes_sent = peer.bytes_to;
  rec.bytes_received = peer.bytes_from;
  return rec;
}

void SocketTransport::close_peer(Peer& peer) {
  if (peer.fd >= 0) ::close(peer.fd);
  peer.fd = -1;
  for (auto& frame : peer.sendq) byte_pool_->release(std::move(frame.payload));
  peer.sendq.clear();
  peer.front_pos = 0;
  peer.boundary_qidx = Peer::kNoFrame;
  peer.boundary_q_full = false;
}

void SocketTransport::fail_peer(std::size_t r, const std::string& reason) {
  close_peer(peers_[r]);
  sink_->on_peer_down(r, reason);
}

void SocketTransport::read_from(std::size_t r) {
  Peer& peer = peers_[r];
  constexpr std::size_t kChunk = 16384;
  for (;;) {
    if (peer.fd < 0) return;
    // Receive straight into the accumulation buffer's tail: the bytes
    // land where dispatch_frames parses them, with no bounce through a
    // stack chunk.
    const std::size_t old_size = peer.inbuf.size();
    peer.inbuf.resize(old_size + kChunk);
    const ssize_t n = ::recv(peer.fd, peer.inbuf.data() + old_size, kChunk, 0);
    peer.inbuf.resize(old_size +
                      (n > 0 ? static_cast<std::size_t>(n) : 0));
    if (n > 0) {
      peer.bytes_from += static_cast<std::size_t>(n);
      if (!dispatch_frames(r)) return;
      if (static_cast<std::size_t>(n) < kChunk) return;
      continue;
    }
    if (n == 0) {
      // EOF. After the peer's Goodbye this is the orderly close; before
      // it, the process died under us (the killed-worker path).
      if (peer.goodbye_received)
        close_peer(peer);
      else
        fail_peer(r, "connection closed without goodbye");
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    if (peer.goodbye_received)
      close_peer(peer);
    else
      fail_peer(r, errno_string("recv"));
    return;
  }
}

bool SocketTransport::dispatch_frames(std::size_t r) {
  Peer& peer = peers_[r];
  std::size_t consumed = 0;
  bool ok = true;
  while (peer.fd >= 0) {
    FrameView view;
    const std::span<const std::uint8_t> window(peer.inbuf.data() + consumed,
                                               peer.inbuf.size() - consumed);
    const DecodeStatus status = try_extract_frame(window, view);
    if (status == DecodeStatus::kNeedMore) break;
    if (status == DecodeStatus::kBad) {
      fail_peer(r, "malformed frame on the wire");
      ok = false;
      break;
    }
    consumed += view.frame_bytes;
    bool payload_ok = true;
    switch (view.header.type) {
      case FrameType::kBoundary: {
        // In-place parse into the sink's persistent inbox slot for this
        // link: the rows land where the algorithm reads them, with no
        // intermediate scratch copy.
        ode::BoundaryMessage& inbox = sink_->boundary_inbox(r);
        payload_ok = decode_boundary(view.payload, inbox);
        if (payload_ok) sink_->on_boundary_stored(r);
        break;
      }
      case FrameType::kBoundaryDelta:
        payload_ok = decode_boundary_delta(view.payload, delta_recv_scratch_);
        if (payload_ok) sink_->on_boundary_delta(r, delta_recv_scratch_);
        break;
      case FrameType::kMigration:
        payload_ok = decode_migration(view.payload, migration_scratch_);
        if (payload_ok)
          sink_->on_migration(r, std::move(migration_scratch_));
        break;
      case FrameType::kControl: {
        algo::ControlFrame frame;
        payload_ok = decode_control(view.payload, frame);
        if (payload_ok) sink_->on_control(frame);
        break;
      }
      case FrameType::kMigAck:
        payload_ok = view.payload.empty();
        if (payload_ok) sink_->on_mig_ack(r);
        break;
      case FrameType::kTokenRequest:
        payload_ok = view.payload.empty();
        if (payload_ok) sink_->on_token_request(r);
        break;
      case FrameType::kTokenGrant:
        payload_ok = view.payload.empty();
        if (payload_ok) sink_->on_token_grant(r);
        break;
      case FrameType::kGoodbye: {
        bool failed = false;
        payload_ok = decode_goodbye(view.payload, failed);
        if (payload_ok) {
          peer.goodbye_received = true;
          peer.peer_failed = failed;
          sink_->on_goodbye(r, failed);
        }
        break;
      }
      default:
        // A handshake or launcher-only frame type on a worker link: a
        // protocol violation.
        payload_ok = false;
        break;
    }
    if (!payload_ok) {
      fail_peer(r, "invalid frame payload");
      ok = false;
      break;
    }
  }
  if (consumed > 0 && peer.fd >= 0)
    peer.inbuf.erase(peer.inbuf.begin(),
                     peer.inbuf.begin() +
                         static_cast<std::ptrdiff_t>(consumed));
  return ok;
}

void SocketTransport::write_to(std::size_t r) {
  Peer& peer = peers_[r];
  while (peer.fd >= 0 && !peer.sendq.empty()) {
    // Gather up to kIovFrames queued frames — header block and pooled
    // payload as separate segments — into one scatter-gather send, so
    // frame bytes go from where they were encoded straight to the
    // kernel. sendmsg rather than writev for MSG_NOSIGNAL: a racing
    // peer close must surface as EPIPE, not kill the process.
    constexpr std::size_t kIovFrames = 8;
    std::array<iovec, 2 * kIovFrames> iov;
    std::size_t iov_count = 0;
    for (std::size_t q = 0;
         q < peer.sendq.size() && iov_count < iov.size(); ++q) {
      OutFrame& frame = peer.sendq[q];
      std::size_t skip = q == 0 ? peer.front_pos : 0;
      if (skip < frame.header.size()) {
        iov[iov_count].iov_base = frame.header.data() + skip;
        iov[iov_count].iov_len = frame.header.size() - skip;
        ++iov_count;
        skip = 0;
      } else {
        skip -= frame.header.size();
      }
      if (skip < frame.payload.size() && iov_count < iov.size()) {
        iov[iov_count].iov_base = frame.payload.data() + skip;
        iov[iov_count].iov_len = frame.payload.size() - skip;
        ++iov_count;
      }
    }
    msghdr mh{};
    mh.msg_iov = iov.data();
    mh.msg_iovlen = static_cast<decltype(mh.msg_iovlen)>(iov_count);
    const ssize_t n = ::sendmsg(peer.fd, &mh, MSG_NOSIGNAL);
    if (n > 0) {
      peer.last_write_progress = now();
      std::size_t left = static_cast<std::size_t>(n);
      while (left > 0) {
        OutFrame& front = peer.sendq.front();
        const std::size_t avail = front.total_bytes() - peer.front_pos;
        if (left < avail) {
          peer.front_pos += left;
          break;
        }
        left -= avail;
        byte_pool_->release(std::move(front.payload));
        peer.sendq.pop_front();
        peer.front_pos = 0;
        if (peer.boundary_qidx != Peer::kNoFrame) {
          // The coalescing slot shifts with the queue; the boundary frame
          // itself leaving the queue ends its replaceable window.
          if (peer.boundary_qidx == 0) {
            peer.boundary_qidx = Peer::kNoFrame;
            peer.boundary_q_full = false;
          } else {
            --peer.boundary_qidx;
          }
        }
      }
      continue;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return;
    if (errno == EINTR) continue;
    if (peer.goodbye_received)
      close_peer(peer);  // it will never read this anyway
    else
      fail_peer(r, errno_string("send"));
    return;
  }
}

void SocketTransport::pump(int timeout_ms) {
  std::vector<pollfd>& fds = poll_fds_;
  std::vector<std::size_t>& ranks = poll_ranks_;
  fds.clear();
  ranks.clear();
  for (std::size_t r = 0; r < processors_; ++r) {
    const Peer& peer = peers_[r];
    if (peer.fd < 0) continue;
    pollfd pfd{};
    pfd.fd = peer.fd;
    pfd.events = POLLIN;
    if (!peer.sendq.empty()) pfd.events |= POLLOUT;
    fds.push_back(pfd);
    ranks.push_back(r);
  }
  if (fds.empty()) return;
  const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
  if (ready < 0 && errno != EINTR)
    throw std::runtime_error(errno_string("poll"));
  for (std::size_t i = 0; i < fds.size(); ++i) {
    const std::size_t r = ranks[i];
    if (peers_[r].fd < 0) continue;  // closed by an earlier dispatch
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_from(r);
    if (peers_[r].fd >= 0 && (fds[i].revents & POLLOUT)) write_to(r);
  }
  // Write-stall timeout: a queue nobody drains means the peer wedged
  // without closing; surface it instead of filling memory forever.
  const double t = now();
  for (std::size_t r = 0; r < processors_; ++r) {
    Peer& peer = peers_[r];
    if (peer.fd < 0 || peer.sendq.empty()) continue;
    if (t - peer.last_write_progress > config_.write_stall_timeout_s)
      fail_peer(r, "send queue stalled (peer stopped reading)");
  }
}

void SocketTransport::flush() {
  for (std::size_t r = 0; r < processors_; ++r)
    if (peers_[r].fd >= 0 && !peers_[r].sendq.empty()) write_to(r);
}

void SocketTransport::drain_goodbyes() {
  const double deadline = now() + config_.drain_timeout_s;
  for (;;) {
    bool waiting = false;
    for (std::size_t r = 0; r < processors_; ++r) {
      const Peer& peer = peers_[r];
      if (peer.fd >= 0 && (!peer.goodbye_received || !peer.sendq.empty()))
        waiting = true;
    }
    if (!waiting) break;
    const double left = deadline - now();
    if (left <= 0.0) {
      for (std::size_t r = 0; r < processors_; ++r) {
        Peer& peer = peers_[r];
        if (peer.fd >= 0 && !peer.goodbye_received)
          fail_peer(r, "no goodbye before drain timeout");
        else if (peer.fd >= 0)
          close_peer(peer);
      }
      break;
    }
    pump(static_cast<int>(std::min(left * 1000.0, 50.0)));
  }
  // Everything settled: close whatever is still open.
  for (auto& peer : peers_)
    if (peer.fd >= 0) close_peer(peer);
}

// ---- Mesh wiring helpers ----------------------------------------------

int make_loopback_listener(std::uint16_t& port, int backlog) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error(errno_string("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;  // ephemeral
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    throw std::runtime_error(errno_string("bind"));
  }
  if (::listen(fd, backlog) < 0) {
    ::close(fd);
    throw std::runtime_error(errno_string("listen"));
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
    ::close(fd);
    throw std::runtime_error(errno_string("getsockname"));
  }
  port = ntohs(addr.sin_port);
  return fd;
}

int connect_loopback(std::uint16_t port, const TransportConfig& config) {
  double backoff = config.connect_backoff_initial_s;
  for (std::size_t attempt = 0;; ++attempt) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) throw std::runtime_error(errno_string("socket"));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      set_nodelay(fd);
      return fd;
    }
    ::close(fd);
    if (attempt + 1 >= config.connect_attempts)
      throw std::runtime_error(errno_string("connect (attempts exhausted)"));
    std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    backoff = std::min(backoff * 2.0, config.connect_backoff_max_s);
  }
}

bool write_all(int fd, std::span<const std::uint8_t> bytes,
               double timeout_s) {
  const double deadline = monotonic_seconds() + timeout_s;
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const double left = deadline - monotonic_seconds();
      if (left <= 0.0) return false;
      pollfd pfd{};
      pfd.fd = fd;
      pfd.events = POLLOUT;
      ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
      continue;
    }
    return false;
  }
  return true;
}

bool read_one_frame(int fd, std::vector<std::uint8_t>& buf, FrameView& view,
                    double timeout_s) {
  const double deadline = monotonic_seconds() + timeout_s;
  for (;;) {
    const DecodeStatus status = try_extract_frame(buf, view);
    if (status == DecodeStatus::kOk) return true;
    if (status == DecodeStatus::kBad) return false;
    const double left = deadline - monotonic_seconds();
    if (left <= 0.0) return false;
    pollfd pfd{};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, static_cast<int>(left * 1000.0) + 1);
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    std::uint8_t chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)
        continue;
      return false;
    }
    buf.insert(buf.end(), chunk, chunk + n);
  }
}

}  // namespace aiac::net
