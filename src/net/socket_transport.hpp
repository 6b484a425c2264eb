// The socket backend's transport: one TCP loopback connection per peer,
// non-blocking I/O, per-peer send queues drawing scratch buffers from
// runtime::BytePool, and the framing of wire.hpp on both directions.
//
// One SocketTransport lives in each worker process and implements
// algo::Transport for that process's single local rank; the worker runs
// its own DetectionProtocol instance, whose ControlFrames go on the wire
// (or, addressed to the local rank, straight to the sink).
//
// The send path is zero-copy scatter-gather: every queued frame is a
// runtime::ScatterFrame — the 16-byte header block next to a pooled
// payload buffer — and write_to() gathers several of them into one
// sendmsg() call, so payload bytes are written exactly once (by the
// CRC-fused encoder) and never reassembled. The receive path reads
// straight into each peer's accumulation buffer and parses full boundary
// frames in place into the sink's persistent inbox storage.
//
// Boundary sends are delta-thinned per link (ode::BoundaryDeltaSender)
// when the peer's Hello advertised kFeatureDeltaBoundary; against a
// legacy peer every boundary goes out as a full frame.
//
// Everything is single-threaded within the worker: pump() is the only
// place bytes enter or leave, and it dispatches complete frames to a
// FrameSink (the worker) synchronously. Failure surfaces as events, not
// hangs: a peer closing its socket without the Goodbye handshake, a
// connection error, or a send queue no peer drains within the write-stall
// timeout all arrive as FrameSink::on_peer_down.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "algo/runtime_ifaces.hpp"
#include "net/wire.hpp"
#include "ode/boundary_delta.hpp"
#include "ode/waveform_block.hpp"
#include "runtime/buffer_pool.hpp"
#include "trace/execution_trace.hpp"

namespace aiac::net {

/// Socket-level policy knobs, all timeouts in seconds.
struct TransportConfig {
  /// Mesh wiring: connect() retries with capped exponential backoff (a
  /// lower-rank listener always exists before any worker is forked, so
  /// retries only cover transient kernel-level refusals).
  std::size_t connect_attempts = 40;
  double connect_backoff_initial_s = 0.005;
  double connect_backoff_max_s = 0.2;
  /// Accept + Hello exchange during mesh wiring.
  double handshake_timeout_s = 10.0;
  /// Orderly-shutdown drain: how long to wait for each peer's Goodbye
  /// before declaring it down and closing anyway.
  double drain_timeout_s = 5.0;
  /// A non-empty send queue that makes no progress for this long means
  /// the peer stopped reading: surfaced as on_peer_down, never a hang.
  double write_stall_timeout_s = 10.0;
  /// Explicit SO_RCVBUF/SO_SNDBUF for peer links (0 keeps the kernel
  /// defaults). Left to autotuning, the kernel can moderate a busy
  /// receiver's window below the loopback MSS, wedging the link into
  /// ~200 ms persist-probe trickles — fatal when a detection ack is
  /// queued behind the backlog. Pinning both sides keeps the window
  /// honest.
  std::size_t socket_buffer_bytes = 1 << 20;

  /// Delta boundary frames (DESIGN.md §14): when true AND the peer's
  /// Hello advertised kFeatureDeltaBoundary, boundary sends on that link
  /// are thinned to the rows that moved more than delta_threshold since
  /// the last full frame, with a forced full refresh every
  /// delta_refresh_period sends. When false the feature is neither used
  /// nor advertised and every boundary goes out full.
  bool delta_boundaries = true;
  double delta_threshold = 0.0;
  std::size_t delta_refresh_period = ode::kDeltaRefreshPeriod;
};

/// Where pump() delivers decoded frames. Boundary delivery is zero-copy:
/// the transport parses a full boundary frame directly into the storage
/// boundary_inbox(peer) returns (the sink's persistent inbox slot for
/// that link) and then signals on_boundary_stored; a delta frame arrives
/// decoded into transport scratch via on_boundary_delta and the sink
/// patches its inbox in place. Migration payload references point into
/// transport-owned scratch reused across calls — move out before
/// returning.
class FrameSink {
 public:
  virtual ~FrameSink() = default;
  /// Persistent decode target for full boundary frames from `peer`. A
  /// malformed frame may leave it partially overwritten — the transport
  /// fails the peer in that case and never signals on_boundary_stored.
  virtual ode::BoundaryMessage& boundary_inbox(std::size_t peer) = 0;
  /// boundary_inbox(peer) now holds a freshly parsed full message.
  virtual void on_boundary_stored(std::size_t peer) = 0;
  virtual void on_boundary_delta(std::size_t peer,
                                 const ode::BoundaryDeltaMessage& delta) = 0;
  virtual void on_migration(std::size_t peer, ode::MigrationPayload&& payload) = 0;
  virtual void on_control(const algo::ControlFrame& frame) = 0;
  virtual void on_mig_ack(std::size_t peer) = 0;
  virtual void on_token_request(std::size_t peer) = 0;
  virtual void on_token_grant(std::size_t peer) = 0;
  virtual void on_goodbye(std::size_t peer, bool peer_failed) = 0;
  /// The peer is gone without an orderly Goodbye (EOF, connection error,
  /// write stall, malformed frame). The connection is already closed.
  virtual void on_peer_down(std::size_t peer, const std::string& reason) = 0;
};

class SocketTransport final : public algo::Transport {
 public:
  SocketTransport(std::size_t rank, std::size_t processors,
                  const TransportConfig& config, runtime::BytePool& byte_pool,
                  runtime::BufferPool& row_pool, FrameSink& sink);
  ~SocketTransport() override;

  SocketTransport(const SocketTransport&) = delete;
  SocketTransport& operator=(const SocketTransport&) = delete;

  /// Hands an established, Hello-handshaken connection for peer `r` to
  /// the transport, which switches it to non-blocking mode and owns the
  /// fd from here on. `leftover` is any bytes the handshake read past its
  /// own frame (a fast peer pipelines data right behind its Hello); they
  /// are the prefix of the frame stream and are dispatched immediately.
  void adopt_peer(std::size_t r, int fd,
                  std::span<const std::uint8_t> leftover = {});

  /// Capability bits the peer's handshake Hello advertised (the listener
  /// side learns them during wiring; the connector side picks them up
  /// from the listener's reply Hello, which arrives as the first frame on
  /// the link). Until set, the peer advertises nothing and every
  /// boundary goes out as a full frame — always safe.
  void set_peer_features(std::size_t r, std::uint64_t features);

  // ---- algo::Transport ------------------------------------------------

  /// Encodes and queues toward the adjacent rank; `msg.rows` is released
  /// back to the row pool (send_* consume their payload). On a
  /// delta-capable link the message may leave as a BoundaryDelta frame
  /// carrying only the rows that moved (see TransportConfig).
  void send_boundary(std::size_t src, algo::Side toward,
                     ode::BoundaryMessage msg) override;
  void send_migration(std::size_t src, algo::Side toward,
                      ode::MigrationPayload payload) override;

  /// Self-addressed frames (the coordinator reporting to itself) skip the
  /// wire and go straight to the sink's on_control, so the worker drains
  /// them with remote control traffic from one queue.
  void send_control(std::size_t src, std::size_t dst,
                    const algo::ControlFrame& frame) override;

  // ---- Link/session frames -------------------------------------------

  void send_mig_ack(std::size_t dst);
  void send_token_request(std::size_t dst);
  void send_token_grant(std::size_t dst);
  /// Tells every still-open peer no further frames follow; `failed` lets
  /// receivers distinguish an aborting peer from an orderly halt.
  void send_goodbye_all(bool failed);

  // ---- The event loop step -------------------------------------------

  /// One poll step: waits up to `timeout_ms` for socket activity, reads
  /// and dispatches every complete frame to the sink, flushes pending
  /// writes, and applies the write-stall timeout.
  void pump(int timeout_ms);

  /// Flush-only variant (no reads): used while winding down.
  void flush();

  bool sends_pending() const noexcept;
  /// Queued (unflushed) outgoing frames across all peers — backpressure
  /// visibility for the worker's status/debug output.
  std::size_t sendq_frames() const noexcept;
  /// Buffered undecoded inbound bytes across all peers.
  std::size_t inbuf_bytes() const noexcept;
  bool peer_open(std::size_t r) const noexcept;
  /// The peer sent Goodbye: no more frames will arrive and nothing more
  /// should be sent to it.
  bool peer_said_goodbye(std::size_t r) const noexcept;

  /// Orderly-shutdown drain: pumps until every open peer delivered its
  /// Goodbye (migrations arriving meanwhile still reach the sink — the
  /// conservation-critical part) or the drain timeout expires, at which
  /// point stragglers are reported down and closed.
  void drain_goodbyes();

  // ---- Accounting -----------------------------------------------------

  std::size_t data_messages() const noexcept { return data_messages_; }
  std::size_t control_messages() const noexcept { return control_messages_; }
  std::size_t bytes_sent() const noexcept { return bytes_sent_; }

  /// True when any bytes moved on the link to `r` in either direction.
  bool link_used(std::size_t r) const noexcept;
  /// Per-link comms totals for the trace (src is the local rank).
  /// frames_suppressed counts queued boundary frames replaced by fresher
  /// ones before reaching the wire; rows_suppressed counts rows thinned
  /// out of delta sends.
  trace::CommsRecord comms_record(std::size_t r) const;

 private:
  using OutFrame = runtime::ScatterFrame<kFrameHeaderBytes>;

  struct Peer {
    static constexpr std::size_t kNoFrame = static_cast<std::size_t>(-1);

    int fd = -1;
    bool goodbye_received = false;
    bool goodbye_sent = false;
    bool peer_failed = false;  // its Goodbye carried the failed flag
    /// Feature bits from the peer's Hello; hello_seen guards against a
    /// second post-handshake Hello rewriting them mid-run.
    std::uint64_t features = 0;
    bool hello_seen = false;
    std::vector<std::uint8_t> inbuf;
    /// Send queue: scatter-gather frames (header block + pooled payload);
    /// front_pos tracks the partial write into the front frame, counted
    /// across header and payload.
    std::deque<OutFrame> sendq;
    std::size_t front_pos = 0;
    /// Index into sendq of the queued, not-yet-transmitted boundary
    /// frame (kNoFrame when none). Asynchronous iteration only ever
    /// wants the freshest boundary — the receiver's inbox overwrites —
    /// so a newer one replaces the queued frame in place instead of
    /// growing the queue behind a slower peer. boundary_q_full remembers
    /// whether that slot holds a full frame: a queued full is a baseline
    /// the delta planner rebased on, so it may only be replaced by
    /// another full (see send_boundary).
    std::size_t boundary_qidx = kNoFrame;
    bool boundary_q_full = false;
    double last_write_progress = 0.0;
    // Per-link comms counters (comms_record).
    std::size_t frames_sent = 0;
    std::size_t frames_full = 0;
    std::size_t frames_delta = 0;
    std::size_t frames_suppressed = 0;
    std::size_t bytes_to = 0;
    std::size_t bytes_from = 0;
  };

  double now() const;
  Peer& peer_for(std::size_t r);
  void enqueue(std::size_t dst, OutFrame&& frame);
  /// Encodes header+payload via `encode` and queues the frame for `dst`.
  template <typename EncodeFn>
  void queue_frame(std::size_t dst, bool control, EncodeFn&& encode);
  void close_peer(Peer& peer);
  void fail_peer(std::size_t r, const std::string& reason);
  void read_from(std::size_t r);
  void write_to(std::size_t r);
  /// Extracts and dispatches complete frames from peer r's inbuf;
  /// returns false (after failing the peer) on a malformed stream.
  bool dispatch_frames(std::size_t r);

  std::size_t rank_;
  std::size_t processors_;
  TransportConfig config_;
  runtime::BytePool* byte_pool_;
  runtime::BufferPool* row_pool_;
  FrameSink* sink_;
  std::vector<Peer> peers_;  // indexed by rank; the self entry stays closed
  /// Per-link delta planners (indexed by rank; only neighbor entries are
  /// ever exercised).
  std::vector<ode::BoundaryDeltaSender> delta_senders_;
  // Decode/plan scratch, reused across frames so the send and receive
  // paths stop allocating once warm. Separate send/receive delta scratch:
  // a sink callback may trigger sends while a received delta is still
  // being applied.
  ode::BoundaryDeltaMessage delta_send_scratch_;
  ode::BoundaryDeltaMessage delta_recv_scratch_;
  ode::MigrationPayload migration_scratch_;
  double t0_ = 0.0;
  std::size_t data_messages_ = 0;
  std::size_t control_messages_ = 0;
  std::size_t bytes_sent_ = 0;
};

// ---- Mesh wiring helpers (blocking, pre-loop) -------------------------

/// Creates a listening TCP socket on 127.0.0.1 with an ephemeral port
/// (returned in `port`). Throws std::runtime_error on failure.
int make_loopback_listener(std::uint16_t& port, int backlog);

/// Connects to 127.0.0.1:`port`, retrying with capped exponential backoff
/// per `config`. Throws std::runtime_error when attempts are exhausted.
int connect_loopback(std::uint16_t port, const TransportConfig& config);

/// Blocking send of an encoded frame during the handshake (poll-guarded
/// by `timeout_s`). Returns false on error/timeout.
bool write_all(int fd, std::span<const std::uint8_t> bytes, double timeout_s);

/// Blocking read of exactly one frame during the handshake. Returns false
/// on error, timeout, or a malformed stream.
bool read_one_frame(int fd, std::vector<std::uint8_t>& buf, FrameView& view,
                    double timeout_s);

}  // namespace aiac::net
