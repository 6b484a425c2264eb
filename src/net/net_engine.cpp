#include "net/net_engine.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algo/detection.hpp"
#include "algo/processor_core.hpp"
#include "net/wire.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/worker_pool.hpp"

namespace aiac::net {

namespace {

using algo::Side;
using Clock = std::chrono::steady_clock;

double wall_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// write(2) loop for the result pipes (plain fds, not sockets).
bool write_fd_all(int fd, std::span<const std::uint8_t> bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// The worker transport's knobs: socket policy from NetConfig plus the
/// EngineConfig's delta switch, thinning at the engine tolerance scaled by
/// core::kDeltaThresholdFactor (DESIGN.md §14) and refreshing every
/// ode::kDeltaRefreshPeriod sends, as the sim and thread planners do.
TransportConfig transport_config(const core::EngineConfig& config,
                                 const NetConfig& net) {
  TransportConfig tc = net.transport;
  tc.delta_boundaries = config.delta_boundaries;
  tc.delta_threshold = config.tolerance * core::kDeltaThresholdFactor;
  tc.delta_refresh_period = ode::kDeltaRefreshPeriod;
  return tc;
}

/// Per-link migration-token state. One token exists per link, initially
/// at the lower rank; holding it (with no un-acked payload) is the right
/// to extract a migration across that link. This is the distributed form
/// of the threaded engine's per-link atomic busy flag: crossing
/// migrations are impossible because extraction requires the link's only
/// token.
struct LinkState {
  bool hold_token = false;
  bool awaiting_ack = false;      // we sent a payload, receiver not done
  bool token_requested = false;   // our request is in flight
  bool peer_wants_token = false;  // their request arrived while we used it
};

/// One worker process: single-threaded event loop around its
/// ProcessorCore, driving SocketTransport and its own DetectionProtocol.
class NetWorker final : public FrameSink,
                        public algo::ClockModel,
                        public algo::DetectionDriver {
 public:
  NetWorker(std::size_t rank, std::size_t processors,
            const ode::OdeSystem& system, const core::EngineConfig& config,
            const NetConfig& net, bool collect_trace)
      : rank_(rank),
        processors_(processors),
        config_(config),
        net_(net),
        collect_trace_(collect_trace),
        fleet_(system, core::fleet_config(config, processors)),
        core_(fleet_.core(rank)),
        transport_(rank, processors, transport_config(config, net),
                   byte_pool_, row_pool_, *this),
        t0_(Clock::now()) {
    // Attach an intra-iterate pool to this rank's core only: the other
    // fleet cores exist for partition bookkeeping and never iterate in
    // this process. Every rank is forked onto this host, so all of them
    // share its hardware threads.
    if (const std::size_t workers =
            core::intra_pool_workers(config, processors);
        workers > 0) {
      intra_pool_ = std::make_unique<runtime::WorkerPool>(workers);
      core_.set_worker_pool(intra_pool_.get());
    }
    // The lower rank starts with each link's token.
    right_link_.hold_token = true;
    // No process holds a global view, so the oracle's quiescent probe is
    // unimplementable here: every run, whatever config.detection says,
    // uses the coordinator protocol and its verification round.
    protocol_ = std::make_unique<algo::DetectionProtocol>(
        algo::DetectionMode::kCoordinator, processors, transport_, *this);
  }

  /// Wires the mesh, runs to halt/failure, writes the result frames to
  /// `result_fd`. Returns the process exit code.
  int run(int listener_fd, const std::vector<std::uint16_t>& ports,
          int result_fd) {
    const bool debug = std::getenv("AIAC_NET_DEBUG") != nullptr;
    const auto mark = [&](const char* phase) {
      if (debug)
        std::fprintf(stderr, "[w%zu %.3f] %s\n", rank_, wall_since(t0_),
                     phase);
    };
    try {
      mark("wire_mesh");
      wire_mesh(listener_fd, ports);
      mark("loop");
      loop();
    } catch (const std::exception& e) {
      fail(std::string("worker exception: ") + e.what());
    }
    if (debug)
      std::fprintf(stderr, "[w%zu %.3f] shutdown failed=%d reason=%s iter=%zu\n",
                   rank_, wall_since(t0_), failed_ ? 1 : 0,
                   failure_reason_.c_str(), core_.iteration());
    shutdown();
    mark("write_result");
    write_result(result_fd);
    mark("done");
    return failed_ ? 1 : 0;
  }

  // ---- algo::ClockModel ----------------------------------------------

  double now() const override { return wall_since(t0_); }
  double work_to_seconds(std::size_t, double, double, double) override {
    return -1.0;  // measured, never predicted
  }

  // ---- algo::DetectionDriver -----------------------------------------

  /// Distributed protocol instances only ever ask about the local rank.
  bool locally_converged(std::size_t) const override {
    return core_.locally_converged();
  }

  /// The distributed confirm veto: beyond persistent local convergence,
  /// nothing may be in flight that could still change this block — a
  /// queued (unabsorbed) migration, an un-acked outgoing one, or a
  /// buffered boundary update that would move the ghosts beyond
  /// tolerance. The un-acked check is what makes migration conservation
  /// safe across the halt edge: a payload in the TCP stream blocks the
  /// verification round until its receiver absorbed it.
  bool confirm_converged(std::size_t) const override {
    return core_.locally_converged() && !core_.has_pending_migrations() &&
           !left_link_.awaiting_ack && !right_link_.awaiting_ack &&
           core_.pending_input_disturbance() <= config_.tolerance;
  }

  void broadcast_halt() override {
    for (std::size_t r = 0; r < processors_; ++r) {
      if (r == rank_) continue;
      algo::ControlFrame halt;
      halt.kind = algo::ControlFrame::Kind::kHalt;
      halt.sender = rank_;
      transport_.send_control(rank_, r, halt);
    }
  }

  // ---- FrameSink ------------------------------------------------------

  /// Zero-copy receive: the transport parses full boundary frames
  /// straight into the core's persistent inbox slot for the link ...
  ode::BoundaryMessage& boundary_inbox(std::size_t peer) override {
    return core_.inbox_storage(peer < rank_ ? Side::kLeft : Side::kRight);
  }

  /// ... and signals here, where the core's receive bookkeeping (inbox
  /// flag, data-iteration stamp, epoch) runs exactly as ingest_boundary's.
  void on_boundary_stored(std::size_t peer) override {
    core_.commit_inbox(peer < rank_ ? Side::kLeft : Side::kRight);
  }

  void on_boundary_delta(std::size_t peer,
                         const ode::BoundaryDeltaMessage& delta) override {
    // A false return is an epoch or shape mismatch: the delta references
    // a baseline this inbox no longer holds (possible around migrations
    // or link teardown). Dropping it is safe — the sender's forced full
    // refresh resynchronizes, and until then the inbox keeps serving its
    // last consistent state under the stale-residual rule.
    (void)core_.ingest_boundary_delta(
        peer < rank_ ? Side::kLeft : Side::kRight, delta);
  }

  void on_migration(std::size_t peer,
                    ode::MigrationPayload&& payload) override {
    core_.enqueue_migration(peer < rank_ ? Side::kLeft : Side::kRight,
                            std::move(payload));
  }

  void on_control(const algo::ControlFrame& frame) override {
    control_inbox_.push_back(frame);
  }

  void on_mig_ack(std::size_t peer) override {
    LinkState& link = link_to(peer);
    link.awaiting_ack = false;
    if (link.peer_wants_token) {
      link.peer_wants_token = false;
      link.hold_token = false;
      transport_.send_token_grant(peer);
    }
  }

  void on_token_request(std::size_t peer) override {
    LinkState& link = link_to(peer);
    if (link.hold_token && !link.awaiting_ack) {
      link.hold_token = false;
      transport_.send_token_grant(peer);
    } else {
      link.peer_wants_token = true;
    }
  }

  void on_token_grant(std::size_t peer) override {
    LinkState& link = link_to(peer);
    link.hold_token = true;
    link.token_requested = false;
  }

  void on_goodbye(std::size_t peer, bool peer_failed) override {
    // A clean goodbye precedes or follows our own halt frame; nothing to
    // do. An aborting peer means the run cannot complete: propagate.
    if (peer_failed)
      fail("peer " + std::to_string(peer) + " aborted");
  }

  void on_peer_down(std::size_t peer, const std::string& reason) override {
    // During the shutdown drain a dying peer no longer threatens the
    // result we are about to report; the parent's coverage check and the
    // peer's own exit status tell the rest of the story.
    if (draining_) return;
    fail("peer " + std::to_string(peer) + " down: " + reason);
  }

 private:
  LinkState& link_to(std::size_t peer) {
    return peer < rank_ ? left_link_ : right_link_;
  }

  void fail(std::string reason) {
    if (failed_) return;  // first cause wins
    failed_ = true;
    failure_reason_ = std::move(reason);
  }

  void wire_mesh(int listener_fd, const std::vector<std::uint16_t>& ports) {
    // Connect to every lower rank (their listeners predate all forks, so
    // the backoff only covers transient refusals), then accept every
    // higher one; the Hello frame identifies each accepted peer.
    for (std::size_t l = 0; l < rank_; ++l) {
      const int fd = connect_loopback(ports[l], net_.transport);
      std::vector<std::uint8_t> hello;
      encode_hello({rank_, processors_, local_features()}, hello);
      if (!write_all(fd, hello, net_.transport.handshake_timeout_s)) {
        ::close(fd);
        throw std::runtime_error("hello to rank " + std::to_string(l) +
                                 " failed");
      }
      // If our Hello advertised any features, the listener replies with
      // its own Hello as the first frame on the link; the normal pump
      // picks it up. Until it arrives (or forever, against a legacy peer
      // that never replies) the link runs full boundary frames — the
      // always-safe fallback.
      transport_.adopt_peer(l, fd);
    }
    for (std::size_t k = rank_ + 1; k < processors_; ++k) {
      pollfd pfd{};
      pfd.fd = listener_fd;
      pfd.events = POLLIN;
      const int ready = ::poll(
          &pfd, 1,
          static_cast<int>(net_.transport.handshake_timeout_s * 1000.0));
      if (ready <= 0)
        throw std::runtime_error("timed out waiting for higher ranks");
      const int fd = ::accept(listener_fd, nullptr, nullptr);
      if (fd < 0) throw std::runtime_error("accept failed");
      std::vector<std::uint8_t> buf;
      FrameView view;
      if (!read_one_frame(fd, buf, view,
                          net_.transport.handshake_timeout_s) ||
          view.header.type != FrameType::kHello) {
        ::close(fd);
        throw std::runtime_error("bad hello handshake");
      }
      Hello hello;
      if (!decode_hello(view.payload, hello) ||
          hello.processors != processors_ || hello.rank <= rank_ ||
          transport_.peer_open(hello.rank)) {
        ::close(fd);
        throw std::runtime_error("inconsistent hello");
      }
      // A connector that advertised features expects our advertisement
      // back; reply before adopting so the Hello is the first frame it
      // reads on the link. A legacy connector (features == 0) gets no
      // reply and keeps exchanging full boundary frames.
      if (hello.features != 0) {
        std::vector<std::uint8_t> reply;
        encode_hello({rank_, processors_, local_features()}, reply);
        if (!write_all(fd, reply, net_.transport.handshake_timeout_s)) {
          ::close(fd);
          throw std::runtime_error("hello reply to rank " +
                                   std::to_string(hello.rank) + " failed");
        }
      }
      transport_.set_peer_features(hello.rank, hello.features);
      // A fast peer may already have pipelined data frames behind its
      // Hello; hand the surplus bytes over with the connection.
      transport_.adopt_peer(
          hello.rank, fd,
          std::span<const std::uint8_t>(buf).subspan(view.frame_bytes));
    }
    ::close(listener_fd);
  }

  /// Capability bits this worker advertises in its Hello frames.
  std::uint64_t local_features() const {
    return config_.delta_boundaries ? kFeatureDeltaBoundary : 0;
  }

  void drain_control() {
    static const bool debug = std::getenv("AIAC_NET_DEBUG") != nullptr;
    while (!control_inbox_.empty()) {
      const algo::ControlFrame frame = control_inbox_.front();
      control_inbox_.pop_front();
      if (debug && frame.kind != algo::ControlFrame::Kind::kHeartbeat)
        std::fprintf(stderr,
                     "[w%zu %.3f] ctl kind=%d sender=%zu epoch=%zu flag=%d "
                     "(lconv=%d dist=%.3e)\n",
                     rank_, wall_since(t0_), static_cast<int>(frame.kind),
                     frame.sender, frame.epoch, frame.flag ? 1 : 0,
                     core_.locally_converged() ? 1 : 0,
                     core_.pending_input_disturbance());
      protocol_->handle_control(rank_, frame);
    }
  }

  bool should_stop() const {
    return failed_ || protocol_->halting();
  }

  void loop() {
    static const bool debug = std::getenv("AIAC_NET_DEBUG") != nullptr;
    double next_status = 0.0;
    int idle_ms = 0;
    bool parked = false;
    double last_beat = -1.0;
    while (!should_stop()) {
      if (debug && now() >= next_status) {
        next_status = now() + 0.5;
        std::fprintf(stderr,
                     "[w%zu %.3f] status iter=%zu lconv=%d dist=%.3e "
                     "sendq=%zu inbuf=%zu ctlq=%zu quiet=%d idle=%d\n",
                     rank_, wall_since(t0_), core_.iteration(),
                     core_.locally_converged() ? 1 : 0,
                     core_.pending_input_disturbance(),
                     transport_.sendq_frames(), transport_.inbuf_bytes(),
                     control_inbox_.size(), core_.inputs_quiescent() ? 1 : 0,
                     idle_ms);
      }
      transport_.pump(idle_ms);
      drain_control();
      if (should_stop()) break;

      const auto begin = core_.begin_iteration();
      // Ack only after absorption: the sender's link (and the halt
      // confirm veto) stays blocked until the components truly live here.
      if (begin.absorbed_from_left) transport_.send_mig_ack(rank_ - 1);
      if (begin.absorbed_from_right) transport_.send_mig_ack(rank_ + 1);

      if (parked && !begin.external_input) {
        // Still quiescent: re-running Newton would reproduce the same
        // waveform bit for bit, so skip the iterate (no budget burned,
        // nothing sent) but keep the detection protocol alive so the
        // fleet can finish halting. The beat is rate-limited: an
        // every-pass heartbeat would keep the send queue non-empty, and
        // the instant POLLOUT wakeups would turn parking into a hot
        // heartbeat-flooding spin.
        if (now() - last_beat >= 0.001) {
          last_beat = now();
          protocol_->on_iteration_end(rank_);
        }
        drain_control();
        continue;
      }

      const double start = now();
      const auto stats = core_.run_iteration();
      core_.finish_iteration(stats, start, *this);
      if (collect_trace_) {
        trace::IterationRecord it;
        it.rank = rank_;
        it.iteration = core_.iteration();
        it.start = start;
        it.end = now();
        it.work = stats.work;
        it.residual = stats.residual;
        it.components = core_.components();
        trace_iterations_.push_back(it);
      }

      // A neighbor holding last pass's boundary gains nothing from a
      // bitwise-identical copy: send only when this iterate could have
      // changed the block. Converged ranks thus go quiet instead of
      // flooding the link (and the detection acks behind it) with
      // redundant frames.
      const bool advanced = stats.residual != 0.0 ||
                            stats.newton_iterations > 0 ||
                            begin.external_input;
      if (advanced) send_boundaries();
      if (config_.load_balancing) try_load_balance();

      protocol_->on_iteration_end(rank_);
      drain_control();
      if (should_stop()) break;

      if (core_.iteration() >= config_.max_iterations_per_processor) {
        fail(core::iteration_budget_reason(config_));
        break;
      }

      // Event-driven idling, the process analogue of the sim engine's
      // dormancy: a persistently-converged rank whose last iterate made
      // no progress with every input quiescent parks until external
      // input arrives, polling at a bounded cadence so detection control
      // keeps flowing.
      parked = config_.event_driven_idle &&
               stats.residual == 0.0 && stats.newton_iterations == 0 &&
               core_.inputs_quiescent() && core_.locally_converged();
      idle_ms = parked ? 2 : 0;
    }
  }

  void send_boundaries() {
    for (const Side side : {Side::kLeft, Side::kRight}) {
      if (!core_.has_neighbor(side)) continue;
      const std::size_t peer = side == Side::kLeft ? rank_ - 1 : rank_ + 1;
      if (!transport_.peer_open(peer)) continue;
      ode::BoundaryMessage msg;
      msg.rows = row_pool_.acquire();
      core_.fill_boundary(side, msg);
      if (collect_trace_) {
        trace::MessageRecord record;
        record.src = rank_;
        record.dst = peer;
        record.send_time = record.receive_time = now();
        record.bytes = msg.byte_size();
        record.kind = trace::MessageKind::kBoundaryData;
        trace_messages_.push_back(record);
      }
      transport_.send_boundary(rank_, side, std::move(msg));
    }
  }

  void try_load_balance() {
    if (!core_.lb_trigger_due()) return;
    const auto usable = [&](const LinkState& link, std::size_t peer) {
      return transport_.peer_open(peer) &&
             !transport_.peer_said_goodbye(peer) && !link.awaiting_ack &&
             !link.token_requested;
    };
    const bool left_busy =
        rank_ == 0 || !usable(left_link_, rank_ - 1);
    const bool right_busy =
        rank_ + 1 >= processors_ || !usable(right_link_, rank_ + 1);
    const auto decision = core_.plan_migration(left_busy, right_busy);
    if (decision.action == lb::BalanceDecision::Action::kNone) return;
    const bool to_left =
        decision.action == lb::BalanceDecision::Action::kSendLeft;
    const Side side = to_left ? Side::kLeft : Side::kRight;
    const std::size_t peer = to_left ? rank_ - 1 : rank_ + 1;
    LinkState& link = link_to(peer);
    if (!link.hold_token) {
      // Ask for the link's token; the elapsed trigger keeps retrying, so
      // the migration happens once the grant arrives.
      link.token_requested = true;
      transport_.send_token_request(peer);
      return;
    }
    ode::MigrationPayload payload;
    payload.rows = row_pool_.acquire();
    if (!core_.extract_migration_into(side, decision.amount, payload)) {
      row_pool_.release(std::move(payload.rows));
      return;
    }
    if (collect_trace_) {
      trace::MigrationRecord record;
      record.src = rank_;
      record.dst = peer;
      record.time = now();
      record.components = payload.owned_count;
      trace_migrations_.push_back(record);
      trace::MessageRecord msg;
      msg.src = rank_;
      msg.dst = peer;
      msg.send_time = msg.receive_time = now();
      msg.bytes = payload.byte_size();
      msg.kind = trace::MessageKind::kLoadBalance;
      trace_messages_.push_back(msg);
    }
    link.awaiting_ack = true;
    transport_.send_migration(rank_, side, std::move(payload));
  }

  void shutdown() {
    // Orderly drain: promise silence, then keep reading until every peer
    // promised the same (or is provably gone). Migrations arriving during
    // the drain are still enqueued by the sink and folded in below —
    // that, plus the MigAck rule, is what conserves components across the
    // halt edge.
    draining_ = true;
    const bool clean = !failed_ && protocol_->halting();
    if (clean) {
      halted_cleanly_ = true;
      detection_residual_ = core_.last_residual();
      pending_disturbance_ = core_.pending_input_disturbance();
    }
    transport_.send_goodbye_all(failed_);
    transport_.drain_goodbyes();
    core_.drain_pending_migrations();
  }

  void write_result(int result_fd) {
    WorkerResult wr;
    wr.rank = rank_;
    wr.converged = halted_cleanly_;
    wr.failure_reason = failure_reason_;
    wr.iterations = core_.iteration();
    wr.first = core_.block().first();
    wr.count = core_.block().count();
    wr.points = core_.block().num_steps() + 1;
    wr.last_residual = std::isinf(core_.last_residual())
                           ? std::numeric_limits<double>::max()
                           : core_.last_residual();
    wr.total_work = core_.total_work();
    wr.data_messages = transport_.data_messages();
    wr.control_messages = transport_.control_messages();
    wr.bytes_sent = transport_.bytes_sent();
    wr.migrations_out = core_.migrations_out();
    wr.components_out = core_.components_out();
    wr.min_components_seen = core_.min_components_seen();
    wr.detection_max_residual = detection_residual_;
    wr.max_pending_disturbance = pending_disturbance_;
    wr.rows.resize(wr.count * wr.points);
    for (std::size_t i = 0; i < wr.count; ++i) {
      const auto row = core_.block().owned_row(i);
      std::copy(row.begin(), row.end(),
                wr.rows.begin() + static_cast<std::ptrdiff_t>(i * wr.points));
    }

    std::vector<std::uint8_t> out;
    encode_worker_result(wr, out);
    if (collect_trace_) {
      // Chunked so one frame never exceeds the payload cap even for very
      // long runs.
      constexpr std::size_t kChunk = 1 << 16;
      for (std::size_t i = 0; i < trace_iterations_.size(); i += kChunk)
        encode_trace_iterations(
            std::span(trace_iterations_)
                .subspan(i, std::min(kChunk, trace_iterations_.size() - i)),
            out);
      for (std::size_t i = 0; i < trace_messages_.size(); i += kChunk)
        encode_trace_messages(
            std::span(trace_messages_)
                .subspan(i, std::min(kChunk, trace_messages_.size() - i)),
            out);
      for (std::size_t i = 0; i < trace_migrations_.size(); i += kChunk)
        encode_trace_migrations(
            std::span(trace_migrations_)
                .subspan(i, std::min(kChunk, trace_migrations_.size() - i)),
            out);
      // Per-link comms totals (full/delta frame mix, wire bytes both
      // directions) — at most two links per worker.
      std::vector<trace::CommsRecord> comms;
      for (std::size_t r = 0; r < processors_; ++r)
        if (r != rank_ && transport_.link_used(r))
          comms.push_back(transport_.comms_record(r));
      if (!comms.empty()) encode_trace_comms(comms, out);
    }
    write_fd_all(result_fd, out);
  }

  std::size_t rank_;
  std::size_t processors_;
  core::EngineConfig config_;
  NetConfig net_;
  bool collect_trace_;
  runtime::BytePool byte_pool_;
  runtime::BufferPool row_pool_;
  algo::CoreFleet fleet_;
  algo::ProcessorCore& core_;
  /// Intra-iterate worker pool for this rank's core (null when
  /// intra_threads <= 1 or the per-process hardware share is 1).
  std::unique_ptr<runtime::WorkerPool> intra_pool_;
  SocketTransport transport_;
  std::unique_ptr<algo::DetectionProtocol> protocol_;
  Clock::time_point t0_;

  LinkState left_link_;
  LinkState right_link_;
  std::deque<algo::ControlFrame> control_inbox_;
  bool failed_ = false;
  bool draining_ = false;
  bool halted_cleanly_ = false;
  std::string failure_reason_;
  double detection_residual_ = -1.0;
  double pending_disturbance_ = -1.0;

  std::vector<trace::IterationRecord> trace_iterations_;
  std::vector<trace::MessageRecord> trace_messages_;
  std::vector<trace::MigrationRecord> trace_migrations_;
};

/// What the parent decoded from one child's result pipe.
struct ChildReport {
  bool have_result = false;
  WorkerResult result;
  trace::ExecutionTrace trace;
  bool trace_ok = true;
  std::string parse_error;
};

bool parse_child_stream(const std::vector<std::uint8_t>& stream,
                        ChildReport& report) {
  std::size_t consumed = 0;
  std::vector<trace::IterationRecord> iterations;
  std::vector<trace::MessageRecord> messages;
  std::vector<trace::MigrationRecord> migrations;
  std::vector<trace::CommsRecord> comms;
  while (consumed < stream.size()) {
    FrameView view;
    const auto status = try_extract_frame(
        std::span<const std::uint8_t>(stream.data() + consumed,
                                      stream.size() - consumed),
        view);
    if (status == DecodeStatus::kNeedMore) {
      report.parse_error = "truncated result stream";
      return false;
    }
    if (status == DecodeStatus::kBad) {
      report.parse_error = "corrupt result stream";
      return false;
    }
    consumed += view.frame_bytes;
    bool ok = true;
    switch (view.header.type) {
      case FrameType::kWorkerResult:
        ok = decode_worker_result(view.payload, report.result);
        report.have_result = ok;
        break;
      case FrameType::kTraceIterations:
        ok = decode_trace_iterations(view.payload, iterations);
        if (ok)
          for (const auto& r : iterations) report.trace.record_iteration(r);
        break;
      case FrameType::kTraceMessages:
        ok = decode_trace_messages(view.payload, messages);
        if (ok)
          for (const auto& r : messages) report.trace.record_message(r);
        break;
      case FrameType::kTraceMigrations:
        ok = decode_trace_migrations(view.payload, migrations);
        if (ok)
          for (const auto& r : migrations) report.trace.record_migration(r);
        break;
      case FrameType::kTraceComms:
        ok = decode_trace_comms(view.payload, comms);
        if (ok)
          for (const auto& r : comms) report.trace.record_comms(r);
        break;
      default:
        ok = false;
        break;
    }
    if (!ok) {
      report.parse_error = "invalid result frame";
      return false;
    }
  }
  return true;
}

void validate_config(std::size_t processors,
                     const core::EngineConfig& config) {
  if (processors == 0)
    throw std::invalid_argument("run_net: zero processors");
  if (config.scheme != core::Scheme::kAIAC)
    throw std::invalid_argument(
        "run_net: the socket backend implements AIAC only (synchronous "
        "schemes need windowed flow control this backend does not grow)");
  if (config.faults.enabled)
    throw std::invalid_argument(
        "run_net: the chaos layer is thread-backend-only; use "
        "NetConfig::kill_rank for real process faults");
}

}  // namespace

core::EngineResult run_net(const ode::OdeSystem& system,
                           std::size_t processors,
                           const core::EngineConfig& config,
                           const NetConfig& net,
                           trace::ExecutionTrace* trace) {
  validate_config(processors, config);

  const bool collect_trace = trace != nullptr;
  const std::size_t P = processors;

  std::vector<int> listeners(P);
  std::vector<std::uint16_t> ports(P);
  std::vector<std::array<int, 2>> pipes(P);
  for (std::size_t r = 0; r < P; ++r) {
    listeners[r] =
        make_loopback_listener(ports[r], static_cast<int>(P) + 1);
    if (::pipe(pipes[r].data()) != 0) {
      for (std::size_t q = 0; q <= r; ++q) ::close(listeners[q]);
      for (std::size_t q = 0; q < r; ++q) {
        ::close(pipes[q][0]);
        ::close(pipes[q][1]);
      }
      throw std::runtime_error("run_net: pipe() failed");
    }
  }

  const auto t0 = Clock::now();
  std::vector<pid_t> pids(P, -1);
  for (std::size_t r = 0; r < P; ++r) {
    const pid_t pid = ::fork();
    if (pid < 0) {
      for (std::size_t q = 0; q < P; ++q) {
        ::close(listeners[q]);
        ::close(pipes[q][0]);
        ::close(pipes[q][1]);
        if (pids[q] > 0) ::kill(pids[q], SIGKILL);
      }
      throw std::runtime_error("run_net: fork() failed");
    }
    if (pid == 0) {
      // Worker process. Keep only this rank's listener and pipe write
      // end; a broken parent pipe must not kill us mid-report.
      ::signal(SIGPIPE, SIG_IGN);
      for (std::size_t q = 0; q < P; ++q) {
        if (q != r) ::close(listeners[q]);
        ::close(pipes[q][0]);
        if (q != r) ::close(pipes[q][1]);
      }
      int code = 1;
      try {
        NetWorker worker(r, P, system, config, net, collect_trace);
        code = worker.run(listeners[r], ports, pipes[r][1]);
      } catch (...) {
        code = 1;
      }
      ::close(pipes[r][1]);
      // _Exit: no destructors, no atexit, no gtest/sanitizer teardown —
      // the fork shares the parent's global state and must not unwind it.
      std::_Exit(code);
    }
    pids[r] = pid;
  }

  for (std::size_t r = 0; r < P; ++r) {
    ::close(listeners[r]);
    ::close(pipes[r][1]);
  }

  // Collect result streams. Reading runs concurrently with the workers
  // (a pipe is a small kernel buffer; a worker's trace frames would
  // deadlock against a parent that only reads after waitpid).
  std::vector<std::vector<std::uint8_t>> streams(P);
  std::vector<bool> pipe_open(P, true);
  std::size_t open_count = P;
  bool kill_pending = net.kill_rank >= 0 &&
                      static_cast<std::size_t>(net.kill_rank) < P;
  bool deadline_hit = false;
  while (open_count > 0) {
    const double elapsed = wall_since(t0);
    if (kill_pending && elapsed >= net.kill_after_seconds) {
      ::kill(pids[static_cast<std::size_t>(net.kill_rank)], SIGKILL);
      kill_pending = false;
    }
    if (!deadline_hit && elapsed > net.deadline_seconds) {
      // Watchdog: a wedged fleet becomes a bounded failure, not a hang.
      deadline_hit = true;
      for (std::size_t r = 0; r < P; ++r)
        if (pids[r] > 0) ::kill(pids[r], SIGKILL);
    }
    std::vector<pollfd> fds;
    std::vector<std::size_t> ranks;
    for (std::size_t r = 0; r < P; ++r) {
      if (!pipe_open[r]) continue;
      pollfd pfd{};
      pfd.fd = pipes[r][0];
      pfd.events = POLLIN;
      fds.push_back(pfd);
      ranks.push_back(r);
    }
    const int ready = ::poll(fds.data(), fds.size(), 50);
    if (ready < 0 && errno != EINTR)
      throw std::runtime_error("run_net: poll() failed");
    for (std::size_t i = 0; i < fds.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      const std::size_t r = ranks[i];
      std::uint8_t chunk[16384];
      const ssize_t n = ::read(pipes[r][0], chunk, sizeof(chunk));
      if (n > 0) {
        streams[r].insert(streams[r].end(), chunk, chunk + n);
      } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN)) {
        ::close(pipes[r][0]);
        pipe_open[r] = false;
        --open_count;
      }
    }
  }

  std::vector<int> exit_status(P, -1);
  for (std::size_t r = 0; r < P; ++r) {
    int status = 0;
    if (::waitpid(pids[r], &status, 0) == pids[r]) exit_status[r] = status;
  }
  const double wall_seconds = wall_since(t0);

  // ---- Aggregate ------------------------------------------------------

  std::vector<ChildReport> reports(P);
  core::EngineResult result;
  result.execution_time = wall_seconds;
  std::string reason;
  std::string echoed;  // a worker merely relaying its peer's demise
  const auto note = [&reason](std::string text) {
    if (reason.empty()) reason = std::move(text);  // first root cause wins
  };
  if (deadline_hit) note("deadline exceeded; workers killed");

  bool all_converged = true;
  for (std::size_t r = 0; r < P; ++r) {
    ChildReport& report = reports[r];
    if (!parse_child_stream(streams[r], report) || !report.have_result) {
      all_converged = false;
      if (exit_status[r] >= 0 && WIFSIGNALED(exit_status[r]))
        note("worker " + std::to_string(r) + " killed by signal " +
             std::to_string(WTERMSIG(exit_status[r])));
      else
        note("worker " + std::to_string(r) + " exited without a result" +
             (report.parse_error.empty() ? "" : " (" + report.parse_error +
                                                    ")"));
      continue;
    }
    const WorkerResult& wr = report.result;
    if (wr.failed()) {
      all_converged = false;
      // "peer N aborted/down" is an echo of someone else's failure; hold
      // it back so the culprit's own first-person account ("iteration
      // budget exhausted", "worker exception: ...") names the run.
      if (wr.failure_reason.rfind("peer ", 0) == 0) {
        if (echoed.empty())
          echoed = "worker " + std::to_string(r) + ": " + wr.failure_reason;
      } else {
        note("worker " + std::to_string(r) + ": " + wr.failure_reason);
      }
    } else if (!wr.converged) {
      all_converged = false;
      note("worker " + std::to_string(r) + " stopped without converging");
    }
  }

  // Component-coverage audit: the reported blocks must tile [0, dim)
  // exactly — the distributed form of the conservation invariant. Run on
  // whatever workers reported, so a real loss is named even when the run
  // already failed for another reason.
  result.iterations_per_processor.assign(P, 0);
  result.final_components.assign(P, 0);
  result.solution = ode::Trajectory(system.dimension(), config.num_steps);
  result.min_components_observed = std::numeric_limits<std::size_t>::max();
  std::vector<std::pair<std::size_t, std::size_t>> spans;  // (first, count)
  for (std::size_t r = 0; r < P; ++r) {
    if (!reports[r].have_result) continue;
    const WorkerResult& wr = reports[r].result;
    result.iterations_per_processor[r] = wr.iterations;
    result.total_iterations += wr.iterations;
    result.final_components[r] = wr.count;
    result.total_work += wr.total_work;
    result.data_messages += wr.data_messages;
    result.control_messages += wr.control_messages;
    result.bytes_sent += wr.bytes_sent;
    result.migrations += wr.migrations_out;
    result.components_migrated += wr.components_out;
    result.min_components_observed =
        std::min(result.min_components_observed, wr.min_components_seen);
    if (wr.last_residual < std::numeric_limits<double>::max())
      result.final_max_residual =
          std::max(result.final_max_residual, wr.last_residual);
    if (wr.detection_max_residual >= 0.0)
      result.detection_max_residual =
          std::max(result.detection_max_residual, wr.detection_max_residual);
    spans.emplace_back(wr.first, wr.count);
    if (wr.points == config.num_steps + 1) {
      for (std::size_t i = 0; i < wr.count; ++i) {
        const auto row = result.solution.row(wr.first + i);
        const auto row_begin =
            wr.rows.begin() + static_cast<std::ptrdiff_t>(i * wr.points);
        std::copy(row_begin,
                  row_begin + static_cast<std::ptrdiff_t>(wr.points),
                  row.begin());
      }
    } else {
      all_converged = false;
      note("worker " + std::to_string(r) + " reported a mis-shaped block");
    }
  }
  result.lb_messages = result.migrations;
  if (result.min_components_observed ==
      std::numeric_limits<std::size_t>::max())
    result.min_components_observed = 0;

  std::sort(spans.begin(), spans.end());
  std::size_t next = 0;
  bool covered = true;
  for (const auto& [first, count] : spans) {
    if (first != next) covered = false;
    next = first + count;
  }
  if (next != system.dimension()) covered = false;
  if (!covered) {
    all_converged = false;
    note("component coverage mismatch: reported blocks do not tile the "
         "problem");
  }

  result.converged = all_converged;
  if (reason.empty()) reason = std::move(echoed);
  result.failure_reason = all_converged ? std::string() : reason;
  if (trace)
    for (auto& report : reports) trace->merge(report.trace);
  return result;
}

}  // namespace aiac::net
