// The fleet state machine the sim driver and the model checker share
// (DESIGN.md §8, §9): the CoreFleet with its link ledger, the
// DetectionProtocol, each rank's status and each directed link's channel.
// It is their one Transport and DetectionDriver, so its veto is
// ProcessorCore::can_confirm and its halt record is measured_audit. The
// sim times each enabled action with the grid model; the checker may pick
// any enabled action.
//
// One FIFO per directed link carries boundaries and migrations alike (the
// grid's links are TCP streams; the sim's delivery clamp keeps that order
// in time). Under AIAC a link carries at most one boundary: a departure
// while one is in flight is skipped and marks the link pending, and the
// arrival that frees it sends the sender's current boundary instead.
#pragma once

#include <cstddef>
#include <deque>
#include <optional>
#include <variant>
#include <vector>

#include "algo/detection.hpp"
#include "algo/processor_core.hpp"
#include "algo/runtime_ifaces.hpp"
#include "algo/types.hpp"
#include "ode/ode_system.hpp"
#include "ode/waveform_block.hpp"

namespace aiac::algo {

/// The driver settings the machine's rules read.
struct MachineRules {
  Scheme scheme = Scheme::kAIAC;
  DetectionMode detection = DetectionMode::kOracle;
  bool load_balancing = false;
  /// AIAC ranks that ProcessorCore::can_park sleep until input arrives.
  bool park_idle = true;
};

struct FleetAction {
  enum class Kind : unsigned char {
    kStart,          // begin (absorb, fold ghosts), iterate, stage boundaries
    kDepart,         // the staged boundary toward `side` leaves
    kFinish,         // finish, balance, oracle or protocol hook, park/restart
    kArriveLink,     // the front of the link into `rank` from `side` lands
    kArriveControl,  // the pending control frame in `slot` is handled
    kArriveHalt,     // the halt decision reaches `rank`
  };
  Kind kind = Kind::kStart;
  Side side = Side::kLeft;
  std::size_t rank = 0;  // the acting rank, the receiving one for arrivals
  std::size_t slot = 0;

  bool operator==(const FleetAction&) const = default;
};

class FleetMachine final : public Transport, public DetectionDriver {
 public:
  enum class Status : unsigned char {
    kIdle,
    kStartPending,
    kComputing,
    kWaiting,  // sync schemes: blocked on a neighbour's data
    kParked,
  };
  struct Rank {
    Status status = Status::kIdle;
    /// Orthogonal to the status: a rank halted mid-iteration finishes it.
    bool halted = false;
    /// The iteration in progress, or the last one.
    double started_at = 0.0;
    std::size_t components = 0;
    ode::WaveformBlock::IterationStats stats;
  };
  using Frame = std::variant<ode::BoundaryMessage, ode::MigrationPayload>;
  struct Channel {
    std::optional<ode::BoundaryMessage> staged;  // emitted at start
    std::deque<Frame> in_flight;
    bool busy = false;     // AIAC: a boundary is in flight
    bool pending = false;  // a departure was skipped while busy
  };
  struct PendingControl {
    std::size_t src = 0;
    std::size_t dst = 0;
    ControlFrame frame;
    std::size_t sequence = 0;  // send order; 0 marks a free slot
  };

  /// Builds the fleet and enables every rank's first start.
  FleetMachine(const ode::OdeSystem& system, const FleetConfig& fleet,
               const MachineRules& rules);
  FleetMachine(const FleetMachine&) = delete;
  FleetMachine& operator=(const FleetMachine&) = delete;

  /// Starts, departures, finishes (once the iteration's boundaries have
  /// left), then per rank its link fronts, oldest control frame and halt.
  /// Empty once stopped.
  std::vector<FleetAction> enabled_actions() const;
  /// Applies one enabled action at scheduler time `now` (which only times
  /// iterations). On a stopped machine a finish completes the core's
  /// iteration and nothing else: a scheduler ends a run there that way.
  void apply(const FleetAction& action, double now);
  /// What the last apply (or the constructor) enabled, in order. Each
  /// kArriveLink is the back of its link's FIFO.
  const std::vector<FleetAction>& newly_enabled() const noexcept {
    return fresh_;
  }
  /// Ends the run. Every migration in flight goes to its receiver's
  /// queue, so the fleet owns each component once; boundaries are dropped.
  void stop();

  CoreFleet& fleet() noexcept { return fleet_; }
  const CoreFleet& fleet() const noexcept { return fleet_; }
  const Rank& rank(std::size_t p) const { return ranks_[p]; }
  /// The directed link from `src` toward its `toward` neighbour.
  const Channel& channel(std::size_t src, Side toward) const {
    return channels_[channel_index(src, toward)];
  }
  const PendingControl& control(std::size_t slot) const {
    return controls_[slot];
  }
  /// The halt decision's record, taken at the instant it was decided.
  const std::optional<OracleSnapshot>& halt_audit() const noexcept {
    return halt_audit_;
  }
  /// Every rank has halted (an oracle halt is global at once).
  bool halted() const noexcept;
  bool stopped() const noexcept { return stopped_; }
  /// The balancing attempt the last applied action made, if any.
  const std::optional<MigrationAttempt>& migration_attempt() const noexcept {
    return attempt_;
  }
  std::size_t in_transit_components() const;
  std::size_t migrations_in_flight(std::size_t src, Side toward) const;

 private:
  void send_control(std::size_t src, std::size_t dst,
                    const ControlFrame& frame) override;
  bool locally_converged(std::size_t rank) const override;
  bool confirm_converged(std::size_t rank) const override;
  void broadcast_halt() override;

  static std::size_t channel_index(std::size_t src, Side toward) noexcept {
    return toward == Side::kRight ? 2 * src : 2 * src - 1;
  }
  Channel& channel_of(std::size_t src, Side toward) {
    return channels_[channel_index(src, toward)];
  }
  void send(std::size_t src, Side toward, Frame frame);
  void start(std::size_t p, double now);
  void depart(std::size_t p, Side toward);
  void finish(std::size_t p, double now);
  void arrive_link(std::size_t p, Side from);
  void arrive_control(std::size_t slot);
  void try_start(std::size_t p);

  MachineRules rules_;
  double tolerance_;
  CoreFleet fleet_;
  DetectionProtocol protocol_;
  std::vector<Rank> ranks_;
  std::vector<Channel> channels_;  // [2 src] rightward, [2 src - 1] leftward
  std::vector<PendingControl> controls_;
  std::vector<std::size_t> free_controls_;
  std::size_t control_sequence_ = 0;
  std::vector<FleetAction> fresh_;
  std::optional<MigrationAttempt> attempt_;
  std::optional<OracleSnapshot> halt_audit_;
  bool stopped_ = false;
};

}  // namespace aiac::algo
