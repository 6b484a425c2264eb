#include "algo/processor_core.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace aiac::algo {

ProcessorCore::ProcessorCore(std::size_t rank, std::size_t processors,
                             const ode::OdeSystem& system,
                             const ode::WaveformBlockConfig& block_config,
                             const CoreParams& params,
                             const lb::LoadEstimator& estimator,
                             const lb::NeighborBalancer& balancer)
    : rank_(rank),
      processors_(processors),
      params_(params),
      estimator_(&estimator),
      balancer_(&balancer),
      block_(system, block_config),
      lb_countdown_(params.lb_trigger_period),
      min_seen_(block_config.count) {}

void ProcessorCore::ingest_boundary(Side from,
                                    const ode::BoundaryMessage& msg) {
  // Copy-assignment into persistent storage: when the inbox already holds
  // a (possibly unread) message of the same shape, the rows vector's
  // capacity is reused and the overwrite allocates nothing.
  inbox_storage(from) = msg;
  commit_inbox(from);
}

void ProcessorCore::commit_inbox(Side from) {
  if (from == Side::kLeft) {
    inbox_left_full_ = true;
    left_data_iteration_ =
        std::max(left_data_iteration_, inbox_left_.sender_iteration);
    left_load_ = inbox_left_.sender_load;
    left_inbox_epoch_ = inbox_left_.sender_iteration;
    left_has_base_ = true;
  } else {
    inbox_right_full_ = true;
    right_data_iteration_ =
        std::max(right_data_iteration_, inbox_right_.sender_iteration);
    right_load_ = inbox_right_.sender_load;
    right_inbox_epoch_ = inbox_right_.sender_iteration;
    right_has_base_ = true;
  }
}

bool ProcessorCore::ingest_boundary_delta(
    Side from, const ode::BoundaryDeltaMessage& delta) {
  const bool left = from == Side::kLeft;
  if (!(left ? left_has_base_ : right_has_base_)) return false;
  ode::BoundaryMessage& inbox = left ? inbox_left_ : inbox_right_;
  if (!ode::apply_boundary_delta(
          delta, left ? left_inbox_epoch_ : right_inbox_epoch_, inbox))
    return false;
  // Bookkeeping as for a full message, except the epoch: that stays at
  // the baseline's stamp — deltas patch the base, they do not become one.
  if (left) {
    inbox_left_full_ = true;
    left_data_iteration_ =
        std::max(left_data_iteration_, delta.sender_iteration);
    left_load_ = delta.sender_load;
  } else {
    inbox_right_full_ = true;
    right_data_iteration_ =
        std::max(right_data_iteration_, delta.sender_iteration);
    right_load_ = delta.sender_load;
  }
  return true;
}

double ProcessorCore::pending_input_disturbance() const {
  double disturbance = 0.0;
  if (inbox_left_full_)
    disturbance = std::max(
        disturbance, block_.ghost_update_disturbance(inbox_left_,
                                                     /*left=*/true));
  if (inbox_right_full_)
    disturbance = std::max(
        disturbance, block_.ghost_update_disturbance(inbox_right_,
                                                     /*left=*/false));
  return disturbance;
}

void ProcessorCore::enqueue_migration(Side from,
                                      ode::MigrationPayload payload) {
  (from == Side::kLeft ? pending_from_left_ : pending_from_right_)
      .push_back(std::move(payload));
}

ProcessorCore::BeginInfo ProcessorCore::begin_iteration() {
  BeginInfo info;
  while (!pending_from_left_.empty()) {
    block_.absorb_from_left(pending_from_left_.front());
    pending_from_left_.pop_front();
    info.absorbed_from_left = true;
  }
  while (!pending_from_right_.empty()) {
    block_.absorb_from_right(pending_from_right_.front());
    pending_from_right_.pop_front();
    info.absorbed_from_right = true;
  }
  if (inbox_left_full_) {
    // Position check (paper Algorithm 7): silently dropped when the
    // arrays are mid-resize and the positions no longer line up; the
    // receive filter drops insignificant updates the same way. The
    // storage (and its capacity) stays for the next ingest.
    info.external_input |= block_.accept_left_ghosts(inbox_left_);
    inbox_left_full_ = false;
  }
  if (inbox_right_full_) {
    info.external_input |= block_.accept_right_ghosts(inbox_right_);
    inbox_right_full_ = false;
  }
  info.external_input |= info.absorbed_from_left || info.absorbed_from_right;
  // Any folded-in input invalidates the last residual until the iterate
  // that is about to run covers it. Note this does NOT touch the streak:
  // the report a node sends at iteration end is computed after the
  // covering iterate, so steady-state traffic still cannot make reports
  // flip forever — only a mid-iterate convergence *confirmation* is held
  // back, which is exactly the window where it would be unsound.
  residual_stale_ |= info.external_input;
  return info;
}

ode::WaveformBlock::IterationStats ProcessorCore::run_iteration() {
  ++computed_iterations_;
  return block_.iterate();
}

void ProcessorCore::finish_iteration(
    const ode::WaveformBlock::IterationStats& stats, double seconds) {
  iteration_ += 1;
  residual_stale_ = false;  // this iterate covers any absorbed rows
  last_residual_ = stats.residual;
  last_seconds_ = seconds;
  last_work_ = stats.work;
  total_work_ += stats.work;
  min_seen_ = std::min(min_seen_, block_.count());
  // The streak deliberately ignores external input: an applied boundary
  // update that leaves the residual under tolerance must not reset it, or
  // the coordinator/token reports of neighboring near-converged nodes
  // flip forever and detection livelocks. Detection safety does not rest
  // on the streak — the oracle probe re-verifies residuals and interface
  // gaps over a quiescent view before any halt.
  if (stats.residual <= params_.tolerance)
    under_tol_streak_ += 1;
  else
    under_tol_streak_ = 0;
}

void ProcessorCore::fill_boundary(Side toward,
                                  ode::BoundaryMessage& msg) const {
  if (toward == Side::kLeft)
    block_.boundary_for_left(msg);
  else
    block_.boundary_for_right(msg);
  msg.sender_iteration = computed_iterations_;
  msg.sender_components = block_.count();
  msg.sender_residual =
      std::isinf(last_residual_) ? 1.0 : last_residual_;
  msg.sender_load = current_load();
}

ode::BoundaryMessage ProcessorCore::make_boundary(Side toward) const {
  ode::BoundaryMessage msg;
  fill_boundary(toward, msg);
  return msg;
}

bool ProcessorCore::lb_trigger_due() {
  if (lb_countdown_ > 0) {
    --lb_countdown_;
    return false;
  }
  return true;
}

void ProcessorCore::defer_lb(std::size_t iterations) {
  lb_countdown_ = iterations;
}

lb::BalanceDecision ProcessorCore::plan_migration(bool left_link_busy,
                                                  bool right_link_busy) const {
  lb::BalanceView view;
  view.my_load = current_load();
  view.my_components = block_.count();
  if (has_neighbor(Side::kLeft)) {
    view.left_load = left_load_;
    view.left_link_busy = left_link_busy;
  }
  if (has_neighbor(Side::kRight)) {
    view.right_load = right_load_;
    view.right_link_busy = right_link_busy;
  }
  return balancer_->decide(view);
}

bool ProcessorCore::extract_migration_into(Side toward, std::size_t amount,
                                           ode::MigrationPayload& payload) {
  const std::size_t count = block_.count();
  // min_keep is the famine guard; the structural floor of one owned
  // component (WaveformBlock::extract_* requires k < count) is all that
  // remains when the test-only mutation disables the guard.
  const std::size_t keep =
      mutation::famine_guard_disabled() ? 1 : params_.min_keep;
  if (count <= keep) return false;
  amount = std::min(amount, count - keep);
  if (amount == 0) return false;
  if (toward == Side::kLeft)
    block_.extract_for_left(amount, payload);
  else
    block_.extract_for_right(amount, payload);
  // Sample the famine invariant at its tightest point: immediately after
  // the extraction, before the payload even leaves.
  min_seen_ = std::min(min_seen_, block_.count());
  lb_countdown_ = params_.lb_trigger_period;
  ++migrations_out_;
  components_out_ += payload.owned_count;
  lb_bytes_out_ += payload.byte_size();
  return true;
}

void ProcessorCore::drain_pending_migrations() {
  while (!pending_from_left_.empty()) {
    block_.absorb_from_left(pending_from_left_.front());
    pending_from_left_.pop_front();
  }
  while (!pending_from_right_.empty()) {
    block_.absorb_from_right(pending_from_right_.front());
    pending_from_right_.pop_front();
  }
}

std::size_t ProcessorCore::pending_migration_components() const noexcept {
  std::size_t total = 0;
  for (const auto& payload : pending_from_left_) total += payload.owned_count;
  for (const auto& payload : pending_from_right_) total += payload.owned_count;
  return total;
}

double ProcessorCore::current_load() const {
  lb::NodeLoadInputs inputs;
  inputs.residual = std::isinf(last_residual_) ? 1.0 : last_residual_;
  inputs.last_iteration_seconds = last_seconds_;
  inputs.last_iteration_work = last_work_;
  inputs.components = block_.count();
  return estimator_->estimate(inputs);
}

CoreFleet::CoreFleet(const ode::OdeSystem& system, const FleetConfig& config)
    : link_busy_(config.processors > 0 ? config.processors - 1 : 0) {
  estimator_ = lb::make_estimator(config.estimator);
  balancer_ = std::make_unique<lb::NeighborBalancer>(config.balancer);
  const std::size_t stencil = system.stencil_halfwidth();
  min_keep_ = std::max(config.balancer.min_components, stencil + 1);

  PartitionSpec spec;
  spec.mode = config.partition;
  spec.dimension = system.dimension();
  spec.processors = config.processors;
  spec.speeds = config.speeds;
  spec.min_per_part = stencil + 1;
  const auto starts = build_partition(spec);

  CoreParams params;
  params.tolerance = config.tolerance;
  params.persistence = config.persistence;
  params.min_keep = min_keep_;
  params.lb_trigger_period = config.balancer.trigger_period;

  for (std::size_t p = 0; p < config.processors; ++p) {
    ode::WaveformBlockConfig bc;
    bc.first = starts[p];
    bc.count = starts[p + 1] - starts[p];
    bc.num_steps = config.num_steps;
    bc.t_end = config.t_end;
    bc.mode = config.solve_mode;
    bc.newton = config.newton;
    bc.receive_filter = config.receive_filter;
    cores_.emplace_back(p, config.processors, system, bc, params, *estimator_,
                        *balancer_);
  }
}

ProcessorCore::BeginInfo CoreFleet::begin_iteration(std::size_t p) {
  const ProcessorCore::BeginInfo info = cores_[p].begin_iteration();
  if (info.absorbed_from_left) link_busy_[p - 1].store(false);
  if (info.absorbed_from_right) link_busy_[p].store(false);
  return info;
}

MigrationAttempt CoreFleet::migrate(std::size_t p,
                                    ode::MigrationPayload& payload) {
  ProcessorCore& core = cores_[p];
  const bool hidden = mutation::link_flags_hidden();
  const bool left_busy = !hidden && p > 0 && link_busy_[p - 1].load();
  const bool right_busy =
      !hidden && p + 1 < cores_.size() && link_busy_[p].load();
  const lb::BalanceDecision decision =
      core.plan_migration(left_busy, right_busy);
  MigrationAttempt attempt;
  if (decision.action == lb::BalanceDecision::Action::kNone) return attempt;
  attempt.side = decision.action == lb::BalanceDecision::Action::kSendLeft
                     ? Side::kLeft
                     : Side::kRight;
  // Claim before extracting, so two neighbours cannot start crossing
  // migrations on one link; compare-exchange makes the claim atomic.
  std::atomic<bool>& link = link_busy_[attempt.side == Side::kLeft ? p - 1 : p];
  bool expected = false;
  if (!link.compare_exchange_strong(expected, true)) {
    attempt.outcome = MigrationAttempt::Outcome::kLinkBusy;
    return attempt;
  }
  if (!core.extract_migration_into(attempt.side, decision.amount, payload)) {
    link.store(false);
    attempt.outcome = MigrationAttempt::Outcome::kGuarded;
    return attempt;
  }
  attempt.outcome = MigrationAttempt::Outcome::kExtracted;
  return attempt;
}

bool CoreFleet::lb_in_flight() const noexcept {
  for (const std::atomic<bool>& busy : link_busy_)
    if (busy.load()) return true;
  return false;
}

bool CoreFleet::adjacent_link_busy(std::size_t p) const noexcept {
  return (p > 0 && link_busy_[p - 1].load()) ||
         (p + 1 < cores_.size() && link_busy_[p].load());
}

namespace mutation {

namespace {
bool g_disable_famine_guard = false;
bool g_hide_link_flags = false;
}  // namespace

void set_disable_famine_guard(bool disabled) noexcept {
  g_disable_famine_guard = disabled;
}

bool famine_guard_disabled() noexcept { return g_disable_famine_guard; }

void set_hide_link_flags(bool hidden) noexcept { g_hide_link_flags = hidden; }

bool link_flags_hidden() noexcept { return g_hide_link_flags; }

}  // namespace mutation

}  // namespace aiac::algo
