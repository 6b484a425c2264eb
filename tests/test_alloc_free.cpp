// The allocation-freedom contract of the solver hot path: once warm, an
// outer waveform iteration and a boundary exchange perform zero heap
// allocations. Enforced with a counting global operator new, so any
// regression (a stray per-iteration vector, a message built by value on
// the send path) fails deterministically rather than showing up as a
// perf drift in the benchmark.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "ode/brusselator.hpp"
#include "ode/waveform_block.hpp"
#include "runtime/worker_pool.hpp"

// ---- Counting allocator -------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

// GCC flags std::free on pointers from a replaced operator new as a
// mismatched pair; the pairing here is intentional (new uses malloc).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace aiac;

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// Two adjacent blocks over the Brusselator domain, exchanging boundary
// data through recycled messages — the same dance the engines perform.
struct BlockPair {
  explicit BlockPair(ode::LocalSolveMode mode)
      : system([] {
          ode::Brusselator::Params params;
          params.grid_points = 16;
          return params;
        }()),
        left(system, make_config(0, system.dimension() / 2, mode)),
        right(system,
              make_config(system.dimension() / 2,
                          system.dimension() - system.dimension() / 2,
                          mode)) {}

  static ode::WaveformBlockConfig make_config(std::size_t first,
                                              std::size_t count,
                                              ode::LocalSolveMode mode) {
    ode::WaveformBlockConfig config;
    config.first = first;
    config.count = count;
    config.num_steps = 20;
    config.t_end = 0.4;
    config.mode = mode;
    return config;
  }

  void iterate_and_exchange() {
    left.iterate();
    right.iterate();
    left.boundary_for_right(to_right);
    right.boundary_for_left(to_left);
    left.accept_right_ghosts(to_left);
    right.accept_left_ghosts(to_right);
  }

  ode::Brusselator system;
  ode::WaveformBlock left;
  ode::WaveformBlock right;
  ode::BoundaryMessage to_left;
  ode::BoundaryMessage to_right;
};

class AllocFree : public ::testing::TestWithParam<ode::LocalSolveMode> {};

// After a warm-up that sizes every buffer (workspace, staging vectors,
// message rows), further outer iterations and boundary exchanges must not
// touch the heap at all. Block mode refactorizes every Newton iteration,
// in place in the workspace.
TEST_P(AllocFree, SteadyStateIterationAllocatesNothing) {
  BlockPair pair(GetParam());
  for (int warm = 0; warm < 8; ++warm) pair.iterate_and_exchange();

  const std::uint64_t before = allocs();
  for (int iter = 0; iter < 32; ++iter) pair.iterate_and_exchange();
  EXPECT_EQ(allocs() - before, 0u)
      << "steady-state iterations allocated on the heap";
}

// The send path in isolation: filling a recycled BoundaryMessage and
// ingesting it on the far side reuses the rows capacity of both the
// message and the receiving inbox.
TEST(AllocFreeExchange, BoundaryFillAndAcceptAllocateNothing) {
  BlockPair pair(ode::LocalSolveMode::kBlockNewton);
  for (int warm = 0; warm < 4; ++warm) pair.iterate_and_exchange();

  const std::uint64_t before = allocs();
  for (int round = 0; round < 64; ++round) {
    pair.left.boundary_for_right(pair.to_right);
    pair.right.boundary_for_left(pair.to_left);
    pair.left.accept_right_ghosts(pair.to_left);
    pair.right.accept_left_ghosts(pair.to_right);
  }
  EXPECT_EQ(allocs() - before, 0u);
}

// The parallel iterate: a chunked sweep dispatched to a worker pool must
// stay allocation-free once warm — across the skip path, forced full
// sweeps, and the boundary exchange — exactly like the serial one. The
// pool itself allocates only at construction (threads, lane array).
TEST(AllocFreeParallel, PooledChunkedIterateAllocatesNothing) {
  runtime::WorkerPool pool(2);
  ode::Brusselator::Params params;
  params.grid_points = 16;
  ode::Brusselator system(params);
  auto config = BlockPair::make_config(0, system.dimension(),
                                       ode::LocalSolveMode::kBlockNewton);
  config.intra_chunks = 3;
  ode::WaveformBlock block(system, config);
  block.set_worker_pool(&pool);
  for (int warm = 0; warm < 8; ++warm) {
    block.force_full_sweep();
    block.iterate();
  }

  const std::uint64_t before = allocs();
  for (int iter = 0; iter < 16; ++iter) {
    block.force_full_sweep();
    block.iterate();
  }
  for (int iter = 0; iter < 16; ++iter) block.iterate();  // skip path
  EXPECT_EQ(allocs() - before, 0u)
      << "pooled chunked iterations allocated on the heap";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, AllocFree,
    ::testing::Values(ode::LocalSolveMode::kBlockNewton,
                      ode::LocalSolveMode::kScalarJacobi),
    [](const auto& param_info) {
      return param_info.param == ode::LocalSolveMode::kBlockNewton
                 ? "Block"
                 : "Scalar";
    });

}  // namespace
