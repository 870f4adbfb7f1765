// Persistent worker pool for domain-parallel cycle stepping.
//
// Network::step partitions the mesh into row-band domains; each cycle the
// pool releases every worker once (an epoch), each worker steps its domain,
// and the caller waits for all of them before running the barrier-side
// merges. Workers are created once per Network and parked between cycles on
// a spin-then-yield wait, so the per-cycle cost is two fences and a handful
// of atomic loads — no mutexes, condvars or allocations on the hot path.
//
// Memory-model contract (what TSan checks): the caller's epoch_ store is a
// release that publishes everything written before the cycle (merged
// channels, wake lists, cycle number) to workers, whose epoch load is an
// acquire; each worker's done-slot store is a release publishing its
// domain's writes back to the caller's acquire loads in run_cycle.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "telemetry/ops/profile.hpp"

namespace flov {

class StepPool {
 public:
  /// Spawns `workers` threads; each epoch, worker i runs job(i, cycle).
  StepPool(int workers, std::function<void(int, Cycle)> job);
  ~StepPool();

  StepPool(const StepPool&) = delete;
  StepPool& operator=(const StepPool&) = delete;

  int workers() const { return static_cast<int>(threads_.size()); }

  /// Runs one epoch: releases every worker with cycle `now`, runs
  /// `main_work` on the calling thread (its own domain), then waits for
  /// all workers to finish. Templated so the per-cycle call site does not
  /// materialize a std::function (no per-cycle allocation).
  template <typename F>
  void run_cycle(Cycle now, F&& main_work) {
    now_ = now;
    const std::uint64_t epoch =
        epoch_.fetch_add(1, std::memory_order_release) + 1;
    main_work();
    // Barrier wait, attributed to the control thread's profile slot: the
    // gap between its own domain finishing and the slowest worker's — the
    // band imbalance signal the profile report surfaces.
    FLOV_PROFILE(kBarrier);
    for (std::size_t i = 0; i < threads_.size(); ++i) {
      wait_done(i, epoch);
    }
  }

 private:
  struct alignas(64) DoneSlot {
    std::atomic<std::uint64_t> done{0};
  };

  void worker_loop(int index);
  /// Spin-then-yield wait until worker `i` finishes `epoch`.
  void wait_done(std::size_t i, std::uint64_t epoch);

  std::function<void(int, Cycle)> job_;
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> stop_{false};
  Cycle now_ = 0;  ///< published by the epoch_ release/acquire pair
  std::unique_ptr<DoneSlot[]> done_;
  std::vector<std::thread> threads_;
};

}  // namespace flov
