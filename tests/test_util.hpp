// Shared helpers for simulation-driven tests.
#pragma once

#include <optional>
#include <utility>

#include "sim/simulation.hpp"
#include "sim/task.hpp"

namespace bs::test {

/// Runs the simulation until `task` completes and returns its value.
/// Background actors (heartbeats, monitors) may still have events queued;
/// they are simply not processed further.
template <class T>
T run_task(sim::Simulation& sim, sim::Task<T> task) {
  std::optional<T> out;
  sim.spawn([](sim::Task<T> t, std::optional<T>& slot) -> sim::Task<void> {
    slot.emplace(co_await std::move(t));
  }(std::move(task), out));
  while (!out.has_value() && sim.step()) {
  }
  if (!out.has_value()) {
    // The task deadlocked: no events left but not complete.
    std::abort();
  }
  return std::move(*out);
}

inline void run_task_void(sim::Simulation& sim, sim::Task<void> task) {
  bool done = false;
  sim.spawn([](sim::Task<void> t, bool& flag) -> sim::Task<void> {
    co_await std::move(t);
    flag = true;
  }(std::move(task), done));
  while (!done && sim.step()) {
  }
  if (!done) std::abort();
}

}  // namespace bs::test
