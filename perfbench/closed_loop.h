// Closed-loop clients under a per-unit deadline.
//
// Each client thread runs its units back to back: the next starts when the
// previous returned. A unit that runs past the deadline counts as failed
// and Run() returns without waiting for it, because a thread stuck in
// future::get() cannot be joined. The stuck thread is abandoned: the caller
// must then either keep alive everything the unit touches until the thread
// returns, or end the process.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "counters.h"

namespace perfbench {

using UnitFn =
    std::function<glider::Status(std::size_t client, std::size_t unit)>;

struct LoopStats {
  glider::SampleStats latencies_ns;  // units that returned OK
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;    // errors and overruns
  std::uint64_t overruns = 0;  // units still running at the deadline
  double wall_s = 0;           // first unit start to last unit end
  std::string first_error;
};

// Units run back to back, with the counter deltas over exactly their time.
struct Piece {
  LoopStats stats;
  Counters cost;

  // Pools latencies and counts, sums wall times and counter deltas.
  void Add(const Piece& other);
  // Share of the host's CPU time the hypervisor took away meanwhile.
  double steal() const;
};

// Pools the `keep` slices with the least steal: a host that takes the CPUs
// away for a while slows every timing, and the program cannot be told
// apart from its neighbours then.
Piece Pool(std::vector<Piece> slices, std::size_t keep);

class ClosedLoop {
 public:
  ClosedLoop(std::size_t clients, std::chrono::nanoseconds deadline)
      : clients_(clients), deadline_(deadline) {}
  // Joins every thread, abandoned ones included.
  ~ClosedLoop();
  ClosedLoop(const ClosedLoop&) = delete;
  ClosedLoop& operator=(const ClosedLoop&) = delete;

  // Runs `units_per_client` units on each client, unit(client, index).
  LoopStats Run(std::size_t units_per_client, UnitFn unit);

  // True once a unit overran; its thread may still be running.
  bool hung() const { return !abandoned_.empty(); }

 private:
  struct Client {
    std::int64_t unit_start_ns = 0;  // 0 between units
    std::int64_t first_start_ns = 0;
    std::int64_t last_end_ns = 0;
    bool done = false;
    bool abandoned = false;
    std::vector<double> latencies_ns;
    std::uint64_t failed = 0;
    std::string first_error;
  };
  // What one Run() shares with its threads, which may outlive it.
  struct State {
    std::mutex mu;
    std::condition_variable cv;  // a client finished
    std::vector<Client> clients;
    bool stop = false;
  };

  std::size_t clients_;
  std::chrono::nanoseconds deadline_;
  std::vector<std::thread> abandoned_;
};

}  // namespace perfbench
