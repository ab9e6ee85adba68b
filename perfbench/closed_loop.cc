#include "closed_loop.h"

#include <algorithm>
#include <limits>

#include "spans.h"

namespace perfbench {

void Piece::Add(const Piece& other) {
  for (double ns : other.stats.latencies_ns.samples()) stats.latencies_ns.Add(ns);
  stats.attempted += other.stats.attempted;
  stats.failed += other.stats.failed;
  stats.overruns += other.stats.overruns;
  stats.wall_s += other.stats.wall_s;
  if (stats.first_error.empty()) stats.first_error = other.stats.first_error;
  cost = Sum(cost, other.cost);
}

double Piece::steal() const {
  return cost.host_jiffies == 0 ? 0
                                : static_cast<double>(cost.steal_jiffies) /
                                      static_cast<double>(cost.host_jiffies);
}

Piece Pool(std::vector<Piece> slices, std::size_t keep) {
  std::stable_sort(slices.begin(), slices.end(),
                   [](const Piece& a, const Piece& b) { return a.steal() < b.steal(); });
  slices.resize(std::min(keep, slices.size()));
  Piece pooled;
  for (const auto& slice : slices) pooled.Add(slice);
  return pooled;
}

ClosedLoop::~ClosedLoop() {
  for (auto& thread : abandoned_) thread.join();
}

LoopStats ClosedLoop::Run(std::size_t units_per_client, UnitFn unit) {
  auto fn = std::make_shared<UnitFn>(std::move(unit));
  auto state = std::make_shared<State>();
  state->clients.resize(clients_);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients_; ++c) {
    threads.emplace_back([state, fn, c, units_per_client] {
      Client& client = state->clients[c];
      for (std::size_t i = 0; i < units_per_client; ++i) {
        const std::int64_t start = NowNs();
        {
          std::scoped_lock lock(state->mu);
          if (state->stop) break;
          client.unit_start_ns = start;
          if (client.first_start_ns == 0) client.first_start_ns = start;
        }
        const glider::Status status = (*fn)(c, i);
        const std::int64_t end = NowNs();
        std::scoped_lock lock(state->mu);
        if (client.abandoned) return;
        client.unit_start_ns = 0;
        client.last_end_ns = end;
        if (status.ok()) {
          client.latencies_ns.push_back(static_cast<double>(end - start));
        } else {
          ++client.failed;
          if (client.first_error.empty()) client.first_error = status.ToString();
        }
      }
      std::scoped_lock lock(state->mu);
      client.done = true;
      state->cv.notify_all();
    });
  }

  // Wake on every finished client, and every 10 ms to look for overruns.
  LoopStats stats;
  {
    std::unique_lock lock(state->mu);
    while (true) {
      const auto settled = std::count_if(
          state->clients.begin(), state->clients.end(),
          [](const Client& client) { return client.done || client.abandoned; });
      if (settled == static_cast<std::ptrdiff_t>(clients_)) break;
      state->cv.wait_for(lock, std::chrono::milliseconds(10));
      const std::int64_t now = NowNs();
      for (Client& client : state->clients) {
        if (!client.done && !client.abandoned && client.unit_start_ns != 0 &&
            now - client.unit_start_ns > deadline_.count()) {
          client.abandoned = true;
          ++client.failed;
          ++stats.overruns;
          state->stop = true;
        }
      }
    }
  }

  // Abandoned flags no longer change: only this thread sets them.
  for (std::size_t c = 0; c < clients_; ++c) {
    if (state->clients[c].abandoned) {
      abandoned_.push_back(std::move(threads[c]));
    } else {
      threads[c].join();
    }
  }
  std::scoped_lock lock(state->mu);
  std::int64_t first = std::numeric_limits<std::int64_t>::max();
  std::int64_t last = 0;
  for (const Client& client : state->clients) {
    for (double ns : client.latencies_ns) stats.latencies_ns.Add(ns);
    stats.failed += client.failed;
    if (stats.first_error.empty()) stats.first_error = client.first_error;
    if (client.first_start_ns != 0) first = std::min(first, client.first_start_ns);
    last = std::max(last, client.last_end_ns);
  }
  stats.attempted = stats.latencies_ns.count() + stats.failed;
  if (last > first) stats.wall_s = static_cast<double>(last - first) / 1e9;
  return stats;
}

}  // namespace perfbench
