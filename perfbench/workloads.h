// The benchmark's three closed-loop workloads. Each boots its own
// MiniCluster over TCP, and its units drive only public client calls.
//
//   invoke  [request]  OpenWriter -> one 4 KiB Write -> Close into one shared
//                      interleaved glider.merge action
//   files   [cycle]    create + write a new 4 MiB file, read one of 32
//                      resident 4 MiB files, delete the new file
//   shuffle [job]      deploy two glider.sorter actions, map 2 x 2 MiB of
//                      records into them from two FaaS workers, trigger
//                      both sorts, delete the sorters (Fig. 7, Glider)
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"
#include "testing/cluster.h"

namespace perfbench {

inline constexpr std::size_t kClients = 2;

class Workload {
 public:
  virtual ~Workload() = default;

  // Boots the cluster, then deploys and preloads what the units use.
  virtual glider::Status Setup() = 0;
  // Stops the cluster Setup() booted.
  void Teardown() { cluster_.reset(); }
  // Connects one StoreClient per client thread (untimed).
  virtual glider::Status Connect() = 0;
  // One unit of client `client`; `index` counts that client's units.
  virtual glider::Status Unit(std::size_t client, std::size_t index) = 0;

  // Lockstep workloads run one unit per client per round and check each
  // round's outputs between rounds, outside the measured time.
  virtual bool lockstep() const { return false; }
  virtual glider::Status CheckRound() { return glider::Status::Ok(); }
  // Checks the outputs once every phase has run.
  virtual glider::Status CheckFinal() = 0;

  // User payload one unit moves, the base of every per-byte ratio.
  virtual double payload_bytes_per_unit() const = 0;
  // Units per second this host sustains, used to size a run.
  virtual double nominal_units_per_s() const = 0;

  const glider::Metrics& metrics() const { return *cluster_->metrics(); }
  // First wrong output seen by a unit (empty when all were right).
  std::string check_failure() const;

 protected:
  void RecordCheckFailure(std::string what);

  std::unique_ptr<glider::testing::MiniCluster> cluster_;

 private:
  mutable std::mutex check_mu_;
  std::string check_failure_;
};

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(std::string_view name,
                                       std::uint64_t seed);

// Order-sensitive checksum over a byte stream fed in arbitrary pieces.
class Checksum {
 public:
  void Update(const std::uint8_t* data, std::size_t size);
  std::uint64_t Value() const;

 private:
  void Word(std::uint64_t word) {
    a_ += word ^ 0x9e3779b97f4a7c15ULL;
    b_ += a_;
  }

  std::uint64_t a_ = 0;
  std::uint64_t b_ = 0;
  std::uint64_t pending_ = 0;
  std::size_t pending_bytes_ = 0;
  std::uint64_t length_ = 0;
};

}  // namespace perfbench
