// Resource attribution plane (DESIGN.md §12): who is spending the cluster.
//
// Three pieces:
//
//   * A `principal` tag — a tenant/workload id carried in the RPC frame
//     header alongside the trace context and propagated across thread hops
//     (network worker -> action thread, stream-channel producer ->
//     consumer) exactly like TraceContextScope. The id is the name itself:
//     up to 8 ASCII bytes packed little-endian into a u64, so ids are
//     deterministic across processes and decode back to a readable name
//     without any registry or agreement protocol. Longer names truncate;
//     id 0 means unattributed ("-").
//
//   * ResourceLedger — per-thread accumulators keyed by (principal, op)
//     recording cpu_us / queue_us / bytes_in / bytes_out / invocations.
//     Charged at the existing dispatch sites (RPC dispatch, action
//     run/queue accounting, storage block ops, stream-channel push/pop);
//     snapshots merge the slots exactly, and node snapshots (kNodeSnapshot)
//     merge exactly across nodes (sums are associative).
//
//   * SpaceSavingTopK — bounded-memory heavy-hitter sketches (Metwally et
//     al.'s space-saving algorithm) over object keys, action methods and
//     principals. Any key whose true count exceeds N/capacity is
//     guaranteed present; each entry carries an `error` bound (its count
//     overstates the truth by at most `error`). Sketches merge across
//     nodes: counts/errors sum for shared keys; unseen keys enter through
//     the same replacement rule as a live stream (inheriting the evicted
//     minimum's count into their error bound), so merged sketches keep
//     the single-node presence guarantee instead of silently discarding
//     evicted mass.
//
// Everything is charged only when obs::Enabled() is true (callers gate),
// matching the rest of the observability plane: the disabled-mode hot path
// costs nothing.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/per_thread.h"

namespace glider::obs {

// --- Principal tag ----------------------------------------------------------

using PrincipalId = std::uint64_t;  // 0 = unattributed

// Packs up to 8 bytes of `name` little-endian (first char in the low
// byte). Names longer than 8 bytes truncate — ids stay deterministic, so
// every node derives the same id from the same spec string.
PrincipalId PrincipalFromName(std::string_view name);

// Inverse of PrincipalFromName: "-" for 0, the packed characters when all
// printable, else "p<hex>" so a corrupt id still renders safely.
std::string PrincipalName(PrincipalId id);

// The calling thread's current principal (0 when none installed).
PrincipalId CurrentPrincipal();

// Installs `id` as the thread's current principal; restores the previous
// one on destruction. Used at the same boundaries as TraceContextScope:
// the RPC server side (id decoded from the frame header), the action
// thread (id captured at submit time), and load generators.
class PrincipalScope {
 public:
  explicit PrincipalScope(PrincipalId id);
  ~PrincipalScope();
  PrincipalScope(const PrincipalScope&) = delete;
  PrincipalScope& operator=(const PrincipalScope&) = delete;

 private:
  PrincipalId prev_;
};

// --- Resource ledger --------------------------------------------------------

// One accumulator cell; a Charge() delta uses the same shape.
struct LedgerCell {
  std::uint64_t cpu_us = 0;
  std::uint64_t queue_us = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  std::uint64_t invocations = 0;

  void Merge(const LedgerCell& other) {
    cpu_us += other.cpu_us;
    queue_us += other.queue_us;
    bytes_in += other.bytes_in;
    bytes_out += other.bytes_out;
    invocations += other.invocations;
  }
};

struct LedgerEntry {
  PrincipalId principal = 0;
  std::string op;  // "action.onWrite", "stream.channel", "storage.read_block"
  LedgerCell cell;
};

// Per-thread (principal, op) accumulators in PerThread slots. A charge
// takes the calling thread's slot mutex — uncontended except against a
// snapshotter — so charging never serializes across threads. An exited
// thread's slot keeps its cells and is recycled by the next thread to
// charge, so the slot count follows the peak number of charging threads.
class ResourceLedger {
 public:
  static ResourceLedger& Global();

  ResourceLedger(const ResourceLedger&) = delete;
  ResourceLedger& operator=(const ResourceLedger&) = delete;

  void Charge(PrincipalId principal, const std::string& op,
              const LedgerCell& delta);

  // Exact merge across slots, sorted by (principal, op).
  std::vector<LedgerEntry> Snapshot() const;
  void Clear();

 private:
  using Cells = std::map<std::pair<PrincipalId, std::string>, LedgerCell>;

  ResourceLedger() = default;

  PerThread<Cells> cells_;
};

// Exact merge of two ledger snapshots (cells sum per (principal, op)):
// the cluster-wide node-snapshot merge.
std::vector<LedgerEntry> MergeLedgerEntries(
    const std::vector<LedgerEntry>& a, const std::vector<LedgerEntry>& b);

// Ledger cells summed per principal (the per-tenant rollup).
std::map<PrincipalId, LedgerCell> PerPrincipal(
    const std::vector<LedgerEntry>& entries);

// Republishes per-principal rollups of the global ledger as gauges
// ("ledger.<principal>.{cpu_us,queue_us,bytes_in,bytes_out,invocations}")
// so a Prometheus scrape sees attribution too.
void PublishLedgerRollups();

// --- Heavy-hitter sketch ----------------------------------------------------

// Space-saving top-k: at most `capacity` tracked keys. When a new key
// arrives at capacity, it replaces the current minimum and inherits its
// count (the classic over-estimate); `error` records how much of the
// count may belong to evicted keys. Guarantees: every key with true count
// > total/capacity is present, and true_count <= count <= true_count +
// error. Thread-safe.
class SpaceSavingTopK {
 public:
  struct Entry {
    std::string key;
    std::uint64_t count = 0;
    std::uint64_t error = 0;  // count overstates truth by at most this
  };

  explicit SpaceSavingTopK(std::size_t capacity);

  void Offer(std::string_view key, std::uint64_t weight = 1);

  // Entries sorted by count descending (key ascending on ties, so merges
  // are deterministic).
  std::vector<Entry> Entries() const;
  // The `total` stream weight observed (sum of all offered weights).
  std::uint64_t Total() const;
  std::size_t capacity() const { return capacity_; }
  std::size_t size() const;
  void Clear();

  // Merges another node's entries into this sketch: counts and errors sum
  // for shared keys; at capacity, unseen keys enter via the space-saving
  // replacement rule (the evicted minimum's count folds into the
  // newcomer's count and error bound), never by silently dropping mass —
  // so sum(counts) == Total() and the presence guarantee hold after
  // cross-node merges. Entries are applied heaviest-first, so the result
  // is deterministic but only approximately associative: heavy hitters
  // with clear margins agree across merge orders, churny tail entries may
  // differ within their error bounds.
  void Merge(const std::vector<Entry>& other);

  // Pure merge of two entry lists under a capacity bound: the
  // cluster-side merge for sketch dumps (Merge into an empty sketch).
  static std::vector<Entry> MergeEntries(const std::vector<Entry>& a,
                                         const std::vector<Entry>& b,
                                         std::size_t capacity);

 private:
  std::vector<Entry> EntriesLocked() const;

  mutable std::mutex mu_;
  const std::size_t capacity_;
  std::uint64_t total_ = 0;
  std::map<std::string, Entry, std::less<>> entries_;
};

// Process-global sketches fed by the charging sites and carried by the
// node snapshot: object keys (metadata paths), action methods
// ("<type>.<method>"), and principals.
SpaceSavingTopK& KeySketch();
SpaceSavingTopK& MethodSketch();
SpaceSavingTopK& PrincipalSketch();

}  // namespace glider::obs
