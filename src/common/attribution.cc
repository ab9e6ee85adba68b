#include "common/attribution.h"

#include <algorithm>
#include <cctype>
#include <cstdio>

#include "common/metrics_registry.h"

namespace glider::obs {

namespace {

thread_local PrincipalId t_principal = 0;

}  // namespace

PrincipalId PrincipalFromName(std::string_view name) {
  PrincipalId id = 0;
  const std::size_t n = std::min<std::size_t>(name.size(), 8);
  for (std::size_t i = 0; i < n; ++i) {
    id |= static_cast<PrincipalId>(static_cast<unsigned char>(name[i]))
          << (8 * i);
  }
  return id;
}

std::string PrincipalName(PrincipalId id) {
  if (id == 0) return "-";
  char chars[8];
  std::size_t n = 0;
  bool printable = true;
  for (std::size_t i = 0; i < 8; ++i) {
    const auto c = static_cast<unsigned char>((id >> (8 * i)) & 0xff);
    if (c == 0) {
      // NUL padding: the rest must be NUL too, else the id is not a
      // packed name.
      for (std::size_t j = i; j < 8; ++j) {
        if (((id >> (8 * j)) & 0xff) != 0) printable = false;
      }
      break;
    }
    if (!std::isprint(c)) {
      printable = false;
      break;
    }
    chars[n++] = static_cast<char>(c);
  }
  if (printable && n > 0) return std::string(chars, n);
  char buf[24];
  std::snprintf(buf, sizeof(buf), "p%016llx",
                static_cast<unsigned long long>(id));
  return std::string(buf);
}

PrincipalId CurrentPrincipal() { return t_principal; }

PrincipalScope::PrincipalScope(PrincipalId id) : prev_(t_principal) {
  t_principal = id;
}

PrincipalScope::~PrincipalScope() { t_principal = prev_; }

// --- ResourceLedger ---------------------------------------------------------

ResourceLedger& ResourceLedger::Global() {
  static ResourceLedger* ledger = new ResourceLedger();
  return *ledger;
}

void ResourceLedger::Charge(PrincipalId principal, const std::string& op,
                            const LedgerCell& delta) {
  cells_.With([&](Cells& cells) { cells[{principal, op}].Merge(delta); });
}

std::vector<LedgerEntry> ResourceLedger::Snapshot() const {
  Cells merged;
  cells_.ForEach([&](const Cells& cells) {
    for (const auto& [key, cell] : cells) merged[key].Merge(cell);
  });
  std::vector<LedgerEntry> out;
  out.reserve(merged.size());
  for (auto& [key, cell] : merged) {
    out.push_back(LedgerEntry{key.first, key.second, cell});
  }
  return out;
}

void ResourceLedger::Clear() { cells_.Clear(); }

std::vector<LedgerEntry> MergeLedgerEntries(
    const std::vector<LedgerEntry>& a, const std::vector<LedgerEntry>& b) {
  std::map<std::pair<PrincipalId, std::string>, LedgerCell> merged;
  for (const auto* list : {&a, &b}) {
    for (const auto& entry : *list) {
      merged[{entry.principal, entry.op}].Merge(entry.cell);
    }
  }
  std::vector<LedgerEntry> out;
  out.reserve(merged.size());
  for (auto& [key, cell] : merged) {
    out.push_back(LedgerEntry{key.first, key.second, cell});
  }
  return out;
}

std::map<PrincipalId, LedgerCell> PerPrincipal(
    const std::vector<LedgerEntry>& entries) {
  std::map<PrincipalId, LedgerCell> out;
  for (const auto& entry : entries) out[entry.principal].Merge(entry.cell);
  return out;
}

void PublishLedgerRollups() {
  auto& registry = MetricsRegistry::Global();
  for (const auto& [principal, cell] :
       PerPrincipal(ResourceLedger::Global().Snapshot())) {
    const std::string prefix = "ledger." + PrincipalName(principal) + ".";
    registry.GetGauge(prefix + "cpu_us")
        .Set(static_cast<std::int64_t>(cell.cpu_us));
    registry.GetGauge(prefix + "queue_us")
        .Set(static_cast<std::int64_t>(cell.queue_us));
    registry.GetGauge(prefix + "bytes_in")
        .Set(static_cast<std::int64_t>(cell.bytes_in));
    registry.GetGauge(prefix + "bytes_out")
        .Set(static_cast<std::int64_t>(cell.bytes_out));
    registry.GetGauge(prefix + "invocations")
        .Set(static_cast<std::int64_t>(cell.invocations));
  }
}

// --- SpaceSavingTopK --------------------------------------------------------

SpaceSavingTopK::SpaceSavingTopK(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity) {}

void SpaceSavingTopK::Offer(std::string_view key, std::uint64_t weight) {
  if (weight == 0) return;
  std::scoped_lock lock(mu_);
  total_ += weight;
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    it->second.count += weight;
    return;
  }
  if (entries_.size() < capacity_) {
    Entry e;
    e.key = std::string(key);
    e.count = weight;
    entries_.emplace(e.key, e);
    return;
  }
  // At capacity: replace the minimum-count entry. The newcomer inherits
  // the victim's count (so it can never be under-counted) and records it
  // as error.
  auto victim = entries_.begin();
  for (auto i = std::next(entries_.begin()); i != entries_.end(); ++i) {
    if (i->second.count < victim->second.count) victim = i;
  }
  Entry e;
  e.key = std::string(key);
  e.count = victim->second.count + weight;
  e.error = victim->second.count;
  entries_.erase(victim);
  entries_.emplace(e.key, e);
}

std::vector<SpaceSavingTopK::Entry> SpaceSavingTopK::EntriesLocked() const {
  std::vector<Entry> out;
  out.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) out.push_back(entry);
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.count != b.count) return a.count > b.count;
    return a.key < b.key;
  });
  return out;
}

std::vector<SpaceSavingTopK::Entry> SpaceSavingTopK::Entries() const {
  std::scoped_lock lock(mu_);
  return EntriesLocked();
}

std::uint64_t SpaceSavingTopK::Total() const {
  std::scoped_lock lock(mu_);
  return total_;
}

std::size_t SpaceSavingTopK::size() const {
  std::scoped_lock lock(mu_);
  return entries_.size();
}

void SpaceSavingTopK::Clear() {
  std::scoped_lock lock(mu_);
  entries_.clear();
  total_ = 0;
}

void SpaceSavingTopK::Merge(const std::vector<Entry>& other) {
  // Heaviest first (key ascending on ties) so the merge is deterministic
  // regardless of the wire ordering, and light tail entries are the ones
  // that pay the replacement-rule error inflation.
  std::vector<Entry> incoming = other;
  std::sort(incoming.begin(), incoming.end(),
            [](const Entry& a, const Entry& b) {
              if (a.count != b.count) return a.count > b.count;
              return a.key < b.key;
            });
  std::scoped_lock lock(mu_);
  for (const auto& e : incoming) {
    total_ += e.count;
    auto it = entries_.find(e.key);
    if (it != entries_.end()) {
      it->second.count += e.count;
      it->second.error += e.error;
      continue;
    }
    if (entries_.size() < capacity_) {
      entries_.emplace(e.key, e);
      continue;
    }
    // At capacity: the same space-saving replacement rule as Offer — the
    // newcomer inherits the evicted minimum's count (folded into both its
    // count and its error bound) instead of the victim's mass being
    // silently discarded. This keeps sum(counts) == total_, so the
    // presence guarantee (every key with true count > total/capacity is
    // tracked) survives cross-node merges. Ties evict the
    // lexicographically larger key, deterministically.
    auto victim = entries_.begin();
    for (auto i = std::next(entries_.begin()); i != entries_.end(); ++i) {
      if (i->second.count < victim->second.count ||
          (i->second.count == victim->second.count &&
           i->first > victim->first)) {
        victim = i;
      }
    }
    Entry merged;
    merged.key = e.key;
    merged.count = victim->second.count + e.count;
    merged.error = victim->second.count + e.error;
    entries_.erase(victim);
    entries_.emplace(merged.key, merged);
  }
}

std::vector<SpaceSavingTopK::Entry> SpaceSavingTopK::MergeEntries(
    const std::vector<Entry>& a, const std::vector<Entry>& b,
    std::size_t capacity) {
  SpaceSavingTopK merged(capacity);
  merged.Merge(a);
  merged.Merge(b);
  return merged.Entries();
}

SpaceSavingTopK& KeySketch() {
  static SpaceSavingTopK* sketch = new SpaceSavingTopK(64);
  return *sketch;
}

SpaceSavingTopK& MethodSketch() {
  static SpaceSavingTopK* sketch = new SpaceSavingTopK(64);
  return *sketch;
}

SpaceSavingTopK& PrincipalSketch() {
  static SpaceSavingTopK* sketch = new SpaceSavingTopK(64);
  return *sketch;
}

}  // namespace glider::obs
