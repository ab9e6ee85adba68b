// Per-thread recording slots for the observability recorders: the trace
// recorder's spans, the resource ledger's cells and the event journal's
// events (DESIGN.md "Observability").
//
// PerThread<T> gives each recording thread a slot of its own. On its first
// record a thread claims a parked slot, or makes one if none is parked; at
// thread exit it parks the slot and keeps its contents. So the slot count
// follows the peak number of threads recording at once, not the number of
// threads ever started (the active server's method workers come and go
// with load), and a record takes only its own slot's mutex, which is
// uncontended. ForEach and Clear walk every slot, live and parked.
//
// The calling thread's slot is held in a thread_local keyed by T, so two
// PerThread<T> of one T would share it. Keep one instance per T, and leak
// it (the recorders' Global()), so a slot parked during static destruction
// still parks into a live object.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace glider::obs {

template <typename T>
class PerThread {
 public:
  PerThread() = default;
  PerThread(const PerThread&) = delete;
  PerThread& operator=(const PerThread&) = delete;

  // Runs fn(T&) on the calling thread's slot, under that slot's mutex, and
  // returns its result.
  template <typename Fn>
  decltype(auto) With(Fn&& fn) {
    Slot& slot = Local();
    std::scoped_lock lock(slot.mu);
    return fn(slot.value);
  }

  // Runs fn(const T&) on every slot, under that slot's mutex, so fn must
  // not record here (the slot may be its own). The walk holds no registry
  // lock: other threads claim slots meanwhile, and one made after the walk
  // began is not visited.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (Slot* slot : SlotList()) {
      std::scoped_lock slot_lock(slot->mu);
      fn(std::as_const(slot->value));
    }
  }

  // Resets every slot to T{}.
  void Clear() {
    for (Slot* slot : SlotList()) {
      std::scoped_lock slot_lock(slot->mu);
      slot->value = T{};
    }
  }

 private:
  struct Slot {
    std::mutex mu;
    T value{};
  };

  // A thread's claim on its slot; parks the slot at thread exit.
  struct Lease {
    PerThread* owner = nullptr;
    Slot* slot = nullptr;
    ~Lease() {
      if (slot != nullptr) owner->Park(slot);
    }
  };

  Slot& Local() {
    thread_local Lease lease;
    if (lease.slot == nullptr) {
      lease.owner = this;
      lease.slot = Claim();
    }
    return *lease.slot;
  }

  Slot* Claim() {
    std::scoped_lock lock(mu_);
    if (!parked_.empty()) {
      Slot* slot = parked_.back();
      parked_.pop_back();
      return slot;
    }
    slots_.push_back(std::make_unique<Slot>());
    return slots_.back().get();
  }

  void Park(Slot* slot) {
    std::scoped_lock lock(mu_);
    parked_.push_back(slot);
  }

  // The slots made so far. Slots are never freed while this object lives,
  // so the pointers stay valid after the registry lock is released.
  std::vector<Slot*> SlotList() const {
    std::scoped_lock lock(mu_);
    std::vector<Slot*> list;
    list.reserve(slots_.size());
    for (const auto& slot : slots_) list.push_back(slot.get());
    return list;
  }

  mutable std::mutex mu_;  // guards slots_ and parked_
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> parked_;  // slots of exited threads, in slots_ too
};

// The newest N items: storage grows to N on demand, then each push
// overwrites the oldest item.
template <typename T, std::size_t N>
class Ring {
 public:
  // Appends `item`; returns true when it overwrote the oldest item.
  bool Push(T item) {
    if (items_.size() < N) {
      items_.push_back(std::move(item));
      return false;
    }
    items_[next_] = std::move(item);
    next_ = (next_ + 1) % N;
    ++overwritten_;
    return true;
  }

  // Runs fn(const T&) on each retained item, oldest first.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (std::size_t i = 0; i < items_.size(); ++i) {
      fn(items_[(next_ + i) % items_.size()]);
    }
  }

  // Items lost to overwrites.
  std::uint64_t overwritten() const { return overwritten_; }

 private:
  std::vector<T> items_;
  std::size_t next_ = 0;  // the oldest item, once full
  std::uint64_t overwritten_ = 0;
};

}  // namespace glider::obs
