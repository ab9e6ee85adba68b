// Adaptive spin-then-park policy shared by the blocking primitives
// (ThreadPool workers, StreamChannel action-side waits).
//
// Parking on a condition variable costs a futex round trip plus two context
// switches (~5-10us on the bench machines); most waits under load resolve
// in well under that. Spinning briefly before parking converts those short
// waits into sub-microsecond handoffs. The budget is adaptive so idle
// threads do not burn CPU: every spin that observes the condition grows the
// budget, every spin that exhausts it and falls through to a park shrinks
// it, so a consumer that keeps missing quickly stops spinning at all.
//
// The spin loop interleaves CPU relax hints with sched_yield: on
// oversubscribed machines (more runnable threads than cores) a pure pause
// loop would spin against a producer that cannot run; yielding hands the
// core over so the condition can actually become true.
#pragma once

#include <atomic>
#include <cstdint>
#include <thread>

namespace glider {

namespace detail {
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}
}  // namespace detail

class AdaptiveSpin {
 public:
  // `max_spins` bounds the budget; 0 disables spinning entirely (every
  // wait parks immediately — used by tests to force the park path).
  //
  // On a single-core machine spinning is structurally useless: the awaited
  // condition can only become true once the producer gets the CPU, which is
  // exactly what parking yields faster than a spin loop. The budget is
  // therefore forced to 0 there regardless of `max_spins`.
  explicit AdaptiveSpin(std::uint32_t max_spins = kDefaultMaxSpins)
      : max_spins_(MultiCore() ? max_spins : 0), budget_(max_spins_ / 4) {}

  // Spins until `ready()` returns true or the adaptive budget runs out.
  // Returns true when the condition was observed (caller proceeds without
  // parking), false when the caller should fall back to a real park.
  // `ready` must be safe to call without locks (typically an atomic read);
  // the caller re-checks the real predicate under its lock either way.
  template <typename Pred>
  bool SpinUntil(Pred&& ready) {
    if (max_spins_ == 0) return false;
    const std::uint32_t budget = budget_.load(std::memory_order_relaxed);
    for (std::uint32_t i = 0; i < budget; ++i) {
      if (ready()) {
        Grow();
        return true;
      }
      // Yield every 16th iteration so a producer that lost the core can
      // run; relax otherwise.
      if ((i & 15u) == 15u) {
        std::this_thread::yield();
      } else {
        detail::CpuRelax();
      }
    }
    Shrink();
    return false;
  }

  std::uint32_t budget() const {
    return budget_.load(std::memory_order_relaxed);
  }

  static constexpr std::uint32_t kDefaultMaxSpins = 256;

 private:
  void Grow() {
    std::uint32_t b = budget_.load(std::memory_order_relaxed);
    if (b < max_spins_) {
      budget_.store(b + (b / 2) + 1 > max_spins_ ? max_spins_ : b + (b / 2) + 1,
                    std::memory_order_relaxed);
    }
  }
  void Shrink() {
    // Floor above zero (unless spinning is disabled outright) so a thread
    // that went fully idle can still notice a new burst and regrow.
    const std::uint32_t floor = max_spins_ == 0 ? 0 : kMinSpins;
    const std::uint32_t b = budget_.load(std::memory_order_relaxed);
    budget_.store(b / 2 > floor ? b / 2 : floor, std::memory_order_relaxed);
  }

  static bool MultiCore() {
    static const bool multi = std::thread::hardware_concurrency() > 1;
    return multi;
  }

  static constexpr std::uint32_t kMinSpins = 4;

  const std::uint32_t max_spins_;
  // Atomic so concurrent waiters sharing one policy object stay race-free;
  // the adaptation itself is intentionally approximate.
  std::atomic<std::uint32_t> budget_;
};

}  // namespace glider
