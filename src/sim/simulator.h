// Discrete-event simulator used to reproduce the paper's 49-Pi testbed.
//
// Events are (time, sequence) ordered: equal-time events fire in the order
// they were scheduled, which keeps every experiment deterministic for a
// given seed.
//
// Hot-path layout: the pending set is an implicit 4-ary min-heap of
// {time, seq, slot} keys (24 bytes each, so sift operations stay inside a
// couple of cache lines and never touch the callbacks), while the callbacks
// themselves live in a chunked slab of InlineFn cells recycled through a
// free list. Chunks are pointer-stable, so each closure is constructed once
// — directly in its cell by the schedule templates — and invoked in place
// by step(), with no intermediate moves. In steady state schedule/step are
// allocation-free: the heap and slab grow to the high-water mark of pending
// events and stay there, and InlineFn stores captures of up to 48 bytes —
// every closure the transports and testbed schedule — without touching the
// allocator.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "sim/inline_fn.h"
#include "util/time.h"

namespace cadet::sim {

class Simulator {
 public:
  using Callback = InlineFn;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Metrics are batched (kDepthSampleInterval); push the residual delta so
  /// a registry snapshot taken after the simulator dies is exact even when
  /// the driver stepped manually and never reached a run/run_until
  /// boundary. The bound registry must outlive the simulator.
  ~Simulator() { flush_metrics(); }

  /// Current simulated time.
  util::SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run `delay` after the current time (delay >= 0;
  /// negative delays clamp to 0, i.e. "as soon as possible"). The template
  /// overloads construct the closure directly in its slab cell; the Callback
  /// overloads accept a pre-built InlineFn.
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback>,
                             int> = 0>
  void schedule(util::SimTime delay, F&& fn) {
    schedule_at(now_ + std::max<util::SimTime>(delay, 0),
                std::forward<F>(fn));
  }
  void schedule(util::SimTime delay, Callback fn);

  /// Schedule `fn` at an absolute time (clamped to now()).
  template <typename F,
            std::enable_if_t<!std::is_same_v<std::decay_t<F>, Callback>,
                             int> = 0>
  void schedule_at(util::SimTime when, F&& fn) {
    const std::uint32_t slot = acquire_slot();
    try {
      cell(slot).emplace(std::forward<F>(fn));
    } catch (...) {
      free_slots_.push_back(slot);
      throw;
    }
    push_entry(when, slot);
  }
  void schedule_at(util::SimTime when, Callback fn);

  /// Pre-size the event heap and callback slab for `events` simultaneously
  /// pending events (topology builders and benchmarks call this so the
  /// steady state never reallocates).
  void reserve(std::size_t events);

  /// Run until the event queue drains or simulated time would exceed
  /// `t_end`. Events exactly at t_end still run. Returns the number of
  /// events executed.
  std::size_t run_until(util::SimTime t_end);

  /// Run until the queue drains (use with care: recurring timers never
  /// drain; prefer run_until).
  std::size_t run();

  /// Execute at most one pending event; returns false if the queue is
  /// empty. Defined inline: run loops (and the benchmarks) sit directly on
  /// this, and inlining the pop bookkeeping into the caller is measurable.
  bool step() {
    if (heap_.empty()) return false;
    const HeapEntry top = heap_.front();
    heap_.front() = heap_.back();
    heap_.pop_back();
    if (!heap_.empty()) sift_down(0);

    now_ = top.time;
    if ((++events_executed_ & (kDepthSampleInterval - 1)) == 0) {
      flush_metrics();
    }
    // Invoke + destroy in place with one indirect call: slab chunks never
    // move, so the cell stays valid even if the callback schedules (and
    // thereby grows the slab). The slot is recycled only after consume()
    // returns — while the callback runs its cell must not be reusable, or
    // a reentrant schedule could construct a new closure over the
    // executing one.
    cell(top.slot).consume();
    free_slots_.push_back(top.slot);
    return true;
  }

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t pending() const noexcept { return heap_.size(); }

  /// Approximate heap footprint of the pending-event machinery: the heap
  /// keys, the callback slab, and the free list. The scale harness divides
  /// this by the client count for its bytes/client accounting.
  std::size_t memory_bytes() const noexcept {
    return heap_.capacity() * sizeof(HeapEntry) +
           slab_.size() * (kSlabChunkSize * sizeof(Callback) +
                           sizeof(std::unique_ptr<Callback[]>)) +
           free_slots_.capacity() * sizeof(std::uint32_t);
  }

  /// Total events executed over this simulator's lifetime.
  std::uint64_t events_executed() const noexcept { return events_executed_; }

  /// Publish event-loop health (cadet_sim_events counter,
  /// cadet_sim_queue_depth gauge) to `registry`, which must outlive the
  /// simulator. Both are refreshed every kDepthSampleInterval executed
  /// events and at run/run_until boundaries, not per event — the per-event
  /// atomic increment and gauge store were measurable on the hot path.
  /// Mid-run reads may lag by up to kDepthSampleInterval - 1 events; totals
  /// are exact whenever run/run_until returns.
  void bind_metrics(obs::Registry& registry);

  /// Push the events executed since the last flush to the bound counter and
  /// refresh the depth gauge. Called automatically at run/run_until
  /// boundaries and on destruction; drivers that sit directly on step()
  /// (benchmarks, manual loops) call it before reading the registry.
  void flush_metrics() noexcept {
    if (events_counter_ != nullptr) {
      events_counter_->inc(events_executed_ - events_published_);
      events_published_ = events_executed_;
      publish_depth();
    }
  }

  /// How often (in executed events) the metrics are refreshed. Power of two
  /// so the sample check compiles to a mask.
  static constexpr std::uint64_t kDepthSampleInterval = 256;
  static_assert((kDepthSampleInterval & (kDepthSampleInterval - 1)) == 0,
                "sample interval must be a power of two");

 private:
  /// Heap key: ordering fields plus the slab slot of the callback. Kept
  /// separate from the callbacks — and squeezed to 16 bytes — so sifts
  /// move small PODs and a 4-child group reads 64 bytes, not 96: the
  /// heap outgrows L1 at testbed rates and the sift is a chain of
  /// dependent loads, so bytes-per-level is what pops pay for.
  struct HeapEntry {
    util::SimTime time;
    std::uint32_t seq;
    std::uint32_t slot;
  };

  static bool before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    // Wrapping 32-bit compare: FIFO among equal-time events holds provided
    // no two of them were scheduled more than 2^31 schedules apart (far
    // beyond any testbed run), and wraparound behaves identically across
    // same-seed runs, so determinism is unaffected either way.
    return static_cast<std::int32_t>(a.seq - b.seq) < 0;
  }

  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;

  /// The slab is chunked (deque-style) so cells never move when it grows:
  /// step() relies on that to invoke callbacks in place, and a callback may
  /// grow the slab by scheduling. Chunks are 64 cells (4 KiB): a chunk is
  /// allocated and constructed whole, so the chunk size is the footprint
  /// floor of every simulator — and a sharded world holds thousands of
  /// small ones.
  static constexpr std::size_t kSlabChunkShift = 6;
  static constexpr std::size_t kSlabChunkSize = std::size_t{1}
                                                << kSlabChunkShift;

  Callback& cell(std::uint32_t slot) noexcept {
    return slab_[slot >> kSlabChunkShift][slot & (kSlabChunkSize - 1)];
  }

  /// Pop a recycled slab cell or extend the slab by one slot (appending a
  /// chunk when the current one fills).
  std::uint32_t acquire_slot() {
    if (!free_slots_.empty()) {
      const std::uint32_t slot = free_slots_.back();
      free_slots_.pop_back();
      return slot;
    }
    const std::uint32_t slot = next_slot_++;
    if ((slot >> kSlabChunkShift) == slab_.size()) {
      slab_.push_back(std::make_unique<Callback[]>(kSlabChunkSize));
    }
    return slot;
  }

  /// Push the heap key for an already-filled slab cell.
  void push_entry(util::SimTime when, std::uint32_t slot);

  void publish_depth() noexcept {
    if (depth_gauge_ != nullptr) {
      depth_gauge_->set(static_cast<std::int64_t>(heap_.size()));
    }
  }

  util::SimTime now_ = 0;
  std::uint32_t next_seq_ = 0;  // wraps; see before()
  std::uint64_t events_executed_ = 0;
  std::uint64_t events_published_ = 0;
  std::vector<HeapEntry> heap_;  // implicit 4-ary min-heap
  /// Callback cells indexed by slot via cell(); pointer-stable chunks.
  std::vector<std::unique_ptr<Callback[]>> slab_;
  std::uint32_t next_slot_ = 0;            // first never-used slot
  std::vector<std::uint32_t> free_slots_;  // recycled slab cells
  obs::Counter* events_counter_ = nullptr;
  obs::Gauge* depth_gauge_ = nullptr;
};

}  // namespace cadet::sim
