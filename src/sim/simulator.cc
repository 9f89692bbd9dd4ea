#include "sim/simulator.h"

#include <bit>
#include <cassert>
#include <cstdlib>
#include <utility>

namespace blockoptr {

uint32_t Simulator::AcquireVacantSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  uint32_t slot = static_cast<uint32_t>(slots_.emplace_back());
  if (slot > kSlotMask) std::abort();  // > ~16.7M pending events
  return slot;
}

void Simulator::Push(SimTime at, uint64_t seq, uint32_t slot) {
  if (at < now_) at = now_;
  // +0.0 canonicalizes a negative zero, keeping the bit-pattern order of
  // non-negative doubles identical to their numeric order.
  uint64_t time_bits = std::bit_cast<uint64_t>(at + 0.0);
  queue_.Push(EventRef{time_bits, (seq << kSlotBits) | slot});
  if (queue_.size() > queue_peak_) queue_peak_ = queue_.size();
}

void Simulator::ScheduleAt(SimTime at, Callback cb) {
  uint32_t slot = AcquireVacantSlot();
  slots_[slot].cb = std::move(cb);
  Commit(at, slot);
}

void Simulator::ScheduleAfter(SimTime delay, Callback cb) {
  assert(delay >= 0);
  ScheduleAt(now_ + delay, std::move(cb));
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  EventRef ref = queue_.PopMin();
  now_ = std::bit_cast<double>(ref.time);
  ++processed_;
  // Invoke in place — no move-out, however large the closure. The slot
  // reference stays valid even if the callback schedules (chunk-pool
  // growth never relocates slots), and the slot is recycled only
  // afterwards, so nothing can overwrite the callback while it runs.
  uint32_t index = static_cast<uint32_t>(ref.seq) & kSlotMask;
  Slot& slot = slots_[index];
  slot.cb();
  slot.cb.Reset();
  slot.next_free = free_head_;
  free_head_ = index;
  return true;
}

void Simulator::Run() {
  while (Step()) {
  }
}

bool Simulator::StepIfBefore(SimTime until) {
  if (queue_.empty() ||
      std::bit_cast<double>(queue_.Min().time) > until) {
    return false;
  }
  return Step();
}

SimTime Simulator::NextEventTime() const {
  return std::bit_cast<double>(queue_.Min().time);
}

void Simulator::RunUntil(SimTime until) {
  while (!queue_.empty() &&
         std::bit_cast<double>(queue_.Min().time) <= until) {
    Step();
  }
  if (now_ < until) now_ = until;
}

}  // namespace blockoptr
