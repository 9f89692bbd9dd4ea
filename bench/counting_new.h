// Counting replacements of the global operator new and delete, for
// binaries that measure heap allocations (bench_work_counters,
// tests/sim_alloc_test.cc). The replacements are defined here, not just
// declared: include this header in exactly one translation unit of a
// binary, and link no other allocation hook into that binary.
#ifndef BLOCKOPTR_BENCH_COUNTING_NEW_H_
#define BLOCKOPTR_BENCH_COUNTING_NEW_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>

namespace blockoptr::counting_new {

/// Calls of any operator new, and the bytes they requested, so far.
inline std::atomic<std::uint64_t> allocations{0};
inline std::atomic<std::uint64_t> bytes{0};

inline void* Allocate(std::size_t size, std::size_t align) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  bytes.fetch_add(size, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace blockoptr::counting_new

void* operator new(std::size_t size) {
  return blockoptr::counting_new::Allocate(size, 0);
}
void* operator new[](std::size_t size) {
  return blockoptr::counting_new::Allocate(size, 0);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return blockoptr::counting_new::Allocate(size,
                                           static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return blockoptr::counting_new::Allocate(size,
                                           static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

#endif  // BLOCKOPTR_BENCH_COUNTING_NEW_H_
