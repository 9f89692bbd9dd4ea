#ifndef BLOCKOPTR_COMMON_INLINE_CALLBACK_H_
#define BLOCKOPTR_COMMON_INLINE_CALLBACK_H_

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace blockoptr {

/// A move-only `void()` callable with fixed inline storage and *no heap
/// fallback*: every stored closure must fit the inline buffer, enforced at
/// compile time. This is what makes the event hot path allocation-free —
/// a `std::function` heap-allocates any closure above its ~16-byte SSO
/// threshold, and almost every closure in the pipeline (captured
/// transactions, read-write sets, shared block payloads) is above it.
///
/// The capacity is the smallest multiple of 64 that holds the largest
/// scheduler closure in the codebase: the client-assembly continuation in
/// fabric/network.cc, which captures a whole `Transaction` (288 bytes)
/// by value. If a closure outgrows the buffer the static_assert in the
/// constructor names this constant — either shrink the closure (park
/// bulky state in a pool and capture an index) or, if the capture is
/// genuinely irreducible, grow the constant.
inline constexpr std::size_t kInlineCallbackCapacity = 320;

class InlineCallback {
 public:
  static constexpr std::size_t kCapacity = kInlineCallbackCapacity;

  InlineCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  InlineCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    Emplace(std::forward<F>(f));
  }

  /// Destroys the current target (if any) and constructs `f` directly in
  /// the inline buffer — the single-copy path the scheduler uses to park a
  /// closure in its slot without an intermediate InlineCallback hop.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  void Emplace(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kCapacity,
                  "closure exceeds kInlineCallbackCapacity; shrink the "
                  "capture (pool bulky state and capture an index) or grow "
                  "the capacity constant");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "stored callables must be nothrow-move-constructible "
                  "(InlineCallback relocates them when moved)");
    Reset();
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = &Invoke<Fn>;
    relocate_or_destroy_ = &RelocateOrDestroy<Fn>;
  }

  InlineCallback(InlineCallback&& other) noexcept
      : invoke_(other.invoke_),
        relocate_or_destroy_(other.relocate_or_destroy_) {
    if (relocate_or_destroy_ != nullptr) {
      relocate_or_destroy_(storage_, other.storage_);
      other.invoke_ = nullptr;
      other.relocate_or_destroy_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
    if (this != &other) {
      Reset();
      invoke_ = other.invoke_;
      relocate_or_destroy_ = other.relocate_or_destroy_;
      if (relocate_or_destroy_ != nullptr) {
        relocate_or_destroy_(storage_, other.storage_);
        other.invoke_ = nullptr;
        other.relocate_or_destroy_ = nullptr;
      }
    }
    return *this;
  }

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { Reset(); }

  /// Invokes the stored callable. Undefined when empty (like calling a
  /// moved-from function object); the simulator never stores empty events.
  void operator()() { invoke_(storage_); }

  explicit operator bool() const { return invoke_ != nullptr; }

  /// Destroys the target and returns to the empty state.
  void Reset() {
    if (relocate_or_destroy_ != nullptr) {
      relocate_or_destroy_(nullptr, storage_);
      invoke_ = nullptr;
      relocate_or_destroy_ = nullptr;
    }
  }

 private:
  template <typename Fn>
  static void Invoke(void* storage) {
    (*static_cast<Fn*>(storage))();
  }

  /// dst == nullptr destroys src in place; otherwise move-constructs dst
  /// from src and destroys src (a "relocate"). One pointer covers both so
  /// each event carries two words of dispatch state, not three.
  template <typename Fn>
  static void RelocateOrDestroy(void* dst, void* src) {
    Fn* from = static_cast<Fn*>(src);
    if (dst != nullptr) ::new (dst) Fn(std::move(*from));
    from->~Fn();
  }

  // Dispatch pointers first: a small closure (the common case — thin
  // {this, index} events) then shares a cache line with them, so
  // scheduling and firing it touches one line, not two.
  void (*invoke_)(void*) = nullptr;
  void (*relocate_or_destroy_)(void*, void*) = nullptr;
  alignas(std::max_align_t) unsigned char storage_[kCapacity];
};

}  // namespace blockoptr

#endif  // BLOCKOPTR_COMMON_INLINE_CALLBACK_H_
