// SmallFn: a move-only callable with inline storage for small captures —
// the building block of the allocation-free hot paths. The event core's
// EventFn and the mesh's per-request callbacks (ResponseFn, OutcomeFn,
// ReplicaJob) are all instantiations of this template with capacities sized
// so that each layer's completion closure nests inline in the next one
// (a ResponseFn holding an OutcomeFn-sized capture still fits an EventFn).
//
// Why not std::function: std::function must be copyable, so a callback that
// captures another callback either heap-allocates or forces shared_ptr
// ownership of the chain. SmallFn is move-only — closures own their
// captures, move through schedule_after()/submit() without refcounting, and
// stay inline up to the configured capacity.
//
// Storage is 8-byte aligned (not max_align_t): the hot-path closures
// capture pointers, handles and doubles, and the tighter alignment keeps
// sizeof(SmallFn<Sig, C>) == C + 8 so nested capacities can be budgeted
// exactly. Callables needing stricter alignment fall back to the heap.
#pragma once

#include "l3/common/assert.h"

#include <cstddef>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace l3::common {

template <typename Signature, std::size_t Capacity>
class SmallFn;  // primary template: only R(Args...) is specialized

template <typename R, typename... Args, std::size_t Capacity>
class SmallFn<R(Args...), Capacity> {
  /// Whether `F` is a callable the converting constructor and emplace()
  /// take: anything invocable as R(Args...) other than a SmallFn of this
  /// type (moved, not wrapped) or nullptr (the empty state).
  template <typename F>
  static constexpr bool kAccepts =
      !std::is_same_v<std::decay_t<F>, SmallFn> &&
      !std::is_same_v<std::decay_t<F>, std::nullptr_t> &&
      std::is_invocable_r_v<R, std::decay_t<F>&, Args...>;

 public:
  /// Captures up to this many bytes (with alignment <= 8) live inline.
  static constexpr std::size_t kInlineCapacity = Capacity;

  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F, typename = std::enable_if_t<kAccepts<F>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor): drop-in for
                    // std::function at call sites.
    construct(std::forward<F>(f));
  }

  /// Destroys the held callable (if any), then constructs `f` directly in
  /// this SmallFn's storage — inline or on the heap by the same rule as the
  /// converting constructor — with no intermediate SmallFn to relocate.
  /// If the construction throws, this SmallFn is left empty.
  template <typename F, typename = std::enable_if_t<kAccepts<F>>>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

  SmallFn(SmallFn&& other) noexcept : ops_(other.ops_) {
    relocate_from(other);
  }

  SmallFn& operator=(SmallFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      relocate_from(other);
    }
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  /// Destroys the held callable (if any), leaving the SmallFn empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (!ops_->trivial) ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  R operator()(Args... args) {
    L3_EXPECTS(ops_ != nullptr);
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  friend bool operator==(const SmallFn& fn, std::nullptr_t) noexcept {
    return fn.ops_ == nullptr;
  }
  friend bool operator!=(const SmallFn& fn, std::nullptr_t) noexcept {
    return fn.ops_ != nullptr;
  }

  /// Whether the held callable lives in the inline buffer (introspection
  /// for tests and benches; empty SmallFns report false).
  bool stored_inline() const noexcept {
    return ops_ != nullptr && ops_->inline_storage;
  }

  /// Whether a callable of type F would be stored inline.
  template <typename F>
  static constexpr bool fits_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= kInlineCapacity && alignof(D) <= kStorageAlign &&
           std::is_nothrow_move_constructible_v<D>;
  }

 private:
  static constexpr std::size_t kStorageAlign = 8;
  static_assert(Capacity >= sizeof(void*) && Capacity % kStorageAlign == 0,
                "capacity must hold the heap pointer and keep alignment");

  union Storage {
    alignas(kStorageAlign) unsigned char buf[Capacity];
    void* ptr;
  };

  struct Ops {
    R (*invoke)(Storage&, Args&&...);
    /// Move-constructs `dst` from `src` and destroys the source object
    /// (for heap storage: steals the pointer).
    void (*relocate)(Storage& dst, Storage& src) noexcept;
    void (*destroy)(Storage&) noexcept;
    bool inline_storage;
    /// Trivially copyable + trivially destructible inline callables take a
    /// fast path: relocation is a raw Storage copy (no indirect call) and
    /// destruction is a no-op — the common case for hot-path closures that
    /// capture pointers, handles and scalars.
    bool trivial;
  };

  /// Constructs `f` into storage_, which holds no live object. A null
  /// function or member pointer is rejected here rather than crashing when
  /// invoked. (A function reference, which decays to a pointer too, can
  /// never be null.)
  template <typename F>
  void construct(F&& f) {
    using D = std::decay_t<F>;
    using P = std::remove_cvref_t<F>;
    static_assert(sizeof(D) > 0, "callable must be complete");
    if constexpr (std::is_pointer_v<P> || std::is_member_pointer_v<P>) {
      L3_EXPECTS(f != nullptr);
    }
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(storage_.buf)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      storage_.ptr = new D(std::forward<F>(f));
      ops_ = &kHeapOps<D>;
    }
  }

  /// Shared tail of move construction/assignment; assumes ops_ was copied
  /// from `other` and own storage holds no live object.
  void relocate_from(SmallFn& other) noexcept {
    if (ops_ != nullptr) {
      if (ops_->trivial) {
        storage_ = other.storage_;
      } else {
        ops_->relocate(storage_, other.storage_);
      }
      other.ops_ = nullptr;
    }
  }

  /// std::invoke, so member pointers are callables too; a void R discards
  /// whatever the callable returns.
  template <typename D>
  static R call(D& d, Args&&... args) {
    if constexpr (std::is_void_v<R>) {
      std::invoke(d, std::forward<Args>(args)...);
    } else {
      return std::invoke(d, std::forward<Args>(args)...);
    }
  }

  template <typename D>
  static D* inline_object(Storage& s) noexcept {
    return std::launder(reinterpret_cast<D*>(s.buf));
  }

  template <typename D>
  static constexpr Ops make_inline_ops() {
    return Ops{
        [](Storage& s, Args&&... args) -> R {
          return call(*inline_object<D>(s), std::forward<Args>(args)...);
        },
        [](Storage& dst, Storage& src) noexcept {
          D* obj = inline_object<D>(src);
          ::new (static_cast<void*>(dst.buf)) D(std::move(*obj));
          obj->~D();
        },
        [](Storage& s) noexcept { inline_object<D>(s)->~D(); },
        true,
        std::is_trivially_copyable_v<D> &&
            std::is_trivially_destructible_v<D>,
    };
  }

  template <typename D>
  static constexpr Ops make_heap_ops() {
    return Ops{
        [](Storage& s, Args&&... args) -> R {
          return call(*static_cast<D*>(s.ptr), std::forward<Args>(args)...);
        },
        [](Storage& dst, Storage& src) noexcept { dst.ptr = src.ptr; },
        [](Storage& s) noexcept { delete static_cast<D*>(s.ptr); },
        false,
        false,
    };
  }

  template <typename D>
  static constexpr Ops kInlineOps = make_inline_ops<D>();
  template <typename D>
  static constexpr Ops kHeapOps = make_heap_ops<D>();

  const Ops* ops_ = nullptr;
  // Zero-initialized so the trivial relocation path (a whole-union copy)
  // never reads indeterminate tail bytes when the held callable is smaller
  // than the capacity. A handful of stores per construction, elided by the
  // optimizer when the buffer is immediately overwritten.
  Storage storage_{};
};

}  // namespace l3::common
