// Power-of-two ring buffer for time-ordered metric samples. Replaces
// std::deque in the TSDB hot path: contiguous storage (one cache-friendly
// slab instead of deque's chunk map), O(1) amortized push_back, O(1)
// pop_front, and O(1) random access — which is what lets the window queries
// binary-search instead of scanning. An empty ring allocates nothing, which
// also makes it the replica wait queue (mesh/replica.h): thousands of idle
// replicas cost no queue memory at all, where an empty std::deque holds a
// map and a node.
#pragma once

#include "l3/common/assert.h"

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace l3::metrics {

/// FIFO ring with random access. Samples enter at the back (append) and
/// leave at the front (retention trimming). Storage is allocated on the
/// first push_back (8 slots) and doubles whenever the ring is full.
/// Indices are relative to the current front, so a pop_front shifts them.
template <typename T>
class SampleRing {
 public:
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// i-th oldest element, 0 <= i < size().
  const T& operator[](std::size_t i) const {
    L3_EXPECTS(i < size_);
    return slots_[(head_ + i) & mask_];
  }

  const T& front() const { return (*this)[0]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }

  void pop_front() {
    L3_EXPECTS(size_ > 0);
    // Reset the slot so whatever the element owns (a replica job's captured
    // state) is released now, not when the slot is next overwritten.
    slots_[head_] = T{};
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Removes the front element and returns it, moved out.
  T take_front() {
    L3_EXPECTS(size_ > 0);
    T value = std::move(slots_[head_]);
    pop_front();
    return value;
  }

  /// Empties the ring and frees its storage.
  void clear() noexcept {
    slots_ = std::vector<T>{};
    head_ = 0;
    size_ = 0;
    mask_ = 0;
  }

  /// Capacity currently reserved (always zero or a power of two).
  std::size_t capacity() const noexcept { return slots_.size(); }

 private:
  void grow() {
    const std::size_t cap = slots_.empty() ? kInitialCapacity
                                           : slots_.size() * 2;
    std::vector<T> next(cap);
    for (std::size_t i = 0; i < size_; ++i) {
      next[i] = std::move(slots_[(head_ + i) & mask_]);
    }
    slots_ = std::move(next);
    head_ = 0;
    mask_ = cap - 1;
  }

  static constexpr std::size_t kInitialCapacity = 8;

  std::vector<T> slots_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::size_t mask_ = 0;
};

/// FIFO ring of fixed-width double rows, stored in ONE contiguous slab
/// (row i occupies width() consecutive doubles). This is the columnar
/// histogram-sample store: where a SampleRing<vector<double>> pays one heap
/// allocation + pointer chase per sample, a RowRing append is a memcpy into
/// the slab and a window query walks contiguous memory.
///
/// The row width is fixed by the first push and every later row must match —
/// the same invariant Prometheus histograms have (immutable bucket layout
/// per series).
class RowRing {
 public:
  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::size_t width() const noexcept { return width_; }

  /// i-th oldest row, 0 <= i < size().
  std::span<const double> operator[](std::size_t i) const {
    L3_EXPECTS(i < size_);
    return {slots_.data() + ((head_ + i) & mask_) * width_, width_};
  }

  std::span<const double> front() const { return (*this)[0]; }
  std::span<const double> back() const { return (*this)[size_ - 1]; }

  void push_back(std::span<const double> row) {
    L3_EXPECTS(!row.empty());
    if (width_ == 0) width_ = row.size();
    L3_EXPECTS(row.size() == width_);
    if (size_ * width_ == slots_.size()) grow();
    double* dst = slots_.data() + ((head_ + size_) & mask_) * width_;
    for (std::size_t i = 0; i < width_; ++i) dst[i] = row[i];
    ++size_;
  }

  void pop_front() {
    L3_EXPECTS(size_ > 0);
    head_ = (head_ + 1) & mask_;
    --size_;
  }

  /// Row capacity currently reserved (zero or a power of two).
  std::size_t capacity() const noexcept {
    return width_ == 0 ? 0 : slots_.size() / width_;
  }

 private:
  void grow() {
    const std::size_t rows =
        slots_.empty() ? kInitialRows : slots_.size() / width_ * 2;
    std::vector<double> next(rows * width_);
    for (std::size_t i = 0; i < size_; ++i) {
      const double* src = slots_.data() + ((head_ + i) & mask_) * width_;
      double* dst = next.data() + i * width_;
      for (std::size_t j = 0; j < width_; ++j) dst[j] = src[j];
    }
    slots_ = std::move(next);
    head_ = 0;
    mask_ = rows - 1;
  }

  static constexpr std::size_t kInitialRows = 8;

  std::vector<double> slots_;
  std::size_t width_ = 0;
  std::size_t head_ = 0;  ///< front row index (in rows, not doubles)
  std::size_t size_ = 0;  ///< rows stored
  std::size_t mask_ = 0;  ///< row-capacity - 1
};

}  // namespace l3::metrics
