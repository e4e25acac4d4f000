// A streaming memory segment: a refcounted, fixed-size aligned buffer holding
// a batch of tiles read from disk (paper §VI-A). Two segments alternate
// between I/O and processing ("slide"); the cache pool pins slices of a
// processed segment's buffer instead of copying them, so a segment must not
// overwrite its buffer while pins are outstanding — begin_fill() swaps in a
// fresh allocation in that case and the old buffer is freed when the last
// pin drops (lifetime rules in docs/HOTPATH.md).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "util/aligned_buffer.h"
#include "util/dcheck.h"

namespace gstore::store {

// Placement of one tile inside a segment buffer.
struct TileSlot {
  std::uint64_t layout_idx = 0;
  std::uint64_t offset = 0;  // byte offset within the segment buffer
  std::uint64_t bytes = 0;
};

// Refcounted slice of tile bytes: an aliasing pointer that keeps the whole
// backing buffer alive for as long as any slice of it is held.
using BufferPin = std::shared_ptr<const std::uint8_t>;

class Segment {
 public:
  Segment() = default;
  explicit Segment(std::uint64_t capacity)
      : buf_(std::make_shared<gstore::AlignedBuffer>(capacity)),
        capacity_(capacity) {}

  std::uint64_t capacity() const noexcept { return capacity_; }
  std::uint64_t used() const noexcept { return used_; }
  bool empty() const noexcept { return slots_.empty(); }

  // Reserves room for a tile; returns the slot offset or false if full.
  bool try_add(std::uint64_t layout_idx, std::uint64_t bytes) {
    if (used_ + bytes > capacity_) return false;
    slots_.push_back(TileSlot{layout_idx, used_, bytes});
    used_ += bytes;
    return true;
  }

  void clear() noexcept {
    slots_.clear();
    used_ = 0;
  }

  // Readies the segment for a new fill: drops the slot table and, if the
  // cache pool still pins slices of the current buffer, swaps in a fresh
  // allocation instead of overwriting pinned bytes. The zero-copy
  // counterpart of the old memcpy-into-pool design.
  void begin_fill() {
    clear();
    if (buf_ != nullptr && buf_.use_count() > 1) {
      buf_ = std::make_shared<gstore::AlignedBuffer>(capacity_);
      ++buffer_refreshes_;
    }
  }

  // Buffers replaced because pins were outstanding (observability/tests).
  std::uint64_t buffer_refreshes() const noexcept { return buffer_refreshes_; }

  // Grows the buffer if a single tile exceeds the nominal capacity (the
  // paper's tiles are capped at 16GB; ours must still stream the largest
  // tile even when segment_bytes is configured small). Pinned slices of the
  // old buffer stay valid — the allocation lives until the last pin drops.
  void ensure_capacity(std::uint64_t bytes) {
    if (bytes <= capacity_) return;
    GSTORE_DCHECK_MSG(slots_.empty(),
                      "segment must be empty before its buffer is replaced");
    buf_ = std::make_shared<gstore::AlignedBuffer>(bytes);
    capacity_ = bytes;
  }

  std::uint8_t* data() noexcept { return buf_ ? buf_->data() : nullptr; }
  const std::uint8_t* data() const noexcept {
    return buf_ ? buf_->data() : nullptr;
  }
  std::uint8_t* slot_data(const TileSlot& s) noexcept {
    GSTORE_DCHECK_LE(s.offset + s.bytes, capacity_);
    return buf_->data() + s.offset;
  }
  const std::uint8_t* slot_data(const TileSlot& s) const noexcept {
    GSTORE_DCHECK_LE(s.offset + s.bytes, capacity_);
    return buf_->data() + s.offset;
  }

  // Refcounted view of one slot's bytes, for zero-copy cache insertion.
  // Pins the entire backing buffer until released.
  BufferPin pin_slot(const TileSlot& s) const {
    GSTORE_DCHECK_LE(s.offset + s.bytes, capacity_);
    return BufferPin(buf_, buf_->data() + s.offset);
  }

  const std::vector<TileSlot>& slots() const noexcept { return slots_; }

 private:
  std::shared_ptr<gstore::AlignedBuffer> buf_;
  std::uint64_t capacity_ = 0;
  std::uint64_t used_ = 0;
  std::uint64_t buffer_refreshes_ = 0;
  std::vector<TileSlot> slots_;
};

}  // namespace gstore::store
