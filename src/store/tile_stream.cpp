#include "store/tile_stream.h"

#include <algorithm>
#include <utility>

#include "util/status.h"
#include "util/timer.h"

namespace gstore::store {

namespace {
// Tags encode which segment a read belongs to so completions can be
// attributed while both segments have I/O in flight.
constexpr std::uint64_t make_tag(int segment, std::uint64_t serial) {
  GSTORE_DCHECK(segment == 0 || segment == 1);
  GSTORE_DCHECK_LT(serial, 1ull << 56);
  return (static_cast<std::uint64_t>(segment) << 56) | serial;
}
constexpr int tag_segment(std::uint64_t tag) {
  return static_cast<int>(tag >> 56);
}
}  // namespace

TileStream::TileStream(tile::TileStore& store, std::uint64_t segment_bytes,
                       bool overlap_io, int read_retry_budget)
    : store_(store),
      overlap_io_(overlap_io),
      read_retry_budget_(read_retry_budget) {
  const std::uint64_t cap =
      std::max<std::uint64_t>(segment_bytes, store.max_tile_bytes());
  segments_[0] = Segment(cap);
  segments_[1] = Segment(cap);
}

// Greedily packs tiles from fetch[pos..] into segment s and submits their
// reads as one batched call, coalescing layout-consecutive tiles into
// single requests. Leaves pending_[s] at the number of requests in flight.
// With the fetch list exhausted the segment is not reloaded and keeps its
// slot table: those tiles stay resident for the next REWIND.
void TileStream::fill_and_submit(int s, const std::vector<std::uint64_t>& fetch,
                                 std::size_t& pos, std::uint32_t priority) {
  Segment& seg = segments_[s];
  pending_[s] = 0;
  loaded_[s] = pos < fetch.size();
  if (!loaded_[s]) return;
  // begin_fill, not clear: if the pool still pins slices of this buffer a
  // fresh one is allocated, so the cached bytes stay immutable (zero-copy
  // contract; the old buffer is freed when its last pin drops).
  seg.begin_fill();

  // An oversized first tile grows the segment (tiles are never split:
  // "we do not fetch, process or cache partial data from any tile").
  seg.ensure_capacity(store_.tile_bytes(fetch[pos]));
  while (pos < fetch.size() &&
         seg.try_add(fetch[pos], store_.tile_bytes(fetch[pos])))
    ++pos;

  // Coalesce runs of layout-consecutive tiles: their bytes are contiguous
  // in the file and in the segment buffer by construction.
  std::vector<io::ReadRequest> batch;
  const auto& slots = seg.slots();
  std::size_t run_begin = 0;
  auto flush_run = [&](std::size_t run_end) {
    const TileSlot& first = slots[run_begin];
    const TileSlot& last = slots[run_end - 1];
    io::ReadRequest req;
    req.offset = store_.tile_offset(first.layout_idx);
    req.length =
        static_cast<std::size_t>(last.offset + last.bytes - first.offset);
    req.buffer = seg.slot_data(first);
    req.tag = make_tag(s, next_serial_++);
    req.priority = priority;
    batch.push_back(req);
    run_begin = run_end;
  };
  for (std::size_t k = 1; k < slots.size(); ++k) {
    // Segment packing invariant: slot bytes are laid out back-to-back, so
    // a layout-consecutive run is contiguous in buffer and file alike.
    GSTORE_DCHECK_EQ(slots[k].offset, slots[k - 1].offset + slots[k - 1].bytes);
    if (slots[k].layout_idx != slots[k - 1].layout_idx + 1) flush_run(k);
  }
  if (!slots.empty()) flush_run(slots.size());

  stats_.tiles_fetched += slots.size();
  for (const auto& slot : slots) stats_.bytes_fetched += slot.bytes;
  if (batch.empty()) return;
  ++stats_.io_batches;
  if (overlap_io_) {
    pending_[s] = batch.size();
    for (const auto& req : batch)
      inflight_.emplace(req.tag, InFlightRead{req, 0});
    store_.device().submit(std::move(batch));
    return;
  }
  // Synchronous mode: read inline.
  Timer t;
  for (const auto& req : batch)
    store_.device().read(req.buffer, req.length, req.offset);
  stats_.io_wait_seconds += t.seconds();
}

// Waits until every in-flight request of segment s has completed, then
// fails the slide if any read exhausted its retry budget.
void TileStream::wait_segment(int s) {
  Timer t;
  while (pending_[s] > 0) {
    completions_scratch_.clear();
    store_.device().poll(1, 64, completions_scratch_);
    for (const io::Completion& c : completions_scratch_) handle_completion(c);
  }
  stats_.io_wait_seconds += t.seconds();
  if (!read_failures_.empty()) fail();
}

// A failed completion, or a short one (the async engine already pursued the
// tail to EOF, so the tile file is truncated), is resubmitted whole until
// the budget is spent, then recorded as a failure.
void TileStream::handle_completion(const io::Completion& c) {
  const int seg = tag_segment(c.tag);
  GSTORE_DCHECK(seg == 0 || seg == 1);
  GSTORE_DCHECK_GT(pending_[seg], 0);
  --pending_[seg];
  const auto it = inflight_.find(c.tag);
  GSTORE_DCHECK(it != inflight_.end());
  if (it == inflight_.end()) return;
  InFlightRead& r = it->second;
  if (c.ok && c.bytes == r.req.length) {
    inflight_.erase(it);
    return;
  }
  if (r.attempts < read_retry_budget_) {
    ++r.attempts;
    ++stats_.tile_resubmits;
    std::vector<io::ReadRequest> one{r.req};
    store_.device().submit(std::move(one));
    ++pending_[seg];
    return;
  }
  const std::string why =
      !c.ok ? (c.message.empty() ? "read failed" : c.message)
            : ("truncated read: " + std::to_string(c.bytes) + "/" +
               std::to_string(r.req.length) + " bytes");
  read_failures_.push_back("tile read at offset " +
                           std::to_string(r.req.offset) + " (tag " +
                           std::to_string(c.tag) + "): " + why);
  inflight_.erase(it);
}

// Aborts the slide with one IoError naming every read that exhausted its
// budget, after draining both segments' in-flight reads.
void TileStream::fail() {
  quiesce_all();
  std::string msg = "tile stream aborted: " +
                    std::to_string(read_failures_.size()) +
                    " tile read(s) failed past the retry budget";
  for (const auto& f : read_failures_) msg += "; " + f;
  read_failures_.clear();
  throw IoError(msg, EIO);
}

// Unwind-path barrier: waits out every in-flight read for both segments
// without throwing, then resets the double-buffer bookkeeping. Both slot
// tables go too: a segment mid-fill holds partial bytes, and nothing that
// was loaded by a failed slide may be rewound.
void TileStream::quiesce_all() noexcept {
  store_.device().quiesce();
  pending_[0] = pending_[1] = 0;
  loaded_[0] = loaded_[1] = false;
  segments_[0].clear();
  segments_[1].clear();
  inflight_.clear();
}

}  // namespace gstore::store
