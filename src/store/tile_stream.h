// The SLIDE step of slide–cache–rewind (paper §VI-A), shared by every
// driver of the tile pipeline: ScrEngine's grid and priority modes and the
// serve gang scheduler (serve/scheduler.h).
//
// slide() streams a fetch list of layout indices from disk through two
// double-buffered segments. While one segment's reads are in flight in the
// async engine, the other segment is handed to the caller's on_segment
// callback, which processes its tiles and runs the CACHE step (pinning
// segment slices into a cache pool). Layout-consecutive tiles are
// coalesced into one read, and a segment's reads go out as one batched
// submit.
//
// Failure semantics live here and nowhere else:
//   * a failed or truncated read is resubmitted whole up to the retry
//     budget, above the async engine's own per-read retries
//     (io::RetryPolicy); tiles are never processed from partial data;
//   * past the budget, slide() throws one IoError naming every failed read;
//   * any exception leaving slide(), whether an I/O failure or one thrown
//     by on_segment, first quiesces the device: the I/O workers write into
//     buffers this stream owns, so unwinding under them would be a
//     use-after-free;
//   * the same unwind drops both segments' slot tables, so a failed slide
//     leaves no resident tiles: bytes of a partial or failed fill are never
//     rewound.
//
// Residency (the "last two segments" of REWIND, paper §VI-D): a fill that
// finds the fetch list exhausted keeps its segment's slot table, so after
// slide() returns both segments still hold the last tiles they loaded, all
// of them processed by on_segment. for_each_resident() exposes them. Their
// bytes stay valid until that segment's next fill, which is the first fill
// of the next slide() at the earliest; callers that rewind resident tiles
// must therefore process them before calling slide() again. Pinned slices
// outlive even that fill (Segment::begin_fill).
// With overlap_io off, reads run synchronously on the calling thread (the
// sync-I/O side of bench_ablation_aio).
//
// Not thread-safe: one orchestrating thread calls slide(); on_segment may
// fan out to OpenMP inside (store/chunking.h, parallel_for_costs).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/async_engine.h"
#include "store/segment.h"
#include "tile/tile_file.h"
#include "util/dcheck.h"

namespace gstore::store {

// Cumulative counters over every slide() of one stream.
struct StreamStats {
  std::uint64_t tiles_fetched = 0;
  std::uint64_t bytes_fetched = 0;   // base-tile payload bytes read
  std::uint64_t io_batches = 0;      // submit() calls
  std::uint64_t tile_resubmits = 0;  // whole-tile retries above the async layer
  double io_wait_seconds = 0;
};

class TileStream {
 public:
  static constexpr int kDefaultRetryBudget = 2;

  // Segments hold max(segment_bytes, the store's largest tile), so every
  // tile fits one segment whole.
  TileStream(tile::TileStore& store, std::uint64_t segment_bytes,
             bool overlap_io = true,
             int read_retry_budget = kDefaultRetryBudget);

  // Streams `fetch` (ascending layout indices of non-empty base tiles) from
  // disk, calling on_segment(const Segment& seg, std::size_t first) once per
  // loaded segment in fetch order; seg.slots()[k] holds fetch[first + k].
  // Reads carry `priority` (io::ReadRequest::priority). The segment's bytes
  // may be pinned (Segment::pin_slot) past the callback; a later fill
  // allocates a fresh buffer instead of overwriting pinned bytes.
  template <typename OnSegment>
  void slide(const std::vector<std::uint64_t>& fetch, std::uint32_t priority,
             OnSegment&& on_segment) {
    GSTORE_DCHECK(std::is_sorted(fetch.begin(), fetch.end()));
    std::size_t pos = 0;
    std::size_t first[2] = {0, 0};
    int cur = 0;
    try {
      fill_and_submit(cur, fetch, pos, priority);
      while (loaded_[cur]) {
        const int nxt = cur ^ 1;
        // Double-buffer state machine: the segment about to prefetch must
        // be quiescent (its previous I/O reaped, its tiles processed).
        GSTORE_DCHECK_EQ(pending_[nxt], 0);
        first[nxt] = pos;
        fill_and_submit(nxt, fetch, pos, priority);  // prefetch
        wait_segment(cur);
        on_segment(static_cast<const Segment&>(segments_[cur]), first[cur]);
        cur = nxt;
      }
    } catch (...) {
      quiesce_all();
      throw;
    }
    // SLIDE consumed the whole fetch list and reaped every read.
    GSTORE_DCHECK_EQ(pos, fetch.size());
    GSTORE_DCHECK_EQ(pending_[0], 0);
    GSTORE_DCHECK_EQ(pending_[1], 0);
  }

  // Calls fn(const Segment& seg, const TileSlot& slot), in layout order, for
  // every tile the two segments still hold from earlier slides
  // (seg.slot_data(slot) is its payload). A caller that leaves resident
  // tiles out of its fetch lists (REWIND serves them instead) sees each tile
  // at most once. Valid only between slides.
  template <typename Fn>
  void for_each_resident(Fn&& fn) const {
    GSTORE_DCHECK_EQ(pending_[0] + pending_[1], 0u);
    // Each slot table is ascending (fetch lists are), so merge the two.
    const std::vector<TileSlot>& a = segments_[0].slots();
    const std::vector<TileSlot>& b = segments_[1].slots();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
      if (j == b.size() || (i < a.size() && a[i].layout_idx < b[j].layout_idx))
        fn(segments_[0], a[i++]);
      else
        fn(segments_[1], b[j++]);
    }
  }

  const StreamStats& stats() const noexcept { return stats_; }

  // Segment buffers replaced because the pool still pinned slices of them.
  std::uint64_t segment_refreshes() const noexcept {
    return segments_[0].buffer_refreshes() + segments_[1].buffer_refreshes();
  }

 private:
  // Every submitted request, kept until its completion is accepted, so a
  // failed or truncated read can be resubmitted whole.
  struct InFlightRead {
    io::ReadRequest req;
    int attempts = 0;
  };

  void fill_and_submit(int s, const std::vector<std::uint64_t>& fetch,
                       std::size_t& pos, std::uint32_t priority);
  void wait_segment(int s);
  void handle_completion(const io::Completion& c);
  [[noreturn]] void fail();
  void quiesce_all() noexcept;

  tile::TileStore& store_;
  const bool overlap_io_;
  const int read_retry_budget_;
  Segment segments_[2];
  // Whether the current slide loaded the segment; a segment that was not
  // reloaded keeps its resident slot table but has nothing to process.
  bool loaded_[2] = {false, false};
  std::size_t pending_[2] = {0, 0};
  std::uint64_t next_serial_ = 0;
  std::unordered_map<std::uint64_t, InFlightRead> inflight_;
  std::vector<std::string> read_failures_;
  std::vector<io::Completion> completions_scratch_;
  StreamStats stats_;
};

}  // namespace gstore::store
