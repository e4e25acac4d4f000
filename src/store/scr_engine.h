// The SCR (slide–cache–rewind) engine (paper §VI, Figure 8).
//
// Each iteration (grid mode) or worklist round (priority mode) first
// selects the tiles it must process, then runs one shared pass over them:
//   REWIND — process the selected tiles already in memory before any I/O
//            is issued: those in the cache pool (saved by an earlier
//            pass), then those the stream's two segments still hold from
//            the previous pass (the pool wins for a tile in both). This
//            runs before the slide's first fill, which may overwrite a
//            segment. Both count as tiles_from_cache; with rewind off
//            neither is used.
//   SLIDE  — stream the remaining selected tiles from disk in layout order
//            through the double-buffered TileStream (store/tile_stream.h,
//            which owns the segments, batched reads, retries and the
//            quiesce-before-throw unwind), processing one segment while the
//            other loads.
//   CACHE  — each processed segment offers its tiles to the cache pool in
//            one call to the configured policy (store/caching_policy.h);
//            proactive analysis at the end of the pass evicts tiles the
//            algorithm's metadata rules out next.
// Grid mode selects by a layout scan through tile_needed. Priority mode
// (docs/SCHEDULING.md) selects by draining the minimum bucket of a tile
// worklist and re-files tiles whose priority the round's updates changed.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "store/algorithm.h"
#include "store/caching_policy.h"
#include "store/memory_budget.h"
#include "tile/tile_file.h"

namespace gstore::store {

// How the engine orders tile work within a run.
//   kGrid     — the paper's scheme: every iteration scans needed tiles in
//               physical layout order.
//   kPriority — delta-stepping worklist: tiles carry algorithm-assigned
//               priorities and rounds drain the minimum bucket first. The
//               worklist subsumes selective fetch (an idle tile is simply
//               never filed).
enum class ScheduleMode { kGrid, kPriority };

struct EngineConfig {
  std::uint64_t stream_memory_bytes = 64ull << 20;
  std::uint64_t segment_bytes = 8ull << 20;
  CachePolicyKind policy = CachePolicyKind::kProactive;
  ScheduleMode schedule = ScheduleMode::kGrid;
  bool rewind = true;      // off = "base policy" of the Fig 13 ablation
  bool overlap_io = true;  // double-buffer I/O with compute
  std::uint32_t max_iterations = 100000;
  // Whole-tile retry budget applied by the engine to failed or truncated
  // tile reads, layered above the async engine's own per-read retries
  // (io::RetryPolicy). Past the budget the iteration fails with a clean
  // quiesce: every in-flight read is drained before the exception escapes.
  int read_retry_budget = 2;
};

// Per-iteration breakdown: how the working set and I/O evolve as frontiers
// grow/shrink and the cache warms (what the paper's Figure 8 timeline shows).
// In priority mode one entry covers one worklist *round* (one drained
// bucket), not one grid sweep: `bucket` records which bucket it drained and
// tiles_skipped stays 0 — tiles the worklist never filed were not "scanned
// and skipped", they were never candidates (satellite 3 of ISSUE 10).
struct IterationStats {
  static constexpr std::uint32_t kNoBucket = 0xffffffffu;  // grid-mode entry
  std::uint64_t tiles_from_disk = 0;
  std::uint64_t tiles_from_cache = 0;
  std::uint64_t tiles_skipped = 0;
  std::uint64_t edges_processed = 0;
  std::uint64_t bytes_fetched = 0;   // base-tile bytes read this round/iter
  std::uint32_t bucket = kNoBucket;  // drained worklist bucket (priority mode)
  double seconds = 0;
};

struct EngineStats {
  // Grid mode: grid sweeps. Priority mode: worklist rounds (same value as
  // `rounds`), so convergence comparisons read one field in both modes.
  std::uint32_t iterations = 0;
  // Worklist rounds executed (0 in grid mode). A round drains one bucket.
  std::uint64_t rounds = 0;
  // Highest bucket any round drained (0 when rounds == 0).
  std::uint32_t max_bucket = 0;
  // Base-tile bytes fetched in rounds/iterations whose processing produced
  // zero label updates (last_round_updates() == 0) — I/O that bought no
  // progress. Convergence-tail waste the priority mode exists to remove.
  std::uint64_t wasted_fetch_bytes = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t tiles_from_disk = 0;
  std::uint64_t tiles_from_cache = 0;
  std::uint64_t tiles_skipped = 0;   // selective fetch: not needed this iter
  std::uint64_t edges_processed = 0;
  // Un-compacted edges spliced into tile scans from an attached overlay
  // (counted once per iteration they were processed, like base edges; also
  // included in edges_processed).
  std::uint64_t overlay_edges = 0;
  std::uint64_t io_batches = 0;      // submit() calls (paper: batching saves syscalls)
  // Bytes memcpy'd into the cache pool: 0 by construction, since the pool
  // has no copy path (it only pins segment slices). Kept so reports and the
  // Fig 13 bench show the zero-copy property.
  std::uint64_t bytes_copied_to_pool = 0;
  // Segment buffers replaced because the pool still pinned slices of them
  // (the allocate-fresh-on-demand half of the zero-copy contract).
  std::uint64_t segment_refreshes = 0;
  // Recovery counters from the I/O layer (io::DeviceStats): reads retried
  // by the async workers, short reads resubmitted for their tail, reads
  // that exhausted the worker budget, and total backoff slept.
  std::uint64_t retries = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t failed_reads = 0;
  // Whole-tile resubmissions performed by the engine above the async layer
  // (a tile whose read came back failed or truncated is reissued up to
  // EngineConfig::read_retry_budget times).
  std::uint64_t tile_resubmits = 0;
  double backoff_seconds = 0;
  double io_wait_seconds = 0;
  double compute_seconds = 0;
  double elapsed_seconds = 0;
  std::vector<IterationStats> per_iteration;
};

class ScrEngine {
 public:
  ScrEngine(tile::TileStore& store, EngineConfig config = {});

  // Runs the algorithm to completion and returns run statistics.
  EngineStats run(TileAlgorithm& algo);

  // Incremental recompute: re-activates only the tiles a WAL delta touched
  // (`delta_tiles`, layout indices from TileOverlay::nonempty_tiles) and
  // drives priority rounds until the re-armed work drains, instead of
  // rerunning from scratch. `algo` must hold the converged state of a prior
  // run over the same store, and the overlay carrying the new edges must be
  // attached to the store before the call. Falls back to a cold run() when
  // the algorithm's reactivate() declines. Always uses priority scheduling —
  // the worklist is what makes "only the affected tiles" expressible.
  EngineStats resume(TileAlgorithm& algo,
                     std::span<const std::uint64_t> delta_tiles);

  const EngineConfig& config() const noexcept { return config_; }
  const MemoryBudget& budget() const noexcept { return budget_; }

 private:
  struct Runner;
  tile::TileStore& store_;
  EngineConfig config_;
  MemoryBudget budget_;
};

}  // namespace gstore::store
