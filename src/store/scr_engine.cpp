#include "store/scr_engine.h"

#include <algorithm>
#include <vector>

#include "store/cache_pool.h"
#include "store/chunking.h"
#include "store/tile_stream.h"
#include "store/worklist.h"
#include "tile/overlay.h"
#include "util/dcheck.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore::store {

struct ScrEngine::Runner {
  Runner(tile::TileStore& store, const EngineConfig& config,
         const MemoryBudget& budget, TileAlgorithm& algo)
      : store(store),
        grid(store.grid()),
        config(config),
        algo(algo),
        pool(budget.pool_bytes),
        policy(CachingPolicy::make(config.policy)),
        overlay(store.overlay()),
        stream(store, budget.segment_bytes, config.overlap_io,
               config.read_retry_budget) {
    // The overlay is frozen for the duration of a run (reader/writer
    // contract in tile/overlay.h), so its tile list can be taken once.
    if (overlay != nullptr) overlay_tiles = overlay->nonempty_tiles();
  }

  // ---- helpers -----------------------------------------------------------

  bool needed_now(std::uint64_t layout_idx) const {
    const tile::TileCoord c = grid.coord_at(layout_idx);
    return algo.tile_needed(c.i, c.j);
  }

  std::uint32_t priority_of(std::uint64_t layout_idx) const {
    const tile::TileCoord c = grid.coord_at(layout_idx);
    return algo.tile_priority(c.i, c.j);
  }

  std::uint64_t overlay_count(std::uint64_t layout_idx) const {
    return overlay == nullptr ? 0 : overlay->tile_edges(layout_idx).size();
  }

  // Tiles carrying base bytes or overlay edges; the rest never need work.
  bool has_data(std::uint64_t layout_idx) const {
    return store.tile_bytes(layout_idx) != 0 ||
           std::binary_search(overlay_tiles.begin(), overlay_tiles.end(),
                              layout_idx);
  }

  void process_one(std::uint64_t layout_idx, const std::uint8_t* data) {
    const tile::TileView v = store.view(layout_idx, data);
    algo.process_tile(v);
    if (overlay == nullptr) return;
    // Splice the overlay's un-compacted tuples into the scan as a second
    // view of the same tile: same coordinates, same SNB bases, extra edges.
    const std::span<const tile::SnbEdge> extra = overlay->tile_edges(layout_idx);
    if (extra.empty()) return;
    // splice_view resets the representation to raw in-memory SNB tuples —
    // overlays exist only for SNB stores, whatever codec the base tile used.
    algo.process_tile(tile::splice_view(v, extra));
  }

  // Runs the kernel over `tiles` in parallel (cached entries, a segment's
  // slots, or overlay-only tiles with null data) and counts their edges.
  // An algorithm confined to its tiles' ranges runs in waves, which process
  // each range's tiles in the order given here.
  void process_tiles(const std::vector<CachePool::Entry>& tiles) {
    if (tiles.empty()) return;
    Timer t;
    costs.clear();
    waves.tiles.clear();
    std::uint64_t edges = 0;
    std::uint64_t oedges = 0;
    for (const auto& e : tiles) {
      const std::uint64_t extra = overlay_count(e.layout_idx);
      costs.push_back(store.tile_edge_count(e.layout_idx) + extra);
      edges += costs.back();
      oedges += extra;
      if (waved) waves.tiles.push_back(grid.coord_at(e.layout_idx));
    }
    parallel_for_costs(
        costs, chunks,
        [&](std::size_t k) { process_one(tiles[k].layout_idx, tiles[k].data); },
        waved ? &waves : nullptr);
    stats.edges_processed += edges;
    stats.overlay_edges += oedges;
    stats.compute_seconds += t.seconds();
  }

  // One streamed segment: process its tiles, then the CACHE step of
  // slide-cache-rewind — one policy call that pins refcounted slices of the
  // segment buffer instead of copying tile bytes into the pool. It runs
  // after the kernels have joined, so the policy's oracle is constant.
  void process_segment(const Segment& seg) {
    seg_tiles.clear();
    for (const auto& slot : seg.slots())
      seg_tiles.push_back({slot.layout_idx, seg.slot_data(slot), slot.bytes});
    // Throws before any possibly-corrupt tile below is pinned.
    process_tiles(seg_tiles);
    if (pool.budget() != 0) policy->admit(pool, seg, grid, algo);
  }

  // Snapshots, in layout order, what REWIND can serve without I/O at the
  // start of an iteration or round: the pool and the tiles the stream's two
  // segments still hold. The base policy (rewind off) keeps nothing across
  // them.
  void snapshot_rewind() {
    pooled.clear();
    resident.clear();
    if (!config.rewind) {
      pool.clear();
      return;
    }
    pool.for_each_entry([&](const CachePool::Entry& e) { pooled.push_back(e); });
    stream.for_each_resident([&](const Segment& seg, const TileSlot& slot) {
      resident.push_back({slot.layout_idx, seg.slot_data(slot), slot.bytes});
    });
  }

  // ---- the shared slide–cache–rewind pass --------------------------------

  // Processes `selected` (ascending layout indices of tiles with data that
  // this iteration or round must visit). REWIND: tiles already in the pool,
  // then tiles still resident in the stream's two segments, are processed
  // first, with no I/O (paper §VI-D); a tile in both is served by the pool.
  // This runs before the slide's first fill, which may overwrite a resident
  // segment. SLIDE: the remaining base tiles stream through the TileStream
  // at `priority`, each segment cached as it is processed. Overlay tiles
  // with no base bytes are never fetched nor cached, so they get a no-I/O
  // pass last. The policy's boundary analysis closes the pass.
  void run_pass(std::uint32_t priority) {
    cached.clear();
    fetch.clear();
    delta_only.clear();
    std::size_t ci = 0;
    std::size_t ri = 0;
    for (const std::uint64_t idx : selected) {
      while (ci < pooled.size() && pooled[ci].layout_idx < idx) ++ci;
      while (ri < resident.size() && resident[ri].layout_idx < idx) ++ri;
      if (ci < pooled.size() && pooled[ci].layout_idx == idx)
        cached.push_back(pooled[ci]);
      else if (ri < resident.size() && resident[ri].layout_idx == idx)
        cached.push_back(resident[ri]);
      else if (store.tile_bytes(idx) != 0)
        fetch.push_back(idx);
      else
        delta_only.push_back({idx, nullptr, 0});
    }

    process_tiles(cached);
    for (const auto& e : cached) pool.touch(e.layout_idx);  // no-op if resident
    stats.tiles_from_cache += cached.size();

    stream.slide(fetch, priority, [&](const Segment& seg, std::size_t) {
      process_segment(seg);
    });

    process_tiles(delta_only);

    // Boundary cache analysis. Runs *before* the end hook: the
    // tile_useful_next oracle refers to upcoming work, and end_iteration /
    // end_round typically promote next-state metadata (e.g. BFS frontier
    // flags) to current.
    if (pool.budget() > 0) policy->analyze(pool, grid, algo);
  }

  // Cumulative counters, for per-iteration deltas.
  IterationStats totals() const {
    return IterationStats{stream.stats().tiles_fetched, stats.tiles_from_cache,
                          stats.tiles_skipped,          stats.edges_processed,
                          stream.stats().bytes_fetched};
  }

  void record(const IterationStats& before, std::uint32_t bucket,
              double seconds) {
    IterationStats it = totals();
    it.tiles_from_disk -= before.tiles_from_disk;
    it.tiles_from_cache -= before.tiles_from_cache;
    it.tiles_skipped -= before.tiles_skipped;
    it.edges_processed -= before.edges_processed;
    it.bytes_fetched -= before.bytes_fetched;
    it.bucket = bucket;
    it.seconds = seconds;
    // last_round_updates() holds the count until the next begin hook resets
    // it, so it is still valid after the end hook.
    if (algo.last_round_updates() == 0)
      stats.wasted_fetch_bytes += it.bytes_fetched;
    stats.per_iteration.push_back(it);
  }

  // ---- grid mode ---------------------------------------------------------

  // Selects every tile with data the algorithm needs this iteration, in
  // layout order. A stored tile that is neither needed nor cached counts as
  // skipped by selective fetch.
  void select_grid() {
    selected.clear();
    std::size_t ci = 0;
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
      if (!has_data(idx)) continue;
      if (needed_now(idx)) {
        selected.push_back(idx);
        continue;
      }
      while (ci < pooled.size() && pooled[ci].layout_idx < idx) ++ci;
      const bool in_pool = ci < pooled.size() && pooled[ci].layout_idx == idx;
      if (store.tile_bytes(idx) != 0 && !in_pool) ++stats.tiles_skipped;
    }
  }

  // Returns true if the algorithm wants another iteration.
  bool run_iteration(std::uint32_t iter) {
    const Timer timer;
    const IterationStats before = totals();
    algo.begin_iteration(iter);
    snapshot_rewind();
    select_grid();
    run_pass(/*priority=*/0);
    const bool more = algo.end_iteration(iter);
    record(before, IterationStats::kNoBucket, timer.seconds());
    return more;
  }

  EngineStats run() {
    if (config.schedule == ScheduleMode::kPriority)
      return run_priority(/*cold=*/true, {});
    Timer total;
    algo.init(store);
    store.device().reset_stats();
    bool more = true;
    std::uint32_t iter = 0;
    while (more && iter < config.max_iterations) {
      more = run_iteration(iter);
      ++iter;
    }
    GS_CHECK_MSG(!more, "algorithm did not converge within max_iterations");
    stats.iterations = iter;
    return finish(total);
  }

  // ---- priority mode (docs/SCHEDULING.md) --------------------------------

  // Registers every tile carrying data under both of its tile rows, so a
  // dirty row maps back to the tiles whose priority it can change. Both
  // rows, not just the algorithm's source row: tile_priority(i,j) may
  // consult either range (symmetric stores do), and over-approximating
  // costs one oracle call per refresh, never correctness.
  void build_row_tiles() {
    row_tiles.assign(grid.p(), {});
    row_mark.assign(grid.p(), 0);
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
      if (!has_data(idx)) continue;
      const tile::TileCoord c = grid.coord_at(idx);
      row_tiles[c.i].push_back(idx);
      if (c.j != c.i) row_tiles[c.j].push_back(idx);
    }
  }

  // Re-files every tile with data under its current oracle priority
  // (kPriorityIdle unfiles it).
  void seed_worklist_full() {
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx)
      if (has_data(idx)) worklist.push(idx, priority_of(idx));
  }

  // Re-evaluates only the tiles touching `rows` (deduplicated via row_mark).
  void refresh_rows(const std::vector<std::uint32_t>& rows) {
    for (const std::uint32_t r : rows) {
      GSTORE_DCHECK_LT(r, row_tiles.size());
      if (r >= row_tiles.size() || row_mark[r]) continue;
      row_mark[r] = 1;
      for (const std::uint64_t idx : row_tiles[r])
        worklist.push(idx, priority_of(idx));
    }
    for (const std::uint32_t r : rows)
      if (r < row_mark.size()) row_mark[r] = 0;
  }

  // One worklist round: the pass over the minimum bucket, its reads stamped
  // with the bucket as fetch priority, then re-filing of the tiles whose
  // priority the round changed. Returns end_round()'s verdict.
  bool run_round(std::uint32_t round) {
    const Timer timer;
    const IterationStats before = totals();
    const std::uint32_t bucket = worklist.drain_min(selected);
    GSTORE_DCHECK(bucket != TileWorklist::kIdle);
    algo.begin_round(round, bucket);
    stats.max_bucket = std::max(stats.max_bucket, bucket);
    snapshot_rewind();
    run_pass(bucket);
    const bool more = algo.end_round(round, bucket);
    record(before, bucket, timer.seconds());
    ++stats.rounds;

    // An algorithm that cannot name its dirty rows gets a full oracle sweep
    // (the same per-iteration cost the grid scan pays).
    dirty_rows_scratch.clear();
    if (algo.dirty_rows(dirty_rows_scratch))
      refresh_rows(dirty_rows_scratch);
    else
      seed_worklist_full();
    return more;
  }

  // Drives worklist rounds to completion. `cold` runs algo.init first; a
  // non-empty `seed_tiles` (incremental resume) seeds the worklist from the
  // rows those tiles touch instead of a full grid sweep.
  EngineStats run_priority(bool cold,
                           std::span<const std::uint64_t> seed_tiles) {
    Timer total;
    if (cold) algo.init(store);
    store.device().reset_stats();
    build_row_tiles();
    worklist.reset(grid.tile_count());
    if (seed_tiles.empty()) {
      seed_worklist_full();
    } else {
      std::vector<std::uint32_t> rows;
      rows.reserve(seed_tiles.size() * 2);
      for (const std::uint64_t idx : seed_tiles) {
        const tile::TileCoord c = grid.coord_at(idx);
        rows.push_back(c.i);
        if (c.j != c.i) rows.push_back(c.j);
      }
      refresh_rows(rows);
    }
    bool more = true;
    std::uint32_t round = 0;
    while (more && !worklist.empty() && round < config.max_iterations) {
      more = run_round(round);
      ++round;
    }
    GS_CHECK_MSG(!more || worklist.empty(),
                 "algorithm did not converge within max_iterations");
    stats.iterations = round;
    return finish(total);
  }

  EngineStats finish(Timer& total) {
    const io::DeviceStats dev = store.device().stats();
    const StreamStats& io = stream.stats();
    stats.bytes_read = dev.bytes_read;
    stats.tiles_from_disk = io.tiles_fetched;
    stats.io_batches = io.io_batches;
    stats.tile_resubmits = io.tile_resubmits;
    stats.io_wait_seconds = io.io_wait_seconds;
    stats.retries = dev.retries;
    stats.short_reads = dev.short_reads;
    stats.failed_reads = dev.failed_reads;
    stats.backoff_seconds = dev.backoff_seconds;
    stats.segment_refreshes = stream.segment_refreshes();
    stats.elapsed_seconds = total.seconds();
    return stats;
  }

  tile::TileStore& store;
  const tile::Grid& grid;
  const EngineConfig& config;
  TileAlgorithm& algo;
  CachePool pool;
  std::unique_ptr<CachingPolicy> policy;
  const tile::TileOverlay* overlay = nullptr;
  std::vector<std::uint64_t> overlay_tiles;  // nonempty, ascending
  TileStream stream;
  // Per-pass scratch, reused so the steady state does not allocate.
  std::vector<std::uint64_t> selected;  // this iteration's/round's tiles
  std::vector<CachePool::Entry> pooled;
  std::vector<CachePool::Entry> resident;  // the segments' tiles
  std::vector<CachePool::Entry> cached;    // pool and resident hits
  std::vector<std::uint64_t> fetch;
  std::vector<CachePool::Entry> delta_only;
  std::vector<CachePool::Entry> seg_tiles;
  std::vector<std::uint64_t> costs;
  std::vector<Chunk> chunks;
  const bool waved = algo.touches_only_tile_ranges();
  WavePlan waves;
  // Priority-mode state: the bucketed worklist and the row→tiles adjacency
  // it is refreshed through.
  TileWorklist worklist;
  std::vector<std::vector<std::uint64_t>> row_tiles;
  std::vector<std::uint8_t> row_mark;
  std::vector<std::uint32_t> dirty_rows_scratch;
  EngineStats stats;
};

ScrEngine::ScrEngine(tile::TileStore& store, EngineConfig config)
    : store_(store),
      config_(config),
      budget_(MemoryBudget::compute(config.stream_memory_bytes,
                                    config.segment_bytes)) {}

EngineStats ScrEngine::run(TileAlgorithm& algo) {
  Runner runner(store_, config_, budget_, algo);
  EngineStats s = runner.run();
  GS_LOG(Info) << algo.name() << ": " << s.iterations << " iterations, "
               << s.edges_processed << " edges processed, "
               << s.bytes_read / (1 << 20) << " MiB read, "
               << s.tiles_from_cache << " tiles from cache";
  return s;
}

EngineStats ScrEngine::resume(TileAlgorithm& algo,
                              std::span<const std::uint64_t> delta_tiles) {
  Runner runner(store_, config_, budget_, algo);
  if (delta_tiles.empty() || !algo.reactivate(store_, delta_tiles)) {
    // No prior state to resume from (or nothing to resume onto): the cold
    // run is the correct — and only — answer.
    GS_LOG(Info) << algo.name()
                 << ": reactivate declined, falling back to a cold run";
    return runner.run();
  }
  EngineStats s = runner.run_priority(/*cold=*/false, delta_tiles);
  GS_LOG(Info) << algo.name() << ": incremental resume over "
               << delta_tiles.size() << " delta tiles, " << s.rounds
               << " rounds, " << s.bytes_read / (1 << 20) << " MiB read";
  return s;
}

}  // namespace gstore::store
