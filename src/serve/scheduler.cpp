#include "serve/scheduler.h"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "store/cache_pool.h"
#include "store/chunking.h"
#include "store/memory_budget.h"
#include "store/tile_stream.h"
#include "tile/edge_block.h"
#include "tile/overlay.h"
#include "util/dcheck.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/timer.h"

namespace gstore::serve {

namespace {

using store::CachePool;
using store::Chunk;
using store::Segment;

// Subscriber set: bit k = gang slot k wants this tile. Bounded by
// SharedScheduler::kMaxGang == 64.
using Mask = std::uint64_t;

template <typename Fn>
void for_bits(Mask m, Fn&& fn) {
  while (m != 0) {
    fn(static_cast<std::size_t>(std::countr_zero(m)));
    m &= m - 1;
  }
}

// A job still running after this many rounds fails.
constexpr std::uint32_t kMaxIterations = 100000;

}  // namespace

struct SharedScheduler::Runner {
  Runner(StoreSnapshot& snapshot, const SchedulerConfig& config,
         const AdmitFn& admit, const DoneFn& done)
      : store(snapshot.store()),
        grid(store.grid()),
        config(config),
        admit(admit),
        done(done),
        budget(store::MemoryBudget::compute(config.stream_memory_bytes,
                                            config.segment_bytes)),
        pool(budget.pool_bytes),
        overlay(store.overlay()),
        stream(store, budget.segment_bytes) {
    // The snapshot's overlay is a frozen copy — its tile list is stable for
    // the whole gang.
    if (overlay != nullptr) overlay_tiles = overlay->nonempty_tiles();
    slots.resize(kMaxGang);
  }

  // ---- gang membership ---------------------------------------------------

  struct Slot {
    GangJob job;
    JobStats stats;
    Timer timer;
    std::uint32_t iter = 0;
    bool in_use = false;
  };

  std::size_t active_count() const noexcept {
    return static_cast<std::size_t>(std::popcount(occupied));
  }

  void add_job(GangJob job) {
    GSTORE_DCHECK_LT(active_count(), kMaxGang);
    const auto free_bit = static_cast<std::size_t>(std::countr_one(occupied));
    Slot& s = slots[free_bit];
    s = Slot{};
    s.job = std::move(job);
    s.job.algo->init(store);
    s.in_use = true;
    occupied |= Mask{1} << free_bit;
  }

  void finish_slot(std::size_t k, JobState state, const std::string& error) {
    Slot& s = slots[k];
    s.stats.seconds = s.timer.seconds();
    occupied &= ~(Mask{1} << k);
    s.in_use = false;
    if (done) done(s.job, state, s.stats, error);
  }

  // ---- per-tile oracles over the gang ------------------------------------

  Mask needed_mask(std::uint64_t layout_idx) const {
    const tile::TileCoord c = grid.coord_at(layout_idx);
    Mask m = 0;
    for_bits(occupied, [&](std::size_t k) {
      if (slots[k].job.algo->tile_needed(c.i, c.j)) m |= Mask{1} << k;
    });
    return m;
  }

  Mask useful_next_mask(std::uint64_t layout_idx) const {
    const tile::TileCoord c = grid.coord_at(layout_idx);
    Mask m = 0;
    for_bits(occupied, [&](std::size_t k) {
      if (slots[k].job.algo->tile_useful_next(c.i, c.j)) m |= Mask{1} << k;
    });
    return m;
  }

  std::uint64_t overlay_count(std::uint64_t layout_idx) const {
    return overlay == nullptr ? 0 : overlay->tile_edges(layout_idx).size();
  }

  // Delivers one tile's payload to every subscribed job, splicing the
  // frozen overlay in as a second view (same contract as ScrEngine). Each
  // view is decoded once and every block goes to all subscribers, so a
  // tile wanted by k jobs costs one decode, not k; each job still sees the
  // base blocks in storage order, then the overlay's.
  void dispatch(std::uint64_t layout_idx, const std::uint8_t* data,
                Mask mask) {
    const auto fan_out = [&](const tile::EdgeBlock& b) {
      for_bits(mask,
               [&](std::size_t k) { slots[k].job.algo->process_block(b); });
    };
    const tile::TileView v = store.view(layout_idx, data);
    tile::for_each_block(v, fan_out);
    if (overlay == nullptr) return;
    const std::span<const tile::SnbEdge> extra =
        overlay->tile_edges(layout_idx);
    // splice_view resets the representation to raw in-memory SNB tuples —
    // overlays exist only for SNB stores, whatever codec the base tile used.
    if (!extra.empty())
      tile::for_each_block(tile::splice_view(v, extra), fan_out);
  }

  // Runs every tile's subscribed kernels in parallel (cached entries, a
  // segment's slots, or overlay-only tiles with null data), then folds the
  // deliveries into per-job and gang counters sequentially. masks[k] is the
  // subscriber set of tiles[k]. The dispatch runs in range-exclusive waves
  // when every subscriber is confined to its tiles' ranges: a tile's
  // subscribers run one after another on one thread, so the tile as a whole
  // touches only its two ranges.
  void dispatch_tiles(const std::vector<CachePool::Entry>& tiles,
                      const Mask* masks) {
    if (tiles.empty()) return;
    Timer t;
    Mask subscribers = 0;
    for (std::size_t k = 0; k < tiles.size(); ++k) subscribers |= masks[k];
    bool waved = true;
    for_bits(subscribers, [&](std::size_t j) {
      waved = waved && slots[j].job.algo->touches_only_tile_ranges();
    });
    costs.clear();
    waves.tiles.clear();
    for (std::size_t k = 0; k < tiles.size(); ++k) {
      costs.push_back((store.tile_edge_count(tiles[k].layout_idx) +
                       overlay_count(tiles[k].layout_idx)) *
                      static_cast<std::uint64_t>(std::popcount(masks[k])));
      if (waved) waves.tiles.push_back(grid.coord_at(tiles[k].layout_idx));
    }
    store::parallel_for_costs(
        costs, chunks,
        [&](std::size_t k) {
          dispatch(tiles[k].layout_idx, tiles[k].data, masks[k]);
        },
        waved ? &waves : nullptr);
    gang.compute_seconds += t.seconds();
    for (std::size_t k = 0; k < tiles.size(); ++k) {
      const std::uint64_t base = store.tile_edge_count(tiles[k].layout_idx);
      const std::uint64_t extra = overlay_count(tiles[k].layout_idx);
      for_bits(masks[k], [&](std::size_t j) {
        Slot& s = slots[j];
        s.stats.edges_processed += base + extra;
        s.stats.overlay_edges += extra;
        ++s.stats.tiles_dispatched;
      });
      gang.tile_dispatches +=
          static_cast<std::uint64_t>(std::popcount(masks[k]));
    }
  }

  // ---- compute + shared-cache admission ----------------------------------

  // One streamed segment; its slots hold fetch[first..], so their
  // subscriber sets are fetch_masks[first..].
  void process_segment(const Segment& seg, std::size_t first) {
    const auto& sl = seg.slots();
    seg_tiles.clear();
    for (const auto& slot : sl)
      seg_tiles.push_back({slot.layout_idx, seg.slot_data(slot), slot.bytes});
    GSTORE_DCHECK_LE(first + sl.size(), fetch_masks.size());
    // Throws before any possibly-corrupt tile below is pinned.
    dispatch_tiles(seg_tiles, fetch_masks.data() + first);

    // CACHE: shared-pool admission under per-job quotas. Each admitted tile
    // pins a zero-copy slice of the segment buffer; its cost is split
    // evenly across next-round subscribers, and it enters only while some
    // subscriber is still under budget/active_jobs — the fairness rule that
    // keeps one full-graph job from squeezing everyone else out.
    if (pool.budget() == 0) return;
    const std::uint64_t quota =
        pool.budget() / std::max<std::uint64_t>(active_count(), 1);
    for (const auto& slot : sl) {
      const Mask nm = useful_next_mask(slot.layout_idx);
      if (nm == 0) continue;
      if (slot.bytes > pool.free_bytes()) continue;  // no forced eviction
      const auto subs = static_cast<std::uint64_t>(std::popcount(nm));
      const std::uint64_t charge = slot.bytes / subs;
      // Admit while any subscriber still has quota headroom *before* the
      // charge lands. Requiring the full charge to fit under the quota
      // (charged[j] + charge <= quota) starved hot tiles whose split charge
      // exceeds every job's remaining allowance — they were re-fetched
      // every round even with free pool headroom (the free_bytes check
      // above already guards capacity; the quota is a fairness knob, so a
      // job's last admission may overshoot it by one tile).
      bool under_quota = false;
      for_bits(nm, [&](std::size_t j) {
        if (charged[j] < quota) under_quota = true;
      });
      if (!under_quota) continue;
      if (!pool.insert_pinned(slot.layout_idx, seg.pin_slot(slot),
                              slot.bytes))
        continue;
      cache_info[slot.layout_idx] = CachedTile{slot.bytes, nm};
      for_bits(nm, [&](std::size_t j) { charged[j] += charge; });
    }
  }

  // Round-boundary cache analysis: recompute every cached tile's
  // subscriber set for the upcoming round, evict the orphans, and rebuild
  // the per-job charge table (jobs that finished stop being charged; tiles
  // that gained subscribers get cheaper for everyone).
  void analyze_cache() {
    if (pool.budget() == 0) return;
    orphans.clear();
    for (auto& [idx, info] : cache_info) {
      const Mask nm = useful_next_mask(idx);
      if (nm == 0) {
        orphans.push_back(idx);
      } else {
        info.mask = nm;
      }
    }
    for (const std::uint64_t idx : orphans) {
      pool.erase(idx);
      cache_info.erase(idx);
    }
    charged.fill(0);
    for (const auto& [idx, info] : cache_info) {
      const auto subs = static_cast<std::uint64_t>(std::popcount(info.mask));
      const std::uint64_t charge = info.bytes / subs;
      for_bits(info.mask, [&](std::size_t j) { charged[j] += charge; });
    }
  }

  // ---- one gang round ----------------------------------------------------

  // The shared slide–cache–rewind pass of ScrEngine, over the union of the
  // active jobs' needed tiles: tiles in the pool or still resident in the
  // stream's two segments are dispatched first (REWIND, no I/O, before the
  // slide's first fill can overwrite a segment), the rest stream once
  // through the TileStream for every subscriber, and overlay tiles with no
  // base bytes get a no-I/O pass.
  void run_round() {
    for_bits(occupied,
             [&](std::size_t k) { slots[k].job.algo->begin_iteration(slots[k].iter); });

    pooled.clear();
    resident.clear();
    if (config.rewind) {
      pool.for_each_entry(
          [&](const CachePool::Entry& e) { pooled.push_back(e); });
      stream.for_each_resident([&](const Segment& seg,
                                   const store::TileSlot& slot) {
        resident.push_back({slot.layout_idx, seg.slot_data(slot), slot.bytes});
      });
    } else {
      pool.clear();
      cache_info.clear();
      charged.fill(0);
    }

    // Layout scan: each tile with data goes to the cached (pool, else
    // segment-resident), fetch or overlay-only list under its subscriber
    // set. Cached tiles nobody wants this round stay cached but are not
    // dispatched; stored tiles neither wanted nor pooled are skipped.
    cached.clear();
    cached_masks.clear();
    fetch.clear();
    fetch_masks.clear();
    delta_only.clear();
    delta_masks.clear();
    std::size_t ci = 0;
    std::size_t ri = 0;
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
      const bool base = store.tile_bytes(idx) != 0;
      if (!base && !std::binary_search(overlay_tiles.begin(),
                                       overlay_tiles.end(), idx))
        continue;
      while (ci < pooled.size() && pooled[ci].layout_idx < idx) ++ci;
      while (ri < resident.size() && resident[ri].layout_idx < idx) ++ri;
      const bool in_pool = ci < pooled.size() && pooled[ci].layout_idx == idx;
      const bool in_seg =
          ri < resident.size() && resident[ri].layout_idx == idx;
      const Mask m = needed_mask(idx);
      if (m == 0) {
        if (base && !in_pool) ++gang.tiles_skipped;
      } else if (in_pool || in_seg) {
        cached.push_back(in_pool ? pooled[ci] : resident[ri]);
        cached_masks.push_back(m);
      } else if (base) {
        fetch.push_back(idx);
        fetch_masks.push_back(m);
      } else {
        delta_only.push_back({idx, nullptr, 0});
        delta_masks.push_back(m);
      }
    }

    dispatch_tiles(cached, cached_masks.data());
    for (const auto& e : cached) pool.touch(e.layout_idx);
    // Unique payloads served from memory, as EngineStats counts them; the
    // per-subscriber deliveries are in tile_dispatches.
    gang.tiles_from_cache += cached.size();
    stream.slide(fetch, /*priority=*/0,
                 [&](const Segment& seg, std::size_t first) {
                   process_segment(seg, first);
                 });
    dispatch_tiles(delta_only, delta_masks.data());

    // End the round: every active job decides whether it wants another
    // iteration; finished jobs leave the gang before the cache analysis so
    // their subscriptions stop counting.
    for_bits(occupied, [&](std::size_t k) {
      Slot& s = slots[k];
      const bool more = s.job.algo->end_iteration(s.iter);
      ++s.iter;
      s.stats.iterations = s.iter;
      if (!more) {
        finish_slot(k, JobState::kDone, {});
      } else if (s.iter >= kMaxIterations) {
        finish_slot(k, JobState::kFailed,
                    "did not converge within max_iterations");
      }
    });
    analyze_cache();
    ++gang.rounds;
  }

  // Round boundary: reap cancellations, then offer free capacity to the
  // admit callback. Returns false when the gang is empty (run() ends).
  bool boundary() {
    for_bits(occupied, [&](std::size_t k) {
      if (slots[k].job.cancelled && slots[k].job.cancelled())
        finish_slot(k, JobState::kCancelled, {});
    });
    if (admit && active_count() < kMaxGang) {
      std::vector<GangJob> joined = admit(kMaxGang - active_count());
      GS_CHECK_MSG(joined.size() <= kMaxGang - active_count(),
                   "admit callback returned more jobs than offered slots");
      for (GangJob& j : joined) add_job(std::move(j));
    }
    return occupied != 0;
  }

  GangStats run(std::vector<GangJob> initial) {
    Timer total;
    store.device().reset_stats();
    GS_CHECK_MSG(initial.size() <= kMaxGang, "gang larger than kMaxGang");
    for (GangJob& j : initial) add_job(std::move(j));
    try {
      while (boundary()) run_round();
    } catch (const std::exception& e) {
      // A gang-level failure (I/O past the retry budget, a corrupt payload
      // or a throwing kernel) downs every job still on board; the daemon
      // itself survives. The stream has already drained its reads.
      const std::string why = e.what();
      GS_LOG(Warn) << "gang failed: " << why;
      for_bits(occupied,
               [&](std::size_t k) { finish_slot(k, JobState::kFailed, why); });
    }
    const io::DeviceStats dev = store.device().stats();
    const store::StreamStats& io = stream.stats();
    gang.bytes_read = dev.bytes_read;
    gang.tiles_fetched = io.tiles_fetched;
    gang.io_batches = io.io_batches;
    gang.tile_resubmits = io.tile_resubmits;
    gang.io_wait_seconds = io.io_wait_seconds;
    gang.retries = dev.retries;
    gang.short_reads = dev.short_reads;
    gang.failed_reads = dev.failed_reads;
    gang.backoff_seconds = dev.backoff_seconds;
    gang.segment_refreshes = stream.segment_refreshes();
    gang.elapsed_seconds = total.seconds();
    return gang;
  }

  // ---- state -------------------------------------------------------------

  tile::TileStore& store;
  const tile::Grid& grid;
  const SchedulerConfig& config;
  const AdmitFn& admit;
  const DoneFn& done;
  store::MemoryBudget budget;
  CachePool pool;
  const tile::TileOverlay* overlay = nullptr;
  std::vector<std::uint64_t> overlay_tiles;

  std::vector<Slot> slots;
  Mask occupied = 0;

  store::TileStream stream;

  // Shared-cache fairness bookkeeping (control thread only).
  struct CachedTile {
    std::uint64_t bytes = 0;
    Mask mask = 0;
  };
  std::unordered_map<std::uint64_t, CachedTile> cache_info;
  std::array<std::uint64_t, kMaxGang> charged{};

  // Per-round scratch, reused so the steady state does not allocate. The
  // *_masks vectors run parallel to the tile lists before them.
  std::vector<CachePool::Entry> pooled;
  std::vector<CachePool::Entry> resident;  // the stream segments' tiles
  std::vector<CachePool::Entry> cached;    // pool and resident hits
  std::vector<Mask> cached_masks;
  std::vector<std::uint64_t> fetch;
  std::vector<Mask> fetch_masks;
  std::vector<CachePool::Entry> delta_only;
  std::vector<Mask> delta_masks;
  std::vector<CachePool::Entry> seg_tiles;
  std::vector<std::uint64_t> orphans;
  std::vector<std::uint64_t> costs;
  std::vector<Chunk> chunks;
  store::WavePlan waves;

  GangStats gang;
};

SharedScheduler::SharedScheduler(StoreSnapshot& snapshot,
                                 SchedulerConfig config)
    : snapshot_(snapshot), config_(config) {}

SharedScheduler::~SharedScheduler() = default;

GangStats SharedScheduler::run(std::vector<GangJob> initial,
                               const AdmitFn& admit, const DoneFn& done) {
  Runner runner(snapshot_, config_, admit, done);
  return runner.run(std::move(initial));
}

}  // namespace gstore::serve
