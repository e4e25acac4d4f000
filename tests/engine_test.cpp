#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <mutex>
#include <set>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "algo/cc.h"
#include "algo/pagerank.h"
#include "graph/generator.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "util/status.h"

namespace gstore::store {
namespace {

using graph::GraphKind;

// Records which tiles the engine delivers each iteration.
class RecordingAlgo final : public TileAlgorithm {
 public:
  explicit RecordingAlgo(std::uint32_t iterations) : want_iters_(iterations) {}

  std::string name() const override { return "recorder"; }
  void init(const tile::TileStore& store) override {
    grid_ = &store.grid();
    per_iter_.clear();
  }
  void begin_iteration(std::uint32_t) override {
    per_iter_.emplace_back();
  }
  void process_tile(const tile::TileView& view) override {
    std::lock_guard<std::mutex> lock(mu_);
    const std::uint64_t idx = grid_->layout_index(view.coord.i, view.coord.j);
    ++per_iter_.back()[idx];
    edges_seen_ += view.edge_count();
  }
  bool end_iteration(std::uint32_t iter) override { return iter + 1 < want_iters_; }

  bool tile_needed(std::uint32_t i, std::uint32_t j) const override {
    return needed_rows_.empty() || needed_rows_.count(i) || needed_rows_.count(j);
  }

  std::set<std::uint32_t> needed_rows_;  // empty = all
  std::vector<std::map<std::uint64_t, int>> per_iter_;
  std::uint64_t edges_seen_ = 0;

 private:
  std::uint32_t want_iters_;
  const tile::Grid* grid_ = nullptr;
  std::mutex mu_;
};

tile::TileStore kron_store(const io::TempDir& dir, unsigned scale = 9,
                           unsigned ef = 6) {
  tile::ConvertOptions o;
  o.tile_bits = 5;   // 32-vertex tiles → many tiles at small scale
  o.group_side = 3;  // non-dividing group side
  return gstore::testing::make_store(
      dir, graph::kronecker(scale, ef, GraphKind::kUndirected, 17), o);
}

EngineConfig tiny_memory() {
  EngineConfig c;
  c.stream_memory_bytes = 16 << 10;  // forces many slide phases + evictions
  c.segment_bytes = 2 << 10;
  return c;
}

TEST(ScrEngine, EveryNonEmptyTileProcessedOncePerIteration) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo algo(3);
  ScrEngine engine(store, tiny_memory());
  const auto stats = engine.run(algo);

  EXPECT_EQ(stats.iterations, 3u);
  ASSERT_EQ(algo.per_iter_.size(), 3u);
  std::set<std::uint64_t> nonempty;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    if (store.tile_edge_count(k) > 0) nonempty.insert(k);
  for (const auto& seen : algo.per_iter_) {
    ASSERT_EQ(seen.size(), nonempty.size());
    for (const auto& [idx, count] : seen) {
      EXPECT_EQ(count, 1) << "tile " << idx << " processed more than once";
      EXPECT_TRUE(nonempty.count(idx));
    }
  }
  EXPECT_EQ(algo.edges_seen_, 3 * store.edge_count());
}

TEST(ScrEngine, RewindServesTilesFromCache) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig c;
  c.stream_memory_bytes = 64 << 20;  // whole graph fits the pool
  c.segment_bytes = 1 << 20;
  RecordingAlgo algo(3);
  ScrEngine engine(store, c);
  const auto stats = engine.run(algo);
  // After iteration 0 everything is cached; iterations 1-2 do zero disk I/O.
  EXPECT_GT(stats.tiles_from_cache, 0u);
  EXPECT_EQ(stats.bytes_read, store.bytes_of_range(0, store.grid().tile_count()));
}

TEST(ScrEngine, RewindIsZeroCopy) {
  io::TempDir dir;
  auto store = kron_store(dir, 9, 6);
  EngineConfig c = tiny_memory();
  c.stream_memory_bytes = 64 << 10;
  // Small enough that the (codec-compressed) store spans several segment
  // fills, so at least one refill hits a segment with pinned slices.
  c.segment_bytes = 1 << 10;
  RecordingAlgo algo(3);
  const auto stats = ScrEngine(store, c).run(algo);
  // Tiles were served from the cache, and none of them was memcpy'd into
  // the pool: REWIND reads the segments' own pinned bytes.
  EXPECT_GT(stats.tiles_from_cache, 0u);
  EXPECT_EQ(stats.bytes_copied_to_pool, 0u);
  // The zero-copy contract's other half: refilling a segment whose slices
  // are pinned must swap in a fresh buffer, never overwrite in place.
  EXPECT_GT(stats.segment_refreshes, 0u);
}

TEST(ScrEngine, NoCacheBaselineRereadsEveryIteration) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig c = tiny_memory();
  c.policy = CachePolicyKind::kNone;
  c.rewind = false;
  RecordingAlgo algo(3);
  ScrEngine engine(store, c);
  const auto stats = engine.run(algo);
  EXPECT_EQ(stats.tiles_from_cache, 0u);
  EXPECT_EQ(stats.bytes_read,
            3 * store.bytes_of_range(0, store.grid().tile_count()));
}

TEST(ScrEngine, CacheReducesIoVsNoCache) {
  io::TempDir dir;
  auto store = kron_store(dir, 9, 6);
  EngineConfig base = tiny_memory();
  base.stream_memory_bytes = 64 << 10;
  base.segment_bytes = 4 << 10;

  EngineConfig nocache = base;
  nocache.policy = CachePolicyKind::kNone;
  nocache.rewind = false;

  RecordingAlgo a1(4), a2(4);
  const auto with_cache = ScrEngine(store, base).run(a1);
  const auto without = ScrEngine(store, nocache).run(a2);
  EXPECT_LT(with_cache.bytes_read, without.bytes_read);
  EXPECT_EQ(a1.edges_seen_, a2.edges_seen_);  // identical work either way
}

TEST(ScrEngine, SelectiveFetchSkipsUnneededTiles) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo algo(2);
  algo.needed_rows_ = {0};  // only tiles touching row/col 0
  ScrEngine engine(store, tiny_memory());
  const auto stats = engine.run(algo);
  EXPECT_GT(stats.tiles_skipped, 0u);
  for (const auto& seen : algo.per_iter_)
    for (const auto& [idx, n] : seen) {
      const auto c = store.grid().coord_at(idx);
      EXPECT_TRUE(c.i == 0 || c.j == 0);
      EXPECT_EQ(n, 1);
    }
}

TEST(ScrEngine, SyncAndAsyncProduceSameCoverage) {
  io::TempDir dir;
  auto store = kron_store(dir);
  EngineConfig async_cfg = tiny_memory();
  EngineConfig sync_cfg = tiny_memory();
  sync_cfg.overlap_io = false;
  RecordingAlgo a(2), b(2);
  ScrEngine(store, async_cfg).run(a);
  ScrEngine(store, sync_cfg).run(b);
  ASSERT_EQ(a.per_iter_.size(), b.per_iter_.size());
  for (std::size_t k = 0; k < a.per_iter_.size(); ++k)
    EXPECT_EQ(a.per_iter_[k], b.per_iter_[k]);
}

TEST(ScrEngine, LruPolicyRuns) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig c = tiny_memory();
  c.policy = CachePolicyKind::kLru;
  RecordingAlgo algo(3);
  const auto stats = ScrEngine(store, c).run(algo);
  EXPECT_EQ(stats.iterations, 3u);
  EXPECT_GT(stats.tiles_from_cache, 0u);
}

TEST(ScrEngine, StatsAreCoherent) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store, tiny_memory()).run(algo);
  EXPECT_GT(stats.io_batches, 0u);
  EXPECT_GT(stats.bytes_read, 0u);
  EXPECT_GE(stats.elapsed_seconds, 0.0);
  EXPECT_EQ(stats.edges_processed, algo.edges_seen_);
  EXPECT_EQ(stats.tiles_from_disk + stats.tiles_from_cache,
            [&] {
              std::uint64_t total = 0;
              for (const auto& seen : algo.per_iter_) total += seen.size();
              return total;
            }());
}

TEST(ScrEngine, HonorsMaxIterationsGuard) {
  io::TempDir dir;
  auto store = kron_store(dir, 7, 4);

  // An algorithm that never converges must trip the guard, not spin forever.
  class NeverDone final : public TileAlgorithm {
   public:
    std::string name() const override { return "never"; }
    void init(const tile::TileStore&) override {}
    void begin_iteration(std::uint32_t) override {}
    void process_tile(const tile::TileView&) override {}
    bool end_iteration(std::uint32_t) override { return true; }
  } algo;

  EngineConfig c = tiny_memory();
  c.max_iterations = 5;
  EXPECT_THROW(ScrEngine(store, c).run(algo), Error);
}

TEST(ScrEngine, OversizedTileStreamsWhenSegmentTiny) {
  io::TempDir dir;
  // A star graph puts ~all edges into one tile, far larger than the segment.
  tile::ConvertOptions o;
  o.tile_bits = 5;
  auto store = gstore::testing::make_store(dir, graph::star(32 * 6), o);
  EngineConfig c;
  c.stream_memory_bytes = 2 << 10;
  c.segment_bytes = 128;  // much smaller than the hub tile
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store, c).run(algo);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(algo.edges_seen_, 2 * store.edge_count());
}

}  // namespace
}  // namespace gstore::store
// Appended: engine edge cases.
namespace gstore::store {
namespace {

TEST(ScrEngine, SingleTileGraph) {
  io::TempDir dir;
  auto store = gstore::testing::make_store(dir, graph::path(50));  // 1 tile
  ASSERT_EQ(store.grid().tile_count(), 1u);
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store).run(algo);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(algo.edges_seen_, 2 * store.edge_count());
}

TEST(ScrEngine, GraphWithNoEdges) {
  io::TempDir dir;
  graph::EdgeList el({}, 100, graph::GraphKind::kUndirected);
  auto store = gstore::testing::make_store(dir, el);
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store).run(algo);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(stats.bytes_read, 0u);
  EXPECT_EQ(algo.edges_seen_, 0u);
}

TEST(ScrEngine, SegmentLargerThanGraph) {
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 5;
  auto store = gstore::testing::make_store(
      dir, graph::kronecker(8, 4, graph::GraphKind::kUndirected, 2), o);
  EngineConfig cfg;
  cfg.stream_memory_bytes = 256 << 20;  // everything fits one segment
  cfg.segment_bytes = 64 << 20;
  RecordingAlgo algo(2);
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.iterations, 2u);
  EXPECT_EQ(algo.edges_seen_, 2 * store.edge_count());
}

TEST(ScrEngine, ExactlyMaxIterationsSucceeds) {
  io::TempDir dir;
  auto store = gstore::testing::make_store(dir, graph::path(20));
  EngineConfig cfg;
  cfg.max_iterations = 3;
  RecordingAlgo algo(3);  // wants exactly the cap
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.iterations, 3u);
}

TEST(ScrEngine, FatTupleStoreStreamsCorrectByteCounts) {
  io::TempDir dir;
  auto el = graph::kronecker(8, 4, graph::GraphKind::kUndirected, 3);
  tile::ConvertOptions o;
  o.tile_bits = 5;
  o.snb = false;
  auto store = gstore::testing::make_store(dir, el, o);
  EngineConfig cfg = tiny_memory();
  cfg.policy = CachePolicyKind::kNone;
  cfg.rewind = false;
  RecordingAlgo algo(1);
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.bytes_read, store.edge_count() * 8);
  EXPECT_EQ(stats.edges_processed, store.edge_count());
}

}  // namespace
}  // namespace gstore::store
// Appended: per-iteration statistics.
namespace gstore::store {
namespace {

TEST(ScrEngine, PerIterationStatsSumToTotals) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo algo(4);
  const auto stats = ScrEngine(store, tiny_memory()).run(algo);
  ASSERT_EQ(stats.per_iteration.size(), 4u);
  IterationStats sum;
  for (const auto& it : stats.per_iteration) {
    sum.tiles_from_disk += it.tiles_from_disk;
    sum.tiles_from_cache += it.tiles_from_cache;
    sum.tiles_skipped += it.tiles_skipped;
    sum.edges_processed += it.edges_processed;
    EXPECT_GE(it.seconds, 0.0);
  }
  EXPECT_EQ(sum.tiles_from_disk, stats.tiles_from_disk);
  EXPECT_EQ(sum.tiles_from_cache, stats.tiles_from_cache);
  EXPECT_EQ(sum.tiles_skipped, stats.tiles_skipped);
  EXPECT_EQ(sum.edges_processed, stats.edges_processed);
}

TEST(ScrEngine, CacheWarmupVisibleInPerIterationStats) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig c;
  c.stream_memory_bytes = 64 << 20;  // everything cacheable
  c.segment_bytes = 1 << 20;
  RecordingAlgo algo(3);
  const auto stats = ScrEngine(store, c).run(algo);
  ASSERT_EQ(stats.per_iteration.size(), 3u);
  EXPECT_GT(stats.per_iteration[0].tiles_from_disk, 0u);
  EXPECT_EQ(stats.per_iteration[1].tiles_from_disk, 0u);  // fully cached
  EXPECT_EQ(stats.per_iteration[2].tiles_from_disk, 0u);
  EXPECT_GT(stats.per_iteration[1].tiles_from_cache, 0u);
}

}  // namespace
}  // namespace gstore::store
// Appended: priority-driven selective scheduling (ISSUE 10).
#include "store/worklist.h"

namespace gstore::store {
namespace {

TEST(TileWorklist, DrainsBucketsAscendingAndTilesInLayoutOrder) {
  TileWorklist wl;
  wl.reset(16);
  wl.push(3, 5);
  wl.push(7, 2);
  wl.push(1, 2);
  wl.push(11, 9);
  EXPECT_EQ(wl.size(), 4u);
  EXPECT_EQ(wl.priority_of(7), 2u);
  std::vector<std::uint64_t> out;
  EXPECT_EQ(wl.drain_min(out), 2u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{1, 7}));
  EXPECT_EQ(wl.drain_min(out), 5u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{3}));
  EXPECT_EQ(wl.drain_min(out), 9u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{11}));
  EXPECT_TRUE(wl.empty());
  EXPECT_EQ(wl.drain_min(out), TileWorklist::kIdle);
}

TEST(TileWorklist, LazyRefileDeliversEachTileOnce) {
  TileWorklist wl;
  wl.reset(8);
  wl.push(4, 8);
  wl.push(4, 3);  // improve: the bucket-8 entry goes stale
  EXPECT_EQ(wl.size(), 1u);
  std::vector<std::uint64_t> out;
  EXPECT_EQ(wl.drain_min(out), 3u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{4}));
  // The stale bucket-8 entry must not resurface.
  EXPECT_EQ(wl.drain_min(out), TileWorklist::kIdle);
  EXPECT_TRUE(out.empty());
  // Worsening a priority also refiles (engine re-pushes after each round).
  wl.push(4, 2);
  wl.push(4, 6);
  EXPECT_EQ(wl.size(), 1u);
  EXPECT_EQ(wl.drain_min(out), 6u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{4}));
}

TEST(TileWorklist, IdlePushAndDeactivateUnfile) {
  TileWorklist wl;
  wl.reset(8);
  wl.push(2, 4);
  wl.push(5, 4);
  wl.push(2, TileWorklist::kIdle);
  wl.deactivate(5);
  wl.deactivate(5);  // idempotent
  EXPECT_TRUE(wl.empty());
  std::vector<std::uint64_t> out;
  EXPECT_EQ(wl.drain_min(out), TileWorklist::kIdle);
  EXPECT_EQ(wl.priority_of(2), TileWorklist::kIdle);
}

TEST(TileWorklist, PathologicalPrioritiesShareTheOverflowBucket) {
  TileWorklist wl;
  wl.reset(4);
  wl.push(0, TileWorklist::kMaxBucket + 1000);
  wl.push(1, 0xfffffffeu);  // kIdle - 1, the largest non-idle priority
  wl.push(2, 1);
  std::vector<std::uint64_t> out;
  EXPECT_EQ(wl.drain_min(out), 1u);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{2}));
  // Both clamped tiles drain together from the single overflow bucket.
  EXPECT_EQ(wl.drain_min(out), TileWorklist::kMaxBucket);
  EXPECT_EQ(out, (std::vector<std::uint64_t>{0, 1}));
  EXPECT_TRUE(wl.empty());
}

// Orders tiles by their row index and records which bucket each round
// drained — the engine must deliver rounds in ascending bucket order, each
// containing exactly that row's tiles.
class RowPriorityAlgo final : public TileAlgorithm {
 public:
  std::string name() const override { return "row-priority"; }
  void init(const tile::TileStore& store) override { grid_ = &store.grid(); }
  void begin_round(std::uint32_t, std::uint32_t bucket) override {
    bucket_ = bucket;
    round_buckets_.push_back(bucket);
  }
  void process_tile(const tile::TileView& view) override {
    std::lock_guard<std::mutex> lock(mu_);
    EXPECT_EQ(view.coord.i, bucket_);
    ++tiles_seen_;
  }
  bool end_round(std::uint32_t, std::uint32_t) override { return true; }
  void begin_iteration(std::uint32_t) override {}
  bool end_iteration(std::uint32_t) override { return true; }
  std::uint32_t tile_priority(std::uint32_t i, std::uint32_t) const override {
    return i;
  }
  // Nothing ever changes priority: drained tiles stay drained, so the run
  // ends when the seeded worklist empties.
  bool dirty_rows(std::vector<std::uint32_t>&) const override { return true; }

  std::vector<std::uint32_t> round_buckets_;
  std::uint64_t tiles_seen_ = 0;

 private:
  const tile::Grid* grid_ = nullptr;
  std::uint32_t bucket_ = 0;
  std::mutex mu_;
};

TEST(ScrEngine, PriorityRoundsDrainAscendingBuckets) {
  io::TempDir dir;
  auto store = kron_store(dir);
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  RowPriorityAlgo algo;
  const auto stats = ScrEngine(store, cfg).run(algo);
  ASSERT_FALSE(algo.round_buckets_.size() == 0);
  for (std::size_t k = 1; k < algo.round_buckets_.size(); ++k)
    EXPECT_LT(algo.round_buckets_[k - 1], algo.round_buckets_[k]);
  std::uint64_t nonempty = 0;
  for (std::uint64_t k = 0; k < store.grid().tile_count(); ++k)
    if (store.tile_edge_count(k) > 0) ++nonempty;
  EXPECT_EQ(algo.tiles_seen_, nonempty);  // every tile exactly once
  EXPECT_EQ(stats.rounds, algo.round_buckets_.size());
  EXPECT_EQ(stats.max_bucket, algo.round_buckets_.back());
}

TEST(ScrEngine, PriorityModeCoversSameTilesAsGrid) {
  io::TempDir dir;
  auto store = kron_store(dir);
  RecordingAlgo grid_algo(3), prio_algo(3);
  ScrEngine(store, tiny_memory()).run(grid_algo);
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  const auto stats = ScrEngine(store, cfg).run(prio_algo);
  // Default oracle files every needed tile at priority 0, so one round is
  // one full sweep: coverage is identical to the grid schedule.
  ASSERT_EQ(prio_algo.per_iter_.size(), grid_algo.per_iter_.size());
  for (std::size_t k = 0; k < grid_algo.per_iter_.size(); ++k)
    EXPECT_EQ(prio_algo.per_iter_[k], grid_algo.per_iter_[k]);
  EXPECT_EQ(prio_algo.edges_seen_, grid_algo.edges_seen_);
  EXPECT_EQ(stats.rounds, 3u);
  EXPECT_EQ(stats.iterations, 3u);
}

// Grid order is one bucket of needed tiles drained in layout order, so for
// algorithms whose every needed tile lands in bucket 0 both schedules must
// do the same I/O: the same tiles from disk and from cache, the same bytes
// and the same edges, at a stream size that forces eviction and at one
// that holds the whole store.
TEST(ScrEngine, GridAndPriorityReportIdenticalCounters) {
#ifdef _OPENMP
  // WCC's sweep count depends on the order labels propagate in; one thread
  // makes it a function of the tile order alone.
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 6;
  auto store = gstore::testing::make_store(
      dir, graph::kronecker(11, 16, GraphKind::kUndirected, 5), o);
  const auto run = [&](ScheduleMode mode, std::uint64_t memory,
                       TileAlgorithm& algo) {
    EngineConfig cfg;
    cfg.stream_memory_bytes = memory;
    cfg.segment_bytes = std::min<std::uint64_t>(memory / 4, 1 << 20);
    cfg.schedule = mode;
    return ScrEngine(store, cfg).run(algo);
  };
  for (const std::uint64_t memory : {std::uint64_t{64} << 10,
                                     std::uint64_t{64} << 20}) {
    for (const bool wcc : {false, true}) {
      SCOPED_TRACE(::testing::Message() << (wcc ? "wcc" : "pagerank")
                                      << " memory=" << memory);
      algo::PageRankOptions popt;
      popt.max_iterations = 4;
      algo::TilePageRank pr_grid(popt), pr_prio(popt);
      algo::TileWcc wcc_grid, wcc_prio;
      TileAlgorithm& a = wcc ? static_cast<TileAlgorithm&>(wcc_grid) : pr_grid;
      TileAlgorithm& b = wcc ? static_cast<TileAlgorithm&>(wcc_prio) : pr_prio;
      const EngineStats g = run(ScheduleMode::kGrid, memory, a);
      const EngineStats p = run(ScheduleMode::kPriority, memory, b);
      EXPECT_EQ(g.iterations, p.iterations);
      EXPECT_EQ(g.tiles_from_disk, p.tiles_from_disk);
      EXPECT_EQ(g.tiles_from_cache, p.tiles_from_cache);
      EXPECT_EQ(g.bytes_read, p.bytes_read);
      EXPECT_EQ(g.edges_processed, p.edges_processed);
      // The small stream re-reads evicted tiles; the large one serves
      // later iterations from cache.
      const std::uint64_t payload =
          store.bytes_of_range(0, store.grid().tile_count());
      if (memory < payload) {
        EXPECT_GT(g.bytes_read, payload);
      } else {
        EXPECT_GT(g.tiles_from_cache, 0u);
      }
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
}

TEST(ScrEngine, PriorityStatsAreCoherent) {
  io::TempDir dir;
  auto store = kron_store(dir);
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  RecordingAlgo algo(4);
  const auto stats = ScrEngine(store, cfg).run(algo);
  EXPECT_EQ(stats.rounds, 4u);
  EXPECT_EQ(stats.iterations, 4u);
  ASSERT_EQ(stats.per_iteration.size(), 4u);
  IterationStats sum;
  std::uint64_t fetched = 0;
  for (const auto& it : stats.per_iteration) {
    EXPECT_NE(it.bucket, IterationStats::kNoBucket);
    EXPECT_LE(it.bucket, stats.max_bucket);
    // Priority mode never "skips" — unfiled tiles were never candidates.
    EXPECT_EQ(it.tiles_skipped, 0u);
    sum.tiles_from_disk += it.tiles_from_disk;
    sum.tiles_from_cache += it.tiles_from_cache;
    sum.edges_processed += it.edges_processed;
    fetched += it.bytes_fetched;
  }
  EXPECT_EQ(sum.tiles_from_disk, stats.tiles_from_disk);
  EXPECT_EQ(sum.tiles_from_cache, stats.tiles_from_cache);
  EXPECT_EQ(sum.edges_processed, stats.edges_processed);
  EXPECT_EQ(sum.edges_processed, algo.edges_seen_);
  // Per-round fetch accounting reconciles with the device's byte counter.
  EXPECT_EQ(fetched, stats.bytes_read);
  EXPECT_EQ(stats.tiles_skipped, 0u);
  // RecordingAlgo always reports progress, so nothing was wasted.
  EXPECT_EQ(stats.wasted_fetch_bytes, 0u);
}

TEST(ScrEngine, PriorityModeHonorsMaxIterations) {
  io::TempDir dir;
  auto store = kron_store(dir, 7, 4);
  class NeverDone final : public TileAlgorithm {
   public:
    std::string name() const override { return "never"; }
    void init(const tile::TileStore&) override {}
    void begin_iteration(std::uint32_t) override {}
    void process_tile(const tile::TileView&) override {}
    bool end_iteration(std::uint32_t) override { return true; }
  } algo;
  EngineConfig cfg = tiny_memory();
  cfg.schedule = ScheduleMode::kPriority;
  cfg.max_iterations = 5;
  EXPECT_THROW(ScrEngine(store, cfg).run(algo), Error);
}

TEST(ScrEngine, PriorityModeCachesAcrossRounds) {
  io::TempDir dir;
  auto store = kron_store(dir, 8, 4);
  EngineConfig cfg;
  cfg.stream_memory_bytes = 64 << 20;  // whole graph fits the pool
  cfg.segment_bytes = 1 << 20;
  cfg.schedule = ScheduleMode::kPriority;
  RecordingAlgo algo(3);
  const auto stats = ScrEngine(store, cfg).run(algo);
  // Round 0 fetches, rounds 1-2 run entirely out of the pool.
  ASSERT_EQ(stats.per_iteration.size(), 3u);
  EXPECT_GT(stats.per_iteration[0].tiles_from_disk, 0u);
  EXPECT_EQ(stats.per_iteration[1].tiles_from_disk, 0u);
  EXPECT_EQ(stats.per_iteration[2].tiles_from_disk, 0u);
  EXPECT_GT(stats.per_iteration[1].tiles_from_cache, 0u);
  EXPECT_EQ(stats.bytes_read,
            store.bytes_of_range(0, store.grid().tile_count()));
}

}  // namespace
}  // namespace gstore::store
// Appended: REWIND of the tiles the stream's two segments still hold.
#include "algo/bfs.h"
#include "algo/reference.h"

namespace gstore::store {
namespace {

// Model of TileStream residency for passes that need `needed` (ascending
// layout indices): tiles the two segments hold are rewound, the rest are
// packed greedily into segments of `cap` bytes alternating from segment 0,
// and a segment that finds the fetch list exhausted keeps its tiles.
class ResidencyModel {
 public:
  ResidencyModel(const tile::TileStore& store, std::uint64_t cap)
      : store_(store), cap_(cap) {}

  // Bytes of the tiles both segments hold before the next pass.
  std::uint64_t resident_bytes() const {
    std::uint64_t bytes = 0;
    for (const auto& seg : seg_)
      for (const std::uint64_t idx : seg) bytes += store_.tile_bytes(idx);
    return bytes;
  }

  void pass(const std::vector<std::uint64_t>& needed) {
    std::set<std::uint64_t> resident(seg_[0].begin(), seg_[0].end());
    resident.insert(seg_[1].begin(), seg_[1].end());
    std::vector<std::uint64_t> fetch;
    for (const std::uint64_t idx : needed)
      if (!resident.count(idx)) fetch.push_back(idx);
    std::size_t pos = 0;
    const auto fill = [&](int s) {
      if (pos >= fetch.size()) return false;
      seg_[s].clear();
      std::uint64_t used = 0;
      while (pos < fetch.size() &&
             used + store_.tile_bytes(fetch[pos]) <= cap_) {
        used += store_.tile_bytes(fetch[pos]);
        seg_[s].push_back(fetch[pos++]);
      }
      return true;
    };
    int cur = 0;
    bool loaded = fill(cur);
    while (loaded) {
      cur ^= 1;
      loaded = fill(cur);
    }
  }

 private:
  const tile::TileStore& store_;
  std::uint64_t cap_;
  std::vector<std::uint64_t> seg_[2];
};

// With no pool (stream memory = two segments), the only tiles a pass can
// serve without I/O are the ones the two segments still hold from the last
// pass. Every PageRank iteration needs every tile, so iteration k reads the
// whole store minus exactly those bytes; with rewind off it rereads it all.
TEST(ScrEngine, RewindsLastTwoSegments) {
  io::TempDir dir;
  const auto el = graph::kronecker(9, 6, GraphKind::kUndirected, 17);
  tile::ConvertOptions o;
  o.tile_bits = 5;
  o.group_side = 3;
  auto store = gstore::testing::make_store(dir, el, o);
  const std::uint64_t tiles = store.grid().tile_count();
  const std::uint64_t payload = store.bytes_of_range(0, tiles);
  std::vector<std::uint64_t> nonempty;
  for (std::uint64_t k = 0; k < tiles; ++k)
    if (store.tile_bytes(k) != 0) nonempty.push_back(k);

  EngineConfig cfg;
  cfg.segment_bytes = std::max<std::uint64_t>(payload / 6,
                                              store.max_tile_bytes());
  cfg.stream_memory_bytes = 2 * cfg.segment_bytes;
  const std::uint64_t cap = cfg.segment_bytes;
  ASSERT_EQ(ScrEngine(store, cfg).budget().pool_bytes, 0u);
  ASSERT_GT(payload, 3 * cap) << "store must span at least 4 segments";

  constexpr std::uint32_t kIters = 3;
  algo::PageRankOptions popt;
  popt.max_iterations = kIters;
  algo::TilePageRank pr(popt);
  const EngineStats s = ScrEngine(store, cfg).run(pr);
  ASSERT_EQ(s.per_iteration.size(), kIters);
  ResidencyModel model(store, cap);
  for (std::uint32_t k = 0; k < kIters; ++k) {
    SCOPED_TRACE(::testing::Message() << "iteration " << k);
    const std::uint64_t kept = model.resident_bytes();
    if (k > 0) {
      EXPECT_GT(kept, 0u);
    }
    EXPECT_EQ(s.per_iteration[k].bytes_fetched, payload - kept);
    model.pass(nonempty);
  }
  EXPECT_GT(s.tiles_from_cache, 0u);
  EXPECT_EQ(s.tiles_from_disk + s.tiles_from_cache,
            kIters * nonempty.size());
  EXPECT_EQ(s.bytes_copied_to_pool, 0u);
  const auto want = algo::ref_pagerank(el, kIters);
  ASSERT_EQ(pr.ranks().size(), want.size());
  for (std::size_t v = 0; v < want.size(); ++v)
    ASSERT_NEAR(pr.ranks()[v], want[v], 1e-4) << "vertex " << v;

  // Selective fetch: BFS rewinds whichever resident tiles its frontier
  // needs, and its depths stay exact.
  algo::TileBfs bfs(0);
  const EngineStats b = ScrEngine(store, cfg).run(bfs);
  EXPECT_GT(b.tiles_from_cache, 0u);
  EXPECT_EQ(bfs.depth(), algo::ref_bfs(el, 0));

  // The base policy keeps nothing across iterations.
  EngineConfig base = cfg;
  base.rewind = false;
  algo::TilePageRank pr_base(popt);
  const EngineStats r = ScrEngine(store, base).run(pr_base);
  EXPECT_EQ(r.tiles_from_cache, 0u);
  for (const IterationStats& it : r.per_iteration)
    EXPECT_EQ(it.bytes_fetched, payload);
  EXPECT_EQ(r.bytes_read, kIters * payload);
}

// Range-exclusive waves (store/chunking.h) give every vertex range its
// tiles in dispatch order whatever the thread count. PageRank's float sums
// are therefore bit-identical at 1, 2 and 4 threads in both schedules, at a
// stream size that forces eviction and at one that holds the store.
TEST(ScrEngine, WavedPageRankIsBitIdenticalAcrossThreadCounts) {
  const auto set_threads = [](int t) {
#ifdef _OPENMP
    omp_set_num_threads(t);
#else
    (void)t;
#endif
  };
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#else
  const int threads = 1;
#endif
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 6;
  auto store = gstore::testing::make_store(
      dir, graph::kronecker(11, 16, GraphKind::kUndirected, 5), o);
  for (const std::uint64_t memory : {std::uint64_t{64} << 10,
                                     std::uint64_t{64} << 20}) {
    for (const ScheduleMode mode : {ScheduleMode::kGrid,
                                    ScheduleMode::kPriority}) {
      EngineConfig cfg;
      cfg.stream_memory_bytes = memory;
      cfg.segment_bytes = std::min<std::uint64_t>(memory / 4, 1 << 20);
      cfg.schedule = mode;
      std::vector<float> ranks1;
      for (const int t : {1, 2, 4}) {
        SCOPED_TRACE(::testing::Message()
                     << "memory=" << memory << " priority="
                     << (mode == ScheduleMode::kPriority) << " threads=" << t);
        set_threads(t);
        algo::PageRankOptions popt;
        popt.max_iterations = 5;
        algo::TilePageRank pr(popt);
        ScrEngine(store, cfg).run(pr);
        if (t == 1) {
          ranks1 = pr.ranks();
          continue;
        }
        ASSERT_EQ(pr.ranks().size(), ranks1.size());
        EXPECT_EQ(std::memcmp(pr.ranks().data(), ranks1.data(),
                              ranks1.size() * sizeof(float)),
                  0);
      }
    }
  }
  set_threads(threads);
}

}  // namespace
}  // namespace gstore::store
