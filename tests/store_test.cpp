#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <numeric>
#include <set>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "algo/atomics.h"
#include "graph/generator.h"
#include "io/file.h"
#include "store/cache_pool.h"
#include "store/caching_policy.h"
#include "store/chunking.h"
#include "store/memory_budget.h"
#include "store/segment.h"
#include "store/tile_stream.h"
#include "tile/convert.h"
#include "util/status.h"

namespace gstore::store {
namespace {

// A refcounted buffer of n bytes, pinned whole the way a segment slice is.
BufferPin bytes(std::size_t n, std::uint8_t fill) {
  auto owner = std::make_shared<std::vector<std::uint8_t>>(n, fill);
  return BufferPin(owner, owner->data());
}

// ---- MemoryBudget ---------------------------------------------------------

TEST(MemoryBudget, SplitsPoolFromSegments) {
  const auto b = MemoryBudget::compute(100, 20);
  EXPECT_EQ(b.segment_bytes, 20u);
  EXPECT_EQ(b.pool_bytes, 60u);
}

TEST(MemoryBudget, ShrinksSegmentsWhenTight) {
  const auto b = MemoryBudget::compute(30, 20);
  EXPECT_EQ(b.segment_bytes, 15u);
  EXPECT_EQ(b.pool_bytes, 0u);
}

TEST(MemoryBudget, RejectsZero) {
  EXPECT_THROW(MemoryBudget::compute(0, 1), Error);
  EXPECT_THROW(MemoryBudget::compute(1, 0), Error);
}

// ---- Segment ----------------------------------------------------------------

TEST(Segment, PacksTilesUntilFull) {
  Segment s(100);
  EXPECT_TRUE(s.try_add(0, 40));
  EXPECT_TRUE(s.try_add(1, 40));
  EXPECT_FALSE(s.try_add(2, 40));  // would exceed capacity
  EXPECT_TRUE(s.try_add(2, 20));
  EXPECT_EQ(s.used(), 100u);
  ASSERT_EQ(s.slots().size(), 3u);
  EXPECT_EQ(s.slots()[1].offset, 40u);
  EXPECT_EQ(s.slots()[2].layout_idx, 2u);
}

TEST(Segment, ClearResets) {
  Segment s(64);
  s.try_add(0, 32);
  s.clear();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.used(), 0u);
  EXPECT_TRUE(s.try_add(5, 64));
}

TEST(Segment, EnsureCapacityGrowsForOversizedTile) {
  Segment s(16);
  s.ensure_capacity(1024);
  EXPECT_GE(s.capacity(), 1024u);
  EXPECT_TRUE(s.try_add(0, 1024));
  // Data is writable across the grown buffer.
  std::memset(s.slot_data(s.slots()[0]), 0x5a, 1024);
}

// ---- CachePool ---------------------------------------------------------

TEST(CachePool, InsertWithinBudget) {
  CachePool pool(100);
  const auto d = bytes(40, 1);
  EXPECT_TRUE(pool.insert_pinned(7, d, 40));
  EXPECT_TRUE(pool.contains(7));
  EXPECT_EQ(pool.used(), 40u);
  EXPECT_EQ(pool.free_bytes(), 60u);
}

TEST(CachePool, RejectsWhenFull) {
  CachePool pool(50);
  const auto d = bytes(40, 1);
  EXPECT_TRUE(pool.insert_pinned(1, d, 40));
  EXPECT_FALSE(pool.insert_pinned(2, d, 40));
  EXPECT_FALSE(pool.contains(2));
}

TEST(CachePool, ReplaceSameTile) {
  CachePool pool(100);
  const auto a = bytes(40, 1);
  const auto b = bytes(60, 2);
  EXPECT_TRUE(pool.insert_pinned(3, a, 40));
  EXPECT_TRUE(pool.insert_pinned(3, b, 60));
  EXPECT_EQ(pool.used(), 60u);
  EXPECT_EQ(pool.tile_count(), 1u);
  EXPECT_EQ(pool.entries()[0].bytes, 60u);
  EXPECT_EQ(pool.entries()[0].data[0], 2);
}

TEST(CachePool, EraseFreesBudget) {
  CachePool pool(100);
  const auto d = bytes(70, 1);
  pool.insert_pinned(1, d, 70);
  EXPECT_EQ(pool.erase(1), 70u);
  EXPECT_EQ(pool.erase(1), 0u);
  EXPECT_EQ(pool.used(), 0u);
}

TEST(CachePool, EntriesInLayoutOrder) {
  CachePool pool(1000);
  const auto d = bytes(10, 0);
  pool.insert_pinned(9, d, 10);
  pool.insert_pinned(2, d, 10);
  pool.insert_pinned(5, d, 10);
  const auto entries = pool.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].layout_idx, 2u);
  EXPECT_EQ(entries[1].layout_idx, 5u);
  EXPECT_EQ(entries[2].layout_idx, 9u);
}

TEST(CachePool, LruEvictionEvictsColdest) {
  CachePool pool(100);
  const auto d = bytes(30, 0);
  pool.insert_pinned(1, d, 30);
  pool.insert_pinned(2, d, 30);
  pool.insert_pinned(3, d, 30);
  pool.touch(1);  // 2 is now coldest
  pool.evict_lru(30);
  EXPECT_TRUE(pool.contains(1));
  EXPECT_FALSE(pool.contains(2));
  EXPECT_TRUE(pool.contains(3));
}

TEST(CachePool, LruEvictionFreesNeededBytes) {
  CachePool pool(100);
  const auto d = bytes(10, 0);
  for (std::uint64_t idx = 0; idx < 10; ++idx) pool.insert_pinned(idx, d, 10);
  pool.touch(0);  // 1, 2, 3 are now the coldest
  EXPECT_EQ(pool.evict_lru(30), 30u);
  EXPECT_EQ(pool.free_bytes(), 30u);
  EXPECT_EQ(pool.tile_count(), 7u);
  EXPECT_TRUE(pool.contains(0));
  EXPECT_FALSE(pool.contains(1));
  EXPECT_FALSE(pool.contains(3));
  EXPECT_TRUE(pool.contains(4));
}

TEST(CachePool, PinKeepsDataAlive) {
  CachePool pool(100);
  auto d = bytes(8, 0xaa);
  pool.insert_pinned(0, d, 8);
  d.reset();  // drop the caller's reference after insertion
  EXPECT_EQ(pool.entries()[0].data[0], 0xaa);
}

TEST(CachePool, ZeroBudgetAcceptsNothing) {
  CachePool pool(0);
  const auto d = bytes(1, 0);
  EXPECT_FALSE(pool.insert_pinned(0, d, 1));
}

// ---- zero-copy pinning ------------------------------------------------------

TEST(Segment, BeginFillReusesBufferWhenUnpinned) {
  Segment s(64);
  s.try_add(0, 16);
  const std::uint8_t* before = s.data();
  s.begin_fill();
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.data(), before);
  EXPECT_EQ(s.buffer_refreshes(), 0u);
}

TEST(Segment, BeginFillRefreshesBufferWhilePinned) {
  Segment s(64);
  ASSERT_TRUE(s.try_add(0, 16));
  std::memset(s.slot_data(s.slots()[0]), 0xab, 16);
  const BufferPin pin = s.pin_slot(s.slots()[0]);
  const std::uint8_t* old_buf = s.data();
  s.begin_fill();
  EXPECT_NE(s.data(), old_buf);
  EXPECT_EQ(s.buffer_refreshes(), 1u);
  // Scribbling over the fresh buffer must not disturb the pinned slice.
  ASSERT_TRUE(s.try_add(1, 16));
  std::memset(s.slot_data(s.slots()[0]), 0x11, 16);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(pin.get()[i], 0xab);
}

// ASan regression: the pinned slice must keep the backing buffer alive even
// after the segment itself is gone (a use-after-free here is exactly the bug
// the refcounted design exists to prevent).
TEST(Segment, PinOutlivesSegment) {
  BufferPin pin;
  {
    Segment s(32);
    ASSERT_TRUE(s.try_add(0, 8));
    std::memset(s.slot_data(s.slots()[0]), 0xcd, 8);
    pin = s.pin_slot(s.slots()[0]);
  }
  for (int i = 0; i < 8; ++i) ASSERT_EQ(pin.get()[i], 0xcd);
}

TEST(Segment, PinSurvivesEnsureCapacityReplacement) {
  Segment s(16);
  ASSERT_TRUE(s.try_add(0, 8));
  std::memset(s.slot_data(s.slots()[0]), 0x42, 8);
  const BufferPin pin = s.pin_slot(s.slots()[0]);
  s.clear();
  s.ensure_capacity(4096);  // replaces the buffer; the pin holds the old one
  ASSERT_TRUE(s.try_add(1, 4096));
  std::memset(s.slot_data(s.slots()[0]), 0x00, 4096);
  for (int i = 0; i < 8; ++i) ASSERT_EQ(pin.get()[i], 0x42);
}

TEST(CachePool, InsertPinnedIsZeroCopy) {
  Segment s(64);
  ASSERT_TRUE(s.try_add(0, 16));
  std::memset(s.slot_data(s.slots()[0]), 0x7e, 16);
  CachePool pool(100);
  EXPECT_TRUE(pool.insert_pinned(4, s.pin_slot(s.slots()[0]), 16));
  EXPECT_EQ(pool.used(), 16u);
  // Zero-copy means the pool serves the segment's own bytes.
  EXPECT_EQ(pool.entries()[0].data, s.data());
}

TEST(CachePool, ErasedPinReleasesBuffer) {
  Segment s(64);
  ASSERT_TRUE(s.try_add(0, 16));
  CachePool pool(100);
  ASSERT_TRUE(pool.insert_pinned(0, s.pin_slot(s.slots()[0]), 16));
  pool.erase(0);
  // With the pin dropped, begin_fill can reuse the buffer in place.
  s.begin_fill();
  EXPECT_EQ(s.buffer_refreshes(), 0u);
}

TEST(CachePool, ForEachEntryMatchesEntries) {
  CachePool pool(1000);
  const auto d = bytes(10, 3);
  pool.insert_pinned(9, d, 10);
  pool.insert_pinned(2, d, 10);
  std::vector<CachePool::Entry> seen;
  pool.for_each_entry([&](const CachePool::Entry& e) { seen.push_back(e); });
  const auto snapshot = pool.entries();
  ASSERT_EQ(seen.size(), snapshot.size());
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i].layout_idx, snapshot[i].layout_idx);
    EXPECT_EQ(seen[i].data, snapshot[i].data);
    EXPECT_EQ(seen[i].bytes, snapshot[i].bytes);
  }
}

// ---- policies ------------------------------------------------------------

// Minimal algorithm stub exposing a controllable oracle.
class StubAlgo final : public TileAlgorithm {
 public:
  std::string name() const override { return "stub"; }
  void init(const tile::TileStore&) override {}
  void begin_iteration(std::uint32_t) override {}
  void process_tile(const tile::TileView&) override {}
  bool end_iteration(std::uint32_t) override { return false; }
  bool tile_useful_next(std::uint32_t i, std::uint32_t) const override {
    ++oracle_calls;
    return useful_rows.empty() || useful_rows.count(i) > 0;
  }
  std::set<std::uint32_t> useful_rows;  // empty = everything useful
  mutable std::size_t oracle_calls = 0;
};

// A processed segment holding one `bytes`-sized slot per tile, in order.
Segment segment_of(const std::vector<std::uint64_t>& tiles,
                   std::uint64_t bytes) {
  Segment seg(tiles.size() * bytes);
  for (const std::uint64_t idx : tiles) seg.try_add(idx, bytes);
  return seg;
}

std::vector<std::uint64_t> pooled_tiles(const CachePool& pool) {
  std::vector<std::uint64_t> out;
  for (const auto& e : pool.entries()) out.push_back(e.layout_idx);
  return out;
}

TEST(CachingPolicy, NoneNeverCaches) {
  auto p = CachingPolicy::make(CachePolicyKind::kNone);
  StubAlgo algo;
  tile::Grid grid(16 * 4, false, 4, 1);
  CachePool pool(100);
  p->admit(pool, segment_of({grid.layout_index(0, 0)}, 10), grid, algo);
  EXPECT_EQ(pool.tile_count(), 0u);
}

TEST(CachingPolicy, LruAlwaysCachesAndEvicts) {
  auto p = CachingPolicy::make(CachePolicyKind::kLru);
  StubAlgo algo;
  algo.useful_rows = {3};  // LRU ignores the oracle
  tile::Grid grid(16 * 4, false, 4, 1);
  CachePool pool(50);
  const auto d = bytes(40, 0);
  pool.insert_pinned(grid.layout_index(1, 0), d, 40);
  p->admit(pool, segment_of({grid.layout_index(0, 0)}, 40), grid, algo);
  EXPECT_EQ(pooled_tiles(pool),
            std::vector<std::uint64_t>{grid.layout_index(0, 0)});
}

TEST(CachingPolicy, ProactiveConsultsOracle) {
  auto p = CachingPolicy::make(CachePolicyKind::kProactive);
  StubAlgo algo;
  algo.useful_rows = {2};
  tile::Grid grid(16 * 4, false, 4, 1);
  CachePool pool(100);
  p->admit(pool,
           segment_of({grid.layout_index(1, 3), grid.layout_index(2, 3)}, 10),
           grid, algo);
  EXPECT_EQ(pooled_tiles(pool),
            std::vector<std::uint64_t>{grid.layout_index(2, 3)});
}

TEST(CachingPolicy, ProactiveAnalyzeEvictsRuledOutTiles) {
  auto p = CachingPolicy::make(CachePolicyKind::kProactive);
  StubAlgo algo;
  tile::Grid grid(16 * 8, false, 4, 1);  // p = 8, rows 0..7
  CachePool pool(1000);
  const auto d = bytes(10, 0);
  // Insert tiles from rows 0..7 (layout index of (i,0) in a p=8 full grid).
  for (std::uint32_t i = 0; i < 8; ++i)
    pool.insert_pinned(grid.layout_index(i, 0), d, 10);
  algo.useful_rows = {1, 4};
  p->analyze(pool, grid, algo);
  EXPECT_EQ(pool.tile_count(), 2u);
  EXPECT_TRUE(pool.contains(grid.layout_index(1, 0)));
  EXPECT_TRUE(pool.contains(grid.layout_index(4, 0)));
}

TEST(CachingPolicy, ProactiveMakeRoomOnlyDropsUseless) {
  auto p = CachingPolicy::make(CachePolicyKind::kProactive);
  StubAlgo algo;
  tile::Grid grid(16 * 4, false, 4, 1);
  CachePool pool(30);
  const auto d = bytes(10, 0);
  pool.insert_pinned(grid.layout_index(0, 0), d, 10);
  pool.insert_pinned(grid.layout_index(1, 0), d, 10);
  pool.insert_pinned(grid.layout_index(2, 0), d, 10);
  const Segment seg = segment_of({grid.layout_index(3, 0)}, 10);
  algo.useful_rows = {0, 1, 2, 3};  // everything still useful
  p->admit(pool, seg, grid, algo);
  EXPECT_EQ(pool.tile_count(), 3u);  // nothing sacrificed
  EXPECT_FALSE(pool.contains(grid.layout_index(3, 0)));
  algo.useful_rows = {0, 3};  // rows 1 and 2 ruled out
  p->admit(pool, seg, grid, algo);
  EXPECT_EQ(pooled_tiles(pool),
            (std::vector<std::uint64_t>{grid.layout_index(0, 0),
                                        grid.layout_index(3, 0)}));
}

// Reference CACHE step: proactive admission decided slot by slot, sweeping
// the pool again for every useful slot that does not fit.
void admit_per_slot(CachingPolicy& p, CachePool& pool, const Segment& seg,
                    const tile::Grid& grid, const TileAlgorithm& algo) {
  for (const auto& slot : seg.slots()) {
    const tile::TileCoord c = grid.coord_at(slot.layout_idx);
    if (!algo.tile_useful_next(c.i, c.j)) continue;
    if (slot.bytes > pool.free_bytes()) {
      p.analyze(pool, grid, algo);
      if (slot.bytes > pool.free_bytes()) continue;
    }
    pool.insert_pinned(slot.layout_idx, seg.pin_slot(slot), slot.bytes);
  }
}

TEST(CachingPolicy, ProactiveAdmitSweepsOncePerSegment) {
  tile::Grid grid(16 * 8, false, 4, 1);  // p = 8
  constexpr std::size_t kP = 8;           // pooled tiles, column 0
  constexpr std::size_t kS = 8;           // segment slots, column 1
  std::vector<std::uint64_t> slots;
  for (std::uint32_t i = 0; i < kS; ++i) slots.push_back(grid.layout_index(i, 1));
  const Segment seg = segment_of(slots, 10);

  // Case 1: a full pool of useful tiles and a segment of useful slots that
  // do not fit. Case 2: the oracle rules out rows 1 and 4, so their pooled
  // tiles go, and later useful slots fill the room they leave.
  for (const auto& useful : {std::set<std::uint32_t>{},
                             std::set<std::uint32_t>{0, 2, 3, 5, 6, 7}}) {
    auto p = CachingPolicy::make(CachePolicyKind::kProactive);
    auto ref_p = CachingPolicy::make(CachePolicyKind::kProactive);
    StubAlgo algo;
    algo.useful_rows = useful;
    CachePool pool(kP * 10);
    CachePool ref(kP * 10);
    const auto d = bytes(10, 0);
    for (std::uint32_t i = 0; i < kP; ++i) {
      pool.insert_pinned(grid.layout_index(i, 0), d, 10);
      ref.insert_pinned(grid.layout_index(i, 0), d, 10);
    }
    p->admit(pool, seg, grid, algo);
    EXPECT_LE(algo.oracle_calls, kS + kP);
    admit_per_slot(*ref_p, ref, seg, grid, algo);
    EXPECT_EQ(pooled_tiles(pool), pooled_tiles(ref));
    if (useful.empty()) continue;
    EXPECT_EQ(pool.tile_count(), kP);
    EXPECT_FALSE(pool.contains(grid.layout_index(1, 0)));
    EXPECT_FALSE(pool.contains(grid.layout_index(4, 0)));
    EXPECT_TRUE(pool.contains(grid.layout_index(0, 1)));
    EXPECT_TRUE(pool.contains(grid.layout_index(2, 1)));
    EXPECT_FALSE(pool.contains(grid.layout_index(3, 1)));
  }
}

// ---- TileStream residency ------------------------------------------------

std::vector<std::uint64_t> resident_tiles(const TileStream& stream) {
  std::vector<std::uint64_t> out;
  stream.for_each_resident([&](const Segment&, const TileSlot& slot) {
    out.push_back(slot.layout_idx);
  });
  return out;
}

// After a clean slide the two segments keep the last tiles they loaded (the
// tail of the fetch list). A slide that fails past the retry budget, or
// whose callback throws, must leave nothing resident: a half-filled segment
// holds partial bytes, and REWIND must never process those.
TEST(TileStream, FailedSlideLeavesNoResidentTiles) {
  io::TempDir dir;
  tile::ConvertOptions o;
  o.tile_bits = 5;
  const std::string base = dir.file("g");
  tile::convert_to_tiles(
      graph::kronecker(9, 6, graph::GraphKind::kUndirected, 5), base, o);
  constexpr std::uint64_t kSegment = 512;
  const auto ignore = [](const Segment&, std::size_t) {};

  // The reads of one clean slide, so the fault can be aimed past them.
  std::vector<std::uint64_t> fetch;
  std::uint64_t reads = 0;
  {
    auto clean = tile::TileStore::open(base);
    for (std::uint64_t k = 0; k < clean.grid().tile_count(); ++k)
      if (clean.tile_bytes(k) != 0) fetch.push_back(k);
    ASSERT_GT(clean.bytes_of_range(0, clean.grid().tile_count()),
              4 * std::max<std::uint64_t>(kSegment, clean.max_tile_bytes()));
    TileStream stream(clean, kSegment);
    clean.device().reset_stats();
    stream.slide(fetch, 0, ignore);
    reads = clean.device().stats().read_ops;
  }

  // Read 1 is the store header; the first read of the second slide fails,
  // with no retry budget in the async workers or in the stream.
  io::DeviceConfig dev;
  dev.fault_spec = "eio-nth=" + std::to_string(reads + 2);
  dev.retry.max_retries = 0;
  auto store = tile::TileStore::open(base, dev);
  TileStream stream(store, kSegment, /*overlap_io=*/true,
                    /*read_retry_budget=*/0);
  stream.slide(fetch, 0, ignore);
  const std::vector<std::uint64_t> kept = resident_tiles(stream);
  ASSERT_FALSE(kept.empty());
  ASSERT_LT(kept.size(), fetch.size());
  EXPECT_TRUE(std::equal(kept.begin(), kept.end(),
                         fetch.end() - static_cast<std::ptrdiff_t>(kept.size())));
  // An empty fetch list loads nothing and keeps the residents.
  stream.slide({}, 0, ignore);
  EXPECT_EQ(resident_tiles(stream), kept);

  EXPECT_THROW(stream.slide(fetch, 0, ignore), IoError);
  EXPECT_TRUE(resident_tiles(stream).empty());
  std::vector<io::Completion> none;
  EXPECT_EQ(store.device().poll(0, 64, none), 0u);

  // The fault is spent: the stream recovers, and a throwing callback drops
  // the residents the same way.
  stream.slide(fetch, 0, ignore);
  EXPECT_EQ(resident_tiles(stream), kept);
  EXPECT_THROW(stream.slide(fetch, 0,
                            [](const Segment&, std::size_t) {
                              throw FormatError("bad tile");
                            }),
               FormatError);
  EXPECT_TRUE(resident_tiles(stream).empty());
}

// ---- tile executor: range-exclusive waves ----------------------------------

// Checks the plan of `tiles` against its definition, independently of
// waves_disjoint(): every task lands in exactly one wave, no two tiles of a
// wave share a vertex range (a diagonal tile holds its one range once), and
// each range meets its tiles in input order, one wave after another.
void expect_valid_waves(const std::vector<tile::TileCoord>& tiles,
                        const std::vector<std::uint64_t>& costs) {
  WavePlan plan;
  std::vector<Chunk> chunks;
  plan.tiles = tiles;
  plan_waves(costs, plan, chunks);
  const std::size_t n = tiles.size();

  std::vector<std::size_t> wave_of(n, ~std::size_t{0});
  std::vector<int> seen(n, 0);
  std::size_t covered = 0;
  for (std::size_t w = 0; w < plan.wave_count(); ++w) {
    ASSERT_LT(plan.wave_chunks[w], plan.wave_chunks[w + 1]) << "empty wave";
    std::set<std::uint32_t> ranges;
    for (std::size_t c = plan.wave_chunks[w]; c < plan.wave_chunks[w + 1];
         ++c) {
      // Chunks tile `order` contiguously.
      ASSERT_EQ(chunks[c].begin, covered);
      ASSERT_LT(chunks[c].begin, chunks[c].end);
      covered = chunks[c].end;
      for (std::size_t t = chunks[c].begin; t < chunks[c].end; ++t) {
        const std::size_t k = plan.order[t];
        ASSERT_LT(k, n);
        ++seen[k];
        wave_of[k] = w;
        const tile::TileCoord c2 = tiles[k];
        EXPECT_TRUE(ranges.insert(c2.i).second)
            << "wave " << w << " reuses range " << c2.i;
        if (c2.j != c2.i) {
          EXPECT_TRUE(ranges.insert(c2.j).second)
              << "wave " << w << " reuses range " << c2.j;
        }
      }
    }
  }
  EXPECT_EQ(covered, n);
  for (std::size_t k = 0; k < n; ++k) EXPECT_EQ(seen[k], 1) << "task " << k;

  // Each range meets its tiles in input order, one wave after another.
  std::map<std::uint32_t, std::size_t> last_wave;
  for (std::size_t k = 0; k < n; ++k) {
    const std::set<std::uint32_t> touched{tiles[k].i, tiles[k].j};
    for (const std::uint32_t r : touched) {
      const auto it = last_wave.find(r);
      if (it != last_wave.end()) {
        EXPECT_GT(wave_of[k], it->second)
            << "range " << r << " met task " << k << " out of order";
      }
      last_wave[r] = wave_of[k];
    }
  }
  EXPECT_TRUE(waves_disjoint(plan, chunks));
}

TEST(TileExecutor, WavesOfALayoutOrderGridAreRangeExclusive) {
  for (const bool symmetric : {true, false}) {
    SCOPED_TRACE(symmetric ? "symmetric" : "directed");
    const tile::Grid grid(graph::vid_t{1} << 10, symmetric, /*tile_bits=*/6,
                          /*group_side=*/4);
    std::vector<tile::TileCoord> tiles;
    std::vector<std::uint64_t> costs;
    for (std::uint64_t idx = 0; idx < grid.tile_count(); ++idx) {
      tiles.push_back(grid.coord_at(idx));
      costs.push_back(idx % 7 == 0 ? 20000 : 100);  // a few heavy tiles
    }
    expect_valid_waves(tiles, costs);
    // Every range is touched by p tiles, so no plan has fewer waves.
    WavePlan plan;
    std::vector<Chunk> chunks;
    plan.tiles = tiles;
    plan_waves(costs, plan, chunks);
    EXPECT_GE(plan.wave_count(), grid.p());
  }
}

TEST(TileExecutor, WavesOfArbitraryDispatchesAreRangeExclusive) {
  // Random subsets in random order, diagonal tiles and repeats included.
  std::uint64_t x = 0x9e3779b97f4a7c15ull;
  const auto next = [&x](std::uint32_t bound) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<std::uint32_t>(x % bound);
  };
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint32_t ranges = 1 + next(40);
    const std::size_t n = next(300);
    std::vector<tile::TileCoord> tiles;
    std::vector<std::uint64_t> costs;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t i = next(ranges);
      tiles.push_back({i, next(4) == 0 ? i : next(ranges)});
      costs.push_back(next(10000));
    }
    SCOPED_TRACE(::testing::Message() << "trial " << trial);
    expect_valid_waves(tiles, costs);
  }
  expect_valid_waves({}, {});
}

TEST(TileExecutor, DisjointnessCheckCatchesASharedRange) {
  WavePlan plan;
  std::vector<Chunk> chunks;
  plan.tiles = {{0, 1}, {2, 3}, {1, 2}};
  plan_waves({1, 1, 1}, plan, chunks);
  ASSERT_TRUE(waves_disjoint(plan, chunks));
  ASSERT_EQ(plan.wave_count(), 2u);
  // Fold the second wave into the first: (1, 2) then meets (0, 1).
  plan.wave_chunks = {0, chunks.size()};
  EXPECT_FALSE(waves_disjoint(plan, chunks));
  // A diagonal tile shares its range with a neighbour the same way.
  plan.tiles = {{4, 4}, {4, 5}};
  plan_waves({1, 1}, plan, chunks);
  ASSERT_EQ(plan.wave_count(), 2u);
  plan.wave_chunks = {0, chunks.size()};
  EXPECT_FALSE(waves_disjoint(plan, chunks));
}

// Runs the executor over `n` tasks and returns, per task, whether its body
// saw the atomics helpers' concurrent path.
std::vector<std::uint8_t> concurrent_per_task(std::size_t n, bool waved) {
  std::vector<std::uint64_t> costs(n, 5000);  // one chunk per task
  std::vector<Chunk> chunks;
  WavePlan plan;
  for (std::size_t k = 0; k < n; ++k)
    plan.tiles.push_back({static_cast<std::uint32_t>(2 * k),
                          static_cast<std::uint32_t>(2 * k + 1)});
  std::vector<std::uint8_t> concurrent(n, 2);
  parallel_for_costs(
      costs, chunks,
      [&](std::size_t k) {
        concurrent[k] = algo::concurrent_execution() ? 1 : 0;
      },
      waved ? &plan : nullptr);
  return concurrent;
}

// The helpers' plain-or-atomic answer follows the team the kernel runs in
// now. A process that runs one thread first and raises the count later must
// get the atomic path in its later cost-chunked regions, and waves stay
// plain at any count.
TEST(TileExecutor, ExclusiveFlagFollowsTheCurrentTeam) {
  constexpr std::size_t kTasks = 64;
  EXPECT_FALSE(algo::concurrent_execution());  // outside any region
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
  omp_set_num_threads(1);
  for (const std::uint8_t c : concurrent_per_task(kTasks, false))
    EXPECT_EQ(c, 0);
  omp_set_num_threads(4);
  const std::vector<std::uint8_t> multi = concurrent_per_task(kTasks, false);
  for (const std::uint8_t c : multi) EXPECT_EQ(c, 1);
  for (const std::uint8_t c : concurrent_per_task(kTasks, true))
    EXPECT_EQ(c, 0);
  omp_set_num_threads(threads);
#else
  for (const bool waved : {false, true})
    for (const std::uint8_t c : concurrent_per_task(kTasks, waved))
      EXPECT_EQ(c, 0);
#endif
  // Each region restores the caller's flag.
  EXPECT_FALSE(algo::concurrent_execution());
}

// A throwing task surfaces on the caller in wave mode too; every other task
// still runs once.
TEST(TileExecutor, WaveModeRethrowsTheFirstError) {
  std::vector<std::uint64_t> costs(32, 5000);
  std::vector<Chunk> chunks;
  WavePlan plan;
  for (std::uint32_t k = 0; k < 32; ++k) plan.tiles.push_back({k % 4, k % 4});
  std::vector<std::atomic<int>> runs(32);
  EXPECT_THROW(parallel_for_costs(
                   costs, chunks,
                   [&](std::size_t k) {
                     runs[k].fetch_add(1);
                     if (k == 9) throw FormatError("bad tile");
                   },
                   &plan),
               FormatError);
  for (auto& r : runs) EXPECT_EQ(r.load(), 1);
}

}  // namespace
}  // namespace gstore::store
