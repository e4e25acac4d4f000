#include "store/caching_policy.h"

#include <cstdint>
#include <vector>

namespace gstore::store {

namespace {

class NonePolicy final : public CachingPolicy {
 public:
  void admit(CachePool&, const Segment&, const tile::Grid&,
             const TileAlgorithm&) override {}
  void analyze(CachePool&, const tile::Grid&, const TileAlgorithm&) override {}
};

class LruPolicy final : public CachingPolicy {
 public:
  // Caches everything; recency decides the evictions.
  void admit(CachePool& pool, const Segment& seg, const tile::Grid&,
             const TileAlgorithm&) override {
    for (const auto& slot : seg.slots()) {
      if (slot.bytes > pool.free_bytes()) {
        pool.evict_lru(slot.bytes);
        if (slot.bytes > pool.free_bytes()) continue;
      }
      pool.insert_pinned(slot.layout_idx, seg.pin_slot(slot), slot.bytes);
    }
  }
  void analyze(CachePool&, const tile::Grid&, const TileAlgorithm&) override {}
};

class ProactivePolicy final : public CachingPolicy {
 public:
  void admit(CachePool& pool, const Segment& seg, const tile::Grid& grid,
             const TileAlgorithm& algo) override {
    bool swept = false;
    for (const auto& slot : seg.slots()) {
      const tile::TileCoord c = grid.coord_at(slot.layout_idx);
      if (!algo.tile_useful_next(c.i, c.j)) continue;
      if (slot.bytes > pool.free_bytes()) {
        // Make room by dropping only entries the oracle has ruled out; we
        // never evict useful data for equally-useful data (disk order
        // means the incumbent would be needed sooner next iteration anyway,
        // thanks to rewind). One sweep per call suffices (see the header).
        if (!swept) {
          analyze(pool, grid, algo);
          swept = true;
        }
        if (slot.bytes > pool.free_bytes()) continue;
      }
      pool.insert_pinned(slot.layout_idx, seg.pin_slot(slot), slot.bytes);
    }
  }

  void analyze(CachePool& pool, const tile::Grid& grid,
               const TileAlgorithm& algo) override {
    // Two passes because for_each_entry holds the pool lock: collect the
    // ruled-out tiles first (reused scratch, no per-call allocation), then
    // drop them.
    victims_.clear();
    pool.for_each_entry([&](const CachePool::Entry& e) {
      const tile::TileCoord c = grid.coord_at(e.layout_idx);
      if (!algo.tile_useful_next(c.i, c.j)) victims_.push_back(e.layout_idx);
    });
    for (const std::uint64_t idx : victims_) pool.erase(idx);
  }

 private:
  std::vector<std::uint64_t> victims_;
};

}  // namespace

std::unique_ptr<CachingPolicy> CachingPolicy::make(CachePolicyKind kind) {
  switch (kind) {
    case CachePolicyKind::kProactive: return std::make_unique<ProactivePolicy>();
    case CachePolicyKind::kLru: return std::make_unique<LruPolicy>();
    case CachePolicyKind::kNone: return std::make_unique<NonePolicy>();
  }
  return std::make_unique<ProactivePolicy>();
}

}  // namespace gstore::store
