// Pluggable caching policies for the SCR engine.
//
// kProactive is the paper's contribution (§VI-C): cache exactly the tiles the
// algorithm's metadata says might be needed next iteration, evicting entries
// the oracle has since ruled out. kLru is the FlashGraph-style baseline the
// paper argues against; kNone is pure streaming (X-Stream-style, and the
// "base policy" of Fig 13 when combined with rewind=off).
//
// The CACHE step is one admit() call per processed segment. It runs after
// the segment's kernels have joined and before the next segment's start, so
// no kernel runs during it and the tile_useful_next oracle is constant for
// the whole call. That is why proactive sweeps the pool at most once per
// call: after one sweep every pooled entry is useful next, and so is every
// tile admitted since, so a second sweep could find no victim.
#pragma once

#include <memory>

#include "store/algorithm.h"
#include "store/cache_pool.h"
#include "store/segment.h"
#include "tile/grid.h"

namespace gstore::store {

enum class CachePolicyKind { kProactive, kLru, kNone };

class CachingPolicy {
 public:
  virtual ~CachingPolicy() = default;

  // The CACHE step for one processed segment: pins the slots the policy
  // keeps into `pool`, in slot order, evicting as the policy allows.
  virtual void admit(CachePool& pool, const Segment& seg,
                     const tile::Grid& grid, const TileAlgorithm& algo) = 0;

  // Iteration-boundary analysis: drop entries the oracle now rules out
  // (proactive) or do nothing (LRU/None).
  virtual void analyze(CachePool& pool, const tile::Grid& grid,
                       const TileAlgorithm& algo) = 0;

  static std::unique_ptr<CachingPolicy> make(CachePolicyKind kind);
};

}  // namespace gstore::store
