// The one OpenMP tile executor: cost-balanced chunks, or range-exclusive
// waves.
//
// Half-open index ranges over a slot list, cut so each chunk carries roughly
// equal edge cost. Dynamic scheduling over these chunks replaces
// schedule(dynamic, 1) over raw slots: on a power-law tile grid the latter
// is either dispatch overhead (swarms of near-empty tiles) or load imbalance
// (one hub tile per work item with nothing to pair it against).
// parallel_for_costs() is the one OpenMP region every tile pass runs in —
// the SCR engine's cached, streamed and overlay-only passes and the serve
// scheduler's gang dispatches alike.
//
// Wave mode (docs/HOTPATH.md). Tile (i, j) touches only the vertex ranges
// i and j, so tiles whose ranges are disjoint can run at the same time with
// plain stores (GridGraph's column-exclusive streaming). plan_waves() walks
// the dispatch in its given order and puts each tile in wave
// w = max(next[i], next[j]), then sets next[i] = next[j] = w + 1: no two
// tiles of a wave share a range, and every range sees its tiles in input
// order. A waved dispatch is therefore equivalent to running its tiles one
// by one in input order — bit-identical at any thread count. Inside a wave
// the executor marks the thread's writes range-exclusive, which switches
// the algo/atomics.h helpers to their plain paths.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <vector>

#include "tile/grid.h"
#include "util/dcheck.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gstore::store {

struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

namespace detail {

// True while no other thread can write the metadata this thread's tile
// kernels touch: outside the executor's regions (the caller's thread runs
// alone), in a one-thread team, and inside a wave. Each executor region
// sets it per thread and restores it on exit.
inline constinit thread_local bool t_writes_exclusive = true;

class ExclusiveWritesScope {
 public:
  explicit ExclusiveWritesScope(bool exclusive) noexcept
      : saved_(t_writes_exclusive) {
    t_writes_exclusive = exclusive;
  }
  ~ExclusiveWritesScope() { t_writes_exclusive = saved_; }
  ExclusiveWritesScope(const ExclusiveWritesScope&) = delete;
  ExclusiveWritesScope& operator=(const ExclusiveWritesScope&) = delete;

 private:
  bool saved_;
};

inline int team_threads() noexcept {
#ifdef _OPENMP
  return omp_get_num_threads();
#else
  return 1;
#endif
}

inline int max_threads() noexcept {
#ifdef _OPENMP
  return omp_get_max_threads();
#else
  return 1;
#endif
}

// Appends chunks over the ordered tasks [first, last); cost(t) is the edge
// cost of task t. ~8 chunks per thread bound the dynamic-scheduling tail;
// `floor` keeps tiny tiles batched instead of dispatched one by one.
template <typename Cost>
void append_cost_chunks(std::size_t first, std::size_t last, Cost&& cost,
                        std::uint64_t floor, std::vector<Chunk>& out) {
  if (first == last) return;
  std::uint64_t total = 0;
  for (std::size_t t = first; t < last; ++t) total += cost(t);
  const std::uint64_t target = std::max<std::uint64_t>(
      total / (8ull * static_cast<unsigned>(max_threads())) + 1, floor);
  Chunk cur{first, first};
  std::uint64_t acc = 0;
  for (std::size_t t = first; t < last; ++t) {
    acc += cost(t);
    if (acc >= target) {
      cur.end = t + 1;
      out.push_back(cur);
      cur.begin = t + 1;
      acc = 0;
    }
  }
  if (cur.begin < last) {
    cur.end = last;
    out.push_back(cur);
  }
}

}  // namespace detail

// Whether this thread's tile-kernel writes are range-exclusive right now
// (see detail::t_writes_exclusive).
inline bool writes_exclusive() noexcept { return detail::t_writes_exclusive; }

inline void cost_chunks(const std::vector<std::uint64_t>& costs,
                        std::vector<Chunk>& out) {
  out.clear();
  detail::append_cost_chunks(
      0, costs.size(), [&](std::size_t k) { return costs[k]; }, 4096, out);
}

// A wave schedule of one dispatch. The caller fills `tiles` (the tile of
// task k, in dispatch order); plan_waves() fills the rest.
struct WavePlan {
  std::vector<tile::TileCoord> tiles;
  // Task indices grouped by wave, input order inside each wave.
  std::vector<std::size_t> order;
  // Wave w runs chunks[wave_chunks[w], wave_chunks[w + 1]); each chunk is a
  // range of `order`.
  std::vector<std::size_t> wave_chunks;
  std::vector<std::uint32_t> wave_of;  // wave of task k
  std::uint32_t ranges = 0;            // 1 + the largest range index
  std::vector<std::size_t> next;       // scratch: per range, then per wave

  std::size_t wave_count() const noexcept {
    return wave_chunks.empty() ? 0 : wave_chunks.size() - 1;
  }
};

// Plans the waves of `plan.tiles` and cuts each wave into chunks of
// `costs` (indexed by task), appended to `chunks` (cleared). A wave in
// layout order is narrow — every tile of a physical group meets one of the
// group's q row ranges, so a wave holds at most q tiles of one group — and
// its chunks are cut from the wave's own cost with no floor: a wave of a
// few small tiles must still spread over the team.
inline void plan_waves(const std::vector<std::uint64_t>& costs,
                       WavePlan& plan, std::vector<Chunk>& chunks) {
  const std::size_t n = plan.tiles.size();
  GSTORE_DCHECK_EQ(n, costs.size());
  plan.ranges = 0;
  for (const tile::TileCoord& c : plan.tiles)
    plan.ranges = std::max(plan.ranges, std::max(c.i, c.j) + 1);
  plan.next.assign(plan.ranges, 0);
  plan.wave_of.resize(n);
  std::size_t waves = 0;
  for (std::size_t k = 0; k < n; ++k) {
    const tile::TileCoord c = plan.tiles[k];
    const std::size_t w = std::max(plan.next[c.i], plan.next[c.j]);
    plan.next[c.i] = plan.next[c.j] = w + 1;
    plan.wave_of[k] = static_cast<std::uint32_t>(w);
    waves = std::max(waves, w + 1);
  }
  // Stable counting sort of the tasks by wave; `next` becomes each wave's
  // fill cursor.
  plan.next.assign(waves + 1, 0);
  for (std::size_t k = 0; k < n; ++k) ++plan.next[plan.wave_of[k] + 1];
  for (std::size_t w = 0; w < waves; ++w) plan.next[w + 1] += plan.next[w];
  plan.order.resize(n);
  for (std::size_t k = 0; k < n; ++k) plan.order[plan.next[plan.wave_of[k]]++] = k;
  // next[w] now ends wave w, which is where wave w + 1 begins.
  chunks.clear();
  plan.wave_chunks.assign(1, 0);
  std::size_t first = 0;
  for (std::size_t w = 0; w < waves; ++w) {
    detail::append_cost_chunks(
        first, plan.next[w],
        [&](std::size_t t) { return costs[plan.order[t]]; }, /*floor=*/0,
        chunks);
    plan.wave_chunks.push_back(chunks.size());
    first = plan.next[w];
  }
}

// True when no two tiles of one wave of a plan_waves() result share a
// vertex range. Uses `plan.next` as scratch.
inline bool waves_disjoint(WavePlan& plan, const std::vector<Chunk>& chunks) {
  constexpr std::size_t kUnseen = ~std::size_t{0};
  plan.next.assign(plan.ranges, kUnseen);
  for (std::size_t w = 0; w < plan.wave_count(); ++w) {
    for (std::size_t c = plan.wave_chunks[w]; c < plan.wave_chunks[w + 1]; ++c) {
      for (std::size_t t = chunks[c].begin; t < chunks[c].end; ++t) {
        const tile::TileCoord tc = plan.tiles[plan.order[t]];
        if (plan.next[tc.i] == w) return false;
        plan.next[tc.i] = w;
        if (tc.j == tc.i) continue;
        if (plan.next[tc.j] == w) return false;
        plan.next[tc.j] = w;
      }
    }
  }
  return true;
}

// Runs body(k) for every k in [0, costs.size()) with dynamic scheduling
// over chunks of roughly equal cost (`chunks` is scratch).
//
// Cost mode (waves == nullptr): one pass over cost_chunks() of `costs`; a
// thread's writes count as exclusive only when its team has one thread.
// Wave mode: the caller has filled waves->tiles; the waves of plan_waves()
// run one after another inside one region, the barrier between them coming
// from each wave's `omp for`, and every thread's writes count as exclusive.
// Use it only when every kernel the body runs touches no metadata outside
// its tile's two vertex ranges (TileAlgorithm::touches_only_tile_ranges).
//
// An exception cannot unwind through an OpenMP region (the runtime would
// terminate the process), and tile decode can throw FormatError on a
// corrupt payload, as can an algorithm's kernel. So each chunk captures its
// exception, the rest of that chunk is skipped, and the first captured
// exception is rethrown on the calling thread after the region joins.
template <typename Body>
void parallel_for_costs(const std::vector<std::uint64_t>& costs,
                        std::vector<Chunk>& chunks, Body&& body,
                        WavePlan* waves = nullptr) {
  // One thread running the dispatch in input order gives every range its
  // tiles in input order already, so it is the waves' result without the
  // reordering (which costs layout-order locality).
  if (detail::max_threads() == 1) waves = nullptr;
  if (waves == nullptr) {
    cost_chunks(costs, chunks);
  } else {
    plan_waves(costs, *waves, chunks);
    GSTORE_DCHECK(waves_disjoint(*waves, chunks));
  }
  std::exception_ptr error;
  const auto run_chunk = [&](const Chunk& c) {
    try {
      for (std::size_t t = c.begin; t < c.end; ++t)
        body(waves == nullptr ? t : waves->order[t]);
    } catch (...) {
#ifdef _OPENMP
#pragma omp critical(gstore_parallel_for_costs_error)
#endif
      if (error == nullptr) error = std::current_exception();
    }
  };
  if (waves == nullptr) {
#ifdef _OPENMP
#pragma omp parallel
#endif
    {
      const detail::ExclusiveWritesScope scope(detail::team_threads() == 1);
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
      for (std::size_t c = 0; c < chunks.size(); ++c) run_chunk(chunks[c]);
    }
  } else {
    const std::vector<std::size_t>& bounds = waves->wave_chunks;
#ifdef _OPENMP
#pragma omp parallel
#endif
    {
      const detail::ExclusiveWritesScope scope(true);
      for (std::size_t w = 0; w + 1 < bounds.size(); ++w) {
#ifdef _OPENMP
#pragma omp for schedule(dynamic)
#endif
        for (std::size_t c = bounds[w]; c < bounds[w + 1]; ++c)
          run_chunk(chunks[c]);
      }
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace gstore::store
