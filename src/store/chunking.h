// Cost-balanced chunking of slot lists for OpenMP dynamic scheduling.
//
// Half-open index ranges over a slot list, cut so each chunk carries roughly
// equal edge cost. Dynamic scheduling over these chunks replaces
// schedule(dynamic, 1) over raw slots: on a power-law tile grid the latter
// is either dispatch overhead (swarms of near-empty tiles) or load imbalance
// (one hub tile per work item with nothing to pair it against).
// parallel_for_costs() is the one OpenMP region every tile pass runs in —
// the SCR engine's cached, streamed and overlay-only passes and the serve
// scheduler's gang dispatches alike.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace gstore::store {

struct Chunk {
  std::size_t begin = 0;
  std::size_t end = 0;
};

inline void cost_chunks(const std::vector<std::uint64_t>& costs,
                        std::vector<Chunk>& out) {
  out.clear();
  if (costs.empty()) return;
  int threads = 1;
#ifdef _OPENMP
  threads = omp_get_max_threads();
#endif
  std::uint64_t total = 0;
  for (const std::uint64_t c : costs) total += c;
  // ~8 chunks per thread bounds the dynamic-scheduling tail; the floor keeps
  // tiny tiles batched instead of dispatched one by one.
  const std::uint64_t target = std::max<std::uint64_t>(
      total / (8ull * static_cast<unsigned>(threads)) + 1, 4096);
  Chunk cur;
  std::uint64_t acc = 0;
  for (std::size_t k = 0; k < costs.size(); ++k) {
    acc += costs[k];
    if (acc >= target) {
      cur.end = k + 1;
      out.push_back(cur);
      cur.begin = k + 1;
      acc = 0;
    }
  }
  if (cur.begin < costs.size()) {
    cur.end = costs.size();
    out.push_back(cur);
  }
}

// Runs body(k) for every k in [0, costs.size()) over cost_chunks() of
// `costs` (reusing `chunks` as scratch), with dynamic scheduling over the
// chunks. An exception cannot unwind through an OpenMP region (the runtime
// would terminate the process), and tile decode can throw FormatError on a
// corrupt payload, as can an algorithm's kernel. So each chunk captures its
// exception, the rest of that chunk is skipped, and the first captured
// exception is rethrown on the calling thread after the region joins.
template <typename Body>
void parallel_for_costs(const std::vector<std::uint64_t>& costs,
                        std::vector<Chunk>& chunks, Body&& body) {
  cost_chunks(costs, chunks);
  std::exception_ptr error;
#ifdef _OPENMP
#pragma omp parallel for schedule(dynamic)
#endif
  for (std::size_t c = 0; c < chunks.size(); ++c) {
    try {
      for (std::size_t k = chunks[c].begin; k < chunks[c].end; ++k) body(k);
    } catch (...) {
#ifdef _OPENMP
#pragma omp critical(gstore_parallel_for_costs_error)
#endif
      if (error == nullptr) error = std::current_exception();
    }
  }
  if (error != nullptr) std::rethrow_exception(error);
}

}  // namespace gstore::store
