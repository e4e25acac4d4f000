// Multi-tenant SCR scheduler: one tile-fetch stream, many jobs.
//
// ScrEngine runs one algorithm per slide–cache–rewind pass; this scheduler
// runs the same pass for a *gang* of up to 64 jobs co-scheduled over one
// StoreSnapshot. Per round (one iteration of every active job):
//
//   REWIND — every tile in the shared cache pool, and every tile the
//            stream's two segments still hold from the previous round, is
//            dispatched to each active job whose selective-fetch oracle
//            wants it, before any I/O is issued (and so before the round's
//            first fill can overwrite a segment). The pool wins for a tile
//            in both; with SchedulerConfig::rewind off neither is used.
//   SLIDE  — the fetch list is the UNION of the active jobs' needed tiles;
//            each tile's bytes are read once through the same TileStream
//            ScrEngine uses (store/tile_stream.h: double-buffered,
//            coalesced, whole-tile retries, quiesce before any exception
//            escapes). Each tile is decoded once per round and every
//            EdgeBlock goes to each subscribed job's process_block() before
//            the segment is reused; the overlay splice is decoded once too
//            and delivered after the base blocks. This is the shared-I/O and
//            shared-decode dedup: 32 BFS jobs over the same graph cost ~1×
//            the bytes and ~1× the decode work, not 32×.
//   CACHE  — processed tiles are offered to the SHARED cache pool under a
//            fairness policy: the pool budget is split into per-job quotas
//            (budget / active jobs) and a tile is admitted only while some
//            subscriber is under quota, each subscriber charged
//            bytes / #subscribers. One full-graph PageRank therefore cannot
//            evict-starve small BFS jobs, and tiles wanted by many jobs are
//            proportionally cheaper to keep. Tiles whose next-round
//            subscriber set is empty are evicted at the round boundary.
//
// Jobs join at round boundaries (the admit callback), finish independently
// (their end_iteration() returns false), and are cancelled at round
// boundaries. Per-job statistics are job-scoped (JobStats); the gang-level
// I/O counters live in GangStats. Zero-copy is preserved: cached tiles pin
// segment slices.
//
// Threading: run() is called from ONE control thread (the JobManager's
// scheduler thread); kernels fan out over OpenMP inside a round through
// store::parallel_for_costs, exactly like ScrEngine — in range-exclusive
// waves when every subscriber opts in. The snapshot (store +
// frozen overlay) is immutable for the gang's lifetime.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/job.h"
#include "serve/snapshot.h"
#include "store/algorithm.h"

namespace gstore::serve {

// Reads are always overlapped with compute and retried whole twice
// (TileStream defaults); a job fails after 100000 rounds.
struct SchedulerConfig {
  std::uint64_t stream_memory_bytes = 64ull << 20;
  std::uint64_t segment_bytes = 8ull << 20;
  bool rewind = true;
};

// Gang-level shared-fetch counters (the daemon's dedup observability).
struct GangStats {
  std::uint32_t rounds = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t tiles_fetched = 0;     // unique tile payload fetches
  std::uint64_t tiles_from_cache = 0;  // unique tiles rewound (pool or segment)
  std::uint64_t tiles_skipped = 0;
  std::uint64_t tile_dispatches = 0;   // job×tile kernel deliveries
  std::uint64_t io_batches = 0;
  std::uint64_t tile_resubmits = 0;
  std::uint64_t bytes_copied_to_pool = 0;  // 0 by construction (zero-copy)
  std::uint64_t segment_refreshes = 0;
  std::uint64_t retries = 0;
  std::uint64_t short_reads = 0;
  std::uint64_t failed_reads = 0;
  double backoff_seconds = 0;
  double io_wait_seconds = 0;
  double compute_seconds = 0;
  double elapsed_seconds = 0;
};

// One job as the scheduler sees it. The algorithm is owned by the caller
// and must outlive the gang; `cancelled` (optional) is polled at round
// boundaries; `id` is opaque and only echoed through the done callback.
struct GangJob {
  std::uint64_t id = 0;
  store::TileAlgorithm* algo = nullptr;
  std::function<bool()> cancelled;
};

class SharedScheduler {
 public:
  // At most this many co-scheduled jobs (subscriber sets are 64-bit masks).
  static constexpr std::size_t kMaxGang = 64;

  // Offers free gang capacity to the caller at each round boundary; the
  // returned jobs (at most `free_slots`) join the gang against the SAME
  // snapshot. May be null.
  using AdmitFn = std::function<std::vector<GangJob>(std::size_t free_slots)>;
  // Reports a job leaving the gang: state is kDone, kFailed (error holds
  // why) or kCancelled. Called from the control thread.
  using DoneFn = std::function<void(const GangJob& job, JobState state,
                                    const JobStats& stats,
                                    const std::string& error)>;

  SharedScheduler(StoreSnapshot& snapshot, SchedulerConfig config);
  ~SharedScheduler();

  SharedScheduler(const SharedScheduler&) = delete;
  SharedScheduler& operator=(const SharedScheduler&) = delete;

  // Runs every job (initial + admitted) to completion or cancellation and
  // returns the gang-level counters. A gang-level I/O failure past the
  // retry budget fails every job still active (reported through `done`)
  // and returns — the daemon outlives its jobs' storage faults.
  GangStats run(std::vector<GangJob> initial, const AdmitFn& admit,
                const DoneFn& done);

 private:
  struct Runner;
  StoreSnapshot& snapshot_;
  SchedulerConfig config_;
};

}  // namespace gstore::serve
