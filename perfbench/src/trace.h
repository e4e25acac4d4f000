// In-memory span recording for the traced run, from outside the program.
//
// TracingAlgorithm forwards every TileAlgorithm call to the workload's own
// algorithm and records a span around process_tile and the iteration and
// round hooks. The workload records a span around each ScrEngine::run and
// each client operation. Spans stay in memory until the run ends; then
// breakdown() splits the traced wall time into layers and write_chrome()
// dumps the spans as Chrome trace-event JSON.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "store/algorithm.h"
#include "store/scr_engine.h"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t tid = 0;
  // The span this one belongs to: the round id for engine spans, the job
  // index for client job spans; -1 for none.
  std::int32_t parent = -1;
};

class Tracer {
 public:
  explicit Tracer(int threads);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  std::int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }
  // From an OpenMP worker: lock-free append to the calling thread's buffer.
  void record_worker(const Span& s);
  // From any other thread.
  void record(const Span& s);
  std::int32_t next_round_id() { return next_round_.fetch_add(1); }

  std::vector<Span> spans() const;
  // Writes at most `max_events` spans (earliest first).
  void write_chrome(const std::string& path, std::size_t max_events) const;

 private:
  const std::chrono::steady_clock::time_point origin_;
  std::vector<std::vector<Span>> per_thread_;
  mutable std::mutex mu_;
  std::vector<Span> shared_;
  std::atomic<std::int32_t> next_round_{0};
};

// Records one span on scope exit. A null tracer makes it a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, const char* name, std::int32_t tid = 0,
             std::int32_t parent = -1)
      : t_(t), span_{name, t ? t->now() : 0, 0, tid, parent} {}
  ~ScopedSpan() {
    if (t_ == nullptr) return;
    span_.end_ns = t_->now();
    t_->record(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* t_;
  Span span_;
};

// Forwarding wrapper: every virtual goes to `inner`, timed.
class TracingAlgorithm final : public gstore::store::TileAlgorithm {
 public:
  TracingAlgorithm(gstore::store::TileAlgorithm& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  std::string name() const override { return inner_.name(); }
  void init(const gstore::tile::TileStore& store) override;
  void begin_iteration(std::uint32_t iter) override;
  void process_tile(const gstore::tile::TileView& view) override;
  void process_block(const gstore::tile::EdgeBlock& block) override;
  bool end_iteration(std::uint32_t iter) override;
  bool tile_needed(std::uint32_t i, std::uint32_t j) const override {
    return inner_.tile_needed(i, j);
  }
  bool tile_useful_next(std::uint32_t i, std::uint32_t j) const override {
    return inner_.tile_useful_next(i, j);
  }
  std::uint32_t tile_priority(std::uint32_t i, std::uint32_t j) const override {
    return inner_.tile_priority(i, j);
  }
  void begin_round(std::uint32_t round, std::uint32_t bucket) override;
  bool end_round(std::uint32_t round, std::uint32_t bucket) override;
  std::uint64_t last_round_updates() const override {
    return inner_.last_round_updates();
  }
  bool dirty_rows(std::vector<std::uint32_t>& out) const override {
    return inner_.dirty_rows(out);
  }
  bool reactivate(const gstore::tile::TileStore& store,
                  std::span<const std::uint64_t> delta_tiles) override {
    return inner_.reactivate(store, delta_tiles);
  }

 private:
  void open_round();
  void close_round(std::int64_t hook_start, const char* hook);

  gstore::store::TileAlgorithm& inner_;
  Tracer& tracer_;
  std::int64_t round_start_ = 0;
  // Written only between parallel regions, read by the workers inside one.
  std::atomic<std::int32_t> round_{-1};
};

// Wall time of a traced phase split into layers. Times are seconds.
struct Breakdown {
  double wall = 0;        // the traced phase
  double engine = 0;      // inside ScrEngine::run spans
  double io_wait = 0;     // the engine's own io-wait counter
  double busy = 0;        // sum of process_tile spans over all threads
  double cluster = 0;     // union of process_tile spans (parallel regions)
  double barrier = 0;     // cluster - busy/threads: idle threads in a region
  double hooks = 0;       // iteration and round hooks (serial)
  double store_self = 0;  // engine - cluster - hooks - io_wait
  double unattributed = 0;  // wall - engine
  std::uint64_t tile_calls = 0;
  std::vector<double> tile_us;  // per process_tile span
};

// `wall` is the phase's wall time; `io_wait` the engine counter summed over
// its runs.
Breakdown breakdown(const std::vector<Span>& spans, double wall,
                    double io_wait, int threads);

}  // namespace perfbench
