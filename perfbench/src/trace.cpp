#include "trace.h"

#include <omp.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace perfbench {

Tracer::Tracer(int threads)
    : origin_(std::chrono::steady_clock::now()),
      per_thread_(static_cast<std::size_t>(std::max(threads, 1))) {
  for (auto& v : per_thread_) v.reserve(1 << 16);
}

void Tracer::record_worker(const Span& s) {
  const auto t = static_cast<std::size_t>(omp_get_thread_num());
  if (t < per_thread_.size()) {
    per_thread_[t].push_back(s);
  } else {
    record(s);
  }
}

void Tracer::record(const Span& s) {
  std::lock_guard<std::mutex> lock(mu_);
  shared_.push_back(s);
}

std::vector<Span> Tracer::spans() const {
  std::vector<Span> all;
  {
    std::lock_guard<std::mutex> lock(mu_);
    all = shared_;
  }
  for (const auto& v : per_thread_) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end(), [](const Span& a, const Span& b) {
    return a.start_ns < b.start_ns;
  });
  return all;
}

void Tracer::write_chrome(const std::string& path,
                          std::size_t max_events) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\"traceEvents\": [\n");
  const std::size_t n = std::min(all.size(), max_events);
  for (std::size_t k = 0; k < n; ++k) {
    const Span& s = all[k];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"parent\": %d}}%s\n",
                 s.name, s.tid, s.start_ns / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.parent,
                 k + 1 < n ? "," : "");
  }
  std::fprintf(f, "], \"displayTimeUnit\": \"ms\", \"truncated\": %s}\n",
               all.size() > n ? "true" : "false");
  std::fclose(f);
}

// ---- TracingAlgorithm ------------------------------------------------------

void TracingAlgorithm::init(const gstore::tile::TileStore& store) {
  ScopedSpan span(&tracer_, "init");
  inner_.init(store);
}

void TracingAlgorithm::open_round() {
  round_start_ = tracer_.now();
  round_.store(tracer_.next_round_id(), std::memory_order_relaxed);
}

void TracingAlgorithm::close_round(std::int64_t hook_start, const char* hook) {
  const std::int64_t end = tracer_.now();
  const std::int32_t r = round_.load(std::memory_order_relaxed);
  tracer_.record({hook, hook_start, end, 0, r});
  tracer_.record({"round", round_start_, end, 0, r});
  round_.store(-1, std::memory_order_relaxed);
}

void TracingAlgorithm::begin_iteration(std::uint32_t iter) {
  open_round();
  ScopedSpan span(&tracer_, "begin_iteration", 0,
                  round_.load(std::memory_order_relaxed));
  inner_.begin_iteration(iter);
}

bool TracingAlgorithm::end_iteration(std::uint32_t iter) {
  const std::int64_t start = tracer_.now();
  const bool more = inner_.end_iteration(iter);
  close_round(start, "end_iteration");
  return more;
}

void TracingAlgorithm::begin_round(std::uint32_t round, std::uint32_t bucket) {
  open_round();
  ScopedSpan span(&tracer_, "begin_round", 0,
                  round_.load(std::memory_order_relaxed));
  inner_.begin_round(round, bucket);
}

bool TracingAlgorithm::end_round(std::uint32_t round, std::uint32_t bucket) {
  const std::int64_t start = tracer_.now();
  const bool more = inner_.end_round(round, bucket);
  close_round(start, "end_round");
  return more;
}

void TracingAlgorithm::process_tile(const gstore::tile::TileView& view) {
  Span s{"process_tile", tracer_.now(), 0, omp_get_thread_num(),
         round_.load(std::memory_order_relaxed)};
  inner_.process_tile(view);
  s.end_ns = tracer_.now();
  tracer_.record_worker(s);
}

void TracingAlgorithm::process_block(const gstore::tile::EdgeBlock& block) {
  inner_.process_block(block);
}

// ---- breakdown ---------------------------------------------------------------

namespace {
bool is_hook(const char* name) {
  for (const char* hook : {"init", "begin_iteration", "end_iteration",
                           "begin_round", "end_round"})
    if (std::strcmp(name, hook) == 0) return true;
  return false;
}
}  // namespace

Breakdown breakdown(const std::vector<Span>& spans, double wall,
                    double io_wait, int threads) {
  Breakdown b;
  b.wall = wall;
  b.io_wait = io_wait;
  std::vector<std::pair<std::int64_t, std::int64_t>> tiles;
  for (const Span& s : spans) {
    const double d = (s.end_ns - s.start_ns) / 1e9;
    if (std::strcmp(s.name, "process_tile") == 0) {
      tiles.emplace_back(s.start_ns, s.end_ns);
      b.busy += d;
      b.tile_us.push_back(d * 1e6);
    } else if (std::strcmp(s.name, "ScrEngine::run") == 0) {
      b.engine += d;
    } else if (is_hook(s.name)) {
      b.hooks += d;
    }
  }
  b.tile_calls = tiles.size();
  // Union of the tile intervals: the time some thread was inside a kernel.
  std::sort(tiles.begin(), tiles.end());
  std::int64_t cur_start = 0, cur_end = -1;
  std::int64_t cluster_ns = 0;
  for (const auto& [s, e] : tiles) {
    if (s > cur_end) {
      if (cur_end >= 0) cluster_ns += cur_end - cur_start;
      cur_start = s;
      cur_end = e;
    } else {
      cur_end = std::max(cur_end, e);
    }
  }
  if (cur_end >= 0) cluster_ns += cur_end - cur_start;
  b.cluster = cluster_ns / 1e9;
  b.barrier = b.cluster - b.busy / std::max(threads, 1);
  b.store_self = b.engine - b.cluster - b.hooks - b.io_wait;
  b.unattributed = b.wall - b.engine;
  return b;
}

}  // namespace perfbench
