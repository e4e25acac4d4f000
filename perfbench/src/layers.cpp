#include <algorithm>
#include <filesystem>

#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

namespace {

// Every per-layer metric the benchmark reports, with its unit. Keep in
// step with "per_layer" in BENCHMARK.json; run.py checks that they agree.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"io.wait_s", "s"},
    {"io.read_ops", "count"},
    {"io.submit_calls", "count"},
    {"io.retries", "count"},
    {"io.seq_mib_per_s", "MiB/s"},
    {"tile.decode_medges_per_s", "Medges/s"},
    {"tile.overlay_edges", "count"},
    {"store.self_s", "s"},
    {"store.cache_hit_ratio", "ratio"},
    {"store.tiles_from_disk", "count"},
    {"store.tiles_from_cache", "count"},
    {"store.tiles_skipped", "count"},
    {"store.wasted_fetch_mib", "MiB"},
    {"store.segment_refreshes", "count"},
    {"store.bytes_copied_to_pool", "bytes"},
    {"store.io_batches", "count"},
    {"store.rounds", "count"},
    {"store.round_p50_s", "s"},
    {"algo.tile_calls", "count"},
    {"algo.busy_s", "s"},
    {"algo.medges_per_busy_s", "Medges/s"},
    {"algo.kernel_medges_per_s", "Medges/s"},
    {"algo.tile_p50_us", "us"},
    {"algo.tile_p99_us", "us"},
    {"algo.barrier_s", "s"},
    {"algo.hook_s", "s"},
    {"algo.parallel_eff", "ratio"},
    {"ingest.wal_mib", "MiB"},
    {"ingest.compact_mib_written", "MiB"},
    {"ingest.compact_medges_per_s", "Medges/s"},
    {"ingest.lat_p50_s", "s"},
    {"ingest.lat_p90_s", "s"},
    {"ingest.compact_s", "s"},
    {"ingest.write_amp", "ratio"},
    {"serve.job_p90_s", "s"},
    {"serve.queue_wait_p50_s", "s"},
    {"serve.queue_wait_p90_s", "s"},
    {"serve.job_run_p50_s", "s"},
    {"serve.tile_dedup", "ratio"},
    {"serve.mib_per_job", "MiB"},
    {"serve.gangs", "count"},
    {"serve.rtt_p50_us", "us"},
    {"loadgen.lag_p90_s", "s"},
    {"loadgen.backlog", "count"},
    {"trace.overhead_frac", "ratio"},
    {"trace.unattributed_s", "s"},
    {"trace.run_s", "s"},
};

}  // namespace

void default_layers(Outcome& out) {
  for (const auto& [name, unit] : kLayerMetrics) out.set(name, 0.0, unit);
}

std::vector<double> timed_setups(const gstore::graph::EdgeList& el,
                                 const std::string& root,
                                 const gstore::tile::ConvertOptions& copt,
                                 const gstore::io::DeviceConfig& dev,
                                 std::optional<gstore::tile::TileStore>& store,
                                 std::string& base) {
  std::vector<double> times;
  for (int k = 0; k < kSetups; ++k) {
    store.reset();
    const std::string dir = root + "/setup" + std::to_string(k);
    if (k > 0) std::filesystem::remove_all(root + "/setup" + std::to_string(k - 1));
    std::filesystem::create_directories(dir);
    base = dir + "/g";
    gstore::Timer t;
    gstore::tile::convert_to_tiles(el, base, copt);
    store.emplace(gstore::tile::TileStore::open(base, dev));
    times.push_back(t.seconds());
  }
  return times;
}

EnginePhase timed_phase(double seconds, std::size_t min_reps,
                        const std::function<void(EnginePhase&)>& rep) {
  EnginePhase phase;
  reset_peak_rss();
  gstore::Timer wall;
  while (phase.rep_s.size() < min_reps || wall.seconds() < seconds) {
    const std::size_t jobs0 = phase.job_s.size();
    const std::uint64_t bytes0 = phase.dev.bytes_read;
    rep(phase);
    double s = 0;
    for (std::size_t k = jobs0; k < phase.job_s.size(); ++k) s += phase.job_s[k];
    phase.rep_s.push_back(s);
    phase.rep_mib.push_back((phase.dev.bytes_read - bytes0) / kMiB);
    // Peak memory covers the same work in every run: the first min_reps
    // reps. Later reps only run when the machine is fast enough to fit
    // them, and allocator growth across reps would tie the peak to speed.
    if (phase.rep_s.size() == min_reps) phase.peak_rss_mib = peak_rss_mib();
  }
  return phase;
}

void run_job(gstore::tile::TileStore& store,
             const gstore::store::EngineConfig& cfg,
             gstore::store::TileAlgorithm& algo, Tracer* tracer,
             EnginePhase& phase) {
  gstore::Timer t;
  gstore::store::EngineStats stats;
  if (tracer == nullptr) {
    gstore::store::ScrEngine engine(store, cfg);
    stats = engine.run(algo);
  } else {
    TracingAlgorithm traced(algo, *tracer);
    ScopedSpan span(tracer, "ScrEngine::run");
    gstore::store::ScrEngine engine(store, cfg);
    stats = engine.run(traced);
  }
  phase.job_s.push_back(t.seconds());
  accumulate(phase.totals, stats);
  // The engine resets the device counters when a run starts, so after the
  // run they hold exactly that run's I/O.
  accumulate(phase.dev, store.device().stats());
}

void emit_engine_end_to_end(Outcome& out, const EnginePhase& phase,
                            const std::vector<double>& setup_s,
                            const gstore::tile::TileStore& store) {
  out.set("setup_s", median(setup_s), "s");
  out.set("run_s", median(phase.rep_s), "s");
  out.set("read_mib", median(phase.rep_mib), "MiB");
  out.set("peak_rss_mib", phase.peak_rss_mib, "MiB");
  out.set("store_bytes_per_edge",
          static_cast<double>(store.storage_bytes()) /
              static_cast<double>(std::max<std::uint64_t>(store.edge_count(), 1)),
          "B/edge");
  out.set("job_p50_s", median(phase.job_s), "s");
  std::string reps = "[";
  for (const double s : phase.rep_s)
    reps += (reps.size() > 1 ? ", " : "") + std::to_string(s);
  out.note("rep_s", reps + "]");
  out.note("jobs", std::to_string(phase.job_s.size()));
}

void emit_engine_layers(Outcome& out, const EnginePhase& traced,
                        const Tracer& tracer, int threads,
                        double untraced_run_s) {
  const gstore::store::EngineStats& t = traced.totals;
  double wall = 0;
  for (const double s : traced.job_s) wall += s;
  const Breakdown b = breakdown(tracer.spans(), wall, t.io_wait_seconds, threads);
  const double reps = static_cast<double>(traced.rep_s.size());
  auto per_rep = [&](const char* name, double v, const char* unit) {
    out.set(name, v / reps, unit);
  };
  per_rep("io.wait_s", b.io_wait, "s");
  per_rep("io.read_ops", traced.dev.read_ops, "count");
  per_rep("io.submit_calls", traced.dev.submit_calls, "count");
  per_rep("io.retries", traced.dev.retries, "count");
  per_rep("tile.overlay_edges", t.overlay_edges, "count");
  per_rep("store.self_s", b.store_self, "s");
  const double dispatched = t.tiles_from_disk + t.tiles_from_cache;
  out.set("store.cache_hit_ratio",
          dispatched > 0 ? t.tiles_from_cache / dispatched : 0, "ratio");
  per_rep("store.tiles_from_disk", t.tiles_from_disk, "count");
  per_rep("store.tiles_from_cache", t.tiles_from_cache, "count");
  per_rep("store.tiles_skipped", t.tiles_skipped, "count");
  per_rep("store.wasted_fetch_mib", t.wasted_fetch_bytes / kMiB, "MiB");
  per_rep("store.segment_refreshes", t.segment_refreshes, "count");
  per_rep("store.bytes_copied_to_pool", t.bytes_copied_to_pool, "bytes");
  per_rep("store.io_batches", t.io_batches, "count");
  per_rep("store.rounds", t.per_iteration.size(), "count");
  std::vector<double> round_s;
  for (const auto& it : t.per_iteration) round_s.push_back(it.seconds);
  out.set("store.round_p50_s", median(round_s), "s");
  per_rep("algo.tile_calls", b.tile_calls, "count");
  per_rep("algo.busy_s", b.busy, "s");
  out.set("algo.medges_per_busy_s",
          b.busy > 0 ? t.edges_processed / 1e6 / b.busy : 0, "Medges/s");
  out.set("algo.tile_p50_us", quantile(b.tile_us, 0.5), "us");
  out.set("algo.tile_p99_us", quantile(b.tile_us, 0.99), "us");
  per_rep("algo.barrier_s", b.barrier, "s");
  per_rep("algo.hook_s", b.hooks, "s");
  out.set("algo.parallel_eff",
          b.cluster > 0 ? b.busy / (threads * b.cluster) : 0, "ratio");
  per_rep("trace.unattributed_s", b.unattributed, "s");
  per_rep("trace.run_s", b.wall, "s");
  out.set("trace.overhead_frac", median(traced.rep_s) / untraced_run_s - 1,
          "ratio");
}

void note_graph(Outcome& out, const std::string& name,
                const gstore::tile::TileStore& store) {
  const auto& m = store.meta();
  out.note("graph", "{\"name\": " + json_string(name) +
                        ", \"vertices\": " + std::to_string(m.vertex_count) +
                        ", \"stored_edges\": " + std::to_string(m.edge_count) +
                        ", \"tiles\": " + std::to_string(m.tile_count) +
                        ", \"tile_bits\": " + std::to_string(m.tile_bits) +
                        ", \"store_bytes\": " +
                        std::to_string(store.storage_bytes()) + "}");
}

}  // namespace perfbench
