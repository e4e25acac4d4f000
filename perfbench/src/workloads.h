// The benchmark's workloads and the helpers the in-process ones share.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "graph/edge_list.h"
#include "io/device.h"
#include "metrics.h"
#include "store/scr_engine.h"
#include "tile/convert.h"
#include "tile/tile_file.h"
#include "trace.h"

namespace perfbench {

Outcome run_pagerank_kron(const Options& opt);
Outcome run_traverse_ssd(const Options& opt);
Outcome run_serve_ingest(const Options& opt);

// Set-up is repeated this many times per invocation; setup_s is the median.
inline constexpr int kSetups = 3;

// Sets every per-layer metric to 0 with its unit, so that each workload
// reports the full list; layers a workload does not reach stay 0.
void default_layers(Outcome& out);

// Converts `el` kSetups times, each into a fresh directory under `root`,
// timing convert + open. Keeps the last store open in `store`, at `base`.
std::vector<double> timed_setups(const gstore::graph::EdgeList& el,
                                 const std::string& root,
                                 const gstore::tile::ConvertOptions& copt,
                                 const gstore::io::DeviceConfig& dev,
                                 std::optional<gstore::tile::TileStore>& store,
                                 std::string& base);

// Results of one timed phase of an in-process engine workload. A rep is
// one unit of work (one PageRank run; one BFS+SSSP pass over the roots).
struct EnginePhase {
  std::vector<double> rep_s;
  std::vector<double> rep_mib;  // device bytes read per rep
  std::vector<double> job_s;    // per ScrEngine run
  gstore::store::EngineStats totals;
  gstore::io::DeviceStats dev;
  double peak_rss_mib = 0;
};

// Runs `rep` until `seconds` have passed and at least `min_reps` times.
// `rep` appends its job latencies and engine stats to the phase.
EnginePhase timed_phase(double seconds, std::size_t min_reps,
                        const std::function<void(EnginePhase&)>& rep);

// One ScrEngine::run, wrapped in a TracingAlgorithm and a span when
// `tracer` is set. Appends the run's latency and stats to `phase`.
void run_job(gstore::tile::TileStore& store,
             const gstore::store::EngineConfig& cfg,
             gstore::store::TileAlgorithm& algo, Tracer* tracer,
             EnginePhase& phase);

// End-to-end metrics shared by the in-process workloads.
void emit_engine_end_to_end(Outcome& out, const EnginePhase& phase,
                            const std::vector<double>& setup_s,
                            const gstore::tile::TileStore& store);

// Per-layer metrics of a traced phase; `untraced_run_s` gives the overhead.
void emit_engine_layers(Outcome& out, const EnginePhase& traced,
                        const Tracer& tracer, int threads,
                        double untraced_run_s);

// Graph facts recorded with every result.
void note_graph(Outcome& out, const std::string& name,
                const gstore::tile::TileStore& store);

}  // namespace perfbench
