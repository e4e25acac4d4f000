// pagerank-kron: fixed-iteration PageRank on Kron-20, larger than its cache
// pool, reading at native speed (page cache).
//
// Stream memory is 8 MiB in 2 MiB segments, so the pool holds ~3k of the
// 33k tiles. With 24 MiB (a pool of ~16k tiles, half the store) the engine's
// serial time per rep grows to 4-7 s and its median swung from 3.6 to 6.4 s
// across ten runs on a shared 4-vCPU host (quartile spread 26% of the
// median), past any bound the benchmark may set; at 8 MiB that serial time
// is still ~78% of the wall time and the runs are steady.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "algo/pagerank.h"
#include "algo/reference.h"
#include "graph/generator.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kIterations = 2;
// A rep (one PageRank run) takes ~2.5 s with 2 threads.
constexpr std::size_t kMinReps = 3;
// Relative L1 distance allowed between the engine's float ranks and the
// double-precision in-memory reference (summation order differs).
constexpr double kRankEpsilon = 1e-5;

// Relative L1 distance of the ranks from the reference (infinite on a
// size mismatch).
double rank_error(const std::vector<float>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return HUGE_VAL;
  double err = 0, norm = 0;
  for (std::size_t v = 0; v < want.size(); ++v) {
    err += std::fabs(got[v] - want[v]);
    norm += std::fabs(want[v]);
  }
  return err / norm;
}

}  // namespace

Outcome run_pagerank_kron(const Options& opt) {
  namespace gs = gstore;
  Outcome out;
  default_layers(out);
  const unsigned scale = opt.toy ? 14 : 20;
  const unsigned edge_factor = 16;
  gs::graph::EdgeList el = gs::graph::kronecker(
      scale, edge_factor, gs::graph::GraphKind::kUndirected, opt.seed);
  const std::vector<double> want = gs::algo::ref_pagerank(el, kIterations);

  gs::tile::ConvertOptions copt;
  copt.tile_bits = opt.toy ? 8 : 12;
  copt.group_side = 8;
  const gs::io::DeviceConfig dev;  // native speed
  WorkDir work(opt.work_dir);
  std::optional<gs::tile::TileStore> store;
  std::string base;
  const std::vector<double> setup_s =
      timed_setups(el, work.path(), copt, dev, store, base);
  el = gs::graph::EdgeList();  // the timed phase measures the engine's memory

  gs::store::EngineConfig cfg;
  cfg.stream_memory_bytes =
      opt.toy ? store->storage_bytes() / 5 : 8ull << 20;
  cfg.segment_bytes = cfg.stream_memory_bytes / 4;

  bool inject = opt.inject_wrong;
  double worst_error = 0;
  auto phase_with = [&](Tracer* tracer) {
    return timed_phase(opt.seconds, kMinReps, [&](EnginePhase& phase) {
      gs::algo::TilePageRank pr({0.85, kIterations, 0.0});
      run_job(*store, cfg, pr, tracer, phase);
      std::vector<float> ranks = pr.ranks();
      if (inject) {
        ranks[0] = ranks[0] * 2 + 1;
        inject = false;
      }
      const double err = rank_error(ranks, want);
      worst_error = std::max(worst_error, err);
      out.check(err <= kRankEpsilon);
    });
  };

  const EnginePhase untraced = phase_with(nullptr);
  emit_engine_end_to_end(out, untraced, setup_s, *store);

  if (opt.trace) {
    Tracer tracer(opt.threads);
    const EnginePhase traced = phase_with(&tracer);
    emit_engine_layers(out, traced, tracer, opt.threads, median(untraced.rep_s));
    tracer.write_chrome(opt.trace_path, 400000);
    const double probe_s = opt.toy ? 0.05 : 0.5;
    out.set("io.seq_mib_per_s",
            probe_seq_read_mib_per_s(base, dev, cfg.segment_bytes, probe_s),
            "MiB/s");
    out.set("tile.decode_medges_per_s",
            probe_decode_medges_per_s(*store, probe_s), "Medges/s");
    out.set("algo.kernel_medges_per_s",
            probe_kernel_medges_per_s(
                *store,
                [] {
                  return std::make_unique<gs::algo::TilePageRank>(
                      gs::algo::PageRankOptions{0.85, kIterations, 0.0});
                },
                probe_s),
            "Medges/s");
  }

  note_graph(out, "Kron-" + std::to_string(scale) + "-" +
                      std::to_string(edge_factor) + " undirected",
             *store);
  out.note("device", device_json(dev));
  out.note("engine", "{\"stream_memory_mib\": " +
                         std::to_string(cfg.stream_memory_bytes / kMiB) +
                         ", \"segment_mib\": " +
                         std::to_string(cfg.segment_bytes / kMiB) +
                         ", \"iterations\": " + std::to_string(kIterations) +
                         "}");
  char err[96];
  std::snprintf(err, sizeof(err), "{\"epsilon\": %g, \"worst\": %g}",
                kRankEpsilon, worst_error);
  out.note("rank_rel_l1_error", err);
  return out;
}

}  // namespace perfbench
