// traverse-ssd: BFS (grid schedule) then delta-stepping SSSP (priority
// schedule) from seeded high-degree roots of a Twitter-like graph, behind
// the emulated single SSD, with a quarter of the store as stream memory.
#include <algorithm>
#include <cstring>
#include <numeric>
#include <random>

#include "algo/bfs.h"
#include "algo/reference.h"
#include "algo/sssp.h"
#include "bench_common.h"
#include "graph/generator.h"
#include "probes.h"
#include "workloads.h"

namespace perfbench {

namespace {

// The engine's serial time differs by up to ~30% between roots, as the
// proactive cache fills differently, so a rep averages over several.
constexpr std::size_t kRoots = 4;
// A rep (BFS + SSSP from each root) takes ~15 s behind the emulated SSD.
constexpr std::size_t kMinReps = 1;
constexpr std::size_t kRootPool = 64;  // roots are drawn from the top degrees
// The graph is the same for every seed; --seed draws the roots. How much
// serial time the proactive cache costs depends on the graph: from four
// roots each, one seed's graph ran in 12 s and four others in 14-16 s, so
// seeded graphs made run_s spread past its bound across seeds.
constexpr std::uint64_t kGraphSeed = 1;

std::vector<gstore::graph::vid_t> draw_roots(const gstore::graph::EdgeList& el,
                                             std::uint64_t seed) {
  const auto deg = el.degrees();
  std::vector<gstore::graph::vid_t> order(deg.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t pool = std::min(kRootPool, order.size());
  std::partial_sort(order.begin(), order.begin() + pool, order.end(),
                    [&](auto a, auto b) {
                      return deg[a] != deg[b] ? deg[a] > deg[b] : a < b;
                    });
  order.resize(pool);
  std::mt19937_64 rng(seed);
  std::shuffle(order.begin(), order.end(), rng);
  order.resize(std::min(kRoots, order.size()));
  return order;
}

template <typename T>
bool same(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

}  // namespace

Outcome run_traverse_ssd(const Options& opt) {
  namespace gs = gstore;
  Outcome out;
  default_layers(out);
  const unsigned scale = opt.toy ? 14 : 20;
  const unsigned edge_factor = 16;
  gs::graph::EdgeList el = gs::graph::twitter_like(
      scale, edge_factor, gs::graph::GraphKind::kUndirected, kGraphSeed);
  const std::vector<gs::graph::vid_t> roots = draw_roots(el, opt.seed);
  std::vector<std::vector<std::int32_t>> want_depth;
  std::vector<std::vector<float>> want_dist;
  for (const auto r : roots) {
    want_depth.push_back(gs::algo::ref_bfs(el, r));
    want_dist.push_back(gs::algo::ref_sssp(el, r));
  }

  gs::tile::ConvertOptions copt;
  copt.tile_bits = opt.toy ? 8 : 12;
  copt.group_side = 8;
  const gs::io::DeviceConfig dev = gs::bench::one_ssd();
  WorkDir work(opt.work_dir);
  std::optional<gs::tile::TileStore> store;
  std::string base;
  const std::vector<double> setup_s =
      timed_setups(el, work.path(), copt, dev, store, base);
  el = gs::graph::EdgeList();

  gs::store::EngineConfig grid;
  grid.stream_memory_bytes = store->storage_bytes() / 4;
  grid.segment_bytes = std::min<std::uint64_t>(2ull << 20,
                                               grid.stream_memory_bytes / 4);
  gs::store::EngineConfig priority = grid;
  priority.schedule = gs::store::ScheduleMode::kPriority;

  bool inject = opt.inject_wrong;
  auto phase_with = [&](Tracer* tracer) {
    return timed_phase(opt.seconds, kMinReps, [&](EnginePhase& phase) {
      for (std::size_t k = 0; k < roots.size(); ++k) {
        gs::algo::TileBfs bfs(roots[k]);
        run_job(*store, grid, bfs, tracer, phase);
        std::vector<std::int32_t> depth = bfs.depth();
        if (inject) {
          depth.back() += 1;
          inject = false;
        }
        out.check(same(depth, want_depth[k]));
        gs::algo::TileSssp sssp(roots[k]);
        run_job(*store, priority, sssp, tracer, phase);
        out.check(same(sssp.distances(), want_dist[k]));
      }
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
            probe_seq_read_mib_per_s(base, dev, grid.segment_bytes, probe_s),
            "MiB/s");
    out.set("tile.decode_medges_per_s",
            probe_decode_medges_per_s(*store, probe_s), "Medges/s");
    out.set("algo.kernel_medges_per_s",
            probe_kernel_medges_per_s(
                *store,
                [&] { return std::make_unique<gs::algo::TileSssp>(roots[0]); },
                probe_s),
            "Medges/s");
  }

  note_graph(out, "Twitter-like-" + std::to_string(scale) + "-" +
                      std::to_string(edge_factor) + " undirected",
             *store);
  out.note("device", device_json(dev));
  std::string r = "[";
  for (const auto v : roots) r += (r.size() > 1 ? ", " : "") + std::to_string(v);
  out.note("roots", r + "]");
  out.note("graph_seed", std::to_string(kGraphSeed));
  out.note("engine", "{\"stream_memory_mib\": " +
                         std::to_string(grid.stream_memory_bytes / kMiB) +
                         ", \"segment_mib\": " +
                         std::to_string(grid.segment_bytes / kMiB) + "}");
  return out;
}

}  // namespace perfbench
