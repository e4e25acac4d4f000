// serve-ingest: an in-process serve::Server over an ingest::EdgeIngestor,
// driven over loopback by two client connections. One connection runs an
// open-loop query stream (BFS, SSSP, fixed-iteration PageRank, neighbors);
// the other writes fixed-size ingest batches from the held-out 10% of the
// edges at a fixed rate, then compacts once.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <thread>
#include <tuple>

#include "algo/pagerank.h"
#include "graph/generator.h"
#include "ingest/ingestor.h"
#include "probes.h"
#include "serve/client.h"
#include "serve/job.h"
#include "serve/server.h"
#include "util/timer.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace gs = gstore;
using gs::serve::Json;
using Clock = std::chrono::steady_clock;

// The query stream is open loop: every kPeriod a burst of jobs falls due at
// once, with seeded roots and a seeded order of the fixed mix below, however
// far behind the server is. A burst submitted back to back forms one gang,
// so the gang count does not hinge on sub-millisecond arrival jitter (with
// Poisson arrivals it did, and bytes read and the median latency spread by
// 20-50% across seeds). Writes fall due at a fixed rate in the second half
// of each of the first kWritePeriodsFrac of periods, after each burst's gang
// has admitted its members; one compaction follows the last write.
// A burst's gang takes ~1.1-1.5 s with 2 threads, so the server is busy
// about two thirds of each period and no backlog grows. At 1 s periods it
// fell behind, and queueing made the median latency swing with host load.
constexpr double kPeriod = 2.0;  // seconds
// Neighbors and PageRank jobs finish first, so the median latency falls
// inside the BFS/SSSP group rather than on a boundary between kinds.
constexpr int kBurstNeighbors = 3, kBurstBfs = 2, kBurstSssp = 4, kBurstPageRank = 1;
constexpr int kWritesPerPeriod = 10;  // 10 batches/s over half a period
constexpr double kWritePeriodsFrac = 0.7;
constexpr std::size_t kBatchEdges = 1000;
// Set-up here is under a second, so more repeats steady its median cheaply.
constexpr int kServeSetups = 5;
constexpr std::uint32_t kPageRankIterations = 3;
// PageRank digests depend on float summation order across tiles, so a
// PageRank job passes when its iteration count matches the serial run and
// its final L1 delta is within this relative distance of the serial one.
constexpr double kDeltaEpsilon = 2e-3;
// A run is invalid (not fast) when the generator fell this far behind.
constexpr double kMaxLagP90 = 0.1;

struct Query {
  Json spec;
  double due = 0;
  double submitted = -1;
  double done = -1;
  std::uint64_t id = 0;
};

struct Write {
  Json request;
  double due = 0;
  double acked = -1;
};

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

void sleep_until(Clock::time_point t0, double at) {
  std::this_thread::sleep_until(
      t0 + std::chrono::duration_cast<Clock::duration>(
               std::chrono::duration<double>(at)));
}

Json op(const char* name) {
  Json j = Json::object();
  j.set("op", Json(name));
  return j;
}

Json job_op(const char* name, std::uint64_t id) {
  Json j = op(name);
  j.set("id", Json(id));
  return j;
}

bool terminal(const Json& status) {
  return status.at("state").as_string() != "queued" &&
         status.at("state").as_string() != "running";
}

// The seeded query and write schedules of one run.
struct Plan {
  std::vector<Query> queries;
  std::vector<Write> writes;
  std::vector<std::vector<gs::graph::Edge>> batches;
  double compact_due = 0;
};

Plan make_plan(const gs::graph::EdgeList& base,
               const std::vector<gs::graph::Edge>& held, double seconds,
               std::uint64_t seed) {
  Plan p;
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 11);
  const auto deg = base.degrees();
  std::vector<gs::graph::vid_t> order(deg.size());
  std::iota(order.begin(), order.end(), 0);
  const std::size_t hubs = std::min<std::size_t>(1024, order.size());
  std::partial_sort(order.begin(), order.begin() + hubs, order.end(),
                    [&](auto a, auto b) {
                      return deg[a] != deg[b] ? deg[a] > deg[b] : a < b;
                    });
  order.resize(hubs);
  const int periods = std::max(1, static_cast<int>(seconds / kPeriod));
  std::vector<int> mix;  // 0 neighbors, 1 bfs, 2 sssp, 3 pagerank
  mix.insert(mix.end(), kBurstNeighbors, 0);
  mix.insert(mix.end(), kBurstBfs, 1);
  mix.insert(mix.end(), kBurstSssp, 2);
  mix.insert(mix.end(), kBurstPageRank, 3);
  const auto pick = [&](std::size_t pool) {
    return static_cast<std::uint64_t>(order[rng() % std::min(pool, hubs)]);
  };
  for (int k = 0; k < periods; ++k) {
    std::shuffle(mix.begin(), mix.end(), rng);
    for (const int kind : mix) {
      Json spec = Json::object();
      if (kind == 0) {
        spec.set("algo", Json("neighbors"));
        spec.set("vertex", Json(pick(1024)));
      } else if (kind == 3) {
        spec.set("algo", Json("pagerank"));
        spec.set("iterations", Json(kPageRankIterations));
        spec.set("tolerance", Json(0.0));
      } else {
        spec.set("algo", Json(kind == 1 ? "bfs" : "sssp"));
        spec.set("root", Json(pick(64)));
      }
      p.queries.push_back({std::move(spec), k * kPeriod});
    }
  }
  const int write_periods =
      static_cast<int>(std::ceil(kWritePeriodsFrac * periods));
  const std::size_t nbatches =
      std::min<std::size_t>(static_cast<std::size_t>(write_periods) * kWritesPerPeriod,
                            held.size() / kBatchEdges);
  for (std::size_t b = 0; b < nbatches; ++b) {
    p.batches.emplace_back(held.begin() + b * kBatchEdges,
                           held.begin() + (b + 1) * kBatchEdges);
    Json req = op("ingest");
    Json arr = Json::array();
    for (const auto& e : p.batches.back()) {
      Json pair = Json::array();
      pair.push(Json(static_cast<std::uint64_t>(e.src)));
      pair.push(Json(static_cast<std::uint64_t>(e.dst)));
      arr.push(std::move(pair));
    }
    req.set("edges", std::move(arr));
    const double period = static_cast<double>(b / kWritesPerPeriod);
    const double slot = static_cast<double>(b % kWritesPerPeriod);
    p.writes.push_back(
        {std::move(req), (period + 0.5 + 0.5 * slot / kWritesPerPeriod) * kPeriod});
  }
  p.compact_due = (write_periods + 0.5) * kPeriod;
  return p;
}

// One daemon: ingestor, job manager and server over a store under `dir`.
struct Daemon {
  std::unique_ptr<gs::ingest::EdgeIngestor> ingestor;
  std::unique_ptr<gs::serve::JobManager> manager;
  std::unique_ptr<gs::serve::Server> server;

  Daemon(const std::string& base, const gs::serve::ManagerOptions& mo) {
    ingestor = std::make_unique<gs::ingest::EdgeIngestor>(base);
    manager = std::make_unique<gs::serve::JobManager>(*ingestor, mo);
    manager->start();
    server = std::make_unique<gs::serve::Server>(*manager);
    server->start();
  }
  ~Daemon() {
    server->stop();
    manager->stop(true);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

// Everything one timed phase observed.
struct ServePhase {
  Plan plan;
  std::vector<Json> status;  // per query, after the phase
  std::vector<Json> result;
  std::vector<double> rtt_us;
  double first_due = 0, last_done = 0;
  double lag_p90 = 0;
  std::size_t backlog = 0;
  double compact_s = 0;
  double compact_done = 0;
  Json compact_stats;
  std::uint64_t wal_bytes = 0;
  Json stats_before, stats_after;
  double peak_rss_mib = 0;
};

ServePhase run_phase(Daemon& d, Plan plan, Tracer* tracer) {
  ServePhase ph;
  ph.plan = std::move(plan);
  auto& queries = ph.plan.queries;
  auto& writes = ph.plan.writes;
  const int port = d.server->port();
  gs::serve::Client qc("127.0.0.1", port);
  gs::serve::Client wc("127.0.0.1", port);
  ph.stats_before = qc.call(op("stats")).at("stats");

  reset_peak_rss();
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  std::exception_ptr writer_error;
  std::thread writer([&] {
    try {
      for (Write& w : writes) {
        sleep_until(t0, w.due);
        ScopedSpan span(tracer, "client.ingest", 2);
        wc.call(w.request);
        w.acked = since(t0);
      }
      sleep_until(t0, ph.plan.compact_due);
      ph.wal_bytes = d.ingestor->wal_bytes();
      ScopedSpan span(tracer, "client.compact", 2);
      const double start = since(t0);
      ph.compact_stats = wc.call(op("compact")).at("stats");
      ph.compact_done = since(t0);
      ph.compact_s = ph.compact_done - start;
    } catch (...) {
      writer_error = std::current_exception();
    }
  });

  std::vector<std::size_t> outstanding;
  std::size_t next = 0;
  auto finish = [&](std::size_t q, double now) {
    queries[q].done = now;
    if (tracer != nullptr) {
      const auto ns = [&](double s) {
        return tracer->now() - static_cast<std::int64_t>((now - s) * 1e9);
      };
      tracer->record({"job", ns(queries[q].due), ns(now), 3,
                      static_cast<std::int32_t>(q)});
    }
  };
  try {
    while (next < queries.size() || !outstanding.empty()) {
      double now = since(t0);
      if (next < queries.size() && queries[next].due <= now) {
        Query& q = queries[next];
        Json req = op("submit");
        req.set("job", q.spec);
        {
          ScopedSpan span(tracer, "client.submit", 1);
          q.id = qc.call(req).at("id").as_uint();
        }
        q.submitted = since(t0);
        outstanding.push_back(next++);
        if (next == queries.size()) ph.backlog = outstanding.size();
        if (tracer != nullptr) {
          const double p0 = since(t0);
          ScopedSpan span(tracer, "client.ping", 1);
          qc.call(op("ping"));
          ph.rtt_us.push_back((since(t0) - p0) * 1e6);
        }
        continue;
      }
      if (outstanding.empty()) {
        sleep_until(t0, queries[next].due);
        continue;
      }
      // Block on the oldest job for at most 2 ms (less when a submission is
      // due sooner), then poll the rest: completion times are resolved to
      // within a few milliseconds.
      const double until_next =
          next < queries.size() ? queries[next].due - now : 1.0;
      const int timeout_ms =
          static_cast<int>(std::clamp(until_next * 1e3, 0.0, 2.0));
      if (timeout_ms > 0) {
        Json w = job_op("wait", queries[outstanding.front()].id);
        w.set("timeout_ms", Json(timeout_ms));
        ScopedSpan span(tracer, "client.wait", 1);
        if (qc.call(w).at("done").as_bool())
          finish(outstanding.front(), since(t0));
      }
      for (const std::size_t q : outstanding) {
        if (queries[q].done >= 0) continue;
        ScopedSpan span(tracer, "client.status", 1);
        if (terminal(qc.call(job_op("status", queries[q].id)).at("job")))
          finish(q, since(t0));
      }
      std::erase_if(outstanding,
                    [&](std::size_t q) { return queries[q].done >= 0; });
    }
  } catch (...) {
    writer.join();
    throw;
  }
  writer.join();
  if (writer_error) std::rethrow_exception(writer_error);
  ph.peak_rss_mib = peak_rss_mib();

  ph.first_due = std::min(queries.empty() ? 1e9 : queries.front().due,
                          writes.empty() ? 1e9 : writes.front().due);
  ph.last_done = ph.compact_done;
  std::vector<double> lag;
  for (const Query& q : queries) {
    ph.last_done = std::max(ph.last_done, q.done);
    lag.push_back(q.submitted - q.due);
  }
  for (const Write& w : writes) ph.last_done = std::max(ph.last_done, w.acked);
  ph.lag_p90 = quantile(lag, 0.9);

  // Gang counters are folded into the aggregate when a gang ends; stopping
  // the manager (drained) publishes the last one.
  d.manager->stop(true);
  ph.stats_after = qc.call(op("stats")).at("stats");
  for (const Query& q : queries) {
    ph.status.push_back(qc.call(job_op("status", q.id)).at("job"));
    ph.result.push_back(qc.call(job_op("result", q.id)).at("job"));
  }
  return ph;
}

// Serial ScrEngine reference for every job, on a replay of the same
// snapshot: the generation-0 copy, the same batches in the same order, and
// the compaction at the same point. Counts each job toward `out`.
void check_results(const ServePhase& ph, const std::string& ref_base,
                   bool inject_wrong, Outcome& out) {
  const auto& queries = ph.plan.queries;
  // Order jobs by the ingested edges their snapshot reflects; generation-1
  // snapshots (after the compaction) sort after every generation-0 one.
  const std::uint64_t all_edges = ph.plan.batches.size() * kBatchEdges;
  std::vector<std::pair<std::uint64_t, std::size_t>> order;  // (edges, query)
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const Json& st = ph.status[q];
    const std::uint64_t gen = st.at("generation").as_uint();
    const std::uint64_t delta = st.at("delta_edges").as_uint();
    order.emplace_back(gen == 0 ? delta : all_edges + 1 + delta, q);
  }
  std::stable_sort(order.begin(), order.end());

  gs::ingest::EdgeIngestor ref(ref_base);
  std::size_t applied = 0;
  bool compacted = false;
  std::map<std::string, Json> memo;  // spec → serial result, per snapshot
  std::uint64_t memo_key = ~0ull;
  for (const auto& [edges, q] : order) {
    const Json& st = ph.status[q];
    const std::uint64_t gen = st.at("generation").as_uint();
    while (applied < ph.plan.batches.size() &&
           (gen > 0 || ref.delta_edges() < edges)) {
      ref.ingest(ph.plan.batches[applied++]);
    }
    if (gen > 0 && !compacted) {
      ref.compact();
      compacted = true;
    }
    if (edges != memo_key) {
      memo.clear();
      memo_key = edges;
    }
    const Json& job = ph.result[q];
    bool ok = job.at("state").as_string() == "done" &&
              (gen == 0 ? ref.delta_edges() == edges && !compacted
                        : st.at("delta_edges").as_uint() == 0);
    if (ok) {
      const gs::serve::JobSpec spec = gs::serve::JobSpec::from_json(
          queries[q].spec, ref.store().vertex_count());
      const std::string key = queries[q].spec.dump();
      if (!memo.count(key)) {
        auto algo = gs::serve::make_algorithm(spec);
        gs::store::ScrEngine(ref.store()).run(*algo);
        memo[key] = gs::serve::make_result(spec, *algo);
      }
      const Json& want = memo[key];
      Json got = job.at("result");
      if (inject_wrong && q == order.front().second) {
        got.set("digest", Json(got.at("digest").as_uint() ^ 1));
        if (got.find("last_delta"))
          got.set("last_delta", Json(2 * got.at("last_delta").as_number()));
      }
      if (spec.kind == gs::serve::JobKind::kPageRank) {
        const double a = got.at("last_delta").as_number();
        const double b = want.at("last_delta").as_number();
        ok = got.at("iterations").as_uint() == want.at("iterations").as_uint() &&
             std::fabs(a - b) <= kDeltaEpsilon * std::fabs(b);
      } else {
        ok = got.at("digest").as_uint() == want.at("digest").as_uint();
      }
      if (!ok)
        std::fprintf(stderr, "perfbench: job %zu %s: got %s, serial %s\n", q,
                     queries[q].spec.dump().c_str(), got.dump().c_str(),
                     want.dump().c_str());
    } else {
      std::fprintf(stderr, "perfbench: job %zu %s not checkable: %s\n", q,
                   queries[q].spec.dump().c_str(), st.dump().c_str());
    }
    out.check(ok);
  }
  // Writes count as operations too; each must have been acknowledged.
  for (const Write& w : ph.plan.writes) out.check(w.acked >= 0);
  out.check(ph.compact_stats.is_object());
}

}  // namespace

Outcome run_serve_ingest(const Options& opt) {
  Outcome out;
  default_layers(out);
  const unsigned scale = opt.toy ? 12 : 18;
  const unsigned edge_factor = 16;
  gs::graph::EdgeList el = gs::graph::kronecker(
      scale, edge_factor, gs::graph::GraphKind::kUndirected, opt.seed);
  std::vector<gs::graph::Edge> edges = std::move(el.mutable_edges());
  std::erase_if(edges, [](const gs::graph::Edge& e) { return e.src == e.dst; });
  std::mt19937_64 rng(opt.seed);
  std::shuffle(edges.begin(), edges.end(), rng);
  const std::size_t nbase = edges.size() * 9 / 10;
  const std::vector<gs::graph::Edge> held(edges.begin() + nbase, edges.end());
  edges.resize(nbase);
  const gs::graph::EdgeList base_el(std::move(edges), el.vertex_count(),
                                    gs::graph::GraphKind::kUndirected);

  gs::tile::ConvertOptions copt;
  copt.tile_bits = opt.toy ? 8 : 12;
  copt.group_side = 8;
  gs::serve::ManagerOptions mo;
  mo.scheduler.stream_memory_bytes = 64ull << 20;  // pool holds the store
  mo.scheduler.segment_bytes = 8ull << 20;
  WorkDir work(opt.work_dir);

  // One set-up: convert + open the ingestor + start the manager and server.
  // The generation-0 files are copied aside (untimed) for the oracle.
  int setups = 0;
  std::vector<double> setup_s;
  auto setup = [&](const std::string& ref_dir) {
    const std::string dir = work.file("setup" + std::to_string(setups++));
    std::filesystem::create_directories(dir);
    gs::Timer t;
    gs::tile::convert_to_tiles(base_el, dir + "/g", copt);
    auto daemon = std::make_unique<Daemon>(dir + "/g", mo);
    setup_s.push_back(t.seconds());
    if (!ref_dir.empty()) std::filesystem::copy(dir, ref_dir);
    return std::pair(std::move(daemon), dir + "/g");
  };
  for (int k = 0; k + 1 < kServeSetups; ++k) setup("");

  auto phase_with = [&](Tracer* tracer) {
    const std::string ref_dir = work.file("ref" + std::to_string(setups));
    auto [daemon, base] = setup(ref_dir);
    ServePhase ph =
        run_phase(*daemon, make_plan(base_el, held, opt.seconds, opt.seed), tracer);
    daemon.reset();
    check_results(ph, ref_dir + "/g", opt.inject_wrong && tracer == nullptr, out);
    const gs::tile::TileStore live = gs::tile::TileStore::open(base);
    return std::tuple(std::move(ph), live.storage_bytes(), live.edge_count());
  };

  const auto [ph, store_bytes, store_edges] = phase_with(nullptr);
  const double run_s = ph.last_done - ph.first_due;
  std::vector<double> latency, queue_wait, job_run;
  double overlay_edges = 0;
  for (std::size_t q = 0; q < ph.plan.queries.size(); ++q) {
    const Query& query = ph.plan.queries[q];
    const double run = ph.status[q].at("stats").at("seconds").as_number();
    latency.push_back(query.done - query.due);
    job_run.push_back(run);
    queue_wait.push_back(query.done - query.due - run);
    overlay_edges += ph.status[q].at("stats").at("overlay_edges").as_number();
  }
  std::map<std::string, std::vector<double>> by_kind;
  for (std::size_t q = 0; q < ph.plan.queries.size(); ++q)
    by_kind[ph.plan.queries[q].spec.at("algo").as_string()].push_back(latency[q]);
  std::string kinds = "{";
  for (const auto& [kind, lat] : by_kind)
    kinds += (kinds.size() > 1 ? ", " : "") + json_string(kind) + ": [" +
             std::to_string(lat.size()) + ", " + std::to_string(median(lat)) + "]";
  out.note("jobs_and_p50_s_by_kind", kinds + "}");
  std::vector<double> ingest_lat;
  for (const Write& w : ph.plan.writes) ingest_lat.push_back(w.acked - w.due);
  const Json& s0 = ph.stats_before;
  const Json& s1 = ph.stats_after;
  const auto diff = [&](const char* k) {
    return static_cast<double>(s1.at(k).as_uint() - s0.at(k).as_uint());
  };

  out.set("setup_s", median(setup_s), "s");
  out.set("run_s", run_s, "s");
  out.set("read_mib", diff("bytes_read") / kMiB, "MiB");
  out.set("peak_rss_mib", ph.peak_rss_mib, "MiB");
  out.set("store_bytes_per_edge",
          static_cast<double>(store_bytes) /
              static_cast<double>(std::max<std::uint64_t>(store_edges, 1)),
          "B/edge");
  out.set("job_p50_s", median(latency), "s");

  out.set("serve.job_p90_s", quantile(latency, 0.9), "s");
  out.set("serve.queue_wait_p50_s", median(queue_wait), "s");
  out.set("serve.queue_wait_p90_s", quantile(queue_wait, 0.9), "s");
  out.set("serve.job_run_p50_s", median(job_run), "s");
  const double physical = diff("tiles_fetched") + diff("tiles_from_cache");
  out.set("serve.tile_dedup",
          physical > 0 ? diff("tile_dispatches") / physical : 0, "ratio");
  out.set("serve.mib_per_job",
          diff("bytes_read") / kMiB / std::max(diff("jobs_done"), 1.0), "MiB");
  out.set("serve.gangs", diff("gangs"), "count");
  out.set("store.tiles_from_disk", diff("tiles_fetched"), "count");
  out.set("store.tiles_from_cache", diff("tiles_from_cache"), "count");
  out.set("store.cache_hit_ratio",
          physical > 0 ? diff("tiles_from_cache") / physical : 0, "ratio");
  out.set("tile.overlay_edges", overlay_edges, "count");
  const double ingested = static_cast<double>(ph.plan.batches.size() * kBatchEdges);
  const double written = ph.compact_stats.at("bytes_written").as_number();
  const double compact_secs = ph.compact_stats.at("seconds").as_number();
  out.set("ingest.wal_mib", ph.wal_bytes / kMiB, "MiB");
  out.set("ingest.compact_mib_written", written / kMiB, "MiB");
  out.set("ingest.compact_medges_per_s",
          ph.compact_stats.at("merged_edges").as_number() / 1e6 /
              std::max(compact_secs, 1e-9),
          "Medges/s");
  out.set("ingest.lat_p50_s", median(ingest_lat), "s");
  out.set("ingest.lat_p90_s", quantile(ingest_lat, 0.9), "s");
  out.set("ingest.compact_s", ph.compact_s, "s");
  out.set("ingest.write_amp",
          ingested > 0 ? (ph.wal_bytes + written) / (ingested * 8) : 0, "ratio");
  out.set("loadgen.lag_p90_s", ph.lag_p90, "s");
  out.set("loadgen.backlog", static_cast<double>(ph.backlog), "count");
  out.set("trace.run_s", run_s, "s");
  out.set("trace.unattributed_s", run_s, "s");
  out.note("jobs", std::to_string(ph.plan.queries.size()));
  out.note("writes", std::to_string(ph.plan.writes.size()));
  out.note("load", "{\"period_s\": " + std::to_string(kPeriod) +
                       ", \"burst\": {\"neighbors\": " +
                       std::to_string(kBurstNeighbors) +
                       ", \"bfs\": " + std::to_string(kBurstBfs) +
                       ", \"sssp\": " + std::to_string(kBurstSssp) +
                       ", \"pagerank\": " + std::to_string(kBurstPageRank) +
                       "}, \"batches_per_s\": " +
                       std::to_string(2 * kWritesPerPeriod / kPeriod) +
                       ", \"batch_edges\": " + std::to_string(kBatchEdges) +
                       ", \"connections\": 2}");
  out.note("graph", "{\"name\": \"Kron-" + std::to_string(scale) + "-" +
                        std::to_string(edge_factor) +
                        " undirected\", \"vertices\": " +
                        std::to_string(base_el.vertex_count()) +
                        ", \"base_edges\": " + std::to_string(base_el.edge_count()) +
                        ", \"held_out_edges\": " + std::to_string(held.size()) + "}");
  out.note("device", device_json(mo.snapshot_device));

  if (ph.lag_p90 > kMaxLagP90) {
    out.correct = false;
    out.note("invalid", json_string("load generator fell behind"));
  }

  if (opt.trace) {
    Tracer tracer(opt.threads);
    const ServePhase traced = std::get<0>(phase_with(&tracer));
    const double traced_run_s = traced.last_done - traced.first_due;
    out.set("trace.run_s", traced_run_s, "s");
    out.set("trace.unattributed_s", traced_run_s, "s");
    out.set("trace.overhead_frac", traced_run_s / run_s - 1, "ratio");
    out.set("serve.rtt_p50_us", median(traced.rtt_us), "us");
    tracer.write_chrome(opt.trace_path, 400000);
    const double probe_s = opt.toy ? 0.05 : 0.5;
    // The oracle's replay of the untraced run: the same live generation.
    const std::string probe_base =
        work.file("ref" + std::to_string(kServeSetups - 1)) + "/g";
    gs::tile::TileStore store = gs::tile::TileStore::open(probe_base);
    out.set("io.seq_mib_per_s",
            probe_seq_read_mib_per_s(probe_base, mo.snapshot_device,
                                     mo.scheduler.segment_bytes, probe_s),
            "MiB/s");
    out.set("tile.decode_medges_per_s",
            probe_decode_medges_per_s(store, probe_s), "Medges/s");
    out.set("algo.kernel_medges_per_s",
            probe_kernel_medges_per_s(
                store,
                [] {
                  return std::make_unique<gs::algo::TilePageRank>(
                      gs::algo::PageRankOptions{0.85, kPageRankIterations, 0.0});
                },
                probe_s),
            "Medges/s");
  }
  return out;
}

}  // namespace perfbench
