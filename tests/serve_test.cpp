// Tests for the gstore_serve subsystem: the NDJSON protocol, generation
// pinning, the shared-I/O gang scheduler (bit-identity vs serial runs and
// fetch dedup), job lifecycle through JobManager, and the TCP front end
// (ISSUE: concurrent multi-tenant query server).
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "algo/pagerank.h"
#include "graph/generator.h"
#include "ingest/ingestor.h"
#include "io/file.h"
#include "serve/client.h"
#include "serve/job.h"
#include "serve/protocol.h"
#include "serve/scheduler.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "store/scr_engine.h"
#include "test_util.h"
#include "tile/convert.h"
#include "tile/edge_block.h"
#include "tile/overlay.h"
#include "util/status.h"

namespace gstore {
namespace {

using serve::JobKind;
using serve::JobManager;
using serve::JobSpec;
using serve::JobState;
using serve::Json;
using serve::ManagerOptions;
using serve::SnapshotManager;

// ---- helpers ---------------------------------------------------------------

bool file_exists(const std::string& path) {
  return ::access(path.c_str(), F_OK) == 0;
}

// Converts `el` under `dir` and opens an ingestor on it.
std::string convert(const io::TempDir& dir, const graph::EdgeList& el,
                    tile::ConvertOptions opts = {},
                    const std::string& name = "g") {
  const std::string base = dir.file(name);
  tile::convert_to_tiles(el, base, opts);
  return base;
}

// A graph whose vertices all fall inside ONE tile (n < 2^16): with a single
// non-empty tile, cost_chunks emits one chunk, every kernel dispatch runs
// sequentially, and even PageRank's float accumulation order is fixed — so
// digests are bit-comparable between the serial engine and any gang mix.
graph::EdgeList single_tile_graph() {
  return graph::uniform_random(2000, 8000, graph::GraphKind::kUndirected, 11);
}

// Multi-tile graph for dedup/cache tests (order-independent algorithms only).
graph::EdgeList multi_tile_graph() {
  return graph::uniform_random(150000, 450000, graph::GraphKind::kUndirected,
                               23);
}

// Serial reference: same algorithm, same store (with whatever overlay is
// attached), run through the single-tenant ScrEngine.
Json serial_result(tile::TileStore& store, const JobSpec& spec) {
  auto algo = serve::make_algorithm(spec);
  store::EngineConfig cfg;
  store::ScrEngine engine(store, cfg);
  engine.run(*algo);
  return serve::make_result(spec, *algo);
}

std::uint64_t digest_of(const Json& result) {
  return result.at("digest").as_uint();
}

JobSpec bfs_spec(graph::vid_t root) {
  JobSpec s;
  s.kind = JobKind::kBfs;
  s.vertex = root;
  return s;
}

Json bfs_json(graph::vid_t root) {
  Json j = Json::object();
  j.set("algo", Json("bfs"));
  j.set("root", Json(static_cast<std::uint64_t>(root)));
  return j;
}

// ---- protocol --------------------------------------------------------------

TEST(ServeProtocol, RoundTripsValues) {
  const std::string line =
      R"({"op":"submit","n":-3,"pi":1.5,"flag":true,"none":null,)"
      R"("list":[1,2,3],"s":"a\"b\\c\né"})";
  const Json j = Json::parse(line);
  EXPECT_EQ(j.at("op").as_string(), "submit");
  EXPECT_EQ(j.at("n").as_int(), -3);
  EXPECT_DOUBLE_EQ(j.at("pi").as_number(), 1.5);
  EXPECT_TRUE(j.at("flag").as_bool());
  EXPECT_EQ(j.at("list").items().size(), 3u);
  EXPECT_EQ(j.at("s").as_string(), "a\"b\\c\n\xc3\xa9");
  // dump → parse → dump is a fixed point.
  const std::string once = j.dump();
  EXPECT_EQ(Json::parse(once).dump(), once);
}

TEST(ServeProtocol, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), FormatError);
  EXPECT_THROW(Json::parse("{\"a\":}"), FormatError);
  EXPECT_THROW(Json::parse("[1,2,]"), FormatError);
  EXPECT_THROW(Json::parse("{} trailing"), FormatError);
  EXPECT_THROW(Json::parse("\"unterminated"), FormatError);
  std::string deep;
  for (int k = 0; k < 100; ++k) deep += "[";
  EXPECT_THROW(Json::parse(deep), FormatError);
}

TEST(ServeProtocol, CheckedIntegerAccess) {
  EXPECT_EQ(Json::parse("{\"v\":12345678901}").at("v").as_uint(),
            12345678901ull);
  EXPECT_THROW(Json::parse("{\"v\":-1}").at("v").as_uint(), Error);
  EXPECT_THROW(Json::parse("{\"v\":1.5}").at("v").as_int(), Error);
  EXPECT_THROW(Json::parse("{}").at("missing"), Error);
}

// ---- snapshots + generation pinning ---------------------------------------

TEST(SnapshotManager, SharesSnapshotsBetweenWrites) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  SnapshotManager snaps(ingestor);

  const serve::SnapshotRef a = snaps.acquire();
  const serve::SnapshotRef b = snaps.acquire();
  EXPECT_EQ(a.get(), b.get()) << "identical state must share one snapshot";
  EXPECT_EQ(snaps.pinned_generations(), 1u);

  const graph::Edge e[] = {{1, 2}};
  ingestor.ingest(e);
  const serve::SnapshotRef c = snaps.acquire();
  EXPECT_NE(a.get(), c.get()) << "a write must invalidate the cached snapshot";
  EXPECT_EQ(c->delta_edges(), 1u);
}

TEST(SnapshotManager, CompactionDefersUnlinkUntilLastPinDrops) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  SnapshotManager snaps(ingestor);

  const graph::Edge e[] = {{3, 4}, {5, 6}};
  ingestor.ingest(e);
  serve::SnapshotRef pinned = snaps.acquire();
  const std::uint32_t old_gen = pinned->generation();
  const std::string old_base = tile::TileStore::generation_base(base, old_gen);

  const ingest::CompactStats cs = snaps.compact();
  EXPECT_EQ(cs.old_generation, old_gen);
  // The pinned generation's files must survive the compaction...
  EXPECT_EQ(snaps.retired_pending_unlink(), 1u);
  EXPECT_TRUE(file_exists(tile::TileStore::tiles_path(old_base)));
  // ...and still serve reads (a full BFS over the pinned snapshot).
  {
    serve::SharedScheduler sched(*pinned, serve::SchedulerConfig{});
    auto algo = serve::make_algorithm(bfs_spec(0));
    std::vector<serve::JobState> states;
    sched.run({serve::GangJob{1, algo.get(), {}}}, nullptr,
              [&](const serve::GangJob&, serve::JobState st,
                  const serve::JobStats&, const std::string&) {
                states.push_back(st);
              });
    ASSERT_EQ(states.size(), 1u);
    EXPECT_EQ(states[0], JobState::kDone);
  }
  // Dropping the last pin reclaims the retired generation promptly.
  pinned.reset();
  EXPECT_EQ(snaps.retired_pending_unlink(), 0u);
  EXPECT_FALSE(file_exists(tile::TileStore::tiles_path(old_base)));
  // The new generation is what fresh snapshots see.
  EXPECT_EQ(snaps.acquire()->generation(), cs.new_generation);
}

// ---- gang scheduling: correctness -----------------------------------------

TEST(JobManager, MixedGangBitIdenticalToSerial) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  // Live WAL edges so the overlay path is part of the identity check.
  const graph::Edge extra[] = {{10, 1500}, {7, 42}, {1999, 3}};
  ingestor.ingest(extra);

  // Serial references first (same live store + overlay).
  std::vector<JobSpec> specs;
  for (graph::vid_t r : {0u, 17u, 999u}) specs.push_back(bfs_spec(r));
  {
    JobSpec s;
    s.kind = JobKind::kSssp;
    s.vertex = 5;
    specs.push_back(s);
  }
  {
    JobSpec s;
    s.kind = JobKind::kWcc;
    specs.push_back(s);
  }
  {
    JobSpec s;
    s.kind = JobKind::kPageRank;
    s.max_iterations = 15;
    specs.push_back(s);
  }
  {
    JobSpec s;
    s.kind = JobKind::kNeighbors;
    s.vertex = 10;
    specs.push_back(s);
  }
  std::vector<Json> serial;
  for (const JobSpec& s : specs)
    serial.push_back(serial_result(ingestor.store(), s));

  // The whole mix as ONE gang sharing one fetch stream.
  JobManager manager(ingestor);
  std::vector<std::uint64_t> ids;
  for (const JobSpec& s : specs) {
    Json j = s.to_json();
    ids.push_back(manager.submit(j));
  }
  manager.start();
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ASSERT_TRUE(manager.wait(ids[k], std::chrono::milliseconds(60000)));
    const Json r = manager.result(ids[k]);
    ASSERT_EQ(r.at("state").as_string(), "done")
        << "job " << k << ": " << r.dump();
    EXPECT_EQ(digest_of(r.at("result")), digest_of(serial[k]))
        << to_string(specs[k].kind) << " diverged from the serial engine";
  }
  manager.stop(/*drain=*/true);
}

TEST(JobManager, SharedFetchDedup32WayBfs) {
  io::TempDir dir;
  const std::string base = convert(dir, multi_tile_graph());
  ingest::EdgeIngestor ingestor(base);

  const auto run_n_bfs = [&](std::size_t n) {
    ManagerOptions mo;
    mo.max_gang = 64;
    JobManager manager(ingestor, mo);
    std::vector<std::uint64_t> ids;
    for (std::size_t k = 0; k < n; ++k) {
      Json j = bfs_json(0);
      ids.push_back(manager.submit(j));
    }
    manager.start();
    for (const std::uint64_t id : ids)
      EXPECT_TRUE(manager.wait(id, std::chrono::milliseconds(120000)));
    // Gang-level I/O counters fold into the aggregate when the gang ends;
    // stop() joins the scheduler thread, so the fold is visible after it.
    manager.stop(true);
    const Json s = manager.stats();
    EXPECT_EQ(s.at("jobs_done").as_uint(), n);
    return s.at("bytes_read").as_uint();
  };

  const std::uint64_t single = run_n_bfs(1);
  const std::uint64_t gang32 = run_n_bfs(32);
  ASSERT_GT(single, 0u);
  // The acceptance bound: 32 co-scheduled BFS jobs share one tile stream,
  // so they read less than 2× one job's bytes (not 32×).
  EXPECT_LT(gang32, 2 * single)
      << "shared fetch is not deduplicating: 32 jobs read " << gang32
      << " bytes vs " << single << " for one";
}

TEST(JobManager, LiveIngestAndSnapshotIsolation) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);

  // Pre-ingest serial reference.
  const Json serial_before = serial_result(ingestor.store(), bfs_spec(0));

  JobManager manager(ingestor);
  Json j0 = bfs_json(0);
  const std::uint64_t before = manager.submit(j0);
  manager.start();
  ASSERT_TRUE(manager.wait(before, std::chrono::milliseconds(60000)));

  // Live ingest through the manager (what the wire-level `ingest` op does),
  // then a job that must see the NEW state.
  const std::vector<graph::Edge> burst = {{0, 1999}, {0, 1998}, {0, 1997}};
  EXPECT_EQ(manager.ingest(burst), 3u);
  const Json serial_after = serial_result(ingestor.store(), bfs_spec(0));

  Json j1 = bfs_json(0);
  const std::uint64_t after = manager.submit(j1);
  ASSERT_TRUE(manager.wait(after, std::chrono::milliseconds(60000)));

  const Json rb = manager.result(before);
  const Json ra = manager.result(after);
  EXPECT_EQ(digest_of(rb.at("result")), digest_of(serial_before));
  EXPECT_EQ(digest_of(ra.at("result")), digest_of(serial_after));
  // The snapshot key each job recorded proves which state it ran against.
  EXPECT_EQ(manager.status(before).at("delta_edges").as_uint(), 0u);
  EXPECT_EQ(manager.status(after).at("delta_edges").as_uint(), 3u);
  manager.stop(true);
}

TEST(JobManager, CompactMidJobRunsOnPinnedGeneration) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  const graph::Edge e[] = {{0, 1000}, {1000, 1500}};
  ingestor.ingest(e);
  const Json serial = serial_result(ingestor.store(), bfs_spec(0));

  JobManager manager(ingestor);
  // Many iterations of real work so compaction lands mid-gang: a wide
  // PageRank plus the BFS under test.
  Json pr = Json::object();
  pr.set("algo", Json("pagerank"));
  pr.set("iterations", Json(static_cast<std::uint64_t>(200)));
  const std::uint64_t pr_id = manager.submit(pr);
  Json j = bfs_json(0);
  const std::uint64_t bfs_id = manager.submit(j);
  manager.start();

  // Compact while the gang runs. The gang's snapshot pinned the old
  // generation, so this must neither fail nor perturb results.
  manager.compact();

  ASSERT_TRUE(manager.wait(bfs_id, std::chrono::milliseconds(120000)));
  ASSERT_TRUE(manager.wait(pr_id, std::chrono::milliseconds(120000)));
  const Json r = manager.result(bfs_id);
  ASSERT_EQ(r.at("state").as_string(), "done") << r.dump();
  EXPECT_EQ(digest_of(r.at("result")), digest_of(serial));
  EXPECT_EQ(manager.result(pr_id).at("state").as_string(), "done");
  manager.stop(true);
  // With every snapshot released, no retired generation may linger.
  EXPECT_EQ(manager.snapshots().retired_pending_unlink(), 0u);
}

// ---- lifecycle, fairness bookkeeping, backpressure -------------------------

TEST(JobManager, BackpressureRejectsPastMaxQueued) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  ManagerOptions mo;
  mo.max_queued = 2;
  JobManager manager(ingestor, mo);

  Json a = bfs_json(0);
  Json b = bfs_json(1);
  Json c = bfs_json(2);
  manager.submit(a);
  manager.submit(b);
  EXPECT_THROW(manager.submit(c), Error);
  const Json s = manager.stats();
  EXPECT_EQ(s.at("jobs_rejected").as_uint(), 1u);
  EXPECT_EQ(s.at("jobs_queued").as_uint(), 2u);
  // The queue drains once the scheduler starts; then submits work again.
  manager.start();
  manager.stop(true);
  EXPECT_EQ(manager.stats().at("jobs_done").as_uint(), 2u);
}

TEST(JobManager, CancelQueuedAndInvalidSpecs) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  JobManager manager(ingestor);

  Json j = bfs_json(5);
  const std::uint64_t id = manager.submit(j);
  EXPECT_TRUE(manager.cancel(id));
  EXPECT_FALSE(manager.cancel(id)) << "already terminal";
  EXPECT_EQ(manager.status(id).at("state").as_string(), "cancelled");
  EXPECT_TRUE(manager.wait(id, std::chrono::milliseconds(0)));

  // Spec validation happens at submit time, against the store's range.
  Json bad_root = bfs_json(1u << 30);
  EXPECT_THROW(manager.submit(bad_root), InvalidArgument);
  Json bad_algo = Json::object();
  bad_algo.set("algo", Json("dijkstra"));
  EXPECT_THROW(manager.submit(bad_algo), InvalidArgument);
  EXPECT_THROW(manager.status(9999), InvalidArgument);
  EXPECT_THROW(manager.result(id + 1000), InvalidArgument);
}

TEST(JobManager, StatsAreJobScopedWithMonotonicAggregate) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  JobManager manager(ingestor);

  // A multi-iteration BFS and a single-pass neighbors probe in one gang:
  // their per-job counters must stay separate.
  Json a = bfs_json(0);
  Json b = Json::object();
  b.set("algo", Json("neighbors"));
  b.set("vertex", Json(static_cast<std::uint64_t>(0)));
  const std::uint64_t bfs_id = manager.submit(a);
  const std::uint64_t nbr_id = manager.submit(b);
  manager.start();
  ASSERT_TRUE(manager.wait(bfs_id, std::chrono::milliseconds(60000)));
  ASSERT_TRUE(manager.wait(nbr_id, std::chrono::milliseconds(60000)));

  const Json bfs_stats = manager.status(bfs_id).at("stats");
  const Json nbr_stats = manager.status(nbr_id).at("stats");
  EXPECT_GT(bfs_stats.at("iterations").as_uint(), 1u);
  EXPECT_EQ(nbr_stats.at("iterations").as_uint(), 1u)
      << "neighbors is single-pass; a shared counter would show BFS rounds";
  EXPECT_GT(bfs_stats.at("edges_processed").as_uint(),
            nbr_stats.at("edges_processed").as_uint());

  // The process-wide aggregate is separate and only ever grows.
  const std::uint64_t done1 = manager.stats().at("jobs_done").as_uint();
  EXPECT_EQ(done1, 2u);
  Json again = bfs_json(1);
  const std::uint64_t id2 = manager.submit(again);
  ASSERT_TRUE(manager.wait(id2, std::chrono::milliseconds(60000)));
  EXPECT_EQ(manager.stats().at("jobs_done").as_uint(), done1 + 1);
  manager.stop(true);
}

// ---- TCP server ------------------------------------------------------------

TEST(ServeServer, EndToEndOverTcp) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  const Json serial = serial_result(ingestor.store(), bfs_spec(0));

  JobManager manager(ingestor);
  manager.start();
  serve::Server server(manager);
  server.start();
  ASSERT_GT(server.port(), 0);

  serve::Client client("127.0.0.1", server.port());
  Json ping = Json::object();
  ping.set("op", Json("ping"));
  EXPECT_TRUE(client.call(ping).at("ok").as_bool());

  Json info_req = Json::object();
  info_req.set("op", Json("info"));
  const Json info = client.call(info_req).at("info");
  EXPECT_EQ(info.at("vertex_count").as_uint(), 2000u);

  // Submit over the wire, wait over the wire, compare against serial.
  Json submit = Json::object();
  submit.set("op", Json("submit"));
  submit.set("job", bfs_json(0));
  const std::uint64_t id = client.call(submit).at("id").as_uint();
  Json wait = Json::object();
  wait.set("op", Json("wait"));
  wait.set("id", Json(id));
  wait.set("timeout_ms", Json(static_cast<std::uint64_t>(60000)));
  const Json waited = client.call(wait);
  EXPECT_TRUE(waited.at("done").as_bool());
  Json result = Json::object();
  result.set("op", Json("result"));
  result.set("id", Json(id));
  const Json r = client.call(result).at("job");
  EXPECT_EQ(r.at("state").as_string(), "done");
  EXPECT_EQ(digest_of(r.at("result")), digest_of(serial));

  // Wire-level ingest, then a second client in parallel with the first.
  Json ing = Json::object();
  ing.set("op", Json("ingest"));
  Json edges = Json::array();
  Json e1 = Json::array();
  e1.push(Json(static_cast<std::uint64_t>(0)));
  e1.push(Json(static_cast<std::uint64_t>(1999)));
  edges.push(std::move(e1));
  ing.set("edges", std::move(edges));
  EXPECT_EQ(client.call(ing).at("accepted").as_uint(), 1u);

  serve::Client second("127.0.0.1", server.port());
  Json stats_req = Json::object();
  stats_req.set("op", Json("stats"));
  const Json stats = second.call(stats_req).at("stats");
  EXPECT_GE(stats.at("jobs_done").as_uint(), 1u);
  EXPECT_EQ(stats.at("edges_ingested").as_uint(), 1u);

  // Protocol errors are responses, not dropped connections.
  const Json bad = client.request(Json::parse("{\"op\":\"nope\"}"));
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_NE(bad.at("error").as_string().find("unknown op"),
            std::string::npos);
  const Json garbage = client.request(Json::parse("{\"no_op\":1}"));
  EXPECT_FALSE(garbage.at("ok").as_bool());

  // Client-initiated shutdown: wait_shutdown() observes the drain flag.
  Json sd = Json::object();
  sd.set("op", Json("shutdown"));
  sd.set("drain", Json(true));
  EXPECT_TRUE(client.call(sd).at("ok").as_bool());
  EXPECT_TRUE(server.wait_shutdown());
  server.stop();
  manager.stop(true);
}

TEST(ServeServer, SurvivesAbruptClientsAndRestarts) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  JobManager manager(ingestor);
  manager.start();
  serve::Server server(manager);
  server.start();

  // Clients that connect and vanish without a clean close, plus one that
  // sends garbage: none of it may wedge the accept loop.
  for (int k = 0; k < 4; ++k) {
    serve::Client c("127.0.0.1", server.port());
  }
  {
    serve::Client c("127.0.0.1", server.port());
    // A non-object request gets an error response, not a dropped connection.
    const Json r = c.request(Json::parse("\"just a string\""));
    EXPECT_FALSE(r.at("ok").as_bool());
    EXPECT_THROW(c.call(Json::parse("\"again\"")), Error);
  }
  serve::Client alive("127.0.0.1", server.port());
  Json ping = Json::object();
  ping.set("op", Json("ping"));
  EXPECT_TRUE(alive.call(ping).at("ok").as_bool());

  server.stop();
  manager.stop(false);
}

// ---- chaos: fault injection through the serve read path --------------------

TEST(ServeChaos, JobsReachTerminalStatesUnderIoFaults) {
  io::TempDir dir;
  const std::string base = convert(dir, multi_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  ManagerOptions mo;
  // Transient faults at rates the retry ladder should mostly absorb, plus
  // enough EIO to exercise the gang-failure path now and then.
  mo.snapshot_device.fault_spec = "seed=7,eio=0.002,short=0.02,eintr=0.05";
  JobManager manager(ingestor, mo);

  std::vector<std::uint64_t> ids;
  for (graph::vid_t r = 0; r < 6; ++r) {
    Json j = bfs_json(r);
    ids.push_back(manager.submit(j));
  }
  manager.start();
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(manager.wait(id, std::chrono::milliseconds(120000)));
    const std::string state = manager.status(id).at("state").as_string();
    EXPECT_TRUE(state == "done" || state == "failed") << state;
    if (state == "failed") {
      // A failed job must carry a diagnosis and a queryable result payload.
      EXPECT_FALSE(manager.result(id).at("error").as_string().empty());
    }
  }
  // The daemon survives its jobs' storage faults: new work still runs.
  Json j = bfs_json(0);
  const std::uint64_t retry = manager.submit(j);
  ASSERT_TRUE(manager.wait(retry, std::chrono::milliseconds(120000)));
  manager.stop(true);
}

// ---- cache admission fairness (ISSUE 10 bugfix regression) -----------------

// Subscribes every tile every round, for a fixed number of rounds. The
// graph under test has a single non-empty tile, so this job re-reads one
// hot tile per round — the workload the cache pool exists for.
class HotTileAlgo final : public store::TileAlgorithm {
 public:
  explicit HotTileAlgo(std::uint32_t rounds) : rounds_(rounds) {}
  std::string name() const override { return "hot-tile"; }
  void init(const tile::TileStore&) override {}
  void begin_iteration(std::uint32_t) override {}
  void process_tile(const tile::TileView&) override {}
  bool end_iteration(std::uint32_t) override { return ++done_ < rounds_; }

 private:
  std::uint32_t rounds_;
  std::uint32_t done_ = 0;
};

// Occupies a gang slot for the same number of rounds but never subscribes
// a tile — it exists to keep active_jobs at 2 so the per-job fairness
// quota (budget / active_jobs) stays below the hot tile's size.
class IdleBystanderAlgo final : public store::TileAlgorithm {
 public:
  explicit IdleBystanderAlgo(std::uint32_t rounds) : rounds_(rounds) {}
  std::string name() const override { return "idle-bystander"; }
  void init(const tile::TileStore&) override {}
  void begin_iteration(std::uint32_t) override {}
  void process_tile(const tile::TileView&) override {}
  bool end_iteration(std::uint32_t) override { return ++done_ < rounds_; }
  bool tile_needed(std::uint32_t, std::uint32_t) const override {
    return false;
  }
  bool tile_useful_next(std::uint32_t, std::uint32_t) const override {
    return false;
  }

 private:
  std::uint32_t rounds_;
  std::uint32_t done_ = 0;
};

// Regression for the admission bug at src/serve/scheduler.cpp: a tile whose
// split charge exceeds every subscriber's REMAINING quota was never admitted
// even with free pool headroom, so a hot tile larger than one job's quota
// was re-fetched from disk every round. The pool here holds 1.5 tiles, the
// per-job quota (two active jobs) is 0.75 tiles, and the single subscriber's
// charge is a full tile: pre-fix the tile is fetched every round; post-fix
// it is fetched once and served from cache thereafter.
TEST(SharedScheduler, AdmitsTileLargerThanPerJobQuotaOnPoolHeadroom) {
  io::TempDir dir;
  const std::string base = convert(dir, single_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  SnapshotManager snaps(ingestor);
  serve::SnapshotRef pinned = snaps.acquire();

  const std::uint64_t tile_bytes = pinned->store().max_tile_bytes();
  ASSERT_GT(tile_bytes, 0u);
  serve::SchedulerConfig cfg;
  cfg.segment_bytes = 64 << 10;
  cfg.stream_memory_bytes =
      2 * cfg.segment_bytes + tile_bytes + tile_bytes / 2;

  constexpr std::uint32_t kRounds = 6;
  HotTileAlgo hot(kRounds);
  IdleBystanderAlgo idle(kRounds);
  serve::SharedScheduler sched(*pinned, cfg);
  std::vector<serve::JobState> states;
  const serve::GangStats gang = sched.run(
      {serve::GangJob{1, &hot, {}}, serve::GangJob{2, &idle, {}}}, nullptr,
      [&](const serve::GangJob&, serve::JobState st, const serve::JobStats&,
          const std::string&) { states.push_back(st); });

  ASSERT_EQ(states.size(), 2u);
  EXPECT_EQ(states[0], JobState::kDone);
  EXPECT_EQ(states[1], JobState::kDone);
  EXPECT_EQ(gang.rounds, kRounds);
  // One disk fetch for the first round; every later round is a cache hit.
  EXPECT_EQ(gang.tiles_fetched, 1u);
  EXPECT_EQ(gang.tiles_from_cache, kRounds - 1);
  // Dedup ratio (kernel deliveries per unique payload fetch) stays high:
  // pre-fix it collapses to 1.0 because each round re-materializes the tile.
  const double dedup = static_cast<double>(gang.tile_dispatches) /
                       static_cast<double>(gang.tiles_fetched);
  EXPECT_GE(dedup, static_cast<double>(kRounds));
  EXPECT_LT(gang.bytes_read, static_cast<std::uint64_t>(kRounds) * tile_bytes);
}

// A corrupt payload makes the tile decode throw FormatError inside the
// gang's OpenMP dispatch region. The scheduler must capture it, drain the
// stream's in-flight reads, fail every job on board with the decode error
// and leave the device reusable: a second gang over the repaired file runs
// to completion.
TEST(SharedScheduler, CorruptPayloadFailsGangCleanly) {
  io::TempDir dir;
  tile::ConvertOptions opts;
  opts.tile_bits = 5;  // many tiles, so the gang streams several segments
  const std::string base = convert(
      dir, graph::kronecker(9, 6, graph::GraphKind::kUndirected, 41), opts);
  ingest::EdgeIngestor ingestor(base);
  SnapshotManager snaps(ingestor);
  serve::SnapshotRef pinned = snaps.acquire();
  const std::string tiles =
      tile::TileStore::tiles_path(tile::TileStore::resolve(base));
  // Flip the first tile's codec byte (payloads start at file offset 64) to
  // an out-of-range id; parse_tile_payload rejects it on dispatch.
  std::uint8_t good = 0;
  {
    io::File f(tiles, io::OpenMode::kReadWrite);
    f.pread_full(&good, 1, 64);
    const std::uint8_t bad = 0xff;
    f.pwrite_full(&bad, 1, 64);
  }
  serve::SchedulerConfig cfg;
  cfg.stream_memory_bytes = 16 << 10;
  cfg.segment_bytes = 2 << 10;

  const auto run_gang = [&](std::vector<std::string>* errors) {
    std::vector<JobSpec> specs(3);
    specs[0].kind = JobKind::kWcc;
    specs[1] = bfs_spec(0);
    specs[2].kind = JobKind::kPageRank;
    specs[2].max_iterations = 3;
    std::vector<std::unique_ptr<store::TileAlgorithm>> algos;
    std::vector<serve::GangJob> jobs;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      algos.push_back(serve::make_algorithm(specs[k]));
      jobs.push_back(serve::GangJob{k, algos.back().get(), {}});
    }
    std::vector<JobState> states;
    serve::SharedScheduler sched(*pinned, cfg);
    sched.run(std::move(jobs), nullptr,
              [&](const serve::GangJob&, JobState st, const serve::JobStats&,
                  const std::string& error) {
                states.push_back(st);
                errors->push_back(error);
              });
    return states;
  };

  std::vector<std::string> errors;
  const std::vector<JobState> failed = run_gang(&errors);
  ASSERT_EQ(failed.size(), 3u);
  for (std::size_t k = 0; k < failed.size(); ++k) {
    EXPECT_EQ(failed[k], JobState::kFailed);
    EXPECT_NE(errors[k].find("codec"), std::string::npos) << errors[k];
  }
  std::vector<io::Completion> none;
  EXPECT_EQ(pinned->store().device().poll(0, 64, none), 0u);

  // Restore the byte: the same snapshot and device serve a clean gang.
  {
    io::File f(tiles, io::OpenMode::kReadWrite);
    f.pwrite_full(&good, 1, 64);
  }
  errors.clear();
  const std::vector<JobState> done = run_gang(&errors);
  ASSERT_EQ(done.size(), 3u);
  for (std::size_t k = 0; k < done.size(); ++k)
    EXPECT_EQ(done[k], JobState::kDone) << errors[k];
}

// ---- block-wise gang delivery ----------------------------------------------

// Kron-9 on 16x16 tiles (tile_bits 5), so the writer picks several codecs,
// plus a dense 32x32 block (rows 0-31 x columns 32-63) so that one tile
// spans several 512-edge blocks.
graph::EdgeList multi_codec_graph() {
  graph::EdgeList el =
      graph::kronecker(9, 6, graph::GraphKind::kUndirected, 41);
  for (graph::vid_t s = 0; s < 32; ++s)
    for (graph::vid_t d = 32; d < 64; ++d)
      el.mutable_edges().push_back({s, d});
  return el;
}

std::string multi_codec_store(const io::TempDir& dir) {
  tile::ConvertOptions opts;
  opts.tile_bits = 5;
  return convert(dir, multi_codec_graph(), opts);
}

// Ingests WAL overlay edges over tiles that have base bytes, plus one edge
// into the first tile the base store leaves empty, so the gang's
// overlay-only pass runs too. Returns the edges.
std::vector<graph::Edge> ingest_live_edges(ingest::EdgeIngestor& ingestor) {
  std::vector<graph::Edge> edges = {{10, 500}, {7, 42}, {300, 301},
                                    {480, 500}, {0, 3}, {40, 64}};
  const tile::TileStore& store = ingestor.store();
  for (std::uint64_t idx = 0; idx < store.grid().tile_count(); ++idx) {
    if (store.tile_bytes(idx) != 0) continue;
    const tile::TileCoord c = store.grid().coord_at(idx);
    edges.push_back({store.grid().tile_base(c.i) + 1,
                     store.grid().tile_base(c.j) + 2});
    break;
  }
  ingestor.ingest(edges);
  return edges;
}

// One block as a subscriber saw it.
struct SeenBlock {
  std::size_t first = 0;
  std::uint32_t size = 0;
  std::vector<graph::vid_t> src;
  std::vector<graph::vid_t> dst;
  bool operator==(const SeenBlock&) const = default;
};
using BlocksByTile = std::map<std::uint64_t, std::vector<SeenBlock>>;

void record_block(const tile::Grid& grid, const tile::EdgeBlock& b,
                  BlocksByTile& out) {
  out[grid.layout_index(b.view->coord.i, b.view->coord.j)].push_back(
      SeenBlock{b.first, b.size, {b.src, b.src + b.size},
                {b.dst, b.dst + b.size}});
}

// One-round subscriber to every tile that records the blocks it is handed
// and counts process_tile() calls (which a block-wise gang never makes).
class BlockRecorder final : public store::TileAlgorithm {
 public:
  std::string name() const override { return "block-recorder"; }
  void init(const tile::TileStore& store) override { grid_ = &store.grid(); }
  void begin_iteration(std::uint32_t) override {}
  void process_tile(const tile::TileView&) override { ++tile_calls_; }
  void process_block(const tile::EdgeBlock& b) override {
    std::lock_guard<std::mutex> lock(mu_);
    record_block(*grid_, b, blocks_);
  }
  bool end_iteration(std::uint32_t) override { return false; }

  std::uint64_t tile_calls() const { return tile_calls_.load(); }
  const BlocksByTile& blocks() const { return blocks_; }

 private:
  const tile::Grid* grid_ = nullptr;
  std::atomic<std::uint64_t> tile_calls_{0};
  std::mutex mu_;
  BlocksByTile blocks_;
};

// The gang decodes each tile once and hands every block to each
// subscriber: no subscriber gets a process_tile() call, and each sees, per
// tile, exactly the blocks of a solo for_each_block over the base view
// followed by the overlay view.
TEST(SharedScheduler, DeliversEachTileBlockwiseOnce) {
  io::TempDir dir;
  ingest::EdgeIngestor ingestor(multi_codec_store(dir));
  ingest_live_edges(ingestor);
  SnapshotManager snaps(ingestor);
  serve::SnapshotRef pinned = snaps.acquire();
  tile::TileStore& store = pinned->store();
  const tile::TileOverlay* overlay = store.overlay();
  ASSERT_NE(overlay, nullptr);

  // Solo reference: base blocks, then the spliced overlay's blocks.
  const std::uint64_t tiles = store.grid().tile_count();
  std::vector<std::uint8_t> all(store.bytes_of_range(0, tiles));
  store.read_range(0, tiles, all.data());
  BlocksByTile want;
  const auto record = [&](const tile::EdgeBlock& b) {
    record_block(store.grid(), b, want);
  };
  std::set<tile::TileCodec> codecs;
  std::uint64_t overlay_tiles = 0;
  std::uint64_t overlay_only_tiles = 0;
  for (std::uint64_t idx = 0; idx < tiles; ++idx) {
    const tile::TileView v = store.view(
        idx, all.data() + (store.tile_offset(idx) - store.tile_offset(0)));
    if (store.tile_bytes(idx) != 0) codecs.insert(v.codec);
    tile::for_each_block(v, record);
    const auto extra = overlay->tile_edges(idx);
    if (extra.empty()) continue;
    ++overlay_tiles;
    if (store.tile_bytes(idx) == 0) ++overlay_only_tiles;
    tile::for_each_block(tile::splice_view(v, extra), record);
  }
  ASSERT_GE(codecs.size(), 2u) << "store should mix codecs";
  ASSERT_GE(overlay_tiles, 2u);
  ASSERT_EQ(overlay_only_tiles, 1u);
  // The dense tile spans several base blocks.
  ASSERT_TRUE(std::any_of(want.begin(), want.end(), [](const auto& t) {
    return std::any_of(t.second.begin(), t.second.end(),
                       [](const SeenBlock& b) { return b.first > 0; });
  }));

  serve::SchedulerConfig cfg;
  cfg.stream_memory_bytes = 16 << 10;
  cfg.segment_bytes = 2 << 10;
  BlockRecorder subs[3];
  std::vector<serve::GangJob> jobs;
  for (std::uint64_t k = 0; k < 3; ++k) jobs.push_back({k, &subs[k], {}});
  serve::SharedScheduler sched(*pinned, cfg);
  std::vector<JobState> states;
  const serve::GangStats gang = sched.run(
      std::move(jobs), nullptr,
      [&](const serve::GangJob&, JobState st, const serve::JobStats&,
          const std::string& error) {
        states.push_back(st);
        EXPECT_TRUE(error.empty()) << error;
      });

  ASSERT_EQ(states.size(), 3u);
  EXPECT_EQ(gang.tile_dispatches, 3 * want.size());
  for (const BlockRecorder& r : subs) {
    EXPECT_EQ(r.tile_calls(), 0u);
    EXPECT_TRUE(r.blocks() == want) << "block sequence differs from solo";
  }
}

// Sibling of MixedGangBitIdenticalToSerial over a multi-tile, multi-codec
// store with overlay edges and a small stream budget, so blocks cross tile
// and segment boundaries and the shared pool serves later rounds. PageRank's
// cross-tile float accumulation order depends on the OpenMP schedule, so it
// agrees to within the usual rank tolerance instead of bit for bit.
TEST(SharedScheduler, MultiTileGangBitIdenticalToSerial) {
  io::TempDir dir;
  ingest::EdgeIngestor ingestor(multi_codec_store(dir));
  std::vector<graph::Edge> all_edges = ingest_live_edges(ingestor);
  const graph::EdgeList base_el = multi_codec_graph();
  all_edges.insert(all_edges.end(), base_el.edges().begin(),
                   base_el.edges().end());

  std::vector<JobSpec> specs;
  for (graph::vid_t r : {0u, 10u, 300u}) specs.push_back(bfs_spec(r));
  for (JobKind kind : {JobKind::kSssp, JobKind::kWcc, JobKind::kPageRank,
                       JobKind::kNeighbors, JobKind::kNeighbors}) {
    JobSpec s;
    s.kind = kind;
    specs.push_back(s);
  }
  specs[3].vertex = 7;
  specs[5].max_iterations = 10;
  specs[6].vertex = 500;  // gains neighbours from the overlay
  specs[7].vertex = 40;   // reverse edges in both blocks of the dense tile

  std::vector<std::unique_ptr<store::TileAlgorithm>> serial;
  for (const JobSpec& s : specs) {
    serial.push_back(serve::make_algorithm(s));
    store::ScrEngine engine(ingestor.store(), store::EngineConfig{});
    engine.run(*serial.back());
  }

  SnapshotManager snaps(ingestor);
  serve::SnapshotRef pinned = snaps.acquire();
  serve::SchedulerConfig cfg;
  cfg.stream_memory_bytes = 16 << 10;
  cfg.segment_bytes = 2 << 10;
  std::vector<std::unique_ptr<store::TileAlgorithm>> ganged;
  std::vector<serve::GangJob> jobs;
  for (std::size_t k = 0; k < specs.size(); ++k) {
    ganged.push_back(serve::make_algorithm(specs[k]));
    jobs.push_back(serve::GangJob{k, ganged.back().get(), {}});
  }
  serve::SharedScheduler sched(*pinned, cfg);
  std::size_t finished = 0;
  const serve::GangStats gang = sched.run(
      std::move(jobs), nullptr,
      [&](const serve::GangJob& job, JobState st, const serve::JobStats&,
          const std::string& error) {
        EXPECT_EQ(st, JobState::kDone) << "job " << job.id << ": " << error;
        ++finished;
      });
  ASSERT_EQ(finished, specs.size());
  EXPECT_GT(gang.tiles_from_cache, 0u);

  for (std::size_t k = 0; k < specs.size(); ++k) {
    const Json want = serve::make_result(specs[k], *serial[k]);
    const Json got = serve::make_result(specs[k], *ganged[k]);
    if (specs[k].kind == JobKind::kNeighbors) {
      // The serial engine runs the same kernel, so also check the
      // adjacency itself against the edge list.
      std::set<std::uint64_t> adj;
      for (const graph::Edge& e : all_edges) {
        if (e.src == e.dst) continue;
        if (e.src == specs[k].vertex) adj.insert(e.dst);
        if (e.dst == specs[k].vertex) adj.insert(e.src);
      }
      std::vector<std::uint64_t> listed;
      for (const Json& u : got.at("neighbors").items())
        listed.push_back(u.as_uint());
      EXPECT_EQ(listed, std::vector<std::uint64_t>(adj.begin(), adj.end()))
          << "neighbors of " << specs[k].vertex;
    }
    if (specs[k].kind != JobKind::kPageRank) {
      EXPECT_EQ(digest_of(got), digest_of(want))
          << to_string(specs[k].kind) << " job " << k
          << " diverged from the serial engine";
      continue;
    }
    const auto& a = dynamic_cast<const algo::TilePageRank&>(*serial[k]);
    const auto& b = dynamic_cast<const algo::TilePageRank&>(*ganged[k]);
    EXPECT_EQ(b.iterations_run(), a.iterations_run());
    ASSERT_EQ(b.ranks().size(), a.ranks().size());
    for (std::size_t v = 0; v < a.ranks().size(); ++v)
      ASSERT_NEAR(b.ranks()[v], a.ranks()[v], 1e-4) << "vertex " << v;
  }
}

// REWIND of the stream's last two segments in the gang. Stream memory is
// exactly two segments, so the shared pool is empty and every rewind
// dispatch is a tile still resident in a segment from the previous round.
// A lone PageRank job needs every tile every round, so each round after the
// first fetches fewer tiles than it dispatches by the resident count, the
// same count a solo ScrEngine over the same stream rewinds. A mixed gang
// over that stream still matches the solo engine.
TEST(SharedScheduler, RewindsLastTwoSegmentsAcrossRounds) {
  io::TempDir dir;
  ingest::EdgeIngestor ingestor(multi_codec_store(dir));
  ingest_live_edges(ingestor);
  SnapshotManager snaps(ingestor);
  serve::SnapshotRef pinned = snaps.acquire();
  tile::TileStore& store = pinned->store();
  const std::uint64_t tiles = store.grid().tile_count();
  std::uint64_t base_tiles = 0;
  std::uint64_t overlay_only = 0;
  for (std::uint64_t idx = 0; idx < tiles; ++idx) {
    if (store.tile_bytes(idx) != 0)
      ++base_tiles;
    else if (!store.overlay()->tile_edges(idx).empty())
      ++overlay_only;
  }

  serve::SchedulerConfig cfg;
  cfg.segment_bytes = 2 << 10;
  cfg.stream_memory_bytes = 2 * cfg.segment_bytes;  // no pool
  ASSERT_GT(store.bytes_of_range(0, tiles), cfg.stream_memory_bytes);

  const auto run_gang = [&](const std::vector<JobSpec>& specs,
                            const serve::SchedulerConfig& c,
                            std::vector<std::unique_ptr<store::TileAlgorithm>>&
                                algos) {
    std::vector<serve::GangJob> jobs;
    for (std::size_t k = 0; k < specs.size(); ++k) {
      algos.push_back(serve::make_algorithm(specs[k]));
      jobs.push_back(serve::GangJob{k, algos.back().get(), {}});
    }
    serve::SharedScheduler sched(*pinned, c);
    return sched.run(std::move(jobs), nullptr,
                     [&](const serve::GangJob& job, JobState st,
                         const serve::JobStats&, const std::string& error) {
                       EXPECT_EQ(st, JobState::kDone)
                           << "job " << job.id << ": " << error;
                     });
  };

  JobSpec pr;
  pr.kind = JobKind::kPageRank;
  pr.max_iterations = 4;
  std::vector<std::unique_ptr<store::TileAlgorithm>> lone;
  const serve::GangStats g = run_gang({pr}, cfg, lone);
  ASSERT_EQ(g.rounds, pr.max_iterations);
  EXPECT_GT(g.tiles_from_cache, 0u);
  EXPECT_EQ(g.tile_dispatches, g.rounds * (base_tiles + overlay_only));
  EXPECT_EQ(g.tiles_fetched + g.tiles_from_cache, g.rounds * base_tiles);
  EXPECT_EQ(g.bytes_copied_to_pool, 0u);

  auto solo = serve::make_algorithm(pr);
  store::EngineConfig ecfg;
  ecfg.segment_bytes = cfg.segment_bytes;
  ecfg.stream_memory_bytes = cfg.stream_memory_bytes;
  const store::EngineStats e = store::ScrEngine(store, ecfg).run(*solo);
  EXPECT_EQ(g.tiles_from_cache, e.tiles_from_cache);
  EXPECT_EQ(g.tiles_fetched, e.tiles_from_disk);
  EXPECT_EQ(g.bytes_read, e.bytes_read);

  // The base policy rereads every tile every round.
  serve::SchedulerConfig base = cfg;
  base.rewind = false;
  std::vector<std::unique_ptr<store::TileAlgorithm>> lone_base;
  const serve::GangStats r = run_gang({pr}, base, lone_base);
  EXPECT_EQ(r.tiles_from_cache, 0u);
  EXPECT_EQ(r.tiles_fetched, r.rounds * base_tiles);

  // A mixed gang rewinding resident tiles matches the solo engine.
  std::vector<JobSpec> specs;
  for (graph::vid_t root : {0u, 300u}) specs.push_back(bfs_spec(root));
  for (JobKind kind : {JobKind::kSssp, JobKind::kWcc, JobKind::kPageRank,
                       JobKind::kNeighbors}) {
    JobSpec s;
    s.kind = kind;
    specs.push_back(s);
  }
  specs[2].vertex = 7;
  specs[4].max_iterations = 10;
  specs[5].vertex = 500;
  std::vector<std::unique_ptr<store::TileAlgorithm>> ganged;
  const serve::GangStats mixed = run_gang(specs, cfg, ganged);
  ASSERT_EQ(ganged.size(), specs.size());
  EXPECT_GT(mixed.tiles_from_cache, 0u);
  for (std::size_t k = 0; k < specs.size(); ++k) {
    auto serial = serve::make_algorithm(specs[k]);
    store::ScrEngine(store, store::EngineConfig{}).run(*serial);
    if (specs[k].kind != JobKind::kPageRank) {
      EXPECT_EQ(digest_of(serve::make_result(specs[k], *ganged[k])),
                digest_of(serve::make_result(specs[k], *serial)))
          << to_string(specs[k].kind) << " job " << k
          << " diverged from the serial engine";
      continue;
    }
    const auto& a = dynamic_cast<const algo::TilePageRank&>(*serial);
    const auto& b = dynamic_cast<const algo::TilePageRank&>(*ganged[k]);
    ASSERT_EQ(b.ranks().size(), a.ranks().size());
    for (std::size_t v = 0; v < a.ranks().size(); ++v)
      ASSERT_NEAR(b.ranks()[v], a.ranks()[v], 1e-4) << "vertex " << v;
  }
}

// Waves make a lone PageRank gang a re-run of the solo engine: the same
// dispatch order per vertex range, so bit-identical ranks, at 1, 2 and 4
// threads, with the stream rewinding only its segments and with a pool.
// The store is large enough for a dispatch to span many cost chunks, and
// live WAL edges put the overlay splice in the comparison.
TEST(SharedScheduler, LonePageRankGangBitIdenticalToSolo) {
#ifdef _OPENMP
  const int threads = omp_get_max_threads();
#endif
  io::TempDir dir;
  tile::ConvertOptions opts;
  opts.tile_bits = 6;
  ingest::EdgeIngestor ingestor(convert(
      dir, graph::kronecker(12, 16, graph::GraphKind::kUndirected, 5), opts));
  const graph::Edge extra[] = {{10, 4000}, {7, 42}, {3000, 3001}, {0, 64}};
  ingestor.ingest(extra);
  SnapshotManager snaps(ingestor);
  serve::SnapshotRef pinned = snaps.acquire();
  tile::TileStore& store = pinned->store();

  JobSpec pr;
  pr.kind = JobKind::kPageRank;
  pr.max_iterations = 6;
  for (const std::uint64_t memory : {std::uint64_t{128} << 10,
                                     std::uint64_t{64} << 20}) {
    serve::SchedulerConfig cfg;
    cfg.segment_bytes = 64 << 10;
    cfg.stream_memory_bytes = memory;
    store::EngineConfig ecfg;
    ecfg.segment_bytes = cfg.segment_bytes;
    ecfg.stream_memory_bytes = cfg.stream_memory_bytes;
    for (const int t : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message() << "memory=" << memory
                                        << " threads=" << t);
#ifdef _OPENMP
      omp_set_num_threads(t);
#endif
      auto solo = serve::make_algorithm(pr);
      store::ScrEngine(store, ecfg).run(*solo);
      auto ganged = serve::make_algorithm(pr);
      serve::SharedScheduler sched(*pinned, cfg);
      const serve::GangStats g = sched.run(
          {serve::GangJob{1, ganged.get(), {}}}, nullptr,
          [](const serve::GangJob&, JobState st, const serve::JobStats&,
             const std::string& error) {
            EXPECT_EQ(st, JobState::kDone) << error;
          });
      EXPECT_EQ(g.rounds, pr.max_iterations);
      const auto& a = dynamic_cast<const algo::TilePageRank&>(*solo);
      const auto& b = dynamic_cast<const algo::TilePageRank&>(*ganged);
      ASSERT_EQ(b.ranks().size(), a.ranks().size());
      EXPECT_EQ(std::memcmp(b.ranks().data(), a.ranks().data(),
                            a.ranks().size() * sizeof(float)),
                0);
    }
  }
#ifdef _OPENMP
  omp_set_num_threads(threads);
#endif
}

// dedup_ratio is deliveries per unique payload: k identical jobs over a
// store the shared pool holds fetch each tile once, rewind it every later
// round, and deliver it k times per round — a ratio of k. A cached tile
// counts once however many jobs it is delivered to.
TEST(JobManager, DedupRatioCountsUniqueCachedTiles) {
  io::TempDir dir;
  const std::string base = convert(dir, multi_tile_graph());
  ingest::EdgeIngestor ingestor(base);
  constexpr std::size_t kJobs = 4;
  ManagerOptions mo;
  mo.scheduler.stream_memory_bytes = 64ull << 20;
  mo.scheduler.segment_bytes = 1ull << 20;
  ASSERT_LT(ingestor.store().bytes_of_range(
                0, ingestor.store().grid().tile_count()),
            mo.scheduler.stream_memory_bytes / 4);
  JobManager manager(ingestor, mo);
  std::vector<std::uint64_t> ids;
  for (std::size_t k = 0; k < kJobs; ++k) {
    JobSpec s;
    s.kind = JobKind::kPageRank;
    s.max_iterations = 5;
    Json j = s.to_json();
    ids.push_back(manager.submit(j));
  }
  manager.start();
  for (const std::uint64_t id : ids)
    ASSERT_TRUE(manager.wait(id, std::chrono::milliseconds(60000)));
  manager.stop(/*drain=*/true);
  const Json s = manager.stats();
  ASSERT_EQ(s.at("gangs").as_uint(), 1u);
  EXPECT_GT(s.at("tiles_from_cache").as_uint(), 0u);
  EXPECT_EQ(s.at("tile_dispatches").as_uint(),
            kJobs * (s.at("tiles_fetched").as_uint() +
                     s.at("tiles_from_cache").as_uint()));
  EXPECT_NEAR(s.at("dedup_ratio").as_number(), static_cast<double>(kJobs),
              1e-9);
}

}  // namespace
}  // namespace gstore
