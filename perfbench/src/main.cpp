// gstore_perfbench — runs one benchmark workload and prints one JSON line.
//
//   gstore_perfbench --workload pagerank-kron|traverse-ssd|serve-ingest
//                    --seed N --seconds S --trace 0|1 --work-dir DIR
//                    [--trace-out FILE] [--toy] [--inject-wrong]
//
// The last line of standard output is a JSON object with `correct`,
// `attempted`, `failed`, every metric (name → value, unit) and provenance
// under `info`. perfbench/run.py builds this binary and reduces that line to
// the metrics BENCHMARK.json names. Exit status is 0 only when every checked
// output was correct.
#include <malloc.h>
#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "gstore_perfbench: %s\n", why);
  std::exit(2);
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() != "0";
    else if (a == "--work-dir") o.work_dir = value();
    else if (a == "--trace-out") o.trace_path = value();
    else if (a == "--toy") o.toy = true;
    else if (a == "--inject-wrong") o.inject_wrong = true;
    else usage(("unknown argument " + a).c_str());
  }
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (o.trace_path.empty()) o.trace_path = o.work_dir + ".trace.json";
  if (o.seconds <= 0) usage("--seconds must be positive");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt = parse(argc, argv);
  // A fixed mmap threshold turns off glibc's dynamic one, which rises after
  // each large free and so makes peak_rss_mib depend on allocation history:
  // with it on, traverse-ssd's peak spread 111-141 MiB across seeds.
  mallopt(M_MMAP_THRESHOLD, 128 << 10);
  // Load comes from this one process: a fixed OpenMP team.
  omp_set_num_threads(opt.threads);
  gstore::log::set_level(gstore::log::Level::kWarn);
  perfbench::Outcome out;
  try {
    if (opt.workload == "pagerank-kron") {
      out = perfbench::run_pagerank_kron(opt);
    } else if (opt.workload == "traverse-ssd") {
      out = perfbench::run_traverse_ssd(opt);
    } else if (opt.workload == "serve-ingest") {
      out = perfbench::run_serve_ingest(opt);
    } else {
      usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "gstore_perfbench: %s\n", e.what());
    return 1;
  }
  out.note("workload", perfbench::json_string(opt.workload));
  out.note("seed", std::to_string(opt.seed));
  out.note("omp_threads", std::to_string(omp_get_max_threads()));
  out.note("toy", opt.toy ? "true" : "false");
  std::printf("%s\n", out.to_json().c_str());
  return out.correct ? 0 : 1;
}
