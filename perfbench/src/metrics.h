// Shared vocabulary of the benchmark program: command-line options, the
// metric report a workload fills in, and small statistics helpers.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "io/device.h"
#include "store/scr_engine.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;          // small graphs for the self-test
  bool inject_wrong = false; // corrupt one result to exercise the oracle
  std::string work_dir;      // scratch space for stores, inside the checkout
  std::string trace_path;    // Chrome trace-event output of the traced run
  // Half of the 4 cores the benchmark is sized for. With a full team of 4,
  // two competing busy processes slowed traverse-ssd and pagerank-kron by
  // ~30%; with 2 they slowed them by under 5%, at a cost of ~10-35% speed.
  int threads = 2;
};

// Everything one invocation reports. `metrics` holds every number by name
// with its unit; `info` holds provenance as raw JSON values.
struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, std::string> info;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void note(const std::string& key, const std::string& json_value) {
    info[key] = json_value;
  }
  // Counts one checked operation; a wrong answer fails the run.
  void check(bool ok) {
    ++attempted;
    if (!ok) {
      ++failed;
      correct = false;
    }
  }
  std::string to_json() const;
};

// Linear-interpolated quantile, q in [0, 1]. Empty input gives 0.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

// Peak resident set size since the last reset, via /proc (Linux).
void reset_peak_rss();
double peak_rss_mib();

constexpr double kMiB = 1024.0 * 1024.0;

// Sums engine counters over the runs of a timed phase.
void accumulate(gstore::store::EngineStats& total,
                const gstore::store::EngineStats& run);

void accumulate(gstore::io::DeviceStats& total,
                const gstore::io::DeviceStats& run);

std::string json_string(const std::string& s);
std::string device_json(const gstore::io::DeviceConfig& d);

// Creates (and on destruction removes) a scratch directory.
class WorkDir {
 public:
  explicit WorkDir(std::string path);
  ~WorkDir();
  WorkDir(const WorkDir&) = delete;
  WorkDir& operator=(const WorkDir&) = delete;
  std::string file(const std::string& name) const { return path_ + "/" + name; }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace perfbench
