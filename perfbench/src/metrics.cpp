#include "metrics.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}
}  // namespace

std::string Outcome::to_json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    o << (first ? "" : ", ") << json_string(name) << ": {\"value\": "
      << number(m.first) << ", \"unit\": " << json_string(m.second) << "}";
    first = false;
  }
  o << "}, \"info\": {";
  first = true;
  for (const auto& [key, value] : info) {
    o << (first ? "" : ", ") << json_string(key) << ": " << value;
    first = false;
  }
  o << "}}";
  return o.str();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

void reset_peak_rss() {
  // Hand the heap the set-up freed (edge lists, reference runs) back to the
  // kernel first, so the watermark starts from live memory only.
  malloc_trim(0);
  // "5" resets the peak RSS watermark (VmHWM) to the current RSS.
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
}

double peak_rss_mib() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  }
  return 0;
}

void accumulate(gstore::store::EngineStats& t,
                const gstore::store::EngineStats& r) {
  t.iterations += r.iterations;
  t.rounds += r.rounds;
  t.wasted_fetch_bytes += r.wasted_fetch_bytes;
  t.bytes_read += r.bytes_read;
  t.tiles_from_disk += r.tiles_from_disk;
  t.tiles_from_cache += r.tiles_from_cache;
  t.tiles_skipped += r.tiles_skipped;
  t.edges_processed += r.edges_processed;
  t.overlay_edges += r.overlay_edges;
  t.io_batches += r.io_batches;
  t.bytes_copied_to_pool += r.bytes_copied_to_pool;
  t.segment_refreshes += r.segment_refreshes;
  t.retries += r.retries;
  t.io_wait_seconds += r.io_wait_seconds;
  t.compute_seconds += r.compute_seconds;
  t.elapsed_seconds += r.elapsed_seconds;
  t.per_iteration.insert(t.per_iteration.end(), r.per_iteration.begin(),
                         r.per_iteration.end());
}

void accumulate(gstore::io::DeviceStats& t, const gstore::io::DeviceStats& r) {
  t.bytes_read += r.bytes_read;
  t.read_ops += r.read_ops;
  t.submit_calls += r.submit_calls;
  t.retries += r.retries;
  t.short_reads += r.short_reads;
  t.failed_reads += r.failed_reads;
  t.backoff_seconds += r.backoff_seconds;
}

std::string device_json(const gstore::io::DeviceConfig& d) {
  std::ostringstream o;
  o << "{\"devices\": " << d.devices
    << ", \"per_device_mib_per_s\": " << number(d.per_device_bw / kMiB)
    << ", \"burst_kib\": " << d.burst_bytes / 1024 << "}";
  return o.str();
}

WorkDir::WorkDir(std::string path) : path_(std::move(path)) {
  std::filesystem::remove_all(path_);
  std::filesystem::create_directories(path_);
}

WorkDir::~WorkDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

}  // namespace perfbench
