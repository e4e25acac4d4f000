#include "probes.h"

#include <algorithm>
#include <vector>

#include "metrics.h"
#include "tile/edge_block.h"
#include "util/timer.h"

namespace perfbench {

namespace {

volatile std::uint64_t decode_sink = 0;

// Runs `pass` (which returns the rate it measured) until `seconds` have
// passed, at least three times, and returns the median rate.
template <typename Pass>
double median_rate(double seconds, Pass pass) {
  std::vector<double> rates;
  gstore::Timer total;
  while (rates.size() < 3 || total.seconds() < seconds) rates.push_back(pass());
  return median(rates);
}

double rate(double work, const gstore::Timer& t) {
  return work / std::max(t.seconds(), 1e-9);
}

struct InMemoryTiles {
  std::vector<std::uint8_t> buf;
  std::uint64_t edges = 0;

  explicit InMemoryTiles(gstore::tile::TileStore& store) {
    const std::uint64_t n = store.meta().tile_count;
    buf.resize(store.bytes_of_range(0, n));
    if (!buf.empty()) store.read_range(0, n, buf.data());
    edges = store.edge_count();
  }
  const std::uint8_t* data(const gstore::tile::TileStore& store,
                           std::uint64_t idx) const {
    return buf.data() + (store.tile_offset(idx) - store.tile_offset(0));
  }
};

}  // namespace

double probe_seq_read_mib_per_s(const std::string& base,
                                const gstore::io::DeviceConfig& device,
                                std::uint64_t chunk_bytes, double seconds) {
  gstore::tile::TileStore store = gstore::tile::TileStore::open(base, device);
  const std::uint64_t n = store.meta().tile_count;
  std::vector<std::uint8_t> buf(std::max(chunk_bytes, store.max_tile_bytes()));
  return median_rate(seconds, [&] {
    gstore::Timer t;
    std::uint64_t bytes = 0;
    for (std::uint64_t first = 0; first < n;) {
      std::uint64_t last = first + 1;
      while (last < n && store.bytes_of_range(first, last + 1) <= buf.size())
        ++last;
      store.read_range(first, last, buf.data());
      bytes += store.bytes_of_range(first, last);
      first = last;
    }
    return rate(bytes / kMiB, t);
  });
}

double probe_decode_medges_per_s(gstore::tile::TileStore& store,
                                 double seconds) {
  const InMemoryTiles mem(store);
  const std::uint64_t n = store.meta().tile_count;
  std::uint64_t checksum = 0;
  const double medges = median_rate(seconds, [&] {
    gstore::Timer t;
    for (std::uint64_t i = 0; i < n; ++i) {
      const gstore::tile::TileView v = store.view(i, mem.data(store, i));
      gstore::tile::for_each_block(v, [&](const gstore::tile::EdgeBlock& b) {
        if (b.size > 0) checksum += b.size + b.src[0] + b.dst[b.size - 1];
      });
    }
    return rate(mem.edges / 1e6, t);
  });
  decode_sink = checksum;  // an observable use, so the decode is not elided
  return medges;
}

double probe_kernel_medges_per_s(
    gstore::tile::TileStore& store,
    const std::function<std::unique_ptr<gstore::store::TileAlgorithm>()>& make,
    double seconds) {
  const InMemoryTiles mem(store);
  const std::uint64_t n = store.meta().tile_count;
  return median_rate(seconds, [&] {
    const auto algo = make();
    algo->init(store);
    algo->begin_iteration(0);
    gstore::Timer t;  // init and begin_iteration are not the kernel
    for (std::uint64_t i = 0; i < n; ++i)
      algo->process_tile(store.view(i, mem.data(store, i)));
    return rate(mem.edges / 1e6, t);
  });
}

}  // namespace perfbench
