// Isolated ceiling probes, run on a workload's own store in the traced run.
// Each repeats its sweep until `seconds` have passed and reports the median
// pass, single-threaded except where the layer itself spawns threads.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "io/device.h"
#include "store/algorithm.h"
#include "tile/tile_file.h"

namespace perfbench {

// Sequential read_range sweep over the whole store in `chunk_bytes` pieces,
// through a fresh TileStore opened with the workload's device profile.
double probe_seq_read_mib_per_s(const std::string& base,
                                const gstore::io::DeviceConfig& device,
                                std::uint64_t chunk_bytes, double seconds);

// tile::for_each_block over every tile held in memory, with a sink that only
// folds each block into a checksum.
double probe_decode_medges_per_s(gstore::tile::TileStore& store, double seconds);

// TileAlgorithm::process_tile over every tile held in memory, after
// init() and begin_iteration(0) on a fresh algorithm from `make`.
double probe_kernel_medges_per_s(
    gstore::tile::TileStore& store,
    const std::function<std::unique_ptr<gstore::store::TileAlgorithm>()>& make,
    double seconds);

}  // namespace perfbench
