/**
 * @file
 * The benchmark's workloads: which activation maps each one round-trips
 * and how its engine and spill store are configured. Inputs are built
 * from the seed alone, before any timing starts; the program under test
 * only ever sees the generated bytes.
 */

#ifndef RTBENCH_WORKLOADS_HH
#define RTBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cdma/engine.hh"
#include "common/bytes.hh"
#include "models/desc.hh"

namespace rtbench {

/** Spill store a workload writes its offloads to. */
enum class ArenaKind {
    Plain,  ///< cdma::SpillArena, unbounded host memory
    Tiered, ///< cdma::TieredSpillArena, host budget + backing tier
};

/** Static description of one workload. */
struct WorkloadSpec {
    std::string name;
    unsigned lanes = 1;                      ///< compression lanes
    cdma::CodecMode mode = cdma::CodecMode::Fixed;
    ArenaKind arena = ArenaKind::Plain;
};

/** The workload named @p name (as BENCHMARK.json lists it), or
 *  nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** Wire bandwidth the adaptive policy prices: the half-duplex share of
 *  the 12.8 GB/s effective link, as in bench/fig_policy_adaptive. */
inline constexpr double kPolicyWireBandwidth = 6.4e9;

/** Generated activation maps of one workload. */
struct Inputs {
    /** Layer labels in forward (offload) order. */
    std::vector<std::string> labels;
    /** Maps per snapshot, [snapshot][layer]; fixed-codec workloads
     *  have one snapshot. */
    std::vector<std::vector<cdma::ByteVec>> snapshots;
    /** Consecutive iterations that round-trip one snapshot before the
     *  next: a cycle is snapshots.size() * hold iterations. */
    size_t hold = 1;
    /** Descriptor whose rows align with labels (step simulator input). */
    cdma::NetworkDesc desc;
    /** Iterations in one cycle through every snapshot. */
    size_t cycle() const { return snapshots.size() * hold; }
    /** Maps iteration @p k round-trips. */
    const std::vector<cdma::ByteVec> &maps(uint64_t k) const
    {
        return snapshots[(k % cycle()) / hold];
    }
    /** Raw bytes one iteration offloads (equal for every snapshot). */
    uint64_t bytes_per_iteration = 0;
    /** Digest of every generated byte (CRC-32C per map, FNV-folded). */
    uint64_t hash = 0;
};

/** Build @p spec's inputs from @p seed (identical per seed). */
Inputs makeInputs(const WorkloadSpec &spec, uint64_t seed);

} // namespace rtbench

#endif // RTBENCH_WORKLOADS_HH
