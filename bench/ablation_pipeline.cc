/**
 * @file
 * Section V-C ablation: staging-shard size and staging-buffer depth
 * sensitivity of the double-buffered pipelines, in both directions.
 * The fig12 footer shows the overlapped offload pipeline costs only one
 * staging-shard compression fill per transfer at ZV ratios — but that
 * hinges on the bandwidth-delay shard sizing: tiny shards pay the fill
 * more often relative to nothing (more shards, same single fill) yet
 * add per-shard quantization, while giant shards leave little to
 * overlap at all. This harness sweeps CdmaConfig::shard_bytes and
 * CdmaConfig::staging_buffers over a representative transfer at a
 * ZV-class ratio and at a fetch-capped ratio, reporting the offload
 * (compress under wire-out) and prefetch (wire-in under decompress)
 * overlap side by side — all through the uncontended pricing
 * recurrence, which the tests pin to the DES reference.
 */

#include <cstdio>
#include <vector>

#include "cdma/transfer_engine.hh"
#include "common/harness.hh"

using namespace cdma;
using bench::Table;

namespace {

struct SweepPoint {
    uint64_t shard_bytes; // 0 = bandwidth-delay default (70 KB)
    unsigned staging_buffers;
};

std::string
shardLabel(uint64_t shard_bytes, const CdmaEngine &engine)
{
    const uint64_t actual = TransferEngine(engine).shardWindows() *
        engine.config().compression.window_bytes;
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%llu KB%s",
                  static_cast<unsigned long long>(actual / 1024),
                  shard_bytes == 0 ? " (BDP)" : "");
    return buffer;
}

} // namespace

int
main()
{
    // 64 MiB: a large mid-network VGG-class activation map at batch
    // size; big enough that every shard size below yields a multi-shard
    // train.
    const uint64_t raw_bytes = 64ull << 20;
    const std::vector<uint64_t> shard_sizes = {
        4096, 16384, 0 /* BDP: 70 KB */, 262144, 1u << 20};
    const std::vector<unsigned> buffer_depths = {1, 2, 3, 4};

    for (const double ratio : {2.5, 40.0}) {
        std::printf("== Ablation: pipeline overlap vs shard size / "
                    "staging depth (64 MiB transfer, ratio %.1fx%s) "
                    "==\n",
                    ratio, ratio > 12.5 ? ", past the fetch cap" : "");
        Table table({"shard", "buffers", "off ms", "off-ovl", "pre ms",
                     "pre-ovl", "shards"});
        for (const uint64_t shard_bytes : shard_sizes) {
            for (const unsigned buffers : buffer_depths) {
                CdmaConfig config;
                config.transfer.timing_mode = TimingMode::Overlapped;
                config.transfer.shard_bytes = shard_bytes;
                config.transfer.staging_buffers = buffers;
                const CdmaEngine engine(config);
                // Full duplex by default: each leg priced on its own.
                const DuplexTiming legs =
                    TransferEngine(engine).modelFromRatio(
                        raw_bytes, ratio, raw_bytes, ratio);
                const OffloadTiming &off = legs.offload;
                const PrefetchTiming &pre = legs.prefetch;
                table.addRow({
                    shardLabel(shard_bytes, engine),
                    Table::num(buffers, 0),
                    Table::num(off.overlapped_seconds * 1e3, 3),
                    Table::num(100.0 * off.overlap_fraction, 1),
                    Table::num(pre.overlapped_seconds * 1e3, 3),
                    Table::num(100.0 * pre.overlap_fraction, 1),
                    Table::num(static_cast<double>(off.shard_count), 0),
                });
            }
        }
        table.print();
        std::printf("\n");
    }
    std::printf("one staging buffer fully serializes both legs; past "
                "two, extra buffers only help when stage times are "
                "uneven across shards (uniform shards saturate at "
                "double buffering). Tiny shards keep overlap high but "
                "model per-shard engine occupancy the hardware would "
                "pay in setup; giant shards approach the single-shard "
                "no-overlap limit.\n");
    return 0;
}
