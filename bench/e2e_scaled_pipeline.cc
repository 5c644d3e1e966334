/**
 * @file
 * End-to-end integration of the two halves of the reproduction on real
 * data: train the scaled AlexNet with SGD, compress its *actual* trained
 * activation maps with all three codecs (no synthetic generator in the
 * loop), spill the ZV-compressed maps through the shard arena and
 * prefetch them back byte-identical on the simulated backward pass,
 * describe the live network into a descriptor, and run the
 * training-iteration DES with the measured ratios. This is the complete
 * cDMA workflow a framework would execute, shrunk to laptop scale.
 *
 * Run: ./build/bench/e2e_scaled_pipeline [--fault-smoke] [iterations [batch]]
 *
 * --fault-smoke re-runs the spill/prefetch round trip on a link with
 * seeded 1e-6/byte bit flips until the retry machinery fires, then
 * fails the process unless retries were nonzero AND every restored map
 * stayed byte-identical — the CI integrity gate.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "cdma/transfer_engine.hh"
#include "common/harness.hh"
#include "models/describe.hh"
#include "perf/step_sim.hh"
#include "sim/fault_injector.hh"

using namespace cdma;
using bench::Table;

namespace {

/**
 * The --fault-smoke gate: round-trip the trained maps through a spill
 * engine whose link flips bits at 1e-6/byte (seeded, deterministic)
 * until at least one crossing is rejected and retried. Returns the
 * process exit code: 0 only if retries fired and every restored map
 * was byte-identical to the source.
 */
int
runFaultSmoke(const Network &net,
              const std::vector<ActivationRecord> &records)
{
    sim::FaultConfig faults;
    faults.bit_flip_rate_per_byte = 1e-6;
    sim::FaultInjector injector(faults);

    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.transfer.fault_injector = &injector;
    const CdmaEngine engine(config);
    const TransferEngine transfers(engine);
    SpillArena arena;

    TransferIntegrity integrity;
    bool identical = true;
    int passes = 0;
    constexpr int kMaxPasses = 2000;
    // Each pass crosses every map twice; at 1e-6/byte the first flip
    // lands within a handful of passes. The cap only guards against a
    // misconfigured (fault-free) engine looping forever.
    while (integrity.retries == 0 && passes < kMaxPasses) {
        ++passes;
        for (const auto &record : records) {
            const Tensor4D &map = net.outputs()[record.output_index];
            const StatusOr<SpilledOffload> spilled =
                transfers.offloadInto(map.rawBytes(), arena);
            if (!spilled.ok()) {
                std::printf("fault smoke: offload failed: %s\n",
                            spilled.status().message().c_str());
                return 1;
            }
            integrity.accumulate(spilled->integrity);
            const StatusOr<PrefetchResult> restored =
                transfers.prefetch(arena, spilled->ticket);
            if (!restored.ok()) {
                std::printf("fault smoke: prefetch failed: %s\n",
                            restored.status().message().c_str());
                return 1;
            }
            integrity.accumulate(restored->integrity);
            const auto raw = map.rawBytes();
            identical = identical &&
                restored->data.size() == raw.size() &&
                std::equal(restored->data.begin(), restored->data.end(),
                           raw.begin());
            arena.release(spilled->ticket);
        }
    }

    std::printf(
        "\nfault smoke (1e-6/byte flips): %d pass(es), %llu crossings, "
        "%llu retries (%llu CRC rejects, %llu link faults), %llu shard(s) "
        "degraded, restored maps %s\n",
        passes, static_cast<unsigned long long>(integrity.attempts),
        static_cast<unsigned long long>(integrity.retries),
        static_cast<unsigned long long>(integrity.crc_failures),
        static_cast<unsigned long long>(integrity.link_faults),
        static_cast<unsigned long long>(integrity.degraded_shards),
        identical ? "byte-identical" : "MISMATCH");

    if (integrity.retries == 0) {
        std::printf("fault smoke FAILED: no retries fired after %d "
                    "passes — injector not wired into the flow?\n",
                    passes);
        return 1;
    }
    if (!identical) {
        std::printf("fault smoke FAILED: a fault escaped the CRC/retry "
                    "machinery and corrupted a restored map\n");
        return 1;
    }
    std::printf("fault smoke passed: faults detected, retried, and "
                "masked end to end\n");
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    bool fault_smoke = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--fault-smoke") == 0) {
            fault_smoke = true;
            for (int j = i; j + 1 < argc; ++j)
                argv[j] = argv[j + 1];
            --argc;
            break;
        }
    }

    bench::ScaledRunConfig config;
    config.iterations = 200;
    bench::parseTrainArgs(argc, argv, config);

    std::printf("== End-to-end: train -> measure -> simulate "
                "(scaled AlexNet) ==\n");

    // 1. Train for real and keep the final forward pass's activations.
    Rng rng(config.seed);
    Network net = buildScaledByName("AlexNet", rng);
    SyntheticDataset dataset;
    TrainConfig train;
    train.iterations = config.iterations;
    train.batch_size = config.batch;
    train.snapshot_every = config.iterations;
    Trainer trainer(net, dataset, train);
    trainer.run();
    const double accuracy = trainer.evaluate(4);

    Minibatch probe = dataset.nextValBatch(config.batch);
    net.setTraining(false);
    net.forward(probe.images);

    // 2. Compress the real activation maps. The ZV column runs the
    //    offload-side flow a framework would: each map spills through
    //    the compressed arena (recycled rooms, no per-layer
    //    payload vector), and the simulated backward pass below
    //    prefetches it back out.
    CdmaConfig spill_config;
    spill_config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine spill_engine(spill_config);
    const TransferEngine transfers(spill_engine);
    SpillArena arena;
    std::vector<SpillTicket> tickets;

    const auto records = net.activationRecords();
    Table table({"layer", "KB", "density", "RL", "ZV", "ZL"});
    std::vector<double> zv_ratios;
    for (const auto &record : records) {
        const Tensor4D &map = net.outputs()[record.output_index];
        std::vector<std::string> row = {
            record.label,
            Table::num(static_cast<double>(map.bytes()) / 1024.0, 0),
            Table::num(record.density, 2),
        };
        for (Algorithm algorithm : kAllAlgorithms) {
            double ratio;
            if (algorithm == Algorithm::Zvc) {
                const SpilledOffload spilled =
                    transfers.offloadInto(map.rawBytes(), arena).value();
                tickets.push_back(spilled.ticket);
                const uint64_t wire = arena.wireBytes(spilled.ticket);
                ratio = wire > 0
                    ? static_cast<double>(map.bytes()) /
                        static_cast<double>(wire)
                    : 1.0;
                zv_ratios.push_back(ratio);
            } else {
                const auto compressor = makeCompressor(algorithm);
                ratio = compressor->measureRatio(map.rawBytes());
            }
            row.push_back(Table::num(ratio, 2));
        }
        table.addRow(row);
    }
    table.print();

    // The backward pass walks the spilled maps in reverse, prefetching
    // each out of the arena and releasing its slots for the next
    // iteration's reuse.
    bool restored_ok = true;
    for (size_t i = tickets.size(); i-- > 0;) {
        const Tensor4D &map = net.outputs()[records[i].output_index];
        const PrefetchResult restored =
            transfers.prefetch(arena, tickets[i]).value();
        const auto raw = map.rawBytes();
        restored_ok = restored_ok &&
            restored.data.size() == raw.size() &&
            std::equal(restored.data.begin(), restored.data.end(),
                       raw.begin());
        arena.release(tickets[i]);
    }
    const SpillStats &spill = arena.stats();
    std::printf("\nspill arena round trip: %zu ZV maps restored %s; "
                "high water %.1f KB compressed, %llu slabs, %llu/%llu "
                "rooms from recycled slots\n",
                tickets.size(),
                restored_ok ? "byte-identical" : "MISMATCH",
                static_cast<double>(spill.high_water_payload_bytes) /
                    1024.0,
                static_cast<unsigned long long>(spill.slab_allocations),
                static_cast<unsigned long long>(spill.reused_slots),
                static_cast<unsigned long long>(spill.reserved_rooms));

    // In smoke mode the integrity gate is the whole point: rerun the
    // round trip on a faulty link and make the exit code depend on the
    // retry machinery actually firing and masking every fault.
    if (fault_smoke)
        return runFaultSmoke(net, records);

    // 3. Describe the live network and simulate an iteration with the
    //    measured ratios.
    const NetworkDesc desc = describeNetwork(
        "ScaledAlexNet", net, Shape4D{1, 3, 32, 32}, config.batch);
    VdnnMemoryManager manager(desc, config.batch);
    CdmaEngine engine(CdmaConfig{});
    PerfModel perf;
    StepSimulator sim(manager, engine, perf, CudnnVersion::V5);
    const StepResult oracle = sim.run(StepMode::Oracle);
    const StepResult vdnn = sim.run(StepMode::Vdnn);
    const StepResult cdma = sim.run(StepMode::Cdma, zv_ratios);

    // The same iteration with compression latency priced explicitly:
    // TimingMode::Overlapped runs every cDMA transfer through the
    // Section V-C double-buffered pipeline instead of the seed's
    // compression-free model.
    CdmaConfig overlapped_config;
    overlapped_config.transfer.timing_mode = TimingMode::Overlapped;
    CdmaEngine overlapped_engine(overlapped_config);
    StepSimulator overlapped_sim(manager, overlapped_engine, perf,
                                 CudnnVersion::V5);
    const StepResult cdma_ovl =
        overlapped_sim.run(StepMode::Cdma, zv_ratios);

    std::printf("\nval accuracy %.1f%%; simulated iteration "
                "(micro-scale): oracle %.3f ms, cDMA-ZV %.3f ms, "
                "vDNN %.3f ms -> cDMA speedup %.0f%%\n",
                100.0 * accuracy, oracle.total_seconds * 1e3,
                cdma.total_seconds * 1e3, vdnn.total_seconds * 1e3,
                100.0 * (cdma.speedupOver(vdnn) - 1.0));
    std::printf("overlapped pipeline (explicit compression latency): "
                "cDMA-ZV %.3f ms, %+.2f%% vs the compression-free "
                "model, speedup over vDNN %.0f%%\n",
                cdma_ovl.total_seconds * 1e3,
                100.0 * (cdma_ovl.total_seconds / cdma.total_seconds -
                         1.0),
                100.0 * (cdma_ovl.speedupOver(vdnn) - 1.0));
    std::printf("(absolute times are tiny at 32x32 scale; the point is "
                "the pipeline runs on real trained data end to end)\n");
    return 0;
}
