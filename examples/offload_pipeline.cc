/**
 * @file
 * Example: "what would cDMA buy me on this network?" Walks the full
 * modeling pipeline for one network (default VGG-16 at its Table I
 * batch): vDNN offload schedule and memory footprint, per-layer
 * compression ratios on synthetic trained activations, the async
 * double-buffered offload AND prefetch pipelines' per-layer overlap
 * (compress/wire out on the forward pass, wire/decompress back on the
 * backward pass), a real-bytes spill through the compressed arena, and
 * the simulated training iteration under vDNN / cDMA / oracle with a
 * per-layer stall breakdown.
 *
 * Run: ./build/examples/offload_pipeline [AlexNet|OverFeat|NiN|VGG|
 *                                         SqueezeNet|GoogLeNet]
 */

#include <algorithm>
#include <cstdio>
#include <string>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "compress/parallel.hh"
#include "compress/policy.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "perf/step_sim.hh"
#include "sim/fault_injector.hh"
#include "sparsity/generator.hh"
#include "sparsity/schedule.hh"

using namespace cdma;

namespace {

/** Say which real-bytes step failed, and why. */
void
reportFailure(const char *step, const Status &status)
{
    std::printf("%s failed: %s\n", step, status.toString().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string trace_out =
        obs::extractFlag(argc, argv, "trace-out");
    const std::string metrics_out =
        obs::extractFlag(argc, argv, "metrics-out");
    const std::string name = argc > 1 ? argv[1] : "VGG";
    NetworkDesc net;
    bool found = false;
    for (const auto &candidate : allNetworkDescs()) {
        if (candidate.name == name) {
            net = candidate;
            found = true;
        }
    }
    if (!found) {
        std::fprintf(stderr, "unknown network '%s'\n", name.c_str());
        return 1;
    }

    // The engine models the async double-buffered offload pipeline:
    // compression latency is explicit, and shard k+1 compresses while
    // shard k drains over PCIe.
    CdmaConfig engine_config;
    engine_config.compression.lanes = 0; // all hardware threads
    engine_config.transfer.timing_mode = TimingMode::Overlapped;
    // The registry rides the engine config: the parallel compressor's
    // kernel wall-clock timers and the modeled per-shard transfer
    // latencies accumulate here across everything this example runs.
    obs::MetricsRegistry metrics;
    engine_config.obs.metrics = &metrics;
    CdmaEngine engine(engine_config);
    const TransferEngine transfers(engine);

    // 1. vDNN memory accounting (staging buffers included).
    VdnnMemoryManager manager(net, net.default_batch);
    const MemoryFootprint fp = manager.footprint(engine);
    std::printf("== %s, batch %lld (kernel backend: %s, %u lanes) ==\n",
                net.name.c_str(),
                static_cast<long long>(net.default_batch),
                engine.backendName(), engine.compressor().lanes());
    std::printf("baseline GPU memory: %.2f GB (activations+gradients "
                "%.0f%%)\n",
                static_cast<double>(fp.baseline_total) / 1e9,
                100.0 * fp.activationFraction());
    std::printf("vDNN working set:    %.2f GB (incl. %llu KB cDMA "
                "staging: %u x %llu-window shards)\n",
                static_cast<double>(fp.vdnn_peak) / 1e9,
                static_cast<unsigned long long>(fp.staging_bytes / 1024),
                engine.config().transfer.staging_buffers,
                static_cast<unsigned long long>(transfers.shardWindows()));
    std::printf("offload traffic:     %.2f GB per direction per "
                "iteration\n\n",
                static_cast<double>(manager.totalOffloadBytes()) / 1e9);

    // 2. Per-layer ZVC ratios from synthetic trained activations,
    //    compressed with the parallel window fan-out (one lane per
    //    hardware thread), the same ordered fan-out CdmaEngine's
    //    transfers run on when configured with compression.lanes != 1.
    const DensitySchedule schedule(net);
    const ActivationGenerator generator;
    const ParallelCompressor zvc(Algorithm::Zvc,
                                 Compressor::kDefaultWindowBytes,
                                 /*lanes=*/0);
    std::vector<double> ratios;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        const LayerDesc &layer = net.layers[i];
        if (!layer.relu_follows) {
            ratios.push_back(1.0);
            continue;
        }
        const double density = schedule.density(i, 1.0);
        const int64_t max_c = std::max<int64_t>(
            1, (1 << 19) / (layer.height * layer.width));
        Rng rng(500 + i);
        const Tensor4D sample = generator.generate(
            Shape4D{1, std::min(layer.channels, max_c), layer.height,
                    layer.width},
            Layout::NCHW, density, rng);
        ratios.push_back(zvc.measureRatio(sample.rawBytes()));
    }

    // 3. The double-buffered pipelines per layer, both directions: on
    //    the forward pass the compression leg hides under the wire-out
    //    leg (or caps it, for fetch-capped layers); on the backward
    //    pass the wire-in leg hides under decompression.
    const auto plans = manager.plannedOffloads(engine, ratios);
    std::printf("offload + prefetch pipelines per layer (double-"
                "buffered, shard = %llu windows):\n",
                static_cast<unsigned long long>(transfers.shardWindows()));
    std::printf("  %-12s %9s %6s | %9s %9s %7s | %9s %9s %7s\n", "layer",
                "raw MB", "ratio", "comp ms", "off ms", "off-ovl",
                "dec ms", "pre ms", "pre-ovl");
    for (const auto &plan : plans) {
        std::printf("  %-12s %9.2f %5.1fx | %9.3f %9.3f %6.1f%% | "
                    "%9.3f %9.3f %6.1f%%%s\n",
                    plan.label.c_str(),
                    static_cast<double>(plan.raw_bytes) / 1e6, plan.ratio,
                    plan.offload.compress_seconds * 1e3,
                    plan.offload.overlapped_seconds * 1e3,
                    100.0 * plan.offload.overlap_fraction,
                    plan.prefetch.decompress_seconds * 1e3,
                    plan.prefetch.overlapped_seconds * 1e3,
                    100.0 * plan.prefetch.overlap_fraction,
                    plan.offload.compress_seconds >
                            plan.offload.wire_seconds
                        ? "  [comp-bound]"
                        : "");
    }
    double serialized = 0.0, overlapped = 0.0;
    for (const auto &plan : plans) {
        serialized += plan.offload.serializedSeconds();
        overlapped += plan.offload.overlapped_seconds;
    }
    std::printf("  offload total:  %.1f ms overlapped vs %.1f ms "
                "serialized (%.0f%% of the serialized latency hidden)\n",
                overlapped * 1e3, serialized * 1e3,
                serialized > 0.0
                    ? 100.0 * (serialized - overlapped) / serialized
                    : 0.0);

    // Backward propagation drains the mirrored pipeline in reverse
    // order: shard k+1 crosses PCIe while the decompression engine
    // re-inflates shard k. Both legs come from the SAME TransferEngine
    // plan per layer (each plan carries offload, prefetch and the
    // duplex race), so the columns and totals can never disagree on
    // shard count the way two separate engine calls could.
    double prefetch_serialized = 0.0, prefetch_total = 0.0;
    for (const auto &plan : plans) {
        prefetch_serialized += plan.prefetch.serializedSeconds();
        prefetch_total += plan.prefetch.overlapped_seconds;
    }
    std::printf("  prefetch total: %.1f ms overlapped vs %.1f ms "
                "serialized (backward, reverse order, %s first)\n\n",
                prefetch_total * 1e3, prefetch_serialized * 1e3,
                plans.empty() ? "-" : plans.back().label.c_str());

    // 3a. The full-duplex race: the same shard trains with both
    //     directions sharing one half-duplex link (PCIe's degraded
    //     operating point) instead of riding independent sub-channels.
    CdmaConfig half_config = engine_config;
    half_config.compression.lanes = 1; // analytic path only
    half_config.transfer.duplex_mode = DuplexMode::Half;
    const CdmaEngine half_engine(half_config);
    const auto half_plans = manager.plannedOffloads(half_engine, ratios);
    double worst_fraction = 0.0, sum_fraction = 0.0;
    double contention = 0.0;
    std::string worst_layer = "-";
    for (const auto &plan : half_plans) {
        contention += plan.duplex.contentionSeconds();
        sum_fraction += plan.duplex.contentionStallFraction();
        if (plan.duplex.contentionStallFraction() > worst_fraction) {
            worst_fraction = plan.duplex.contentionStallFraction();
            worst_layer = plan.label;
        }
    }
    std::printf("duplex race (offload vs equal prefetch, half-duplex "
                "link, %s arbiter): %.1f ms total contention, stall "
                "fraction %.1f%% avg / %.1f%% worst (%s)\n\n",
                linkArbiterName(half_engine.config().transfer.link_arbiter),
                contention * 1e3,
                half_plans.empty()
                    ? 0.0
                    : 100.0 * sum_fraction /
                        static_cast<double>(half_plans.size()),
                100.0 * worst_fraction, worst_layer.c_str());

    // 3b. Real bytes through the compressed spill arena: offload each
    //     sampled activation map into a recycled room, then
    //     prefetch it back on the "backward pass" and verify identity.
    //     The high-water mark is what a pinned host reservation for the
    //     spill space would need; steady-state iterations reuse it.
    SpillArena arena;
    std::vector<SpillTicket> tickets;
    std::vector<std::vector<uint8_t>> originals;
    for (size_t i = 0; i < net.layers.size() && i < 6; ++i) {
        const LayerDesc &layer = net.layers[i];
        const double density = layer.relu_follows
            ? schedule.density(i, 1.0)
            : 1.0;
        const int64_t max_c = std::max<int64_t>(
            1, (1 << 19) / (layer.height * layer.width));
        Rng rng(900 + i);
        const Tensor4D sample = generator.generate(
            Shape4D{1, std::min(layer.channels, max_c), layer.height,
                    layer.width},
            Layout::NCHW, density, rng);
        const auto raw = sample.rawBytes();
        originals.emplace_back(raw.begin(), raw.end());
    }
    // Two iterations: the first bump-allocates the arena's slabs, the
    // second (steady state) is served entirely from recycled slots.
    bool restored_ok = true;
    uint64_t first_iter_slabs = 0;
    for (int iteration = 0; iteration < 2; ++iteration) {
        tickets.clear();
        for (const auto &original : originals) {
            const StatusOr<SpilledOffload> spilled =
                transfers.offloadInto(original, arena);
            if (!spilled.ok()) {
                reportFailure("spill arena offload", spilled.status());
                restored_ok = false;
                break;
            }
            tickets.push_back(spilled->ticket);
        }
        for (size_t i = tickets.size(); i-- > 0;) {
            const StatusOr<PrefetchResult> restored =
                transfers.prefetch(arena, tickets[i]);
            if (!restored.ok())
                reportFailure("spill arena prefetch", restored.status());
            restored_ok = restored_ok && restored.ok() &&
                restored->data == originals[i];
            arena.release(tickets[i]);
        }
        if (iteration == 0)
            first_iter_slabs = arena.stats().slab_allocations;
    }
    const SpillStats &spill = arena.stats();
    std::printf("spill arena (2 iterations x %zu maps, prefetched in "
                "reverse): restored %s\n",
                originals.size(),
                restored_ok ? "byte-identical" : "MISMATCH");
    std::printf("  high water %.1f KB compressed in %llu slabs "
                "(%.1f KB reserved, all on iteration 1: %llu new slabs "
                "on iteration 2), %llu/%llu rooms from recycled "
                "slots\n\n",
                static_cast<double>(spill.high_water_payload_bytes) /
                    1024.0,
                static_cast<unsigned long long>(spill.slab_allocations),
                static_cast<double>(spill.slab_bytes) / 1024.0,
                static_cast<unsigned long long>(spill.slab_allocations -
                                                first_iter_slabs),
                static_cast<unsigned long long>(spill.reused_slots),
                static_cast<unsigned long long>(spill.reserved_rooms));

    // 3c. The same ticket flow over a faulty link: a seeded fault
    //     process flips bits (and occasionally drops crossings), the
    //     CRC-32C shard framing catches the damage on landing, and the
    //     engine re-sends under its retry policy — the restored bytes
    //     must stay byte-identical, because integrity is end to end.
    //     At 1e-6/byte a 35-70 KB shard takes a flip on a few percent of
    //     its crossings, so retries fire and none exhausts its budget.
    sim::FaultConfig fault_config;
    fault_config.bit_flip_rate_per_byte = 1e-6;
    fault_config.link_failure_rate = 1e-3;
    sim::FaultInjector injector(fault_config);
    CdmaConfig faulty_config = engine_config;
    faulty_config.transfer.fault_injector = &injector;
    const CdmaEngine faulty_engine(faulty_config);
    const TransferEngine faulty(faulty_engine);
    SpillArena faulty_arena;
    TransferIntegrity integrity;
    bool faulty_ok = true;
    for (size_t i = 0; i < originals.size() && faulty_ok; ++i) {
        const StatusOr<SpilledOffload> spilled =
            faulty.offloadInto(originals[i], faulty_arena);
        if (!spilled.ok()) {
            reportFailure("faulty-link offload", spilled.status());
            faulty_ok = false;
            break;
        }
        integrity.accumulate(spilled->integrity);
        const StatusOr<PrefetchResult> restored =
            faulty.prefetch(faulty_arena, spilled->ticket);
        if (!restored.ok()) {
            reportFailure("faulty-link prefetch", restored.status());
            faulty_ok = false;
            break;
        }
        integrity.accumulate(restored->integrity);
        faulty_ok = restored->data == originals[i];
        faulty_arena.release(spilled->ticket);
    }
    std::printf("faulty link (bit flips %.0e/byte, link loss %.0e, "
                "seed %#llx): restored %s\n",
                fault_config.bit_flip_rate_per_byte,
                fault_config.link_failure_rate,
                static_cast<unsigned long long>(
                    injector.config().seed),
                faulty_ok ? "byte-identical" : "FAILED");
    std::printf("  %llu crossings, %llu retries (%llu CRC rejects, "
                "%llu link faults), %llu shard(s) degraded to raw "
                "framing, %.3f ms retry stall\n\n",
                static_cast<unsigned long long>(integrity.attempts),
                static_cast<unsigned long long>(integrity.retries),
                static_cast<unsigned long long>(integrity.crc_failures),
                static_cast<unsigned long long>(integrity.link_faults),
                static_cast<unsigned long long>(
                    integrity.degraded_shards),
                integrity.retry_stall_seconds * 1e3);

    // 4. Simulated iteration under each mode, with the overlap-aware
    //    engine timing the cDMA transfers.
    PerfModel perf;
    StepSimulator sim(manager, engine, perf, CudnnVersion::V5);
    const StepResult oracle = sim.run(StepMode::Oracle);
    const StepResult vdnn = sim.run(StepMode::Vdnn);
    // Trace only the cDMA iteration (one recorder, one traced
    // timeline): per-layer compute spans and PCIe wire spans land on
    // the "<network>.cdma" process.
    obs::TraceRecorder trace;
    if (!trace_out.empty())
        sim.setTrace(&trace, net.name + ".cdma");
    const StepResult cdma = sim.run(StepMode::Cdma, ratios);
    sim.setTrace(nullptr, "");

    std::printf("iteration time: oracle %.1f ms | cDMA-ZV %.1f ms | "
                "vDNN %.1f ms   (%s timing)\n",
                oracle.total_seconds * 1e3, cdma.total_seconds * 1e3,
                vdnn.total_seconds * 1e3,
                timingModeName(engine.config().transfer.timing_mode).c_str());
    std::printf("cDMA speedup over vDNN: %.0f%%; PCIe wire traffic "
                "%.2f GB -> %.2f GB\n",
                100.0 * (cdma.speedupOver(vdnn) - 1.0),
                static_cast<double>(vdnn.wire_transfer_bytes) / 1e9,
                static_cast<double>(cdma.wire_transfer_bytes) / 1e9);

    // The same iteration with both directions sharing one half-duplex
    // link: the boundary race (tail offload vs head prefetches) shows
    // up as contention stall.
    StepSimulator half_sim(manager, half_engine, perf, CudnnVersion::V5);
    const StepResult cdma_half = half_sim.run(StepMode::Cdma, ratios);
    std::printf("half-duplex link: cDMA-ZV %.1f ms (%+.2f%% vs full "
                "duplex), contention stall %.3f ms (%.2f%% of the "
                "iteration)\n\n",
                cdma_half.total_seconds * 1e3,
                100.0 * (cdma_half.total_seconds / cdma.total_seconds -
                         1.0),
                (cdma_half.offload_contention_seconds +
                 cdma_half.prefetch_contention_seconds) * 1e3,
                100.0 * cdma_half.contentionStallFraction());

    // 4b. Adaptive codec policy: the engine's cost model picks
    //     ZVC/RLE/ZL/raw per layer from the layer's activation density,
    //     priced against the contended (half-duplex-share) wire — dense
    //     layers ship raw instead of paying software compression that
    //     cannot beat the link. Per layer: the chosen codec, the
    //     policy's predicted offload cost, and what the DES actually
    //     charged.
    PolicyConfig policy_config;
    policy_config.wire_bandwidth =
        engine_config.gpu.pcie_effective_bandwidth / 2.0;
    policy_config.metrics = &metrics;
    CodecPolicyEngine policy(policy_config);
    // Same half-duplex engine as 3a/4, so the contended-wire pricing
    // the policy decides with is the link the DES actually runs.
    CdmaConfig adaptive_config = half_config;
    adaptive_config.compression.mode = CodecMode::Adaptive;
    adaptive_config.compression.policy = &policy;
    const CdmaEngine adaptive_engine(adaptive_config);
    std::vector<double> densities;
    for (size_t i = 0; i < net.layers.size(); ++i) {
        densities.push_back(net.layers[i].relu_follows
                                ? schedule.density(i, 1.0)
                                : 1.0);
    }
    StepSimulator adaptive_sim(manager, adaptive_engine, perf,
                               CudnnVersion::V5);
    const StepResult adaptive = adaptive_sim.runAdaptive(densities);
    std::printf("adaptive codec policy (contended wire %.1f GB/s):\n",
                policy_config.wire_bandwidth / 1e9);
    std::printf("  %-12s %7s %5s | %9s %9s %7s\n", "layer", "density",
                "codec", "pred ms", "DES ms", "delta");
    for (size_t i = 0; i < adaptive.layers.size(); ++i) {
        const auto &layer = adaptive.layers[i];
        if (layer.policy_predicted_seconds <= 0.0)
            continue;
        // The transfer paired with row i carries row i-1's output.
        const double density = i > 0 ? densities[i - 1] : 1.0;
        const double delta = layer.policy_actual_seconds > 0.0
            ? 100.0 * (layer.policy_predicted_seconds -
                       layer.policy_actual_seconds) /
                layer.policy_actual_seconds
            : 0.0;
        std::printf("  %-12s %6.0f%% %5s | %9.3f %9.3f %+6.1f%%\n",
                    layer.label.c_str(), 100.0 * density,
                    codecName(layer.codec).c_str(),
                    layer.policy_predicted_seconds * 1e3,
                    layer.policy_actual_seconds * 1e3, delta);
    }
    std::printf("  adaptive iteration %.1f ms (static-ZV half-duplex "
                "%.1f ms), %llu decisions, %llu codec switch(es)\n\n",
                adaptive.total_seconds * 1e3,
                cdma_half.total_seconds * 1e3,
                static_cast<unsigned long long>(policy.decisions()),
                static_cast<unsigned long long>(policy.switches()));

    // 5. The five worst stalling layers under vDNN, and their fate under
    //    cDMA.
    std::printf("worst vDNN stalls (layer: fwd stall -> cDMA fwd "
                "stall, ms):\n");
    std::vector<size_t> order(vdnn.layers.size());
    for (size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
        return vdnn.layers[a].forward_stall >
            vdnn.layers[b].forward_stall;
    });
    for (size_t k = 0; k < std::min<size_t>(5, order.size()); ++k) {
        const auto &v = vdnn.layers[order[k]];
        const auto &c = cdma.layers[order[k]];
        if (v.forward_stall <= 0.0)
            break;
        std::printf("  %-12s %7.2f -> %7.2f\n", v.label.c_str(),
                    v.forward_stall * 1e3, c.forward_stall * 1e3);
    }

    // 6. What the registry accumulated across everything above: real
    //    kernel wall-clock per backend, and the modeled per-shard
    //    transfer latency. The same registry serializes to
    //    --metrics-out, so the printed and exported numbers can never
    //    disagree.
    const obs::HistogramMetric &kernel_wall = metrics.histogram(
        std::string("kernel.compress.wall_seconds.") +
        engine.backendName());
    const obs::HistogramMetric &shard_latency =
        metrics.histogram("transfer.offload.shard_latency_seconds");
    std::printf("\nkernel compress wall-clock (%s): p50 %.1f us / "
                "p95 %.1f us / p99 %.1f us over %llu shards\n",
                engine.backendName(),
                kernel_wall.percentile(0.50) * 1e6,
                kernel_wall.percentile(0.95) * 1e6,
                kernel_wall.percentile(0.99) * 1e6,
                static_cast<unsigned long long>(kernel_wall.count()));
    std::printf("modeled offload shard latency: p50 %.3f ms / "
                "p95 %.3f ms / p99 %.3f ms over %llu shards\n",
                shard_latency.percentile(0.50) * 1e3,
                shard_latency.percentile(0.95) * 1e3,
                shard_latency.percentile(0.99) * 1e3,
                static_cast<unsigned long long>(shard_latency.count()));
    if (!trace_out.empty()) {
        trace.writeFileOrDie(trace_out);
        std::printf("wrote trace: %s (%zu events)\n", trace_out.c_str(),
                    trace.eventCount());
    }
    if (!metrics_out.empty()) {
        metrics.writeFileOrDie(metrics_out);
        std::printf("wrote metrics: %s\n", metrics_out.c_str());
    }
    // A demo whose real-bytes round trips fail must not pass for a
    // working one.
    return restored_ok && faulty_ok ? 0 : 1;
}
