/**
 * @file
 * Google-benchmark microbenchmarks of the compression kernels and the
 * ZVC engine cycle model (Section V-B). The software codecs report
 * bytes/second on this host, serial and with the parallel window fan-out
 * (ParallelCompressor lanes sweep — the software analogue of the paper's
 * replicated CPE/DPE pipelines); the cycle model reports the modeled
 * hardware throughput (32 B/cycle), which is what the paper's 100s-of-
 * GB/s requirement refers to — zlib's software-class throughput is the
 * reason the paper rules it out for hardware.
 *
 * Serial benchmarks take the density (percent) as the argument; parallel
 * benchmarks take {density, lanes}.
 *
 * The kernel backend the dispatcher chose is recorded in the JSON
 * context as "kernel_backend" (validated by bench/check_bench_json.py),
 * and explicit per-backend families in both directions
 * (BM_<Algo>Compress{Scalar,Avx2,Avx512} and the
 * BM_<Algo>Decompress{Scalar,Avx2,Avx512} expand-side mirrors) are
 * registered for every backend this CPU supports, so the checked-in
 * trajectory carries scalar and SIMD numbers side by side for the
 * offload AND prefetch legs — avx512 rows appear only when the
 * recording host has AVX512F/BW/VL (the host_avx512 context field
 * records which case this JSON is).
 */

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <string>

#include <benchmark/benchmark.h>

#include "cdma/fleet_sim.hh"
#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "compress/compressor.hh"
#include "compress/kernels/kernels.hh"
#include "compress/parallel.hh"
#include "compress/policy.hh"
#include "gpu/zvc_engine.hh"
#include "sparsity/generator.hh"

namespace {

using namespace cdma;

/** Activation-like input: clustered sparsity at the given density. */
std::vector<uint8_t>
makeActivations(double density, size_t bytes)
{
    ActivationGenerator gen;
    Rng rng(7);
    const int64_t elements = static_cast<int64_t>(bytes / 4);
    const int64_t hw = 64;
    const int64_t channels =
        std::max<int64_t>(1, elements / (hw * hw));
    const Tensor4D t = gen.generate(Shape4D{1, channels, hw, hw},
                                    Layout::NCHW, density, rng);
    auto raw = t.rawBytes();
    return {raw.begin(), raw.end()};
}

void
compressBenchmark(benchmark::State &state, Algorithm algorithm,
                  const KernelOps *kernels = nullptr)
{
    const double density =
        static_cast<double>(state.range(0)) / 100.0;
    const auto input = makeActivations(density, 1 << 20);
    const auto compressor =
        makeCompressor(algorithm, Compressor::kDefaultWindowBytes,
                       kernels);
    uint64_t wire = 0;
    for (auto _ : state) {
        const auto result = compressor->compress(input);
        wire = result.effectiveBytes();
        benchmark::DoNotOptimize(wire);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * input.size()));
    state.counters["ratio"] = static_cast<double>(input.size()) /
        static_cast<double>(wire);
}

void
parallelCompressBenchmark(benchmark::State &state, Algorithm algorithm)
{
    const double density =
        static_cast<double>(state.range(0)) / 100.0;
    const auto lanes = static_cast<unsigned>(state.range(1));
    const auto input = makeActivations(density, 1 << 20);
    const ParallelCompressor compressor(
        algorithm, Compressor::kDefaultWindowBytes, lanes);
    uint64_t wire = 0;
    for (auto _ : state) {
        const auto result = compressor.compress(input);
        wire = result.effectiveBytes();
        benchmark::DoNotOptimize(wire);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * input.size()));
    state.counters["ratio"] = static_cast<double>(input.size()) /
        static_cast<double>(wire);
    state.counters["lanes"] = lanes;
}

void
BM_ZvcCompress(benchmark::State &state)
{
    compressBenchmark(state, Algorithm::Zvc);
}

void
BM_RleCompress(benchmark::State &state)
{
    compressBenchmark(state, Algorithm::Rle);
}

void
BM_DeflateCompress(benchmark::State &state)
{
    compressBenchmark(state, Algorithm::Zlib);
}

void
BM_ZvcCompressParallel(benchmark::State &state)
{
    parallelCompressBenchmark(state, Algorithm::Zvc);
}

void
BM_RleCompressParallel(benchmark::State &state)
{
    parallelCompressBenchmark(state, Algorithm::Rle);
}

void
BM_DeflateCompressParallel(benchmark::State &state)
{
    parallelCompressBenchmark(state, Algorithm::Zlib);
}

/** Decompression throughput (density from the benchmark argument). */
void
decompressBenchmark(benchmark::State &state, Algorithm algorithm,
                    const KernelOps *kernels = nullptr)
{
    const double density =
        static_cast<double>(state.range(0)) / 100.0;
    const auto input = makeActivations(density, 1 << 20);
    const auto compressor =
        makeCompressor(algorithm, Compressor::kDefaultWindowBytes,
                       kernels);
    const auto compressed = compressor->compress(input);
    for (auto _ : state) {
        auto restored = compressor->decompress(compressed);
        benchmark::DoNotOptimize(restored.value().data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * input.size()));
    state.counters["ratio"] = static_cast<double>(input.size()) /
        static_cast<double>(compressed.effectiveBytes());
}

void
BM_ZvcDecompress(benchmark::State &state)
{
    decompressBenchmark(state, Algorithm::Zvc);
}

void
BM_RleDecompress(benchmark::State &state)
{
    decompressBenchmark(state, Algorithm::Rle);
}

void
BM_DeflateDecompress(benchmark::State &state)
{
    decompressBenchmark(state, Algorithm::Zlib);
}

void
BM_ZvcDecompressParallel(benchmark::State &state)
{
    const auto lanes = static_cast<unsigned>(state.range(0));
    const auto input = makeActivations(0.4, 1 << 20);
    const ParallelCompressor compressor(
        Algorithm::Zvc, Compressor::kDefaultWindowBytes, lanes);
    const auto compressed = compressor.compress(input);
    for (auto _ : state) {
        auto restored = compressor.decompress(compressed);
        benchmark::DoNotOptimize(restored.value().data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * input.size()));
    state.counters["lanes"] = lanes;
}

/**
 * Pricing a duplex transfer at a representative shape: a 64 MiB
 * offload shard train and an equal prefetch train on one link (ZV-class
 * 2.5x ratio, bandwidth-delay shards, double buffering). On a full-duplex
 * link the trains cannot meet, so each is priced on its own by the
 * uncontended recurrence; on a half-duplex link they race in the DES.
 * Reports the host-side model throughput (modeled raw bytes per wall
 * second — the cost of pricing a transfer, which the step simulator
 * pays per layer) plus the modeled makespan and contention as counters;
 * the JSON's duplex_mode context records the engine-default link
 * configuration.
 */
void
duplexModelBenchmark(benchmark::State &state, DuplexMode mode)
{
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.transfer.duplex_mode = mode;
    const CdmaEngine engine(config);
    const TransferEngine transfers(engine);
    const uint64_t raw_bytes = 64ull << 20;
    DuplexTiming timing;
    for (auto _ : state) {
        timing = transfers.modelFromRatio(raw_bytes, 2.5, raw_bytes,
                                          2.5);
        // Sink the whole struct by address: DoNotOptimize on an lvalue
        // member marks it asm-clobbered, which GCC 12 exploits by
        // dropping the member's store — the counters below would then
        // read garbage.
        benchmark::DoNotOptimize(&timing);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * 2 * raw_bytes));
    state.counters["modeled_makespan_ms"] =
        timing.makespan_seconds * 1e3;
    state.counters["contention_stall_fraction"] =
        timing.contentionStallFraction();
}

void
BM_DuplexTransferModelFull(benchmark::State &state)
{
    duplexModelBenchmark(state, DuplexMode::Full);
}

void
BM_DuplexTransferModelHalf(benchmark::State &state)
{
    duplexModelBenchmark(state, DuplexMode::Half);
}

/**
 * The fleet DES at N GPUs behind one fixed-bandwidth switch uplink:
 * prices a whole data-parallel offload round (N shard trains racing
 * through the shared edge) per iteration. bytes_per_second is the
 * host-side modeling rate (fleet raw bytes per wall second — what a
 * multi-GPU step simulation would pay per layer); the counters carry
 * the modeled makespan and the mean contention-stall fraction, which
 * check_bench_json.py requires to be positive and strictly increasing
 * across the N2/N4/N8 families — a flat fraction means the shared
 * uplink silently stopped arbitrating.
 */
void
fleetOffloadBenchmark(benchmark::State &state, unsigned gpu_count)
{
    FleetSpec spec;
    spec.gpu_count = gpu_count;
    spec.gpu_link_bandwidth = 12.8e9;
    spec.uplink_bandwidth = 12.8e9; // fixed while N scales
    spec.offload_raw_bytes = 16ull << 20;
    spec.offload_ratio = 2.5;
    spec.prefetch_raw_bytes = 0;
    spec.shard_raw_bytes = 2ull << 20;
    const FleetSimulator sim(spec);
    FleetResult result;
    for (auto _ : state) {
        result = sim.run();
        // Sink by address (same GCC 12 hazard as the duplex model).
        benchmark::DoNotOptimize(&result);
    }
    state.SetBytesProcessed(static_cast<int64_t>(
        state.iterations() * gpu_count * spec.offload_raw_bytes));
    state.counters["modeled_makespan_ms"] =
        result.makespan_seconds * 1e3;
    state.counters["contention_stall_fraction"] =
        result.mean_contention_stall_fraction;
    state.counters["uplink_utilization"] = result.uplink_utilization;
}

void
BM_FleetOffloadN2(benchmark::State &state)
{
    fleetOffloadBenchmark(state, 2);
}

void
BM_FleetOffloadN4(benchmark::State &state)
{
    fleetOffloadBenchmark(state, 4);
}

void
BM_FleetOffloadN8(benchmark::State &state)
{
    fleetOffloadBenchmark(state, 8);
}

void
BM_ZvcEngineCycleModel(benchmark::State &state)
{
    // Reports the modeled hardware rate alongside the host-simulation
    // rate: cycles per byte is the architectural number.
    const auto input = makeActivations(0.4, 1 << 18);
    ZvcEngineModel engine;
    uint64_t cycles = 0;
    for (auto _ : state) {
        const auto result = engine.compress(input);
        cycles = result.cycles;
        benchmark::DoNotOptimize(result.payload.data());
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * input.size()));
    state.counters["modeled_GBps_at_1GHz"] =
        static_cast<double>(input.size()) /
        static_cast<double>(cycles);
}

/**
 * CRC-32C framing throughput — the integrity tax every spilled shard
 * pays at compress time and again at prefetch-verify time. Priced per
 * backend (BM_Crc32{Scalar,Avx2,Avx512}) so the trajectory shows the
 * scalar slice-by-8 table walk next to the crc32 instruction streams
 * and the carry-less-multiply folds, and once more as BM_Crc32Hw, the
 * CRC the dispatched backend frames shards with: check_bench_json.py
 * requires that row to keep pace with the dispatch ZVC compress row.
 */
void
crc32Benchmark(benchmark::State &state, const KernelOps *kernels)
{
    const auto input = makeActivations(0.4, 1 << 20);
    uint32_t crc = 0;
    for (auto _ : state) {
        crc = kernels->crc32(0, input.data(), input.size());
        benchmark::DoNotOptimize(crc);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * input.size()));
}

/**
 * Adaptive-policy selection overhead, the density argument in percent:
 * one full decide() — strided density sample over a 4MB activation
 * buffer, closed-form cost model, hysteresis update — per iteration.
 * bytes_per_second is buffer bytes over decide wall-clock, so the
 * acceptance bar "selection costs < 1% of the compress pass it steers"
 * reads directly as >= 100x the same-density BM_ZvcCompress rate
 * (enforced by bench/check_bench_json.py).
 */
void
BM_AdaptivePolicyDecide(benchmark::State &state)
{
    const double density =
        static_cast<double>(state.range(0)) / 100.0;
    const auto input = makeActivations(density, 4 << 20);
    PolicyConfig config;
    config.wire_bandwidth = 6.4e9;
    CodecPolicyEngine policy(config);
    for (auto _ : state) {
        const PolicyDecision decision = policy.decide("bench", input);
        benchmark::DoNotOptimize(decision);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * input.size()));
    state.counters["chosen_codec"] = static_cast<double>(
        static_cast<int>(policy.decideFromDensity("probe", input.size(),
                                                  density)
                             .codec));
}

/**
 * The modeled-flow decide path (no activation bytes: cost model +
 * hysteresis only), priced per decision over the same nominal 4MB
 * layer. This is the per-layer tax StepSimulator::runAdaptive and the
 * fleet sweep pay.
 */
void
BM_AdaptivePolicyFromDensity(benchmark::State &state)
{
    PolicyConfig config;
    config.wire_bandwidth = 6.4e9;
    CodecPolicyEngine policy(config);
    const uint64_t bytes = 4ull << 20;
    for (auto _ : state) {
        const PolicyDecision decision =
            policy.decideFromDensity("bench", bytes, 0.5);
        benchmark::DoNotOptimize(decision);
    }
    state.SetBytesProcessed(
        static_cast<int64_t>(state.iterations() * bytes));
}

void
BM_Crc32Hw(benchmark::State &state)
{
    // The dispatched backend's CRC. A run forced to scalar measures the
    // AVX2 table's instead, so the row is a hardware CRC wherever it is
    // registered (on every AVX2 host, where the checker requires it).
    const KernelOps *kernels = &activeKernels();
    if (kernels == &scalarKernels())
        kernels = avx2Kernels();
    crc32Benchmark(state, kernels);
}

void
parallelArgs(benchmark::internal::Benchmark *bench)
{
    for (int density : {10, 40, 50, 70, 100}) {
        for (int lanes : {1, 2, 4, 8})
            bench->Args({density, lanes});
    }
}

BENCHMARK(BM_ZvcCompress)->Arg(10)->Arg(40)->Arg(50)->Arg(70)->Arg(100);
BENCHMARK(BM_RleCompress)->Arg(10)->Arg(40)->Arg(50)->Arg(70)->Arg(100);
BENCHMARK(BM_DeflateCompress)->Arg(10)->Arg(40)->Arg(100);
BENCHMARK(BM_ZvcCompressParallel)->Apply(parallelArgs)
    ->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK(BM_RleCompressParallel)->Apply(parallelArgs)
    ->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK(BM_DeflateCompressParallel)
    ->Args({40, 1})->Args({40, 2})->Args({40, 4})->Args({40, 8})
    ->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK(BM_ZvcDecompress)->Arg(10)->Arg(40)->Arg(50)->Arg(70)->Arg(100);
BENCHMARK(BM_RleDecompress)->Arg(10)->Arg(40)->Arg(50)->Arg(70)
    ->Arg(100);
BENCHMARK(BM_DeflateDecompress)->Arg(10)->Arg(40)->Arg(100);
BENCHMARK(BM_ZvcDecompressParallel)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->MeasureProcessCPUTime()->UseRealTime();
BENCHMARK(BM_ZvcEngineCycleModel);
BENCHMARK(BM_DuplexTransferModelFull);
BENCHMARK(BM_DuplexTransferModelHalf);
BENCHMARK(BM_FleetOffloadN2);
BENCHMARK(BM_FleetOffloadN4);
BENCHMARK(BM_FleetOffloadN8);
BENCHMARK(BM_AdaptivePolicyDecide)->Arg(10)->Arg(50)->Arg(100);
BENCHMARK(BM_AdaptivePolicyFromDensity);

/** "scalar" -> "Scalar", "avx2" -> "Avx2" (benchmark-name casing). */
std::string
backendFamilySuffix(const char *name)
{
    std::string suffix(name);
    if (!suffix.empty())
        suffix[0] = static_cast<char>(std::toupper(suffix[0]));
    return suffix;
}

/**
 * Explicit per-backend serial families in both directions, one per
 * backend this CPU supports: BM_ZvcCompressScalar/50,
 * BM_ZvcCompressAvx2/50, BM_ZvcDecompressScalar/50, ..., and the CRC
 * rows BM_Crc32Scalar, BM_Crc32Avx2, BM_Crc32Avx512. The suffix-less
 * families above stay on the runtime dispatch, so the trajectory keeps
 * one "what you get by default" row per kernel.
 */
void
registerBackendBenchmarks()
{
    struct FamilySpec {
        const char *family;
        Algorithm algorithm;
        std::vector<int64_t> densities;
    };
    const FamilySpec compress_specs[] = {
        {"BM_ZvcCompress", Algorithm::Zvc, {10, 40, 50, 70, 100}},
        {"BM_RleCompress", Algorithm::Rle, {10, 40, 50, 70, 100}},
        {"BM_DeflateCompress", Algorithm::Zlib, {10, 40, 100}},
    };
    const FamilySpec decompress_specs[] = {
        {"BM_ZvcDecompress", Algorithm::Zvc, {10, 40, 50, 70, 100}},
        {"BM_RleDecompress", Algorithm::Rle, {10, 40, 50, 70, 100}},
        {"BM_DeflateDecompress", Algorithm::Zlib, {10, 40, 100}},
    };
    for (const KernelOps *kernels : supportedKernels()) {
        const std::string suffix = backendFamilySuffix(kernels->name);
        benchmark::RegisterBenchmark(
            ("BM_Crc32" + suffix).c_str(),
            [kernels](benchmark::State &state) {
                crc32Benchmark(state, kernels);
            });
        for (const FamilySpec &spec : compress_specs) {
            auto *bench = benchmark::RegisterBenchmark(
                (spec.family + suffix).c_str(),
                [algorithm = spec.algorithm,
                 kernels](benchmark::State &state) {
                    compressBenchmark(state, algorithm, kernels);
                });
            for (const int64_t density : spec.densities)
                bench->Arg(density);
        }
        for (const FamilySpec &spec : decompress_specs) {
            auto *bench = benchmark::RegisterBenchmark(
                (spec.family + suffix).c_str(),
                [algorithm = spec.algorithm,
                 kernels](benchmark::State &state) {
                    decompressBenchmark(state, algorithm, kernels);
                });
            for (const int64_t density : spec.densities)
                bench->Arg(density);
        }
    }
}

} // namespace

int
main(int argc, char **argv)
{
    // Record which backend the runtime dispatch picked and whether an
    // env override forced it, so the JSON itself carries the dispatch
    // provenance: the checker fails an AVX2-capable host that silently
    // fell back to scalar, but not a deliberately forced run — even
    // when the JSON is validated from a different shell.
    const char *forced = std::getenv("CDMA_KERNEL_BACKEND");
    benchmark::AddCustomContext("kernel_backend",
                                cdma::activeKernels().name);
    benchmark::AddCustomContext("kernel_backend_forced",
                                forced != nullptr ? forced : "");
    benchmark::AddCustomContext(
        "host_avx2", cdma::avx2Kernels() != nullptr ? "true" : "false");
    benchmark::AddCustomContext(
        "host_avx512",
        cdma::avx512Kernels() != nullptr ? "true" : "false");
    // The engine-default link configuration the duplex-model families
    // were priced under (the explicit Full/Half family suffixes sweep
    // both regardless); check_bench_json.py validates the field.
    benchmark::AddCustomContext(
        "duplex_mode", cdma::duplexModeName(cdma::CdmaConfig{}.transfer.duplex_mode));
    // Whether the measured cdma code was optimized. This binary is
    // compiled with the same build-type flags as cdma_core; the
    // context's library_build_type describes the google-benchmark
    // library it links, not the code it measures.
#ifdef __OPTIMIZE__
    benchmark::AddCustomContext("cdma_optimized", "true");
#else
    benchmark::AddCustomContext("cdma_optimized", "false");
#endif
    if (cdma::avx2Kernels() != nullptr)
        benchmark::RegisterBenchmark("BM_Crc32Hw", BM_Crc32Hw);
    registerBackendBenchmarks();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
