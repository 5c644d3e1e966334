/**
 * @file
 * Offload -> spill arena -> prefetch round-trip benchmark program.
 *
 *   rtbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *           [--git-commit <sha>] [--source-digest <hex>] [--out-dir <dir>]
 *
 * Sets the workload up several times from the seed (inputs, engine,
 * arena, a deterministic counting pass, warm-up), checks that every
 * setup produced the same inputs and counts, then measures for
 * --seconds: with --trace 0 untraced whole iterations (end-to-end
 * metrics), with --trace 1 alternating untraced and traced blocks plus
 * a stage pass (per-layer metrics, and a Perfetto trace in --out-dir).
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, metrics. Exits non-zero when any round trip failed, a
 * determinism or self-check tripped, or the build is unoptimized.
 */

#include <sched.h>
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compress/kernels/kernels.hh"
#include "obs/trace.hh"
#include "roundtrip.hh"
#include "stats.hh"
#include "workloads.hh"

using namespace rtbench;

namespace {

/** Setups per run: setup_s is their median, and every setup's inputs
 *  and counting pass must agree exactly. */
constexpr size_t kSetups = 3;
/** Whole cycles of the counting pass; counts come from the last. */
constexpr size_t kCountingCycles = 3;
constexpr double kWarmupMinSeconds = 0.25;
constexpr double kWarmupMaxSeconds = 4.0;
/** Stage-pass length as a share of --seconds (traced runs only). */
constexpr double kStageShare = 0.3;
/** Traced iterations whose raw spans go into the exported trace. */
constexpr size_t kExportIterations = 64;

struct Options {
    std::string workload;
    uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string git_commit = "unknown";
    std::string source_digest = "unknown";
    std::string out_dir = ".";
};

bool
parseOptions(int argc, char **argv, Options &options)
{
    bool have_workload = false, have_seed = false, have_seconds = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            options.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
            have_seconds = options.seconds > 0.0;
        } else if (flag == "--trace") {
            options.trace = value == "1";
        } else if (flag == "--git-commit") {
            options.git_commit = value;
        } else if (flag == "--source-digest") {
            options.source_digest = value;
        } else if (flag == "--out-dir") {
            options.out_dir = value;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

/** First /proc/cpuinfo value of @p key ("" when absent). */
std::string
cpuinfoField(const std::string &key)
{
    std::ifstream cpuinfo("/proc/cpuinfo");
    std::string line;
    while (std::getline(cpuinfo, line)) {
        if (line.compare(0, key.size(), key) == 0) {
            const size_t colon = line.find(':');
            return colon == std::string::npos ? "" : line.substr(colon + 2);
        }
    }
    return "";
}

/** The CPU flags the kernel dispatch depends on, as present. */
std::string
simdFlags()
{
    std::istringstream words(cpuinfoField("flags"));
    const std::set<std::string> flags{std::istream_iterator<std::string>(words),
                                      std::istream_iterator<std::string>()};
    std::string present;
    for (const char *flag : {"sse4_2", "avx2", "bmi2", "avx512f",
                             "avx512bw", "avx512vl"}) {
        if (flags.count(flag) == 0)
            continue;
        if (!present.empty())
            present += ' ';
        present += flag;
    }
    return present;
}

unsigned
affinityCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return std::thread::hardware_concurrency();
    return static_cast<unsigned>(CPU_COUNT(&set));
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;
}

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

using Manifest = std::vector<std::pair<std::string, std::string>>;

/** Elementwise sum of two equally long per-iteration series. */
std::vector<double>
sumSeries(const std::vector<double> &a, const std::vector<double> &b)
{
    std::vector<double> sum(a.size());
    for (size_t i = 0; i < a.size(); ++i)
        sum[i] = a[i] + b[i];
    return sum;
}

double
ms(const std::vector<double> &seconds)
{
    return median(seconds) * 1e3;
}

std::vector<Metric>
endToEndMetrics(const Inputs &inputs, const CountingResult &counts,
                const TimedResult &timed,
                const std::vector<double> &setup_seconds)
{
    const std::vector<double> &iters = timed.iteration_seconds;
    return {
        {"roundtrip_gbps", gbpsFromMedian(inputs.bytes_per_iteration, iters),
         "GB/s"},
        {"iter_ms_p90", percentile(iters, 9000) * 1e3, "ms"},
        {"compression_ratio", counts.compression_ratio, "x"},
        {"sim_speedup_vs_vdnn", counts.sim_speedup, "x"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"setup_s", median(setup_seconds), "s"},
    };
}

std::vector<Metric>
perLayerMetrics(const CountingResult &counts,
                const TracedResult &traced, const StageResult &stage,
                bool adaptive)
{
    const SpanRecorder &spans = traced.spans;
    const double iterations = static_cast<double>(counts.iterations);
    const double raw = static_cast<double>(counts.raw_bytes);

    const double offload = ms(spans.callSeconds(Call::Offload));
    const double prefetch = ms(spans.callSeconds(Call::Prefetch));
    const double compress = ms(stage.compress);
    const double append = ms(stage.append);
    const double read = ms(stage.read);
    const double crc = ms(stage.crc);
    const double expand = ms(stage.expand);
    const double des_offload = ms(stage.des_offload);
    const double des_prefetch = ms(stage.des_prefetch);
    const double des = ms(sumSeries(stage.des_offload, stage.des_prefetch));
    const double des_shards = static_cast<double>(counts.des_shards) /
        iterations;
    // The policy is called in the loop only under CodecMode::Adaptive;
    // elsewhere the stage pass prices it on the same maps.
    const double decide = adaptive ? ms(spans.callSeconds(Call::Decide))
                                   : ms(stage.decide);
    const double observe = adaptive ? ms(spans.callSeconds(Call::Observe))
                                    : ms(stage.observe);
    const Tail tail = tailPercentile(traced.untraced_seconds);
    const double untraced = median(traced.untraced_seconds);
    const double traced_median = median(traced.traced_seconds);
    auto share = [&](cdma::Codec codec) {
        return raw > 0.0
            ? static_cast<double>(
                  counts.codec_raw_bytes[static_cast<size_t>(codec)]) / raw
            : 0.0;
    };

    return {
        {"transfer.offload_ms", offload, "ms"},
        {"transfer.prefetch_ms", prefetch, "ms"},
        {"transfer.offload_glue_ms",
         offload - (compress + append + des_offload), "ms"},
        {"transfer.prefetch_glue_ms",
         prefetch - (read + crc + expand + des_prefetch), "ms"},
        {"transfer.prefetch_minor_faults", median(spans.prefetchFaults()),
         "count"},
        {"compress.ms", compress, "ms"},
        {"expand.ms", expand, "ms"},
        {"kernels.crc32_ms", crc, "ms"},
        {"arena.append_ms", append, "ms"},
        {"arena.read_ms", read, "ms"},
        {"arena.release_ms", ms(spans.callSeconds(Call::Release)), "ms"},
        {"arena.high_water_mb",
         static_cast<double>(counts.high_water_bytes) / 1e6, "MB"},
        {"arena.slabs_after_warmup",
         static_cast<double>(traced.slabs_allocated), "count"},
        {"arena.evictions", static_cast<double>(counts.evictions) / iterations,
         "1/iter"},
        {"arena.promotions",
         static_cast<double>(counts.promotions) / iterations, "1/iter"},
        {"arena.tier_mb",
         static_cast<double>(counts.tier_bytes) / 1e6 / iterations,
         "MB/iter"},
        {"des.ms", des, "ms"},
        {"des.shards", des_shards, "count"},
        {"des.us_per_shard", des_shards > 0.0 ? des * 1e3 / des_shards : 0.0,
         "us"},
        {"policy.decide_ms", decide, "ms"},
        {"policy.observe_ms", observe, "ms"},
        {"policy.switches", static_cast<double>(counts.switches) / iterations,
         "1/iter"},
        {"policy.raw_share", share(cdma::Codec::Raw), "fraction"},
        {"policy.zvc_share", share(cdma::Codec::Zvc), "fraction"},
        {"policy.rle_share", share(cdma::Codec::Rle), "fraction"},
        {"sim.stall_share", counts.sim_stall_share, "fraction"},
        {"sim.pcie_utilization", counts.sim_pcie_utilization, "fraction"},
        {"alloc.calls", static_cast<double>(counts.alloc_calls) / iterations,
         "count"},
        {"alloc.mb",
         static_cast<double>(counts.alloc_bytes) / 1e6 / iterations, "MB"},
        {"iter_ms_tail", tail.value * 1e3, "ms"},
        {"iter_ms_tail_pct", static_cast<double>(tail.per_myriad) / 100.0,
         "%"},
        {"iter_ms_tail_samples", static_cast<double>(tail.samples), "count"},
        {"trace.overhead_pct",
         traced_median > 0.0 ? 100.0 * (1.0 - untraced / traced_median)
                             : 0.0,
         "%"},
    };
}

/** Write the exported spans through obs::TraceRecorder's Chrome JSON. */
std::string
writeTrace(const Options &options, const Inputs &inputs,
           const SpanRecorder &spans, const Manifest &manifest)
{
    cdma::obs::TraceRecorder recorder;
    const auto caller = recorder.track("host.roundtrip", "caller");
    const auto meta = recorder.track("host.roundtrip", "manifest");
    cdma::obs::TraceArgs args;
    for (const auto &[key, value] : manifest)
        args.emplace_back(key, value);
    const double origin =
        spans.exported().empty() ? 0.0 : spans.exported().front().begin_s;
    recorder.instant(meta, "run_manifest", 0.0, std::move(args));
    for (const SpanRecorder::Span &span : spans.exported()) {
        const auto &maps = inputs.maps(span.iteration);
        recorder.span(caller, callName(span.call), span.begin_s - origin,
                      span.end_s - origin,
                      {{"iteration", span.iteration},
                       {"layer", inputs.labels[span.layer]},
                       {"bytes", maps[span.layer].size()}});
    }
    std::filesystem::create_directories(options.out_dir);
    const std::string path = options.out_dir + "/trace-" + options.workload +
        "-seed" + std::to_string(options.seed) + ".json";
    recorder.writeFileOrDie(path);
    return path;
}

template <typename Arena>
int
runWorkload(const WorkloadSpec &spec, const Options &options)
{
    Tally tally;
    std::vector<double> setup_seconds;
    std::vector<CountingResult> counts;
    std::unique_ptr<Inputs> inputs;
    std::unique_ptr<Harness<Arena>> harness;
    WarmupResult warmup;
    uint64_t first_hash = 0;
    bool repeatable = true;
    for (size_t k = 0; k < kSetups; ++k) {
        harness.reset(); // the previous setup's teardown is not timed
        inputs.reset();
        const double begin = now();
        inputs = std::make_unique<Inputs>(makeInputs(spec, options.seed));
        harness = std::make_unique<Harness<Arena>>(spec, *inputs, tally);
        counts.push_back(harness->countingPass(kCountingCycles));
        warmup = harness->warmUp(kWarmupMinSeconds, kWarmupMaxSeconds);
        setup_seconds.push_back(now() - begin);
        if (k == 0)
            first_hash = inputs->hash;
        repeatable = repeatable && inputs->hash == first_hash &&
            counts.back() == counts.front();
    }
    const bool self_check = harness->selfCheck();

    char hash[24];
    std::snprintf(hash, sizeof(hash), "%016llx",
                  static_cast<unsigned long long>(first_hash));
#ifdef __OPTIMIZE__
    const char *optimized = "true";
#else
    const char *optimized = "false";
#endif
    const Manifest manifest = {
        {"workload", spec.name},
        {"seed", std::to_string(options.seed)},
        {"seconds", jsonNumber(options.seconds)},
        {"trace", options.trace ? "1" : "0"},
        {"git_commit", options.git_commit},
        {"source_digest", options.source_digest},
        {"kernel_backend", cdma::activeKernels().name},
        {"cpu_model", cpuinfoField("model name")},
        {"cpu_flags", simdFlags()},
        {"nproc", std::to_string(affinityCpus())},
        {"hardware_threads",
         std::to_string(std::thread::hardware_concurrency())},
        {"lanes", std::to_string(harness->lanes())},
        {"input_hash", hash},
        {"optimized", optimized},
        {"setups", std::to_string(kSetups)},
        {"warmup_iterations", std::to_string(warmup.iterations)},
        {"warmup_settled", warmup.settled ? "true" : "false"},
    };

    std::vector<Metric> metrics;
    std::string trace_path;
    size_t samples = 0;
    if (!options.trace) {
        const TimedResult timed = harness->timedLoop(options.seconds);
        samples = timed.iteration_seconds.size();
        metrics = endToEndMetrics(*inputs, counts.front(), timed,
                                  setup_seconds);
    } else {
        const TracedResult traced =
            harness->tracedLoop(options.seconds, kExportIterations);
        const StageResult stage = harness->stagePass(
            kStageShare * options.seconds, counts.front());
        samples = traced.untraced_seconds.size() +
            traced.traced_seconds.size();
        metrics = perLayerMetrics(counts.front(), traced, stage,
                                  spec.mode == cdma::CodecMode::Adaptive);
        trace_path = writeTrace(options, *inputs, traced.spans, manifest);
    }

    bool finite = true;
    for (const Metric &metric : metrics)
        finite = finite && std::isfinite(metric.value);
    const bool correct =
        tally.failed() == 0 && repeatable && self_check && finite;

    std::string line = "manifest {";
    for (size_t i = 0; i < manifest.size(); ++i) {
        line += (i ? ", " : "") + jsonString(manifest[i].first) + ": " +
            jsonString(manifest[i].second);
    }
    std::printf("%s}\n", line.c_str());
    std::printf("iterations %zu, bytes per iteration %llu\n", samples,
                static_cast<unsigned long long>(inputs->bytes_per_iteration));
    if (!trace_path.empty())
        std::printf("trace %s\n", trace_path.c_str());
    std::printf("check inputs+counts repeat across %zu setups: %s; "
                "self-check (corrupted byte trips compare and count): %s\n",
                kSetups, repeatable ? "ok" : "FAILED",
                self_check ? "ok" : "FAILED");
    std::printf("failed_share %.17g fraction (%llu failed of %llu round "
                "trips: %llu bad status, %llu mismatched)\n",
                tally.attempted > 0
                    ? static_cast<double>(tally.failed()) /
                        static_cast<double>(tally.attempted)
                    : 0.0,
                static_cast<unsigned long long>(tally.failed()),
                static_cast<unsigned long long>(tally.attempted),
                static_cast<unsigned long long>(tally.bad_status),
                static_cast<unsigned long long>(tally.mismatched));
    for (const Metric &metric : metrics) {
        std::printf("%-32s %s %s\n", metric.name.c_str(),
                    jsonNumber(metric.value).c_str(), metric.unit.c_str());
    }

    std::string result = "{\"correct\": ";
    result += correct ? "true" : "false";
    result += ", \"attempted\": " + std::to_string(tally.attempted);
    result += ", \"failed\": " + std::to_string(tally.failed());
    result += ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        result += (i ? ", " : "") + jsonString(metrics[i].name) +
            ": {\"value\": " +
            jsonNumber(std::isfinite(metrics[i].value) ? metrics[i].value
                                                       : 0.0) +
            ", \"unit\": " + jsonString(metrics[i].unit) + "}";
    }
    std::printf("%s}}\n", result.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
#ifndef __OPTIMIZE__
    std::fprintf(stderr, "rtbench: refusing to report from an unoptimized "
                         "build (configure with -DCMAKE_BUILD_TYPE=Release)\n");
    return 2;
#endif
    Options options;
    if (!parseOptions(argc, argv, options)) {
        std::fprintf(stderr,
                     "usage: rtbench --workload <name> --seed <n> --seconds "
                     "<s> --trace <0|1> [--git-commit <sha>] "
                     "[--source-digest <hex>] [--out-dir <dir>]\n");
        return 2;
    }
    const WorkloadSpec *spec = findWorkload(options.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "rtbench: unknown workload '%s'\n",
                     options.workload.c_str());
        return 2;
    }
    return spec->arena == ArenaKind::Tiered
        ? runWorkload<cdma::TieredSpillArena>(*spec, options)
        : runWorkload<cdma::SpillArena>(*spec, options);
}
