#include "roundtrip.hh"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "alloc_count.hh"
#include "compress/kernels/kernels.hh"
#include "perf/step_sim.hh"
#include "stats.hh"
#include "vdnn/memory_manager.hh"

namespace rtbench {

using namespace cdma;

namespace {

/** Target length of one block of the traced loop (rounded to whole
 *  cycles): long enough that block boundaries cost nothing, short enough
 *  that the traced and untraced blocks see the same host conditions. */
constexpr double kBlockSeconds = 0.25;

/** Stage-pass replays always run at least this many whole cycles. */
constexpr size_t kMinStageCycles = 3;

/** Minor page faults of this process so far. */
uint64_t
minorFaults()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<uint64_t>(usage.ru_minflt);
}

/** Compare @p restored with @p source byte for byte; a difference is
 *  counted into @p tally. Returns true when they match. */
bool
verifyRestored(std::span<const uint8_t> restored,
               std::span<const uint8_t> source, Tally &tally)
{
    const bool same = restored.size() == source.size() &&
        std::memcmp(restored.data(), source.data(), source.size()) == 0;
    if (!same)
        ++tally.mismatched;
    return same;
}

/** The adaptive policy's configuration; the stage pass also uses it to
 *  price the policy on fixed-codec workloads. */
PolicyConfig
policyConfig()
{
    PolicyConfig config;
    config.wire_bandwidth = kPolicyWireBandwidth;
    return config;
}

/** cDMA-over-vDNN figures of the step simulator. */
struct SimFigures {
    double speedup = 0.0;
    double stall_share = 0.0;
    double pcie_utilization = 0.0;
};

/** Price one training iteration of @p desc (at its default batch) with
 *  StepSimulator under TimingMode::Overlapped, at @p output_ratios (one
 *  per row), against the vDNN baseline. */
SimFigures
simulate(const NetworkDesc &desc, const std::vector<double> &output_ratios)
{
    // As bench/fig13_performance: vDNN on the default engine, cDMA with
    // the compress/wire pipeline priced explicitly.
    const VdnnMemoryManager manager(desc, desc.default_batch);
    const PerfModel perf;
    const CdmaEngine engine(CdmaConfig{});
    CdmaConfig overlapped;
    overlapped.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine overlapped_engine(overlapped);
    const StepSimulator vdnn_sim(manager, engine, perf, CudnnVersion::V5);
    const StepSimulator cdma_sim(manager, overlapped_engine, perf,
                                 CudnnVersion::V5);
    const StepResult vdnn = vdnn_sim.run(StepMode::Vdnn);
    const StepResult cdma = cdma_sim.run(StepMode::Cdma, output_ratios);
    SimFigures figures;
    figures.speedup = cdma.speedupOver(vdnn);
    figures.stall_share = cdma.total_seconds > 0.0
        ? cdma.stall_seconds / cdma.total_seconds
        : 0.0;
    figures.pcie_utilization = cdma.pcie_utilization;
    return figures;
}

// Arena-type adapters: the tiered store seals (may evict) after a spill
// and promotes before reading; the plain one does neither.
void sealSpill(SpillArena &, SpillTicket) {}
void sealSpill(TieredSpillArena &arena, SpillTicket t) { arena.seal(t); }
void promoteSpill(SpillArena &, SpillTicket) {}
void promoteSpill(TieredSpillArena &arena, SpillTicket t) { arena.promote(t); }

uint64_t
slabAllocations(const SpillArena &arena)
{
    return arena.stats().slab_allocations;
}

uint64_t
slabAllocations(const TieredSpillArena &arena)
{
    return arena.hostArena().stats().slab_allocations +
        arena.backingArena().stats().slab_allocations;
}

uint64_t
highWater(const SpillArena &arena)
{
    return arena.stats().high_water_payload_bytes;
}

uint64_t
highWater(const TieredSpillArena &arena)
{
    return arena.hostArena().stats().high_water_payload_bytes;
}

TieredSpillStats
tierStats(const SpillArena &)
{
    return {};
}

TieredSpillStats
tierStats(const TieredSpillArena &arena)
{
    return arena.tierStats();
}

template <typename Arena>
std::unique_ptr<Arena> makeArena(uint64_t bytes_per_iteration);

template <>
std::unique_ptr<SpillArena>
makeArena<SpillArena>(uint64_t)
{
    return std::make_unique<SpillArena>();
}

/** Host budget: a quarter of one iteration's raw bytes, so writes evict
 *  older spills and reads promote them back every iteration. */
template <>
std::unique_ptr<TieredSpillArena>
makeArena<TieredSpillArena>(uint64_t bytes_per_iteration)
{
    return std::make_unique<TieredSpillArena>(bytes_per_iteration / 4);
}

/** Run @p fn, recording its span (and, for prefetch, the minor faults
 *  it took) when @p spans is set. */
template <typename F>
auto
timed(SpanRecorder *spans, Call call, size_t layer, F &&fn)
{
    if (spans == nullptr)
        return fn();
    const uint64_t faults = call == Call::Prefetch ? minorFaults() : 0;
    const double begin = now();
    auto result = fn();
    const double end = now();
    if (call == Call::Prefetch)
        spans->addPrefetchFaults(minorFaults() - faults);
    spans->record(call, layer, begin, end);
    return result;
}

/** Decode a spill's shard views into @p out, the way the arena prefetch
 *  drain does: raw shards are one copy, the rest decode per window with
 *  the codec their tag names. */
Status
expandViews(const CdmaEngine &engine, std::span<const SpillShardView> views,
            uint64_t window_bytes, uint64_t original_bytes, uint8_t *out)
{
    for (const SpillShardView &view : views) {
        if (view.raw_framed || view.codec == Codec::Raw) {
            std::memcpy(out + view.first_window * window_bytes,
                        view.payload.data(), view.payload.size());
            continue;
        }
        const Compressor &codec = engine.serialCodec(view.codec);
        uint64_t cursor = 0;
        uint64_t window = view.first_window;
        for (const uint32_t size : view.window_sizes) {
            const uint64_t offset = window * window_bytes;
            const uint64_t raw =
                std::min<uint64_t>(window_bytes, original_bytes - offset);
            const Status status = codec.decompressWindowInto(
                view.payload.subspan(cursor, size), raw, out + offset);
            if (!status.ok())
                return status;
            cursor += size;
            ++window;
        }
    }
    return Status();
}

} // namespace

double
now()
{
    static const auto origin = std::chrono::steady_clock::now();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin)
        .count();
}

const char *
callName(Call call)
{
    switch (call) {
    case Call::Offload:
        return "offloadInto";
    case Call::Prefetch:
        return "prefetch";
    case Call::Release:
        return "release";
    case Call::Decide:
        return "decide";
    case Call::Observe:
        return "observe";
    }
    return "?";
}

SpanRecorder::SpanRecorder(size_t layers, size_t export_iterations)
    : export_iterations_(export_iterations)
{
    exported_.reserve(export_iterations * layers * kCalls);
}

void
SpanRecorder::beginIteration(uint64_t iteration)
{
    iteration_ = iteration;
    sums_.fill(0.0);
    faults_ = 0;
}

void
SpanRecorder::record(Call call, size_t layer, double begin_s, double end_s)
{
    sums_[static_cast<size_t>(call)] += end_s - begin_s;
    if (traced_ < export_iterations_) {
        exported_.push_back({call, static_cast<uint32_t>(layer), iteration_,
                             begin_s, end_s});
    }
}

void
SpanRecorder::endIteration()
{
    for (size_t c = 0; c < kCalls; ++c)
        per_call_[c].push_back(sums_[c]);
    faults_per_.push_back(static_cast<double>(faults_));
    ++traced_;
}

template <typename Arena>
Harness<Arena>::Harness(const WorkloadSpec &spec, const Inputs &inputs,
                        Tally &tally)
    : spec_(spec), inputs_(inputs), tally_(tally)
{
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.compression.algorithm = Algorithm::Zvc;
    config.compression.lanes = spec.lanes;
    if (spec.mode == CodecMode::Adaptive) {
        policy_ = std::make_unique<CodecPolicyEngine>(policyConfig());
        config.compression.mode = CodecMode::Adaptive;
        config.compression.policy = policy_.get();
    }
    engine_ = std::make_unique<CdmaEngine>(config);
    transfer_ = std::make_unique<TransferEngine>(*engine_);
    arena_ = makeArena<Arena>(inputs.bytes_per_iteration);
    tickets_.assign(layers(), 0);
    live_.assign(layers(), 0);
    decisions_.assign(layers(), PolicyDecision{});
}

template <typename Arena>
Harness<Arena>::~Harness() = default;

template <typename Arena>
unsigned
Harness<Arena>::lanes() const
{
    return engine_->compressor().lanes();
}

template <typename Arena>
void
Harness<Arena>::iteration(SpanRecorder *spans, CountingResult *ledger)
{
    const size_t position = iteration_ % cycle();
    const std::vector<ByteVec> &maps = inputs_.maps(iteration_);
    if (spans != nullptr)
        spans->beginIteration(iteration_);

    // Forward: offload every layer's map in order.
    for (size_t l = 0; l < layers(); ++l) {
        const ByteVec &map = maps[l];
        std::optional<Codec> codec;
        if (policy_) {
            decisions_[l] = timed(spans, Call::Decide, l, [&] {
                return policy_->decide(inputs_.labels[l], map);
            });
            codec = decisions_[l].codec;
        }
        ++tally_.attempted;
        StatusOr<SpilledOffload> spilled = timed(spans, Call::Offload, l, [&] {
            return transfer_->offloadInto(map, *arena_, codec);
        });
        live_[l] = spilled.ok();
        if (!spilled.ok()) {
            ++tally_.bad_status;
            continue;
        }
        tickets_[l] = spilled->ticket;
        uint64_t wire = 0;
        for (const ShardTransfer &shard : spilled->shards)
            wire += shard.wire_bytes;
        if (policy_) {
            // The achieved ratio only: a measured compress time would
            // refine the cost curves from host timing and make the
            // decision stream differ between runs.
            const double ratio = wire > 0
                ? static_cast<double>(map.size()) / static_cast<double>(wire)
                : 1.0;
            timed(spans, Call::Observe, l, [&] {
                policy_->observe(inputs_.labels[l], decisions_[l],
                                 map.size(), ratio);
                return 0;
            });
        }
        if (ledger != nullptr) {
            const Codec used =
                codec.value_or(engine_->compressor().codecTag());
            ledger->layer_raw[l] += map.size();
            ledger->layer_wire[l] += wire;
            ledger->codecs[position][l] = used;
            ledger->codec_raw_bytes[static_cast<size_t>(used)] += map.size();
            ledger->des_shards += spilled->shards.size();
        }
    }

    // Backward: prefetch, compare and release in reverse order.
    for (size_t l = layers(); l-- > 0;) {
        if (!live_[l])
            continue;
        StatusOr<PrefetchResult> restored =
            timed(spans, Call::Prefetch, l, [&] {
                return transfer_->prefetch(*arena_, tickets_[l]);
            });
        if (!restored.ok()) {
            ++tally_.bad_status;
        } else {
            verifyRestored(restored->data, maps[l], tally_);
            if (ledger != nullptr)
                ledger->des_shards += restored->shards.size();
        }
        timed(spans, Call::Release, l, [&] {
            arena_->release(tickets_[l]);
            return 0;
        });
        live_[l] = 0;
    }
    if (spans != nullptr)
        spans->endIteration();
    ++iteration_;
}

template <typename Arena>
CountingResult
Harness<Arena>::countingPass(size_t cycles)
{
    CountingResult result;
    result.iterations = cycle();
    result.layer_raw.assign(layers(), 0);
    result.layer_wire.assign(layers(), 0);
    result.codecs.assign(cycle(), std::vector<Codec>(layers(), Codec::Zvc));

    for (size_t c = 0; c + 1 < cycles; ++c) {
        for (size_t s = 0; s < cycle(); ++s)
            iteration(nullptr, nullptr);
    }
    const uint64_t switches = policy_ ? policy_->switches() : 0;
    const TieredSpillStats tier = tierStats(*arena_);
    const AllocCount alloc = allocCount();
    for (size_t s = 0; s < cycle(); ++s)
        iteration(nullptr, &result);
    const AllocCount alloc_after = allocCount();
    const TieredSpillStats tier_after = tierStats(*arena_);

    result.alloc_calls = alloc_after.calls - alloc.calls;
    result.alloc_bytes = alloc_after.bytes - alloc.bytes;
    result.switches = (policy_ ? policy_->switches() : 0) - switches;
    result.evictions = tier_after.evictions - tier.evictions;
    result.promotions = tier_after.promotions - tier.promotions;
    result.tier_bytes = (tier_after.ssd_write_bytes - tier.ssd_write_bytes) +
        (tier_after.ssd_read_bytes - tier.ssd_read_bytes);
    result.high_water_bytes = highWater(*arena_);

    std::vector<double> ratios;
    for (size_t l = 0; l < layers(); ++l) {
        result.raw_bytes += result.layer_raw[l];
        result.wire_bytes += result.layer_wire[l];
        ratios.push_back(result.layer_wire[l] > 0
                             ? static_cast<double>(result.layer_raw[l]) /
                                 static_cast<double>(result.layer_wire[l])
                             : 1.0);
    }
    result.compression_ratio = result.wire_bytes > 0
        ? static_cast<double>(result.raw_bytes) /
            static_cast<double>(result.wire_bytes)
        : 1.0;
    const SimFigures sim = simulate(inputs_.desc, ratios);
    result.sim_speedup = sim.speedup;
    result.sim_stall_share = sim.stall_share;
    result.sim_pcie_utilization = sim.pcie_utilization;
    return result;
}

template <typename Arena>
WarmupResult
Harness<Arena>::warmUp(double min_seconds, double max_seconds)
{
    // Settled: no new arena slab and at most one fault per 200 pages
    // the cycle moves, for two cycles in a row.
    const uint64_t cycle_bytes =
        inputs_.bytes_per_iteration * static_cast<uint64_t>(cycle());
    const uint64_t fault_limit =
        std::max<uint64_t>(16, cycle_bytes / 4096 / 200);
    const double start = now();
    WarmupResult result;
    std::vector<double> times;
    size_t quiet_cycles = 0;
    for (;;) {
        const uint64_t slabs = slabAllocations(*arena_);
        const uint64_t faults = minorFaults();
        for (size_t s = 0; s < cycle(); ++s) {
            const double begin = now();
            iteration(nullptr, nullptr);
            times.push_back(now() - begin);
        }
        result.iterations += cycle();
        const bool quiet = slabAllocations(*arena_) == slabs &&
            minorFaults() - faults <= fault_limit;
        quiet_cycles = quiet ? quiet_cycles + 1 : 0;
        const double elapsed = now() - start;
        if (quiet_cycles >= 2 && elapsed >= min_seconds) {
            result.settled = true;
            break;
        }
        if (elapsed >= max_seconds)
            break;
    }
    iteration_estimate_ = median(times);
    return result;
}

template <typename Arena>
bool
Harness<Arena>::selfCheck()
{
    // The smallest map of the first snapshot keeps this cheap.
    const std::vector<ByteVec> &maps = inputs_.snapshots.front();
    size_t pick = 0;
    for (size_t l = 1; l < maps.size(); ++l) {
        if (maps[l].size() < maps[pick].size())
            pick = l;
    }
    StatusOr<SpilledOffload> spilled =
        transfer_->offloadInto(maps[pick], *arena_);
    if (!spilled.ok())
        return false;
    StatusOr<PrefetchResult> restored =
        transfer_->prefetch(*arena_, spilled->ticket);
    arena_->release(spilled->ticket);
    if (!restored.ok())
        return false;

    Tally probe;
    const bool clean = verifyRestored(restored->data, maps[pick], probe);
    restored->data[restored->data.size() / 2] ^= 0x5a;
    const bool corrupt_detected =
        !verifyRestored(restored->data, maps[pick], probe);
    return clean && corrupt_detected && probe.mismatched == 1 &&
        probe.failed() == 1;
}

template <typename Arena>
TimedResult
Harness<Arena>::timedLoop(double run_seconds)
{
    TimedResult result;
    if (iteration_estimate_ > 0.0) {
        result.iteration_seconds.reserve(
            static_cast<size_t>(1.5 * run_seconds / iteration_estimate_) +
            64);
    }
    const double deadline = now() + run_seconds;
    do {
        for (size_t s = 0; s < cycle(); ++s) {
            const double begin = now();
            iteration(nullptr, nullptr);
            result.iteration_seconds.push_back(now() - begin);
        }
    } while (now() < deadline);
    return result;
}

template <typename Arena>
TracedResult
Harness<Arena>::tracedLoop(double run_seconds, size_t export_iterations)
{
    TracedResult result{{}, {}, SpanRecorder(layers(), export_iterations),
                        0};
    const double cycle_seconds =
        std::max(iteration_estimate_, 1e-6) * static_cast<double>(cycle());
    const size_t block_cycles = std::max<size_t>(
        1, static_cast<size_t>(kBlockSeconds / cycle_seconds));
    const uint64_t slabs = slabAllocations(*arena_);
    const double deadline = now() + run_seconds;
    bool traced = false;
    while (now() < deadline || result.traced_seconds.empty()) {
        SpanRecorder *spans = traced ? &result.spans : nullptr;
        std::vector<double> &times =
            traced ? result.traced_seconds : result.untraced_seconds;
        for (size_t b = 0; b < block_cycles; ++b) {
            for (size_t s = 0; s < cycle(); ++s) {
                const double begin = now();
                iteration(spans, nullptr);
                times.push_back(now() - begin);
            }
        }
        traced = !traced;
    }
    result.slabs_allocated = slabAllocations(*arena_) - slabs;
    return result;
}

template <typename Arena>
StageResult
Harness<Arena>::stagePass(double run_seconds, const CountingResult &counts)
{
    const uint64_t window_bytes = engine_->config().compression.window_bytes;
    const uint64_t shard_windows = transfer_->shardWindows();
    const KernelOps &kernels = engine_->compressor().serial().kernels();
    uint64_t largest = 0;
    for (const auto &maps : inputs_.snapshots) {
        for (const ByteVec &map : maps)
            largest = std::max<uint64_t>(largest, map.size());
    }
    ByteVec out(largest);
    std::vector<std::vector<CompressedShard>> shards(layers());
    std::vector<std::vector<ShardTransfer>> trains(layers());
    std::vector<SpillShardView> views;
    // Fixed-codec workloads never call the policy; price what it would
    // cost on the same maps with a policy of its own.
    CodecPolicyEngine stage_policy(policyConfig());

    StageResult result;
    const double deadline = now() + run_seconds;
    size_t cycles = 0;
    while (now() < deadline || cycles < kMinStageCycles) {
        for (size_t s = 0; s < cycle(); ++s) {
            const std::vector<ByteVec> &maps = inputs_.maps(s);
            double compress = 0, append = 0, des_offload = 0, read = 0,
                   crc = 0, expand = 0, des_prefetch = 0, decide = 0,
                   observe = 0;
            for (size_t l = 0; l < layers(); ++l) {
                const ByteVec &map = maps[l];
                const ParallelCompressor &compressor =
                    engine_->compressorFor(counts.codecs[s][l]);
                shards[l].clear();
                double t = now();
                compressor.compressShards(
                    map, shard_windows, [&](CompressedShard &&shard) {
                        shards[l].push_back(std::move(shard));
                    });
                compress += now() - t;

                t = now();
                tickets_[l] = arena_->beginSpill(map.size(), window_bytes);
                for (const CompressedShard &shard : shards[l])
                    arena_->appendShard(tickets_[l], shard);
                sealSpill(*arena_, tickets_[l]);
                append += now() - t;

                trains[l].clear();
                for (const CompressedShard &shard : shards[l]) {
                    trains[l].push_back(
                        {shard.raw_bytes, shard.effectiveBytes(window_bytes)});
                }
                t = now();
                transfer_->duplexTiming(trains[l], {});
                des_offload += now() - t;

                if (!policy_) {
                    const double ratio = counts.layer_wire[l] > 0
                        ? static_cast<double>(counts.layer_raw[l]) /
                            static_cast<double>(counts.layer_wire[l])
                        : 1.0;
                    t = now();
                    const PolicyDecision decision =
                        stage_policy.decide(inputs_.labels[l], map);
                    decide += now() - t;
                    t = now();
                    stage_policy.observe(inputs_.labels[l], decision,
                                         map.size(), ratio);
                    observe += now() - t;
                }
            }
            for (size_t l = layers(); l-- > 0;) {
                const ByteVec &map = maps[l];
                ++tally_.attempted;
                double t = now();
                promoteSpill(*arena_, tickets_[l]);
                views.clear();
                const size_t count = arena_->shardCount(tickets_[l]);
                for (size_t i = 0; i < count; ++i)
                    views.push_back(arena_->shard(tickets_[l], i));
                read += now() - t;

                t = now();
                bool crc_ok = true;
                for (const SpillShardView &view : views) {
                    crc_ok = crc_ok &&
                        kernels.crc32(0, view.payload.data(),
                                      view.payload.size()) == view.crc32c;
                }
                crc += now() - t;

                t = now();
                const Status status = expandViews(*engine_, views,
                                                  window_bytes, map.size(),
                                                  out.data());
                expand += now() - t;

                t = now();
                transfer_->duplexTiming({}, trains[l]);
                des_prefetch += now() - t;

                if (!crc_ok || !status.ok())
                    ++tally_.bad_status;
                else
                    verifyRestored({out.data(), map.size()}, map, tally_);
                arena_->release(tickets_[l]);
            }
            result.compress.push_back(compress);
            result.append.push_back(append);
            result.des_offload.push_back(des_offload);
            result.read.push_back(read);
            result.crc.push_back(crc);
            result.expand.push_back(expand);
            result.des_prefetch.push_back(des_prefetch);
            result.decide.push_back(decide);
            result.observe.push_back(observe);
        }
        ++cycles;
    }
    return result;
}

template class Harness<SpillArena>;
template class Harness<TieredSpillArena>;

} // namespace rtbench
