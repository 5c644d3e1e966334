/**
 * @file
 * End-to-end integrity and fault-tolerance tests: seeded link faults
 * must be detected by the CRC/length framing, masked by bounded retry,
 * and priced on the timeline — with the restored bytes byte-identical
 * to the source in every surviving case. Covers the retry path, the
 * degradation-to-raw-framing path, retry-budget exhaustion in both
 * directions, stored-shard CRC tampering, malformed stored framing,
 * retry-stall pricing on the DES timeline, and the analytic
 * expectation fold in planFromRatio.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "cdma/transfer_engine.hh"
#include "common/rng.hh"
#include "compress/kernels/kernels.hh"
#include "sim/fault_injector.hh"

namespace cdma {
namespace {

/** ReLU-like fp32 words at the given density. */
std::vector<uint8_t>
makeInput(double density, size_t bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> input(bytes, 0);
    const size_t words = bytes / 4;
    for (size_t i = 0; i < words; ++i) {
        if (density > 0.0 && rng.bernoulli(density)) {
            const float value =
                1.0f + static_cast<float>(std::abs(rng.normal()));
            std::memcpy(input.data() + i * 4, &value, 4);
        }
    }
    for (size_t i = words * 4; i < bytes; ++i)
        input[i] = static_cast<uint8_t>(1 + rng.uniformInt(255));
    return input;
}

CdmaEngine
makeFaultyEngine(sim::FaultInjector *injector,
                 RetryPolicy retry = RetryPolicy{})
{
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.transfer.fault_injector = injector;
    config.transfer.retry = retry;
    return CdmaEngine(config);
}

TEST(Integrity, RetriesMaskBitFlipsByteIdentical)
{
    // A flip rate that guarantees rejected crossings over a few MB but
    // stays far from the retry budget: faults are detected (CRC), the
    // crossing repeats, and the restored bytes never see the damage.
    sim::FaultConfig faults;
    faults.bit_flip_rate_per_byte = 2e-6;
    sim::FaultInjector injector(faults);
    const CdmaEngine engine = makeFaultyEngine(&injector);
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.35, 4 << 20, 71);

    SpillArena arena;
    TransferIntegrity integrity;
    bool identical = true;
    for (int round = 0; round < 4; ++round) {
        const StatusOr<SpilledOffload> spilled =
            transfers.offloadInto(input, arena);
        ASSERT_TRUE(spilled.ok()) << spilled.status().toString();
        integrity.accumulate(spilled->integrity);
        const StatusOr<PrefetchResult> restored =
            transfers.prefetch(arena, spilled->ticket);
        ASSERT_TRUE(restored.ok()) << restored.status().toString();
        integrity.accumulate(restored->integrity);
        identical = identical &&
            restored->data == ByteVec(input.begin(), input.end());
        arena.release(spilled->ticket);
    }

    EXPECT_TRUE(identical);
    EXPECT_GT(integrity.retries, 0u);
    EXPECT_GT(integrity.crc_failures, 0u);
    EXPECT_GT(integrity.attempts, integrity.retries);
    EXPECT_GT(integrity.failed_wire_bytes, 0u);
}

TEST(Integrity, FaultSequenceIsDeterministicFromSeed)
{
    const auto input = makeInput(0.4, 1 << 20, 72);
    // Hot enough that the seed sees faults, cool enough that no shard
    // can plausibly burn the whole default retry budget.
    sim::FaultConfig faults;
    faults.bit_flip_rate_per_byte = 2e-6;

    auto roundTrip = [&](TransferIntegrity &integrity) {
        sim::FaultInjector injector(faults);
        const CdmaEngine engine = makeFaultyEngine(&injector);
        const TransferEngine transfers(engine);
        SpillArena arena;
        const StatusOr<SpilledOffload> spilled =
            transfers.offloadInto(input, arena);
        ASSERT_TRUE(spilled.ok());
        integrity.accumulate(spilled->integrity);
        const StatusOr<PrefetchResult> restored =
            transfers.prefetch(arena, spilled->ticket);
        ASSERT_TRUE(restored.ok());
        integrity.accumulate(restored->integrity);
    };

    TransferIntegrity a, b;
    roundTrip(a);
    roundTrip(b);
    EXPECT_EQ(a.attempts, b.attempts);
    EXPECT_EQ(a.retries, b.retries);
    EXPECT_EQ(a.crc_failures, b.crc_failures);
    EXPECT_EQ(a.link_faults, b.link_faults);
    EXPECT_EQ(a.failed_wire_bytes, b.failed_wire_bytes);
}

TEST(Integrity, RepeatedFaultsDegradeShardsToRawFraming)
{
    // Truncation-heavy link: shards hit raw_fallback_after and re-frame
    // as raw bytes (the robustness analogue of store-raw). A generous
    // attempt budget keeps exhaustion out of the picture; the restored
    // bytes must still be identical because raw-framed shards memcpy.
    sim::FaultConfig faults;
    faults.truncate_rate = 0.5;
    sim::FaultInjector injector(faults);
    RetryPolicy retry;
    retry.max_attempts = 64;
    retry.raw_fallback_after = 2;
    const CdmaEngine engine = makeFaultyEngine(&injector, retry);
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.3, 1 << 20, 73);

    SpillArena arena;
    const StatusOr<SpilledOffload> spilled =
        transfers.offloadInto(input, arena);
    ASSERT_TRUE(spilled.ok()) << spilled.status().toString();
    EXPECT_GT(spilled->integrity.degraded_shards, 0u);
    EXPECT_GT(spilled->integrity.link_faults, 0u);

    // Degraded shards carry raw framing in the arena...
    bool saw_raw_framed = false;
    for (size_t s = 0; s < arena.shardCount(spilled->ticket); ++s) {
        const SpillShardView view = arena.shard(spilled->ticket, s);
        if (view.raw_framed) {
            saw_raw_framed = true;
            EXPECT_EQ(view.payload.size(), view.raw_bytes);
        }
    }
    EXPECT_TRUE(saw_raw_framed);

    // ...and the prefetch side restores them byte-identical.
    const StatusOr<PrefetchResult> restored =
        transfers.prefetch(arena, spilled->ticket);
    ASSERT_TRUE(restored.ok()) << restored.status().toString();
    EXPECT_EQ(restored->data, ByteVec(input.begin(), input.end()));
    arena.release(spilled->ticket);
}

TEST(Integrity, DeadLinkExhaustsOffloadRetryBudget)
{
    sim::FaultConfig faults;
    faults.link_failure_rate = 1.0;
    sim::FaultInjector injector(faults);
    const CdmaEngine engine = makeFaultyEngine(&injector);
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.4, 1 << 18, 74);

    SpillArena arena;
    const StatusOr<SpilledOffload> spilled =
        transfers.offloadInto(input, arena);
    ASSERT_FALSE(spilled.ok());
    EXPECT_EQ(spilled.status().code(), StatusCode::RetryExhausted)
        << spilled.status().toString();
    // The failed spill released its partially filled ticket.
    EXPECT_EQ(arena.stats().live_buffers, 0u);
}

TEST(Integrity, DeadLinkExhaustsPrefetchRetryBudget)
{
    // Spill through a clean engine, prefetch through a dead link: the
    // prefetch direction owns its own fault process and must exhaust.
    CdmaConfig clean_config;
    clean_config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine clean(clean_config);
    const auto input = makeInput(0.4, 1 << 18, 75);
    SpillArena arena;
    const StatusOr<SpilledOffload> spilled =
        TransferEngine(clean).offloadInto(input, arena);
    ASSERT_TRUE(spilled.ok());

    sim::FaultConfig faults;
    faults.link_failure_rate = 1.0;
    sim::FaultInjector injector(faults);
    const CdmaEngine faulty = makeFaultyEngine(&injector);
    const StatusOr<PrefetchResult> restored =
        TransferEngine(faulty).prefetch(arena, spilled->ticket);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::RetryExhausted)
        << restored.status().toString();

    // The pristine copy is still in the arena: a healthy link (or a
    // recovered one) can still bring it back.
    const StatusOr<PrefetchResult> recovered =
        TransferEngine(clean).prefetch(arena, spilled->ticket);
    ASSERT_TRUE(recovered.ok());
    EXPECT_EQ(recovered->data, ByteVec(input.begin(), input.end()));
    arena.release(spilled->ticket);
}

TEST(Integrity, TamperedStoredShardFailsCrcVerification)
{
    // Corrupt a stored shard byte in host memory (spilled-state rot
    // rather than a wire fault): the prefetch-side CRC check must
    // reject it before any decode runs.
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const TransferEngine transfers(engine);
    const auto input = makeInput(0.4, 1 << 18, 76);
    SpillArena arena;
    const StatusOr<SpilledOffload> spilled =
        transfers.offloadInto(input, arena);
    ASSERT_TRUE(spilled.ok());

    const SpillShardView view = arena.shard(spilled->ticket, 0);
    ASSERT_FALSE(view.payload.empty());
    const_cast<uint8_t &>(view.payload[view.payload.size() / 2]) ^= 0x20;

    const StatusOr<PrefetchResult> restored =
        transfers.prefetch(arena, spilled->ticket);
    ASSERT_FALSE(restored.ok());
    EXPECT_EQ(restored.status().code(), StatusCode::IntegrityError)
        << restored.status().toString();
    arena.release(spilled->ticket);
}

TEST(Integrity, MalformedStoredFramingIsRejectedBeforeExpansion)
{
    // SpillArena::appendShard stores whatever framing its caller wrote,
    // and a CRC computed over a bad shard's own payload still matches.
    // Each shape below re-frames a genuine one-window shard and appends
    // it to a fresh 4096-byte spill; the prefetch drain must turn
    // framing that would copy past the output, slice past the payload
    // or decode outside the spill into Status::corrupt.
    CdmaConfig config;
    config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine engine(config);
    const TransferEngine transfers(engine);
    const uint64_t window = engine.config().compression.window_bytes;
    const auto input = makeInput(0.4, window, 77);

    SpillArena source;
    const StatusOr<SpilledOffload> spilled =
        transfers.offloadInto(input, source);
    ASSERT_TRUE(spilled.ok());
    ASSERT_EQ(source.shardCount(spilled->ticket), 1u);
    const SpillShardView genuine = source.shard(spilled->ticket, 0);
    ASSERT_EQ(genuine.window_sizes.size(), 1u);

    struct Shape {
        const char *name;
        bool raw_framed;
        uint64_t first_window;
        ByteVec payload;
        std::vector<uint32_t> window_sizes;
        StatusCode expect;
    };
    const ByteVec zvc(genuine.payload.begin(), genuine.payload.end());
    const auto zvc_bytes = static_cast<uint32_t>(zvc.size());
    ByteVec doubled(input.begin(), input.end());
    doubled.insert(doubled.end(), input.begin(), input.end());
    const std::vector<Shape> shapes = {
        {"genuine shard", false, 0, zvc, {zvc_bytes}, StatusCode::Ok},
        {"raw payload exactly fills its region", true, 0,
         ByteVec(input.begin(), input.end()),
         {static_cast<uint32_t>(window)}, StatusCode::Ok},
        {"raw payload twice the spill", true, 0, doubled,
         {static_cast<uint32_t>(doubled.size())}, StatusCode::Corrupt},
        {"window sizes past the payload", false, 0, zvc,
         {zvc_bytes + 64}, StatusCode::Corrupt},
        {"first window beyond the spill", false, 5, zvc, {zvc_bytes},
         StatusCode::Corrupt},
    };
    for (const Shape &shape : shapes) {
        SpillArena arena;
        const SpillTicket ticket = arena.beginSpill(window, window);
        CompressedShard shard;
        shard.first_window = shape.first_window;
        shard.raw_bytes = window;
        shard.payload = shape.payload;
        shard.window_sizes = shape.window_sizes;
        shard.raw_framed = shape.raw_framed;
        shard.crc32c = activeKernels().crc32(0, shard.payload.data(),
                                             shard.payload.size());
        arena.appendShard(ticket, shard);

        const StatusOr<PrefetchResult> restored =
            transfers.prefetch(arena, ticket);
        if (shape.expect == StatusCode::Ok) {
            ASSERT_TRUE(restored.ok())
                << shape.name << ": " << restored.status().toString();
            EXPECT_EQ(restored->data, ByteVec(input.begin(), input.end()))
                << shape.name;
        } else {
            ASSERT_FALSE(restored.ok()) << shape.name;
            EXPECT_EQ(restored.status().code(), shape.expect)
                << shape.name << ": " << restored.status().toString();
        }
        arena.release(ticket);
    }
    source.release(spilled->ticket);
}

TEST(Integrity, RetryStallIsPricedOnTheTimeline)
{
    // The same spill on a clean and a flip-prone link: the faulty run
    // reports its re-sent bytes and backoff as retry stall, and its
    // pipeline makespan is strictly longer — clean shards price
    // identically, so the difference is entirely fault-attributable.
    const auto input = makeInput(0.35, 4 << 20, 77);

    CdmaConfig clean_config;
    clean_config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine clean(clean_config);
    SpillArena clean_arena;
    const StatusOr<SpilledOffload> clean_spill =
        TransferEngine(clean).offloadInto(input, clean_arena);
    ASSERT_TRUE(clean_spill.ok());
    EXPECT_DOUBLE_EQ(clean_spill->timing.retry_stall_seconds, 0.0);
    EXPECT_DOUBLE_EQ(clean_spill->integrity.retry_stall_seconds, 0.0);
    EXPECT_EQ(clean_spill->integrity.retries, 0u);
    EXPECT_EQ(clean_spill->integrity.attempts,
              static_cast<uint64_t>(clean_spill->shards.size()));

    sim::FaultConfig faults;
    faults.bit_flip_rate_per_byte = 2e-6;
    sim::FaultInjector injector(faults);
    const CdmaEngine faulty = makeFaultyEngine(&injector);
    SpillArena faulty_arena;
    const StatusOr<SpilledOffload> faulty_spill =
        TransferEngine(faulty).offloadInto(input, faulty_arena);
    ASSERT_TRUE(faulty_spill.ok()) << faulty_spill.status().toString();
    ASSERT_GT(faulty_spill->integrity.retries, 0u);
    EXPECT_GT(faulty_spill->timing.retry_stall_seconds, 0.0);
    EXPECT_GT(faulty_spill->timing.overlapped_seconds,
              clean_spill->timing.overlapped_seconds);
    // The stall is part of the wire leg, never larger than it.
    EXPECT_LE(faulty_spill->timing.retry_stall_seconds,
              faulty_spill->timing.wire_seconds + 1e-12);
}

TEST(Integrity, PlanFromRatioFoldsExpectedRetries)
{
    // The analytic path prices the fault process in expectation: no RNG
    // draws, attempts above one crossing per shard, and a longer
    // makespan than the fault-free closed form.
    sim::FaultConfig faults;
    faults.link_failure_rate = 0.2;
    sim::FaultInjector injector(faults);
    const CdmaEngine faulty = makeFaultyEngine(&injector);
    CdmaConfig clean_config;
    clean_config.transfer.timing_mode = TimingMode::Overlapped;
    const CdmaEngine clean(clean_config);

    const uint64_t raw = 64ull << 20;
    const TransferPlan faulty_plan = faulty.planFromRatio("m", raw, 2.5);
    const TransferPlan clean_plan = clean.planFromRatio("m", raw, 2.5);

    // Expectation fold, not sampling: the injector drew nothing.
    EXPECT_EQ(injector.crossingsSampled(), 0u);
    EXPECT_GT(faulty_plan.integrity.attempts,
              2 * faulty_plan.offload.shard_count);
    EXPECT_GT(faulty_plan.integrity.retries, 0u);
    EXPECT_GT(faulty_plan.integrity.failed_wire_bytes, 0u);
    EXPECT_GT(faulty_plan.integrity.retry_stall_seconds, 0.0);
    EXPECT_GT(faulty_plan.offload.overlapped_seconds,
              clean_plan.offload.overlapped_seconds);
    EXPECT_GT(faulty_plan.prefetch.overlapped_seconds,
              clean_plan.prefetch.overlapped_seconds);

    // Fault-free plans keep the seed's integrity surface at zero.
    EXPECT_EQ(clean_plan.integrity.retries, 0u);
    EXPECT_DOUBLE_EQ(clean_plan.integrity.retry_stall_seconds, 0.0);
}

} // namespace
} // namespace cdma
