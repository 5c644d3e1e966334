/**
 * @file
 * End-to-end integrity and fault-tolerance tests: seeded link faults
 * must be detected by the CRC/length framing, masked by bounded retry,
 * and priced on the timeline — with the restored bytes byte-identical
 * to the source in every surviving case. Covers the retry path, the
 * degradation-to-raw-framing path, retry-budget exhaustion in both
 * directions, stored-shard CRC tampering, malformed stored framing,
 * retry-stall pricing on the DES timeline, and the analytic
 * expectation fold in planFromRatio. The fault, tamper and framing
 * cases run at 1, 2 and 4 lanes and must report the same Status,
 * counters and bytes at each.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <initializer_list>
#include <string>
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
makeEngine(unsigned lanes, sim::FaultInjector *injector = nullptr,
           RetryPolicy retry = RetryPolicy{})
{
    CdmaConfig config;
    config.compression.lanes = lanes;
    config.transfer.timing_mode = TimingMode::Overlapped;
    config.transfer.fault_injector = injector;
    config.transfer.retry = retry;
    return CdmaEngine(config);
}

/** What one integrity case observed at one lane count. */
struct Outcome {
    Status status;               ///< the first failure, or ok
    TransferIntegrity integrity; ///< counters of every flow the case ran
    ByteVec data;                ///< the bytes the last prefetch restored
};

void
expectSameOutcome(const Outcome &actual, const Outcome &expected)
{
    EXPECT_EQ(actual.status.code(), expected.status.code());
    EXPECT_EQ(actual.status.message(), expected.status.message());
    const TransferIntegrity &a = actual.integrity;
    const TransferIntegrity &e = expected.integrity;
    EXPECT_EQ(a.attempts, e.attempts);
    EXPECT_EQ(a.retries, e.retries);
    EXPECT_EQ(a.crc_failures, e.crc_failures);
    EXPECT_EQ(a.link_faults, e.link_faults);
    EXPECT_EQ(a.degraded_shards, e.degraded_shards);
    EXPECT_EQ(a.failed_wire_bytes, e.failed_wire_bytes);
    EXPECT_DOUBLE_EQ(a.retry_stall_seconds, e.retry_stall_seconds);
    EXPECT_TRUE(actual.data == expected.data) << "restored bytes differ";
}

/**
 * Run @p scenario at 1, 2 and 4 lanes. The lanes only verify and
 * expand (the fault process is sampled in shard order on the calling
 * thread), so the Status, its message, the integrity counters and the
 * restored bytes must match the one-lane run exactly. Returns the
 * one-lane outcome.
 */
Outcome
sameAtEveryLaneCount(const std::function<Outcome(unsigned)> &scenario)
{
    const Outcome serial = scenario(1);
    for (const unsigned lanes : {2u, 4u}) {
        SCOPED_TRACE(testing::Message() << lanes << " lanes");
        expectSameOutcome(scenario(lanes), serial);
    }
    return serial;
}

/** Offload @p input into @p arena and prefetch it back, folding the
 *  counters and the restored bytes into @p out; returns the first
 *  failure. The ticket is released either way. */
Status
spillAndRestore(const TransferEngine &transfers,
                std::span<const uint8_t> input, SpillArena &arena,
                Outcome &out)
{
    const StatusOr<SpilledOffload> spilled =
        transfers.offloadInto(input, arena);
    if (!spilled.ok())
        return spilled.status();
    out.integrity.accumulate(spilled->integrity);
    const StatusOr<PrefetchResult> restored =
        transfers.prefetch(arena, spilled->ticket);
    arena.release(spilled->ticket);
    if (!restored.ok())
        return restored.status();
    out.integrity.accumulate(restored->integrity);
    out.data = restored->data;
    return Status{};
}

TEST(Integrity, RetriesMaskBitFlipsByteIdentical)
{
    // A flip rate that guarantees rejected crossings over a few MB but
    // stays far from the retry budget: faults are detected (CRC), the
    // crossing repeats, and the restored bytes never see the damage.
    const auto input = makeInput(0.35, 4 << 20, 71);
    const ByteVec expected(input.begin(), input.end());
    const Outcome outcome = sameAtEveryLaneCount([&](unsigned lanes) {
        sim::FaultConfig faults;
        faults.bit_flip_rate_per_byte = 2e-6;
        sim::FaultInjector injector(faults);
        const CdmaEngine engine = makeEngine(lanes, &injector);
        const TransferEngine transfers(engine);
        SpillArena arena;
        Outcome out;
        for (int round = 0; round < 4 && out.status.ok(); ++round) {
            out.status = spillAndRestore(transfers, input, arena, out);
            EXPECT_TRUE(out.data == expected) << "round " << round;
        }
        return out;
    });

    ASSERT_TRUE(outcome.status.ok()) << outcome.status.toString();
    const TransferIntegrity &integrity = outcome.integrity;
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

    auto roundTrip = [&](unsigned lanes) {
        sim::FaultInjector injector(faults);
        const CdmaEngine engine = makeEngine(lanes, &injector);
        const TransferEngine transfers(engine);
        SpillArena arena;
        Outcome out;
        out.status = spillAndRestore(transfers, input, arena, out);
        return out;
    };

    const Outcome first = sameAtEveryLaneCount(roundTrip);
    ASSERT_TRUE(first.status.ok()) << first.status.toString();
    expectSameOutcome(roundTrip(1), first);
}

TEST(Integrity, RepeatedFaultsDegradeShardsToRawFraming)
{
    // Truncation-heavy link: shards hit raw_fallback_after and re-frame
    // as raw bytes (the robustness analogue of store-raw). A generous
    // attempt budget keeps exhaustion out of the picture; the restored
    // bytes must still be identical because raw-framed shards memcpy.
    const auto input = makeInput(0.3, 1 << 20, 73);
    const Outcome outcome = sameAtEveryLaneCount([&](unsigned lanes) {
        sim::FaultConfig faults;
        faults.truncate_rate = 0.5;
        sim::FaultInjector injector(faults);
        RetryPolicy retry;
        retry.max_attempts = 64;
        retry.raw_fallback_after = 2;
        const CdmaEngine engine = makeEngine(lanes, &injector, retry);
        const TransferEngine transfers(engine);

        SpillArena arena;
        Outcome out;
        const StatusOr<SpilledOffload> spilled =
            transfers.offloadInto(input, arena);
        if (!spilled.ok()) {
            out.status = spilled.status();
            return out;
        }
        out.integrity.accumulate(spilled->integrity);

        // Degraded shards carry raw framing in the arena: each was
        // rewritten in place, in the room its compressed form was
        // given, to the source bytes of its windows, with raw window
        // sizes and a CRC re-framed over them...
        const uint64_t window_bytes = engine.config().compression.window_bytes;
        const KernelOps &kernels = engine.compressor().serial().kernels();
        bool saw_raw_framed = false;
        for (size_t s = 0; s < arena.shardCount(spilled->ticket); ++s) {
            const SpillShardView view = arena.shard(spilled->ticket, s);
            if (!view.raw_framed)
                continue;
            saw_raw_framed = true;
            EXPECT_EQ(view.payload.size(), view.raw_bytes);
            if (view.payload.size() != view.raw_bytes)
                continue;
            EXPECT_EQ(0, std::memcmp(view.payload.data(),
                                     input.data() +
                                         view.first_window * window_bytes,
                                     view.payload.size()))
                << "shard " << s;
            uint64_t remaining = view.raw_bytes;
            for (const uint32_t size : view.window_sizes) {
                EXPECT_EQ(size, std::min<uint64_t>(window_bytes, remaining));
                remaining -= std::min<uint64_t>(window_bytes, remaining);
            }
            EXPECT_EQ(view.crc32c,
                      kernels.crc32(0, view.payload.data(),
                                    view.payload.size()));
        }
        EXPECT_TRUE(saw_raw_framed);

        // ...and the prefetch side restores them byte-identical.
        const StatusOr<PrefetchResult> restored =
            transfers.prefetch(arena, spilled->ticket);
        arena.release(spilled->ticket);
        if (!restored.ok()) {
            out.status = restored.status();
            return out;
        }
        out.integrity.accumulate(restored->integrity);
        out.data = restored->data;
        return out;
    });

    ASSERT_TRUE(outcome.status.ok()) << outcome.status.toString();
    EXPECT_GT(outcome.integrity.degraded_shards, 0u);
    EXPECT_GT(outcome.integrity.link_faults, 0u);
    EXPECT_EQ(outcome.data, ByteVec(input.begin(), input.end()));
}

TEST(Integrity, DeadLinkExhaustsOffloadRetryBudget)
{
    const auto input = makeInput(0.4, 1 << 18, 74);
    const Outcome outcome = sameAtEveryLaneCount([&](unsigned lanes) {
        sim::FaultConfig faults;
        faults.link_failure_rate = 1.0;
        sim::FaultInjector injector(faults);
        const CdmaEngine engine = makeEngine(lanes, &injector);
        SpillArena arena;
        Outcome out;
        out.status = TransferEngine(engine).offloadInto(input, arena).status();
        // The failed spill released its partially filled ticket, and
        // with it the room the lanes were compressing into.
        EXPECT_EQ(arena.stats().live_buffers, 0u);
        EXPECT_EQ(arena.stats().live_slot_bytes, 0u);
        EXPECT_EQ(arena.stats().live_payload_bytes, 0u);

        // The same on the tiered store's host tier.
        TieredSpillArena tiered(/*host_capacity_bytes=*/0);
        EXPECT_EQ(TransferEngine(engine).offloadInto(input, tiered)
                      .status()
                      .code(),
                  StatusCode::RetryExhausted);
        EXPECT_EQ(tiered.hostArena().stats().live_buffers, 0u);
        EXPECT_EQ(tiered.hostArena().stats().live_slot_bytes, 0u);
        EXPECT_EQ(tiered.hostArena().stats().live_payload_bytes, 0u);
        return out;
    });
    EXPECT_EQ(outcome.status.code(), StatusCode::RetryExhausted)
        << outcome.status.toString();
}

TEST(Integrity, DeadLinkExhaustsPrefetchRetryBudget)
{
    // Spill through a clean engine, prefetch through a dead link: the
    // prefetch direction owns its own fault process and must exhaust.
    const auto input = makeInput(0.4, 1 << 18, 75);
    const Outcome outcome = sameAtEveryLaneCount([&](unsigned lanes) {
        const CdmaEngine clean = makeEngine(lanes);
        SpillArena arena;
        Outcome out;
        const StatusOr<SpilledOffload> spilled =
            TransferEngine(clean).offloadInto(input, arena);
        if (!spilled.ok()) {
            out.status = spilled.status();
            return out;
        }

        sim::FaultConfig faults;
        faults.link_failure_rate = 1.0;
        sim::FaultInjector injector(faults);
        const CdmaEngine faulty = makeEngine(lanes, &injector);
        out.status =
            TransferEngine(faulty).prefetch(arena, spilled->ticket).status();

        // The pristine copy is still in the arena: a healthy link (or a
        // recovered one) can still bring it back.
        const StatusOr<PrefetchResult> recovered =
            TransferEngine(clean).prefetch(arena, spilled->ticket);
        EXPECT_TRUE(recovered.ok()) << recovered.status().toString();
        if (recovered.ok())
            out.data = recovered->data;
        arena.release(spilled->ticket);
        return out;
    });
    EXPECT_EQ(outcome.status.code(), StatusCode::RetryExhausted)
        << outcome.status.toString();
    EXPECT_EQ(outcome.data, ByteVec(input.begin(), input.end()));
}

/** Flip one byte in the middle of each listed stored shard (spilled-
 *  state rot rather than a wire fault). */
void
tamperShards(SpillArena &arena, SpillTicket ticket,
             std::initializer_list<size_t> shards)
{
    for (const size_t s : shards) {
        const SpillShardView view = arena.shard(ticket, s);
        ASSERT_FALSE(view.payload.empty());
        const_cast<uint8_t &>(view.payload[view.payload.size() / 2]) ^=
            0x20;
    }
}

TEST(Integrity, TamperedStoredShardFailsCrcVerification)
{
    // Corrupt a stored shard byte in host memory: the prefetch-side CRC
    // check must reject it before any decode runs.
    const auto input = makeInput(0.4, 1 << 18, 76);
    const Outcome outcome = sameAtEveryLaneCount([&](unsigned lanes) {
        const CdmaEngine engine = makeEngine(lanes);
        const TransferEngine transfers(engine);
        SpillArena arena;
        Outcome out;
        const StatusOr<SpilledOffload> spilled =
            transfers.offloadInto(input, arena);
        if (!spilled.ok()) {
            out.status = spilled.status();
            return out;
        }
        tamperShards(arena, spilled->ticket, {0});
        out.status = transfers.prefetch(arena, spilled->ticket).status();
        arena.release(spilled->ticket);
        return out;
    });
    EXPECT_EQ(outcome.status.code(), StatusCode::IntegrityError)
        << outcome.status.toString();
}

TEST(Integrity, TwoTamperedShardsReportTheFirstInShardOrder)
{
    // Shards 2 and 9 of a 16-shard spill are both damaged. Under the
    // fan-out a lane can verify shard 9 before shard 2, but the drain
    // reports errors in shard order, so every lane count names shard 2.
    const auto input = makeInput(0.4, 1 << 18, 78);
    const Outcome outcome = sameAtEveryLaneCount([&](unsigned lanes) {
        CdmaConfig config;
        config.compression.lanes = lanes;
        config.transfer.timing_mode = TimingMode::Overlapped;
        config.transfer.shard_bytes = 4 * config.compression.window_bytes;
        const CdmaEngine engine(config);
        const TransferEngine transfers(engine);
        SpillArena arena;
        Outcome out;
        const StatusOr<SpilledOffload> spilled =
            transfers.offloadInto(input, arena);
        if (!spilled.ok()) {
            out.status = spilled.status();
            return out;
        }
        EXPECT_EQ(arena.shardCount(spilled->ticket), 16u);
        tamperShards(arena, spilled->ticket, {2, 9});
        out.status = transfers.prefetch(arena, spilled->ticket).status();
        arena.release(spilled->ticket);
        return out;
    });
    EXPECT_EQ(outcome.status.code(), StatusCode::IntegrityError)
        << outcome.status.toString();
    EXPECT_NE(outcome.status.message().find("spilled shard 2 CRC mismatch"),
              std::string::npos)
        << outcome.status.toString();
}

TEST(Integrity, MalformedStoredFramingIsRejectedBeforeExpansion)
{
    // SpillArena::appendShard stores whatever framing its caller wrote,
    // and a CRC computed over a bad shard's own payload still matches.
    // Each shape below re-frames a genuine one-window shard and appends
    // it to a fresh spill of one or two windows; the prefetch must turn
    // framing that would copy past the output, slice past the payload,
    // decode outside the spill, leave part of the spill unwritten or
    // write one window twice into Status::corrupt — before it samples
    // a single crossing.
    const CdmaEngine reference = makeEngine(1);
    const uint64_t window = reference.config().compression.window_bytes;
    const auto input = makeInput(0.4, window, 77);

    SpillArena source;
    const StatusOr<SpilledOffload> spilled =
        TransferEngine(reference).offloadInto(input, source);
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
        uint64_t spill_windows = 1; ///< windows the spill declares
        int copies = 1;             ///< times the shard is appended
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
        {"only shard of a two-window spill frames window 0", false, 0,
         zvc, {zvc_bytes}, StatusCode::Corrupt, 2},
        {"two-window spill frames window 0 twice", false, 0, zvc,
         {zvc_bytes}, StatusCode::Corrupt, 2, 2},
    };
    for (const Shape &shape : shapes) {
        SCOPED_TRACE(shape.name);
        const Outcome outcome = sameAtEveryLaneCount([&](unsigned lanes) {
            // A fault process that never damages anything still counts
            // the crossings it samples.
            sim::FaultInjector injector(sim::FaultConfig{});
            const CdmaEngine engine = makeEngine(lanes, &injector);
            SpillArena arena;
            const SpillTicket ticket =
                arena.beginSpill(shape.spill_windows * window, window);
            CompressedShard shard;
            shard.first_window = shape.first_window;
            shard.raw_bytes = window;
            shard.payload = shape.payload;
            shard.window_sizes = shape.window_sizes;
            shard.raw_framed = shape.raw_framed;
            shard.crc32c = activeKernels().crc32(0, shard.payload.data(),
                                                 shard.payload.size());
            for (int copy = 0; copy < shape.copies; ++copy) {
                shard.index = static_cast<uint64_t>(copy);
                arena.appendShard(ticket, shard);
            }

            Outcome out;
            const StatusOr<PrefetchResult> restored =
                TransferEngine(engine).prefetch(arena, ticket);
            out.status = restored.status();
            if (restored.ok()) {
                out.integrity = restored->integrity;
                out.data = restored->data;
            }
            EXPECT_EQ(injector.crossingsSampled(),
                      restored.ok() ? 1u : 0u);
            arena.release(ticket);
            return out;
        });
        EXPECT_EQ(outcome.status.code(), shape.expect)
            << outcome.status.toString();
        if (shape.expect == StatusCode::Ok) {
            EXPECT_EQ(outcome.data, ByteVec(input.begin(), input.end()));
        }
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

    const CdmaEngine clean = makeEngine(1);
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
    const CdmaEngine faulty = makeEngine(1, &injector);
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
    const CdmaEngine faulty = makeEngine(1, &injector);
    const CdmaEngine clean = makeEngine(1);

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
