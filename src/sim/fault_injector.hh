/**
 * @file
 * Deterministic link fault injection for the cDMA transfer model. The
 * paper's DMA engine moves compressed payloads across PCIe; a real link
 * suffers bit errors, truncated TLP streams and transient link-down
 * windows, and a real engine survives them with end-to-end integrity
 * framing plus retry. The injector models those hazards: each wire
 * crossing draws a fault outcome (bit flips with a geometric gap
 * distribution, Bernoulli truncation and link failure) from a seeded
 * xoshiro stream, so every run — and every retry sequence — is exactly
 * reproducible from one seed.
 *
 * The injector is purely a sampler: it never touches payload bytes
 * itself. The TransferEngine applies the sampled outcome to a scratch
 * copy of the wire image, lets the CRC/framing checks discover the
 * damage, and prices the retries on the DES timeline.
 */

#ifndef CDMA_SIM_FAULT_INJECTOR_HH
#define CDMA_SIM_FAULT_INJECTOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"

namespace cdma::sim {

/** Fault process parameters for one simulated link. */
struct FaultConfig {
    /**
     * Expected bit-flip events per payload byte per crossing (a BER
     * aggregated to byte granularity). 1e-6 on a multi-MB transfer
     * yields a handful of flips; 0 disables flips.
     */
    double bit_flip_rate_per_byte = 0.0;
    /** Probability a crossing arrives truncated (partial delivery). */
    double truncate_rate = 0.0;
    /** Probability a crossing is lost outright (transient link down). */
    double link_failure_rate = 0.0;
    /** Seed for the injector's private xoshiro stream. */
    uint64_t seed = 0x5EEDF00Dull;
    /**
     * Cap on flips sampled per crossing — bounds the outcome vector on
     * pathological rates; far above anything a realistic rate draws.
     */
    uint32_t max_flips_per_transfer = 64;
};

/** Sampled damage for one wire crossing of one payload. */
struct FaultOutcome {
    /** Crossing lost before delivery: nothing lands, full retry. */
    bool link_failed = false;
    /** Deliver only the first this-many bytes (no truncation when >=
     *  the payload size). */
    uint64_t truncate_to = 0;
    bool truncated = false;
    /** Byte offsets that take a bit flip (strictly increasing). */
    std::vector<uint64_t> flip_offsets;
    /** XOR mask (exactly one bit set) per flipped byte. */
    std::vector<uint8_t> flip_masks;

    /** True when the crossing delivered the payload unharmed. */
    bool clean() const
    {
        return !link_failed && !truncated && flip_offsets.empty();
    }
};

/**
 * Seeded fault sampler for one link. Not thread-safe: the transfer
 * engine consults it from the (serial) drain stage, one crossing at a
 * time, which also keeps the draw sequence deterministic.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(const FaultConfig &config = FaultConfig());

    /** The configured fault process. */
    const FaultConfig &config() const { return config_; }

    /**
     * Sample the damage for one crossing of @p payload_bytes. Flips are
     * drawn with geometric gaps (each byte independently flips with
     * probability bit_flip_rate_per_byte), so the number of draws is
     * proportional to the number of flips, not the payload size.
     */
    FaultOutcome sample(uint64_t payload_bytes);

    /**
     * Analytic companion for the planning path: expected number of
     * crossings (first try + retries, capped at @p max_attempts) for a
     * payload of @p payload_bytes, under the configured fault process.
     */
    double expectedAttempts(uint64_t payload_bytes,
                            uint32_t max_attempts) const;

    /** Per-crossing failure probability for @p payload_bytes. */
    double failureProbability(uint64_t payload_bytes) const;

    /** Restart the draw sequence (exact replay of a previous run). */
    void reset();

    /** Crossings sampled since construction/reset. */
    uint64_t crossingsSampled() const { return crossings_; }

  private:
    FaultConfig config_;
    Rng rng_;
    uint64_t crossings_ = 0;
};

} // namespace cdma::sim

#endif // CDMA_SIM_FAULT_INJECTOR_HH
