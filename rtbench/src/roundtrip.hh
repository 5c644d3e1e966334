/**
 * @file
 * The measured round trip: whole training iterations of activation maps
 * through the real offload -> spill arena -> prefetch path, driven only
 * through the public API of src/ (TransferEngine, SpillArena /
 * TieredSpillArena, CodecPolicyEngine). One iteration is vDNN's
 * offload-all schedule run as a closed loop from one caller thread:
 * every layer's offloadInto in forward order, then prefetch, a byte
 * compare and release in reverse order.
 *
 * Layers are measured from outside: spans around the public calls an
 * iteration makes, and a stage pass that re-times each call's component
 * functions (compress, arena append/read, CRC, expand, the duplex DES,
 * the policy) on the same bytes.
 */

#ifndef RTBENCH_ROUNDTRIP_HH
#define RTBENCH_ROUNDTRIP_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "cdma/spill_arena.hh"
#include "cdma/transfer_engine.hh"
#include "compress/policy.hh"
#include "workloads.hh"

namespace rtbench {

/** Round trips attempted and the ways they failed. */
struct Tally {
    /** Layer round trips (offload + prefetch, or a stage-pass replay). */
    uint64_t attempted = 0;
    /** Non-OK Status from offloadInto / prefetch, or a failed stage-pass
     *  CRC or decode. */
    uint64_t bad_status = 0;
    /** Restored maps whose bytes differ from their source. */
    uint64_t mismatched = 0;

    uint64_t failed() const { return bad_status + mismatched; }
};

/** Seconds on the steady clock since the first call. */
double now();

/** The public calls an iteration makes, one span each when traced. */
enum class Call : uint8_t { Offload, Prefetch, Release, Decide, Observe };
inline constexpr size_t kCalls = 5;

/** Span name of @p call (the public function it times). */
const char *callName(Call call);

/**
 * In-memory spans of traced iterations. Each iteration's call times are
 * folded into per-call sums (one sample per traced iteration); the raw
 * spans of the first few traced iterations are kept for export.
 */
class SpanRecorder
{
  public:
    struct Span {
        Call call;
        uint32_t layer;
        uint64_t iteration;
        double begin_s;
        double end_s;
    };

    SpanRecorder(size_t layers, size_t export_iterations);

    void beginIteration(uint64_t iteration);
    void record(Call call, size_t layer, double begin_s, double end_s);
    void addPrefetchFaults(uint64_t faults) { faults_ += faults; }
    void endIteration();

    /** Seconds spent in @p call per traced iteration. */
    const std::vector<double> &callSeconds(Call call) const
    {
        return per_call_[static_cast<size_t>(call)];
    }
    /** Minor faults taken inside prefetch calls, per traced iteration. */
    const std::vector<double> &prefetchFaults() const { return faults_per_; }
    /** Spans of the first export_iterations traced iterations. */
    const std::vector<Span> &exported() const { return exported_; }

  private:
    size_t export_iterations_;
    size_t traced_ = 0;
    uint64_t iteration_ = 0;
    std::array<double, kCalls> sums_{};
    uint64_t faults_ = 0;
    std::array<std::vector<double>, kCalls> per_call_;
    std::vector<double> faults_per_;
    std::vector<Span> exported_;
};

/**
 * Deterministic figures of one counting pass: a fixed number of whole
 * cycles from a fresh engine, arena and policy, measured over the last
 * cycle. Every field must repeat exactly across setups of one seed.
 */
struct CountingResult {
    size_t iterations = 0; ///< iterations in the measured cycle
    uint64_t raw_bytes = 0;
    uint64_t wire_bytes = 0;
    std::vector<uint64_t> layer_raw;  ///< per layer, over the cycle
    std::vector<uint64_t> layer_wire; ///< per layer, over the cycle
    /** Codec each offload used, [iteration in cycle][layer]. */
    std::vector<std::vector<cdma::Codec>> codecs;
    /** Raw bytes each codec carried, indexed by cdma::Codec. */
    std::array<uint64_t, 4> codec_raw_bytes{};
    uint64_t des_shards = 0; ///< shards both directions priced
    uint64_t switches = 0;   ///< policy codec switches
    uint64_t evictions = 0;
    uint64_t promotions = 0;
    uint64_t tier_bytes = 0; ///< payload bytes across the tier edge
    uint64_t alloc_calls = 0;
    uint64_t alloc_bytes = 0;
    uint64_t high_water_bytes = 0; ///< host arena payload high water
    double compression_ratio = 0.0;
    double sim_speedup = 0.0;
    double sim_stall_share = 0.0;
    double sim_pcie_utilization = 0.0;

    bool operator==(const CountingResult &) const = default;
};

/** How warm-up ended. */
struct WarmupResult {
    size_t iterations = 0;
    bool settled = false; ///< slabs stopped and faults settled in time
};

/** Iteration wall clocks of the untraced timed loop. */
struct TimedResult {
    std::vector<double> iteration_seconds;
};

/** Alternating untraced and traced blocks of iterations. */
struct TracedResult {
    std::vector<double> untraced_seconds;
    std::vector<double> traced_seconds;
    SpanRecorder spans;
    uint64_t slabs_allocated = 0;
};

/** Stage-pass call times, seconds per iteration (one sample per
 *  replayed iteration). */
struct StageResult {
    std::vector<double> compress;
    std::vector<double> append;
    std::vector<double> des_offload;
    std::vector<double> read;
    std::vector<double> crc;
    std::vector<double> expand;
    std::vector<double> des_prefetch;
    std::vector<double> decide;
    std::vector<double> observe;
};

/**
 * One workload's engine, spill store and policy, and the loops that
 * drive them. @p Arena is cdma::SpillArena or cdma::TieredSpillArena.
 */
template <typename Arena>
class Harness
{
  public:
    Harness(const WorkloadSpec &spec, const Inputs &inputs, Tally &tally);
    ~Harness();
    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    /** Run @p cycles whole cycles from fresh state; measure the last. */
    CountingResult countingPass(size_t cycles);

    /** Iterate whole cycles until the arena stops allocating slabs and
     *  minor faults settle, within [min_seconds, max_seconds]. */
    WarmupResult warmUp(double min_seconds, double max_seconds);

    /** Round-trip one map, corrupt one restored byte, and check that
     *  both the compare and the failure count trip. */
    bool selfCheck();

    /** Untraced iterations for @p seconds (whole cycles). */
    TimedResult timedLoop(double seconds);

    /** Alternating untraced/traced blocks for @p seconds. */
    TracedResult tracedLoop(double seconds, size_t export_iterations);

    /** Re-time the component calls for @p seconds on the same bytes,
     *  with each offload using the codec @p counts recorded. */
    StageResult stagePass(double seconds, const CountingResult &counts);

    /** Compression lanes the engine runs. */
    unsigned lanes() const;

  private:
    void iteration(SpanRecorder *spans, CountingResult *ledger);
    size_t cycle() const { return inputs_.cycle(); }
    size_t layers() const { return inputs_.labels.size(); }

    const WorkloadSpec &spec_;
    const Inputs &inputs_;
    Tally &tally_;
    std::unique_ptr<cdma::CodecPolicyEngine> policy_;
    std::unique_ptr<cdma::CdmaEngine> engine_;
    std::unique_ptr<cdma::TransferEngine> transfer_;
    std::unique_ptr<Arena> arena_;
    std::vector<cdma::SpillTicket> tickets_;
    std::vector<uint8_t> live_;
    std::vector<cdma::PolicyDecision> decisions_;
    uint64_t iteration_ = 0;        ///< iterations run (picks the snapshot)
    double iteration_estimate_ = 0; ///< warm-up median, seconds
};

} // namespace rtbench

#endif // RTBENCH_ROUNDTRIP_HH
