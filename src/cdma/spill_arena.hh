/**
 * @file
 * Compressed spill arena: owns the compressed activation maps that live
 * in host memory between a layer's forward-pass offload and its
 * backward-pass prefetch. The vDNN flow holds one such buffer per
 * offloaded layer for most of the iteration; materializing each as its
 * own heap-backed CompressedBuffer meant a fresh payload allocation and
 * free per layer per iteration. The arena replaces that churn with
 * bump-allocated, size-classed shard slots: shards stream out of the
 * offload pipeline straight into recycled slots, the slots return to
 * their class free list on release (prefetch), and after the first
 * iteration a steady-state training loop allocates no payload memory at
 * all. High-water-mark statistics expose what a real pinned-host-memory
 * reservation for the spill space would have to be.
 */

#ifndef CDMA_CDMA_SPILL_ARENA_HH
#define CDMA_CDMA_SPILL_ARENA_HH

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "compress/parallel.hh"

namespace cdma {

namespace obs {
class TraceRecorder;
} // namespace obs

/** Opaque reference to one spilled (offloaded) buffer in the arena. */
using SpillTicket = uint32_t;

/** Read view of one stored shard (payload lives in arena slots). */
struct SpillShardView {
    std::span<const uint8_t> payload;        ///< compressed bytes
    std::span<const uint32_t> window_sizes;  ///< per-window payload sizes
    uint64_t first_window = 0; ///< absolute index of the first window
    uint64_t raw_bytes = 0;    ///< uncompressed bytes the shard covers
    uint64_t wire_bytes = 0;   ///< store-raw-floored wire bytes
    /** CRC-32C recorded at compress time; the prefetch side verifies
     *  the bytes it is about to expand against this. */
    uint32_t crc32c = 0;
    /** Shard was degraded to raw framing after repeated transfer
     *  faults (payload is uncompressed source bytes). */
    bool raw_framed = false;
    /** Codec that framed the payload; the prefetch side dispatches the
     *  matching decoder per shard (spills can mix codecs when the
     *  adaptive policy switches between offloads). */
    Codec codec = Codec::Zvc;
};

/** Arena occupancy and recycling statistics. */
struct SpillStats {
    uint64_t live_buffers = 0;       ///< tickets currently outstanding
    uint64_t live_payload_bytes = 0; ///< compressed bytes currently held
    uint64_t live_slot_bytes = 0;    ///< slot bytes currently claimed
    /** Peak concurrent payload bytes (the pinned-reservation number). */
    uint64_t high_water_payload_bytes = 0;
    uint64_t high_water_slot_bytes = 0; ///< peak claimed slot bytes
    uint64_t slab_bytes = 0;        ///< total arena backing reservation
    uint64_t slab_allocations = 0;  ///< slabs ever allocated
    uint64_t stored_buffers = 0;    ///< beginSpill() calls
    uint64_t stored_shards = 0;     ///< shards ever appended
    uint64_t reused_slots = 0;      ///< shard stores served from free lists
};

/**
 * Size-classed bump arena for compressed activation shards.
 *
 * Slots come in power-of-two size classes starting at min_slot_bytes;
 * each class bump-allocates slots out of larger slabs and keeps a free
 * list of released slots, so the second iteration's offloads are served
 * entirely from recycled memory. Not thread-safe: the offload/prefetch
 * schedule is serial per engine (shard *compression* is parallel, but
 * the drain stage that appends shards runs on the calling thread, in
 * order).
 */
class SpillArena
{
  public:
    /** Slot floor; shards smaller than this share the smallest class. */
    static constexpr uint64_t kDefaultMinSlotBytes = 4096;

    explicit SpillArena(uint64_t min_slot_bytes = kDefaultMinSlotBytes);

    /**
     * Open a spill for one buffer of @p original_bytes compressed at
     * @p window_bytes; shards are then appended in stream order. Ticket
     * records are recycled, so steady-state reuse allocates nothing.
     */
    SpillTicket beginSpill(uint64_t original_bytes, uint64_t window_bytes);

    /** Append @p shard's payload + framing into an arena slot. */
    void appendShard(SpillTicket ticket, const CompressedShard &shard);

    /** Uncompressed size of the spilled buffer. */
    uint64_t originalBytes(SpillTicket ticket) const;

    /** Compression window the buffer was cut with. */
    uint64_t windowBytes(SpillTicket ticket) const;

    /** Store-raw-floored wire bytes over all stored shards. */
    uint64_t wireBytes(SpillTicket ticket) const;

    /** Compressed payload bytes over all stored shards. */
    uint64_t payloadBytes(SpillTicket ticket) const;

    /** Stored shard count. */
    size_t shardCount(SpillTicket ticket) const;

    /** View of stored shard @p index (valid until release()). */
    SpillShardView shard(SpillTicket ticket, size_t index) const;

    /** Return the buffer's slots to the free lists; views die with it. */
    void release(SpillTicket ticket);

    /** Occupancy / recycling counters. */
    const SpillStats &stats() const { return stats_; }

  private:
    /** Reference to one slot: size class, slab in class, byte offset. */
    struct SlotRef {
        uint32_t size_class = 0;
        uint32_t slab = 0;
        uint64_t offset = 0;
    };

    struct StoredShard {
        SlotRef slot;
        uint64_t payload_bytes = 0;
        uint64_t raw_bytes = 0;
        uint64_t wire_bytes = 0;
        uint64_t first_window = 0;
        uint64_t window_begin = 0; ///< range into the record's sizes
        uint64_t window_count = 0;
        uint32_t crc32c = 0;       ///< payload CRC from compress time
        bool raw_framed = false;   ///< degraded to raw framing
        Codec codec = Codec::Zvc;  ///< codec that framed the payload
    };

    struct Record {
        bool live = false;
        uint64_t original_bytes = 0;
        uint64_t window_bytes = 0;
        std::vector<uint32_t> window_sizes; ///< all shards, in order
        std::vector<StoredShard> shards;
    };

    /** Slots of one power-of-two size class. */
    struct SizeClass {
        uint64_t slot_bytes = 0;
        uint64_t slots_per_slab = 0;
        uint64_t bump = 0; ///< next unused slot index in the last slab
        std::vector<ByteVec> slabs;
        std::vector<SlotRef> free_list;
    };

    uint32_t classFor(uint64_t bytes) const;
    SlotRef allocateSlot(uint64_t bytes);
    const Record &liveRecord(SpillTicket ticket) const;
    uint8_t *slotData(const SlotRef &ref);
    const uint8_t *slotData(const SlotRef &ref) const;

    uint64_t min_slot_bytes_;
    std::vector<SizeClass> classes_;
    std::vector<Record> records_;
    std::vector<SpillTicket> free_tickets_;
    SpillStats stats_;
};

/** Cross-tier traffic counters of a TieredSpillArena. */
struct TieredSpillStats {
    uint64_t host_capacity_bytes = 0; ///< configured host-tier budget
    uint64_t evictions = 0;           ///< spills pushed down to backing
    uint64_t promotions = 0;          ///< spills read back up to host
    /** Payload bytes written down the host -> SSD edge by evictions. */
    uint64_t ssd_write_bytes = 0;
    /** Payload bytes read back up the SSD -> host edge by promotions. */
    uint64_t ssd_read_bytes = 0;
};

/**
 * Two-tier spill store: a host SpillArena with a payload-byte capacity,
 * backed by an (NVMe-modeled) second arena below it — the storage-side
 * mirror of the topology's host-DRAM -> SSD edge. Spills stream into
 * the host tier exactly like a plain SpillArena (beginSpill /
 * appendShard); seal() marks a spill complete, and whenever the host
 * tier's live payload exceeds the capacity, the oldest sealed spills
 * are evicted to the backing tier FIFO — the same order a training
 * loop's backward pass wants them LAST (forward-pass spill order), so
 * FIFO eviction pushes down the buffers whose prefetch is furthest
 * away. Tickets are stable across tiers; promote() (or the prefetch
 * flow, which calls it) reads an evicted spill back before expansion.
 * Not thread-safe, like SpillArena.
 */
class TieredSpillArena
{
  public:
    /** @p host_capacity_bytes 0 = unlimited (degenerates to one tier). */
    explicit TieredSpillArena(
        uint64_t host_capacity_bytes,
        uint64_t min_slot_bytes = SpillArena::kDefaultMinSlotBytes);

    /** See SpillArena::beginSpill; the spill builds in the host tier. */
    SpillTicket beginSpill(uint64_t original_bytes, uint64_t window_bytes);

    /** See SpillArena::appendShard. May evict other sealed spills. */
    void appendShard(SpillTicket ticket, const CompressedShard &shard);

    /**
     * Mark the spill complete: it becomes eligible for FIFO eviction,
     * and the host tier is brought back under capacity.
     */
    void seal(SpillTicket ticket);

    /** The spill currently lives on the backing (SSD) tier. */
    bool onBackingTier(SpillTicket ticket) const;

    /**
     * Ensure the spill is host-resident, reading it back from the
     * backing tier if evicted (counted in tierStats). Returns the
     * payload bytes that crossed the SSD -> host edge (0 if already
     * resident). Promotion re-enters the FIFO eviction order.
     */
    uint64_t promote(SpillTicket ticket);

    // Read interface, mirroring SpillArena (valid for either tier).
    uint64_t originalBytes(SpillTicket ticket) const;
    uint64_t windowBytes(SpillTicket ticket) const;
    uint64_t wireBytes(SpillTicket ticket) const;
    uint64_t payloadBytes(SpillTicket ticket) const;
    size_t shardCount(SpillTicket ticket) const;
    SpillShardView shard(SpillTicket ticket, size_t index) const;

    /** Release the spill's slots on whichever tier holds them. */
    void release(SpillTicket ticket);

    const SpillArena &hostArena() const { return host_; }
    const SpillArena &backingArena() const { return backing_; }
    const TieredSpillStats &tierStats() const { return tier_stats_; }

    /**
     * Attach a trace recorder: evictions and promotions emit instants
     * on the ("arena", "tier") track, and the host tier's live payload
     * bytes feed an "arena host occupancy" counter track. The arena has
     * no DES timeline, so events ride the recorder's monotonic
     * pseudo-clock (TraceRecorder::tick) — attach only to recorders
     * that carry no real DES timelines.
     */
    void setTrace(obs::TraceRecorder *trace);

  private:
    struct Slot {
        bool live = false;
        bool sealed = false;
        bool backing = false;   ///< which tier holds the payload
        SpillTicket inner = 0;  ///< ticket inside that tier's arena
    };

    const Slot &liveSlot(SpillTicket ticket) const;
    const SpillArena &tierOf(const Slot &slot) const
    {
        return slot.backing ? backing_ : host_;
    }
    /** Evict sealed spills FIFO until the host tier fits the budget.
     *  @p pinned is never evicted in this pass (the spill a promotion
     *  just read back — evicting it again would defeat the readback). */
    void enforceCapacity(SpillTicket pinned = kNoPin);

    static constexpr SpillTicket kNoPin = ~SpillTicket{0};

    SpillArena host_;
    SpillArena backing_;
    uint64_t host_capacity_bytes_;
    std::vector<Slot> slots_;
    std::vector<SpillTicket> free_slots_;
    /** Sealed host-resident spills, oldest first (lazily validated). */
    std::deque<SpillTicket> eviction_fifo_;
    TieredSpillStats tier_stats_;
    obs::TraceRecorder *trace_ = nullptr;
    uint32_t tier_track_ = 0;      ///< ("arena", "tier") instants
    uint32_t occupancy_track_ = 0; ///< host live-payload counter
};

} // namespace cdma

#endif // CDMA_CDMA_SPILL_ARENA_HH
