/**
 * @file
 * Compressed spill arena: owns the compressed activation maps that live
 * in host memory between a layer's forward-pass offload and its
 * backward-pass prefetch. The vDNN flow holds one such buffer per
 * offloaded layer for most of the iteration; materializing each as its
 * own heap-backed CompressedBuffer meant a fresh payload allocation and
 * free per layer per iteration. The arena replaces that churn with
 * bump-allocated, size-classed rooms that return to their class free
 * list on release (prefetch), so after the first iteration a
 * steady-state training loop allocates no payload memory at all.
 *
 * A room is the compression destination, as the paper's engine writes
 * compressed lines straight to their destination (Section V): the
 * offload reserves one room per spill, sized for every window's worst
 * case, and the compression lanes write their shards into it in place
 * (ParallelCompressor::compressShardsInto). A committed shard is
 * (room, offset, bytes) plus its framing; a spill may own several
 * rooms and release() frees each. Rooms are carved from anonymous
 * mappings and never zero-filled, and a layer's room comes back LIFO
 * on the next iteration, so only written bytes become resident (the
 * room is sized for the worst case; the payload is usually far
 * smaller). appendShard() is reserve + one copy + commit, and a tier
 * move reserves one exact-size room and copies each shard once.
 * Occupancy and capacity count committed payload bytes; the high-water
 * marks expose what a real pinned-host-memory reservation for the
 * spill space would have to be.
 */

#ifndef CDMA_CDMA_SPILL_ARENA_HH
#define CDMA_CDMA_SPILL_ARENA_HH

#include <cstdint>
#include <deque>
#include <memory>
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

/**
 * A room reserved in a spill: payload bytes and framing entries that a
 * writer fills in place before committing shards into them. Neither is
 * initialized. The bytes stay valid until the spill is released or
 * moved to another tier; the framing entries until the next
 * reserveRoom() on the same spill.
 */
struct SpillRoom {
    uint32_t id = 0;                  ///< room index within the spill
    std::span<uint8_t> bytes;         ///< the room's payload bytes
    std::span<uint32_t> window_sizes; ///< framing entries reserved with it
    uint64_t window_begin = 0; ///< spill-wide index of window_sizes[0]
};

/** A shard whose payload and framing already sit in its spill's room. */
struct ShardCommit {
    uint32_t room = 0;          ///< SpillRoom::id holding the payload
    uint64_t offset = 0;        ///< payload start in the room
    uint64_t payload_bytes = 0; ///< payload length
    uint64_t window_begin = 0;  ///< spill-wide index of its framing
    uint64_t window_count = 0;  ///< framing entries (windows) it covers
    uint64_t first_window = 0;  ///< absolute index of the first window
    uint64_t raw_bytes = 0;     ///< uncompressed bytes the shard covers
    uint32_t crc32c = 0;        ///< payload CRC from compress time
    bool raw_framed = false;    ///< degraded to raw framing
    Codec codec = Codec::Zvc;   ///< codec that framed the payload
};

/** Arena occupancy and recycling statistics. */
struct SpillStats {
    uint64_t live_buffers = 0;       ///< tickets currently outstanding
    uint64_t live_payload_bytes = 0; ///< committed bytes currently held
    uint64_t live_slot_bytes = 0;    ///< room bytes currently claimed
    /** Peak concurrent payload bytes (the pinned-reservation number). */
    uint64_t high_water_payload_bytes = 0;
    uint64_t high_water_slot_bytes = 0; ///< peak claimed room bytes
    uint64_t slab_bytes = 0;        ///< total arena backing reservation
    uint64_t slab_allocations = 0;  ///< slabs ever allocated
    uint64_t stored_buffers = 0;    ///< beginSpill() calls
    uint64_t stored_shards = 0;     ///< shards ever committed
    uint64_t reserved_rooms = 0;    ///< nonempty rooms ever reserved
    uint64_t reused_slots = 0;      ///< rooms served from free lists
};

/**
 * Size-classed bump arena for compressed activation shards.
 *
 * Rooms come in power-of-two size classes starting at min_slot_bytes;
 * each class bump-allocates rooms out of larger slabs and keeps a free
 * list of released rooms, so the second iteration's offloads are served
 * entirely from recycled memory. Not thread-safe: every call comes from
 * the calling thread, in order. The compression lanes only write into
 * the bytes and framing entries of a room the caller reserved.
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

    /**
     * Reserve a room of @p bytes uninitialized payload bytes and
     * @p windows framing entries in the spill. Writers fill both in
     * place (any thread, disjoint regions) and commitShard() records
     * each shard; the room stays the spill's until release().
     */
    SpillRoom reserveRoom(SpillTicket ticket, uint64_t bytes,
                          uint64_t windows);

    /** Record a shard already written into one of the spill's rooms. */
    void commitShard(SpillTicket ticket, const ShardCommit &shard);

    /** Append @p shard's payload + framing: a room of its exact size,
     *  one copy, and a commit. */
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

    /** Return the buffer's rooms to the free lists; views die with it. */
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

    /** One room of a spill; a zero-byte room claims no slot. */
    struct Room {
        SlotRef slot;
        uint64_t bytes = 0;
    };

    struct StoredShard {
        ShardCommit at;
        uint64_t wire_bytes = 0; ///< store-raw-floored, from the framing
    };

    struct Record {
        bool live = false;
        uint64_t original_bytes = 0;
        uint64_t window_bytes = 0;
        std::vector<uint32_t> window_sizes; ///< every room's framing
        std::vector<Room> rooms;
        std::vector<StoredShard> shards;
    };

    /** Unmaps a slab of @p bytes. */
    struct SlabUnmap {
        uint64_t bytes = 0;
        void operator()(uint8_t *slab) const;
    };
    /**
     * Anonymous pages straight from the OS: a room's bytes become
     * resident only where a writer touches them. A heap block could
     * hand back pages an earlier allocation already touched.
     */
    using Slab = std::unique_ptr<uint8_t, SlabUnmap>;

    /** Slots of one power-of-two size class. */
    struct SizeClass {
        uint64_t slot_bytes = 0;
        uint64_t slots_per_slab = 0;
        uint64_t bump = 0; ///< next unused slot index in the last slab
        std::vector<Slab> slabs;
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
 * mirror of the topology's host-DRAM -> SSD edge. Spills build in the
 * host tier exactly like in a plain SpillArena (beginSpill, then
 * reserveRoom + commitShard or appendShard); seal() marks a spill
 * complete, and whenever the host tier's live payload exceeds the
 * capacity, the oldest sealed spills are evicted to the backing tier
 * FIFO — the same order a training loop's backward pass wants them
 * LAST (forward-pass spill order), so FIFO eviction pushes down the
 * buffers whose prefetch is furthest away. Each FIFO entry carries the
 * stamp of the seal (or promotion) that queued it, so an entry left by
 * a released spill never matches the spill that recycles its ticket.
 * A tier move reserves one exact-size room on the other tier and
 * copies each shard once. Tickets are stable across tiers; promote()
 * (or the prefetch flow, which calls it) reads an evicted spill back
 * before expansion. Not thread-safe, like SpillArena.
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

    /** See SpillArena::reserveRoom; the room is on the host tier. */
    SpillRoom reserveRoom(SpillTicket ticket, uint64_t bytes,
                          uint64_t windows);

    /** See SpillArena::commitShard. May evict other sealed spills. */
    void commitShard(SpillTicket ticket, const ShardCommit &shard);

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

    /** Release the spill's rooms on whichever tier holds them. */
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
        /** Stamp of the spill's current FIFO entry; 0 = none. */
        uint64_t fifo_stamp = 0;
    };

    /** One eviction-order entry: valid while its stamp matches. */
    struct FifoEntry {
        SpillTicket ticket = 0;
        uint64_t stamp = 0;
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

    /** Queue @p ticket last in eviction order under a fresh stamp. */
    void enqueueForEviction(SpillTicket ticket);

    static constexpr SpillTicket kNoPin = ~SpillTicket{0};

    SpillArena host_;
    SpillArena backing_;
    uint64_t host_capacity_bytes_;
    std::vector<Slot> slots_;
    std::vector<SpillTicket> free_slots_;
    /** Sealed host-resident spills, oldest first (lazily validated). */
    std::deque<FifoEntry> eviction_fifo_;
    uint64_t last_stamp_ = 0; ///< stamps count seals and promotions
    TieredSpillStats tier_stats_;
    obs::TraceRecorder *trace_ = nullptr;
    uint32_t tier_track_ = 0;      ///< ("arena", "tier") instants
    uint32_t occupancy_track_ = 0; ///< host live-payload counter
};

} // namespace cdma

#endif // CDMA_CDMA_SPILL_ARENA_HH
