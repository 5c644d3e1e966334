#include "cdma/spill_arena.hh"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <optional>

#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace cdma {

namespace {

/** Target slab size: small classes share slabs, huge slots get their
 *  own (one mmap-class allocation amortizes many shard stores). */
constexpr uint64_t kTargetSlabBytes = 1ull << 20;

} // namespace

void
SpillArena::SlabUnmap::operator()(uint8_t *slab) const
{
    munmap(slab, bytes);
}

SpillArena::SpillArena(uint64_t min_slot_bytes)
    : min_slot_bytes_(std::max<uint64_t>(64, std::bit_ceil(min_slot_bytes)))
{
}

uint32_t
SpillArena::classFor(uint64_t bytes) const
{
    const uint64_t size = std::bit_ceil(std::max(bytes, min_slot_bytes_));
    return static_cast<uint32_t>(std::countr_zero(size) -
                                 std::countr_zero(min_slot_bytes_));
}

uint8_t *
SpillArena::slotData(const SlotRef &ref)
{
    return classes_[ref.size_class].slabs[ref.slab].get() + ref.offset;
}

const uint8_t *
SpillArena::slotData(const SlotRef &ref) const
{
    return classes_[ref.size_class].slabs[ref.slab].get() + ref.offset;
}

SpillArena::SlotRef
SpillArena::allocateSlot(uint64_t bytes)
{
    const uint32_t index = classFor(bytes);
    if (index >= classes_.size())
        classes_.resize(index + 1);
    SizeClass &cls = classes_[index];
    if (cls.slot_bytes == 0) {
        cls.slot_bytes = min_slot_bytes_ << index;
        cls.slots_per_slab =
            std::max<uint64_t>(1, kTargetSlabBytes / cls.slot_bytes);
    }

    if (!cls.free_list.empty()) {
        const SlotRef ref = cls.free_list.back();
        cls.free_list.pop_back();
        ++stats_.reused_slots;
        stats_.live_slot_bytes += cls.slot_bytes;
        stats_.high_water_slot_bytes = std::max(
            stats_.high_water_slot_bytes, stats_.live_slot_bytes);
        return ref;
    }

    if (cls.slabs.empty() || cls.bump == cls.slots_per_slab) {
        const uint64_t slab_bytes = cls.slot_bytes * cls.slots_per_slab;
        void *pages = mmap(nullptr, slab_bytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (pages == MAP_FAILED) {
            panic("spill arena: cannot map a %llu-byte slab",
                  static_cast<unsigned long long>(slab_bytes));
        }
        // Rooms are sized for the worst case and mostly left unwritten;
        // a transparent huge page would make a whole 2 MiB of one
        // resident on its first write. Advisory: failure is harmless.
        madvise(pages, slab_bytes, MADV_NOHUGEPAGE);
        cls.slabs.emplace_back(static_cast<uint8_t *>(pages),
                               SlabUnmap{slab_bytes});
        cls.bump = 0;
        ++stats_.slab_allocations;
        stats_.slab_bytes += slab_bytes;
    }
    SlotRef ref;
    ref.size_class = index;
    ref.slab = static_cast<uint32_t>(cls.slabs.size() - 1);
    ref.offset = cls.bump * cls.slot_bytes;
    ++cls.bump;
    stats_.live_slot_bytes += cls.slot_bytes;
    stats_.high_water_slot_bytes =
        std::max(stats_.high_water_slot_bytes, stats_.live_slot_bytes);
    return ref;
}

SpillTicket
SpillArena::beginSpill(uint64_t original_bytes, uint64_t window_bytes)
{
    CDMA_ASSERT(window_bytes > 0 || original_bytes == 0,
                "spill needs a window size");
    SpillTicket ticket;
    if (!free_tickets_.empty()) {
        ticket = free_tickets_.back();
        free_tickets_.pop_back();
    } else {
        ticket = static_cast<SpillTicket>(records_.size());
        records_.emplace_back();
    }
    Record &record = records_[ticket];
    record.live = true;
    record.original_bytes = original_bytes;
    record.window_bytes = window_bytes;
    record.window_sizes.clear(); // capacity survives ticket recycling
    record.rooms.clear();
    record.shards.clear();
    ++stats_.stored_buffers;
    ++stats_.live_buffers;
    return ticket;
}

SpillRoom
SpillArena::reserveRoom(SpillTicket ticket, uint64_t bytes, uint64_t windows)
{
    liveRecord(ticket); // asserts the ticket is live
    Record &record = records_[ticket];
    Room room;
    room.bytes = bytes;
    if (bytes > 0) {
        room.slot = allocateSlot(bytes);
        ++stats_.reserved_rooms;
    }
    record.rooms.push_back(room);

    SpillRoom out;
    out.id = static_cast<uint32_t>(record.rooms.size() - 1);
    if (bytes > 0)
        out.bytes = std::span<uint8_t>(slotData(room.slot), bytes);
    out.window_begin = record.window_sizes.size();
    record.window_sizes.resize(out.window_begin + windows);
    out.window_sizes = std::span<uint32_t>(
        record.window_sizes.data() + out.window_begin, windows);
    return out;
}

void
SpillArena::commitShard(SpillTicket ticket, const ShardCommit &shard)
{
    liveRecord(ticket); // asserts the ticket is live
    Record &record = records_[ticket];
    CDMA_ASSERT(shard.room < record.rooms.size() &&
                    shard.payload_bytes <= record.rooms[shard.room].bytes &&
                    shard.offset <=
                        record.rooms[shard.room].bytes - shard.payload_bytes,
                "shard of %llu bytes at offset %llu is outside room %u",
                static_cast<unsigned long long>(shard.payload_bytes),
                static_cast<unsigned long long>(shard.offset),
                static_cast<unsigned>(shard.room));
    CDMA_ASSERT(shard.window_begin <= record.window_sizes.size() &&
                    shard.window_count <=
                        record.window_sizes.size() - shard.window_begin,
                "shard framing [%llu, +%llu) is outside the spill's %zu "
                "entries",
                static_cast<unsigned long long>(shard.window_begin),
                static_cast<unsigned long long>(shard.window_count),
                record.window_sizes.size());
    StoredShard stored;
    stored.at = shard;
    stored.wire_bytes = storeRawFlooredBytes(
        std::span<const uint32_t>(
            record.window_sizes.data() + shard.window_begin,
            shard.window_count),
        shard.raw_bytes, record.window_bytes);
    record.shards.push_back(stored);
    ++stats_.stored_shards;
    stats_.live_payload_bytes += shard.payload_bytes;
    stats_.high_water_payload_bytes = std::max(
        stats_.high_water_payload_bytes, stats_.live_payload_bytes);
}

void
SpillArena::appendShard(SpillTicket ticket, const CompressedShard &shard)
{
    const SpillRoom room =
        reserveRoom(ticket, shard.payload.size(), shard.window_sizes.size());
    if (!shard.payload.empty()) {
        std::memcpy(room.bytes.data(), shard.payload.data(),
                    shard.payload.size());
    }
    std::copy(shard.window_sizes.begin(), shard.window_sizes.end(),
              room.window_sizes.begin());
    ShardCommit commit;
    commit.room = room.id;
    commit.payload_bytes = shard.payload.size();
    commit.window_begin = room.window_begin;
    commit.window_count = shard.window_sizes.size();
    commit.first_window = shard.first_window;
    commit.raw_bytes = shard.raw_bytes;
    commit.crc32c = shard.crc32c;
    commit.raw_framed = shard.raw_framed;
    commit.codec = shard.codec;
    commitShard(ticket, commit);
}

const SpillArena::Record &
SpillArena::liveRecord(SpillTicket ticket) const
{
    CDMA_ASSERT(ticket < records_.size() && records_[ticket].live,
                "spill ticket %u is not live",
                static_cast<unsigned>(ticket));
    return records_[ticket];
}

uint64_t
SpillArena::originalBytes(SpillTicket ticket) const
{
    return liveRecord(ticket).original_bytes;
}

uint64_t
SpillArena::windowBytes(SpillTicket ticket) const
{
    return liveRecord(ticket).window_bytes;
}

uint64_t
SpillArena::wireBytes(SpillTicket ticket) const
{
    uint64_t total = 0;
    for (const StoredShard &shard : liveRecord(ticket).shards)
        total += shard.wire_bytes;
    return total;
}

uint64_t
SpillArena::payloadBytes(SpillTicket ticket) const
{
    uint64_t total = 0;
    for (const StoredShard &shard : liveRecord(ticket).shards)
        total += shard.at.payload_bytes;
    return total;
}

size_t
SpillArena::shardCount(SpillTicket ticket) const
{
    return liveRecord(ticket).shards.size();
}

SpillShardView
SpillArena::shard(SpillTicket ticket, size_t index) const
{
    const Record &record = liveRecord(ticket);
    CDMA_ASSERT(index < record.shards.size(),
                "shard %zu out of range (%zu stored)", index,
                record.shards.size());
    const ShardCommit &at = record.shards[index].at;
    SpillShardView view;
    if (at.payload_bytes > 0) {
        view.payload = std::span<const uint8_t>(
            slotData(record.rooms[at.room].slot) + at.offset,
            at.payload_bytes);
    }
    view.window_sizes = std::span<const uint32_t>(
        record.window_sizes.data() + at.window_begin, at.window_count);
    view.first_window = at.first_window;
    view.raw_bytes = at.raw_bytes;
    view.wire_bytes = record.shards[index].wire_bytes;
    view.crc32c = at.crc32c;
    view.raw_framed = at.raw_framed;
    view.codec = at.codec;
    return view;
}

void
SpillArena::release(SpillTicket ticket)
{
    liveRecord(ticket); // asserts the ticket is live
    Record &record = records_[ticket];
    for (const Room &room : record.rooms) {
        if (room.bytes > 0) {
            classes_[room.slot.size_class].free_list.push_back(room.slot);
            stats_.live_slot_bytes -=
                classes_[room.slot.size_class].slot_bytes;
        }
    }
    for (const StoredShard &stored : record.shards)
        stats_.live_payload_bytes -= stored.at.payload_bytes;
    record.live = false;
    --stats_.live_buffers;
    free_tickets_.push_back(ticket);
}

namespace {

/** Copy @p src's spill into @p dst: one exact-size room on the other
 *  tier (the tiers share no slabs), and each shard's payload and
 *  framing copied once from its view. Returns the destination ticket. */
SpillTicket
copySpill(const SpillArena &src, SpillTicket src_ticket, SpillArena &dst)
{
    const SpillTicket dst_ticket = dst.beginSpill(
        src.originalBytes(src_ticket), src.windowBytes(src_ticket));
    const size_t shards = src.shardCount(src_ticket);
    uint64_t windows = 0;
    for (size_t i = 0; i < shards; ++i)
        windows += src.shard(src_ticket, i).window_sizes.size();
    const SpillRoom room =
        dst.reserveRoom(dst_ticket, src.payloadBytes(src_ticket), windows);

    ShardCommit commit;
    commit.room = room.id;
    commit.window_begin = room.window_begin;
    uint32_t *framing = room.window_sizes.data();
    for (size_t i = 0; i < shards; ++i) {
        const SpillShardView view = src.shard(src_ticket, i);
        if (!view.payload.empty()) {
            std::memcpy(room.bytes.data() + commit.offset,
                        view.payload.data(), view.payload.size());
        }
        framing = std::copy(view.window_sizes.begin(),
                            view.window_sizes.end(), framing);
        commit.payload_bytes = view.payload.size();
        commit.window_count = view.window_sizes.size();
        commit.first_window = view.first_window;
        commit.raw_bytes = view.raw_bytes;
        commit.crc32c = view.crc32c;
        commit.raw_framed = view.raw_framed;
        commit.codec = view.codec;
        dst.commitShard(dst_ticket, commit);
        commit.offset += commit.payload_bytes;
        commit.window_begin += commit.window_count;
    }
    return dst_ticket;
}

} // namespace

TieredSpillArena::TieredSpillArena(uint64_t host_capacity_bytes,
                                   uint64_t min_slot_bytes)
    : host_(min_slot_bytes), backing_(min_slot_bytes),
      host_capacity_bytes_(host_capacity_bytes)
{
    tier_stats_.host_capacity_bytes = host_capacity_bytes;
}

void
TieredSpillArena::setTrace(obs::TraceRecorder *trace)
{
    trace_ = trace;
    if (trace_ != nullptr) {
        tier_track_ = trace_->track("arena", "tier");
        occupancy_track_ =
            trace_->counterTrack("arena", "host occupancy bytes");
    }
}

const TieredSpillArena::Slot &
TieredSpillArena::liveSlot(SpillTicket ticket) const
{
    CDMA_ASSERT(ticket < slots_.size() && slots_[ticket].live,
                "tiered spill ticket %u is not live",
                static_cast<unsigned>(ticket));
    return slots_[ticket];
}

SpillTicket
TieredSpillArena::beginSpill(uint64_t original_bytes,
                             uint64_t window_bytes)
{
    SpillTicket ticket;
    if (!free_slots_.empty()) {
        ticket = free_slots_.back();
        free_slots_.pop_back();
    } else {
        ticket = static_cast<SpillTicket>(slots_.size());
        slots_.emplace_back();
    }
    Slot &slot = slots_[ticket];
    slot.live = true;
    slot.sealed = false;
    slot.backing = false;
    slot.inner = host_.beginSpill(original_bytes, window_bytes);
    slot.fifo_stamp = 0;
    return ticket;
}

SpillRoom
TieredSpillArena::reserveRoom(SpillTicket ticket, uint64_t bytes,
                              uint64_t windows)
{
    const Slot &slot = liveSlot(ticket);
    CDMA_ASSERT(!slot.sealed && !slot.backing,
                "cannot reserve room in a sealed spill");
    return host_.reserveRoom(slot.inner, bytes, windows);
}

void
TieredSpillArena::commitShard(SpillTicket ticket, const ShardCommit &shard)
{
    const Slot &slot = liveSlot(ticket);
    CDMA_ASSERT(!slot.sealed && !slot.backing,
                "cannot append to a sealed spill");
    host_.commitShard(slot.inner, shard);
    // As appendShard(): the growing spill may evict sealed neighbours.
    enforceCapacity();
}

void
TieredSpillArena::appendShard(SpillTicket ticket,
                              const CompressedShard &shard)
{
    const Slot &slot = liveSlot(ticket);
    CDMA_ASSERT(!slot.sealed && !slot.backing,
                "cannot append to a sealed spill");
    host_.appendShard(slot.inner, shard);
    // An oversized in-progress spill evicts its sealed neighbours as it
    // grows; it is itself ineligible (not in the FIFO until sealed).
    enforceCapacity();
}

void
TieredSpillArena::seal(SpillTicket ticket)
{
    liveSlot(ticket);
    Slot &slot = slots_[ticket];
    CDMA_ASSERT(!slot.sealed, "spill sealed twice");
    slot.sealed = true;
    enqueueForEviction(ticket);
    enforceCapacity();
}

void
TieredSpillArena::enqueueForEviction(SpillTicket ticket)
{
    slots_[ticket].fifo_stamp = ++last_stamp_;
    eviction_fifo_.push_back(FifoEntry{ticket, last_stamp_});
}

void
TieredSpillArena::enforceCapacity(SpillTicket pinned)
{
    if (host_capacity_bytes_ == 0)
        return;
    // The pinned spill keeps its place in the order for the NEXT pass.
    // Only its latest entry is valid, so one slot holds it (a deque of
    // skipped entries would allocate on every call, i.e. every commit).
    std::optional<FifoEntry> kept;
    while (host_.stats().live_payload_bytes > host_capacity_bytes_ &&
           !eviction_fifo_.empty()) {
        const FifoEntry entry = eviction_fifo_.front();
        eviction_fifo_.pop_front();
        const SpillTicket ticket = entry.ticket;
        // Entries go stale when their spill is released (its ticket may
        // already name a newer spill, which carries a newer stamp) or
        // evicted; validate lazily instead of erasing mid-deque.
        Slot &slot = slots_[ticket];
        if (!slot.live || slot.backing || slot.fifo_stamp != entry.stamp)
            continue;
        if (ticket == pinned) {
            kept = entry;
            continue;
        }
        const uint64_t payload = host_.payloadBytes(slot.inner);
        const SpillTicket moved = copySpill(host_, slot.inner, backing_);
        host_.release(slot.inner);
        slot.inner = moved;
        slot.backing = true;
        ++tier_stats_.evictions;
        tier_stats_.ssd_write_bytes += payload;
        if (trace_ != nullptr) {
            trace_->instant(tier_track_, "evict", trace_->tick(),
                            obs::TraceArgs{{"ticket", ticket},
                                           {"payload_bytes", payload}});
            trace_->counter(occupancy_track_, trace_->tick(),
                            static_cast<double>(
                                host_.stats().live_payload_bytes));
        }
    }
    if (kept)
        eviction_fifo_.push_front(*kept);
}

bool
TieredSpillArena::onBackingTier(SpillTicket ticket) const
{
    return liveSlot(ticket).backing;
}

uint64_t
TieredSpillArena::promote(SpillTicket ticket)
{
    liveSlot(ticket);
    Slot &slot = slots_[ticket];
    if (!slot.backing)
        return 0;
    const uint64_t payload = backing_.payloadBytes(slot.inner);
    const SpillTicket moved = copySpill(backing_, slot.inner, host_);
    backing_.release(slot.inner);
    slot.inner = moved;
    slot.backing = false;
    ++tier_stats_.promotions;
    tier_stats_.ssd_read_bytes += payload;
    if (trace_ != nullptr) {
        trace_->instant(tier_track_, "promote", trace_->tick(),
                        obs::TraceArgs{{"ticket", ticket},
                                       {"payload_bytes", payload}});
        trace_->counter(occupancy_track_, trace_->tick(),
                        static_cast<double>(
                            host_.stats().live_payload_bytes));
    }
    // Back in the host tier, back in eviction order under a fresh
    // stamp (its old entry was consumed when it was evicted). The
    // promoted spill itself is pinned through this pass — the whole
    // point of the readback is to read it next.
    enqueueForEviction(ticket);
    enforceCapacity(ticket);
    return payload;
}

uint64_t
TieredSpillArena::originalBytes(SpillTicket ticket) const
{
    const Slot &slot = liveSlot(ticket);
    return tierOf(slot).originalBytes(slot.inner);
}

uint64_t
TieredSpillArena::windowBytes(SpillTicket ticket) const
{
    const Slot &slot = liveSlot(ticket);
    return tierOf(slot).windowBytes(slot.inner);
}

uint64_t
TieredSpillArena::wireBytes(SpillTicket ticket) const
{
    const Slot &slot = liveSlot(ticket);
    return tierOf(slot).wireBytes(slot.inner);
}

uint64_t
TieredSpillArena::payloadBytes(SpillTicket ticket) const
{
    const Slot &slot = liveSlot(ticket);
    return tierOf(slot).payloadBytes(slot.inner);
}

size_t
TieredSpillArena::shardCount(SpillTicket ticket) const
{
    const Slot &slot = liveSlot(ticket);
    return tierOf(slot).shardCount(slot.inner);
}

SpillShardView
TieredSpillArena::shard(SpillTicket ticket, size_t index) const
{
    const Slot &slot = liveSlot(ticket);
    return tierOf(slot).shard(slot.inner, index);
}

void
TieredSpillArena::release(SpillTicket ticket)
{
    liveSlot(ticket);
    Slot &slot = slots_[ticket];
    (slot.backing ? backing_ : host_).release(slot.inner);
    slot.live = false;
    free_slots_.push_back(ticket);
}

} // namespace cdma
