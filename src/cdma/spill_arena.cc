#include "cdma/spill_arena.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/bits.hh"
#include "common/logging.hh"
#include "obs/trace.hh"

namespace cdma {

namespace {

/** Target slab size: small classes share slabs, huge slots get their
 *  own (one mmap-class allocation amortizes many shard stores). */
constexpr uint64_t kTargetSlabBytes = 1ull << 20;

} // namespace

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
    return classes_[ref.size_class].slabs[ref.slab].data() + ref.offset;
}

const uint8_t *
SpillArena::slotData(const SlotRef &ref) const
{
    return classes_[ref.size_class].slabs[ref.slab].data() + ref.offset;
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
        cls.slabs.emplace_back();
        cls.slabs.back().resize(cls.slot_bytes * cls.slots_per_slab);
        cls.bump = 0;
        ++stats_.slab_allocations;
        stats_.slab_bytes += cls.slot_bytes * cls.slots_per_slab;
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
    record.shards.clear();
    ++stats_.stored_buffers;
    ++stats_.live_buffers;
    return ticket;
}

void
SpillArena::appendShard(SpillTicket ticket, const CompressedShard &shard)
{
    liveRecord(ticket); // asserts the ticket is live
    Record &record = records_[ticket];

    StoredShard stored;
    stored.payload_bytes = shard.payload.size();
    stored.raw_bytes = shard.raw_bytes;
    stored.wire_bytes = shard.effectiveBytes(record.window_bytes);
    stored.first_window = shard.first_window;
    stored.window_begin = record.window_sizes.size();
    stored.window_count = shard.window_sizes.size();
    stored.crc32c = shard.crc32c;
    stored.raw_framed = shard.raw_framed;
    stored.codec = shard.codec;
    if (stored.payload_bytes > 0) {
        stored.slot = allocateSlot(stored.payload_bytes);
        std::memcpy(slotData(stored.slot), shard.payload.data(),
                    stored.payload_bytes);
    }
    record.window_sizes.insert(record.window_sizes.end(),
                               shard.window_sizes.begin(),
                               shard.window_sizes.end());
    record.shards.push_back(stored);
    ++stats_.stored_shards;
    stats_.live_payload_bytes += stored.payload_bytes;
    stats_.high_water_payload_bytes = std::max(
        stats_.high_water_payload_bytes, stats_.live_payload_bytes);
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
        total += shard.payload_bytes;
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
    const StoredShard &stored = record.shards[index];
    SpillShardView view;
    if (stored.payload_bytes > 0) {
        view.payload = std::span<const uint8_t>(slotData(stored.slot),
                                                stored.payload_bytes);
    }
    view.window_sizes = std::span<const uint32_t>(
        record.window_sizes.data() + stored.window_begin,
        stored.window_count);
    view.first_window = stored.first_window;
    view.raw_bytes = stored.raw_bytes;
    view.wire_bytes = stored.wire_bytes;
    view.crc32c = stored.crc32c;
    view.raw_framed = stored.raw_framed;
    view.codec = stored.codec;
    return view;
}

void
SpillArena::release(SpillTicket ticket)
{
    liveRecord(ticket); // asserts the ticket is live
    Record &record = records_[ticket];
    for (const StoredShard &stored : record.shards) {
        if (stored.payload_bytes > 0) {
            classes_[stored.slot.size_class].free_list.push_back(
                stored.slot);
            stats_.live_slot_bytes -=
                classes_[stored.slot.size_class].slot_bytes;
        }
        stats_.live_payload_bytes -= stored.payload_bytes;
    }
    record.live = false;
    --stats_.live_buffers;
    free_tickets_.push_back(ticket);
}

namespace {

/** Re-stream every shard of @p src's spill into @p dst (the tiers
 *  share no slabs, so tier moves are byte copies through a rebuilt
 *  CompressedShard). Returns the destination ticket. */
SpillTicket
copySpill(const SpillArena &src, SpillTicket src_ticket, SpillArena &dst)
{
    const SpillTicket dst_ticket = dst.beginSpill(
        src.originalBytes(src_ticket), src.windowBytes(src_ticket));
    const size_t shards = src.shardCount(src_ticket);
    CompressedShard shard;
    for (size_t i = 0; i < shards; ++i) {
        const SpillShardView view = src.shard(src_ticket, i);
        shard.index = i;
        shard.first_window = view.first_window;
        shard.raw_bytes = view.raw_bytes;
        shard.payload.assign(view.payload.begin(), view.payload.end());
        shard.window_sizes.assign(view.window_sizes.begin(),
                                  view.window_sizes.end());
        shard.crc32c = view.crc32c;
        shard.raw_framed = view.raw_framed;
        shard.codec = view.codec;
        dst.appendShard(dst_ticket, shard);
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
    return ticket;
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
    eviction_fifo_.push_back(ticket);
    enforceCapacity();
}

void
TieredSpillArena::enforceCapacity(SpillTicket pinned)
{
    if (host_capacity_bytes_ == 0)
        return;
    std::deque<SpillTicket> skipped;
    while (host_.stats().live_payload_bytes > host_capacity_bytes_ &&
           !eviction_fifo_.empty()) {
        const SpillTicket ticket = eviction_fifo_.front();
        eviction_fifo_.pop_front();
        if (ticket == pinned) {
            // Keep its place in the order for the NEXT pass.
            skipped.push_back(ticket);
            continue;
        }
        // Entries go stale when their spill is released; validate
        // lazily instead of erasing mid-deque.
        Slot &slot = slots_[ticket];
        if (!slot.live || slot.backing || !slot.sealed)
            continue;
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
    for (auto it = skipped.rbegin(); it != skipped.rend(); ++it)
        eviction_fifo_.push_front(*it);
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
    // Back in the host tier, back in eviction order (its stale FIFO
    // entry, if any, was consumed when it was first evicted). The
    // promoted spill itself is pinned through this pass — the whole
    // point of the readback is to read it next.
    eviction_fifo_.push_back(ticket);
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
