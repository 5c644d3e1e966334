#include "compress/zvc.hh"

#include <algorithm>
#include <cstring>

#include "common/bits.hh"
#include "common/logging.hh"
#include "compress/kernels/kernels.hh"

namespace cdma {

ZvcCompressor::ZvcCompressor(uint64_t window_bytes,
                             const KernelOps *kernels)
    : Compressor(window_bytes, kernels)
{
}

uint64_t
ZvcCompressor::predictedBytes(uint64_t total_words, uint64_t nonzero_words)
{
    const uint64_t masks = ceilDiv(total_words, kZvcGroupWords);
    return masks * sizeof(uint32_t) + nonzero_words * kWordBytes;
}

uint64_t
ZvcCompressor::compressedBound(uint64_t raw_len) const
{
    // Exact worst case: every word non-zero plus one mask per group plus
    // the raw sub-word tail.
    const uint64_t words = raw_len / kWordBytes;
    return predictedBytes(words, words) + raw_len % kWordBytes;
}

uint64_t
ZvcCompressor::compressWindowTo(std::span<const uint8_t> window,
                                uint8_t *dst) const
{
    const uint64_t full_words = window.size() / kWordBytes;
    const uint64_t tail_bytes = window.size() % kWordBytes;
    const uint8_t *src = window.data();

    // Single pass straight into the caller's room. The mask-and-compact
    // of every 32-word group is one zvcCompactWords call over the whole
    // window — the software mirror of the hardware's prefix-sum shift
    // network (Figure 10a) — which may store whole sub-blocks
    // unconditionally and let the write pointer lag, so the room's
    // worst-case size is also its scratch headroom.
    uint64_t bytes = kernels().zvcCompactWords(src, full_words, dst);

    // Sub-word tail (only possible when the window is not a multiple of 4
    // bytes, e.g. the last window of an oddly sized buffer): stored raw.
    // At most 3 bytes — a plain memcpy inlines, the kernel table's bulk
    // copy would cost an indirect call.
    if (tail_bytes) {
        std::memcpy(dst + bytes, src + full_words * kWordBytes, tail_bytes);
        bytes += tail_bytes;
    }
    return bytes;
}

namespace {

/**
 * The Status for a payload zvcExpandWords rejected: walk the masks the
 * way the kernel did, with no output writes, and report the first
 * group whose mask or words do not fit.
 */
Status
malformedPayloadStatus(std::span<const uint8_t> payload,
                       uint64_t full_words)
{
    size_t cursor = 0;
    for (uint64_t word = 0; word < full_words; word += kZvcGroupWords) {
        const uint64_t group =
            std::min<uint64_t>(kZvcGroupWords, full_words - word);
        if (cursor + sizeof(uint32_t) > payload.size()) {
            return Status::truncated(
                "ZV: payload truncated before mask at byte %zu "
                "(payload %zu bytes)", cursor, payload.size());
        }
        uint32_t mask;
        std::memcpy(&mask, payload.data() + cursor, sizeof(mask));
        cursor += sizeof(mask);
        // Bits beyond a short final group are dropped, as the kernels
        // drop them (the trailing-bytes check flags such a payload).
        if (group < kZvcGroupWords)
            mask &= (1u << group) - 1u;
        const uint64_t present = static_cast<uint64_t>(popcount32(mask));
        if (cursor + present * ZvcCompressor::kWordBytes > payload.size()) {
            return Status::truncated(
                "ZV: payload truncated in non-zero data at byte %zu "
                "(mask promises %llu words, payload %zu bytes)", cursor,
                static_cast<unsigned long long>(present), payload.size());
        }
        cursor += present * ZvcCompressor::kWordBytes;
    }
    panic("ZV: the kernel rejected a %zu-byte payload whose masks fit",
          payload.size());
}

} // namespace

Status
ZvcCompressor::decompressWindowInto(std::span<const uint8_t> payload,
                                    uint64_t original_bytes,
                                    uint8_t *out) const
{
    const uint64_t full_words = original_bytes / kWordBytes;
    const uint64_t tail_bytes = original_bytes % kWordBytes;

    // One zvcExpandWords call scatters every group of the window — the
    // inverse of the compaction above and the software mirror of the
    // DPE's scatter network. The kernel bounds-checks each group before
    // it reads it, so a truncated or corrupted wire payload surfaces as
    // a Status, never a panic or an over-read.
    size_t cursor = kernels().zvcExpandWords(payload.data(), payload.size(),
                                             full_words, out);
    if (cursor == kZvcMalformed)
        return malformedPayloadStatus(payload, full_words);

    if (tail_bytes) {
        if (cursor + tail_bytes > payload.size()) {
            return Status::truncated(
                "ZV: payload truncated in raw tail at byte %zu "
                "(payload %zu bytes)", cursor, payload.size());
        }
        std::memcpy(out + full_words * kWordBytes,
                    payload.data() + cursor, tail_bytes);
        cursor += tail_bytes;
    }
    if (cursor != payload.size()) {
        return Status::corrupt("ZV: payload has %zu trailing bytes",
                               payload.size() - cursor);
    }
    return Status();
}

} // namespace cdma
