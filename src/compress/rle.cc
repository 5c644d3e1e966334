#include "compress/rle.hh"

#include <algorithm>
#include <cstring>

#include "common/logging.hh"
#include "compress/kernels/kernels.hh"

namespace cdma {

namespace {

// Token byte: bit 7 set -> zero-run, clear -> literal-run; bits 6..0 hold
// (run length - 1), so a token covers 1..128 words.
constexpr uint8_t kZeroRunFlag = 0x80;

bool
isZeroWord(const uint8_t *p)
{
    uint32_t value;
    std::memcpy(&value, p, 4);
    return value == 0;
}

} // namespace

RleCompressor::RleCompressor(uint64_t window_bytes,
                             const KernelOps *kernels)
    : Compressor(window_bytes, kernels)
{
}

uint64_t
RleCompressor::compressedBound(uint64_t raw_len) const
{
    // Worst case: every word its own literal run (1 token byte + 4 data
    // bytes per word) plus the raw sub-word tail.
    return raw_len + raw_len / kWordBytes + kWordBytes;
}

uint64_t
RleCompressor::compressWindowTo(std::span<const uint8_t> window,
                                uint8_t *out) const
{
    const uint64_t words = window.size() / kWordBytes;
    const uint64_t tail_bytes = window.size() % kWordBytes;
    const uint8_t *src = window.data();

    // The caller's room holds the worst case, so the token/literal
    // emission below is raw pointer writes. Run boundaries come from
    // the kernel backend's scans — the token stream they produce is
    // backend-invariant by construction (a run ends at the first word
    // of the other kind, however it was found).
    const KernelOps &kernel = kernels();
    uint8_t *dst = out;

    uint64_t i = 0;
    while (i < words) {
        const uint64_t cap = std::min<uint64_t>(kMaxRun, words - i);
        const uint8_t *p = src + i * kWordBytes;
        if (isZeroWord(p)) {
            const uint64_t run = kernel.zeroRunWords(p, cap);
            *dst++ = kZeroRunFlag | static_cast<uint8_t>(run - 1);
            i += run;
        } else {
            const uint64_t run = kernel.literalRunWords(p, cap);
            *dst++ = static_cast<uint8_t>(run - 1);
            kernel.copyBytes(dst, p,
                             static_cast<size_t>(run) * kWordBytes);
            dst += run * kWordBytes;
            i += run;
        }
    }

    // Sub-word tail stored raw (prefixed by a literal token of one word
    // would mis-size it; the framing knows the original size so raw bytes
    // at the end are unambiguous). At most 3 bytes: plain memcpy.
    if (tail_bytes) {
        std::memcpy(dst, src + words * kWordBytes, tail_bytes);
        dst += tail_bytes;
    }
    return static_cast<uint64_t>(dst - out);
}

Status
RleCompressor::decompressWindowInto(std::span<const uint8_t> payload,
                                    uint64_t original_bytes,
                                    uint8_t *out) const
{
    const uint64_t words = original_bytes / kWordBytes;
    const uint64_t tail_bytes = original_bytes % kWordBytes;

    // Run reconstruction goes through the kernel backend: zero tokens
    // are the zero-fill op, literal tokens the bulk byte copy — the
    // prefetch-side mirror of the scan/copy ops compression uses. Every
    // bound is checked before the kernel call, so a truncated or
    // bit-flipped token stream surfaces as a Status, never an OOB read.
    const KernelOps &kernel = kernels();
    size_t cursor = 0;
    uint64_t produced = 0;
    while (produced < words) {
        if (cursor >= payload.size()) {
            return Status::truncated(
                "RL: payload truncated before token at byte %zu "
                "(%llu of %llu words decoded)", cursor,
                static_cast<unsigned long long>(produced),
                static_cast<unsigned long long>(words));
        }
        const uint8_t token = payload[cursor++];
        const uint64_t run = static_cast<uint64_t>(token & 0x7F) + 1;
        if (produced + run > words) {
            return Status::corrupt(
                "RL: run of %llu words at byte %zu overflows the "
                "original window (%llu of %llu words decoded)",
                static_cast<unsigned long long>(run), cursor - 1,
                static_cast<unsigned long long>(produced),
                static_cast<unsigned long long>(words));
        }
        uint8_t *dst = out + produced * kWordBytes;
        if (token & kZeroRunFlag) {
            kernel.zeroFillBytes(dst, run * kWordBytes);
        } else {
            if (cursor + run * kWordBytes > payload.size()) {
                return Status::truncated(
                    "RL: payload truncated in literal run at byte %zu "
                    "(run of %llu words, payload %zu bytes)", cursor,
                    static_cast<unsigned long long>(run),
                    payload.size());
            }
            kernel.copyBytes(dst, payload.data() + cursor,
                             run * kWordBytes);
            cursor += run * kWordBytes;
        }
        produced += run;
    }

    if (tail_bytes) {
        if (cursor + tail_bytes > payload.size()) {
            return Status::truncated(
                "RL: payload truncated in raw tail at byte %zu "
                "(payload %zu bytes)", cursor, payload.size());
        }
        std::memcpy(out + words * kWordBytes, payload.data() + cursor,
                    tail_bytes);
        cursor += tail_bytes;
    }
    if (cursor != payload.size()) {
        return Status::corrupt("RL: payload has %zu trailing bytes",
                               payload.size() - cursor);
    }
    return Status();
}

} // namespace cdma
