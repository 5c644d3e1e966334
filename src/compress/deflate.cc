#include "compress/deflate.hh"

#include <array>
#include <cstring>

#include "common/logging.hh"
#include "compress/huffman.hh"
#include "compress/kernels/kernels.hh"

namespace cdma {

namespace {

// RFC 1951 length codes: symbol 257 + i encodes lengths
// [kLengthBase[i], kLengthBase[i] + 2^kLengthExtra[i]).
constexpr std::array<uint16_t, 29> kLengthBase = {
    3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
    35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258};
constexpr std::array<uint8_t, 29> kLengthExtra = {
    0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
    3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0};

// RFC 1951 distance codes.
constexpr std::array<uint16_t, 30> kDistBase = {
    1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
    257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
    8193, 12289, 16385, 24577};
constexpr std::array<uint8_t, 30> kDistExtra = {
    0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
    7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13};

/** Length code index for a match length in [3, 258]. */
int
lengthCode(int length)
{
    for (int i = static_cast<int>(kLengthBase.size()) - 1; i >= 0; --i) {
        if (length >= kLengthBase[static_cast<size_t>(i)])
            return i;
    }
    panic("match length %d below DEFLATE minimum", length);
}

/** Distance code index for a match distance in [1, 32768]. */
int
distanceCode(int distance)
{
    for (int i = static_cast<int>(kDistBase.size()) - 1; i >= 0; --i) {
        if (distance >= kDistBase[static_cast<size_t>(i)])
            return i;
    }
    panic("match distance %d below DEFLATE minimum", distance);
}

/**
 * Serialize a code-length table as (4-bit length, 8-bit run-1) pairs.
 * Unused symbols form long zero runs, so the header stays a few dozen
 * bytes per window rather than the ~160 bytes of a flat table.
 */
void
writeLengths(BitWriter &writer, const std::vector<uint8_t> &lengths)
{
    size_t i = 0;
    while (i < lengths.size()) {
        const uint8_t value = lengths[i];
        size_t run = 1;
        while (i + run < lengths.size() && run < 256 &&
               lengths[i + run] == value) {
            ++run;
        }
        writer.put(value, 4);
        writer.put(static_cast<uint32_t>(run - 1), 8);
        i += run;
    }
}

/**
 * Inverse of writeLengths(); reads exactly @p count lengths into a
 * caller-held (typically per-thread) vector, which stops allocating
 * once it has reached the alphabet size. The header crosses the wire,
 * so a short or bit-flipped stream is a recoverable Status, not an
 * invariant violation: each iteration appends at least one length, so
 * the loop is bounded even when the reader has latched an overrun.
 */
Status
readLengthsInto(BitReader &reader, size_t count,
                std::vector<uint8_t> &lengths)
{
    lengths.clear();
    lengths.reserve(count);
    while (lengths.size() < count) {
        const uint8_t value = static_cast<uint8_t>(reader.get(4));
        const size_t run = reader.get(8) + 1;
        if (reader.overrun()) {
            return Status::truncated(
                "ZL: payload truncated in the code-length header "
                "(%zu of %zu lengths read)", lengths.size(), count);
        }
        if (lengths.size() + run > count) {
            return Status::corrupt(
                "ZL: code-length run of %zu at bit %llu overflows the "
                "%zu-symbol alphabet", run,
                static_cast<unsigned long long>(reader.bitPosition()),
                count);
        }
        lengths.insert(lengths.end(), run, value);
    }
    return Status();
}

} // namespace

DeflateCompressor::DeflateCompressor(uint64_t window_bytes,
                                     const Lz77Config &lz_config,
                                     const KernelOps *kernels)
    : Compressor(window_bytes, kernels), lz_config_(lz_config)
{
}

uint64_t
DeflateCompressor::compressedBound(uint64_t raw_len) const
{
    // Worst case is incompressible data: up to 15-bit literal codes plus
    // the serialized code-length tables.
    return 2 * raw_len + 512;
}

namespace {

/**
 * Per-thread compression scratch for the whole ZL window path: the
 * tokenizer state plus the Huffman stage's frequency tables,
 * code-length vectors and canonical encoders. The codec object is
 * shared read-only across ParallelCompressor lanes; each lane's scratch
 * reaches steady state after its first window and the ZL compress path
 * then allocates nothing per window (the frequency/code tables were its
 * last steady-state allocations, per ROADMAP).
 */
struct DeflateScratch {
    Lz77Scratch lz;
    std::vector<uint64_t> litlen_freq;
    std::vector<uint64_t> dist_freq;
    std::vector<uint8_t> litlen_lengths;
    std::vector<uint8_t> dist_lengths;
    HuffmanEncoder litlen_enc;
    HuffmanEncoder dist_enc;
    ByteVec out; ///< the BitWriter's growing output
};

/**
 * Per-thread decompression scratch, the prefetch-side mirror of
 * DeflateScratch: the header's code-length vectors and the two
 * canonical decoders are rebuilt in place per window instead of
 * reallocated, so the ZL decode path (each ParallelCompressor lane, or
 * the serial spill-arena walk) allocates nothing per window once its
 * scratch has seen the two alphabet sizes.
 */
struct DeflateDecodeScratch {
    std::vector<uint8_t> litlen_lengths;
    std::vector<uint8_t> dist_lengths;
    HuffmanDecoder litlen_dec;
    HuffmanDecoder dist_dec;
};

} // namespace

uint64_t
DeflateCompressor::compressWindowTo(std::span<const uint8_t> window,
                                    uint8_t *dst) const
{
    static thread_local DeflateScratch scratch;
    const auto &tokens =
        lz77TokenizeInto(window, lz_config_, scratch.lz, &kernels());

    // Pass 1: symbol statistics (assign() reuses the scratch capacity).
    scratch.litlen_freq.assign(kLitLenSymbols, 0);
    scratch.dist_freq.assign(kDistSymbols, 0);
    std::vector<uint64_t> &litlen_freq = scratch.litlen_freq;
    std::vector<uint64_t> &dist_freq = scratch.dist_freq;
    for (const auto &token : tokens) {
        if (token.is_match) {
            ++litlen_freq[static_cast<size_t>(
                257 + lengthCode(token.length))];
            ++dist_freq[static_cast<size_t>(
                distanceCode(token.distance))];
        } else {
            ++litlen_freq[token.literal];
        }
    }
    ++litlen_freq[kEndOfBlock];

    buildCodeLengthsInto(litlen_freq, kMaxCodeLength,
                         scratch.litlen_lengths);
    buildCodeLengthsInto(dist_freq, kMaxCodeLength,
                         scratch.dist_lengths);
    const std::vector<uint8_t> &litlen_lengths = scratch.litlen_lengths;
    const std::vector<uint8_t> &dist_lengths = scratch.dist_lengths;
    scratch.litlen_enc.rebuild(litlen_lengths);
    scratch.dist_enc.rebuild(dist_lengths);
    const HuffmanEncoder &litlen_enc = scratch.litlen_enc;
    const HuffmanEncoder &dist_enc = scratch.dist_enc;

    // Pass 2: header (code-length tables) then the token stream. ZL
    // alone keeps a growing BitWriter output (in the per-thread scratch)
    // and copies it to the caller's room once.
    scratch.out.clear();
    BitWriter writer(scratch.out);
    writeLengths(writer, litlen_lengths);
    writeLengths(writer, dist_lengths);

    for (const auto &token : tokens) {
        if (token.is_match) {
            const int lcode = lengthCode(token.length);
            litlen_enc.encode(writer, 257 + lcode);
            writer.put(static_cast<uint32_t>(
                           token.length -
                           kLengthBase[static_cast<size_t>(lcode)]),
                       kLengthExtra[static_cast<size_t>(lcode)]);
            const int dcode = distanceCode(token.distance);
            dist_enc.encode(writer, dcode);
            writer.put(static_cast<uint32_t>(
                           token.distance -
                           kDistBase[static_cast<size_t>(dcode)]),
                       kDistExtra[static_cast<size_t>(dcode)]);
        } else {
            litlen_enc.encode(writer, token.literal);
        }
    }
    litlen_enc.encode(writer, kEndOfBlock);
    writer.flush();
    CDMA_ASSERT(scratch.out.size() <= compressedBound(window.size()),
                "ZL window of %zu bytes overran its %llu-byte bound",
                window.size(),
                static_cast<unsigned long long>(
                    compressedBound(window.size())));
    std::memcpy(dst, scratch.out.data(), scratch.out.size());
    return scratch.out.size();
}

Status
DeflateCompressor::decompressWindowInto(std::span<const uint8_t> payload,
                                        uint64_t original_bytes,
                                        uint8_t *out) const
{
    if (original_bytes == 0) {
        if (!payload.empty()) {
            return Status::corrupt(
                "ZL: %llu payload byte(s) for an empty window",
                static_cast<unsigned long long>(payload.size()));
        }
        return Status();
    }

    static thread_local DeflateDecodeScratch scratch;
    BitReader reader(payload);
    Status status =
        readLengthsInto(reader, kLitLenSymbols, scratch.litlen_lengths);
    if (!status.ok())
        return status;
    status = readLengthsInto(reader, kDistSymbols, scratch.dist_lengths);
    if (!status.ok())
        return status;
    scratch.litlen_dec.rebuild(scratch.litlen_lengths);
    scratch.dist_dec.rebuild(scratch.dist_lengths);
    const HuffmanDecoder &litlen_dec = scratch.litlen_dec;
    const HuffmanDecoder &dist_dec = scratch.dist_dec;

    // Every exit from this loop is bounded: literals and matches advance
    // pos toward original_bytes, and a latched reader overrun or invalid
    // code is checked each iteration — a flipped or missing wire bit
    // lands on a Status, never an OOB access or an unbounded spin.
    uint64_t pos = 0;
    for (;;) {
        const int symbol = litlen_dec.decode(reader);
        if (reader.overrun()) {
            return Status::truncated(
                "ZL: payload truncated in the token stream at bit %llu "
                "(%llu of %llu bytes decoded)",
                static_cast<unsigned long long>(reader.bitPosition()),
                static_cast<unsigned long long>(pos),
                static_cast<unsigned long long>(original_bytes));
        }
        if (symbol == HuffmanDecoder::kInvalidSymbol) {
            return Status::corrupt(
                "ZL: invalid literal/length code at bit %llu",
                static_cast<unsigned long long>(reader.bitPosition()));
        }
        if (symbol == kEndOfBlock)
            break;
        if (symbol < 256) {
            if (pos >= original_bytes) {
                return Status::corrupt(
                    "ZL: literal at bit %llu overflows the %llu-byte "
                    "window",
                    static_cast<unsigned long long>(reader.bitPosition()),
                    static_cast<unsigned long long>(original_bytes));
            }
            out[pos++] = static_cast<uint8_t>(symbol);
            continue;
        }
        const int lcode = symbol - 257;
        if (lcode >= static_cast<int>(kLengthBase.size())) {
            return Status::corrupt(
                "ZL: invalid length symbol %d at bit %llu", symbol,
                static_cast<unsigned long long>(reader.bitPosition()));
        }
        const int length = kLengthBase[static_cast<size_t>(lcode)] +
            static_cast<int>(
                reader.get(kLengthExtra[static_cast<size_t>(lcode)]));
        const int dcode = dist_dec.decode(reader);
        if (dcode == HuffmanDecoder::kInvalidSymbol ||
            dcode >= static_cast<int>(kDistBase.size())) {
            return Status::corrupt(
                "ZL: invalid distance symbol %d at bit %llu", dcode,
                static_cast<unsigned long long>(reader.bitPosition()));
        }
        const int distance = kDistBase[static_cast<size_t>(dcode)] +
            static_cast<int>(
                reader.get(kDistExtra[static_cast<size_t>(dcode)]));
        if (reader.overrun()) {
            return Status::truncated(
                "ZL: payload truncated in match extra bits at bit %llu",
                static_cast<unsigned long long>(reader.bitPosition()));
        }
        if (distance > static_cast<int>(pos)) {
            return Status::corrupt(
                "ZL: match distance %d at bit %llu exceeds %llu bytes "
                "of history", distance,
                static_cast<unsigned long long>(reader.bitPosition()),
                static_cast<unsigned long long>(pos));
        }
        if (pos + static_cast<uint64_t>(length) > original_bytes) {
            return Status::corrupt(
                "ZL: match of %d bytes at bit %llu overflows the "
                "%llu-byte window", length,
                static_cast<unsigned long long>(reader.bitPosition()),
                static_cast<unsigned long long>(original_bytes));
        }
        const uint8_t *src = out + pos - static_cast<uint64_t>(distance);
        if (distance >= length) {
            // Non-overlapping match: the kernel table's bulk copy (the
            // prefetch-side route the other codecs take too).
            kernels().copyBytes(out + pos, src,
                                static_cast<size_t>(length));
        } else {
            // Overlapping match (RLE-style): must copy forward.
            for (int i = 0; i < length; ++i)
                out[pos + static_cast<uint64_t>(i)] = src[i];
        }
        pos += static_cast<uint64_t>(length);
    }
    if (pos != original_bytes) {
        return Status::corrupt(
            "ZL: window decoded %llu bytes, expected %llu",
            static_cast<unsigned long long>(pos),
            static_cast<unsigned long long>(original_bytes));
    }
    // The encoder pads only to the next byte boundary; whole bytes past
    // the end-of-block symbol are framing corruption (a length field
    // pointing into a neighbouring window would otherwise pass).
    const uint64_t consumed = (reader.bitPosition() + 7) / 8;
    if (consumed < payload.size()) {
        return Status::corrupt(
            "ZL: %llu trailing byte(s) after the end-of-block symbol",
            static_cast<unsigned long long>(payload.size() - consumed));
    }
    return Status();
}

} // namespace cdma
