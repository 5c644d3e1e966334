#include "compress/compressor.hh"

#include <algorithm>
#include <cstring>

#include "common/bits.hh"
#include "common/logging.hh"
#include "compress/deflate.hh"
#include "compress/kernels/kernels.hh"
#include "compress/rle.hh"
#include "compress/zvc.hh"

namespace cdma {

double
CompressedBuffer::ratio() const
{
    if (payload.empty())
        return 1.0;
    return static_cast<double>(original_bytes) /
        static_cast<double>(payload.size());
}

uint64_t
storeRawFlooredBytes(std::span<const uint32_t> window_sizes,
                     uint64_t raw_bytes, uint64_t window_bytes)
{
    uint64_t total = 0;
    uint64_t remaining = raw_bytes;
    for (uint32_t compressed : window_sizes) {
        const uint64_t raw = std::min<uint64_t>(remaining, window_bytes);
        total += std::min<uint64_t>(compressed, raw);
        remaining -= raw;
    }
    return total;
}

uint64_t
CompressedBuffer::effectiveBytes() const
{
    return storeRawFlooredBytes(window_sizes, original_bytes,
                                window_bytes);
}

double
CompressedBuffer::effectiveRatio() const
{
    const uint64_t bytes = effectiveBytes();
    if (bytes == 0)
        return 1.0;
    return static_cast<double>(original_bytes) / static_cast<double>(bytes);
}

Compressor::Compressor(uint64_t window_bytes, const KernelOps *kernels)
    : window_bytes_(window_bytes),
      kernels_(kernels != nullptr ? kernels : &activeKernels())
{
    CDMA_ASSERT(window_bytes > 0, "compression window must be positive");
}

uint64_t
Compressor::compressedBound(uint64_t raw_len) const
{
    // Conservative generic bound; the concrete codecs override with their
    // exact worst case. It covers the raw window too (raw <= bound).
    return 2 * raw_len + 64;
}

void
Compressor::compressWindowInto(std::span<const uint8_t> window,
                               ByteVec &out) const
{
    const size_t base = out.size();
    out.resize(base + compressedBound(window.size()));
    out.resize(base + compressWindowTo(window, out.data() + base));
}

uint64_t
Compressor::payloadBound(uint64_t input_bytes, uint64_t first,
                         uint64_t last) const
{
    if (first >= last)
        return 0;
    // Only the input's final window can be short.
    if (last * window_bytes_ <= input_bytes)
        return (last - first) * compressedBound(window_bytes_);
    return (last - first - 1) * compressedBound(window_bytes_) +
        compressedBound(input_bytes - (last - 1) * window_bytes_);
}

uint64_t
Compressor::compressWindows(std::span<const uint8_t> input, uint64_t first,
                            uint64_t last, uint8_t *dst,
                            uint32_t *window_sizes) const
{
    uint64_t written = 0;
    for (uint64_t w = first; w < last; ++w) {
        const uint64_t offset = w * window_bytes_;
        const uint64_t len =
            std::min<uint64_t>(window_bytes_, input.size() - offset);
        const uint64_t bytes =
            compressWindowTo(input.subspan(offset, len), dst + written);
        window_sizes[w - first] = static_cast<uint32_t>(bytes);
        written += bytes;
    }
    return written;
}

CompressedBuffer
Compressor::compress(std::span<const uint8_t> input) const
{
    CompressedBuffer out;
    out.original_bytes = input.size();
    out.window_bytes = window_bytes_;
    out.codec = codecFromName(name());

    // Sized to the whole-buffer worst case once (ByteVec: no zero-fill)
    // and trimmed once: every window compresses straight into place.
    const uint64_t windows = ceilDiv(input.size(), window_bytes_);
    out.window_sizes.resize(windows);
    out.payload.resize(payloadBound(input.size(), 0, windows));
    out.payload.resize(compressWindows(input, 0, windows, out.payload.data(),
                                       out.window_sizes.data()));
    return out;
}

Status
checkBufferFraming(const CompressedBuffer &buffer)
{
    using ull = unsigned long long;
    const uint64_t windows = buffer.window_sizes.size();
    // Checked first: the window count below divides by it.
    if (buffer.window_bytes == 0) {
        return Status::corrupt(
            "compressed buffer frames %llu windows with a zero window size",
            static_cast<ull>(windows));
    }
    // ceil(original / window) without ceilDiv's addition, which a
    // caller-supplied original_bytes near 2^64 would overflow.
    const uint64_t expected = buffer.original_bytes / buffer.window_bytes +
        (buffer.original_bytes % buffer.window_bytes != 0 ? 1 : 0);
    if (windows != expected) {
        return Status::corrupt(
            "window count %llu inconsistent with original size %llu",
            static_cast<ull>(windows),
            static_cast<ull>(buffer.original_bytes));
    }
    uint64_t framed = 0;
    for (const uint32_t size : buffer.window_sizes)
        framed += size;
    if (framed != buffer.payload.size()) {
        return Status::corrupt(
            "window sizes cover %llu bytes but the payload has %zu",
            static_cast<ull>(framed), buffer.payload.size());
    }
    return Status{};
}

StatusOr<ByteVec>
Compressor::decompress(const CompressedBuffer &buffer) const
{
    const Status framing = checkBufferFraming(buffer);
    if (!framing.ok())
        return framing;
    // Pre-sized output: every window decompresses straight into its slot,
    // so stitching is free (no insert-at-end growth or copies). ByteVec
    // leaves the bytes uninitialized; decompressWindowInto() writes every
    // byte of every slot, zeros included.
    ByteVec out(buffer.original_bytes);
    const Status status = decompressWindows(
        buffer, 0, buffer.window_sizes.size(), 0, out.data());
    if (!status.ok())
        return status;
    return out;
}

Status
Compressor::decompressWindows(const CompressedBuffer &buffer, uint64_t first,
                              uint64_t last, uint64_t payload_offset,
                              uint8_t *out) const
{
    for (uint64_t w = first; w < last; ++w) {
        const uint64_t out_offset = w * buffer.window_bytes;
        const uint64_t raw = std::min<uint64_t>(
            buffer.window_bytes, buffer.original_bytes - out_offset);
        const uint32_t size = buffer.window_sizes[w];
        const Status status = decompressWindowInto(
            std::span<const uint8_t>(buffer.payload.data() + payload_offset,
                                     size),
            raw, out + out_offset);
        if (!status.ok()) {
            return status.withContext("window %llu",
                                      static_cast<unsigned long long>(w));
        }
        payload_offset += size;
    }
    return Status{};
}

double
Compressor::measureRatio(std::span<const uint8_t> input) const
{
    return compress(input).effectiveRatio();
}

std::string
algorithmName(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::Rle:  return "RL";
      case Algorithm::Zvc:  return "ZV";
      case Algorithm::Zlib: return "ZL";
    }
    panic("unreachable algorithm value %d", static_cast<int>(algorithm));
}

std::string
codecName(Codec codec)
{
    switch (codec) {
      case Codec::Raw:  return "raw";
      case Codec::Rle:  return "RL";
      case Codec::Zvc:  return "ZV";
      case Codec::Zlib: return "ZL";
    }
    panic("unreachable codec value %d", static_cast<int>(codec));
}

Codec
codecFor(Algorithm algorithm)
{
    switch (algorithm) {
      case Algorithm::Rle:  return Codec::Rle;
      case Algorithm::Zvc:  return Codec::Zvc;
      case Algorithm::Zlib: return Codec::Zlib;
    }
    panic("unreachable algorithm value %d", static_cast<int>(algorithm));
}

Algorithm
algorithmFor(Codec codec)
{
    switch (codec) {
      case Codec::Rle:  return Algorithm::Rle;
      case Codec::Zvc:  return Algorithm::Zvc;
      case Codec::Zlib: return Algorithm::Zlib;
      case Codec::Raw:
        break;
    }
    panic("Codec::Raw has no compression algorithm");
}

Codec
codecFromName(const std::string &name)
{
    if (name == "raw")
        return Codec::Raw;
    if (name == "RL")
        return Codec::Rle;
    if (name == "ZV")
        return Codec::Zvc;
    if (name == "ZL")
        return Codec::Zlib;
    panic("unknown codec tag \"%s\"", name.c_str());
}

uint64_t
RawCompressor::compressWindowTo(std::span<const uint8_t> window,
                                uint8_t *dst) const
{
    std::memcpy(dst, window.data(), window.size());
    return window.size();
}

Status
RawCompressor::decompressWindowInto(std::span<const uint8_t> payload,
                                    uint64_t original_bytes,
                                    uint8_t *out) const
{
    if (payload.size() != original_bytes) {
        return Status::truncated(
            "raw window is %zu bytes, expected %llu", payload.size(),
            static_cast<unsigned long long>(original_bytes));
    }
    std::memcpy(out, payload.data(), payload.size());
    return Status();
}

std::unique_ptr<Compressor>
makeCodecCompressor(Codec codec, uint64_t window_bytes,
                    const KernelOps *kernels)
{
    if (codec == Codec::Raw)
        return std::make_unique<RawCompressor>(window_bytes, kernels);
    return makeCompressor(algorithmFor(codec), window_bytes, kernels);
}

std::unique_ptr<Compressor>
makeCompressor(Algorithm algorithm, uint64_t window_bytes,
               const KernelOps *kernels)
{
    switch (algorithm) {
      case Algorithm::Rle:
        return std::make_unique<RleCompressor>(window_bytes, kernels);
      case Algorithm::Zvc:
        return std::make_unique<ZvcCompressor>(window_bytes, kernels);
      case Algorithm::Zlib:
        return std::make_unique<DeflateCompressor>(window_bytes,
                                                   Lz77Config{}, kernels);
    }
    panic("unreachable algorithm value %d", static_cast<int>(algorithm));
}

} // namespace cdma
