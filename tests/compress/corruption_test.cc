/**
 * @file
 * Table-driven corruption and truncation suite over every codec and
 * every supported kernel backend. A decoder fed wire bytes must treat
 * the payload as hostile: any truncation point and any single-byte
 * corruption either decodes cleanly (a flip can land in literal bytes)
 * or returns a non-OK Status — never a crash, never a read outside the
 * payload span (the ASan CI leg enforces the memory half). The scalar
 * and AVX2 backends must agree on the Status code for every corruption,
 * so vectorizing a decoder can never widen what a bit flip can do.
 */

#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compress/compressor.hh"
#include "compress/kernels/kernels.hh"
#include "compress/parallel.hh"

namespace cdma {
namespace {

/** ReLU-like fp32 words at the given density. */
std::vector<uint8_t>
makeInput(double density, size_t bytes, uint64_t seed)
{
    Rng rng(seed);
    std::vector<uint8_t> input(bytes, 0);
    const size_t words = bytes / 4;
    for (size_t i = 0; i < words; ++i) {
        if (density > 0.0 && rng.bernoulli(density)) {
            const float value =
                1.0f + static_cast<float>(std::abs(rng.normal()));
            std::memcpy(input.data() + i * 4, &value, 4);
        }
    }
    for (size_t i = words * 4; i < bytes; ++i)
        input[i] = static_cast<uint8_t>(1 + rng.uniformInt(255));
    return input;
}

/**
 * Decode one corrupted window on one backend. Returns the Status code,
 * with StatusCode::Ok meaning the decode accepted the payload (the
 * output may legitimately differ from the original — integrity is the
 * CRC layer's job, not the decoder's).
 */
StatusCode
decodeWindow(const Compressor &codec, std::span<const uint8_t> payload,
             uint64_t original_bytes)
{
    ByteVec out(original_bytes);
    const Status status =
        codec.decompressWindowInto(payload, original_bytes, out.data());
    return status.code();
}

class CorruptionSuite : public ::testing::TestWithParam<Algorithm>
{
};

TEST_P(CorruptionSuite, EveryTruncationPointFailsIdenticallyPerBackend)
{
    const Algorithm algorithm = GetParam();
    const uint64_t window = 4096;
    const auto input = makeInput(0.45, window, 1001);

    std::vector<const KernelOps *> backends = supportedKernels();
    ASSERT_FALSE(backends.empty());
    const auto reference = makeCompressor(algorithm, window, backends[0]);
    ByteVec payload;
    reference->compressWindowInto(input, payload);
    ASSERT_FALSE(payload.empty());

    for (size_t cut = 0; cut < payload.size(); ++cut) {
        const std::span<const uint8_t> truncated(payload.data(), cut);
        StatusCode first = StatusCode::Ok;
        for (size_t b = 0; b < backends.size(); ++b) {
            const auto codec =
                makeCompressor(algorithm, window, backends[b]);
            const StatusCode code =
                decodeWindow(*codec, truncated, window);
            // A shortened stream can never decode cleanly: the decoder
            // either runs out of bytes (Truncated) or trips over the
            // now-inconsistent structure (Corrupt).
            EXPECT_NE(code, StatusCode::Ok)
                << algorithmName(algorithm) << " cut=" << cut << " on "
                << backends[b]->name;
            if (b == 0)
                first = code;
            else
                EXPECT_EQ(code, first)
                    << algorithmName(algorithm) << " cut=" << cut
                    << ": " << backends[0]->name << " vs "
                    << backends[b]->name;
        }
    }
}

TEST_P(CorruptionSuite, EverySingleByteCorruptionAgreesAcrossBackends)
{
    const Algorithm algorithm = GetParam();
    const uint64_t window = 4096;
    const auto input = makeInput(0.45, window, 1002);

    std::vector<const KernelOps *> backends = supportedKernels();
    const auto reference = makeCompressor(algorithm, window, backends[0]);
    ByteVec payload;
    reference->compressWindowInto(input, payload);

    // Every byte position, a handful of masks each: flips in framing
    // fields produce Truncated/Corrupt, flips in literal payload decode
    // cleanly to different bytes — but every backend must agree.
    const uint8_t masks[] = {0x01, 0x80, 0xFF};
    for (size_t pos = 0; pos < payload.size(); ++pos) {
        for (const uint8_t mask : masks) {
            ByteVec corrupted = payload;
            corrupted[pos] ^= mask;
            StatusCode first = StatusCode::Ok;
            for (size_t b = 0; b < backends.size(); ++b) {
                const auto codec =
                    makeCompressor(algorithm, window, backends[b]);
                const StatusCode code =
                    decodeWindow(*codec, corrupted, window);
                if (b == 0)
                    first = code;
                else
                    EXPECT_EQ(code, first)
                        << algorithmName(algorithm) << " pos=" << pos
                        << " mask=" << int(mask) << ": "
                        << backends[0]->name << " vs "
                        << backends[b]->name;
            }
        }
    }
}

TEST_P(CorruptionSuite, TrailingGarbageIsRejected)
{
    const Algorithm algorithm = GetParam();
    const uint64_t window = 4096;
    const auto input = makeInput(0.45, window, 1003);
    for (const KernelOps *backend : supportedKernels()) {
        const auto codec = makeCompressor(algorithm, window, backend);
        ByteVec payload;
        codec->compressWindowInto(input, payload);
        payload.push_back(0xAB);
        EXPECT_NE(decodeWindow(*codec, payload, window), StatusCode::Ok)
            << algorithmName(algorithm) << " on " << backend->name;
    }
}

TEST_P(CorruptionSuite, CorruptedFullBufferReportsWindowContext)
{
    // The stitched-buffer path annotates the failing window: corrupt a
    // late window and the error message must carry the codec tag and a
    // window index, the locality a log reader needs.
    const Algorithm algorithm = GetParam();
    const auto input = makeInput(0.45, 6 * 4096 + 123, 1004);
    const auto codec = makeCompressor(algorithm);
    CompressedBuffer buffer = codec->compress(input);
    ASSERT_GE(buffer.window_sizes.size(), 2u);

    // Truncate the final window's payload by one byte.
    buffer.payload.pop_back();
    buffer.window_sizes.back() -= 1;
    const StatusOr<ByteVec> decoded = codec->decompress(buffer);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("window"),
              std::string::npos)
        << decoded.status().toString();
}

TEST_P(CorruptionSuite, ZeroOriginalBytesRejectsNonEmptyPayload)
{
    const Algorithm algorithm = GetParam();
    for (const KernelOps *backend : supportedKernels()) {
        const auto codec = makeCompressor(algorithm, 4096, backend);
        const uint8_t junk[3] = {1, 2, 3};
        EXPECT_NE(decodeWindow(*codec, junk, 0), StatusCode::Ok)
            << algorithmName(algorithm) << " on " << backend->name;
    }
}

TEST_P(CorruptionSuite, ZeroWindowSizeIsCorruptOnEveryPath)
{
    // A caller-supplied buffer that frames two windows but no window
    // size. Every decoder must refuse it before dividing by the window
    // size or writing output: the serial codec and the parallel decoder
    // at one and two lanes.
    const Algorithm algorithm = GetParam();
    CompressedBuffer buffer;
    buffer.original_bytes = 8192;
    buffer.window_bytes = 0;
    buffer.window_sizes = {0, 0};
    buffer.codec = codecFor(algorithm);

    EXPECT_EQ(makeCompressor(algorithm)->decompress(buffer).status().code(),
              StatusCode::Corrupt)
        << algorithmName(algorithm) << " serial";
    for (const unsigned lanes : {1u, 2u}) {
        const ParallelCompressor parallel(algorithm, 4096, lanes);
        EXPECT_EQ(parallel.decompress(buffer).status().code(),
                  StatusCode::Corrupt)
            << algorithmName(algorithm) << " lanes=" << lanes;
    }
}

TEST_P(CorruptionSuite, MalformedFramingIsTheSameStatusOnEveryPath)
{
    // Three framing faults of a valid 3-window buffer. Each path runs
    // one framing check before writing a byte, so the serial codec and
    // the parallel decoder at every lane count return the same Corrupt
    // code and message.
    const Algorithm algorithm = GetParam();
    const auto input = makeInput(0.45, 3 * 4096, 1005);
    const CompressedBuffer valid = makeCompressor(algorithm)->compress(input);
    ASSERT_EQ(valid.window_sizes.size(), 3u);

    struct Shape {
        const char *name;
        CompressedBuffer buffer;
        std::string message;
    };
    std::vector<Shape> shapes;
    CompressedBuffer extra_window = valid;
    extra_window.window_sizes.push_back(0);
    shapes.push_back({"extra zero-length window", extra_window,
                      "window count 4 inconsistent with original size "
                      "12288"});
    CompressedBuffer dropped_window = valid;
    dropped_window.payload.resize(valid.payload.size() -
                                  valid.window_sizes.back());
    dropped_window.window_sizes.pop_back();
    shapes.push_back({"last window dropped", dropped_window,
                      "window count 2 inconsistent with original size "
                      "12288"});
    CompressedBuffer trailing_byte = valid;
    trailing_byte.payload.push_back(0xAB);
    shapes.push_back({"trailing payload byte", trailing_byte,
                      "window sizes cover " +
                          std::to_string(valid.payload.size()) +
                          " bytes but the payload has " +
                          std::to_string(valid.payload.size() + 1)});

    for (const Shape &shape : shapes) {
        const Status serial =
            makeCompressor(algorithm)->decompress(shape.buffer).status();
        EXPECT_EQ(serial.code(), StatusCode::Corrupt)
            << algorithmName(algorithm) << " " << shape.name;
        EXPECT_EQ(serial.message(), shape.message)
            << algorithmName(algorithm) << " " << shape.name;
        for (const unsigned lanes : {1u, 2u, 4u}) {
            const ParallelCompressor parallel(algorithm, 4096, lanes);
            const Status status = parallel.decompress(shape.buffer).status();
            EXPECT_EQ(status.code(), serial.code())
                << algorithmName(algorithm) << " " << shape.name
                << " lanes=" << lanes;
            EXPECT_EQ(status.message(), serial.message())
                << algorithmName(algorithm) << " " << shape.name
                << " lanes=" << lanes;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CorruptionSuite,
                         ::testing::Values(Algorithm::Rle, Algorithm::Zvc,
                                           Algorithm::Zlib),
                         [](const auto &info) {
                             return algorithmName(info.param);
                         });

} // namespace
} // namespace cdma
