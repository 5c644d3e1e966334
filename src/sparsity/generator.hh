/**
 * @file
 * Synthetic activation-map generator with the spatial statistics the paper
 * documents in Figure 5: zeros cluster spatially within a channel plane
 * (smooth receptive fields go inactive over contiguous regions), some
 * channels go almost entirely dead, and non-zero values are positive
 * (post-ReLU) with smooth spatial variation. These statistics are what
 * make RLE/zlib layout-sensitive while leaving ZVC untouched — the
 * Figure 11 result. The generator produces full-size layer activations
 * for the compression experiments when real ImageNet training data is
 * unavailable (DESIGN.md substitution table).
 */

#ifndef CDMA_SPARSITY_GENERATOR_HH
#define CDMA_SPARSITY_GENERATOR_HH

#include <cstdint>
#include <span>

#include "common/rng.hh"
#include "tensor/tensor.hh"

namespace cdma {

/**
 * Maps of fewer elements are generated on the calling thread alone;
 * larger ones fan each pass out on ThreadPool::shared(). On a 4-vCPU
 * Xeon the four fan-outs of one map cost about 90 us more than the
 * inline passes on maps of 8K-16K elements, broke even near 43K and
 * won from 49K on (docs/performance.md, "Input generation").
 */
inline constexpr uint64_t kGeneratorFanOutElements = 49152;

/**
 * The k-th smallest of @p values, counting from 0: the value
 * std::nth_element would leave at index @p k. Where -0.0 and +0.0 meet
 * at rank k, nth_element may leave either (they compare equal); this
 * returns the one an order that puts -0.0 first ranks there. Spans of
 * kGeneratorFanOutElements values or more are scanned on the shared
 * pool's lanes. @pre k < values.size(), and no value is NaN.
 */
float kthSmallest(std::span<const float> values, uint64_t k);

/** Tuning of the clustered activation generator. */
struct ActivationGenConfig {
    /** Spatial correlation length in activations (cluster diameter). */
    double cluster_scale = 6.0;
    /** Std-dev of the per-channel activity bias (dead-channel knob). */
    double channel_bias_stddev = 0.7;
    /** Peak magnitude scale of non-zero activations. */
    double value_scale = 1.0;
    /**
     * Mantissa bits retained in non-zero values (the rest are zeroed).
     * Real trained activations carry less value entropy than white
     * noise — neighboring values share exponents and high mantissa
     * bits — which is what gives zlib its modest edge over ZVC in the
     * paper's Figure 11. 14 bits calibrates that edge; 23 disables
     * quantization.
     */
    int mantissa_bits = 14;
};

/**
 * Generates activation tensors with a target density and spatially
 * clustered zeros.
 *
 * Mechanism: each (sample, channel) plane gets a smooth random field
 * (bilinearly interpolated coarse Gaussian grid) plus a per-channel bias;
 * a global threshold is chosen at the exact quantile that achieves the
 * requested density; activations are ReLU-style shifted field values
 * above the threshold and zero below.
 *
 * Every random draw happens first, serially, plane after plane; the
 * field, the threshold and the rectification then run over the map on
 * the shared pool's lanes (maps of kGeneratorFanOutElements or more).
 * The bytes and the stream's state afterwards do not depend on the
 * lane count.
 */
class ActivationGenerator
{
  public:
    explicit ActivationGenerator(const ActivationGenConfig &config = {});

    /**
     * Generate a tensor of the given logical shape and physical layout
     * whose density is @p density (exact up to ties in the field).
     *
     * @param shape Logical (N, C, H, W) extents. A zero extent gives an
     *        empty tensor and draws nothing from @p rng.
     * @param layout Physical layout of the result.
     * @param density Target fraction of non-zero activations in [0, 1].
     * @param rng Randomness stream (pass the same seeded stream to get
     *        identical logical contents across layouts).
     */
    Tensor4D generate(const Shape4D &shape, Layout layout, double density,
                      Rng &rng) const;

  private:
    ActivationGenConfig config_;
};

} // namespace cdma

#endif // CDMA_SPARSITY_GENERATOR_HH
