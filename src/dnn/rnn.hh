/**
 * @file
 * Vanilla (Elman) recurrent layer with a selectable activation, unrolled
 * over the sequence with full backpropagation-through-time. Section III
 * claims cDMA applies to the GEMV-based ReLU RNNs used for speech
 * recognition and translation (Deep Speech) but not to sigmoid/tanh
 * LSTMs/GRUs whose states are never exactly zero; this layer lets the
 * benchmarks measure exactly that contrast on trained models.
 *
 * Tensor convention: sequences are packed as (N, T, 1, I) — batch,
 * time steps, 1, features — and the layer emits the hidden-state
 * sequence (N, T, 1, H).
 */

#ifndef CDMA_DNN_RNN_HH
#define CDMA_DNN_RNN_HH

#include "common/rng.hh"
#include "dnn/layer.hh"

namespace cdma {

/** Recurrent-cell nonlinearity. */
enum class RnnActivation {
    ReLU, ///< sparsity-inducing (Deep Speech-style)
    Tanh, ///< classic Elman; never exactly zero
};

/** Elman RNN layer: h_t = act(W_x x_t + W_h h_{t-1} + b). */
class Rnn : public Layer
{
  public:
    /**
     * @param name Layer instance name.
     * @param input_features Input feature count I.
     * @param hidden_features Hidden state width H.
     * @param activation Cell nonlinearity.
     * @param rng Weight-initialization stream.
     */
    Rnn(std::string name, int64_t input_features, int64_t hidden_features,
        RnnActivation activation, Rng &rng);

    std::string type() const override { return "rnn"; }
    Shape4D outputShape(const Shape4D &input) const override;
    Tensor4D forward(const Tensor4D &input) override;
    Tensor4D backward(const Tensor4D &input, const Tensor4D &output,
                      const Tensor4D &output_grad) override;
    std::vector<ParamBlob *> params() override;

    /** Cell nonlinearity. */
    RnnActivation activation() const { return activation_; }

    uint64_t forwardMacsPerImage(const Shape4D &input) const override
    {
        return static_cast<uint64_t>(input.c) *
            static_cast<uint64_t>(hidden_features_ *
                                  (input_features_ + hidden_features_));
    }

  private:
    /** Apply the nonlinearity. */
    float activate(float pre) const;
    /** Derivative of the nonlinearity given the *output* value. */
    float activateGradFromOutput(float out) const;

    int64_t input_features_;
    int64_t hidden_features_;
    RnnActivation activation_;
    ParamBlob w_input_;  // [H][I]
    ParamBlob w_hidden_; // [H][H]
    ParamBlob bias_;     // [H]
};

} // namespace cdma

#endif // CDMA_DNN_RNN_HH
