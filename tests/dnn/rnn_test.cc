/** @file Unit tests for the Elman RNN layer (Section III discussion). */

#include <cmath>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dnn/rnn.hh"

namespace cdma {
namespace {

Tensor4D
randomSequence(int64_t batch, int64_t steps, int64_t features,
               uint64_t seed)
{
    Rng rng(seed);
    Tensor4D t(Shape4D{batch, steps, 1, features});
    for (float &v : t.data())
        v = static_cast<float>(rng.normal(0.0, 0.8));
    return t;
}

TEST(Rnn, OutputShapeIsHiddenSequence)
{
    Rng rng(1);
    Rnn rnn("rnn", 8, 16, RnnActivation::ReLU, rng);
    EXPECT_EQ(rnn.outputShape(Shape4D{4, 10, 1, 8}),
              (Shape4D{4, 10, 1, 16}));
}

TEST(Rnn, ReluStatesAreSparseTanhStatesAreNot)
{
    // The Section III contrast, at the layer level.
    Rng rng_a(2), rng_b(2);
    Rnn relu_rnn("relu", 8, 32, RnnActivation::ReLU, rng_a);
    Rnn tanh_rnn("tanh", 8, 32, RnnActivation::Tanh, rng_b);
    const Tensor4D input = randomSequence(4, 20, 8, 3);

    const Tensor4D relu_states = relu_rnn.forward(input);
    const Tensor4D tanh_states = tanh_rnn.forward(input);
    EXPECT_LT(relu_states.density(), 0.8);
    EXPECT_GT(tanh_states.density(), 0.999);
}

TEST(Rnn, TanhStatesBounded)
{
    Rng rng(4);
    Rnn rnn("rnn", 4, 8, RnnActivation::Tanh, rng);
    const Tensor4D states = rnn.forward(randomSequence(2, 12, 4, 5));
    for (float v : states.data()) {
        EXPECT_GE(v, -1.0f);
        EXPECT_LE(v, 1.0f);
    }
}

TEST(Rnn, RecurrencePropagatesState)
{
    // With zero input weights and identity-ish recurrence, the state at
    // t depends on the state at t-1: check the hidden sequence is not
    // constant when only the first step gets input.
    Rng rng(5);
    Rnn rnn("rnn", 2, 2, RnnActivation::ReLU, rng);
    auto params = rnn.params();
    // w_input: identity-ish, w_hidden: 0.5 * identity, bias 0.
    std::fill(params[0]->value.begin(), params[0]->value.end(), 0.0f);
    params[0]->value[0] = 1.0f; // h0 <- x0
    params[0]->value[3] = 1.0f; // h1 <- x1
    std::fill(params[1]->value.begin(), params[1]->value.end(), 0.0f);
    params[1]->value[0] = 0.5f;
    params[1]->value[3] = 0.5f;
    std::fill(params[2]->value.begin(), params[2]->value.end(), 0.0f);

    Tensor4D input(Shape4D{1, 4, 1, 2});
    input.at(0, 0, 0, 0) = 2.0f; // impulse at t=0 only
    const Tensor4D states = rnn.forward(input);
    EXPECT_FLOAT_EQ(states.at(0, 0, 0, 0), 2.0f);
    EXPECT_FLOAT_EQ(states.at(0, 1, 0, 0), 1.0f);   // decayed by 0.5
    EXPECT_FLOAT_EQ(states.at(0, 2, 0, 0), 0.5f);
    EXPECT_FLOAT_EQ(states.at(0, 3, 0, 0), 0.25f);
}

TEST(Rnn, GradCheckInputTanh)
{
    Rng rng(6);
    Rnn rnn("rnn", 3, 4, RnnActivation::Tanh, rng);
    Tensor4D input = randomSequence(2, 5, 3, 7);

    auto objective = [&](const Tensor4D &x) {
        Tensor4D y = rnn.forward(x);
        double total = 0.0;
        for (float v : y.data())
            total += 0.5 * static_cast<double>(v) *
                static_cast<double>(v);
        return total;
    };

    const Tensor4D y = rnn.forward(input);
    Tensor4D dy(y.shape());
    auto ys = y.data();
    auto dys = dy.data();
    for (size_t i = 0; i < ys.size(); ++i)
        dys[i] = ys[i];
    const Tensor4D analytic = rnn.backward(input, y, dy);

    const float eps = 1e-3f;
    auto data = input.data();
    for (size_t i = 0; i < data.size(); i += 7) { // sample every 7th
        const float saved = data[i];
        data[i] = saved + eps;
        const double plus = objective(input);
        data[i] = saved - eps;
        const double minus = objective(input);
        data[i] = saved;
        const double numeric = (plus - minus) / (2.0 * eps);
        EXPECT_NEAR(analytic.data()[i], numeric, 2e-2) << "element " << i;
    }
}

TEST(Rnn, GradCheckParamsTanh)
{
    Rng rng(8);
    Rnn rnn("rnn", 2, 3, RnnActivation::Tanh, rng);
    Tensor4D input = randomSequence(1, 4, 2, 9);

    auto objective = [&]() {
        Tensor4D y = rnn.forward(input);
        double total = 0.0;
        for (float v : y.data())
            total += 0.5 * static_cast<double>(v) *
                static_cast<double>(v);
        return total;
    };

    for (ParamBlob *blob : rnn.params())
        blob->clearGrad();
    const Tensor4D y = rnn.forward(input);
    Tensor4D dy(y.shape());
    auto ys = y.data();
    auto dys = dy.data();
    for (size_t i = 0; i < ys.size(); ++i)
        dys[i] = ys[i];
    rnn.backward(input, y, dy);

    const float eps = 1e-3f;
    for (ParamBlob *blob : rnn.params()) {
        for (size_t i = 0; i < blob->value.size(); ++i) {
            const float saved = blob->value[i];
            blob->value[i] = saved + eps;
            const double plus = objective();
            blob->value[i] = saved - eps;
            const double minus = objective();
            blob->value[i] = saved;
            const double numeric = (plus - minus) / (2.0 * eps);
            EXPECT_NEAR(blob->grad[i], numeric, 3e-2)
                << "param element " << i;
        }
    }
}

TEST(Rnn, MacsModel)
{
    Rng rng(10);
    Rnn rnn("rnn", 8, 16, RnnActivation::ReLU, rng);
    // T * H * (I + H) = 10 * 16 * 24.
    EXPECT_EQ(rnn.forwardMacsPerImage(Shape4D{1, 10, 1, 8}),
              10ull * 16 * 24);
}

} // namespace
} // namespace cdma
