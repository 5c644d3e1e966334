/**
 * @file
 * Numerical gradient verification: central-difference gradients of a
 * scalar loss w.r.t. layer parameters and inputs must match the analytic
 * backward pass. This is the ground-truth correctness check for the
 * training framework — if these pass, the sparsity the framework produces
 * comes from genuine SGD dynamics, not from broken math.
 */

#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dnn/activation.hh"
#include "dnn/composite.hh"
#include "dnn/conv.hh"
#include "dnn/fc.hh"
#include "dnn/loss.hh"
#include "dnn/pool.hh"

namespace cdma {
namespace {

/** Scalar objective: sum of 0.5 * y^2 over the layer output. */
double
halfSquaredSum(const Tensor4D &y)
{
    double total = 0.0;
    for (float v : y.data())
        total += 0.5 * static_cast<double>(v) * static_cast<double>(v);
    return total;
}

/** dLoss/dY for the objective above is simply Y. */
Tensor4D
halfSquaredGrad(const Tensor4D &y)
{
    Tensor4D g(y.shape(), y.layout());
    auto src = y.data();
    auto dst = g.data();
    for (size_t i = 0; i < src.size(); ++i)
        dst[i] = src[i];
    return g;
}

/**
 * Check the analytic input gradient of @p layer on @p input against
 * central differences.
 */
void
checkInputGradient(Layer &layer, Tensor4D input, double tolerance)
{
    const Tensor4D y = layer.forward(input);
    const Tensor4D analytic = layer.backward(input, y, halfSquaredGrad(y));

    const float eps = 1e-3f;
    auto data = input.data();
    for (size_t i = 0; i < data.size(); ++i) {
        const float saved = data[i];
        data[i] = saved + eps;
        const double plus = halfSquaredSum(layer.forward(input));
        data[i] = saved - eps;
        const double minus = halfSquaredSum(layer.forward(input));
        data[i] = saved;
        const double numeric = (plus - minus) / (2.0 * eps);
        EXPECT_NEAR(analytic.data()[i], numeric, tolerance)
            << "input element " << i;
    }
}

/** Check analytic parameter gradients against central differences. */
void
checkParamGradient(Layer &layer, const Tensor4D &input, double tolerance)
{
    for (ParamBlob *blob : layer.params())
        blob->clearGrad();
    const Tensor4D y = layer.forward(input);
    layer.backward(input, y, halfSquaredGrad(y));

    const float eps = 1e-3f;
    for (ParamBlob *blob : layer.params()) {
        for (size_t i = 0; i < blob->value.size(); ++i) {
            const float saved = blob->value[i];
            blob->value[i] = saved + eps;
            const double plus = halfSquaredSum(layer.forward(input));
            blob->value[i] = saved - eps;
            const double minus = halfSquaredSum(layer.forward(input));
            blob->value[i] = saved;
            const double numeric = (plus - minus) / (2.0 * eps);
            EXPECT_NEAR(blob->grad[i], numeric, tolerance)
                << "param element " << i;
        }
    }
}

Tensor4D
randomInput(const Shape4D &shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor4D t(shape);
    for (float &v : t.data())
        v = static_cast<float>(rng.normal(0.0, 0.5));
    return t;
}

TEST(GradCheck, ConvInputGradient)
{
    Rng rng(100);
    Conv2D conv("conv", 2, ConvSpec{3, 3, 1, 1}, rng);
    checkInputGradient(conv, randomInput({2, 2, 5, 5}, 1), 2e-2);
}

TEST(GradCheck, ConvParamGradient)
{
    Rng rng(101);
    Conv2D conv("conv", 2, ConvSpec{2, 3, 2, 0}, rng);
    checkParamGradient(conv, randomInput({2, 2, 6, 6}, 2), 2e-2);
}

TEST(GradCheck, FcInputGradient)
{
    Rng rng(102);
    FullyConnected fc("fc", 12, 5, rng);
    checkInputGradient(fc, randomInput({3, 3, 2, 2}, 3), 2e-2);
}

TEST(GradCheck, FcParamGradient)
{
    Rng rng(103);
    FullyConnected fc("fc", 8, 4, rng);
    checkParamGradient(fc, randomInput({2, 2, 2, 2}, 4), 2e-2);
}

TEST(GradCheck, ReluInputGradient)
{
    ReLU relu("relu");
    // Offset inputs away from the kink at zero.
    Tensor4D input = randomInput({2, 3, 4, 4}, 5);
    for (float &v : input.data()) {
        if (std::abs(v) < 0.05f)
            v = 0.2f;
    }
    checkInputGradient(relu, input, 1e-2);
}

TEST(GradCheck, SigmoidInputGradient)
{
    Sigmoid sigmoid("sigmoid");
    checkInputGradient(sigmoid, randomInput({2, 3, 4, 4}, 11), 1e-2);
}

TEST(GradCheck, TanhInputGradient)
{
    Tanh tanh_layer("tanh");
    checkInputGradient(tanh_layer, randomInput({2, 3, 4, 4}, 12), 1e-2);
}

TEST(GradCheck, AvgPoolInputGradient)
{
    Pool2D pool("pool", PoolSpec{2, 2, PoolMode::Avg});
    checkInputGradient(pool, randomInput({2, 2, 4, 4}, 6), 1e-2);
}

TEST(GradCheck, MaxPoolInputGradient)
{
    Pool2D pool("pool", PoolSpec{2, 2, PoolMode::Max});
    // Perturb-safe input: make window elements well separated so the
    // argmax does not flip under +/- eps.
    Rng rng(7);
    Tensor4D input(Shape4D{1, 2, 4, 4});
    for (float &v : input.data())
        v = static_cast<float>(rng.uniform(0.0, 1.0)) * 10.0f;
    checkInputGradient(pool, input, 1e-2);
}

TEST(GradCheck, ParallelConcatGradients)
{
    Rng rng(104);
    std::vector<Branch> branches(2);
    branches[0].push_back(std::make_unique<Conv2D>(
        "b0", 2, ConvSpec{2, 1, 1, 0}, rng));
    branches[1].push_back(std::make_unique<Conv2D>(
        "b1", 2, ConvSpec{3, 3, 1, 1}, rng));
    ParallelConcat concat("concat", std::move(branches));
    checkInputGradient(concat, randomInput({1, 2, 4, 4}, 8), 2e-2);
    checkParamGradient(concat, randomInput({1, 2, 4, 4}, 9), 2e-2);
}

TEST(GradCheck, ParallelConcatTwoLayerBranches)
{
    // [conv, relu] branches: each relu reads its conv's output from the
    // module's branch stash, and each conv the module input.
    Rng rng(105);
    std::vector<Branch> branches(2);
    branches[0].push_back(std::make_unique<Conv2D>(
        "b0", 2, ConvSpec{2, 1, 1, 0}, rng));
    branches[0].push_back(std::make_unique<ReLU>("b0_relu"));
    branches[1].push_back(std::make_unique<Conv2D>(
        "b1", 2, ConvSpec{3, 3, 1, 1}, rng));
    branches[1].push_back(std::make_unique<ReLU>("b1_relu"));
    ParallelConcat concat("concat", std::move(branches));
    checkInputGradient(concat, randomInput({1, 2, 4, 4}, 13), 2e-2);
    checkParamGradient(concat, randomInput({1, 2, 4, 4}, 14), 2e-2);
}

TEST(GradCheck, SoftmaxCrossEntropyGradient)
{
    SoftmaxCrossEntropy loss;
    Tensor4D logits = randomInput({3, 5, 1, 1}, 10);
    const std::vector<int> labels = {1, 4, 0};

    loss.forward(logits, labels);
    const Tensor4D analytic = loss.backward();

    const float eps = 1e-3f;
    auto data = logits.data();
    for (size_t i = 0; i < data.size(); ++i) {
        const float saved = data[i];
        data[i] = saved + eps;
        const double plus = loss.forward(logits, labels);
        data[i] = saved - eps;
        const double minus = loss.forward(logits, labels);
        data[i] = saved;
        const double numeric = (plus - minus) / (2.0 * eps);
        EXPECT_NEAR(analytic.data()[i], numeric, 1e-3)
            << "logit " << i;
    }
}

} // namespace
} // namespace cdma
