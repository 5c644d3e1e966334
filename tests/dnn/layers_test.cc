/** @file Unit tests for individual layer forward/backward behaviour. */

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "dnn/activation.hh"
#include "dnn/conv.hh"
#include "dnn/dropout.hh"
#include "dnn/fc.hh"
#include "dnn/lrn.hh"
#include "dnn/pool.hh"
#include "dnn/rnn.hh"

namespace cdma {
namespace {

Tensor4D
randomTensor(const Shape4D &shape, uint64_t seed)
{
    Rng rng(seed);
    Tensor4D t(shape);
    for (float &v : t.data())
        v = static_cast<float>(rng.normal(0.0, 0.5));
    return t;
}

std::vector<float>
values(const Tensor4D &t)
{
    return {t.data().begin(), t.data().end()};
}

/**
 * The no-copy contract: backward() reads the input and output it is
 * handed, not copies of an earlier forward(). backward(x1, y1, dy) after
 * an intervening forward(x2) must give exactly the input and parameter
 * gradients taken straight after forward(x1).
 */
void
expectBackwardReadsItsArguments(Layer &layer, const Shape4D &shape)
{
    const Tensor4D x1 = randomTensor(shape, 1);
    const Tensor4D x2 = randomTensor(shape, 2);
    const Tensor4D y1 = layer.forward(x1);
    const Tensor4D dy = randomTensor(y1.shape(), 3);

    const Tensor4D expected_dx = layer.backward(x1, y1, dy);
    std::vector<std::vector<float>> expected_grads;
    for (ParamBlob *blob : layer.params()) {
        expected_grads.push_back(blob->grad);
        blob->clearGrad();
    }

    layer.forward(x2);
    const Tensor4D dx = layer.backward(x1, y1, dy);
    EXPECT_EQ(values(dx), values(expected_dx));
    const std::vector<ParamBlob *> blobs = layer.params();
    for (size_t b = 0; b < blobs.size(); ++b)
        EXPECT_EQ(blobs[b]->grad, expected_grads[b]) << "param blob " << b;
}

TEST(LayerStash, ConvBackwardReadsItsArguments)
{
    Rng rng(20);
    Conv2D conv("conv", 2, ConvSpec{3, 3, 1, 1}, rng);
    expectBackwardReadsItsArguments(conv, Shape4D{2, 2, 5, 5});
}

TEST(LayerStash, FcBackwardReadsItsArguments)
{
    Rng rng(21);
    FullyConnected fc("fc", 12, 5, rng);
    expectBackwardReadsItsArguments(fc, Shape4D{3, 3, 2, 2});
}

TEST(LayerStash, ReluBackwardReadsItsArguments)
{
    ReLU relu("relu");
    expectBackwardReadsItsArguments(relu, Shape4D{2, 3, 4, 4});
}

TEST(LayerStash, SigmoidBackwardReadsItsArguments)
{
    Sigmoid sigmoid("sigmoid");
    expectBackwardReadsItsArguments(sigmoid, Shape4D{2, 3, 4, 4});
}

TEST(LayerStash, TanhBackwardReadsItsArguments)
{
    Tanh tanh_layer("tanh");
    expectBackwardReadsItsArguments(tanh_layer, Shape4D{2, 3, 4, 4});
}

TEST(LayerStash, RnnBackwardReadsItsArguments)
{
    Rng rng(22);
    Rnn rnn("rnn", 3, 4, RnnActivation::ReLU, rng);
    expectBackwardReadsItsArguments(rnn, Shape4D{2, 5, 1, 3});
}

TEST(ReluLayer, ThresholdsNegativesToExactZero)
{
    ReLU relu("relu");
    Tensor4D in(Shape4D{1, 1, 2, 2});
    in.at(0, 0, 0, 0) = -1.5f;
    in.at(0, 0, 0, 1) = 2.0f;
    in.at(0, 0, 1, 0) = 0.0f;
    in.at(0, 0, 1, 1) = -0.1f;
    const Tensor4D out = relu.forward(in);
    EXPECT_EQ(out.at(0, 0, 0, 0), 0.0f);
    EXPECT_EQ(out.at(0, 0, 0, 1), 2.0f);
    EXPECT_EQ(out.at(0, 0, 1, 0), 0.0f);
    EXPECT_EQ(out.at(0, 0, 1, 1), 0.0f);
    EXPECT_DOUBLE_EQ(out.density(), 0.25);
}

TEST(ReluLayer, BackwardMasksGradient)
{
    ReLU relu("relu");
    Tensor4D in(Shape4D{1, 1, 1, 3});
    in.at(0, 0, 0, 0) = -1.0f;
    in.at(0, 0, 0, 1) = 3.0f;
    in.at(0, 0, 0, 2) = 0.0f;
    const Tensor4D out = relu.forward(in);
    Tensor4D dy(in.shape());
    dy.fill(1.0f);
    const Tensor4D dx = relu.backward(in, out, dy);
    EXPECT_EQ(dx.at(0, 0, 0, 0), 0.0f);
    EXPECT_EQ(dx.at(0, 0, 0, 1), 1.0f);
    EXPECT_EQ(dx.at(0, 0, 0, 2), 0.0f);
}

TEST(ReluLayer, HalfDensityOnSymmetricInput)
{
    // Symmetric (zero-mean) pre-activations -> ~50% density, the paper's
    // conv0 observation.
    Rng rng(5);
    ReLU relu("relu");
    Tensor4D in(Shape4D{4, 16, 16, 16});
    for (float &v : in.data())
        v = static_cast<float>(rng.normal());
    const Tensor4D out = relu.forward(in);
    EXPECT_NEAR(out.density(), 0.5, 0.02);
}

TEST(SigmoidLayer, NeverProducesZeros)
{
    // Section III: sigmoid/tanh networks do not benefit from cDMA —
    // their activations are never exactly zero.
    Rng rng(6);
    Sigmoid sigmoid("sig");
    Tensor4D in(Shape4D{2, 4, 8, 8});
    for (float &v : in.data())
        v = static_cast<float>(rng.normal());
    const Tensor4D out = sigmoid.forward(in);
    EXPECT_DOUBLE_EQ(out.density(), 1.0);
}

TEST(TanhLayer, OutputBoundedAndDense)
{
    Rng rng(7);
    Tanh tanh_layer("tanh");
    Tensor4D in(Shape4D{1, 2, 4, 4});
    for (float &v : in.data())
        v = static_cast<float>(rng.normal(0.5, 2.0));
    const Tensor4D out = tanh_layer.forward(in);
    for (float v : out.data()) {
        EXPECT_GT(v, -1.0f);
        EXPECT_LT(v, 1.0f);
    }
    EXPECT_GT(out.density(), 0.99);
}

TEST(ConvLayer, IdentityKernelPassesThrough)
{
    Rng rng(8);
    Conv2D conv("conv", 1, ConvSpec{1, 1, 1, 0}, rng);
    // Overwrite random init with the identity kernel and zero bias.
    conv.params()[0]->value[0] = 1.0f;
    conv.params()[1]->value[0] = 0.0f;
    Tensor4D in(Shape4D{1, 1, 3, 3});
    for (int i = 0; i < 9; ++i)
        in.data()[static_cast<size_t>(i)] = static_cast<float>(i);
    const Tensor4D out = conv.forward(in);
    for (int i = 0; i < 9; ++i)
        EXPECT_FLOAT_EQ(out.data()[static_cast<size_t>(i)],
                        static_cast<float>(i));
}

TEST(ConvLayer, KnownConvolutionValue)
{
    Rng rng(9);
    Conv2D conv("conv", 1, ConvSpec{1, 3, 1, 0}, rng);
    auto params = conv.params();
    for (auto &w : params[0]->value)
        w = 1.0f; // box filter
    params[1]->value[0] = 0.5f;
    Tensor4D in(Shape4D{1, 1, 3, 3});
    in.fill(2.0f);
    const Tensor4D out = conv.forward(in);
    ASSERT_EQ(out.shape(), (Shape4D{1, 1, 1, 1}));
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 9 * 2.0f + 0.5f);
}

TEST(ConvLayer, StrideAndPadShapes)
{
    Rng rng(10);
    Conv2D conv("conv", 3, ConvSpec{8, 3, 2, 1}, rng);
    EXPECT_EQ(conv.outputShape(Shape4D{2, 3, 32, 32}),
              (Shape4D{2, 8, 16, 16}));
    EXPECT_EQ(Conv2D::forwardMacs(Shape4D{2, 3, 32, 32},
                                  ConvSpec{8, 3, 2, 1}),
              2ull * 8 * 16 * 16 * 3 * 3 * 3);
}

TEST(PoolLayer, MaxPicksWindowMaximum)
{
    Pool2D pool("pool", PoolSpec{2, 2, PoolMode::Max});
    Tensor4D in(Shape4D{1, 1, 2, 2});
    in.at(0, 0, 0, 0) = 1.0f;
    in.at(0, 0, 0, 1) = 4.0f;
    in.at(0, 0, 1, 0) = -2.0f;
    in.at(0, 0, 1, 1) = 3.0f;
    const Tensor4D out = pool.forward(in);
    ASSERT_EQ(out.elements(), 1);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 4.0f);
}

TEST(PoolLayer, AvgComputesWindowMean)
{
    Pool2D pool("pool", PoolSpec{2, 2, PoolMode::Avg});
    Tensor4D in(Shape4D{1, 1, 2, 2});
    in.at(0, 0, 0, 0) = 1.0f;
    in.at(0, 0, 0, 1) = 2.0f;
    in.at(0, 0, 1, 0) = 3.0f;
    in.at(0, 0, 1, 1) = 6.0f;
    const Tensor4D out = pool.forward(in);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 3.0f);
}

TEST(PoolLayer, MaxPoolIncreasesDensity)
{
    // Section IV-A: "pooling layers always increase activation density".
    Rng rng(11);
    Tensor4D in(Shape4D{2, 8, 16, 16});
    for (float &v : in.data())
        v = rng.bernoulli(0.4)
            ? static_cast<float>(std::abs(rng.normal())) : 0.0f;
    Pool2D pool("pool", PoolSpec{2, 2, PoolMode::Max});
    const Tensor4D out = pool.forward(in);
    EXPECT_GT(out.density(), in.density());
}

TEST(PoolLayer, MaxBackwardRoutesToArgmax)
{
    Pool2D pool("pool", PoolSpec{2, 2, PoolMode::Max});
    Tensor4D in(Shape4D{1, 1, 2, 2});
    in.at(0, 0, 0, 0) = 1.0f;
    in.at(0, 0, 0, 1) = 4.0f;
    in.at(0, 0, 1, 0) = -2.0f;
    in.at(0, 0, 1, 1) = 3.0f;
    const Tensor4D out = pool.forward(in);
    Tensor4D dy(Shape4D{1, 1, 1, 1});
    dy.fill(5.0f);
    const Tensor4D dx = pool.backward(in, out, dy);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 1), 5.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 0, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 0), 0.0f);
    EXPECT_FLOAT_EQ(dx.at(0, 0, 1, 1), 0.0f);
}

TEST(PoolLayer, CeilModePartialWindows)
{
    Pool2D pool("pool", PoolSpec{3, 2, PoolMode::Max});
    // 5x5 with k3 s2 ceil mode -> 2x2 output.
    EXPECT_EQ(pool.outputShape(Shape4D{1, 1, 5, 5}),
              (Shape4D{1, 1, 2, 2}));
    // 6x6 -> ceil((6-3)/2)+1 = 3.
    EXPECT_EQ(pool.outputShape(Shape4D{1, 1, 6, 6}),
              (Shape4D{1, 1, 3, 3}));
}

TEST(FcLayer, KnownAffineTransform)
{
    Rng rng(12);
    FullyConnected fc("fc", 3, 2, rng);
    auto params = fc.params();
    // W = [[1,2,3],[4,5,6]], b = [0.5, -0.5]
    for (int i = 0; i < 6; ++i)
        params[0]->value[static_cast<size_t>(i)] =
            static_cast<float>(i + 1);
    params[1]->value[0] = 0.5f;
    params[1]->value[1] = -0.5f;
    Tensor4D in(Shape4D{1, 3, 1, 1});
    in.at(0, 0, 0, 0) = 1.0f;
    in.at(0, 1, 0, 0) = 1.0f;
    in.at(0, 2, 0, 0) = 1.0f;
    const Tensor4D out = fc.forward(in);
    EXPECT_FLOAT_EQ(out.at(0, 0, 0, 0), 6.5f);
    EXPECT_FLOAT_EQ(out.at(0, 1, 0, 0), 14.5f);
}

TEST(FcLayer, FlattensSpatialInput)
{
    Rng rng(13);
    FullyConnected fc("fc", 2 * 3 * 3, 4, rng);
    Tensor4D in(Shape4D{2, 2, 3, 3});
    in.fill(1.0f);
    const Tensor4D out = fc.forward(in);
    EXPECT_EQ(out.shape(), (Shape4D{2, 4, 1, 1}));
}

TEST(DropoutLayer, TrainingZerosApproximatelyRate)
{
    Rng rng(14);
    Dropout dropout("drop", 0.5f, rng);
    dropout.setTraining(true);
    Tensor4D in(Shape4D{1, 1, 100, 100});
    in.fill(1.0f);
    const Tensor4D out = dropout.forward(in);
    EXPECT_NEAR(out.density(), 0.5, 0.05);
}

TEST(DropoutLayer, InferenceIsIdentity)
{
    Rng rng(15);
    Dropout dropout("drop", 0.5f, rng);
    dropout.setTraining(false);
    Tensor4D in(Shape4D{1, 1, 4, 4});
    in.fill(2.0f);
    const Tensor4D out = dropout.forward(in);
    for (float v : out.data())
        EXPECT_FLOAT_EQ(v, 2.0f);
}

TEST(DropoutLayer, InvertedScalingPreservesExpectation)
{
    Rng rng(16);
    Dropout dropout("drop", 0.5f, rng);
    dropout.setTraining(true);
    Tensor4D in(Shape4D{1, 1, 128, 128});
    in.fill(1.0f);
    const Tensor4D out = dropout.forward(in);
    double sum = 0.0;
    for (float v : out.data())
        sum += v;
    // E[output] = input with inverted dropout.
    EXPECT_NEAR(sum / static_cast<double>(out.elements()), 1.0, 0.06);
}

TEST(LrnLayer, PreservesZerosAndShape)
{
    // LRN rescales by a positive factor, so zero stays exactly zero —
    // the property that lets us treat it as sparsity-transparent.
    Lrn lrn("lrn");
    Tensor4D in(Shape4D{1, 8, 4, 4});
    Rng rng(17);
    for (float &v : in.data())
        v = rng.bernoulli(0.5)
            ? static_cast<float>(std::abs(rng.normal())) : 0.0f;
    const Tensor4D out = lrn.forward(in);
    EXPECT_EQ(out.shape(), in.shape());
    EXPECT_EQ(out.zeroCount(), in.zeroCount());
}

TEST(LrnLayer, NormalizesLargeActivityDown)
{
    Lrn lrn("lrn");
    Tensor4D in(Shape4D{1, 5, 1, 1});
    in.fill(10.0f);
    const Tensor4D out = lrn.forward(in);
    // Denominator > 1 -> outputs shrink.
    for (float v : out.data())
        EXPECT_LT(v, 10.0f);
}

} // namespace
} // namespace cdma
