#include "dnn/composite.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cdma {

namespace {

/**
 * Copy @p channels channels of every sample, from channel @p from_base
 * of @p from to channel @p to_base of @p to (same N, H and W).
 */
void
copyChannels(const Tensor4D &from, int64_t from_base, Tensor4D &to,
             int64_t to_base, int64_t channels)
{
    const int64_t plane = from.shape().h * from.shape().w;
    for (int64_t n = 0; n < from.shape().n; ++n) {
        const float *src = sampleData(from, n) + from_base * plane;
        std::copy(src, src + channels * plane,
                  sampleData(to, n) + to_base * plane);
    }
}

/** Channels [base, base + shape.c) of @p module, shaped @p shape. */
Tensor4D
channelSlice(const Tensor4D &module, int64_t base, const Shape4D &shape)
{
    Tensor4D slice(shape);
    copyChannels(module, base, slice, 0, shape.c);
    return slice;
}

} // namespace

ParallelConcat::ParallelConcat(std::string name,
                               std::vector<Branch> branches)
    : Layer(std::move(name)), branches_(std::move(branches)),
      branch_outputs_(branches_.size())
{
    CDMA_ASSERT(!branches_.empty(), "concat %s needs at least one branch",
                this->name().c_str());
    for (const auto &branch : branches_) {
        CDMA_ASSERT(!branch.empty(),
                    "concat %s has an empty branch", this->name().c_str());
    }
}

Shape4D
ParallelConcat::branchOutputShape(const Branch &branch,
                                  const Shape4D &input) const
{
    Shape4D shape = input;
    for (const auto &layer : branch)
        shape = layer->outputShape(shape);
    return shape;
}

Shape4D
ParallelConcat::outputShape(const Shape4D &input) const
{
    Shape4D out = branchOutputShape(branches_.front(), input);
    int64_t channels = out.c;
    for (size_t b = 1; b < branches_.size(); ++b) {
        const Shape4D shape = branchOutputShape(branches_[b], input);
        CDMA_ASSERT(shape.n == out.n && shape.h == out.h &&
                        shape.w == out.w,
                    "concat %s branch %zu shape %s mismatches %s",
                    name().c_str(), b, shape.str().c_str(),
                    out.str().c_str());
        channels += shape.c;
    }
    out.c = channels;
    return out;
}

Tensor4D
ParallelConcat::forward(const Tensor4D &input)
{
    const Shape4D out_shape = outputShape(input.shape());
    Tensor4D output(out_shape);

    // A branch's final output lives on only as its channel slice of the
    // module output; backward() copies it back from there.
    int64_t channel_base = 0;
    for (size_t b = 0; b < branches_.size(); ++b) {
        std::vector<Tensor4D> &stash = branch_outputs_[b];
        forwardChain(branches_[b], input, stash);
        const int64_t channels = stash.back().shape().c;
        copyChannels(stash.back(), 0, output, channel_base, channels);
        channel_base += channels;
        stash.pop_back();
    }
    return output;
}

Tensor4D
ParallelConcat::backward(const Tensor4D &input, const Tensor4D &output,
                         const Tensor4D &output_grad)
{
    Tensor4D input_grad; // initialized by the first branch

    int64_t channel_base = 0;
    for (size_t b = 0; b < branches_.size(); ++b) {
        const Shape4D bs = branchOutputShape(branches_[b], input.shape());
        std::vector<Tensor4D> &stash = branch_outputs_[b];
        stash.push_back(channelSlice(output, channel_base, bs));
        Tensor4D grad =
            backwardChain(branches_[b], input, stash,
                          channelSlice(output_grad, channel_base, bs));
        stash.pop_back();
        channel_base += bs.c;

        if (b == 0) {
            input_grad = std::move(grad);
        } else {
            auto dst = input_grad.data();
            auto src = grad.data();
            for (size_t i = 0; i < dst.size(); ++i)
                dst[i] += src[i];
        }
    }
    return input_grad;
}

uint64_t
ParallelConcat::forwardMacsPerImage(const Shape4D &input) const
{
    Shape4D one = input;
    one.n = 1;
    uint64_t total = 0;
    for (const auto &branch : branches_) {
        Shape4D shape = one;
        for (const auto &layer : branch) {
            total += layer->forwardMacsPerImage(shape);
            shape = layer->outputShape(shape);
        }
    }
    return total;
}

std::vector<ParamBlob *>
ParallelConcat::params()
{
    std::vector<ParamBlob *> all;
    for (auto &branch : branches_) {
        for (auto &layer : branch) {
            for (ParamBlob *blob : layer->params())
                all.push_back(blob);
        }
    }
    return all;
}

void
ParallelConcat::setTraining(bool training)
{
    Layer::setTraining(training);
    for (auto &branch : branches_) {
        for (auto &layer : branch)
            layer->setTraining(training);
    }
}

} // namespace cdma
