#include "dnn/composite.hh"

#include "common/logging.hh"

namespace cdma {

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

    int64_t channel_base = 0;
    for (size_t b = 0; b < branches_.size(); ++b) {
        forwardChain(branches_[b], input, branch_outputs_[b]);
        const Tensor4D &value = branch_outputs_[b].back();
        const Shape4D &bs = value.shape();
        for (int64_t n = 0; n < bs.n; ++n)
            for (int64_t c = 0; c < bs.c; ++c)
                for (int64_t h = 0; h < bs.h; ++h)
                    for (int64_t w = 0; w < bs.w; ++w)
                        output.at(n, channel_base + c, h, w) =
                            value.at(n, c, h, w);
        channel_base += bs.c;
    }
    return output;
}

Tensor4D
ParallelConcat::backward(const Tensor4D &input, const Tensor4D &output,
                         const Tensor4D &output_grad)
{
    (void)output;
    Tensor4D input_grad; // initialized by the first branch

    int64_t channel_base = 0;
    for (size_t b = 0; b < branches_.size(); ++b) {
        const Shape4D &bs = branch_outputs_[b].back().shape();
        Tensor4D branch_grad(bs);
        for (int64_t n = 0; n < bs.n; ++n)
            for (int64_t c = 0; c < bs.c; ++c)
                for (int64_t h = 0; h < bs.h; ++h)
                    for (int64_t w = 0; w < bs.w; ++w)
                        branch_grad.at(n, c, h, w) =
                            output_grad.at(n, channel_base + c, h, w);
        channel_base += bs.c;

        Tensor4D grad = backwardChain(branches_[b], input,
                                      branch_outputs_[b],
                                      std::move(branch_grad));
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
