#include "dnn/layer.hh"

#include <algorithm>

#include "common/logging.hh"

namespace cdma {

void
ParamBlob::clearGrad()
{
    std::fill(grad.begin(), grad.end(), 0.0f);
}

void
ParamBlob::apply(const SgdConfig &config)
{
    for (size_t i = 0; i < value.size(); ++i) {
        const float g = grad[i] + config.weight_decay * value[i];
        momentum[i] = config.momentum * momentum[i] -
            config.learning_rate * g;
        value[i] += momentum[i];
    }
}

Layer::Layer(std::string name) : name_(std::move(name))
{
}

const float *
sampleData(const Tensor4D &t, int64_t n)
{
    CDMA_ASSERT(t.layout() == Layout::NCHW,
                "layers run on NCHW tensors, got %s",
                layoutName(t.layout()).c_str());
    const Shape4D &s = t.shape();
    return t.data().data() + n * s.c * s.h * s.w;
}

float *
sampleData(Tensor4D &t, int64_t n)
{
    return const_cast<float *>(
        sampleData(static_cast<const Tensor4D &>(t), n));
}

void
forwardChain(std::vector<LayerPtr> &layers, const Tensor4D &input,
             std::vector<Tensor4D> &outputs)
{
    outputs.clear();
    outputs.reserve(layers.size());
    const Tensor4D *current = &input;
    for (auto &layer : layers) {
        outputs.push_back(layer->forward(*current));
        current = &outputs.back();
    }
}

Tensor4D
backwardChain(std::vector<LayerPtr> &layers, const Tensor4D &input,
              const std::vector<Tensor4D> &outputs, Tensor4D grad)
{
    for (size_t i = layers.size(); i-- > 0;)
        grad = layers[i]->backward(i == 0 ? input : outputs[i - 1],
                                   outputs[i], grad);
    return grad;
}

} // namespace cdma
