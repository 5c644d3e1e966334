#include "dnn/network.hh"

#include "common/logging.hh"

namespace cdma {

Layer &
Network::add(LayerPtr layer)
{
    CDMA_ASSERT(layer != nullptr, "cannot add a null layer");
    layers_.push_back(std::move(layer));
    // Maintain the relu-follows annotation: when a ReLU is appended, the
    // producing layer before it becomes sparsity-bearing.
    const size_t n = layers_.size();
    if (n >= 2 && layers_[n - 1]->type() == "relu")
        layers_[n - 2]->setReluFollows(true);
    return *layers_.back();
}

Shape4D
Network::outputShape(const Shape4D &input) const
{
    Shape4D shape = input;
    for (const auto &layer : layers_)
        shape = layer->outputShape(shape);
    return shape;
}

const Tensor4D &
Network::forward(const Tensor4D &input)
{
    CDMA_ASSERT(!layers_.empty(), "forward through an empty network");
    input_ = input;
    forwardChain(layers_, input_, outputs_);
    return outputs_.back();
}

void
Network::backward(const Tensor4D &loss_grad)
{
    CDMA_ASSERT(outputs_.size() == layers_.size(),
                "backward before forward");
    backwardChain(layers_, input_, outputs_, loss_grad);
}

void
Network::step(const SgdConfig &config)
{
    for (auto &layer : layers_) {
        for (ParamBlob *blob : layer->params()) {
            blob->apply(config);
            blob->clearGrad();
        }
    }
}

void
Network::zeroGrads()
{
    for (auto &layer : layers_) {
        for (ParamBlob *blob : layer->params())
            blob->clearGrad();
    }
}

void
Network::setTraining(bool training)
{
    for (auto &layer : layers_)
        layer->setTraining(training);
}

bool
Network::isInPlaceType(const std::string &type)
{
    return type == "relu" || type == "lrn" || type == "dropout" ||
        type == "sigmoid" || type == "tanh";
}

std::vector<ActivationRecord>
Network::activationRecords() const
{
    CDMA_ASSERT(outputs_.size() == layers_.size(),
                "activationRecords before forward");
    std::vector<ActivationRecord> records;
    for (size_t i = 0; i < layers_.size(); ++i) {
        if (isInPlaceType(layers_[i]->type()))
            continue;
        // The blob this layer produces is observed after the run of
        // in-place layers following it.
        size_t last = i;
        bool relu_applied = false;
        while (last + 1 < layers_.size() &&
               isInPlaceType(layers_[last + 1]->type())) {
            ++last;
            relu_applied |= layers_[last]->type() == "relu";
        }
        ActivationRecord record;
        record.label = layers_[i]->name();
        record.type = layers_[i]->type();
        record.shape = outputs_[last].shape();
        record.density = outputs_[last].density();
        record.output_index = last;
        record.relu_sparse = relu_applied || layers_[i]->type() == "pool";
        records.push_back(std::move(record));
    }
    return records;
}

uint64_t
Network::paramCount() const
{
    uint64_t count = 0;
    for (const auto &layer : layers_) {
        // params() is non-const by design (the optimizer mutates blobs);
        // cast is safe for counting.
        for (ParamBlob *blob : const_cast<Layer &>(*layer).params())
            count += blob->value.size();
    }
    return count;
}

} // namespace cdma
