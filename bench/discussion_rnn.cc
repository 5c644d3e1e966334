/**
 * @file
 * Section III discussion, made quantitative: cDMA applies to the
 * GEMV-based ReLU RNNs used for speech recognition (Deep Speech) but is
 * "less well-suited for RNNs based on LSTMs or GRUs, as they employ
 * sigmoid and tanh activation functions". Trains two identical Elman
 * RNNs — one ReLU, one tanh — on a synthetic sequence-classification
 * task and compresses their hidden-state sequences (the activations a
 * virtualized RNN trainer would offload) with all three codecs.
 */

#include <cstdio>

#include "common/harness.hh"
#include "dnn/fc.hh"
#include "dnn/loss.hh"
#include "dnn/rnn.hh"

using namespace cdma;
using bench::Table;

namespace {

/**
 * Synthetic sequence task: classify by which feature dimension carries
 * the strongest mean signal over time.
 */
Minibatch
makeSequenceBatch(Rng &rng, int64_t batch, int64_t steps,
                  int64_t features, int64_t classes)
{
    Minibatch out{Tensor4D(Shape4D{batch, steps, 1, features}),
                  std::vector<int>(static_cast<size_t>(batch), 0)};
    for (int64_t n = 0; n < batch; ++n) {
        const int label =
            static_cast<int>(rng.uniformInt(static_cast<uint64_t>(
                classes)));
        out.labels[static_cast<size_t>(n)] = label;
        for (int64_t t = 0; t < steps; ++t) {
            for (int64_t f = 0; f < features; ++f) {
                double v = rng.normal(0.0, 0.5);
                if (f % classes == label)
                    v += 1.0;
                out.images.at(n, t, 0, f) = static_cast<float>(v);
            }
        }
    }
    return out;
}

/** Train one RNN + classifier head; return the trained RNN states. */
Tensor4D
trainAndCapture(RnnActivation activation, double *final_accuracy)
{
    constexpr int64_t kBatch = 16, kSteps = 24, kFeatures = 16;
    constexpr int64_t kHidden = 48, kClasses = 4;
    constexpr int kIterations = 120;

    Rng rng(321);
    Rnn rnn("rnn", kFeatures, kHidden, activation, rng);
    // Classify from the last hidden state, flattened via FC over all
    // steps for simplicity.
    FullyConnected head("head", kSteps * kHidden, kClasses, rng);
    SoftmaxCrossEntropy loss;
    Rng data_rng(654);

    double accuracy = 0.0;
    for (int iter = 0; iter < kIterations; ++iter) {
        Minibatch batch = makeSequenceBatch(data_rng, kBatch, kSteps,
                                            kFeatures, kClasses);
        const Tensor4D states = rnn.forward(batch.images);
        const Tensor4D logits = head.forward(states);
        loss.forward(logits, batch.labels);
        accuracy = loss.accuracy();
        const Tensor4D dlogits = loss.backward();
        const Tensor4D dstates = head.backward(states, logits, dlogits);
        rnn.backward(batch.images, states, dstates);
        const SgdConfig sgd{0.05f, 0.9f, 0.0f};
        for (ParamBlob *blob : rnn.params()) {
            blob->apply(sgd);
            blob->clearGrad();
        }
        for (ParamBlob *blob : head.params()) {
            blob->apply(sgd);
            blob->clearGrad();
        }
    }
    *final_accuracy = accuracy;

    Minibatch batch = makeSequenceBatch(data_rng, kBatch, kSteps,
                                        kFeatures, kClasses);
    return rnn.forward(batch.images);
}

} // namespace

int
main()
{
    std::printf("== Section III: RNN hidden-state compressibility ==\n");
    Table table({"activation", "train acc", "state density", "RL", "ZV",
                 "ZL"});
    for (RnnActivation activation :
         {RnnActivation::ReLU, RnnActivation::Tanh}) {
        double accuracy = 0.0;
        const Tensor4D states = trainAndCapture(activation, &accuracy);
        std::vector<std::string> row = {
            activation == RnnActivation::ReLU ? "ReLU (Deep Speech)"
                                              : "tanh (LSTM-class)",
            Table::num(accuracy, 2),
            Table::num(states.density(), 2),
        };
        for (Algorithm algorithm : kAllAlgorithms) {
            const auto compressor = makeCompressor(algorithm);
            row.push_back(Table::num(
                compressor->measureRatio(states.rawBytes()), 2) + "x");
        }
        table.addRow(row);
    }
    table.print();
    std::printf("\n(ReLU RNN states compress like CNN activations; "
                "tanh states are never exactly zero, so cDMA buys "
                "~nothing — the paper's Section III claim)\n");
    return 0;
}
