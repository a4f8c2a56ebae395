#include "model.h"

#include <cmath>
#include <memory>

#include "core/adaptation_store.h"
#include "core/multitask.h"
#include "core/forward_plan.h"
#include "core/threshold_mask.h"
#include "util.h"

namespace perfbench {

namespace {

constexpr std::uint64_t kModelSeed = 0x4d494d45;  // fixed: "MIME"

void fill_normal(mime::Tensor& tensor, SplitMix& rng, double stddev) {
    float* data = tensor.data();
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
        data[i] = static_cast<float>(rng.normal() * stddev);
    }
}

/// Share of each site's channels a task keeps live.
constexpr double kKeep = 0.5;

/// He-normal weights scaled up for the share of input channels the
/// tasks keep live, so activations keep unit scale through all fifteen
/// layers instead of vanishing (which would leave every logit equal to
/// the head bias). The first conv sees the whole image.
void init_backbone(mime::core::MimeNetwork& network, SplitMix& rng) {
    bool first = true;
    for (mime::nn::Parameter* param : network.backbone_parameters()) {
        const mime::Shape& shape = param->value.shape();
        if (shape.rank() >= 2) {
            const double fan_in =
                static_cast<double>(shape.numel() / shape.dim(0));
            const double live_fan_in = first ? fan_in : fan_in * kKeep;
            fill_normal(param->value, rng,
                        std::sqrt((first ? 1.0 : 2.0) / live_fan_in));
            first = false;
        } else {
            fill_normal(param->value, rng, 0.01);
        }
    }
}

/// Per task: each site keeps a random kKeep share of its channels and
/// structurally prunes the rest; live neurons get a per-task threshold
/// (activations are near unit scale), so tasks differ in their
/// input-dependent sparsity too.
void set_task_thresholds(mime::core::MimeNetwork& network, SplitMix& rng) {
    const auto live_threshold = static_cast<float>(0.4 * rng.uniform());
    for (std::int64_t s = 0; s < network.site_count(); ++s) {
        mime::core::ThresholdMask& mask = network.site(s).mask();
        mime::Tensor& t = mask.thresholds().value;
        const std::int64_t channels = mask.activation_shape().dim(0);
        const std::int64_t extent = mask.activation_shape().numel() / channels;
        const auto first_live =
            static_cast<std::int64_t>(rng.next() % static_cast<std::uint64_t>(channels));
        for (std::int64_t c = 0; c < channels; ++c) {
            const bool live = c == first_live || rng.uniform() < kKeep;
            const float value =
                live ? live_threshold : mime::core::kPrunedThreshold;
            for (std::int64_t i = 0; i < extent; ++i) {
                t.data()[c * extent + i] = value;
            }
        }
        mask.mark_thresholds_dirty();
    }
}

void set_head(mime::core::MimeNetwork& network, SplitMix& rng) {
    auto params = network.backbone_parameters();
    mime::Tensor& weight = params[params.size() - 2]->value;
    mime::Tensor& bias = params[params.size() - 1]->value;
    fill_normal(weight, rng,
                std::sqrt(2.0 / (kKeep * static_cast<double>(weight.shape().dim(1)))));
    fill_normal(bias, rng, 0.01);
}

/// The same install the serving path performs: thresholds + task head.
void install(mime::core::MimeNetwork& network,
             const mime::core::TaskAdaptation& adaptation) {
    network.load_thresholds(adaptation.thresholds);
    auto params = network.backbone_parameters();
    params[params.size() - 2]->value.copy_from(adaptation.head_weight);
    params[params.size() - 1]->value.copy_from(adaptation.head_bias);
}

}  // namespace

mime::core::MimeNetworkConfig network_config() {
    mime::core::MimeNetworkConfig config;
    config.vgg.input_size = 32;
    config.vgg.width_scale = 0.0625;
    config.vgg.num_classes = kClasses;
    config.seed = kModelSeed;
    return config;
}

std::vector<std::string> write_store(const std::string& directory,
                                     std::int64_t task_count) {
    SplitMix rng(kModelSeed);
    mime::core::MimeNetwork network(network_config());
    init_backbone(network, rng);
    mime::core::AdaptationStore store(directory);
    store.save_backbone(network);

    std::vector<std::string> names;
    for (std::int64_t t = 0; t < task_count; ++t) {
        const std::string name = (t < 10 ? "t0" : "t") + std::to_string(t);
        set_task_thresholds(network, rng);
        set_head(network, rng);
        store.save_task(
            mime::core::capture_adaptation(network, name, kClasses));
        names.emplace_back(name);
    }
    return names;
}

std::vector<mime::Tensor> make_images(std::uint64_t seed, std::int64_t count) {
    SplitMix rng(seed ^ 0x696d616765735eULL);
    std::vector<mime::Tensor> images;
    images.reserve(static_cast<std::size_t>(count));
    for (std::int64_t i = 0; i < count; ++i) {
        mime::Tensor image({3, 32, 32});
        fill_normal(image, rng, 1.0);
        images.push_back(std::move(image));
    }
    return images;
}

Oracle compute_oracle(const std::string& directory,
                      const std::vector<std::string>& task_names,
                      const std::vector<mime::Tensor>& images, bool int8) {
    mime::core::AdaptationStore store(directory);
    const auto open_network = [&store] {
        auto network =
            std::make_unique<mime::core::MimeNetwork>(network_config());
        store.load_backbone(*network);
        network->set_training(false);
        network->set_eval_mode(true);
        network->set_mode(mime::core::ActivationMode::threshold);
        return network;
    };
    const auto network_ptr = open_network();
    mime::core::MimeNetwork& network = *network_ptr;

    Oracle oracle;
    oracle.task_names = task_names;
    oracle.image_count = static_cast<std::int64_t>(images.size());
    for (const std::string& name : task_names) {
        const mime::core::TaskAdaptation adaptation = store.load_task(name);
        std::int64_t bytes = adaptation.head_weight.numel() +
                             adaptation.head_bias.numel();
        for (const mime::Tensor& t : adaptation.thresholds.thresholds) {
            bytes += t.numel();
        }
        oracle.adaptation_bytes =
            bytes * static_cast<std::int64_t>(sizeof(float));
        install(network, adaptation);
        for (const mime::Tensor& image : images) {
            const mime::Tensor logits =
                network.forward(image.reshaped(mime::Shape({1, 3, 32, 32})));
            std::int64_t best = 0;
            for (std::int64_t c = 0; c < kClasses; ++c) {
                oracle.logits.push_back(logits.data()[c]);
                if (logits.data()[c] > logits.data()[best]) {
                    best = c;
                }
            }
            oracle.top1.push_back(best);
        }
        if (int8) {
            // A fresh network per task: its plan is built after the
            // task's install and serves no other task.
            const auto quantized = open_network();
            quantized->set_quantized_execution({true});
            install(*quantized, adaptation);
            mime::Workspace workspace;
            for (const mime::Tensor& image : images) {
                mime::Tensor& slab = quantized->plan_for(1).input_slab();
                slab.copy_from(image.reshaped(mime::Shape({1, 3, 32, 32})));
                const mime::Tensor& logits =
                    quantized->forward_planned(slab, workspace);
                oracle.int8_logits.insert(oracle.int8_logits.end(),
                                          logits.data(),
                                          logits.data() + kClasses);
            }
        }
    }
    return oracle;
}

}  // namespace perfbench
