// Task adaptations for the serving test fixtures. Each task differs from
// its siblings in everything a task install touches: the threshold
// values, which channels are structurally pruned (so each task has its
// own live sets, and with them its own skipped work), and the classifier
// head. A stale threshold, live-set or head install therefore changes
// the served logits, and the fixtures' bit-match tests catch it.
#pragma once

#include <cstdint>
#include <string>

#include "common/rng.h"
#include "core/mime_network.h"
#include "core/multitask.h"
#include "core/threshold_mask.h"

namespace mime::testing_support {

/// Installs task `index`'s thresholds (`threshold` on live neurons;
/// channel c pruned iff (c + index) % 3 == 0) and head into `network`,
/// then captures them as an adaptation.
inline core::TaskAdaptation make_distinct_task(core::MimeNetwork& network,
                                               const std::string& name,
                                               float threshold,
                                               std::int64_t index) {
    for (std::int64_t s = 0; s < network.site_count(); ++s) {
        core::ThresholdMask& mask = network.site(s).mask();
        Tensor& t = mask.thresholds().value;
        const std::int64_t channels = mask.activation_shape().dim(0);
        const std::int64_t extent = mask.activation_shape().numel() / channels;
        for (std::int64_t c = 0; c < channels; ++c) {
            const float value =
                (c + index) % 3 == 0 ? core::kPrunedThreshold : threshold;
            for (std::int64_t i = 0; i < extent; ++i) {
                t.data()[c * extent + i] = value;
            }
        }
        mask.mark_thresholds_dirty();
    }
    Rng rng(static_cast<std::uint64_t>(1000 + index));
    auto backbone = network.backbone_parameters();
    Tensor& weight = backbone[backbone.size() - 2]->value;
    Tensor& bias = backbone[backbone.size() - 1]->value;
    weight.copy_from(Tensor::randn(weight.shape(), rng, 0.0f, 0.3f));
    bias.copy_from(Tensor::randn(bias.shape(), rng, 0.0f, 0.1f));
    return core::capture_adaptation(network, name, bias.numel());
}

/// Installs an adaptation the way serving does: thresholds plus head.
inline void install_task(core::MimeNetwork& network,
                         const core::TaskAdaptation& adaptation) {
    network.load_thresholds(adaptation.thresholds);
    auto backbone = network.backbone_parameters();
    backbone[backbone.size() - 2]->value.copy_from(adaptation.head_weight);
    backbone[backbone.size() - 1]->value.copy_from(adaptation.head_bias);
}

}  // namespace mime::testing_support
