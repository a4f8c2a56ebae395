#include "core/threshold_mask.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace mime::core {

namespace {

// Fused mask apply + zero count over one sample: y[i] = y[i] if
// y[i] - t[i] >= 0 else 0. The vector path compares the literal
// subtraction against zero (not y >= t) so inf/NaN edge cases keep the
// exact scalar semantics: inf - inf = NaN compares false either way.
// _CMP_GE_OQ is the ordered quiet >=, matching scalar >= on NaN (false).
std::int64_t apply_mask(float* y, const float* t, std::int64_t count) {
    std::int64_t zeros = 0;
    std::int64_t i = 0;
#if defined(__AVX2__)
    const __m256 zero = _mm256_setzero_ps();
    for (; i + 8 <= count; i += 8) {
        const __m256 vy = _mm256_loadu_ps(y + i);
        const __m256 vt = _mm256_loadu_ps(t + i);
        const __m256 keep =
            _mm256_cmp_ps(_mm256_sub_ps(vy, vt), zero, _CMP_GE_OQ);
        _mm256_storeu_ps(y + i, _mm256_and_ps(vy, keep));
        zeros += 8 - __builtin_popcount(static_cast<unsigned>(
                         _mm256_movemask_ps(keep)));
    }
#endif
    for (; i < count; ++i) {
        if (y[i] - t[i] >= 0.0f) {
            // keep y[i]
        } else {
            y[i] = 0.0f;
            ++zeros;
        }
    }
    return zeros;
}

// Below this many neurons per channel (flat masks have one), a call
// per live channel costs more than masking the whole sample.
constexpr std::int64_t kMinSkippedExtent = 8;

}  // namespace

float SteConfig::operator()(float x) const {
    const float ax = std::abs(x);
    if (ax <= inner_width) {
        const float slope = (inner_peak - outer_value) / inner_width;
        return inner_peak - slope * ax;
    }
    if (ax <= outer_width) {
        return outer_value;
    }
    return 0.0f;
}

void SteConfig::validate() const {
    MIME_REQUIRE(inner_width > 0.0f, "ste inner_width must be positive");
    MIME_REQUIRE(outer_width >= inner_width,
                 "ste outer_width must be >= inner_width");
    MIME_REQUIRE(inner_peak > 0.0f, "ste inner_peak must be positive");
    MIME_REQUIRE(outer_value >= 0.0f && outer_value <= inner_peak,
                 "ste outer_value must be in [0, inner_peak]");
}

ThresholdMask::ThresholdMask(Shape activation_shape, float initial_threshold,
                             SteConfig ste)
    : activation_shape_(std::move(activation_shape)), ste_(ste) {
    ste_.validate();
    MIME_REQUIRE(activation_shape_.rank() >= 1,
                 "threshold mask needs a non-scalar activation shape");
    thresholds_ = nn::Parameter(
        "thresholds", Tensor::full(activation_shape_, initial_threshold));
}

Tensor ThresholdMask::forward(const Tensor& input) {
    MIME_REQUIRE(input.shape().rank() == activation_shape_.rank() + 1,
                 "ThresholdMask expects batched input, got " +
                     input.shape().to_string() + " for activation " +
                     activation_shape_.to_string());
    const std::int64_t per_sample = activation_shape_.numel();
    const std::int64_t batch = input.shape().dim(0);
    MIME_REQUIRE(input.numel() == batch * per_sample,
                 "ThresholdMask activation shape mismatch: input " +
                     input.shape().to_string() + " vs " +
                     activation_shape_.to_string());

    if (eval_mode()) {
        Tensor output = input;
        forward_eval_inplace(output);
        return output;
    }

    cached_input_ = input;
    cached_mask_ = Tensor(input.shape());
    Tensor output(input.shape());
    const float* t = thresholds_.value.data();

    std::int64_t zeros = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        const float* y = input.data() + n * per_sample;
        float* m = cached_mask_.data() + n * per_sample;
        float* a = output.data() + n * per_sample;
        for (std::int64_t i = 0; i < per_sample; ++i) {
            if (y[i] - t[i] >= 0.0f) {
                m[i] = 1.0f;
                a[i] = y[i];
            } else {
                m[i] = 0.0f;
                a[i] = 0.0f;
                ++zeros;
            }
        }
    }
    last_sparsity_ =
        static_cast<double>(zeros) / static_cast<double>(input.numel());
    return output;
}

void ThresholdMask::forward_eval_inplace(Tensor& activations) {
    const std::int64_t per_sample = activation_shape_.numel();
    const std::int64_t batch = activations.shape().dim(0);
    MIME_REQUIRE(activations.numel() == batch * per_sample,
                 "ThresholdMask activation shape mismatch: " +
                     activations.shape().to_string() + " vs " +
                     activation_shape_.to_string());
    const float* t = thresholds_.value.data();
    const ActiveSet& as = active_set();
    const std::int64_t extent = per_sample / as.channels;
    std::int64_t zeros = 0;
    for (std::int64_t n = 0; n < batch; ++n) {
        float* y = activations.data() + n * per_sample;
        if (static_cast<std::int64_t>(as.live_channels.size()) ==
                as.channels ||
            extent < kMinSkippedExtent) {
            zeros += apply_mask(y, t, per_sample);
            continue;
        }
        // A channel with no live neuron has only +inf/NaN thresholds, so
        // the compare fails for every value (NaN included): write the
        // zeros directly, and mask the live channels as usual.
        std::int64_t c = 0;
        for (const std::int64_t live : as.live_channels) {
            std::fill(y + c * extent, y + live * extent, 0.0f);
            zeros += (live - c) * extent;
            zeros += apply_mask(y + live * extent, t + live * extent, extent);
            c = live + 1;
        }
        std::fill(y + c * extent, y + per_sample, 0.0f);
        zeros += per_sample - c * extent;
    }
    last_sparsity_ = static_cast<double>(zeros) /
                     static_cast<double>(activations.numel());
}

const ActiveSet& ThresholdMask::active_set() {
    if (!active_set_dirty_) {
        return active_set_;
    }
    const std::int64_t neurons = activation_shape_.numel();
    const std::int64_t channels = activation_shape_.dim(0);
    const std::int64_t extent = neurons / channels;
    if (active_set_.version == 0) {
        active_set_.live.reserve(static_cast<std::size_t>(neurons));
        active_set_.live_channels.reserve(static_cast<std::size_t>(channels));
    }
    active_set_.live.clear();
    active_set_.live_channels.clear();
    active_set_.neurons = neurons;
    active_set_.channels = channels;
    const float* t = thresholds_.value.data();
    for (std::int64_t c = 0; c < channels; ++c) {
        const std::size_t before = active_set_.live.size();
        for (std::int64_t i = c * extent; i < (c + 1) * extent; ++i) {
            // Live iff t < +inf; NaN compares false, so NaN thresholds
            // count as dead — consistent with the mask never passing a
            // value through them.
            if (t[i] < kPrunedThreshold) {
                active_set_.live.push_back(i);
            }
        }
        if (active_set_.live.size() != before) {
            active_set_.live_channels.push_back(c);
        }
    }
    ++active_set_.version;
    active_set_dirty_ = false;
    return active_set_;
}

void ThresholdMask::set_eval_mode(bool eval) {
    nn::Module::set_eval_mode(eval);
    if (eval) {
        cached_input_ = Tensor();
        cached_mask_ = Tensor();
    }
}

std::int64_t ThresholdMask::cached_state_bytes() const {
    return nn::cached_tensor_bytes(cached_input_) +
           nn::cached_tensor_bytes(cached_mask_);
}

Tensor ThresholdMask::backward(const Tensor& grad_output) {
    MIME_REQUIRE(cached_input_.shape().rank() >= 1 &&
                     grad_output.shape() == cached_input_.shape(),
                 "ThresholdMask::backward grad shape mismatch");
    const std::int64_t per_sample = activation_shape_.numel();
    const std::int64_t batch = cached_input_.shape().dim(0);

    Tensor grad_input(cached_input_.shape());
    const float* t = thresholds_.value.data();
    float* gt = thresholds_.grad.data();

    // a = y * H(y - t):
    //   da/dy = H(y - t) + y * g(y - t)
    //   da/dt = -y * g(y - t)
    for (std::int64_t n = 0; n < batch; ++n) {
        const float* y = cached_input_.data() + n * per_sample;
        const float* m = cached_mask_.data() + n * per_sample;
        const float* go = grad_output.data() + n * per_sample;
        float* gi = grad_input.data() + n * per_sample;
        for (std::int64_t i = 0; i < per_sample; ++i) {
            const float g_est = ste_(y[i] - t[i]);
            gi[i] = go[i] * (m[i] + y[i] * g_est);
            gt[i] -= go[i] * y[i] * g_est;
        }
    }
    return grad_input;
}

std::vector<nn::Parameter*> ThresholdMask::parameters() {
    return {&thresholds_};
}

double ThresholdMask::regularization_loss() const {
    double acc = 0.0;
    const float* t = thresholds_.value.data();
    for (std::int64_t i = 0; i < thresholds_.value.numel(); ++i) {
        acc += std::exp(static_cast<double>(std::min(t[i], kExpClamp)));
    }
    return acc;
}

void ThresholdMask::add_regularization_gradient(float beta) {
    float* gt = thresholds_.grad.data();
    const float* t = thresholds_.value.data();
    for (std::int64_t i = 0; i < thresholds_.value.numel(); ++i) {
        gt[i] += beta * std::exp(std::min(t[i], kExpClamp));
    }
}

void ThresholdMask::clamp_thresholds(float floor) {
    float* t = thresholds_.value.data();
    for (std::int64_t i = 0; i < thresholds_.value.numel(); ++i) {
        t[i] = std::max(t[i], floor);
    }
    mark_thresholds_dirty();
}

}  // namespace mime::core
