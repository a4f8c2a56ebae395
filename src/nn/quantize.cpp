#include "nn/quantize.h"

#include <algorithm>
#include <cmath>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

#include "common/check.h"

namespace mime::nn {

namespace {

/// Round-trips `count` floats through signed fixed point at `scale`
/// with `levels` = 2^(bits-1) - 1, accumulating stats. Returns the
/// channel's max abs error (for the per-channel relative report).
double fake_quantize_range(float* x, std::int64_t count, double scale,
                           double levels, QuantizationStats& stats) {
    double channel_max_err = 0.0;
    for (std::int64_t i = 0; i < count; ++i) {
        const double original = x[i];
        double q = std::nearbyint(original / scale);
        if (q > levels) {
            q = levels;
            ++stats.saturated;
        } else if (q < -levels) {
            q = -levels;
            ++stats.saturated;
        }
        const double reconstructed = q * scale;
        const double err = std::abs(original - reconstructed);
        channel_max_err = std::max(channel_max_err, err);
        stats.mean_abs_error += err;  // sum here; caller divides
        x[i] = static_cast<float>(reconstructed);
    }
    stats.max_abs_error = std::max(stats.max_abs_error, channel_max_err);
    return channel_max_err;
}

float range_absmax(const float* x, std::int64_t count) {
    std::int64_t i = 0;
    float max_abs = 0.0f;
#if defined(__AVX2__)
    const __m256 abs_mask =
        _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
    // Four independent chains hide the max latency; max is exact, so
    // the split never changes a NaN-free result.
    __m256 vmax = _mm256_setzero_ps();
    __m256 vmax1 = _mm256_setzero_ps();
    __m256 vmax2 = _mm256_setzero_ps();
    __m256 vmax3 = _mm256_setzero_ps();
    for (; i + 32 <= count; i += 32) {
        vmax = _mm256_max_ps(
            vmax, _mm256_and_ps(abs_mask, _mm256_loadu_ps(x + i)));
        vmax1 = _mm256_max_ps(
            vmax1, _mm256_and_ps(abs_mask, _mm256_loadu_ps(x + i + 8)));
        vmax2 = _mm256_max_ps(
            vmax2, _mm256_and_ps(abs_mask, _mm256_loadu_ps(x + i + 16)));
        vmax3 = _mm256_max_ps(
            vmax3, _mm256_and_ps(abs_mask, _mm256_loadu_ps(x + i + 24)));
    }
    for (; i + 8 <= count; i += 8) {
        vmax = _mm256_max_ps(
            vmax, _mm256_and_ps(abs_mask, _mm256_loadu_ps(x + i)));
    }
    vmax = _mm256_max_ps(_mm256_max_ps(vmax, vmax1),
                         _mm256_max_ps(vmax2, vmax3));
    alignas(32) float lanes[8];
    _mm256_store_ps(lanes, vmax);
    for (float lane : lanes) {
        max_abs = std::max(max_abs, lane);
    }
#endif
    for (; i < count; ++i) {
        max_abs = std::max(max_abs, std::abs(x[i]));
    }
    return max_abs;
}

}  // namespace

QuantizationStats fake_quantize(Tensor& t, int bits) {
    MIME_REQUIRE(bits >= 2 && bits <= 24, "bits must be in [2, 24]");
    QuantizationStats stats;

    const float max_abs = range_absmax(t.data(), t.numel());
    if (max_abs == 0.0f) {
        return stats;  // nothing to quantize
    }

    const double levels = static_cast<double>((1 << (bits - 1)) - 1);
    const double scale = max_abs / levels;
    stats.scale = scale;

    const double max_err =
        fake_quantize_range(t.data(), t.numel(), scale, levels, stats);
    stats.mean_abs_error /= static_cast<double>(t.numel());
    stats.max_channel_rel_error = max_err / static_cast<double>(max_abs);
    return stats;
}

QuantizationStats fake_quantize_per_channel(Tensor& t, int bits) {
    MIME_REQUIRE(bits >= 2 && bits <= 24, "bits must be in [2, 24]");
    MIME_REQUIRE(t.shape().rank() >= 2,
                 "per-channel fake_quantize needs rank >= 2 (dim 0 is the "
                 "output channel), got " +
                     t.shape().to_string());
    QuantizationStats stats;
    const std::int64_t channels = t.shape().dim(0);
    const std::int64_t extent = t.numel() / channels;
    const double levels = static_cast<double>((1 << (bits - 1)) - 1);

    for (std::int64_t c = 0; c < channels; ++c) {
        float* slice = t.data() + c * extent;
        const float max_abs = range_absmax(slice, extent);
        if (max_abs == 0.0f) {
            continue;  // zero channel: unchanged, zero error
        }
        const double scale = max_abs / levels;
        stats.scale = std::max(stats.scale, scale);
        const double max_err =
            fake_quantize_range(slice, extent, scale, levels, stats);
        stats.max_channel_rel_error =
            std::max(stats.max_channel_rel_error,
                     max_err / static_cast<double>(max_abs));
    }
    stats.mean_abs_error /= static_cast<double>(t.numel());
    return stats;
}

double fake_quantize_parameters(Module& module, int bits) {
    double worst = 0.0;
    for (Parameter* p : module.parameters()) {
        const QuantizationStats stats = fake_quantize(p->value, bits);
        worst = std::max(worst, stats.max_abs_error);
    }
    return worst;
}

double quantization_relative_error(const Tensor& t, int bits) {
    Tensor copy = t;
    fake_quantize(copy, bits);
    const float norm = l2_norm(t);
    if (norm == 0.0f) {
        return 0.0;
    }
    return static_cast<double>(l2_norm(sub(t, copy))) /
           static_cast<double>(norm);
}

// ---------------------------------------------------------------------------
// Real int8 path
// ---------------------------------------------------------------------------

namespace {

constexpr float kInt8Levels = 127.0f;

/// Quantizes one contiguous range at a fixed scale. `inv_scale` is
/// 127 / absmax, so |x * inv_scale| <= 127 (plus one rounding ulp,
/// which still rounds to 127): the clamp never actually fires and the
/// AVX2 pack's [-128, 127] saturation matches the scalar [-127, 127]
/// clamp exactly. Both round to nearest-even (cvtps2dq under the
/// default MXCSR == lrintf under the default FP environment), so the
/// two paths produce identical bytes.
inline void quantize_range(const float* x, std::int64_t count,
                           float inv_scale, std::int8_t* out) {
    std::int64_t i = 0;
#if defined(__AVX2__)
    const __m256 vs = _mm256_set1_ps(inv_scale);
    // Bytes leave packs_epi32+packs_epi16 grouped four-at-a-time per
    // source vector within each 128-bit lane; this permutation of the
    // eight 4-byte groups restores source order.
    const __m256i restore = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    for (; i + 32 <= count; i += 32) {
        const __m256i q0 =
            _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(x + i), vs));
        const __m256i q1 = _mm256_cvtps_epi32(
            _mm256_mul_ps(_mm256_loadu_ps(x + i + 8), vs));
        const __m256i q2 = _mm256_cvtps_epi32(
            _mm256_mul_ps(_mm256_loadu_ps(x + i + 16), vs));
        const __m256i q3 = _mm256_cvtps_epi32(
            _mm256_mul_ps(_mm256_loadu_ps(x + i + 24), vs));
        const __m256i packed = _mm256_permutevar8x32_epi32(
            _mm256_packs_epi16(_mm256_packs_epi32(q0, q1),
                               _mm256_packs_epi32(q2, q3)),
            restore);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), packed);
    }
#endif
    for (; i < count; ++i) {
        const long q = std::lrintf(x[i] * inv_scale);
        out[i] = static_cast<std::int8_t>(
            std::clamp<long>(q, -127, 127));
    }
}

}  // namespace

QuantizedTensor quantize_weights_per_channel(const Tensor& weight) {
    MIME_REQUIRE(weight.shape().rank() >= 2,
                 "quantize_weights_per_channel needs rank >= 2 (dim 0 is "
                 "the output channel), got " +
                     weight.shape().to_string());
    QuantizedTensor q;
    q.rows = weight.shape().dim(0);
    q.cols = weight.numel() / q.rows;
    q.data.resize(static_cast<std::size_t>(weight.numel()));
    q.scales.resize(static_cast<std::size_t>(q.rows));

    for (std::int64_t r = 0; r < q.rows; ++r) {
        const float* src = weight.data() + r * q.cols;
        std::int8_t* dst = q.data.data() + r * q.cols;
        const float max_abs = range_absmax(src, q.cols);
        if (max_abs == 0.0f) {
            q.scales[static_cast<std::size_t>(r)] = 0.0f;
            std::fill(dst, dst + q.cols, std::int8_t{0});
            continue;
        }
        const float scale = max_abs / kInt8Levels;
        q.scales[static_cast<std::size_t>(r)] = scale;
        quantize_range(src, q.cols, kInt8Levels / max_abs, dst);
        double max_err = 0.0;
        for (std::int64_t i = 0; i < q.cols; ++i) {
            const double rec = static_cast<double>(dst[i]) *
                               static_cast<double>(scale);
            max_err = std::max(max_err,
                               std::abs(static_cast<double>(src[i]) - rec));
        }
        q.max_rel_error = std::max(
            q.max_rel_error, max_err / static_cast<double>(max_abs));
    }
    return q;
}

float quantize_activations(const float* x, std::int64_t count,
                           std::int8_t* out) {
    const float max_abs = range_absmax(x, count);
    if (max_abs == 0.0f) {
        std::fill(out, out + count, std::int8_t{0});
        return 0.0f;
    }
    quantize_range(x, count, kInt8Levels / max_abs, out);
    return max_abs / kInt8Levels;
}

float activation_absmax(const float* x, std::int64_t count) {
    return range_absmax(x, count);
}

void quantize_with_scale(const float* x, std::int64_t count, float inv_scale,
                         std::int8_t* out) {
    quantize_range(x, count, inv_scale, out);
}

QuantizedTensor transpose_quantized(const QuantizedTensor& q) {
    QuantizedTensor t;
    t.rows = q.cols;
    t.cols = q.rows;
    t.scales = q.scales;
    t.max_rel_error = q.max_rel_error;
    t.data.resize(q.data.size());
    for (std::int64_t r = 0; r < q.rows; ++r) {
        const std::int8_t* src = q.data.data() + r * q.cols;
        for (std::int64_t c = 0; c < q.cols; ++c) {
            t.data[static_cast<std::size_t>(c * t.cols + r)] = src[c];
        }
    }
    return t;
}

void dequantize_affine(const std::int32_t* acc, std::int64_t count,
                       float scale, float add, float* out) {
    std::int64_t i = 0;
#if defined(__AVX2__)
    const __m256 vscale = _mm256_set1_ps(scale);
    const __m256 vadd = _mm256_set1_ps(add);
    for (; i + 8 <= count; i += 8) {
        const __m256 v = _mm256_cvtepi32_ps(_mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(acc + i)));
        // mul+add rather than fma so the scalar tail computes the same
        // expression element-for-element.
        _mm256_storeu_ps(out + i,
                         _mm256_add_ps(_mm256_mul_ps(v, vscale), vadd));
    }
#endif
    for (; i < count; ++i) {
        out[i] = static_cast<float>(acc[i]) * scale + add;
    }
}

}  // namespace mime::nn
