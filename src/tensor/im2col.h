// im2col / col2im lowering for convolution.
//
// Conv2d forward lowers each input sample [C, H, W] into a column matrix
// [C*K*K, Hout*Wout]; the convolution then becomes a GEMM with the
// [Cout, C*K*K] filter matrix. col2im is the adjoint used by the backward
// pass w.r.t. the input.
#pragma once

#include <cstdint>

namespace mime {

/// Static geometry of one 2-D convolution.
struct ConvGeometry {
    std::int64_t in_channels = 0;
    std::int64_t in_height = 0;
    std::int64_t in_width = 0;
    std::int64_t kernel = 0;   ///< square kernel extent
    std::int64_t stride = 1;
    std::int64_t padding = 0;  ///< symmetric zero padding

    std::int64_t out_height() const {
        return (in_height + 2 * padding - kernel) / stride + 1;
    }
    std::int64_t out_width() const {
        return (in_width + 2 * padding - kernel) / stride + 1;
    }
    /// Rows of the lowered column matrix (= C*K*K).
    std::int64_t col_rows() const { return in_channels * kernel * kernel; }
    /// Columns of the lowered column matrix (= Hout*Wout).
    std::int64_t col_cols() const { return out_height() * out_width(); }

    /// Validates extents; throws on non-positive output sizes.
    void validate() const;
};

/// Lowers one sample `input` [C, H, W] (contiguous) into `columns`
/// [C*K*K, Hout*Wout] (contiguous, caller-allocated). Out-of-image taps
/// contribute zeros.
void im2col(const ConvGeometry& g, const float* input, float* columns);

/// Int8 lowering for the quantized executor — identical layout and tap
/// rules on already-quantized samples (pure data movement; a zero tap
/// dequantizes to exactly 0 at any scale).
void im2col(const ConvGeometry& g, const std::int8_t* input,
            std::int8_t* columns);

/// Partial lowering for the sparse conv path: writes only the K*K row
/// blocks of the `live_count` channels listed (strictly ascending) in
/// `live_channels`; a null list is the identity prefix 0..live_count-1
/// (so `nullptr, C` lowers every channel). `columns` keeps its full
/// [C*K*K, Hout*Wout] layout — rows of dead channels are left untouched
/// (their previous contents are garbage and must never be read; the
/// row-compacted GEMM skips them).
void im2col(const ConvGeometry& g, const float* input, float* columns,
            const std::int64_t* live_channels, std::int64_t live_count);

/// Int8 partial lowering (see above; composes with qgemm_rows) into a
/// column matrix with row pitch `ld` >= Hout*Wout: only the first
/// Hout*Wout entries of each written row are touched, so several
/// samples can be lowered side by side into one [C*K*K, ld] matrix and
/// contracted by a single qgemm_rows call.
void im2col(const ConvGeometry& g, const std::int8_t* input,
            std::int8_t* columns, std::int64_t ld,
            const std::int64_t* live_channels, std::int64_t live_count);

/// Adjoint of im2col: accumulates `columns` [C*K*K, Hout*Wout] back into
/// `input_grad` [C, H, W]. `input_grad` must be zeroed by the caller
/// before the first accumulation.
void col2im(const ConvGeometry& g, const float* columns, float* input_grad);

}  // namespace mime
