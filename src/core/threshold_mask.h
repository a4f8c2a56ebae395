// The MIME threshold-mask activation (paper eq. 1, 2 and 4).
//
// Each output neuron i owns a learnable threshold t_i. The layer compares
// the neuron's MAC output y_i against t_i and emits
//     m_i = 1[y_i - t_i >= 0],      a_i = y_i * m_i.
// Backbone weights upstream stay frozen while the t_i are trained; the
// non-differentiable step is handled with the piece-wise linear gradient
// estimator of Dynamic Sparse Training (Liu et al., 2020), which the
// paper adopts (its Fig. 3a).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "nn/module.h"

namespace mime::core {

/// Threshold sentinel marking a neuron as structurally pruned: with
/// t_i = +inf the mask condition y_i - t_i >= 0 is false for every
/// finite y_i, so the neuron is dead for ALL inputs — not just
/// data-dependently sparse. The sparse executor may skip its MACs
/// without changing any output bit. (NaN thresholds are treated as dead
/// too, consistent with the mask semantics: NaN comparisons are false.)
inline constexpr float kPrunedThreshold =
    std::numeric_limits<float>::infinity();

/// Compact index sets of the structurally live neurons of one mask,
/// rebuilt lazily when thresholds change (install/reset/clamp), not per
/// batch. Consumed by the sparse planned executor to drive row-compacted
/// GEMMs and partial im2col.
struct ActiveSet {
    /// Strictly ascending indices of live neurons (t_i < +inf) in the
    /// flattened activation shape.
    std::vector<std::int64_t> live;
    /// Strictly ascending dim-0 slices ("channels" for conv-shaped
    /// masks, the neurons themselves for flat masks) holding at least
    /// one live neuron.
    std::vector<std::int64_t> live_channels;
    std::int64_t neurons = 0;   ///< total neuron count
    std::int64_t channels = 0;  ///< total dim-0 extent
    /// Bumped on every rebuild; lets cached consumers detect staleness.
    std::uint64_t version = 0;

    bool all_live() const noexcept {
        return static_cast<std::int64_t>(live.size()) == neurons;
    }
    double density() const noexcept {
        return neurons == 0 ? 1.0
                            : static_cast<double>(live.size()) /
                                  static_cast<double>(neurons);
    }
    double channel_density() const noexcept {
        return channels == 0 ? 1.0
                             : static_cast<double>(live_channels.size()) /
                                   static_cast<double>(channels);
    }
};

/// Piece-wise linear estimate g(x) of d/dx 1[x >= 0]:
///
///   g(x) = inner_peak - slope*|x|   for |x| <= inner_width
///        = outer_value              for inner_width < |x| <= outer_width
///        = 0                        otherwise,
///
/// with slope chosen so g is continuous at |x| = inner_width. Defaults are
/// the DST estimator (2 - 4|x| / 0.4 / cutoff 1).
struct SteConfig {
    float inner_width = 0.4f;
    float inner_peak = 2.0f;
    float outer_width = 1.0f;
    float outer_value = 0.4f;

    /// Evaluates the estimator at x.
    float operator()(float x) const;

    /// Throws if the pieces are inconsistent (negative widths etc.).
    void validate() const;
};

/// Per-neuron threshold masking layer.
///
/// `activation_shape` is the per-sample shape of the incoming MAC output
/// ([C, H, W] after a conv, [F] after a fc); the threshold tensor has
/// exactly that shape — one parameter per neuron, as in the paper.
class ThresholdMask : public nn::Module {
public:
    ThresholdMask(Shape activation_shape, float initial_threshold = 0.05f,
                  SteConfig ste = {});

    Tensor forward(const Tensor& input) override;
    Tensor backward(const Tensor& grad_output) override;
    std::string kind() const override { return "ThresholdMask"; }
    std::vector<nn::Parameter*> parameters() override;
    void set_eval_mode(bool eval) override;
    std::int64_t cached_state_bytes() const override;

    /// Planned-executor forward: applies a = y * 1[y - t >= 0] to
    /// `activations` in place in one fused pass — no mask tensor, no
    /// cached MAC outputs — counting zeros for last_sparsity().
    /// Bit-identical to forward(). Reads thresholds live, so a task's
    /// threshold install mid-stream takes effect on the next batch.
    /// Channels with no live neuron (active_set()) are zero-filled
    /// without reading them.
    void forward_eval_inplace(Tensor& activations);

    /// The threshold parameter tensor t (shape = activation shape).
    nn::Parameter& thresholds() noexcept { return thresholds_; }
    const nn::Parameter& thresholds() const noexcept { return thresholds_; }

    /// Per-sample activation shape this layer was built for.
    const Shape& activation_shape() const noexcept {
        return activation_shape_;
    }

    /// Zero fraction of the most recent forward output (the layerwise
    /// "neuronal sparsity due to MIME" of Table II).
    double last_sparsity() const noexcept { return last_sparsity_; }

    /// Binary mask M of the most recent forward ([N, ...]).
    const Tensor& last_mask() const noexcept { return cached_mask_; }

    /// Raw MAC outputs Y of the most recent forward ([N, ...]); used by
    /// threshold calibration and analysis tooling.
    const Tensor& last_input() const noexcept { return cached_input_; }

    /// Threshold-regularization value L_t = sum_i exp(t_i) (eq. 4).
    /// Exponents are clamped at `kExpClamp` to keep the value finite.
    double regularization_loss() const;

    /// Accumulates dL_t/dt_i = beta * exp(t_i) into the threshold
    /// gradient (used by the trainer to implement eq. 3 without
    /// materializing the loss graph).
    void add_regularization_gradient(float beta);

    /// Clamps every threshold to at least `floor`; the paper requires
    /// t_i > 0, which the trainer enforces after each optimizer step.
    void clamp_thresholds(float floor);

    /// The structurally-live index sets for the current thresholds,
    /// rebuilt on first use after mark_thresholds_dirty() (the returned
    /// reference stays valid until the next rebuild). Rebuilds reuse the
    /// vectors' capacity, so steady-state threshold swaps allocate
    /// nothing.
    const ActiveSet& active_set();

    /// Flags the active set stale. Must be called after any out-of-band
    /// write to thresholds().value (the mask's own mutators do this
    /// themselves).
    void mark_thresholds_dirty() noexcept { active_set_dirty_ = true; }

    static constexpr float kExpClamp = 30.0f;

private:
    Shape activation_shape_;
    SteConfig ste_;
    nn::Parameter thresholds_;
    Tensor cached_input_;
    Tensor cached_mask_;
    double last_sparsity_ = 0.0;
    ActiveSet active_set_;
    bool active_set_dirty_ = true;
};

}  // namespace mime::core
