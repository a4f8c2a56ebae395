// The served model and its reference outputs.
//
// The benchmark owns every input the system sees: backbone weights,
// per-task thresholds and heads, and the request images all come from
// its own generator, so the workload cannot drift when the library's
// initializers change. write_store() lays the deployment out on disk
// exactly as a user would (core::AdaptationStore). compute_oracle() then
// derives each (task, image) pair's expected logits:
//   * float: the unplanned MimeNetwork::forward at batch size 1, which
//     the planned, batched, sparse serving path must match bit for bit;
//   * int8: the planned int8 forward at batch size 1 of a fresh network
//     that has only ever had that task installed. Int8 execution is
//     exact integer arithmetic with per-sample scales, so the served
//     answer must match it bit for bit whatever the batch, replica or
//     task history.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mime_network.h"
#include "tensor/tensor.h"

namespace perfbench {

/// Classes per task head (every task uses the full head width).
inline constexpr std::int64_t kClasses = 10;

/// The fixed serving architecture: width-scaled VGG16 on 32x32 inputs.
mime::core::MimeNetworkConfig network_config();

/// Writes backbone + `task_count` structurally pruned task adaptations
/// (named t00, t01, ...) into `directory`; returns the task names.
/// Weights and thresholds come from a fixed seed: the model is the same
/// in every run, only the traffic follows --seed.
std::vector<std::string> write_store(const std::string& directory,
                                     std::int64_t task_count);

/// `count` request images [3, 32, 32] drawn from `seed`.
std::vector<mime::Tensor> make_images(std::uint64_t seed, std::int64_t count);

struct Oracle {
    std::vector<std::string> task_names;
    std::int64_t image_count = 0;
    /// Float reference logits, kClasses floats per (task, image),
    /// row-major; the top-1 classes below come from these.
    std::vector<float> logits;
    std::vector<std::int64_t> top1;
    /// Int8 reference logits, same layout; empty for float serving.
    std::vector<float> int8_logits;
    /// Bytes of one resident adaptation (thresholds + head).
    std::int64_t adaptation_bytes = 0;

    bool int8() const { return !int8_logits.empty(); }
    /// The logits the service must return for this pair, bit for bit.
    const float* expected(std::size_t task, std::size_t image) const {
        return (int8() ? int8_logits : logits).data() +
               (task * static_cast<std::size_t>(image_count) + image) *
                   static_cast<std::size_t>(kClasses);
    }
    std::int64_t expected_top1(std::size_t task, std::size_t image) const {
        return top1[task * static_cast<std::size_t>(image_count) + image];
    }
};

/// Reference outputs for every (task, image) pair, read back from the
/// store written by write_store(); `int8` adds the int8 reference.
Oracle compute_oracle(const std::string& directory,
                      const std::vector<std::string>& task_names,
                      const std::vector<mime::Tensor>& images, bool int8);

}  // namespace perfbench
