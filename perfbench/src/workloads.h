// The three serving workloads and the metrics they report.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch directory (inside the checkout) for the on-disk store.
    std::string work_dir;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct Result {
    bool correct = true;
    std::int64_t attempted = 0;
    std::int64_t failed = 0;
    std::vector<Metric> metrics;
    /// Why the run is not correct (output mismatches, conservation).
    std::vector<std::string> problems;
    /// Host, build and run facts printed beside the numbers.
    std::vector<std::pair<std::string, std::string>> provenance;
};

bool is_workload(const std::string& name);

/// Runs one workload: untraced (`trace` false) yields the end-to-end
/// metrics, traced yields the per-layer breakdown.
Result run_workload(const Options& options);

}  // namespace perfbench
