// Small self-contained helpers for the serving benchmark: a seeded
// generator the benchmark owns (so a change to the library's own RNG or
// load generator cannot change the workload), order statistics, process
// CPU / memory probes and host provenance.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: tiny, fully specified, identical on every platform.
class SplitMix {
public:
    explicit SplitMix(std::uint64_t seed) : state_(seed) {}

    std::uint64_t next() {
        std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
        z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
        z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
        return z ^ (z >> 31);
    }
    /// Uniform in [0, 1).
    double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
    /// Standard normal (Box-Muller, one value per call).
    double normal();
    /// Exponential with the given rate (mean 1/rate).
    double exponential(double rate);
    /// Index drawn from an unnormalized discrete distribution.
    std::size_t pick(const std::vector<double>& weights);

private:
    std::uint64_t state_;
};

using Clock = std::chrono::steady_clock;

inline std::int64_t to_ns(Clock::duration d) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// Linear-interpolated quantile (q in [0, 1]) of `values`; sorts a copy.
/// 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// Process CPU time (user + system, every thread) in seconds.
double process_cpu_seconds();
/// Peak resident set size of the process in MiB.
double peak_rss_mb();

/// CPU brand string from the processor itself (no file reads).
std::string cpu_model();

/// JSON string literal with the minimal escapes.
std::string json_string(const std::string& text);
/// A finite double with every significant digit.
std::string json_number(double value);

}  // namespace perfbench
