#include "util.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

namespace perfbench {

double SplitMix::normal() {
    const double u1 = 1.0 - uniform();  // (0, 1]: log stays finite
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

double SplitMix::exponential(double rate) {
    return -std::log(1.0 - uniform()) / rate;
}

std::size_t SplitMix::pick(const std::vector<double>& weights) {
    const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        target -= weights[i];
        if (target < 0.0) {
            return i;
        }
    }
    return weights.size() - 1;
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0.0;
    }
    return std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
}

double process_cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
    unsigned int regs[12] = {};
    unsigned int max_leaf = __get_cpuid_max(0x80000000u, nullptr);
    if (max_leaf >= 0x80000004u) {
        for (unsigned int i = 0; i < 3; ++i) {
            __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        }
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string model(brand);
        const auto first = model.find_first_not_of(' ');
        return first == std::string::npos ? "unknown" : model.substr(first);
    }
#endif
    return "unknown";
}

std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_number(double value) {
    if (!std::isfinite(value)) {
        return "0";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

}  // namespace perfbench
