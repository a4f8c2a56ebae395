// Serving benchmark entry point.
//
//   perfbench --workload <hot_closed|many_tasks_open|pool_int8_deadline>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             [--source-digest <hex>] [--git-sha <sha>]
//
// Prints provenance and a readable metric table, then, as the last line
// of standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit code 0 only when every output matched its reference and every
// request's outcome was accounted for.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

int usage(const char* message) {
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --work-dir <dir> "
                 "[--source-digest <hex>] [--git-sha <sha>]\n",
                 message);
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    perfbench::Options options;
    std::string source_digest = "unknown";
    std::string git_sha = "unknown";
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        if (key == "--workload") {
            options.workload = value;
        } else if (key == "--seed") {
            options.seed = std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "--seconds") {
            options.seconds = std::strtod(value.c_str(), nullptr);
        } else if (key == "--trace") {
            options.trace = value == "1";
        } else if (key == "--work-dir") {
            options.work_dir = value;
        } else if (key == "--source-digest") {
            source_digest = value;
        } else if (key == "--git-sha") {
            git_sha = value;
        } else {
            return usage(("unknown argument " + key).c_str());
        }
    }
    if (argc % 2 != 1) {
        return usage("arguments come in --key value pairs");
    }
    if (!perfbench::is_workload(options.workload)) {
        return usage("unknown or missing --workload");
    }
    if (!(options.seconds > 0.0) || options.seconds > 600.0) {
        return usage("--seconds must be in (0, 600]");
    }
    if (options.work_dir.empty()) {
        return usage("--work-dir is required");
    }

    perfbench::Result result;
    try {
        result = perfbench::run_workload(options);
    } catch (const std::exception& error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 1;
    }
    result.provenance.emplace_back("compiler", PERFBENCH_COMPILER);
    result.provenance.emplace_back("build_type", PERFBENCH_BUILD_TYPE);
    result.provenance.emplace_back("source_digest", source_digest);
    result.provenance.emplace_back("git_sha", git_sha);
    result.provenance.emplace_back("seconds", perfbench::json_number(options.seconds));
    result.provenance.emplace_back("trace", options.trace ? "1" : "0");

    for (const perfbench::Metric& m : result.metrics) {
        if (!std::isfinite(m.value)) {
            result.problems.push_back("metric " + m.name + " is not finite");
            result.correct = false;
        }
    }
    for (const std::string& problem : result.problems) {
        std::fprintf(stderr, "perfbench: FAIL %s\n", problem.c_str());
    }

    std::string provenance = "{";
    for (const auto& [key, value] : result.provenance) {
        provenance += (provenance.size() > 1 ? ", " : "") +
                      perfbench::json_string(key) + ": " +
                      perfbench::json_string(value);
    }
    std::printf("provenance %s}\n", provenance.c_str());
    for (const perfbench::Metric& m : result.metrics) {
        std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }

    std::string metrics;
    for (const perfbench::Metric& m : result.metrics) {
        metrics += (metrics.empty() ? "" : ", ") + perfbench::json_string(m.name) +
                   ": {\"value\": " + perfbench::json_number(m.value) +
                   ", \"unit\": " + perfbench::json_string(m.unit) + "}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                result.correct ? "true" : "false",
                static_cast<long long>(result.attempted),
                static_cast<long long>(result.failed), metrics.c_str());
    std::fflush(stdout);
    return result.correct ? 0 : 1;
}
