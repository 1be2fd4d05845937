// Benchmark entry point: runs one workload and prints a report, a run record
// and, as the last line, one JSON object with the run's metrics.
//
//   xmlrel_perfbench --workload ingest|bulk|serve --seed N --seconds S
//                    --trace 0|1 --out-dir DIR [--commit SHA]
//                    [--zipf S] [--weights W1,...,W6]
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfbench.hpp"

#ifndef XR_PERFBENCH_BUILD_TYPE
#define XR_PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// The coverage the traced run's blocking-path self times must reach.
constexpr double kCoverageTolerance = 0.05;

std::string json_string(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
                if (static_cast<unsigned char>(c) < 0x20) {
                    char buf[8];
                    std::snprintf(buf, sizeof buf, "\\u%04x", c);
                    out += buf;
                } else {
                    out += c;
                }
        }
    }
    return out + "\"";
}

std::string json_number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.10g", v);
    return buf;
}

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "xmlrel_perfbench: " << why << "\n"
              << "usage: xmlrel_perfbench --workload ingest|bulk|serve "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR "
                 "[--commit SHA] [--zipf S] [--weights W1,...,W6]\n";
    std::exit(2);
}

std::vector<double> parse_weights(const std::string& list) {
    std::vector<double> weights;
    std::istringstream in(list);
    std::string item;
    while (std::getline(in, item, ',')) weights.push_back(std::stod(item));
    if (weights.size() != 6) throw std::invalid_argument("six weights");
    for (double w : weights)
        if (!(w >= 0)) throw std::invalid_argument("negative weight");
    return weights;
}

RunConfig parse_args(int argc, char** argv) {
    RunConfig c;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc) usage("missing value for " + flag);
        std::string value = argv[++i];
        try {
            if (flag == "--workload") c.workload = value;
            else if (flag == "--seed") c.seed = std::stoull(value);
            else if (flag == "--seconds") c.seconds = std::stod(value);
            else if (flag == "--trace") c.trace = std::stoi(value) != 0;
            else if (flag == "--out-dir") c.out_dir = value;
            else if (flag == "--commit") c.commit = value;
            else if (flag == "--zipf") c.zipf = std::stod(value);
            else if (flag == "--weights") c.weights = parse_weights(value);
            else usage("unknown flag " + flag);
        } catch (const std::logic_error&) {
            usage("bad value for " + flag + ": " + value);
        }
    }
    if (c.workload != "ingest" && c.workload != "bulk" && c.workload != "serve")
        usage("unknown workload '" + c.workload + "'");
    if (!(c.seconds > 0)) usage("--seconds must be positive");
    if (!(c.zipf >= 0)) usage("--zipf must not be negative");
    if (c.out_dir.empty()) usage("--out-dir is required");
    c.cores = std::max(1u, std::thread::hardware_concurrency());
    return c;
}

}  // namespace

int main(int argc, char** argv) {
    RunConfig config = parse_args(argc, argv);
    std::filesystem::create_directories(config.out_dir);

    Outcome out;
    auto t0 = Clock::now();
    try {
        if (config.workload == "ingest") out = run_ingest(config);
        else if (config.workload == "bulk") out = run_bulk(config);
        else out = run_serve(config);
    } catch (const std::exception& e) {
        std::cerr << "xmlrel_perfbench: " << config.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }
    double wall_s = seconds_between(t0, Clock::now());

    // Keep exactly the metrics of this mode; each must be measured, and no
    // end-to-end metric can be 0 when it was.
    const auto& wanted =
        config.trace ? per_layer_metrics() : end_to_end_metrics();
    for (const auto& [name, unit] : wanted) {
        auto it = out.metrics.find(name);
        if (it == out.metrics.end() || !std::isfinite(it->second.value)) {
            out.tally(false, "metric " + name + " was not measured");
            out.set(name, 0, unit, 0);
        } else if (!config.trace && !(it->second.value > 0)) {
            out.tally(false, "metric " + name + " read 0");
        }
    }
    bool correct = out.failed == 0 && out.attempted > 0;

    std::printf("perfbench %s seed=%llu seconds=%g trace=%d cores=%u "
                "build=%s commit=%s wall=%.1fs\n",
                config.workload.c_str(),
                static_cast<unsigned long long>(config.seed), config.seconds,
                config.trace ? 1 : 0, config.cores, XR_PERFBENCH_BUILD_TYPE,
                config.commit.c_str(), wall_s);
    for (const auto& [name, unit] : wanted) {
        const Metric& m = out.metrics[name];
        std::printf("  %-36s %14.6g %-7s samples=%zu\n", name.c_str(), m.value,
                    unit.c_str(), m.samples);
    }
    for (const auto& n : out.notes) std::printf("  note: %s\n", n.c_str());
    if (config.trace) {
        const Metric& cov = out.metrics["trace.blocking_coverage"];
        std::printf("trace-summary: %s blocking-path self time covers %.1f%% "
                    "of the traced end-to-end time (tolerance: within %.0f%%); "
                    "tracing overhead %+.1f%%\n",
                    config.workload.c_str(), cov.value * 100,
                    kCoverageTolerance * 100,
                    out.metrics["trace.overhead_pct"].value);
        out.tally(std::fabs(1 - cov.value) <= kCoverageTolerance,
                  "blocking-path self time outside tolerance");
        correct = out.failed == 0;
    }
    std::printf("  operations: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (const auto& f : out.failures)
        std::printf("  FAILED: %s\n", f.c_str());

    std::ostringstream record;
    record << "{\"workload\":" << json_string(config.workload)
           << ",\"seed\":" << config.seed
           << ",\"seconds\":" << json_number(config.seconds)
           << ",\"trace\":" << (config.trace ? 1 : 0)
           << ",\"cores\":" << config.cores
           << ",\"build_type\":" << json_string(XR_PERFBENCH_BUILD_TYPE)
           << ",\"commit\":" << json_string(config.commit)
           << ",\"attempted\":" << out.attempted
           << ",\"failed\":" << out.failed
           << ",\"correct\":" << (correct ? "true" : "false")
           << ",\"samples\":{";
    bool first = true;
    for (const auto& [name, unit] : wanted) {
        record << (first ? "" : ",") << json_string(name) << ":"
               << out.metrics[name].samples;
        first = false;
    }
    record << "},\"notes\":[";
    for (std::size_t i = 0; i < out.notes.size(); ++i)
        record << (i ? "," : "") << json_string(out.notes[i]);
    record << "]}";
    std::string record_path = config.out_dir + "/record-" + config.workload +
                              "-seed" + std::to_string(config.seed) +
                              "-trace" + (config.trace ? "1" : "0") + ".json";
    if (FILE* f = std::fopen(record_path.c_str(), "w")) {
        std::fprintf(f, "%s\n", record.str().c_str());
        std::fclose(f);
    }
    std::printf("run-record %s\n", record.str().c_str());

    std::ostringstream result;
    result << "{\"correct\": " << (correct ? "true" : "false")
           << ", \"attempted\": " << out.attempted
           << ", \"failed\": " << out.failed << ", \"metrics\": {";
    first = true;
    for (const auto& [name, unit] : wanted) {
        result << (first ? "" : ", ") << json_string(name)
               << ": {\"value\": " << json_number(out.metrics[name].value)
               << ", \"unit\": " << json_string(unit) << "}";
        first = false;
    }
    result << "}}";
    std::printf("%s\n", result.str().c_str());
    return correct ? 0 : 1;
}
