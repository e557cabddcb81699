// perfbench: the repository benchmark binary. perfbench/run.py builds and
// runs it; run directly it takes
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--size full|tiny] [--trace-out <chrome-trace.json>]
//
// and prints one JSON report as its last line of output.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

using namespace perfbench;

Options parse(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") options.workload = value;
        else if (flag == "--seed") options.seed = std::stoull(value);
        else if (flag == "--seconds") options.seconds = std::stod(value);
        else if (flag == "--trace") options.trace = value == "1";
        else if (flag == "--size") options.size = value == "tiny" ? Size::tiny : Size::full;
        else if (flag == "--trace-out") options.trace_path = value;
        else throw std::invalid_argument("unknown flag " + flag);
    }
    if (options.seconds <= 0.0) throw std::invalid_argument("--seconds must be positive");
    return options;
}

} // namespace

int main(int argc, char** argv)
{
#ifndef NDEBUG
    // Debug builds default verify_incremental_index on, which rebuilds the
    // candidate index after every step: not the system users run.
    std::cerr << "perfbench: refusing a build without NDEBUG\n";
    return 2;
#endif
    Options options;
    try {
        options = parse(argc, argv);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 2;
    }

    Report report(options);
    report.set_info("nproc", std::to_string(std::thread::hardware_concurrency()));
    report.set_info("compiler", PERFBENCH_COMPILER);
    report.set_info("build_type", PERFBENCH_BUILD_TYPE);
    report.set_info("ndebug", "1");

    try {
        if (options.workload == "xrlflow_transformers") run_xrlflow_transformers(options, report);
        else if (options.workload == "search_zoo") run_search_zoo(options, report);
        else if (options.workload == "serve_mixed") run_serve_mixed(options, report);
        else {
            std::cerr << "perfbench: unknown workload " << options.workload << "\n";
            return 2;
        }
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << options.workload << " aborted: " << e.what() << "\n";
        return 1;
    }
    std::cout << report.to_json() << std::endl;
    return 0;
}
