// perfbench: the repository benchmark, one workload per invocation.
//
//   perfbench --workload serve-snapshot|tenant-churn|train-offline
//             --seed N --seconds S --trace 0|1
//             [--source ID] [--trace-file PATH]
//
// Prints each metric as "metric <name> <value> <unit>", a provenance line, a
// detail line, and as its last line the result object
// {"correct":…,"attempted":…,"failed":…,"metrics":{…}}. --trace 0 measures
// the workload's end-to-end metrics; --trace 1 runs the per-layer ledger.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "hdc/kernel_backend.hpp"
#include "workloads.hpp"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string source = "unknown";
  std::string trace_file = "perfbench-trace.json";
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      throw std::invalid_argument("missing value for " + flag);
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = std::stoi(value);
    } else if (flag == "--source") {
      a.source = value;
    } else if (flag == "--trace-file") {
      a.trace_file = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (a.workload != "serve-snapshot" && a.workload != "tenant-churn" &&
      a.workload != "train-offline") {
    throw std::invalid_argument("unknown workload '" + a.workload + "'");
  }
  if (a.seconds <= 0.0 || (a.trace != 0 && a.trace != 1)) {
    throw std::invalid_argument("--seconds must be positive and --trace 0 or 1");
  }
  return a;
}

std::string provenance(const Args& a) {
  using perfbench::json_escape;
  const char* threads = std::getenv("REGHD_THREADS");
  return std::string("{\"source\":\"") + json_escape(a.source) + "\",\"compiler\":\"" +
         PERFBENCH_COMPILER + "\",\"flags\":\"" + json_escape(PERFBENCH_FLAGS) +
         "\",\"build_type\":\"" + PERFBENCH_BUILD_TYPE + "\",\"kernel_backend\":\"" +
         reghd::hdc::active_backend().name +
         "\",\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"reghd_threads\":\"" + (threads != nullptr ? json_escape(threads) : "unset") +
         "\",\"workload\":\"" + a.workload + "\",\"seed\":" + std::to_string(a.seed) +
         ",\"seconds\":" + perfbench::json_number(a.seconds) +
         ",\"trace\":" + std::to_string(a.trace) +
         ",\"knobs\":\"library defaults: ServeConfig{}, TenantStoreConfig{}, OnlineConfig{}, "
         "PipelineConfig{}, default projection storage\"}";
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse(argc, argv);
    const perfbench::Options opt{a.seed, a.seconds};
    perfbench::RunResult r;
    if (a.trace == 1) {
      r = perfbench::run_ledger(a.workload, opt, a.trace_file);
    } else if (a.workload == "serve-snapshot") {
      r = perfbench::run_serve_snapshot(opt);
    } else if (a.workload == "tenant-churn") {
      r = perfbench::run_tenant_churn(opt);
    } else {
      r = perfbench::run_train_offline(opt);
    }

    for (const auto& m : r.metrics) {
      std::cout << "metric " << m.name << " " << perfbench::json_number(m.value) << " "
                << m.unit << "\n";
    }
    for (const std::string& e : r.errors) {
      std::cout << "CHECK FAILED " << e << "\n";
      std::cerr << "CHECK FAILED " << e << "\n";
    }
    std::cout << "provenance " << provenance(a) << "\n";
    std::cout << "detail {";
    for (std::size_t i = 0; i < r.detail.size(); ++i) {
      std::cout << (i ? "," : "") << "\"" << r.detail[i].first << "\":" << r.detail[i].second;
    }
    std::cout << "}\n";
    std::cout << "{\"correct\":" << (r.correct ? "true" : "false")
              << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
              << ",\"metrics\":{";
    for (std::size_t i = 0; i < r.metrics.size(); ++i) {
      const auto& m = r.metrics[i];
      std::cout << (i ? "," : "") << "\"" << m.name
                << "\":{\"value\":" << perfbench::json_number(m.value) << ",\"unit\":\""
                << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
