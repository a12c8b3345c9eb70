// The three workloads and the traced ledger run.
#pragma once

#include <cstdint>
#include <string>

#include "data/dataset.hpp"
#include "harness.hpp"

namespace reghd::core {}
namespace reghd::obs {}
namespace reghd::serve {}

namespace perfbench {

namespace core = reghd::core;
namespace data = reghd::data;
namespace hdc = reghd::hdc;
namespace obs = reghd::obs;
namespace serve = reghd::serve;

struct Options {
  std::uint64_t seed = 1;
  double seconds = 10.0;
};

/// Layer-level facts the traced run reads off a traced workload run (with
/// the library's obs telemetry enabled).
struct SnapshotTrace {
  double batched_row_share_open = 0.0;
  double batched_row_share_closed = 0.0;
  double publish_mean_ns = 0.0;  ///< obs kServePublishNs over the measured phases.
  double roundtrip_ns = 0.0;     ///< one request in flight, median.
};

struct TenantTrace {
  double hit_ratio = 0.0;
  double evictions_per_op = 0.0;
  double reactivations_per_op = 0.0;
  double resident_bytes_per_tenant = 0.0;
};

struct OfflineTrace {
  double epochs = 0.0;  ///< mean epochs per fit.
};

RunResult run_serve_snapshot(const Options& opt, SnapshotTrace* trace = nullptr);
RunResult run_tenant_churn(const Options& opt, TenantTrace* trace = nullptr);
RunResult run_train_offline(const Options& opt, OfflineTrace* trace = nullptr);

/// train-offline inputs: the largest paper dataset and the seeded split
/// `index` of it (shared with the traced run's layer replays).
[[nodiscard]] std::string largest_paper_dataset();
[[nodiscard]] data::TrainTestSplit seeded_split(const data::Dataset& ds, std::uint64_t seed,
                                                std::size_t index);

/// The traced run: replays every workload's seeded inputs through the
/// public functions of each layer, runs each workload with telemetry on,
/// and measures `workload` untraced for the tracing-overhead comparison.
RunResult run_ledger(const std::string& workload, const Options& opt,
                     const std::string& trace_path);

}  // namespace perfbench
