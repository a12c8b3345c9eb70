// Fixed offered load of every workload. Each value was chosen once from
// measurements of the parent code on a 4-core host and is never derived from
// a rate measured in the same run, so a faster or slower program sees the
// same traffic. Library knobs (ServeConfig, TenantStoreConfig, OnlineConfig,
// PipelineConfig, projection storage) are NOT here: every workload runs them
// at their defaults.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench::load {

/// Input width of the serving workloads' synthetic readings.
inline constexpr std::size_t kFeatures = 16;

/// p99 figures are the median over consecutive windows of this many samples
/// of each window's p99 (ten samples beyond the p99 in every window), so one
/// disturbed second of a shared host does not set the run's tail.
inline constexpr std::size_t kTailWindow = 1000;

/// Phase shares of --seconds for the serving workloads.
inline constexpr double kOpenShare = 0.45;
inline constexpr double kClosedShare = 0.35;

namespace snapshot {
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr std::size_t kPretrainReadings = 4096;
inline constexpr double kOpenRatePerS = 20000.0;  ///< open-loop predicts.
inline constexpr std::size_t kClosedWindow = 64; ///< closed-loop predicts in flight.
inline constexpr double kTrainRatePerS = 500.0;  ///< train stream, all phases.
inline constexpr std::size_t kBurstReadings = 4096;
inline constexpr std::size_t kBursts = 3;
inline constexpr std::size_t kTestRows = 8192;
inline constexpr std::size_t kProbeRows = 256;
}  // namespace snapshot

namespace tenant {
inline constexpr std::size_t kShards = 2;
inline constexpr std::size_t kSetupRepeats = 3;
inline constexpr std::size_t kTenants = 200000;
inline constexpr double kZipfExponent = 0.9;
inline constexpr double kUpdateShare = 0.25;        ///< 3 predicts : 1 update.
inline constexpr std::size_t kWarmUpdates = 8192;   ///< pretraining before admission.
inline constexpr double kOpenRatePerS = 4000.0;     ///< open-loop ops.
inline constexpr std::size_t kClosedWindow = 32;    ///< closed-loop ops in flight.
inline constexpr std::size_t kBurstUpdates = 4096;
inline constexpr std::size_t kBursts = 3;
inline constexpr std::size_t kHotProbeTenants = 32;   ///< Zipf ranks 0..31.
inline constexpr std::size_t kWarmProbeTenants = 16;  ///< sampled from ranks below.
inline constexpr std::size_t kWarmProbeRankLo = 64;
inline constexpr std::size_t kWarmProbeRankHi = 4096;
inline constexpr std::size_t kProbeRowsPerTenant = 32;
}  // namespace tenant

namespace offline {
inline constexpr std::size_t kFits = 24;           ///< seeded splits fitted per run.
inline constexpr double kTestFraction = 0.2;
inline constexpr std::uint64_t kDatasetSeed = 5;   ///< the dataset; --seed draws splits.
inline constexpr double kSinglePredictShare = 0.15;
inline constexpr double kBatchPredictShare = 0.10;
inline constexpr double kRoundtripShare = 0.25;
}  // namespace offline

}  // namespace perfbench::load
