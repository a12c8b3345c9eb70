// Seeded input generators. Every workload input is a pure function of
// (--seed, stream tag); the program under test only ever sees these rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "harness.hpp"
#include "load.hpp"

namespace perfbench {

/// Sub-stream tags: one seed yields independent streams per purpose.
enum class Stream : std::uint64_t {
  kPretrain = 1,
  kQueries = 2,
  kTrain = 3,
  kTest = 4,
  kBurst = 5,
  kTenantWarm = 6,
  kTenantOps = 7,
  kTenantBurst = 8,
  kTenantProbe = 9,
  kSplits = 10,
};

[[nodiscard]] std::uint64_t stream_seed(std::uint64_t seed, Stream s) noexcept;

/// Row-major block of readings with their targets.
struct Readings {
  std::size_t features = 0;
  std::vector<double> x;
  std::vector<double> y;

  [[nodiscard]] std::size_t size() const noexcept { return y.size(); }
  [[nodiscard]] std::span<const double> row(std::size_t i) const {
    return {x.data() + i * features, features};
  }
};

/// Synthetic sensor readings for the single-model serving workload: mildly
/// correlated Gaussian features and a fixed nonlinear teacher plus noise.
[[nodiscard]] Readings make_readings(std::uint64_t seed, Stream stream, std::size_t n);

/// One tenant-churn operation.
struct TenantOp {
  std::size_t rank = 0;  ///< Zipf popularity rank of the tenant.
  std::uint64_t key = 0;
  bool update = false;
  double x[load::kFeatures] = {};
  double y = 0.0;
};

/// Tenant id of a popularity rank; the seed permutes ids (and so shards).
[[nodiscard]] std::uint64_t tenant_key(std::uint64_t seed, std::size_t rank) noexcept;

/// Endless seeded stream of tenant operations: Zipf ranks, a fixed update
/// share, features and a per-tenant teacher target.
class TenantStream {
 public:
  TenantStream(std::uint64_t seed, Stream stream, const ZipfSampler& zipf,
               double update_share);
  TenantOp next();

  /// An operation for a given rank (probe rows), drawn from this stream.
  TenantOp for_rank(std::size_t rank, bool update);

 private:
  void fill(TenantOp& op);

  std::uint64_t seed_;
  Rng rng_;
  const ZipfSampler* zipf_;
  double update_share_;
};

}  // namespace perfbench
