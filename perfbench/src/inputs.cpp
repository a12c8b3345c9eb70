#include "inputs.hpp"

#include <cmath>

#include "load.hpp"

namespace perfbench {

namespace {

// Fixed teacher: the task never depends on the seed, only the rows do.
double teacher(const double* x, std::size_t f) {
  double y = 0.0;
  for (std::size_t j = 0; j < f; ++j) {
    const double w =
        static_cast<double>(mix64(0xC0FFEEULL + j) >> 11) * 0x1.0p-53 * 2.0 - 1.0;
    y += w * x[j];
  }
  return y + 1.5 * std::sin(x[0] * x[1]) + 0.8 * std::cos(x[2] + x[3]);
}

void correlated_row(Rng& rng, double* x, std::size_t f) {
  const double common = rng.normal();
  for (std::size_t j = 0; j < f; ++j) {
    x[j] = 0.9 * rng.normal() + 0.3 * common;
  }
}

}  // namespace

std::uint64_t stream_seed(std::uint64_t seed, Stream s) noexcept {
  return mix64(seed * 0x100000001B3ULL + static_cast<std::uint64_t>(s));
}

Readings make_readings(std::uint64_t seed, Stream stream, std::size_t n) {
  Rng rng(stream_seed(seed, stream));
  Readings r;
  r.features = load::kFeatures;
  r.x.resize(n * r.features);
  r.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double* x = r.x.data() + i * r.features;
    correlated_row(rng, x, r.features);
    r.y[i] = teacher(x, r.features) + 0.1 * rng.normal();
  }
  return r;
}

std::uint64_t tenant_key(std::uint64_t seed, std::size_t rank) noexcept {
  return mix64(static_cast<std::uint64_t>(rank) ^ (seed * 0xD1B54A32D192ED03ULL));
}

TenantStream::TenantStream(std::uint64_t seed, Stream stream, const ZipfSampler& zipf,
                           double update_share)
    : seed_(seed), rng_(stream_seed(seed, stream)), zipf_(&zipf),
      update_share_(update_share) {}

void TenantStream::fill(TenantOp& op) {
  op.key = tenant_key(seed_, op.rank);
  correlated_row(rng_, op.x, load::kFeatures);
  // Per-tenant offset and slope on top of the shared teacher, fixed by the
  // popularity rank so every seed poses the same task to its hot tenants.
  const std::uint64_t h = mix64(0x7E4A47ULL + op.rank);
  const double a = static_cast<double>(h >> 40) * 0x1.0p-24 * 4.0 - 2.0;
  const double b = static_cast<double>((h >> 16) & 0xFFFFFF) * 0x1.0p-24 * 2.0 - 1.0;
  op.y = teacher(op.x, load::kFeatures) + a + b * op.x[4] + 0.1 * rng_.normal();
}

TenantOp TenantStream::next() {
  TenantOp op;
  op.rank = zipf_->sample(rng_);
  op.update = rng_.uniform() < update_share_;
  fill(op);
  return op;
}

TenantOp TenantStream::for_rank(std::size_t rank, bool update) {
  TenantOp op;
  op.rank = rank;
  op.update = update;
  fill(op);
  return op;
}

}  // namespace perfbench
