// Measurement harness shared by every workload: clock, exact quantiles,
// seeded generators, the open-loop pacer, the span recorder behind the
// traced run, and the result record each workload returns.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace perfbench {

[[nodiscard]] std::uint64_t now_ns() noexcept;

/// Spin (yielding) until the steady clock reaches `deadline_ns`.
void wait_until(std::uint64_t deadline_ns) noexcept;

/// Open-loop pacer wait: runs `poll` while waiting for `deadline_ns`,
/// sleeping in steps of at most 100 µs while the deadline is more than
/// 120 µs away and yield-spinning over the last stretch, so a generator with
/// long gaps does not hold a core the server needs. (Single long sleeps woke
/// milliseconds late far more often on the reference VM than short steps.)
template <typename Poll>
void pace_until(std::uint64_t deadline_ns, Poll&& poll) {
  constexpr std::uint64_t kSpinNs = 120'000;
  constexpr std::uint64_t kStepNs = 100'000;
  for (;;) {
    poll();
    const std::uint64_t now = now_ns();
    if (now >= deadline_ns) {
      return;
    }
    if (deadline_ns - now > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min(deadline_ns - now - kSpinNs, kStepNs)));
    } else {
      std::this_thread::yield();
    }
  }
}

[[nodiscard]] std::uint64_t mix64(std::uint64_t z) noexcept;

/// xoshiro256** seeded through splitmix64. The benchmark owns its generator
/// so its inputs never change when the library's own RNG does.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;
  [[nodiscard]] std::uint64_t next() noexcept;
  [[nodiscard]] double uniform() noexcept;  ///< [0, 1)
  [[nodiscard]] double normal() noexcept;   ///< N(0, 1), Box–Muller.

 private:
  std::uint64_t s_[4];
  double spare_ = 0.0;
  bool has_spare_ = false;
};

/// Zipf(s) over ranks [0, n): inverse-CDF lookup on a precomputed table.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s);
  [[nodiscard]] std::size_t sample(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Exact quantile (linear interpolation between order statistics) of an
/// unsorted sample; sorts a copy. 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);
/// Tail quantile robust to one bad stretch of a run: the q-quantile of each
/// consecutive window of `window` samples (in arrival order), then the median
/// over the full windows. Falls back to the whole sample when it holds fewer
/// than two windows.
[[nodiscard]] std::vector<double> window_quantiles(const std::vector<double>& values,
                                                   std::size_t window, double q);
[[nodiscard]] double windowed_quantile(const std::vector<double>& values, std::size_t window,
                                       double q);
[[nodiscard]] double mean(const std::vector<double>& values);

/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mb();

/// Wall-clock spans recorded by the traced run around calls into each
/// layer, one flat span per call (or per group of sub-microsecond calls),
/// named after the layer. Spans live in memory (preallocated, capped) and
/// are written out as Chrome trace-event JSON when the run ends.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity = 1u << 20);

  /// Keeps one span covering `calls` calls; spans beyond the capacity are
  /// counted as dropped.
  void record(const std::string& name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t calls = 1);

  /// Median duration per call (ns) of every kept span with this name.
  [[nodiscard]] double median_ns(const std::string& name) const;
  /// Mean duration per call (ns) of every kept span with this name.
  [[nodiscard]] double mean_ns(const std::string& name) const;

  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t calls = 1;
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
  };

  [[nodiscard]] std::uint32_t intern(const std::string& name);
  [[nodiscard]] std::vector<double> per_call_ns(const std::string& name) const;

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
};

/// Runs `fn` once and records it as a span named `name` covering `calls`.
template <typename Fn>
void timed(SpanRecorder& rec, const std::string& name, Fn&& fn, std::uint32_t calls = 1) {
  const std::uint64_t start = now_ns();
  fn();
  rec.record(name, start, now_ns(), calls);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload (or the traced ledger) hands back to main().
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> errors;   ///< correctness-gate failures.
  std::vector<std::pair<std::string, std::string>> detail;  ///< JSON fragments.

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void fail_check(std::string what) {
    correct = false;
    errors.push_back(std::move(what));
  }
  [[nodiscard]] const Metric* find(const std::string& name) const;
};

/// Latency and lateness summary of one open-loop phase.
struct PhaseSummary {
  std::uint64_t sent = 0;
  std::uint64_t rejected = 0;
  std::vector<double> latency_ns;   ///< completion − scheduled (rejects = penalty).
  std::vector<double> lateness_ns;  ///< actual send − scheduled.
};

/// JSON object text {"sent":…,"p50_us":…} for one open-loop phase.
[[nodiscard]] std::string phase_json(const PhaseSummary& s);

[[nodiscard]] std::string json_escape(const std::string& s);
[[nodiscard]] std::string json_number(double v);

}  // namespace perfbench
