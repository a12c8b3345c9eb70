#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numbers>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "load.hpp"

namespace perfbench {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void wait_until(std::uint64_t deadline_ns) noexcept {
  while (now_ns() < deadline_ns) {
    std::this_thread::yield();
  }
}

std::uint64_t mix64(std::uint64_t z) noexcept {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t z = seed;
  for (auto& word : s_) {
    z += 0x9e3779b97f4a7c15ULL;
    word = mix64(z);
  }
}

std::uint64_t Rng::next() noexcept {
  const auto rotl = [](std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); };
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::normal() noexcept {
  if (has_spare_) {
    has_spare_ = false;
    return spare_;
  }
  double u = uniform();
  while (u <= 0.0) {
    u = uniform();
  }
  const double v = uniform();
  const double r = std::sqrt(-2.0 * std::log(u));
  spare_ = r * std::sin(2.0 * std::numbers::pi * v);
  has_spare_ = true;
  return r * std::cos(2.0 * std::numbers::pi * v);
}

ZipfSampler::ZipfSampler(std::size_t n, double s) : cdf_(n) {
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += std::pow(static_cast<double>(k + 1), -s);
    cdf_[k] = acc;
  }
  for (auto& c : cdf_) {
    c /= acc;
  }
}

std::size_t ZipfSampler::sample(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                               cdf_.size() - 1);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

std::vector<double> window_quantiles(const std::vector<double>& values, std::size_t window,
                                     double q) {
  std::vector<double> per_window;
  for (std::size_t i = 0; window > 0 && i + window <= values.size(); i += window) {
    per_window.push_back(quantile(
        std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(i),
                            values.begin() + static_cast<std::ptrdiff_t>(i + window)),
        q));
  }
  return per_window;
}

double windowed_quantile(const std::vector<double>& values, std::size_t window, double q) {
  if (window == 0 || values.size() < 2 * window) {
    return quantile(values, q);
  }
  return median(window_quantiles(values, window, q));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) {
    return 0.0;
  }
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

SpanRecorder::SpanRecorder(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
}

std::uint32_t SpanRecorder::intern(const std::string& name) {
  for (std::size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) {
      return static_cast<std::uint32_t>(i);
    }
  }
  names_.push_back(name);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

void SpanRecorder::record(const std::string& name, std::uint64_t start_ns,
                          std::uint64_t end_ns, std::uint32_t calls) {
  const std::uint32_t id = intern(name);
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  spans_.push_back({id, calls, start_ns, end_ns});
}

std::vector<double> SpanRecorder::per_call_ns(const std::string& name) const {
  std::vector<double> per_call;
  for (const Span& s : spans_) {
    if (names_[s.name] == name && s.end_ns >= s.start_ns) {
      per_call.push_back(static_cast<double>(s.end_ns - s.start_ns) /
                         static_cast<double>(s.calls));
    }
  }
  if (per_call.empty()) {
    throw std::logic_error("no spans recorded for " + name);
  }
  return per_call;
}

double SpanRecorder::median_ns(const std::string& name) const {
  return median(per_call_ns(name));
}

double SpanRecorder::mean_ns(const std::string& name) const { return mean(per_call_ns(name)); }

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    throw std::runtime_error("cannot write trace file " + path);
  }
  const std::uint64_t base = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"calls\":%u}}%s\n",
                  json_escape(names_[s.name]).c_str(),
                  static_cast<double>(s.start_ns - base) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, s.calls,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "],\"otherData\":{\"dropped_spans\":" << dropped_ << "}}\n";
}

const Metric* RunResult::find(const std::string& name) const {
  for (const Metric& m : metrics) {
    if (m.name == name) {
      return &m;
    }
  }
  return nullptr;
}

std::string phase_json(const PhaseSummary& s) {
  std::ostringstream o;
  o << "{\"sent\":" << s.sent << ",\"rejected\":" << s.rejected
    << ",\"samples\":" << s.latency_ns.size()
    << ",\"p50_us\":" << json_number(quantile(s.latency_ns, 0.5) / 1e3)
    << ",\"p90_us\":" << json_number(windowed_quantile(s.latency_ns, load::kTailWindow, 0.90) / 1e3)
    << ",\"p95_us\":" << json_number(windowed_quantile(s.latency_ns, load::kTailWindow, 0.95) / 1e3)
    << ",\"p99_us\":" << json_number(quantile(s.latency_ns, 0.99) / 1e3)
    << ",\"generator_late_p99_us\":" << json_number(quantile(s.lateness_ns, 0.99) / 1e3)
    << ",\"generator_late_max_us\":"
    << json_number(s.lateness_ns.empty()
                       ? 0.0
                       : *std::max_element(s.lateness_ns.begin(), s.lateness_ns.end()) /
                             1e3)
    << ",\"p99_windows_us\":[";
  const std::vector<double> windows = window_quantiles(s.latency_ns, load::kTailWindow, 0.99);
  for (std::size_t i = 0; i < windows.size(); ++i) {
    o << (i ? "," : "") << json_number(windows[i] / 1e3);
  }
  o << "]}";
  return o.str();
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace perfbench
