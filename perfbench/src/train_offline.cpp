// train-offline: RegHDPipeline::fit at the default PipelineConfig on the
// largest paper dataset — the paper's training path with no serve layer.
#include <algorithm>
#include <cstring>
#include <numeric>
#include <optional>
#include <sstream>

#include "core/model_io.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "inputs.hpp"
#include "load.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string largest_paper_dataset() {
  std::string best;
  std::size_t best_n = 0;
  for (const std::string& name : data::paper_dataset_names()) {
    const std::size_t n = data::paper_dataset_spec(name).samples;
    if (n > best_n) {
      best = name;
      best_n = n;
    }
  }
  return best;
}

data::TrainTestSplit seeded_split(const data::Dataset& ds, std::uint64_t seed,
                                  std::size_t index) {
  std::vector<std::size_t> order(ds.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  Rng rng(stream_seed(seed, Stream::kSplits) + index);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.next() % i]);
  }
  const auto n_test = static_cast<std::size_t>(
      static_cast<double>(ds.size()) * load::offline::kTestFraction);
  const std::vector<std::size_t> test_idx(order.begin(), order.begin() + n_test);
  const std::vector<std::size_t> train_idx(order.begin() + n_test, order.end());
  return {ds.subset(train_idx), ds.subset(test_idx)};
}

RunResult run_train_offline(const Options& opt, OfflineTrace* trace) {
  namespace L = load::offline;
  RunResult r;
  const std::string name = largest_paper_dataset();

  // Set-up: generate the dataset and draw every split the run fits. It is
  // timed once before the fits and once more after each fit (discarding the
  // copy), so the median samples the host across the whole run.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const std::uint64_t t0 = now_ns();
    std::pair<data::Dataset, std::vector<data::TrainTestSplit>> s{
        data::make_paper_dataset(name, L::kDatasetSeed), {}};
    for (std::size_t f = 0; f < L::kFits; ++f) {
      s.second.push_back(seeded_split(s.first, opt.seed, f));
    }
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return s;
  };
  const auto [ds, splits] = timed_setup();

  // Each fit is followed by a slice of every serving-side measurement on the
  // model it produced, so the latency figures sample the whole run rather
  // than one stretch of it.
  const auto slice_ns = [&](double share) {
    return static_cast<std::uint64_t>(opt.seconds * share * 1e9 /
                                      static_cast<double>(L::kFits));
  };
  std::vector<double> fit_s;
  std::vector<double> mse;
  std::vector<double> epochs;
  std::vector<double> single_ns;   // one predict at a time
  std::vector<double> batch_rate;  // rows/s of each predict_batch call
  std::vector<double> handoff_ns;  // save_pipeline + load_pipeline
  std::uint64_t attempted = 0;
  std::size_t mismatches = 0;
  double sink = 0.0;
  for (std::size_t f = 0; f < L::kFits; ++f) {
    const data::TrainTestSplit& split = splits[f];
    const data::Dataset& test = split.test;
    core::RegHDPipeline pipe{core::PipelineConfig{}};
    const std::uint64_t t0 = now_ns();
    pipe.fit(split.train);
    fit_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    mse.push_back(pipe.evaluate_mse(test));
    epochs.push_back(static_cast<double>(pipe.report().epochs_run));
    ++attempted;

    const std::uint64_t single_end = now_ns() + slice_ns(L::kSinglePredictShare);
    for (std::size_t i = 0; now_ns() < single_end; ++i) {
      const std::uint64_t s = now_ns();
      sink += pipe.predict(test.row(i % test.size()));
      single_ns.push_back(static_cast<double>(now_ns() - s));
      ++attempted;
    }

    std::vector<double> batch_out;
    const std::uint64_t batch_end = now_ns() + slice_ns(L::kBatchPredictShare);
    do {
      const std::uint64_t s = now_ns();
      batch_out = pipe.predict_batch(test);
      batch_rate.push_back(static_cast<double>(test.size()) * 1e9 /
                           static_cast<double>(now_ns() - s));
      attempted += test.size();
    } while (now_ns() < batch_end);

    // Model hand-off: the time until a freshly trained model can serve
    // elsewhere.
    std::optional<core::RegHDPipeline> reloaded;
    const std::uint64_t handoff_end = now_ns() + slice_ns(L::kRoundtripShare);
    do {
      const std::uint64_t s = now_ns();
      std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
      core::save_pipeline(buf, pipe);
      reloaded.emplace(core::load_pipeline(buf));
      handoff_ns.push_back(static_cast<double>(now_ns() - s));
      ++attempted;
    } while (now_ns() < handoff_end);

    (void)timed_setup();

    // Correctness gate: single ≡ batch ≡ reloaded, bit for bit.
    for (std::size_t i = 0; i < test.size(); i += f + 1 == L::kFits ? 1 : 31) {
      const double a = pipe.predict(test.row(i));
      const double b = reloaded->predict(test.row(i));
      if (std::memcmp(&a, &b, sizeof a) != 0 || std::memcmp(&a, &batch_out[i], sizeof a) != 0) {
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    r.fail_check("train-offline: " + std::to_string(mismatches) +
                 " predictions differ after save/reload or between batch and single");
  }
  const double model_mse = mean(mse);
  if (!std::isfinite(model_mse) || !std::isfinite(sink)) {
    r.fail_check("train-offline: model_mse is not finite");
  }

  r.add("setup_s", median(setup_s), "s");
  r.add("fit_s", mean(fit_s), "s");
  r.add("model_mse", model_mse, "mse");
  r.add("predict_p50_us", quantile(single_ns, 0.50) / 1e3, "us");
  r.add("predict_p95_us", windowed_quantile(single_ns, load::kTailWindow, 0.95) / 1e3, "us");
  r.add("sat_ops_per_s", median(batch_rate), "1/s");
  r.add("fresh_p50_ms", quantile(handoff_ns, 0.50) / 1e6, "ms");
  r.add("fresh_p99_ms", windowed_quantile(handoff_ns, load::kTailWindow, 0.99) / 1e6, "ms");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.attempted = attempted;
  r.failed = 0;
  if (trace != nullptr) {
    trace->epochs = mean(epochs);
  }

  std::ostringstream d;
  d << "{\"dataset\":\"" << name << "\",\"rows\":" << ds.size()
    << ",\"train_rows\":" << splits[0].train.size() << ",\"test_rows\":" << splits[0].test.size()
    << ",\"fits\":[";
  for (std::size_t f = 0; f < fit_s.size(); ++f) {
    d << (f ? "," : "") << "{\"fit_s\":" << json_number(fit_s[f])
      << ",\"epochs\":" << epochs[f] << ",\"mse\":" << json_number(mse[f]) << "}";
  }
  d << "],\"single_predicts\":" << single_ns.size() << ",\"handoffs\":" << handoff_ns.size()
    << "}";
  r.detail.emplace_back("train-offline", d.str());
  return r;
}

}  // namespace perfbench
