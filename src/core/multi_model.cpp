#include "core/multi_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include <cstring>

#include "core/early_stopping.hpp"
#include "hdc/encoding.hpp"
#include "hdc/kernel_backend.hpp"
#include "hdc/random_hv.hpp"
#include "obs/telemetry.hpp"
#include "util/aligned.hpp"
#include "util/check.hpp"
#include "util/parallel.hpp"
#include "util/statistics.hpp"

namespace reghd::core {

namespace {

// Eq. 5 cosine from one real-bank sweep: scores[c] = C_c·S against the cached
// cluster norms ‖C_c‖ and the query norm qn — similarities_into's
// full-precision expression, operation for operation.
void cosine_from_scores(const double* scores, const double* cluster_norm, double qn,
                        std::span<double> sims) {
  for (std::size_t c = 0; c < sims.size(); ++c) {
    sims[c] = (cluster_norm[c] == 0.0 || qn == 0.0) ? 0.0
                                                     : scores[c] / (cluster_norm[c] * qn);
  }
}

// Eq. 6 over real-bank model scores, Σ_m conf[m]·(M_m·S / D) — predict_dot's
// real/real expression per term (one model per cluster, so conf has k_m
// entries).
double real_blend(std::span<const double> conf, const double* model_scores, double dd) {
  double y = 0.0;
  for (std::size_t m = 0; m < conf.size(); ++m) {
    y += conf[m] * (model_scores[m] / dd);
  }
  return y;
}

}  // namespace

MultiModelRegressor::MultiModelRegressor(const RegHDConfig& config) : config_(config) {
  config_.validate();
  reset();
}

void MultiModelRegressor::reset() {
  util::Rng rng(config_.seed);
  util::Rng cluster_rng = rng.split();

  models_.assign(config_.models, RegressionModel(config_.dim));
  clusters_.clear();
  clusters_.reserve(config_.models);
  for (std::size_t i = 0; i < config_.models; ++i) {
    ClusterCenter c;
    // Paper §2.4: cluster hypervectors initialized to random binary values.
    c.accumulator = hdc::random_bipolar(config_.dim, cluster_rng).to_real();
    c.norm2 = static_cast<double>(config_.dim);
    c.requantize();
    clusters_.push_back(std::move(c));
  }
  for (auto& m : models_) {
    m.requantize();
  }
  rebuild_packed_bank();
}

void MultiModelRegressor::build_packed_bank_into(PackedTernaryBank& bank) const {
  const PredictionMode mode = config_.prediction_mode();
  const std::size_t d = config_.dim;
  const std::size_t words = (d + 63) / 64;
  const std::size_t k_c = clusters_.size();
  // Model rows ride in the bank whenever the model term is a popcount shape
  // (binary or ternary snapshots); real-precision models stay out (their
  // term is a float dot, handled per sample by predict_batch).
  const bool bank_models = mode.model == ModelPrecision::kBinary ||
                           mode.model == ModelPrecision::kTernary;
  const std::size_t rows = k_c + (bank_models ? models_.size() : 0);
  bank.rows = rows;
  bank.words = words;
  bank.signs.resize(rows * words);
  bank.masks.resize(rows * words);
  bank.scale.assign(rows, 1.0);
  // Full-participation mask row: all d bits set, padding bits zero (the
  // dot_rows_ternary contract) — under it the masked bipolar dot degenerates
  // to the exact d − 2·Hamming of the binary scan.
  std::vector<std::uint64_t> full(words, ~0ULL);
  if (d % 64 != 0 && words > 0) {
    full[words - 1] = (1ULL << (d % 64)) - 1;
  }
  for (std::size_t c = 0; c < k_c; ++c) {
    std::memcpy(bank.signs.data() + c * words, clusters_[c].binary.words().data(),
                words * sizeof(std::uint64_t));
    std::memcpy(bank.masks.data() + c * words, full.data(),
                words * sizeof(std::uint64_t));
  }
  if (bank_models) {
    for (std::size_t m = 0; m < models_.size(); ++m) {
      const std::size_t r = k_c + m;
      std::memcpy(bank.signs.data() + r * words, models_[m].binary.words().data(),
                  words * sizeof(std::uint64_t));
      if (mode.model == ModelPrecision::kTernary) {
        std::memcpy(bank.masks.data() + r * words,
                    models_[m].ternary_mask.words().data(),
                    words * sizeof(std::uint64_t));
        bank.scale[r] = models_[m].gamma_ternary;
      } else {
        std::memcpy(bank.masks.data() + r * words, full.data(),
                    words * sizeof(std::uint64_t));
        bank.scale[r] = models_[m].gamma;
      }
    }
  }
  bank.valid = true;
}

void MultiModelRegressor::rebuild_packed_bank() {
  build_packed_bank_into(packed_bank_);
}

std::vector<double> MultiModelRegressor::similarities(
    const hdc::EncodedSampleView& sample) const {
  std::vector<double> sims(clusters_.size());
  similarities_into(sample, sims);
  return sims;
}

void MultiModelRegressor::similarities_into(const hdc::EncodedSampleView& sample,
                                            std::span<double> sims) const {
  REGHD_CHECK(sample.real.dim() == config_.dim,
              "sample dim " << sample.real.dim() << " != configured dim " << config_.dim);
  switch (config_.cluster_mode) {
    case ClusterMode::kFullPrecision: {
      // Eq. 5 cosine over the integer centers, query at its configured
      // precision. Query norm is cached; cluster norms are maintained
      // incrementally.
      const double qn2 = query_norm2(sample, config_.query_precision);
      const double qn = std::sqrt(qn2);
      for (std::size_t i = 0; i < clusters_.size(); ++i) {
        const double cn = std::sqrt(clusters_[i].norm2);
        if (cn == 0.0 || qn == 0.0) {
          sims[i] = 0.0;
          continue;
        }
        sims[i] =
            raw_query_dot(clusters_[i].accumulator, sample, config_.query_precision) / (cn * qn);
      }
      break;
    }
    case ClusterMode::kQuantized:
    case ClusterMode::kNaiveBinary: {
      // §3.1: Hamming similarity of binary snapshots against the binary
      // query; range [−1, 1] matches the cosine scale.
      for (std::size_t i = 0; i < clusters_.size(); ++i) {
        sims[i] = hdc::hamming_similarity(clusters_[i].binary, sample.binary);
      }
      break;
    }
  }
}

std::size_t MultiModelRegressor::assign_cluster(const hdc::EncodedSampleView& sample) const {
  const auto sims = similarities(sample);
  return static_cast<std::size_t>(
      std::distance(sims.begin(), std::max_element(sims.begin(), sims.end())));
}

void MultiModelRegressor::confidences_into(std::span<double> sims) const {
  if (config_.normalize_similarities && sims.size() > 1) {
    double mean = 0.0;
    for (const double s : sims) {
      mean += s;
    }
    mean /= static_cast<double>(sims.size());
    double var = 0.0;
    for (const double s : sims) {
      var += (s - mean) * (s - mean);
    }
    var /= static_cast<double>(sims.size());
    const double inv_std = 1.0 / (std::sqrt(var) + 1e-12);
    for (double& s : sims) {
      s = (s - mean) * inv_std;
    }
  }
  util::softmax_inplace(sims, config_.softmax_temperature);
}

double MultiModelRegressor::blend(std::span<const double> conf,
                                  const hdc::EncodedSampleView& sample, PredictionMode mode,
                                  std::span<double> outputs) const {
  double y = 0.0;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    const double out = predict_dot(models_[i], sample, mode);
    if (!outputs.empty()) {
      outputs[i] = out;
    }
    y += conf[i] * out;
  }
  return y;
}

double MultiModelRegressor::reference_row(const hdc::EncodedSampleView& sample,
                                          std::span<double> sims) const {
  similarities_into(sample, sims);
  confidences_into(sims);
  return blend(sims, sample, config_.prediction_mode());
}

double MultiModelRegressor::predict(const hdc::EncodedSampleView& sample) const {
  const obs::StageTimer timer(obs::Histo::kPredictNs);
  obs::count(obs::Counter::kPredicts);
  std::vector<double> sims(clusters_.size());
  return reference_row(sample, sims);
}

PredictionDetail MultiModelRegressor::predict_detail(const hdc::EncodedSampleView& sample) const {
  PredictionDetail detail;
  detail.similarities = similarities(sample);
  detail.confidences = detail.similarities;
  confidences_into(detail.confidences);
  detail.best_cluster = static_cast<std::size_t>(std::distance(
      detail.similarities.begin(),
      std::max_element(detail.similarities.begin(), detail.similarities.end())));
  detail.model_outputs.resize(models_.size());
  detail.prediction =
      blend(detail.confidences, sample, config_.prediction_mode(), detail.model_outputs);
  return detail;
}

double MultiModelRegressor::real_tail(const double* scores, const double* cluster_norm,
                                      double qn, std::span<double> sims) const {
  cosine_from_scores(scores, cluster_norm, qn, sims);
  confidences_into(sims);
  return real_blend(sims, scores + sims.size(), static_cast<double>(config_.dim));
}

double MultiModelRegressor::popcount_tail(const std::int64_t* totals,
                                          const PackedTernaryBank& bank,
                                          std::span<double> sims,
                                          const hdc::EncodedSampleView* sample) const {
  const std::size_t d = config_.dim;
  const double dd = static_cast<double>(d);
  const std::size_t k_c = sims.size();
  // hamming_similarity replayed from the exact integer distance: a full-mask
  // row's bipolar dot is D − 2h, so h = (D − dot) / 2.
  for (std::size_t c = 0; c < k_c; ++c) {
    const auto h = static_cast<double>((static_cast<std::int64_t>(d) - totals[c]) / 2);
    sims[c] = 1.0 - 2.0 * h / dd;
  }
  confidences_into(sims);
  if (config_.model_precision == ModelPrecision::kReal) {
    // Integer (real-precision) model term: not a popcount shape, so the
    // per-sample kernel scores the materialized query.
    return blend(sims, *sample, config_.prediction_mode());
  }
  // γ·score/D (binary) or γ_ternary·score/D (ternary): the bank's per-row
  // scale is exactly that γ, so one expression replays both predict_dot forms.
  double y = 0.0;
  for (std::size_t m = 0; m < k_c; ++m) {
    y += sims[m] * (bank.scale[k_c + m] * static_cast<double>(totals[k_c + m]) / dd);
  }
  return y;
}

MultiModelRegressor::ScoringBank MultiModelRegressor::scoring_bank() const noexcept {
  if (config_.cluster_mode == ClusterMode::kFullPrecision &&
      config_.query_precision == QueryPrecision::kReal &&
      config_.model_precision == ModelPrecision::kReal) {
    return ScoringBank::kReal;
  }
  if (config_.cluster_mode != ClusterMode::kFullPrecision &&
      config_.query_precision == QueryPrecision::kBinary) {
    return ScoringBank::kPopcount;
  }
  return ScoringBank::kPerSample;
}

void MultiModelRegressor::build_real_bank(util::AlignedVector<double>& bank,
                                          std::vector<double>& cluster_norm) const {
  const std::size_t d = config_.dim;
  const std::size_t k_c = clusters_.size();
  bank.resize((k_c + models_.size()) * d);
  cluster_norm.resize(k_c);
  for (std::size_t c = 0; c < k_c; ++c) {
    std::memcpy(bank.data() + c * d, clusters_[c].accumulator.values().data(),
                d * sizeof(double));
    cluster_norm[c] = std::sqrt(clusters_[c].norm2);
  }
  for (std::size_t m = 0; m < models_.size(); ++m) {
    std::memcpy(bank.data() + (k_c + m) * d, models_[m].accumulator.values().data(),
                d * sizeof(double));
  }
}

const PackedTernaryBank& MultiModelRegressor::popcount_bank(
    const PredictScratch& scratch) const noexcept {
  return packed_bank_.valid ? packed_bank_ : scratch.packed;
}

double MultiModelRegressor::predict_one(const hdc::Encoder& encoder,
                                        std::span<const double> features) const {
  const obs::StageTimer timer(obs::Histo::kPredictOneNs);
  REGHD_CHECK(encoder.dim() == config_.dim,
              "encoder dim " << encoder.dim() << " != configured dim " << config_.dim);
  const ScoringBank shape = scoring_bank();
  if (!encoder.supports_block_encode() ||
      !(shape == ScoringBank::kReal ||
        (shape == ScoringBank::kPopcount &&
         config_.model_precision != ModelPrecision::kReal))) {
    // Materializing path: full encode, then the ordinary Eq. 5/6 predict.
    // Covers encoders without block support and the mode combinations whose
    // model term is not fusable (e.g. ternary model with a real query — a
    // sparse masked float dot that wants the whole query anyway).
    obs::count(obs::Counter::kPredictFusedFallbacks);
    return predict(encoder.encode(features));
  }

  // One L1-resident slice of the hyperspace per iteration: the 8 KB block
  // plus the bank rows' slices stay in cache from the encode stage through
  // the bank scan — the software mirror of sim/accelerator.hpp's
  // encode → similarity-search → confidence → predict stage pipeline, with
  // blocks in place of its streamed beats. 1024 is a multiple of 64 (the
  // dot_rows_block / word-packing granularity), so only the final block may
  // be ragged.
  constexpr std::size_t kFusedBlock = 1024;
  const hdc::KernelBackend& kb = hdc::active_backend();
  const std::size_t d = config_.dim;
  const std::size_t k_c = clusters_.size();
  const std::size_t k_m = models_.size();
  obs::count(obs::Counter::kPredicts);
  obs::count(obs::Counter::kPredictFused);

  // thread_local scratch: predict_one is const and must stay safe to call
  // concurrently, without paying per-call allocations on the latency path.
  thread_local std::vector<double> block;
  thread_local std::vector<double> sims;
  block.resize(kFusedBlock);
  sims.resize(k_c);

  if (shape == ScoringBank::kReal) {
    // The real bank scan, one block at a time: dot_rows_block carries each
    // row's lane-accumulator state across blocks and finishes bit-identical
    // to its backend's dot_real_real, so the scores equal raw_query_dot /
    // predict_dot exactly. The query's own norm² rides as one extra bank row
    // (q·q through the same kernel — exactly how encode() computes
    // real_norm2).
    const std::size_t rows = k_c + k_m + 1;
    thread_local std::vector<double> state;
    thread_local std::vector<const double*> row_ptrs;
    thread_local std::vector<double> scores;
    thread_local std::vector<double> cluster_norm;
    state.assign(rows * hdc::kDotRowsBlockState, 0.0);
    row_ptrs.resize(rows);
    scores.resize(rows);
    for (std::size_t j0 = 0; j0 < d; j0 += kFusedBlock) {
      const std::size_t len = std::min(kFusedBlock, d - j0);
      const bool last = j0 + len == d;
      encoder.encode_real_block(features, j0, len, block.data());
      for (std::size_t c = 0; c < k_c; ++c) {
        row_ptrs[c] = clusters_[c].accumulator.values().data() + j0;
      }
      for (std::size_t m = 0; m < k_m; ++m) {
        row_ptrs[k_c + m] = models_[m].accumulator.values().data() + j0;
      }
      row_ptrs[k_c + k_m] = block.data();
      kb.dot_rows_block(block.data(), row_ptrs.data(), rows, len, last,
                        state.data(), scores.data());
    }
    cluster_norm.resize(k_c);
    for (std::size_t c = 0; c < k_c; ++c) {
      cluster_norm[c] = std::sqrt(clusters_[c].norm2);
    }
    return real_tail(scores.data(), cluster_norm.data(), std::sqrt(scores[k_c + k_m]), sims);
  }

  // The popcount bank scan, blocked: each encoded block is sign-packed
  // (bit-identical to the slice of encode()'s sign/pack — word boundaries
  // align because non-final blocks are 64-multiples) and scored against the
  // word-offset slice of the packed 2-bit-plane bank; the per-block masked
  // popcount scores are integers, so summing them across blocks is exact and
  // the totals equal the unblocked dot_rows_ternary.
  PredictScratch stale;  // the popcount fallback bank, built only when stale
  if (!packed_bank_.valid) {
    prepare_predict_scratch(stale);
  }
  const PackedTernaryBank& bank = popcount_bank(stale);
  REGHD_INTERNAL_CHECK(bank.rows == k_c + k_m && bank.words == (d + 63) / 64,
                       "packed bank geometry " << bank.rows << "×" << bank.words
                                               << " does not match predict shape");
  thread_local std::vector<std::uint64_t> qwords;
  thread_local std::vector<std::int64_t> block_scores;
  thread_local std::vector<std::int64_t> totals;
  qwords.resize(kFusedBlock / 64);
  block_scores.resize(bank.rows);
  totals.assign(bank.rows, 0);
  for (std::size_t j0 = 0; j0 < d; j0 += kFusedBlock) {
    const std::size_t len = std::min(kFusedBlock, d - j0);
    encoder.encode_real_block(features, j0, len, block.data());
    kb.sign_encode(block.data(), qwords.data(), len);
    const std::size_t w0 = j0 / 64;
    kb.dot_rows_ternary(qwords.data(), bank.signs.data() + w0,
                        bank.masks.data() + w0, bank.words, bank.rows, len,
                        block_scores.data());
    for (std::size_t r = 0; r < bank.rows; ++r) {
      totals[r] += block_scores[r];
    }
  }
  return popcount_tail(totals.data(), bank, sims, nullptr);
}

void MultiModelRegressor::prepare_predict_scratch(PredictScratch& scratch) const {
  const std::size_t k_c = clusters_.size();
  const std::size_t k_m = models_.size();
  scratch.shape = scoring_bank();
  scratch.dim = config_.dim;
  scratch.clusters = k_c;
  scratch.models = k_m;
  scratch.sims.assign(k_c, 0.0);
  if (scratch.shape == ScoringBank::kReal) {
    build_real_bank(scratch.bank, scratch.cluster_norm);
    scratch.scores.assign(k_c + k_m, 0.0);
  } else if (scratch.shape == ScoringBank::kPopcount) {
    // The persistent bank tracks the snapshots (rebuilt on requantize); only
    // when raw mutable-state access left it stale does the scratch carry a
    // fallback built from the same snapshots — same bytes, same results.
    if (!packed_bank_.valid) {
      build_packed_bank_into(scratch.packed);
    }
    scratch.qscores.assign(popcount_bank(scratch).rows, 0);
  }
}

void MultiModelRegressor::scan_rows(const EncodedDataset& dataset, std::size_t r0,
                                    std::size_t rn, const PredictScratch& prepared,
                                    std::span<double> scores,
                                    std::span<std::int64_t> qscores,
                                    std::span<double> sims, std::span<double> out) const {
  REGHD_CHECK(dataset.dim() == config_.dim,
              "dataset dim " << dataset.dim() << " != configured dim " << config_.dim);
  const hdc::KernelBackend& kb = hdc::active_backend();
  const std::size_t d = config_.dim;
  switch (prepared.shape) {
    case ScoringBank::kReal: {
      // One dot_rows sweep of each query row against the whole (k_c + k_m)×D
      // bank (the bank stays hot in cache across rows); dot_rows reduces each
      // bank row exactly like the dot_real_real calls behind raw_query_dot /
      // predict_dot.
      const double* rows = dataset.real_plane().data();
      for (std::size_t i = r0; i < rn; ++i) {
        kb.dot_rows(rows + i * d, prepared.bank.data(), d, scores.size(), d, scores.data());
        out[i] = real_tail(scores.data(), prepared.cluster_norm.data(),
                           std::sqrt(dataset.norms2()[i]), sims);
      }
      return;
    }
    case ScoringBank::kPopcount: {
      // §3.1 + §3.2: one dot_rows_ternary popcount sweep of each binary query
      // against the packed cluster snapshot rows — plus, with a binary or
      // ternary model, the k model snapshot rows (full mask + γ, or dead-zone
      // mask + γ_ternary), making the whole Eq. 5/6 pipeline XNOR+popcount.
      const PackedTernaryBank& bank = popcount_bank(prepared);
      const std::size_t words = dataset.words_per_row();
      REGHD_INTERNAL_CHECK(bank.rows == qscores.size() && bank.words == words,
                           "packed bank geometry " << bank.rows << "×" << bank.words
                                                   << " does not match predict shape");
      const std::uint64_t* bits = dataset.binary_plane().data();
      for (std::size_t i = r0; i < rn; ++i) {
        kb.dot_rows_ternary(bits + i * words, bank.signs.data(), bank.masks.data(), words,
                            bank.rows, d, qscores.data());
        const hdc::EncodedSampleView s = dataset.sample(i);
        out[i] = popcount_tail(qscores.data(), bank, sims, &s);
      }
      return;
    }
    default:  // ScoringBank::kPerSample
      for (std::size_t i = r0; i < rn; ++i) {
        out[i] = reference_row(dataset.sample(i), sims);
      }
      return;
  }
}

std::vector<double> MultiModelRegressor::predict_batch(const EncodedDataset& dataset,
                                                       std::size_t threads) const {
  const obs::StageTimer timer(obs::Histo::kPredictBatchNs);
  obs::count(obs::Counter::kPredictBatchRows, dataset.size());
  std::vector<double> out(dataset.size());
  if (dataset.empty()) {
    return out;
  }
  // One read-only bank shared by every chunk; each chunk owns its per-row
  // buffers, and rows are independent, so out[i] equals predict(sample i)
  // for any thread count.
  PredictScratch prepared;
  prepare_predict_scratch(prepared);
  constexpr std::size_t kChunk = 64;
  const std::size_t chunks = (dataset.size() + kChunk - 1) / kChunk;
  util::parallel_for(
      chunks,
      [&](std::size_t chunk) {
        std::vector<double> scores(prepared.scores.size());
        std::vector<std::int64_t> qscores(prepared.qscores.size());
        std::vector<double> sims(prepared.sims.size());
        scan_rows(dataset, chunk * kChunk, std::min(dataset.size(), (chunk + 1) * kChunk),
                  prepared, scores, qscores, sims, out);
      },
      threads != 0 ? threads : config_.threads);
  return out;
}

void MultiModelRegressor::predict_batch_into(const EncodedDataset& dataset,
                                             std::span<double> out,
                                             PredictScratch& scratch) const {
  REGHD_CHECK(out.size() >= dataset.size(),
              "predict_batch_into output span holds " << out.size()
                                                      << " slots for "
                                                      << dataset.size() << " rows");
  REGHD_CHECK(scratch.shape == scoring_bank() && scratch.dim == config_.dim &&
                  scratch.clusters == clusters_.size() && scratch.models == models_.size(),
              "predict scratch prepared for D=" << scratch.dim << ", k=" << scratch.clusters
                                                << "/" << scratch.models << ", bank "
                                                << static_cast<int>(scratch.shape)
                                                << " does not match this model (D="
                                                << config_.dim << ", k=" << clusters_.size()
                                                << "/" << models_.size() << ", bank "
                                                << static_cast<int>(scoring_bank()) << ")");
  const obs::StageTimer timer(obs::Histo::kPredictBatchNs);
  obs::count(obs::Counter::kPredictBatchRows, dataset.size());
  if (dataset.empty()) {
    return;
  }
  scan_rows(dataset, 0, dataset.size(), scratch, scratch.scores, scratch.qscores,
            scratch.sims, out);
}

double MultiModelRegressor::evaluate_mse(const EncodedDataset& dataset) const {
  REGHD_CHECK(!dataset.empty(), "cannot evaluate on an empty dataset");
  const std::vector<double> pred = predict_batch(dataset);
  // Serial accumulation in index order keeps the MSE bit-identical for any
  // thread count.
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double e = pred[i] - dataset.target(i);
    acc += e * e;
  }
  return acc / static_cast<double>(dataset.size());
}

double MultiModelRegressor::train_step(const hdc::EncodedSampleView& sample, double target) {
  const obs::StageTimer timer(obs::Histo::kTrainStepNs);
  obs::count(obs::Counter::kTrainSteps);
  // Member scratch instead of per-call vectors: train_step runs once per
  // sample per epoch, and the two allocations dominated its fixed cost.
  step_sims_.resize(clusters_.size());
  similarities_into(sample, step_sims_);
  step_conf_.assign(step_sims_.begin(), step_sims_.end());
  confidences_into(step_conf_);
  const std::vector<double>& sims = step_sims_;
  const std::vector<double>& conf = step_conf_;
  // The training error is always measured against the integer models being
  // updated (paper §3.2: binary snapshots are regenerated from the integer
  // model per epoch/batch; computing the error from an epoch-frozen snapshot
  // would keep it constant and destabilize the accumulation). Binary kernels
  // apply at inference via predict().
  const PredictionMode mode{config_.query_precision, ModelPrecision::kReal};

  // Eq. 6: confidence-weighted prediction.
  const double prediction = blend(conf, sample, mode);
  double error = target - prediction;
  if (config_.error_clip > 0.0) {
    error = std::clamp(error, -config_.error_clip, config_.error_clip);
  }

  // Eq. 7: model updates on the integer accumulators.
  const std::size_t winner = static_cast<std::size_t>(
      std::distance(sims.begin(), std::max_element(sims.begin(), sims.end())));
  const double normalizer = update_normalizer(sample, config_.query_precision);
  if (config_.update_rule == UpdateRule::kConfidenceWeighted) {
    // Mixture-normalized LMS: dividing by Σδ'² makes the joint update move
    // this sample's blended prediction by exactly α·err, independent of how
    // soft the confidences are (for one-hot confidence this is Eq. 7
    // verbatim).
    double conf_sq = 0.0;
    for (const double c : conf) {
      conf_sq += c * c;
    }
    const double mix_norm = conf_sq > 0.0 ? 1.0 / conf_sq : 0.0;
    for (std::size_t i = 0; i < models_.size(); ++i) {
      const double coeff = config_.learning_rate * error * conf[i] * normalizer * mix_norm;
      if (coeff != 0.0) {
        update_accumulator(models_[i].accumulator, sample, coeff, config_.query_precision);
      }
    }
  } else {
    update_accumulator(models_[winner].accumulator, sample,
                       config_.learning_rate * error * normalizer, config_.query_precision);
  }

  // Eq. 8 / Eq. 9: cluster update on the winning center's integer
  // accumulator. The paper's Eq. 9 updates the integer copy with the
  // integer-encoded input even when similarity search is binary; frozen in
  // the naive-binarization foil.
  obs::count_cluster_hit(winner);
  if (config_.cluster_mode != ClusterMode::kNaiveBinary) {
    ClusterCenter& c = clusters_[winner];
    const double weight = 1.0 - sims[winner];
    if (weight != 0.0) {
      obs::count(obs::Counter::kClusterUpdates);
      // Maintain ‖C‖² incrementally: ‖C + w·S‖² = ‖C‖² + 2w·(C·S) + w²·‖S‖².
      const double dot_cs = hdc::dot(c.accumulator, sample.real);
      hdc::add_scaled(c.accumulator, sample.real, weight);
      c.norm2 += 2.0 * weight * dot_cs + weight * weight * sample.real_norm2;
      c.norm2 = std::max(c.norm2, 0.0);
    }
  }
  return prediction;
}

void MultiModelRegressor::train_batch(const EncodedDataset& data,
                                      std::span<const std::size_t> indices,
                                      std::span<double> predictions, std::size_t threads) {
  REGHD_CHECK(predictions.size() == indices.size(),
              "train_batch needs one prediction slot per index, got "
                  << predictions.size() << " for " << indices.size());
  if (indices.empty()) {
    return;
  }
  REGHD_CHECK(data.dim() == config_.dim,
              "batch data dim " << data.dim() << " != configured dim " << config_.dim);
  const obs::StageTimer timer(obs::Histo::kTrainBatchNs);
  obs::count(obs::Counter::kTrainBatches);
  obs::count(obs::Counter::kTrainBatchSamples, indices.size());
  const std::size_t b = indices.size();
  const std::size_t k = models_.size();
  const std::size_t use_threads = threads != 0 ? threads : config_.threads;
  const double dd = static_cast<double>(config_.dim);
  const bool confidence_weighted = config_.update_rule == UpdateRule::kConfidenceWeighted;
  const PredictionMode train_mode{config_.query_precision, ModelPrecision::kReal};

  batch_sims_.resize(b * k);
  batch_conf_.resize(b * k);
  batch_weight_.resize(b);
  batch_winner_.resize(b);
  if (confidence_weighted) {
    batch_coeff_.resize(b * k);
  } else {
    batch_wcoeff_.resize(b);
  }

  // Finishes one sample's phase-1 work from its filled sims/conf rows and
  // Eq. 6 prediction: error, winner, Eq. 7 coefficients, Eq. 8 weight. Every
  // store lands in sample j's own scratch slots, so phase 1 is deterministic
  // for any thread count. The arithmetic replays train_step's operation
  // sequence exactly — a one-sample batch is bit-identical to train_step.
  const auto finish_sample = [&](std::size_t j, double prediction) {
    const std::size_t row = indices[j];
    predictions[j] = prediction;
    double error = data.target(row) - prediction;
    if (config_.error_clip > 0.0) {
      error = std::clamp(error, -config_.error_clip, config_.error_clip);
    }
    const double* sims = batch_sims_.data() + j * k;
    const double* conf = batch_conf_.data() + j * k;
    const auto winner =
        static_cast<std::size_t>(std::distance(sims, std::max_element(sims, sims + k)));
    batch_winner_[j] = winner;
    obs::count_cluster_hit(winner);
    const double normalizer = update_normalizer(data.sample(row), config_.query_precision);
    if (confidence_weighted) {
      double conf_sq = 0.0;
      for (std::size_t i = 0; i < k; ++i) {
        conf_sq += conf[i] * conf[i];
      }
      const double mix_norm = conf_sq > 0.0 ? 1.0 / conf_sq : 0.0;
      double* coeff = batch_coeff_.data() + j * k;
      for (std::size_t i = 0; i < k; ++i) {
        coeff[i] = config_.learning_rate * error * conf[i] * normalizer * mix_norm;
      }
    } else {
      batch_wcoeff_[j] = config_.learning_rate * error * normalizer;
    }
    batch_weight_[j] = 1.0 - sims[winner];
  };

  // Phase 1 — per-sample Eq. 5/6 quantities against the entry (batch-start)
  // state, parallel over samples. The bank fast path pays a 2k·D bank copy
  // per call, which only amortizes once a few samples share it; tiny batches
  // (B = 1 above all) take the per-sample kernels directly. Both branches
  // are bit-identical, so the constant threshold only moves cost around.
  constexpr std::size_t kBankMinBatch = 8;
  if (config_.cluster_mode == ClusterMode::kFullPrecision &&
      config_.query_precision == QueryPrecision::kReal && b >= kBankMinBatch) {
    // Bank fast path (the default training configuration): one dot_rows
    // sweep of each sample row against a contiguous batch-start bank of the
    // k cluster + k model accumulators. dot_rows reduces each bank row in
    // the operand order of raw_query_dot / predict_dot, so the sims and
    // model dots are bit-identical to the per-sample kernel calls.
    const hdc::KernelBackend& kb = hdc::active_backend();
    const std::size_t d = config_.dim;
    build_real_bank(batch_bank_, batch_cnorm_);
    batch_scores_.resize(b * 2 * k);
    const double* rows = data.real_plane().data();
    util::parallel_for(
        b,
        [&](std::size_t j) {
          const std::size_t row = indices[j];
          double* scores = batch_scores_.data() + j * 2 * k;
          kb.dot_rows(rows + row * d, batch_bank_.data(), d, 2 * k, d, scores);
          const std::span<double> sims(batch_sims_.data() + j * k, k);
          const std::span<double> conf(batch_conf_.data() + j * k, k);
          cosine_from_scores(scores, batch_cnorm_.data(), std::sqrt(data.norms2()[row]), sims);
          std::copy(sims.begin(), sims.end(), conf.begin());
          confidences_into(conf);
          finish_sample(j, real_blend(conf, scores + k, dd));
        },
        use_threads);
  } else {
    // Generic phase 1 (quantized/naive clusters or binary queries): the
    // per-sample kernels of train_step, parallel over samples.
    util::parallel_for(
        b,
        [&](std::size_t j) {
          const hdc::EncodedSampleView s = data.sample(indices[j]);
          const std::span<double> sims(batch_sims_.data() + j * k, k);
          const std::span<double> conf(batch_conf_.data() + j * k, k);
          similarities_into(s, sims);
          std::copy(sims.begin(), sims.end(), conf.begin());
          confidences_into(conf);
          finish_sample(j, blend(conf, s, train_mode));
        },
        use_threads);
  }

  // Phase 2a — Eq. 7 model updates, dimension-sliced across workers. Per
  // accumulator component the coefficients chain in ascending list order j,
  // exactly as a serial sample-order replay, and slicing cannot perturb that:
  // add_scaled_real rounds every component as an independent mul-then-add and
  // add_scaled_binary adds an exact ±coeff, so a component's value never
  // depends on which slice (or thread) computed it. Looping j outer / model
  // inner keeps each sample's row slice hot across the k model updates and
  // streams the encoded plane exactly once per batch — the per-model-chain
  // alternative re-reads it k times over, which made the first cut of this
  // path slower than the sequential trainer it was meant to beat.
  {
    const hdc::KernelBackend& kb = hdc::active_backend();
    const std::size_t d = config_.dim;
    const bool real_updates = config_.query_precision == QueryPrecision::kReal;
    const double* real_rows = data.real_plane().data();
    const std::uint64_t* binary_rows = data.binary_plane().data();
    const std::size_t words = data.words_per_row();
    const std::size_t workers =
        use_threads != 0 ? use_threads : util::default_thread_count();
    // Slice boundaries on 64-component words, so each slice of a packed sign
    // row starts at a whole word; boundary placement is free to vary with
    // the worker count because component rounding is position-blind.
    const std::size_t slices = std::min(std::max<std::size_t>(workers, 1),
                                        std::max<std::size_t>(d / 64, 1));
    const std::size_t chunk = (((d + slices - 1) / slices) + 63) & ~std::size_t{63};
    util::parallel_for(
        slices,
        [&](std::size_t s) {
          const std::size_t d0 = std::min(d, s * chunk);
          const std::size_t d1 = std::min(d, d0 + chunk);
          if (d0 >= d1) {
            return;
          }
          const std::size_t len = d1 - d0;
          for (std::size_t j = 0; j < b; ++j) {
            const std::size_t row = indices[j];
            if (confidence_weighted) {
              const double* coeff = batch_coeff_.data() + j * k;
              for (std::size_t m = 0; m < k; ++m) {
                if (coeff[m] == 0.0) {
                  continue;  // train_step's skip: keep −0 components intact
                }
                double* acc = models_[m].accumulator.values().data() + d0;
                if (real_updates) {
                  kb.add_scaled_real(acc, real_rows + row * d + d0, coeff[m], len);
                } else {
                  kb.add_scaled_binary(acc, binary_rows + row * words + d0 / 64, coeff[m],
                                       len);
                }
              }
            } else {
              double* acc = models_[batch_winner_[j]].accumulator.values().data() + d0;
              if (real_updates) {
                kb.add_scaled_real(acc, real_rows + row * d + d0, batch_wcoeff_[j], len);
              } else {
                kb.add_scaled_binary(acc, binary_rows + row * words + d0 / 64,
                                     batch_wcoeff_[j], len);
              }
            }
          }
        },
        use_threads);
  }

  // Phase 2b — Eq. 8 cluster updates as k independent chains (a sample only
  // updates its winner, so each chain streams just its own samples). The
  // incremental-norm dot needs the whole accumulator at application time,
  // which is why this phase cannot dimension-slice like 2a; within a chain
  // the float accumulation order is the sample order, independent of thread
  // count.
  if (config_.cluster_mode != ClusterMode::kNaiveBinary) {
    util::parallel_for(
        k,
        [&](std::size_t c_idx) {
          ClusterCenter& c = clusters_[c_idx];
          for (std::size_t j = 0; j < b; ++j) {
            if (batch_winner_[j] != c_idx) {
              continue;
            }
            const double weight = batch_weight_[j];
            if (weight == 0.0) {
              continue;
            }
            obs::count(obs::Counter::kClusterUpdates);
            // Same incremental-norm bookkeeping as train_step; the dot runs
            // against the accumulator with this cluster's earlier in-batch
            // updates applied, exactly as a serial sample-order replay would.
            const hdc::EncodedSampleView s = data.sample(indices[j]);
            const double dot_cs = hdc::dot(c.accumulator, s.real);
            hdc::add_scaled(c.accumulator, s.real, weight);
            c.norm2 += 2.0 * weight * dot_cs + weight * weight * s.real_norm2;
            c.norm2 = std::max(c.norm2, 0.0);
          }
        },
        use_threads);
  }
}

void MultiModelRegressor::sparsify(double fraction) {
  REGHD_CHECK(fraction >= 0.0 && fraction < 1.0,
              "sparsity fraction must lie in [0,1), got " << fraction);
  if (fraction == 0.0) {
    return;
  }
  const auto keep_from = static_cast<std::size_t>(
      fraction * static_cast<double>(config_.dim));
  std::vector<double> magnitudes(config_.dim);
  for (auto& m : models_) {
    for (std::size_t j = 0; j < config_.dim; ++j) {
      magnitudes[j] = std::abs(m.accumulator[j]);
    }
    // Threshold at the `fraction` quantile of |M_j| for this model.
    std::nth_element(magnitudes.begin(),
                     magnitudes.begin() + static_cast<std::ptrdiff_t>(keep_from),
                     magnitudes.end());
    const double threshold = magnitudes[keep_from];
    for (std::size_t j = 0; j < config_.dim; ++j) {
      if (std::abs(m.accumulator[j]) < threshold) {
        m.accumulator[j] = 0.0;
      }
    }
    m.requantize();
  }
  rebuild_packed_bank();
}

double MultiModelRegressor::model_sparsity() const {
  std::size_t zeros = 0;
  for (const auto& m : models_) {
    for (const double v : m.accumulator.values()) {
      zeros += v == 0.0 ? 1 : 0;
    }
  }
  return static_cast<double>(zeros) /
         static_cast<double>(models_.size() * config_.dim);
}

void MultiModelRegressor::decay_models(double factor) {
  REGHD_CHECK(factor > 0.0 && factor <= 1.0,
              "decay factor must lie in (0,1], got " << factor);
  if (factor == 1.0) {
    return;
  }
  for (auto& m : models_) {
    hdc::scale(m.accumulator, factor);
  }
}

void MultiModelRegressor::init_clusters_from_samples(const EncodedDataset& train) {
  // Farthest-point sampling on bipolar encodings: the first center is a
  // seeded-random sample; each next center is the sample with the smallest
  // maximum similarity to the centers chosen so far. O(k·N) Hamming passes.
  util::Rng rng(config_.seed ^ 0x494E4954ULL);  // "INIT"
  const std::size_t n = train.size();
  std::vector<std::size_t> chosen;
  chosen.reserve(config_.models);
  chosen.push_back(static_cast<std::size_t>(rng.uniform_index(n)));

  std::vector<double> max_sim(n, -2.0);
  while (chosen.size() < config_.models) {
    const hdc::BinaryHVView last = train.sample(chosen.back()).binary;
    for (std::size_t i = 0; i < n; ++i) {
      max_sim[i] = std::max(max_sim[i], hdc::hamming_similarity(train.sample(i).binary, last));
    }
    std::size_t best = 0;
    double best_score = 2.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (max_sim[i] < best_score) {
        best_score = max_sim[i];
        best = i;
      }
    }
    chosen.push_back(best);
  }

  for (std::size_t c = 0; c < config_.models; ++c) {
    ClusterCenter& center = clusters_[c];
    center.accumulator = train.sample(chosen[c]).binary.to_real();
    center.norm2 = static_cast<double>(config_.dim);
    center.requantize();
  }
  rebuild_packed_bank();
}

void MultiModelRegressor::init_clusters(const EncodedDataset& train) {
  REGHD_CHECK(!train.empty(), "cluster initialization requires training samples");
  REGHD_CHECK(train.dim() == config_.dim,
              "training data dim " << train.dim() << " != configured dim " << config_.dim);
  if (config_.cluster_init == ClusterInit::kFarthestPoint && config_.models > 1) {
    init_clusters_from_samples(train);
  }
}

void MultiModelRegressor::merge_accumulate_delta(const MultiModelRegressor& replica,
                                                 const MultiModelRegressor& base) {
  REGHD_CHECK(replica.config_.dim == config_.dim && base.config_.dim == config_.dim,
              "shard merge requires matching dimensionality, got "
                  << replica.config_.dim << "/" << base.config_.dim << " vs "
                  << config_.dim);
  REGHD_CHECK(replica.models_.size() == models_.size() &&
                  base.models_.size() == models_.size(),
              "shard merge requires matching model counts, got "
                  << replica.models_.size() << "/" << base.models_.size() << " vs "
                  << models_.size());
  const hdc::KernelBackend& kb = hdc::active_backend();
  const std::size_t d = config_.dim;
  for (std::size_t i = 0; i < models_.size(); ++i) {
    kb.merge_accumulate(models_[i].accumulator.values().data(),
                        replica.models_[i].accumulator.values().data(),
                        base.models_[i].accumulator.values().data(), d);
    kb.merge_accumulate(clusters_[i].accumulator.values().data(),
                        replica.clusters_[i].accumulator.values().data(),
                        base.clusters_[i].accumulator.values().data(), d);
  }
  // Snapshots, ‖C‖² and the packed bank are now stale relative to the merged
  // accumulators; requantize() (the caller's finalization step) recomputes
  // all three exactly.
  packed_bank_.valid = false;
}

void MultiModelRegressor::requantize() {
  obs::count(obs::Counter::kRequantizes);
  for (auto& m : models_) {
    m.requantize();
  }
  for (auto& c : clusters_) {
    c.requantize();
    // Recompute the cached norm exactly to null incremental drift.
    double norm2 = 0.0;
    for (const double v : c.accumulator.values()) {
      norm2 += v * v;
    }
    c.norm2 = norm2;
  }
  // Requantize-on-update policy: every snapshot refresh re-packs the scan
  // bank, so the online path never scores through stale packed rows.
  rebuild_packed_bank();
}

TrainingReport MultiModelRegressor::fit(const EncodedDataset& train,
                                        const EncodedDataset& val,
                                        const TrainingHooks* hooks) {
  REGHD_CHECK(!train.empty(), "cannot fit on an empty training set");
  REGHD_CHECK(!val.empty(), "multi-model fit requires a validation set for early stopping");
  REGHD_CHECK(train.dim() == config_.dim,
              "training data dim " << train.dim() << " != configured dim " << config_.dim);

  reset();
  if (config_.cluster_init == ClusterInit::kFarthestPoint && config_.models > 1) {
    init_clusters_from_samples(train);
  }
  util::Rng rng(config_.seed ^ 0x45504F4348ULL);  // "EPOCH"
  std::vector<std::size_t> order(train.size());
  std::iota(order.begin(), order.end(), 0);

  TrainingReport report;
  EarlyStopper stopper(config_.tolerance, config_.patience);
  std::vector<RegressionModel> best_models = models_;
  std::vector<ClusterCenter> best_clusters = clusters_;
  double best_val = std::numeric_limits<double>::infinity();

  std::vector<double> batch_predictions;
  for (std::size_t epoch = 0; epoch < config_.max_epochs; ++epoch) {
    rng.shuffle(order);
    double online_sq_err = 0.0;
    std::size_t since_requantize = 0;
    if (config_.batch_size == 0) {
      for (const std::size_t i : order) {
        const hdc::EncodedSampleView s = train.sample(i);
        const double y = train.target(i);
        const double before = train_step(s, y);  // returns the pre-update prediction
        online_sq_err += (y - before) * (y - before);
        if (config_.requantize_interval > 0 &&
            ++since_requantize >= config_.requantize_interval) {
          requantize();
          since_requantize = 0;
        }
      }
    } else {
      // Batch-frozen mini-batches over the same shuffled order. The
      // per-sample loop above checks the requantize counter after every
      // sample; here the counter advances a whole batch at a time, which
      // coincides exactly at B = 1 (the tested bit-identity anchor).
      const std::size_t bsize = config_.batch_size;
      batch_predictions.resize(std::min(bsize, order.size()));
      std::size_t batch = 0;
      for (std::size_t b0 = 0; b0 < order.size(); b0 += bsize, ++batch) {
        const std::size_t bn = std::min(order.size(), b0 + bsize);
        const std::span<const std::size_t> idx(order.data() + b0, bn - b0);
        train_batch(train, idx, std::span<double>(batch_predictions.data(), idx.size()));
        for (std::size_t j = 0; j < idx.size(); ++j) {
          const double y = train.target(idx[j]);
          const double before = batch_predictions[j];
          online_sq_err += (y - before) * (y - before);
        }
        since_requantize += idx.size();
        if (config_.requantize_interval > 0 &&
            since_requantize >= config_.requantize_interval) {
          requantize();
          since_requantize = 0;
        }
        if (hooks != nullptr && hooks->on_batch) {
          hooks->on_batch(epoch, batch, bn);
        }
      }
    }
    requantize();

    EpochRecord record;
    record.epoch = epoch;
    record.train_mse = online_sq_err / static_cast<double>(train.size());
    record.val_mse = evaluate_mse(val);
    report.history.push_back(record);
    report.epochs_run = epoch + 1;

    if (record.val_mse < best_val) {
      best_val = record.val_mse;
      best_models = models_;
      best_clusters = clusters_;
    }
    if (hooks != nullptr && hooks->on_telemetry) {
      hooks->on_telemetry(epoch, obs::snapshot());
    }
    if (hooks != nullptr && hooks->checkpoint_every > 0 && hooks->on_checkpoint &&
        (epoch + 1) % hooks->checkpoint_every == 0) {
      hooks->on_checkpoint(epoch);
    }
    if (stopper.update(record.val_mse)) {
      report.converged = true;
      report.stop_reason = "validation MSE stabilized";
      break;
    }
  }
  if (!report.converged) {
    report.stop_reason = "reached max_epochs";
  }
  // Keep the best validation-epoch state, not the last one. The packed bank
  // was built from the final epoch's snapshots, so re-pack from the restored
  // ones.
  models_ = std::move(best_models);
  clusters_ = std::move(best_clusters);
  rebuild_packed_bank();
  report.best_val_mse = stopper.best();
  return report;
}

}  // namespace reghd::core
