// Batched encode/predict paths must be exact row-for-row matches of the
// per-sample paths, for every thread count. These tests pin that property
// across the encoder batch API, the encoded-dataset builder, both
// regressors, and the end-user pipeline override.
#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/encoded.hpp"
#include "core/multi_model.hpp"
#include "core/pipeline.hpp"
#include "core/single_model.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoding.hpp"

namespace reghd::core {
namespace {

data::Dataset small_task() { return data::make_friedman1(96, 7); }

hdc::EncoderConfig small_encoder_config(std::size_t input_dim) {
  hdc::EncoderConfig cfg;
  cfg.kind = hdc::EncoderKind::kRffProjection;
  cfg.input_dim = input_dim;
  cfg.dim = 512;
  return cfg;
}

RegHDConfig small_reghd_config() {
  RegHDConfig cfg;
  cfg.dim = 512;
  cfg.models = 4;
  cfg.max_epochs = 4;
  return cfg;
}

TEST(EncodeBatchTest, MatchesPerRowEncodeForAnyThreadCount) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  for (const std::size_t threads : {1, 2, 8}) {
    const std::vector<hdc::EncodedSample> batch =
        encoder->encode_batch(data.features_flat(), data.size(), threads);
    ASSERT_EQ(batch.size(), data.size());
    for (std::size_t i = 0; i < data.size(); ++i) {
      const hdc::EncodedSample one = encoder->encode(data.row(i));
      EXPECT_EQ(batch[i].real, one.real) << "row " << i << ", threads " << threads;
      EXPECT_EQ(batch[i].binary, one.binary) << "row " << i << ", threads " << threads;
    }
  }
}

TEST(EncodeBatchTest, RejectsMismatchedBuffer) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  EXPECT_THROW(encoder->encode_batch(data.features_flat(), data.size() + 1, 1),
               std::invalid_argument);
}

TEST(EncodedDatasetTest, FromIsThreadCountInvariant) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset one = EncodedDataset::from(*encoder, data, 1);
  const EncodedDataset many = EncodedDataset::from(*encoder, data, 8);
  ASSERT_EQ(one.size(), many.size());
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one.sample(i).real, many.sample(i).real) << "row " << i;
    EXPECT_EQ(one.target(i), many.target(i)) << "row " << i;
  }
}

TEST(RegressorBatchTest, SingleModelBatchMatchesPerSamplePredict) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);

  SingleModelRegressor reg(small_reghd_config());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    reg.train_step(enc.sample(i), enc.target(i));
  }
  reg.requantize();

  const std::vector<double> serial = reg.predict_batch(enc, 1);
  const std::vector<double> parallel = reg.predict_batch(enc, 8);
  EXPECT_EQ(serial, parallel);  // bit-identical
  for (std::size_t i = 0; i < enc.size(); ++i) {
    EXPECT_EQ(serial[i], reg.predict(enc.sample(i))) << "row " << i;
  }
}

TEST(RegressorBatchTest, MultiModelBatchMatchesPerSamplePredict) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);

  MultiModelRegressor reg(small_reghd_config());
  for (std::size_t i = 0; i < enc.size(); ++i) {
    reg.train_step(enc.sample(i), enc.target(i));
  }
  reg.requantize();

  const std::vector<double> serial = reg.predict_batch(enc, 1);
  const std::vector<double> parallel = reg.predict_batch(enc, 8);
  EXPECT_EQ(serial, parallel);
  for (std::size_t i = 0; i < enc.size(); ++i) {
    EXPECT_EQ(serial[i], reg.predict(enc.sample(i))) << "row " << i;
  }
}

// The serving runtime's serial, scratch-reusing batch path must be an exact
// replay of predict_batch and of the per-row predict() reference in every
// cluster × query × model combination — including after further training
// invalidates the packed bank (the stale-bank fallback) and across scratch
// reuse/re-preparation.
TEST(RegressorBatchTest, PredictBatchIntoMatchesPredictBatchAcrossModes) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);

  for (const ClusterMode cluster : {ClusterMode::kFullPrecision, ClusterMode::kQuantized,
                                    ClusterMode::kNaiveBinary}) {
    for (const QueryPrecision query : {QueryPrecision::kReal, QueryPrecision::kBinary}) {
      for (const ModelPrecision model : {ModelPrecision::kReal, ModelPrecision::kTernary,
                                         ModelPrecision::kBinary}) {
        const std::string mode = to_string(cluster) + "/" + to_string(query) + "q/" +
                                 to_string(model) + "m";
        RegHDConfig cfg = small_reghd_config();
        cfg.cluster_mode = cluster;
        cfg.query_precision = query;
        cfg.model_precision = model;
        MultiModelRegressor reg(cfg);
        for (std::size_t i = 0; i < enc.size(); ++i) {
          reg.train_step(enc.sample(i), enc.target(i));
        }
        reg.requantize();

        MultiModelRegressor::PredictScratch scratch;
        reg.prepare_predict_scratch(scratch);
        const std::vector<double> want = reg.predict_batch(enc);
        std::vector<double> got(enc.size(), -1.0);
        reg.predict_batch_into(enc, got, scratch);
        EXPECT_EQ(got, want) << "fresh scratch, " << mode;
        for (std::size_t i = 0; i < enc.size(); ++i) {
          ASSERT_EQ(got[i], reg.predict(enc.sample(i))) << mode << " row " << i;
        }

        // Scratch reuse on a second call must not change anything.
        std::fill(got.begin(), got.end(), -1.0);
        reg.predict_batch_into(enc, got, scratch);
        EXPECT_EQ(got, want) << "reused scratch, " << mode;

        // Train further without requantizing, then invalidate the packed
        // bank: the re-prepared scratch must carry the fallback bank and
        // still match the (equally fallback-scoring) predict_batch.
        for (std::size_t i = 0; i < 16; ++i) {
          reg.train_step(enc.sample(i), enc.target(i));
        }
        (void)reg.mutable_models();
        ASSERT_FALSE(reg.packed_bank().valid);
        reg.prepare_predict_scratch(scratch);
        const std::vector<double> want2 = reg.predict_batch(enc);
        std::vector<double> got2(enc.size(), -1.0);
        reg.predict_batch_into(enc, got2, scratch);
        EXPECT_EQ(got2, want2) << "stale-bank fallback, " << mode;
        for (std::size_t i = 0; i < enc.size(); ++i) {
          ASSERT_EQ(got2[i], reg.predict(enc.sample(i))) << mode << " stale row " << i;
        }
      }
    }
  }
}

TEST(RegressorBatchTest, PredictBatchIntoRejectsShortSpanAndUnpreparedScratch) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
  const EncodedDataset enc = EncodedDataset::from(*encoder, data);
  const MultiModelRegressor reg(small_reghd_config());
  MultiModelRegressor::PredictScratch scratch;
  std::vector<double> out(enc.size());
  EXPECT_THROW(reg.predict_batch_into(enc, out, scratch), std::exception);
  reg.prepare_predict_scratch(scratch);
  std::vector<double> tiny(enc.size() - 1);
  EXPECT_THROW(reg.predict_batch_into(enc, tiny, scratch), std::exception);
}

// A scratch prepared against one model shape must be refused by another —
// never indexed out of bounds.
TEST(RegressorBatchTest, PredictBatchIntoRejectsScratchPreparedForAnotherModel) {
  const data::Dataset data = small_task();

  // Different D and k: a D=128, k=2 scratch on a D=4096, k=8 model.
  {
    RegHDConfig small_cfg = small_reghd_config();
    small_cfg.dim = 128;
    small_cfg.models = 2;
    RegHDConfig big_cfg = small_reghd_config();
    big_cfg.dim = 4096;
    big_cfg.models = 8;
    const MultiModelRegressor small(small_cfg);
    const MultiModelRegressor big(big_cfg);
    hdc::EncoderConfig enc_cfg = small_encoder_config(data.num_features());
    enc_cfg.dim = big_cfg.dim;
    const auto encoder = hdc::make_encoder(enc_cfg);
    const EncodedDataset enc = EncodedDataset::from(*encoder, data);
    MultiModelRegressor::PredictScratch scratch;
    small.prepare_predict_scratch(scratch);
    std::vector<double> out(enc.size());
    EXPECT_THROW(big.predict_batch_into(enc, out, scratch), std::invalid_argument);
  }

  // Same D and k, different cluster mode: a real-bank scratch on a model
  // that scores through the popcount bank.
  {
    RegHDConfig quant_cfg = small_reghd_config();
    quant_cfg.cluster_mode = ClusterMode::kQuantized;
    quant_cfg.query_precision = QueryPrecision::kBinary;
    quant_cfg.model_precision = ModelPrecision::kBinary;
    const MultiModelRegressor full(small_reghd_config());
    const MultiModelRegressor quant(quant_cfg);
    const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));
    const EncodedDataset enc = EncodedDataset::from(*encoder, data);
    MultiModelRegressor::PredictScratch scratch;
    full.prepare_predict_scratch(scratch);
    std::vector<double> out(enc.size());
    EXPECT_THROW(quant.predict_batch_into(enc, out, scratch), std::invalid_argument);
  }
}

TEST(EncodedDatasetTest, AssignRowsMatchesFromRowsAndReusesStorage) {
  const data::Dataset data = small_task();
  const auto encoder = hdc::make_encoder(small_encoder_config(data.num_features()));

  EncodedDataset arena;
  // Largest batch first grows capacity; smaller re-assignments then reuse it.
  for (const std::size_t rows : {data.size(), std::size_t{5}, std::size_t{17}}) {
    const auto flat = data.features_flat().subspan(0, rows * data.num_features());
    arena.assign_rows(*encoder, flat, rows, 1);
    const EncodedDataset want = EncodedDataset::from_rows(*encoder, flat, rows, 1);
    ASSERT_EQ(arena.size(), want.size());
    ASSERT_EQ(arena.dim(), want.dim());
    for (std::size_t i = 0; i < rows; ++i) {
      EXPECT_EQ(arena.sample(i).real, want.sample(i).real) << "row " << i;
      EXPECT_EQ(arena.sample(i).real_norm2, want.sample(i).real_norm2);
      EXPECT_EQ(arena.target(i), 0.0);
    }
  }
}

TEST(PipelineBatchTest, PredictBatchMatchesPerRowPredict) {
  const data::Dataset data = small_task();
  PipelineConfig cfg;
  cfg.reghd = small_reghd_config();
  cfg.encoder = small_encoder_config(0);  // input_dim inferred by fit()
  RegHDPipeline pipeline(cfg);
  pipeline.fit(data);

  const std::vector<double> batch = pipeline.predict_batch(data);
  ASSERT_EQ(batch.size(), data.size());
  for (std::size_t i = 0; i < data.size(); ++i) {
    EXPECT_EQ(batch[i], pipeline.predict(data.row(i))) << "row " << i;
  }

  // Thread count must not change anything.
  pipeline.set_threads(1);
  const std::vector<double> serial = pipeline.predict_batch(data);
  EXPECT_EQ(batch, serial);
}

}  // namespace
}  // namespace reghd::core
