// The traced run. It
//  1. runs the named workload untraced and then every workload with the
//     library's obs telemetry on (for the server-level layer facts and the
//     tracing-overhead comparison);
//  2. replays each workload's seeded inputs through the public function of
//     each layer, one span per call (or per group of sub-microsecond calls);
//  3. closes the ledger: for each end-to-end operation, the operation timed
//     whole against the sum of its layers timed alone, with the remainder
//     reported as <op>.unattributed_ns and checked against kLedgerTolerance.
#include <cmath>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "core/checkpoint.hpp"
#include "core/encoded.hpp"
#include "core/online.hpp"
#include "core/pipeline.hpp"
#include "data/synthetic.hpp"
#include "inputs.hpp"
#include "load.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Largest |unattributed| share of an operation's end-to-end time the ledger
/// accepts. Layers are timed alone with warm caches and the operation is
/// timed whole, so the remainder holds glue code plus cache effects; a
/// remainder beyond this share means a layer is missing from the ledger.
constexpr double kLedgerTolerance = 0.25;

constexpr std::size_t kGroup = 32;  ///< calls per span for sub-µs layers.

core::OnlineRegHD copy_of(const core::OnlineRegHD& src) {
  std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
  core::save_online_checkpoint(buf, src);
  return core::load_online_checkpoint(buf);
}

core::OnlineRegHD trained(const core::OnlineConfig& cfg, const Readings& rows, std::size_t n) {
  core::OnlineRegHD learner(cfg, load::kFeatures);
  for (std::size_t i = 0; i < n; ++i) {
    (void)learner.update(rows.row(i % rows.size()), rows.y[i % rows.size()]);
  }
  return learner;
}

struct LedgerOp {
  std::string name;
  double e2e_ns = 0.0;
  double layers_ns = 0.0;
};

/// Checkpoint save/load of one learner: per-call spans plus the blob size.
double checkpoint_spans(SpanRecorder& rec, const core::OnlineRegHD& learner,
                        const std::string& prefix, std::size_t reps) {
  std::string blob;
  for (std::size_t i = 0; i < reps; ++i) {
    std::stringstream buf(std::ios::in | std::ios::out | std::ios::binary);
    timed(rec, prefix + "save", [&] { core::save_online_checkpoint(buf, learner); });
    blob = buf.str();
  }
  std::optional<core::OnlineRegHD> loaded;
  for (std::size_t i = 0; i < reps; ++i) {
    std::istringstream in(blob, std::ios::binary);
    timed(rec, prefix + "load", [&] { loaded.emplace(core::load_online_checkpoint(in)); });
    loaded.reset();
  }
  return static_cast<double>(blob.size());
}

RunResult run_named(const std::string& workload, const Options& opt) {
  if (workload == "serve-snapshot") {
    return run_serve_snapshot(opt);
  }
  if (workload == "tenant-churn") {
    return run_tenant_churn(opt);
  }
  return run_train_offline(opt);
}

}  // namespace

RunResult run_ledger(const std::string& workload, const Options& opt,
                     const std::string& trace_path) {
  RunResult r;
  SpanRecorder rec;
  const Options half{opt.seed, opt.seconds / 2.0};
  double sink = 0.0;

  // 1. Untraced run of the named workload, then traced runs of all three.
  const bool telemetry_before = obs::enabled();
  const RunResult untraced = run_named(workload, half);
  obs::set_enabled(true);
  SnapshotTrace st;
  TenantTrace tt;
  OfflineTrace ot;
  const RunResult ts = run_serve_snapshot(half, &st);
  const RunResult tc = run_tenant_churn(half, &tt);
  const RunResult to = run_train_offline(half, &ot);
  obs::set_enabled(telemetry_before);
  for (const RunResult* w : {&untraced, &ts, &tc, &to}) {
    r.attempted += w->attempted;
    r.failed += w->failed;
    for (const std::string& e : w->errors) {
      r.fail_check(e);
    }
  }
  const RunResult& traced_named =
      workload == "serve-snapshot" ? ts : (workload == "tenant-churn" ? tc : to);

  // 2a. Serving shape: the serve-snapshot learner and its query rows.
  const core::OnlineConfig base{};
  const Readings pretrain =
      make_readings(opt.seed, Stream::kPretrain, load::snapshot::kPretrainReadings);
  const Readings queries = make_readings(opt.seed, Stream::kQueries, 4096);
  const Readings train = make_readings(opt.seed, Stream::kTrain, 4096);
  const core::OnlineRegHD learner = trained(base, pretrain, pretrain.size());
  const std::size_t nf = load::kFeatures;
  const std::size_t nq = queries.size();
  std::vector<double> scaled(queries.x.size());
  learner.standardize_rows_into(queries.x, nq, scaled);
  const auto scaled_row = [&](std::size_t i) {
    return std::span<const double>(scaled.data() + (i % nq) * nf, nf);
  };

  std::vector<double> scratch(nf);
  std::vector<double> tmp(nf);
  for (std::size_t i = 0; i < nq; ++i) {
    timed(rec, "fused_predict.e2e",
          [&] { sink += learner.predict_reusing(queries.row(i), scratch); });
  }
  for (std::size_t i = 0; i < nq; i += kGroup) {
    timed(rec, "core.online.standardize", [&] {
      for (std::size_t k = 0; k < kGroup; ++k) {
        learner.standardize_rows_into(queries.row((i + k) % nq), 1, tmp);
      }
    }, kGroup);
  }
  for (std::size_t i = 0; i < nq; ++i) {
    timed(rec, "core.multi_model.predict_one",
          [&] { sink += learner.model().predict_one(learner.encoder(), scaled_row(i)); });
  }
  core::EncodedDataset arena1;
  for (std::size_t i = 0; i < nq; ++i) {
    timed(rec, "hdc.encode.b1",
          [&] { arena1.assign_rows(learner.encoder(), scaled_row(i), 1, 1); });
  }

  // Batched path, exactly as the serving worker composes it (B = 64).
  constexpr std::size_t kB = 64;
  core::EncodedDataset arena64;
  core::MultiModelRegressor::PredictScratch pscratch;
  learner.model().prepare_predict_scratch(pscratch);
  std::vector<double> scaled64(kB * nf);
  std::vector<double> out64(kB);
  const auto raw64 = [&](std::size_t b) {
    return std::span<const double>(queries.x.data() + (b % (nq / kB)) * kB * nf, kB * nf);
  };
  const auto scaled64_of = [&](std::size_t b) {
    return std::span<const double>(scaled.data() + (b % (nq / kB)) * kB * nf, kB * nf);
  };
  for (std::size_t b = 0; b < 4 * nq / kB; ++b) {
    timed(rec, "batched_predict.e2e", [&] {
      learner.standardize_rows_into(raw64(b), kB, scaled64);
      arena64.assign_rows(learner.encoder(), scaled64, kB, 1);
      learner.model().predict_batch_into(arena64, out64, pscratch);
      for (double& y : out64) {
        y = learner.unscale(y);
      }
    }, kB);
    sink += out64[0];
  }
  for (std::size_t b = 0; b < 4 * nq / kB; ++b) {
    timed(rec, "core.online.standardize_b64",
          [&] { learner.standardize_rows_into(raw64(b), kB, scaled64); }, kB);
    timed(rec, "hdc.encode.b64",
          [&] { arena64.assign_rows(learner.encoder(), scaled64_of(b), kB, 1); }, kB);
    timed(rec, "core.multi_model.scan_b64",
          [&] { learner.model().predict_batch_into(arena64, out64, pscratch); }, kB);
  }

  // Online update, its train step and requantize, each on its own copy.
  {
    core::OnlineRegHD upd = copy_of(learner);
    for (std::size_t i = 0; i < train.size(); ++i) {
      timed(rec, "online_update.e2e", [&] { sink += upd.update(train.row(i), train.y[i]); });
    }
    core::OnlineRegHD stepper = copy_of(learner);
    core::EncodedDataset one;
    std::vector<double> s(nf);
    for (std::size_t i = 0; i < train.size(); ++i) {
      stepper.standardize_rows_into(train.row(i), 1, s);
      one.assign_rows(stepper.encoder(), s, 1, 1);
      const double sd = stepper.target_stats().stddev();
      const double y = sd > 0.0 ? (train.y[i] - stepper.target_stats().mean()) / sd : 0.0;
      timed(rec, "core.multi_model.train_step",
            [&] { sink += stepper.mutable_model().train_step(one.sample(0), y); });
    }
    core::OnlineRegHD rq = copy_of(learner);
    for (std::size_t i = 0; i < 64; ++i) {
      timed(rec, "core.multi_model.requantize", [&] { rq.mutable_model().requantize(); });
    }
  }
  const double serve_bytes = checkpoint_spans(rec, learner, "core.checkpoint.", 40);

  // 2b. Tenant layers: per-tier construction and checkpoint costs, then a
  // standalone TenantStore replay of shard 0's share of the tenant stream.
  const serve::TenantStoreConfig store_cfg{};
  serve::TenantStore tiers_probe(store_cfg, base, nf);
  const std::vector<std::size_t> dims = tiers_probe.tier_dims();
  std::vector<double> tier_bytes;
  for (std::size_t t = 0; t < dims.size() && t < 3; ++t) {
    core::OnlineConfig cfg = base;
    cfg.reghd.dim = dims[t];
    const std::string tier = "tier" + std::to_string(t);
    // Constructed learners stay alive, so every construction touches fresh
    // memory as a store filling up with tenants does.
    std::vector<std::unique_ptr<core::OnlineRegHD>> fresh;
    for (std::size_t i = 0; i < 20; ++i) {
      timed(rec, "core.online.construct." + tier,
            [&] { fresh.push_back(std::make_unique<core::OnlineRegHD>(cfg, nf)); });
    }
    const core::OnlineRegHD tl = trained(cfg, train, 64);
    tier_bytes.push_back(checkpoint_spans(rec, tl, "core.checkpoint." + tier + ".", 30));
  }
  {
    const ZipfSampler zipf(load::tenant::kTenants, load::tenant::kZipfExponent);
    serve::ServeConfig router_cfg;
    router_cfg.shards = load::tenant::kShards;
    router_cfg.tenant = store_cfg;
    const serve::Server router(router_cfg, base, nf);  // never started: shard_of only
    serve::TenantStore store(store_cfg, base, nf);
    std::unordered_map<std::uint64_t, std::uint64_t> updates;

    // The tier-0 layers of the activation ledger are also sampled inside
    // the replay, right after the activations they explain, so that both
    // sides of each ledger line see the same host state and memory state.
    core::OnlineConfig cfg0 = base;
    cfg0.reghd.dim = dims[0];
    const core::OnlineRegHD tier0 = trained(cfg0, train, 64);
    std::string blob0;
    {
      std::ostringstream out(std::ios::binary);
      core::save_online_checkpoint(out, tier0);
      blob0 = out.str();
    }
    std::vector<std::unique_ptr<core::OnlineRegHD>> constructed;
    std::uint64_t misses = 0;
    constexpr std::uint64_t kPairEvery = 8;  // checkpoint pairs per eviction

    const auto replay = [&](const TenantOp& op) {
      if (router.shard_of(op.key) != 0) {
        return;
      }
      const serve::TenantStoreStats a = store.stats();
      const std::uint64_t t0 = now_ns();
      core::OnlineRegHD& tenant = store.activate(op.key);
      const std::uint64_t t1 = now_ns();
      const serve::TenantStoreStats b = store.stats();
      std::uint64_t& seen = updates[op.key];
      const bool evicted = b.evictions > a.evictions;
      const bool pair = evicted && ++misses % kPairEvery == 0;
      if (b.activations > a.activations) {
        seen = 0;  // new, or restarted after a spill-budget discard
        rec.record(evicted ? "serve.tenant_store.activate_evict"
                           : "serve.tenant_store.activate_fresh",
                   t0, t1);
        if (!evicted) {  // the store is filling: construction into fresh memory
          timed(rec, "core.online.construct.tier0", [&] {
            constructed.push_back(std::make_unique<core::OnlineRegHD>(cfg0, nf));
          });
        } else if (pair) {
          std::ostringstream out(std::ios::binary);
          timed(rec, "core.checkpoint.tier0.save",
                [&] { core::save_online_checkpoint(out, tier0); });
        }
      } else if (b.reactivations > a.reactivations && evicted &&
                 store.tier_of(seen) == 0) {
        rec.record("serve.tenant_store.reactivate", t0, t1);
        if (pair) {
          std::istringstream in(blob0, std::ios::binary);
          std::optional<core::OnlineRegHD> loaded;
          timed(rec, "core.checkpoint.tier0.load",
                [&] { loaded.emplace(core::load_online_checkpoint(in)); });
        }
      }
      const std::span<const double> x(op.x, nf);
      if (op.update) {
        const std::uint64_t p = store.stats().promotions;
        const std::uint64_t u0 = now_ns();
        sink += store.update(op.key, x, op.y);
        const std::uint64_t u1 = now_ns();
        if (store.stats().promotions == p) {
          rec.record("serve.tenant_store.update_hit", u0, u1);
        }
        ++seen;
      } else {
        const std::uint64_t p0 = now_ns();
        sink += store.predict_activated(tenant, x);
        rec.record("serve.tenant_store.predict_hit", p0, now_ns());
      }
    };
    TenantStream warm(opt.seed, Stream::kTenantWarm, zipf, 1.0);
    for (std::size_t i = 0; i < load::tenant::kWarmUpdates; ++i) {
      replay(warm.next());
    }
    TenantStream ops(opt.seed, Stream::kTenantOps, zipf, load::tenant::kUpdateShare);
    const std::uint64_t replay_ops = static_cast<std::uint64_t>(
        load::tenant::kOpenRatePerS * half.seconds * load::kOpenShare);
    for (std::uint64_t i = 0; i < replay_ops; ++i) {
      replay(ops.next());
    }
  }

  // 2c. Offline layer: dataset encode at the pipeline's encoder shape.
  {
    const data::Dataset ds =
        data::make_paper_dataset(largest_paper_dataset(), load::offline::kDatasetSeed);
    const data::TrainTestSplit split = seeded_split(ds, opt.seed, 0);
    core::PipelineConfig pc;
    pc.encoder.input_dim = ds.num_features();
    pc.encoder.dim = pc.reghd.dim;
    const std::unique_ptr<hdc::Encoder> enc = hdc::make_encoder(pc.encoder);
    for (std::size_t i = 0; i < 5; ++i) {
      timed(rec, "core.pipeline.encode_dataset", [&] {
        const core::EncodedDataset e = core::EncodedDataset::from(*enc, split.train, 0);
        sink += static_cast<double>(e.size());
      }, static_cast<std::uint32_t>(split.train.size()));
    }
  }

  // 3. Ledger closure.
  const auto med = [&](const std::string& n) { return rec.median_ns(n); };
  const double standardize = med("core.online.standardize");
  const double predict_one = med("core.multi_model.predict_one");
  const double encode_b1 = med("hdc.encode.b1");
  const double train_step = med("core.multi_model.train_step");
  const std::vector<LedgerOp> ops = {
      {"fused_predict", med("fused_predict.e2e"), standardize + predict_one},
      {"batched_predict", med("batched_predict.e2e"),
       med("core.online.standardize_b64") + med("hdc.encode.b64") +
           med("core.multi_model.scan_b64")},
      {"online_update", med("online_update.e2e"),
       2.0 * standardize + predict_one + encode_b1 + train_step},
      {"publish", st.publish_mean_ns,
       rec.mean_ns("core.checkpoint.save") + rec.mean_ns("core.checkpoint.load")},
      {"tenant_activate", med("serve.tenant_store.activate_fresh"),
       med("core.online.construct.tier0")},
      {"tenant_evict", med("serve.tenant_store.activate_evict"),
       med("core.online.construct.tier0") + med("core.checkpoint.tier0.save")},
      {"tenant_reactivate", med("serve.tenant_store.reactivate"),
       med("core.checkpoint.tier0.load") + med("core.checkpoint.tier0.save")},
  };

  r.add("core.online.standardize_ns", standardize, "ns");
  r.add("hdc.encode.b1_ns", encode_b1, "ns");
  r.add("core.multi_model.predict_one_ns", predict_one, "ns");
  r.add("serve.server.roundtrip_ns", st.roundtrip_ns, "ns");
  r.add("serve.server.overhead_ns", st.roundtrip_ns - standardize - predict_one, "ns");
  r.add("core.online.standardize_b64_ns_per_row", med("core.online.standardize_b64"), "ns/row");
  r.add("hdc.encode.b64_ns_per_row", med("hdc.encode.b64"), "ns/row");
  r.add("core.multi_model.scan_b64_ns_per_row", med("core.multi_model.scan_b64"), "ns/row");
  r.add("serve.server.batched_row_share.open", st.batched_row_share_open, "ratio");
  r.add("serve.server.batched_row_share.closed", st.batched_row_share_closed, "ratio");
  r.add("core.online.update_ns", med("online_update.e2e"), "ns");
  r.add("core.multi_model.train_step_ns", train_step, "ns");
  r.add("core.multi_model.requantize_ns", med("core.multi_model.requantize"), "ns");
  r.add("core.checkpoint.save_ns", med("core.checkpoint.save"), "ns");
  r.add("core.checkpoint.load_ns", med("core.checkpoint.load"), "ns");
  r.add("core.checkpoint.bytes", serve_bytes, "B");
  r.add("serve.server.publish_ns", st.publish_mean_ns, "ns");
  r.add("serve.tenant_store.activate_fresh_ns", med("serve.tenant_store.activate_fresh"), "ns");
  r.add("serve.tenant_store.activate_evict_ns", med("serve.tenant_store.activate_evict"), "ns");
  r.add("serve.tenant_store.reactivate_ns", med("serve.tenant_store.reactivate"), "ns");
  r.add("serve.tenant_store.predict_hit_ns", med("serve.tenant_store.predict_hit"), "ns");
  r.add("serve.tenant_store.update_hit_ns", med("serve.tenant_store.update_hit"), "ns");
  for (std::size_t t = 0; t < tier_bytes.size(); ++t) {
    const std::string tier = "tier" + std::to_string(t);
    r.add("core.online.construct." + tier + "_ns", med("core.online.construct." + tier), "ns");
    r.add("core.checkpoint." + tier + ".save_ns", med("core.checkpoint." + tier + ".save"), "ns");
    r.add("core.checkpoint." + tier + ".load_ns", med("core.checkpoint." + tier + ".load"), "ns");
    r.add("core.checkpoint." + tier + ".bytes", tier_bytes[t], "B");
  }
  r.add("serve.tenant_store.hit_ratio", tt.hit_ratio, "ratio");
  r.add("serve.tenant_store.evictions_per_op", tt.evictions_per_op, "ratio");
  r.add("serve.tenant_store.reactivations_per_op", tt.reactivations_per_op, "ratio");
  r.add("serve.tenant_store.resident_bytes_per_tenant", tt.resident_bytes_per_tenant, "B");
  r.add("core.pipeline.encode_dataset_ns_per_row", med("core.pipeline.encode_dataset"), "ns/row");
  r.add("core.pipeline.epochs", ot.epochs, "count");

  std::ostringstream ledger;
  ledger << "{\"tolerance\":" << kLedgerTolerance << ",\"ops\":[";
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const LedgerOp& op = ops[i];
    const double rest = op.e2e_ns - op.layers_ns;
    const double share = op.e2e_ns > 0.0 ? rest / op.e2e_ns : 1.0;
    r.add(op.name + ".unattributed_ns", rest, "ns");
    ledger << (i ? "," : "") << "{\"op\":\"" << op.name << "\",\"e2e_ns\":"
           << json_number(op.e2e_ns) << ",\"layers_ns\":" << json_number(op.layers_ns)
           << ",\"unattributed_share\":" << json_number(share) << "}";
    if (!(std::fabs(share) <= kLedgerTolerance)) {
      r.fail_check("ledger: " + op.name + " unattributed share " + std::to_string(share) +
                   " exceeds " + std::to_string(kLedgerTolerance));
    }
  }
  ledger << "],\"tier_dims\":[";
  for (std::size_t t = 0; t < dims.size(); ++t) {
    ledger << (t ? "," : "") << dims[t];
  }
  ledger << "]}";
  r.detail.emplace_back("ledger", ledger.str());

  // 4. Tracing overhead: traced vs untraced movement of each end-to-end
  // timing metric of the named workload, signed so that positive = worse.
  std::ostringstream over;
  over << "{";
  std::vector<double> moves;
  for (const Metric& m : untraced.metrics) {
    const Metric* t = traced_named.find(m.name);
    if (t == nullptr || m.name == "model_mse" || m.name == "peak_rss_mb" || m.value == 0.0) {
      continue;
    }
    double move = (t->value - m.value) / m.value;
    if (m.name == "sat_ops_per_s") {
      move = -move;
    }
    moves.push_back(move);
    over << (moves.size() > 1 ? "," : "") << "\"" << m.name << "\":" << json_number(move);
  }
  over << "}";
  r.add("trace.overhead_frac", median(moves), "ratio");
  r.detail.emplace_back("trace_overhead", over.str());

  for (const RunResult* w : {&ts, &tc, &to}) {
    for (const auto& d : w->detail) {
      r.detail.emplace_back("traced." + d.first, d.second);
    }
  }
  rec.write_chrome_trace(trace_path);
  if (!std::isfinite(sink)) {
    r.fail_check("ledger: non-finite prediction in the layer replays");
  }
  return r;
}

}  // namespace perfbench
