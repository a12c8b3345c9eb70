// serve-snapshot and tenant-churn: end-to-end runs against serve::Server at
// its default configuration. Client threads plus server threads never exceed
// four (serve-snapshot: worker + trainer + predict client + train stream;
// tenant-churn: two shard threads + one client).
#include <algorithm>
#include <atomic>
#include <cstring>
#include <deque>
#include <exception>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>
#include <unordered_set>

#include "core/online.hpp"
#include "inputs.hpp"
#include "load.hpp"
#include "obs/telemetry.hpp"
#include "serve/server.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using serve::RequestSlot;
using serve::Server;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

/// Open-loop in-flight bookkeeping: a slot pool reused in submission order.
/// A request whose slot is still busy when its turn comes is shed and
/// counted as a failure (the generator's pool, not the server, overflowed).
class InflightPool {
 public:
  explicit InflightPool(std::size_t capacity)
      : slots_(new RequestSlot[capacity]), sched_(capacity, 0), busy_(capacity, 0),
        capacity_(capacity) {}

  RequestSlot* slot_for(std::uint64_t i) {
    const std::size_t j = i % capacity_;
    return busy_[j] != 0 ? nullptr : &slots_[j];
  }
  void commit(std::uint64_t i, std::uint64_t sched) {
    const std::size_t j = i % capacity_;
    busy_[j] = 1;
    sched_[j] = sched;
    order_.push_back(j);
  }
  /// Records every completed request at the front of the queue.
  void harvest(PhaseSummary& s, std::uint64_t penalty_ns) {
    while (!order_.empty() && slots_[order_.front()].ready()) {
      const std::size_t j = order_.front();
      order_.pop_front();
      busy_[j] = 0;
      if (slots_[j].error != 0) {
        ++s.rejected;
        s.latency_ns.push_back(static_cast<double>(penalty_ns));
      } else {
        const std::uint64_t done = slots_[j].done_ns.load(std::memory_order_acquire);
        s.latency_ns.push_back(done > sched_[j] ? static_cast<double>(done - sched_[j]) : 0.0);
      }
    }
  }
  void drain(PhaseSummary& s, std::uint64_t penalty_ns) {
    while (!order_.empty()) {
      harvest(s, penalty_ns);
      std::this_thread::yield();
    }
  }

 private:
  std::unique_ptr<RequestSlot[]> slots_;
  std::vector<std::uint64_t> sched_;
  std::vector<char> busy_;
  std::size_t capacity_;
  std::deque<std::size_t> order_;
};

constexpr std::size_t kPoolSlots = 8192;

void shed(PhaseSummary& s, std::uint64_t penalty_ns) {
  ++s.rejected;
  s.latency_ns.push_back(static_cast<double>(penalty_ns));
}

/// Runs `body` on a thread and rethrows its exception on join.
class Worker {
 public:
  template <typename Fn>
  explicit Worker(Fn&& body)
      : thread_([this, fn = std::forward<Fn>(body)]() mutable {
          try {
            fn();
          } catch (...) {
            error_ = std::current_exception();
          }
        }) {}
  ~Worker() {
    if (thread_.joinable()) {
      thread_.join();
    }
  }
  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;
  void join() {
    thread_.join();
    if (error_) {
      std::rethrow_exception(error_);
    }
  }

 private:
  std::exception_ptr error_;
  std::thread thread_;
};

double counter(const obs::TelemetrySnapshot& s, obs::Counter c) {
  return static_cast<double>(s.counter(c));
}

double batched_share(const obs::TelemetrySnapshot& a, const obs::TelemetrySnapshot& b) {
  const double batch = counter(b, obs::Counter::kServeBatchRows) -
                       counter(a, obs::Counter::kServeBatchRows);
  const double single = counter(b, obs::Counter::kServeSingleRows) -
                        counter(a, obs::Counter::kServeSingleRows);
  return batch + single > 0.0 ? batch / (batch + single) : 0.0;
}

void add_latency_metrics(RunResult& r, const PhaseSummary& open) {
  r.add("predict_p50_us", quantile(open.latency_ns, 0.50) / 1e3, "us");
  r.add("predict_p95_us", windowed_quantile(open.latency_ns, load::kTailWindow, 0.95) / 1e3, "us");
}

// ---------------------------------------------------------------------------
// serve-snapshot
// ---------------------------------------------------------------------------

struct TrainStream {
  PhaseSummary sends;  ///< lateness + rejects of the paced train stream.
  std::vector<double> fresh_ns;
  std::uint64_t accepted = 0;
  std::uint64_t unseen_epochs = 0;  ///< publishes the stream polled past.
};

/// Paced train stream for [t0, t_end); measures freshness as the time from
/// try_train until the publish of the first snapshot whose samples_seen
/// covers the reading (the snapshot's own published_ns stamp, so the
/// stream can sleep between sends without coarsening the measurement).
void run_train_stream(Server& srv, const Readings& rows, std::uint64_t base_seen,
                      std::uint64_t t0, std::uint64_t t_end, TrainStream& out) {
  const double period = 1e9 / load::snapshot::kTrainRatePerS;
  std::deque<std::pair<std::uint64_t, std::uint64_t>> pending;  // (ordinal, sent)
  std::uint64_t last_epoch = srv.snapshot_epoch(0);
  const auto poll = [&] {
    const std::uint64_t e = srv.snapshot_epoch(0);
    if (e == last_epoch) {
      return;
    }
    out.unseen_epochs += e - last_epoch - 1;
    last_epoch = e;
    const std::shared_ptr<const serve::ModelSnapshot> snap = srv.snapshot(0);
    const std::uint64_t covered = snap->trained_updates - base_seen;
    while (!pending.empty() && pending.front().first <= covered) {
      const std::uint64_t sent = pending.front().second;
      out.fresh_ns.push_back(
          snap->published_ns > sent ? static_cast<double>(snap->published_ns - sent) : 0.0);
      pending.pop_front();
    }
  };
  for (std::uint64_t i = 0;; ++i) {
    const auto sched = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period);
    if (sched >= t_end) {
      break;
    }
    pace_until(sched, poll);
    const std::uint64_t sent = now_ns();
    out.sends.lateness_ns.push_back(static_cast<double>(sent - sched));
    ++out.sends.sent;
    const std::size_t r = i % rows.size();
    if (srv.try_train(0, rows.row(r), rows.y[r])) {
      pending.emplace_back(++out.accepted, sent);
    } else {
      ++out.sends.rejected;
    }
  }
  // Let the publish timer cover the tail of the stream.
  const std::uint64_t give_up = now_ns() + 2'000'000'000ULL;
  while (!pending.empty() && now_ns() < give_up) {
    poll();
    std::this_thread::yield();
  }
  out.sends.rejected += pending.size();  // never became visible
}

PhaseSummary open_loop_predicts(Server& srv, const Readings& queries, std::uint64_t t0,
                                std::uint64_t t_end) {
  PhaseSummary s;
  InflightPool pool(kPoolSlots);
  const double period = 1e9 / load::snapshot::kOpenRatePerS;
  const std::uint64_t penalty = t_end - t0;
  for (std::uint64_t i = 0;; ++i) {
    const auto sched = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period);
    if (sched >= t_end) {
      break;
    }
    pace_until(sched, [&] { pool.harvest(s, penalty); });
    s.lateness_ns.push_back(static_cast<double>(now_ns() - sched));
    ++s.sent;
    RequestSlot* slot = pool.slot_for(i);
    if (slot == nullptr || !srv.try_predict(0, queries.row(i % queries.size()), slot)) {
      shed(s, penalty);
      continue;
    }
    pool.commit(i, sched);
  }
  pool.drain(s, penalty);
  return s;
}

struct ClosedResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t completed = 0;  ///< predicts completed before t_end.
};

ClosedResult closed_loop_predicts(Server& srv, const Readings& queries, std::size_t window,
                                  std::uint64_t t_end) {
  ClosedResult c;
  std::unique_ptr<RequestSlot[]> slots(new RequestSlot[window]);
  std::vector<char> busy(window, 0);
  std::uint64_t next = 0;
  const auto submit = [&](std::size_t j) {
    ++c.attempted;
    if (srv.try_predict(0, queries.row(next++ % queries.size()), &slots[j])) {
      busy[j] = 1;
    } else {
      ++c.failed;
    }
  };
  for (std::size_t j = 0; j < window; ++j) {
    submit(j);
  }
  while (now_ns() < t_end) {
    for (std::size_t j = 0; j < window; ++j) {
      if (busy[j] != 0 && !slots[j].ready()) {
        continue;
      }
      if (busy[j] != 0) {
        busy[j] = 0;
        if (slots[j].error != 0) {
          ++c.failed;
        } else if (slots[j].done_ns.load(std::memory_order_acquire) <= t_end) {
          ++c.completed;
        }
      }
      submit(j);
    }
  }
  for (std::size_t j = 0; j < window; ++j) {
    if (busy[j] != 0) {
      slots[j].wait();
    }
  }
  return c;
}

std::unique_ptr<Server> setup_snapshot_server(const Readings& pretrain,
                                              const Readings& queries) {
  core::OnlineRegHD learner(core::OnlineConfig{}, load::kFeatures);
  for (std::size_t i = 0; i < pretrain.size(); ++i) {
    (void)learner.update(pretrain.row(i), pretrain.y[i]);
  }
  auto srv = std::make_unique<Server>(serve::ServeConfig{}, core::OnlineConfig{},
                                      load::kFeatures);
  srv->bootstrap(0, learner);
  srv->start();
  (void)srv->predict(0, queries.row(0));  // first admitted request
  return srv;
}

/// Waits until shard 0's published snapshot covers `seen` readings.
void await_snapshot(const Server& srv, std::uint64_t seen) {
  const std::uint64_t give_up = now_ns() + 30'000'000'000ULL;
  while (srv.snapshot(0)->trained_updates < seen) {
    if (now_ns() > give_up) {
      throw std::runtime_error("snapshot never covered the submitted readings");
    }
    std::this_thread::yield();
  }
}

}  // namespace

RunResult run_serve_snapshot(const Options& opt, SnapshotTrace* trace) {
  namespace L = load::snapshot;
  RunResult r;
  const Readings pretrain = make_readings(opt.seed, Stream::kPretrain, L::kPretrainReadings);
  const Readings queries = make_readings(opt.seed, Stream::kQueries, 4096);
  const Readings train = make_readings(opt.seed, Stream::kTrain, 16384);
  const Readings burst =
      make_readings(opt.seed, Stream::kBurst, L::kBursts * L::kBurstReadings);
  const Readings test = make_readings(opt.seed, Stream::kTest, L::kTestRows);

  // Set-up is timed kSetupRepeats times: once for the server this run
  // measures and the rest after the measurement, so the median samples the
  // host at both ends of the run.
  std::vector<double> setup_s;
  const auto timed_setup = [&] {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<Server> s = setup_snapshot_server(pretrain, queries);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return s;
  };
  const std::unique_ptr<Server> srv = timed_setup();
  const std::uint64_t base_seen = srv->snapshot(0)->trained_updates;

  // Open-loop then closed-loop predicts, with the train stream throughout.
  const auto open_ns = static_cast<std::uint64_t>(opt.seconds * load::kOpenShare * 1e9);
  const auto closed_ns = static_cast<std::uint64_t>(opt.seconds * load::kClosedShare * 1e9);
  const std::uint64_t t0 = now_ns() + 1'000'000;
  const std::uint64_t t_open_end = t0 + open_ns;
  const std::uint64_t t_end = t_open_end + closed_ns;

  TrainStream stream;
  PhaseSummary open;
  ClosedResult closed;
  std::uint64_t applied_open_end = 0;
  obs::TelemetrySnapshot tel0, tel1, tel2;
  if (trace != nullptr) {
    tel0 = obs::snapshot();
  }
  {
    Worker trainer([&] { run_train_stream(*srv, train, base_seen, t0, t_end, stream); });
    open = open_loop_predicts(*srv, queries, t0, t_open_end);
    wait_until(t_open_end);
    applied_open_end = srv->train_applied(0);
    if (trace != nullptr) {
      tel1 = obs::snapshot();
    }
    closed = closed_loop_predicts(*srv, queries, L::kClosedWindow, t_end);
    const std::uint64_t applied_closed_end = srv->train_applied(0);
    if (trace != nullptr) {
      tel2 = obs::snapshot();
    }
    trainer.join();
    r.add("sat_ops_per_s",
          (static_cast<double>(closed.completed) +
           static_cast<double>(applied_closed_end - applied_open_end)) /
              (static_cast<double>(closed_ns) / 1e9),
          "1/s");
  }
  add_latency_metrics(r, open);
  r.add("fresh_p50_ms", quantile(stream.fresh_ns, 0.50) / 1e6, "ms");
  r.add("fresh_p99_ms", windowed_quantile(stream.fresh_ns, load::kTailWindow, 0.99) / 1e6, "ms");

  if (trace != nullptr) {
    trace->batched_row_share_open = batched_share(tel0, tel1);
    trace->batched_row_share_closed = batched_share(tel1, tel2);
    const auto& h0 = tel0.histogram(obs::Histo::kServePublishNs);
    const auto& h2 = tel2.histogram(obs::Histo::kServePublishNs);
    trace->publish_mean_ns =
        h2.count > h0.count
            ? static_cast<double>(h2.sum_ns - h0.sum_ns) / static_cast<double>(h2.count - h0.count)
            : 0.0;
    // Round trip with one request in flight.
    std::vector<double> rt;
    RequestSlot slot;
    for (std::size_t i = 0; i < 4000; ++i) {
      const std::uint64_t s = now_ns();
      if (!srv->try_predict(0, queries.row(i % queries.size()), &slot)) {
        continue;
      }
      while (!slot.ready()) {
      }
      rt.push_back(static_cast<double>(now_ns() - s));
    }
    trace->roundtrip_ns = median(rt);
  }

  // Online fit: bursts of distinct readings sent as fast as the ring admits,
  // each timed until a published snapshot covers all of them.
  std::uint64_t accepted = stream.accepted;
  std::vector<double> fit_s;
  for (std::size_t b = 0; b < L::kBursts; ++b) {
    const std::uint64_t s = now_ns();
    for (std::size_t i = b * L::kBurstReadings; i < (b + 1) * L::kBurstReadings; ++i) {
      while (!srv->try_train(0, burst.row(i), burst.y[i])) {
        std::this_thread::yield();
      }
      ++accepted;
    }
    await_snapshot(*srv, base_seen + accepted);
    fit_s.push_back(static_cast<double>(now_ns() - s) / 1e9);
  }
  r.add("fit_s", median(fit_s), "s");

  // Correctness gate: the server must answer exactly what the snapshot's
  // learner answers, through the fused path (one in flight) and the batched
  // path (the whole probe set queued at once).
  await_snapshot(*srv, base_seen + accepted);
  const std::shared_ptr<const serve::ModelSnapshot> snap = srv->snapshot(0);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < L::kProbeRows; ++i) {
    const double got = srv->predict(0, test.row(i));
    if (!same_bits(got, snap->learner.predict(test.row(i)))) {
      ++mismatches;
    }
  }
  {
    std::unique_ptr<RequestSlot[]> slots(new RequestSlot[L::kProbeRows]);
    for (std::size_t i = 0; i < L::kProbeRows; ++i) {
      while (!srv->try_predict(0, test.row(i), &slots[i])) {
        std::this_thread::yield();
      }
    }
    for (std::size_t i = 0; i < L::kProbeRows; ++i) {
      slots[i].wait();
      if (slots[i].error != 0 ||
          !same_bits(slots[i].result, snap->learner.predict(test.row(i)))) {
        ++mismatches;
      }
    }
  }
  if (mismatches > 0) {
    r.fail_check("serve-snapshot: " + std::to_string(mismatches) +
                 " server predictions differ from snapshot(0)->learner.predict");
  }
  double sq = 0.0;
  for (std::size_t i = 0; i < test.size(); ++i) {
    const double e = snap->learner.predict(test.row(i)) - test.y[i];
    sq += e * e;
  }
  const double mse = sq / static_cast<double>(test.size());
  if (!std::isfinite(mse)) {
    r.fail_check("serve-snapshot: model_mse is not finite");
  }
  srv->stop();
  for (std::size_t rep = 1; rep < L::kSetupRepeats; ++rep) {
    (void)timed_setup();
  }

  r.add("setup_s", median(setup_s), "s");
  r.add("model_mse", mse, "mse");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");

  const std::uint64_t probe_ops = 2 * L::kProbeRows;
  r.attempted = open.sent + closed.attempted + stream.sends.sent +
                burst.size() + probe_ops;
  r.failed = open.rejected + closed.failed + stream.sends.rejected;
  std::ostringstream d;
  d << "{\"open_loop\":" << phase_json(open) << ",\"train_stream\":" << phase_json(stream.sends)
    << ",\"closed_loop\":{\"attempted\":" << closed.attempted << ",\"failed\":" << closed.failed
    << ",\"completed\":" << closed.completed << "},\"fresh_samples\":" << stream.fresh_ns.size()
    << ",\"fresh_unseen_epochs\":" << stream.unseen_epochs
    << ",\"setup_s\":[" << json_number(setup_s[0]);
  for (std::size_t i = 1; i < setup_s.size(); ++i) {
    d << "," << json_number(setup_s[i]);
  }
  d << "],\"fit_s\":[" << json_number(fit_s[0]);
  for (std::size_t i = 1; i < fit_s.size(); ++i) {
    d << "," << json_number(fit_s[i]);
  }
  d << "]}";
  r.detail.emplace_back("serve-snapshot", d.str());
  return r;
}

// ---------------------------------------------------------------------------
// tenant-churn
// ---------------------------------------------------------------------------

namespace {

/// Accepted updates of the probe tenants, in submission order — the input
/// of the standalone reference store.
using ProbeLog = std::vector<TenantOp>;

struct TenantClient {
  Server& srv;
  const std::unordered_set<std::uint64_t>& probe_keys;
  ProbeLog& log;
  std::vector<std::uint64_t> accepted;  ///< per shard, since server start.

  TenantClient(Server& s, const std::unordered_set<std::uint64_t>& keys, ProbeLog& l)
      : srv(s), probe_keys(keys), log(l), accepted(s.config().shards, 0) {}

  bool train(const TenantOp& op) {
    if (!srv.try_train(op.key, {op.x, load::kFeatures}, op.y)) {
      return false;
    }
    ++accepted[srv.shard_of(op.key)];
    if (probe_keys.contains(op.key)) {
      log.push_back(op);
    }
    return true;
  }
  [[nodiscard]] std::uint64_t applied_total() const {
    std::uint64_t a = 0;
    for (std::size_t s = 0; s < accepted.size(); ++s) {
      a += srv.train_applied(s);
    }
    return a;
  }
  [[nodiscard]] std::uint64_t accepted_total() const {
    std::uint64_t a = 0;
    for (const std::uint64_t v : accepted) {
      a += v;
    }
    return a;
  }
  void await_applied() const {
    const std::uint64_t give_up = now_ns() + 60'000'000'000ULL;
    while (applied_total() < accepted_total()) {
      if (now_ns() > give_up) {
        throw std::runtime_error("tenant updates were never applied");
      }
      std::this_thread::yield();
    }
  }
  void train_blocking(const TenantOp& op) {
    while (!train(op)) {
      std::this_thread::yield();
    }
  }
};

serve::ServeConfig tenant_serve_config() {
  serve::ServeConfig cfg;
  cfg.shards = load::tenant::kShards;
  cfg.tenant = serve::TenantStoreConfig{};
  return cfg;
}

}  // namespace

RunResult run_tenant_churn(const Options& opt, TenantTrace* trace) {
  namespace L = load::tenant;
  RunResult r;
  const ZipfSampler zipf(L::kTenants, L::kZipfExponent);

  // Probe tenants: the hottest ranks plus a seeded sample of warm ranks
  // (these are evicted and reactivated during the run).
  std::vector<std::size_t> probe_ranks;
  for (std::size_t k = 0; k < L::kHotProbeTenants; ++k) {
    probe_ranks.push_back(k);
  }
  Rng pick(stream_seed(opt.seed, Stream::kTenantProbe));
  while (probe_ranks.size() < L::kHotProbeTenants + L::kWarmProbeTenants) {
    const std::size_t rank =
        L::kWarmProbeRankLo + pick.next() % (L::kWarmProbeRankHi - L::kWarmProbeRankLo);
    if (std::find(probe_ranks.begin(), probe_ranks.end(), rank) == probe_ranks.end()) {
      probe_ranks.push_back(rank);
    }
  }
  std::unordered_set<std::uint64_t> probe_keys;
  for (const std::size_t rank : probe_ranks) {
    probe_keys.insert(tenant_key(opt.seed, rank));
  }

  // Set-up (construct, start, pretraining updates, first admitted predict)
  // is timed kSetupRepeats times: once for the server this run measures and
  // the rest after the measurement, so the median samples the host at both
  // ends of the run.
  std::vector<double> setup_s;
  const auto timed_setup = [&](ProbeLog& probe_log) {
    const std::uint64_t t0 = now_ns();
    auto s = std::make_unique<Server>(tenant_serve_config(), core::OnlineConfig{},
                                      load::kFeatures);
    s->start();
    auto c = std::make_unique<TenantClient>(*s, probe_keys, probe_log);
    TenantStream warm(opt.seed, Stream::kTenantWarm, zipf, 1.0);
    for (std::size_t i = 0; i < L::kWarmUpdates; ++i) {
      c->train_blocking(warm.next());
    }
    c->await_applied();
    const TenantOp first = warm.for_rank(0, false);
    (void)s->predict(first.key, {first.x, load::kFeatures});
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    return std::make_pair(std::move(s), std::move(c));
  };
  ProbeLog log;
  auto measured = timed_setup(log);
  std::unique_ptr<Server> srv = std::move(measured.first);
  std::unique_ptr<TenantClient> client = std::move(measured.second);

  const auto open_ns = static_cast<std::uint64_t>(opt.seconds * load::kOpenShare * 1e9);
  const auto closed_ns = static_cast<std::uint64_t>(opt.seconds * load::kClosedShare * 1e9);
  TenantStream ops(opt.seed, Stream::kTenantOps, zipf, L::kUpdateShare);
  const std::size_t shards = srv->config().shards;
  serve::TenantStoreStats stats0{};
  const auto sum_stats = [&] {
    serve::TenantStoreStats s{};
    for (std::size_t i = 0; i < shards; ++i) {
      const serve::TenantStoreStats t = srv->tenant_stats(i);
      s.hits += t.hits;
      s.misses += t.misses;
      s.evictions += t.evictions;
      s.reactivations += t.reactivations;
      s.spill_discards += t.spill_discards;
      s.resident += t.resident;
      s.resident_bytes += t.resident_bytes;
    }
    return s;
  };
  stats0 = sum_stats();

  // Open loop: predicts and updates on one schedule. Freshness = try_train
  // until the owning shard's applied count covers the update.
  PhaseSummary open;
  PhaseSummary open_updates;
  std::vector<double> fresh_ns;
  {
    InflightPool pool(kPoolSlots);
    std::vector<std::deque<std::pair<std::uint64_t, std::uint64_t>>> pending(shards);
    const auto poll_fresh = [&] {
      for (std::size_t s = 0; s < shards; ++s) {
        if (pending[s].empty()) {
          continue;
        }
        const std::uint64_t applied = srv->train_applied(s);
        const std::uint64_t now = now_ns();
        while (!pending[s].empty() && pending[s].front().first <= applied) {
          fresh_ns.push_back(static_cast<double>(now - pending[s].front().second));
          pending[s].pop_front();
        }
      }
    };
    const double period = 1e9 / L::kOpenRatePerS;
    const std::uint64_t t0 = now_ns() + 1'000'000;
    const std::uint64_t t_end = t0 + open_ns;
    const std::uint64_t penalty = open_ns;
    for (std::uint64_t i = 0;; ++i) {
      const auto sched = t0 + static_cast<std::uint64_t>(static_cast<double>(i) * period);
      if (sched >= t_end) {
        break;
      }
      const TenantOp op = ops.next();
      // The client spins instead of pacing with sleeps: freshness is seen
      // only by polling the shards' applied counters, and on the reference
      // VM a sleeping generator sometimes woke milliseconds late, which the
      // schedule-based latencies then charged to the server.
      while (now_ns() < sched) {
        pool.harvest(open, penalty);
        poll_fresh();
        std::this_thread::yield();
      }
      const std::uint64_t sent = now_ns();
      if (op.update) {
        open_updates.lateness_ns.push_back(static_cast<double>(sent - sched));
        ++open_updates.sent;
        if (client->train(op)) {
          const std::size_t s = srv->shard_of(op.key);
          pending[s].emplace_back(client->accepted[s], sent);
        } else {
          ++open_updates.rejected;
        }
        continue;
      }
      open.lateness_ns.push_back(static_cast<double>(sent - sched));
      ++open.sent;
      RequestSlot* slot = pool.slot_for(i);
      if (slot == nullptr || !srv->try_predict(op.key, {op.x, load::kFeatures}, slot)) {
        shed(open, penalty);
        continue;
      }
      pool.commit(i, sched);
    }
    pool.drain(open, penalty);
    const std::uint64_t give_up = now_ns() + 10'000'000'000ULL;
    while (now_ns() < give_up &&
           std::any_of(pending.begin(), pending.end(), [](const auto& p) { return !p.empty(); })) {
      poll_fresh();
      std::this_thread::yield();
    }
    for (const auto& p : pending) {
      open_updates.rejected += p.size();
    }
  }

  // Closed loop: a fixed window of operations in flight (predicts until
  // completion, updates until applied).
  ClosedResult closed;
  std::uint64_t closed_updates_attempted = 0;
  {
    const std::size_t window = L::kClosedWindow;
    std::unique_ptr<RequestSlot[]> slots(new RequestSlot[window]);
    std::vector<char> busy(window, 0);
    std::size_t busy_count = 0;
    const std::uint64_t applied0 = client->applied_total();
    const std::uint64_t t_end = now_ns() + closed_ns;
    std::optional<TenantOp> held;
    while (now_ns() < t_end) {
      for (std::size_t j = 0; j < window; ++j) {
        if (busy[j] != 0 && slots[j].ready()) {
          busy[j] = 0;
          --busy_count;
          if (slots[j].error != 0) {
            ++closed.failed;
          } else if (slots[j].done_ns.load(std::memory_order_acquire) <= t_end) {
            ++closed.completed;
          }
        }
      }
      std::size_t in_flight =
          busy_count + (client->accepted_total() - client->applied_total());
      while (in_flight < window) {
        const TenantOp op = held ? *held : ops.next();
        held.reset();
        if (op.update) {
          if (!client->train(op)) {
            held = op;  // ring full: retry after harvesting
            break;
          }
          ++closed_updates_attempted;
        } else {
          std::size_t j = 0;
          while (busy[j] != 0) {
            ++j;
          }
          ++closed.attempted;
          if (!srv->try_predict(op.key, {op.x, load::kFeatures}, &slots[j])) {
            held = op;
            --closed.attempted;
            break;
          }
          busy[j] = 1;
          ++busy_count;
        }
        ++in_flight;
      }
      std::this_thread::yield();
    }
    const std::uint64_t applied1 = client->applied_total();
    for (std::size_t j = 0; j < window; ++j) {
      if (busy[j] != 0) {
        slots[j].wait();
      }
    }
    r.add("sat_ops_per_s",
          (static_cast<double>(closed.completed) + static_cast<double>(applied1 - applied0)) /
              (static_cast<double>(closed_ns) / 1e9),
          "1/s");
  }
  client->await_applied();
  const serve::TenantStoreStats stats1 = sum_stats();

  add_latency_metrics(r, open);
  r.add("fresh_p50_ms", quantile(fresh_ns, 0.50) / 1e6, "ms");
  r.add("fresh_p99_ms", windowed_quantile(fresh_ns, load::kTailWindow, 0.99) / 1e6, "ms");

  // Online fit: a burst of updates, timed until every shard applied them.
  std::vector<double> fit_s;
  TenantStream burst(opt.seed, Stream::kTenantBurst, zipf, 1.0);
  for (std::size_t b = 0; b < L::kBursts; ++b) {
    const std::uint64_t s = now_ns();
    for (std::size_t i = 0; i < L::kBurstUpdates; ++i) {
      client->train_blocking(burst.next());
    }
    client->await_applied();
    fit_s.push_back(static_cast<double>(now_ns() - s) / 1e9);
  }
  r.add("fit_s", median(fit_s), "s");

  // Correctness gate: probe tenants answer exactly what a standalone store
  // answers after replaying only those tenants' accepted updates. A tenant
  // whose spilled state the spill budget discarded restarted cold, so the
  // reference replays the updates it holds (post-stop inspection of the
  // shard's store) — the most recent ones of its logged sequence.
  TenantStream probe_rows(opt.seed, Stream::kTenantProbe, zipf, 0.0);
  std::vector<TenantOp> probes;
  std::vector<double> served;
  // model_mse is the median per-tenant MSE over the hot tenants: they are
  // never evicted and hold hundreds of updates (warm ones may be cold or
  // restarted), and the median is not set by the one tenant whose tier
  // promotion restarted its accumulators just before the end of the run.
  std::vector<double> tenant_mse;
  for (const std::size_t rank : probe_ranks) {
    double sq = 0.0;
    for (std::size_t i = 0; i < L::kProbeRowsPerTenant; ++i) {
      probes.push_back(probe_rows.for_rank(rank, false));
      const TenantOp& op = probes.back();
      served.push_back(srv->predict(op.key, {op.x, load::kFeatures}));
      sq += (served.back() - op.y) * (served.back() - op.y);
    }
    if (rank < L::kHotProbeTenants) {
      tenant_mse.push_back(sq / static_cast<double>(L::kProbeRowsPerTenant));
    }
  }
  const std::size_t n = probes.size();
  const serve::TenantStoreStats stats_end = sum_stats();
  srv->stop();
  const serve::TenantStoreStats stopped = sum_stats();

  std::unordered_map<std::uint64_t, std::vector<const TenantOp*>> logged;
  for (const TenantOp& op : log) {
    logged[op.key].push_back(&op);
  }
  serve::TenantStore reference(serve::TenantStoreConfig{}, core::OnlineConfig{},
                               load::kFeatures);
  std::size_t restarted = 0;
  std::size_t mismatches = 0;
  for (const std::uint64_t key : probe_keys) {
    const std::vector<const TenantOp*>& ops_of = logged[key];
    const std::size_t held =
        srv->tenant_store(srv->shard_of(key)).activate(key).samples_seen();
    if (held > ops_of.size()) {
      ++mismatches;
      continue;
    }
    restarted += held < ops_of.size() ? 1 : 0;
    for (std::size_t i = ops_of.size() - held; i < ops_of.size(); ++i) {
      (void)reference.update(key, {ops_of[i]->x, load::kFeatures}, ops_of[i]->y);
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double want = reference.predict(probes[i].key, {probes[i].x, load::kFeatures});
    if (!same_bits(served[i], want)) {
      ++mismatches;
    }
  }
  if (mismatches > 0) {
    r.fail_check("tenant-churn: " + std::to_string(mismatches) +
                 " probe predictions differ from the standalone replay");
  }
  const bool finite = std::all_of(tenant_mse.begin(), tenant_mse.end(),
                                  [](double v) { return std::isfinite(v); });
  const double mse = finite ? median(tenant_mse) : 0.0;
  if (!finite) {
    r.fail_check("tenant-churn: model_mse is not finite");
  }

  if (trace != nullptr) {
    const double lookups = static_cast<double>((stats1.hits + stats1.misses) -
                                               (stats0.hits + stats0.misses));
    trace->hit_ratio = static_cast<double>(stats1.hits - stats0.hits) / lookups;
    trace->evictions_per_op = static_cast<double>(stats1.evictions - stats0.evictions) / lookups;
    trace->reactivations_per_op =
        static_cast<double>(stats1.reactivations - stats0.reactivations) / lookups;
    trace->resident_bytes_per_tenant = static_cast<double>(stopped.resident_bytes) /
                                       static_cast<double>(std::max<std::size_t>(1, stopped.resident));
  }
  client.reset();
  srv.reset();
  for (std::size_t rep = 1; rep < L::kSetupRepeats; ++rep) {
    ProbeLog unused;
    (void)timed_setup(unused);
  }

  r.add("setup_s", median(setup_s), "s");
  r.add("model_mse", mse, "mse");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  r.attempted = open.sent + open_updates.sent + closed.attempted + closed_updates_attempted +
                L::kBursts * L::kBurstUpdates + n;
  r.failed = open.rejected + open_updates.rejected + closed.failed;

  std::ostringstream d;
  d << "{\"open_loop_predicts\":" << phase_json(open)
    << ",\"open_loop_updates\":" << phase_json(open_updates)
    << ",\"closed_loop\":{\"predicts\":" << closed.attempted
    << ",\"updates\":" << closed_updates_attempted << ",\"failed\":" << closed.failed
    << ",\"completed_predicts\":" << closed.completed << "},\"fresh_samples\":" << fresh_ns.size()
    << ",\"hits\":" << stats_end.hits << ",\"misses\":" << stats_end.misses
    << ",\"evictions\":" << stats_end.evictions << ",\"reactivations\":" << stats_end.reactivations
    << ",\"spill_discards\":" << stats_end.spill_discards
    << ",\"probe_updates\":" << log.size() << ",\"probe_tenants_restarted\":" << restarted << ",\"setup_s\":[" << json_number(setup_s[0]);
  for (std::size_t i = 1; i < setup_s.size(); ++i) {
    d << "," << json_number(setup_s[i]);
  }
  d << "]}";
  r.detail.emplace_back("tenant-churn", d.str());
  return r;
}

}  // namespace perfbench
