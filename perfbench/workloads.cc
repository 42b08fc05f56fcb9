#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <set>
#include <stdexcept>
#include <thread>

#include "common/mutex.h"
#include "common/random.h"
#include "core/framework_registry.h"
#include "data/synthetic.h"
#include "models/registry.h"
#include "obs/histogram.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optim/param_snapshot.h"
#include "ps/distributed_mamdr.h"
#include "ps/net/net_ps_client.h"
#include "ps/net/shard_group.h"
#include "serve/recommender.h"
#include "stats.h"
#include "timing.h"

namespace perfbench {

using mamdr::Mutex;
using mamdr::Rng;
using mamdr::data::MultiDomainDataset;
using mamdr::serve::RankedItem;
using mamdr::serve::Recommender;
using Answer = std::vector<RankedItem>;

void Report::Add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Report::Info(std::string key, double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
  info.emplace_back(std::move(key), buf);
}

void Report::InfoText(std::string key, const std::string& value) {
  info.emplace_back(std::move(key), "\"" + value + "\"");
}

void Report::AddQuantile(std::string name, const std::vector<double>& samples,
                         double q, std::string unit) {
  if (samples.empty()) return;
  const auto n = static_cast<int64_t>(samples.size());
  Info("n." + name, static_cast<double>(n));
  if (q > 0.5 && !TailIsResolved(n, q)) InfoText("unresolved." + name, "tail");
  Add(std::move(name), NearestRank(samples, q), std::move(unit));
}

void Report::Fail(std::string why) {
  correct = false;
  problems.push_back(std::move(why));
}

namespace {

// ---------------------------------------------------------------------------
// Workload constants. Changing any of them changes what the benchmark
// measures; they are part of the benchmark's definition.

constexpr int kClients = 4;            // serving clients (nproc = 4)
constexpr int64_t kTopK = 10;
constexpr size_t kRequestPool = 256;   // distinct (user, domain) requests
constexpr size_t kProbes = 32;         // requests whose answers are hashed
constexpr size_t kMinSetups = 11;      // setup_s is a median of >= 11

/// A cycle (see RunCycles) gives 60% of its time to the training round and
/// 20% to each serving loop: each loop lasts a third of the round.
constexpr double kServeLoopPerRoundSecond = 1.0 / 3.0;

// Streams derived from the workload seed.
constexpr uint64_t kDataStream = 1;
constexpr uint64_t kModelStream = 2;
constexpr uint64_t kRequestStream = 3;
constexpr uint64_t kTrainStream = 4;
constexpr uint64_t kVariantStream = 100;

/// In-process runs train on this many input sets (dataset, model and
/// request seeds derived from the workload seed) and report their mean
/// AUC, which varies far less from seed to seed than one set's AUC.
constexpr size_t kInputSets = 8;

/// Every in-process run also trains one canary input set whose seed does
/// not depend on --seed, so goldens.json can hold its exact results and
/// every run, whatever its seed, is checked against recorded values. It is
/// the input set after the kInputSets seed-derived ones.
constexpr uint64_t kCanarySeed = 0;
constexpr size_t kCanary = kInputSets;

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + stream * 0xD1B54A32D192ED03ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::string Hex64(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

uint64_t DoubleBits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

uint32_t FloatBits(float v) {
  uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

/// FNV-1a over 64-bit words.
uint64_t HashWords(const std::vector<uint64_t>& words) {
  uint64_t h = 1469598103934665603ull;
  for (uint64_t v : words) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Hash of the item ids and score bits of a list of answers.
uint64_t HashAnswers(const std::vector<Answer>& answers) {
  std::vector<uint64_t> words;
  for (const Answer& a : answers) {
    words.push_back(a.size());
    for (const RankedItem& r : a) {
      words.push_back(static_cast<uint64_t>(r.item));
      words.push_back(FloatBits(r.score));
    }
  }
  return HashWords(words);
}

bool SameAnswer(const Answer& a, const Answer& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].item != b[i].item ||
        FloatBits(a[i].score) != FloatBits(b[i].score)) {
      return false;
    }
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

double Mean(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

template <typename T>
T ValueOrThrow(mamdr::Result<T> r, const char* what) {
  if (!r.ok()) {
    throw std::runtime_error(std::string(what) + ": " +
                             r.status().ToString());
  }
  return std::move(r).value();
}

mamdr::models::ModelConfig ModelConfigFor(const MultiDomainDataset& ds,
                                          uint64_t seed) {
  // mamdr_run's model defaults.
  mamdr::models::ModelConfig mc;
  mc.num_users = ds.num_users();
  mc.num_items = ds.num_items();
  mc.num_domains = ds.num_domains();
  mc.embedding_dim = 16;
  mc.hidden = {64, 32};
  mc.expert_hidden = {64};
  mc.tower_hidden = {16};
  mc.seed = DeriveSeed(seed, kModelStream);
  return mc;
}

/// Every domain's serving candidates: the items of its train split.
void RegisterCandidates(const MultiDomainDataset& ds, Recommender* rec) {
  for (int64_t d = 0; d < ds.num_domains(); ++d) {
    std::set<int64_t> items;
    for (const auto& it : ds.domain(d).train) items.insert(it.item);
    rec->SetCandidates(d, {items.begin(), items.end()});
  }
}

// ---------------------------------------------------------------------------
// Serving: one request stream, a closed loop and an open loop.

struct Request {
  int64_t user = 0;
  int64_t domain = 0;
};

/// Requests drawn from the train interactions, so traffic per domain
/// follows the domain's size and every user is a real user of the domain.
std::vector<Request> MakeRequestPool(const MultiDomainDataset& ds,
                                     uint64_t seed) {
  Rng rng(DeriveSeed(seed, kRequestStream));
  const auto total = static_cast<uint64_t>(ds.TotalTrain());
  std::vector<Request> pool;
  pool.reserve(kRequestPool);
  while (pool.size() < kRequestPool) {
    uint64_t r = rng.UniformInt(total);
    for (int64_t d = 0; d < ds.num_domains(); ++d) {
      const auto& train = ds.domain(d).train;
      if (r < train.size()) {
        pool.push_back({train[static_cast<size_t>(r)].user, d});
        break;
      }
      r -= train.size();
    }
  }
  return pool;
}

/// Top-k by scoring the candidates through `score` directly and sorting
/// by (score desc, item asc): the reference the Recommender must match.
Answer ReferenceTopK(const mamdr::metrics::ScoreFn& score,
                     const std::vector<int64_t>& candidates,
                     const Request& q) {
  mamdr::data::Batch batch;
  batch.users.assign(candidates.size(), q.user);
  batch.items = candidates;
  batch.labels.assign(candidates.size(), 0.0f);
  const std::vector<float> scores = score(batch, q.domain);
  Answer ranked(candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    ranked[i] = {candidates[i], scores[i]};
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const RankedItem& a, const RankedItem& b) {
              return a.score > b.score ||
                     (a.score == b.score && a.item < b.item);
            });
  ranked.resize(std::min<size_t>(ranked.size(), kTopK));
  return ranked;
}

struct ServeResult {
  int64_t closed_requests = 0;
  double closed_s = 0.0;
  std::vector<double> latency_us, late_us;
  std::vector<double> score_us, other_us, lock_wait_us;  // traced only
  int64_t mismatches = 0;
};

/// Per-client tally; merged after the clients join.
struct ClientTally {
  int64_t requests = 0;
  int64_t mismatches = 0;
  std::vector<double> score_us, other_us, lock_wait_us;
};

void MergeTallies(const std::vector<ClientTally>& tallies, ServeResult* out) {
  for (const ClientTally& t : tallies) {
    out->mismatches += t.mismatches;
    out->score_us.insert(out->score_us.end(), t.score_us.begin(),
                         t.score_us.end());
    out->other_us.insert(out->other_us.end(), t.other_us.begin(),
                         t.other_us.end());
    out->lock_wait_us.insert(out->lock_wait_us.end(), t.lock_wait_us.begin(),
                             t.lock_wait_us.end());
  }
}

/// One serving burst on a trained world. The pool is first served serially
/// to record the expected answers, and the first kProbes of those are checked
/// against the reference ranking. Then kClients clients run a closed loop for
/// `closed_s` and an open loop at `rate` requests/s for `open_s`. Every
/// served answer must equal the expected one. Adds to `out`.
void ServeBurst(const Recommender& rec, const mamdr::metrics::ScoreFn& score,
                const std::vector<Request>& pool, double rate, double closed_s,
                double open_s, bool traced, ServeResult* out, Report* report) {
  std::vector<Answer> expected;
  expected.reserve(pool.size());
  for (const Request& q : pool) {
    expected.push_back(rec.TopK(q.user, q.domain, kTopK));
  }
  for (size_t i = 0; i < kProbes; ++i) {
    const Request& q = pool[i];
    if (!SameAnswer(expected[i],
                    ReferenceTopK(score, rec.candidates(q.domain), q))) {
      report->Fail("TopK answer differs from the reference ranking");
      break;
    }
  }
  (void)TakeScoreCallTimes();

  const size_t stride = pool.size() / kClients;
  auto serve_one = [&](ClientTally* tally, size_t idx, int64_t start_ns) {
    const Request& q = pool[idx];
    const Answer got = rec.TopK(q.user, q.domain, kTopK);
    ++tally->requests;
    if (!SameAnswer(got, expected[idx])) ++tally->mismatches;
    if (traced) {
      const double total_us = static_cast<double>(NowNs() - start_ns) / 1e3;
      const ScoreCallTimes t = TakeScoreCallTimes();
      tally->score_us.push_back(t.score_us);
      tally->lock_wait_us.push_back(t.lock_wait_us);
      tally->other_us.push_back(total_us - t.score_us - t.lock_wait_us);
    }
  };

  // Closed loop: each client sends its next request when the last returns.
  {
    std::vector<ClientTally> tallies(kClients);
    const Clock::time_point start = Clock::now();
    const auto deadline =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(closed_s));
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        ClientTally& tally = tallies[static_cast<size_t>(c)];
        for (size_t i = static_cast<size_t>(c) * stride;
             Clock::now() < deadline; ++i) {
          serve_one(&tally, i % pool.size(), NowNs());
        }
      });
    }
    for (auto& t : threads) t.join();
    out->closed_s += SecondsSince(start);
    for (const ClientTally& t : tallies) out->closed_requests += t.requests;
    MergeTallies(tallies, out);
  }

  // Open loop at a fixed rate; latency from each request's due time.
  {
    std::vector<ClientTally> tallies(kClients);
    const auto samples =
        RunOpenLoop(kClients, rate, open_s, [&](int c, int64_t i) {
          const size_t idx =
              (static_cast<size_t>(c) * stride + static_cast<size_t>(i)) %
              pool.size();
          serve_one(&tallies[static_cast<size_t>(c)], idx, NowNs());
        });
    for (const OpenLoopSample& s : samples) {
      out->latency_us.push_back(s.latency_us);
      out->late_us.push_back(s.late_us);
    }
    MergeTallies(tallies, out);
  }
}

/// End-to-end serving metrics, or the serving layers in a traced run.
void ReportServing(const ServeResult& s, bool traced, Report* report) {
  const auto n = static_cast<int64_t>(s.latency_us.size());
  report->attempted += s.closed_requests + n;
  report->failed += s.mismatches;
  if (s.mismatches > 0) {
    report->Fail(std::to_string(s.mismatches) +
                 " served TopK answers differ from the serial answers");
  }
  report->Info("n.serve_closed_requests", static_cast<double>(s.closed_requests));
  report->Info("n.serve_open_requests", static_cast<double>(n));
  if (!traced) {
    report->Add("serve_qps",
                static_cast<double>(s.closed_requests) / s.closed_s, "1/s");
    // Open-loop latency spreads with the host's CPU steal (README.md), so
    // it is reported beside the gated metrics, not among them.
    report->Info("serve_open_loop_p50_us", NearestRank(s.latency_us, 0.5));
    report->Info("serve_open_loop_p99_us", NearestRank(s.latency_us, 0.99));
    report->Info("serve_open_loop_p99_resolved",
                 TailIsResolved(n, 0.99) ? 1 : 0);
    return;
  }
  report->AddQuantile("serve.open_loop_p50_us", s.latency_us, 0.5, "us");
  report->AddQuantile("serve.open_loop_p99_us", s.latency_us, 0.99, "us");
  report->AddQuantile("serve.score_us", s.score_us, 0.5, "us");
  report->AddQuantile("serve.topk_other_us", s.other_us, 0.5, "us");
  report->AddQuantile("serve.lock_wait_us", s.lock_wait_us, 0.5, "us");
  report->AddQuantile("serve.lock_wait_p99_us", s.lock_wait_us, 0.99, "us");
  report->AddQuantile("serve.late_us", s.late_us, 0.99, "us");
}

// ---------------------------------------------------------------------------
// Training rounds shared by every workload.

struct EpochSample {
  double epoch_ms = 0.0;
  double forward_ms = 0.0;
  int64_t forward_calls = 0;
  int64_t domain_passes = 0;
  int64_t batch_steps = 0;
  int64_t ps_bytes = 0;
};

struct RoundResult {
  size_t variant = 0;  // which input set (dataset, model, requests)
  bool traced = false;
  double setup_s = 0.0;
  double generate_ms = 0.0, create_ms = 0.0, group_start_ms = 0.0;
  double train_s = 0.0;
  int64_t train_split_samples = 0;
  int64_t epochs = 0;
  bool has_work_counts = false;  // Framework pass/step counters
  bool has_ps = false;           // networked PS rounds
  double eval_s = 0.0;
  int64_t eval_samples = 0;
  std::vector<double> eval_ms;
  std::vector<EpochSample> epoch_samples;
  std::vector<double> dn_ms, dr_ms;  // from the library's trace spans
  double auc = 0.0;
  uint64_t probe_hash = 0;
};

/// Durations, in ms, of every recorded span named `name`.
std::vector<double> SpanMs(const std::vector<mamdr::obs::TraceEvent>& events,
                           const char* name) {
  std::vector<double> out;
  for (const auto& e : events) {
    if (e.name == name) out.push_back(static_cast<double>(e.dur_us) / 1e3);
  }
  return out;
}

/// Runs cycles for about --seconds, and at least `min_rounds` of them. A
/// cycle is one training round followed by a serving burst on that round's
/// world. The burst's closed and open loops each last a third of the round's
/// wall time, so every phase is sampled across the whole run. A
/// traced run alternates untraced and traced rounds on the same input set,
/// which is how it measures the tracing overhead, and serves only after
/// traced rounds. `round(pair_index, traced)` runs one round and keeps its
/// world. pair_index counts rounds, or pairs of rounds when traced.
/// `serve(closed_s, open_s, traced)` serves that world.
std::vector<RoundResult> RunCycles(
    const RunOptions& options, size_t min_rounds,
    const std::function<RoundResult(size_t pair_index, bool traced)>& round,
    const std::function<void(double closed_s, double open_s, bool traced)>&
        serve) {
  std::vector<RoundResult> rounds;
  const Clock::time_point start = Clock::now();
  const size_t unit = options.trace ? 2 : 1;
  for (;;) {
    const bool traced = options.trace && rounds.size() % 2 == 1;
    const Clock::time_point round_start = Clock::now();
    rounds.push_back(round(rounds.size() / unit, traced));
    const double round_s = SecondsSince(round_start);
    if (traced || !options.trace) {
      serve(round_s * kServeLoopPerRoundSecond,
            round_s * kServeLoopPerRoundSecond, traced);
    }
    if (rounds.size() % unit != 0 || rounds.size() < min_rounds * unit) {
      continue;
    }
    const double elapsed = SecondsSince(start);
    const double per_unit =
        elapsed / static_cast<double>(rounds.size() / unit);
    if (elapsed + per_unit > options.seconds) break;
  }
  return rounds;
}

/// Rounds on the same inputs must agree bit for bit: same seed, same
/// single-threaded training, with or without the timing wrappers.
void CheckRoundsAgree(const std::vector<RoundResult>& rounds, Report* report) {
  for (size_t r = 0; r < rounds.size(); ++r) {
    for (size_t first = 0; first < r; ++first) {
      if (rounds[first].variant != rounds[r].variant) continue;
      if (DoubleBits(rounds[r].auc) != DoubleBits(rounds[first].auc)) {
        report->Fail("round " + std::to_string(r) + " test AUC differs from "
                     "round " + std::to_string(first) + " on the same inputs");
      }
      if (rounds[r].probe_hash != rounds[first].probe_hash) {
        report->Fail("round " + std::to_string(r) + " TopK probe answers "
                     "differ from round " + std::to_string(first) +
                     " on the same inputs");
      }
      break;
    }
  }
}

/// End-to-end training/eval/setup metrics, or their layers when traced.
void ReportTraining(const std::vector<RoundResult>& rounds,
                    const std::vector<double>& setups, double auc, bool traced,
                    Report* report) {
  struct Sums {
    std::vector<TrainWork> train;
    double eval_s = 0;
    int64_t eval_samples = 0;
  } plain, with_trace;
  std::vector<double> epoch_ms, forward_ms, forward_calls, rest_ms, passes,
      steps, ps_bytes, eval_ms, dn_ms, dr_ms, generate_ms, create_ms,
      group_ms;
  for (const RoundResult& r : rounds) {
    report->attempted += r.epochs + static_cast<int64_t>(r.eval_ms.size());
    generate_ms.push_back(r.generate_ms);
    create_ms.push_back(r.create_ms);
    if (r.has_ps) group_ms.push_back(r.group_start_ms);
    Sums& s = r.traced ? with_trace : plain;
    s.train.push_back({r.train_split_samples, r.epochs, r.train_s});
    s.eval_s += r.eval_s;
    s.eval_samples += r.eval_samples;
    if (!r.traced) continue;
    for (const EpochSample& e : r.epoch_samples) {
      epoch_ms.push_back(e.epoch_ms);
      if (e.forward_calls > 0) {
        forward_ms.push_back(e.forward_ms);
        forward_calls.push_back(static_cast<double>(e.forward_calls));
        rest_ms.push_back(e.epoch_ms - e.forward_ms);
      }
      if (r.has_work_counts) {
        passes.push_back(static_cast<double>(e.domain_passes));
        steps.push_back(static_cast<double>(e.batch_steps));
      }
      if (r.has_ps) ps_bytes.push_back(static_cast<double>(e.ps_bytes));
    }
    eval_ms.insert(eval_ms.end(), r.eval_ms.begin(), r.eval_ms.end());
    dn_ms.insert(dn_ms.end(), r.dn_ms.begin(), r.dn_ms.end());
    dr_ms.insert(dr_ms.end(), r.dr_ms.begin(), r.dr_ms.end());
  }
  const double tps = TrainSamplesPerSecond(plain.train);
  report->Info("rounds", static_cast<double>(rounds.size()));
  report->Info("epochs_per_round", static_cast<double>(rounds[0].epochs));
  report->Info("train_split_samples",
               static_cast<double>(rounds[0].train_split_samples));
  if (!traced) {
    report->AddQuantile("setup_s", setups, 0.5, "s");
    report->Add("train_samples_per_s", tps, "1/s");
    report->Add("eval_samples_per_s",
                static_cast<double>(plain.eval_samples) / plain.eval_s, "1/s");
    report->Add("auc", auc, "auc");
    return;
  }
  report->AddQuantile("data.generate_ms", generate_ms, 0.5, "ms");
  report->AddQuantile("models.create_ms", create_ms, 0.5, "ms");
  report->AddQuantile("ps.group_start_ms", group_ms, 0.5, "ms");
  report->AddQuantile("core.train_epoch_ms", epoch_ms, 0.5, "ms");
  report->AddQuantile("core.dn_ms", dn_ms, 0.5, "ms");
  report->AddQuantile("core.dr_ms", dr_ms, 0.5, "ms");
  report->AddQuantile("core.domain_passes", passes, 0.5, "count");
  report->AddQuantile("core.batch_steps", steps, 0.5, "count");
  report->AddQuantile("models.forward_ms", forward_ms, 0.5, "ms");
  report->AddQuantile("models.forward_calls", forward_calls, 0.5, "count");
  report->AddQuantile("train.rest_ms", rest_ms, 0.5, "ms");
  report->AddQuantile("metrics.evaluate_ms", eval_ms, 0.5, "ms");
  report->AddQuantile("ps.computed_bytes_per_epoch", ps_bytes, 0.5, "bytes");
  const double traced_tps = TrainSamplesPerSecond(with_trace.train);
  report->Add("obs.trace_overhead_pct", 100.0 * (tps - traced_tps) / tps,
              "%");
}

// ---------------------------------------------------------------------------
// In-process workloads: one framework on one dataset, then serving.

struct InProcessSpec {
  const char* name;
  mamdr::data::SyntheticConfig (*dataset)(uint64_t seed);
  const char* framework;
  int64_t epochs_per_round;
  /// Open-loop rate: about half the closed-loop serve_qps measured on the
  /// tree that defined the benchmark.
  double open_loop_rate;
};

mamdr::data::SyntheticConfig Taobao10(uint64_t seed) {
  return mamdr::data::TaobaoLike(10, 1.0, seed);
}

mamdr::data::SyntheticConfig Amazon13(uint64_t seed) {
  return mamdr::data::Amazon13Like(1.0, seed);
}

mamdr::data::SyntheticConfig Taobao20(uint64_t seed) {
  return mamdr::data::TaobaoLike(20, 1.0, seed);
}

struct InProcessWorld {
  MultiDomainDataset ds;
  std::unique_ptr<mamdr::models::CtrModel> model;
  TimeTotal forward;
  std::unique_ptr<TimedModel> timed_model;  // traced rounds only
  std::unique_ptr<mamdr::core::Framework> fw;
  Mutex score_mu{MAMDR_LOCK_CLASS("perfbench.scorer")};
  mamdr::metrics::ScoreFn score;  // the framework's scorer, as served
  std::unique_ptr<Recommender> rec;
  std::vector<Request> pool;  // the request stream
};

std::unique_ptr<InProcessWorld> SetUpInProcess(const InProcessSpec& spec,
                                               uint64_t seed, bool traced,
                                               RoundResult* times) {
  auto w = std::make_unique<InProcessWorld>();
  const Clock::time_point t0 = Clock::now();
  w->ds = ValueOrThrow(
      mamdr::data::Generate(spec.dataset(DeriveSeed(seed, kDataStream))),
      "dataset");
  const Clock::time_point t1 = Clock::now();

  const mamdr::models::ModelConfig mc = ModelConfigFor(w->ds, seed);
  Rng rng(mc.seed);
  w->model = ValueOrThrow(mamdr::models::CreateModel("MLP", mc, &rng), "model");
  mamdr::models::CtrModel* trained = w->model.get();
  if (traced) {
    w->timed_model = std::make_unique<TimedModel>(trained, &w->forward);
    trained = w->timed_model.get();
  }
  // mamdr_run's training defaults: k=5, dr_max_batches=4, Adam, batch 256.
  mamdr::core::TrainConfig tc;
  tc.epochs = spec.epochs_per_round;
  tc.batch_size = 256;
  tc.inner_lr = 1e-3f;
  tc.outer_lr = 0.5f;
  tc.dr_lr = 0.5f;
  tc.dr_sample_k = 5;
  tc.inner_optimizer = "adam";
  tc.seed = DeriveSeed(seed, kTrainStream);
  w->fw = ValueOrThrow(
      mamdr::core::CreateFramework(spec.framework, trained, &w->ds, tc),
      "framework");

  mamdr::metrics::ScoreFn score = w->fw->Scorer();
  if (traced) score = TimedScorer(std::move(score));
  if (!w->fw->ScorerIsThreadSafe()) {
    score = SerializedScorer(std::move(score), &w->score_mu, traced);
  }
  w->score = score;
  w->rec = std::make_unique<Recommender>(trained, std::move(score));
  RegisterCandidates(w->ds, w->rec.get());
  const Clock::time_point t2 = Clock::now();
  w->pool = MakeRequestPool(w->ds, seed);

  times->generate_ms = Ms(t1 - t0);
  times->create_ms = Ms(t2 - t1);
  times->setup_s = std::chrono::duration<double>(t2 - t0).count();
  return w;
}

uint64_t ProbeHash(const Recommender& rec, const std::vector<Request>& pool) {
  std::vector<Answer> answers;
  for (size_t i = 0; i < kProbes; ++i) {
    answers.push_back(rec.TopK(pool[i].user, pool[i].domain, kTopK));
  }
  return HashAnswers(answers);
}

/// The seed of input set `variant` of a run with workload seed `seed`.
uint64_t VariantSeed(uint64_t seed, size_t variant) {
  if (variant == kCanary) return kCanarySeed;
  return variant == 0 ? seed : DeriveSeed(seed, kVariantStream + variant);
}

RoundResult RunInProcessRound(const InProcessSpec& spec, uint64_t seed,
                              size_t variant, bool traced,
                              std::unique_ptr<InProcessWorld>* keep) {
  keep->reset();
  RoundResult r;
  r.variant = variant;
  r.traced = traced;
  auto w = SetUpInProcess(spec, VariantSeed(seed, variant), traced, &r);
  mamdr::core::Framework* fw = w->fw.get();
  const int64_t val = w->ds.TotalVal();
  const int64_t test = w->ds.TotalTest();
  if (traced) mamdr::obs::StartTracing();
  for (int64_t e = 0; e < spec.epochs_per_round; ++e) {
    EpochSample s;
    const int64_t fns = w->forward.ns.load();
    const int64_t fcalls = w->forward.calls.load();
    const int64_t passes = fw->domain_pass_count();
    const int64_t steps = fw->batch_step_count();
    const Clock::time_point t0 = Clock::now();
    fw->TrainEpoch();
    s.epoch_ms = Ms(Clock::now() - t0);
    s.forward_ms = static_cast<double>(w->forward.ns.load() - fns) / 1e6;
    s.forward_calls = w->forward.calls.load() - fcalls;
    s.domain_passes = fw->domain_pass_count() - passes;
    s.batch_steps = fw->batch_step_count() - steps;
    r.epoch_samples.push_back(s);
    r.train_s += s.epoch_ms / 1e3;

    // mamdr_run's per-epoch evaluation: validation AUC, then test AUC.
    const Clock::time_point t1 = Clock::now();
    (void)fw->Evaluate(mamdr::metrics::Split::kVal);
    const Clock::time_point t2 = Clock::now();
    r.auc = Mean(fw->EvaluateTest());
    r.eval_ms.push_back(Ms(t2 - t1));
    r.eval_ms.push_back(Ms(Clock::now() - t2));
    r.eval_samples += val + test;
  }
  for (double ms : r.eval_ms) r.eval_s += ms / 1e3;
  r.epochs = spec.epochs_per_round;
  r.train_split_samples = w->ds.TotalTrain();
  r.has_work_counts = true;
  if (traced) {
    const auto events = mamdr::obs::TraceRecorder::Global().SnapshotEvents();
    mamdr::obs::StopTracing();
    r.dn_ms = SpanMs(events, "DN_epoch");
    r.dr_ms = SpanMs(events, "dr_phase");
  }
  r.probe_hash = ProbeHash(*w->rec, w->pool);
  *keep = std::move(w);
  return r;
}

void RunInProcess(const InProcessSpec& spec, const RunOptions& options,
                  Report* report) {
  std::unique_ptr<InProcessWorld> world;
  ServeResult served;
  const auto rounds = RunCycles(
      options, kInputSets + 1,
      [&](size_t pair, bool traced) {
        return RunInProcessRound(spec, options.seed, pair % (kInputSets + 1),
                                 traced, &world);
      },
      [&](double closed_s, double open_s, bool traced) {
        ServeBurst(*world->rec, world->score, world->pool, spec.open_loop_rate,
                   closed_s, open_s, traced, &served, report);
      });
  CheckRoundsAgree(rounds, report);

  auto first_round_of = [&rounds](size_t variant) -> const RoundResult& {
    return *std::find_if(
        rounds.begin(), rounds.end(),
        [variant](const RoundResult& r) { return r.variant == variant; });
  };
  // The run's AUC and probe checksum cover each seed-derived input set once.
  double auc = 0.0;
  std::vector<uint64_t> hashes;
  for (size_t v = 0; v < kInputSets; ++v) {
    auc += first_round_of(v).auc / static_cast<double>(kInputSets);
    hashes.push_back(first_round_of(v).probe_hash);
  }
  std::vector<double> setups;
  for (const RoundResult& r : rounds) setups.push_back(r.setup_s);
  while (setups.size() < kMinSetups) {
    RoundResult extra;
    (void)SetUpInProcess(spec, options.seed, false, &extra);
    setups.push_back(extra.setup_s);
  }
  ReportTraining(rounds, setups, auc, options.trace, report);
  report->InfoText("auc_bits", Hex64(DoubleBits(auc)));
  report->InfoText("topk_probe_hash", Hex64(HashWords(hashes)));
  report->InfoText("canary_auc_bits",
                   Hex64(DoubleBits(first_round_of(kCanary).auc)));
  report->InfoText("canary_topk_probe_hash",
                   Hex64(first_round_of(kCanary).probe_hash));
  report->Info("scorer_thread_safe", world->fw->ScorerIsThreadSafe() ? 1 : 0);

  ReportServing(served, options.trace, report);
  report->Info("open_loop_rate_per_s", spec.open_loop_rate);
}

// ---------------------------------------------------------------------------
// mamdr-netps: DistributedMamdr over a loopback ShardGroup, then composite
// serving from the workers' replicas.

constexpr int kShards = 4;
constexpr int64_t kPsWorkers = 4;
constexpr int64_t kNetpsEpochsPerRound = 4;
constexpr double kNetpsOpenLoopRate = 1500.0;

struct NetWorld {
  MultiDomainDataset ds;
  std::vector<mamdr::Tensor> layout;
  std::vector<bool> is_embedding;
  std::unique_ptr<mamdr::ps::net::ShardGroup> group;
  // Owned by `dist`; index kPsWorkers is the admin client (factory id -1).
  std::vector<CountingPsClient*> clients;
  std::unique_ptr<mamdr::ps::DistributedMamdr> dist;
  Mutex score_mu{MAMDR_LOCK_CLASS("perfbench.scorer")};
  mamdr::metrics::ScoreFn score;
  std::unique_ptr<Recommender> rec;
  std::vector<Request> pool;
};

std::unique_ptr<NetWorld> SetUpNetps(uint64_t seed, bool traced,
                                     RoundResult* times) {
  auto w = std::make_unique<NetWorld>();
  const Clock::time_point t0 = Clock::now();
  w->ds = ValueOrThrow(
      mamdr::data::Generate(Taobao20(DeriveSeed(seed, kDataStream))),
      "dataset");
  const Clock::time_point t1 = Clock::now();

  mamdr::models::ModelConfig mc = ModelConfigFor(w->ds, seed);
  // The shard layout and initial values must match what DistributedMamdr
  // derives from its reference replica: same model, same seed.
  Rng rng(mc.seed);
  auto model =
      ValueOrThrow(mamdr::models::CreateModel("MLP", mc, &rng), "model");
  mamdr::ps::MakeDefaultRowExtractor(model.get(), mc, &w->is_embedding);
  w->layout = mamdr::optim::Snapshot(model->Parameters());
  const Clock::time_point t2 = Clock::now();

  mamdr::ps::net::ShardGroupConfig gc;
  gc.num_shards = kShards;
  w->group = std::make_unique<mamdr::ps::net::ShardGroup>(gc, w->layout,
                                                          w->is_embedding);
  if (mamdr::Status s = w->group->Start(); !s.ok()) {
    throw std::runtime_error("shard group: " + s.ToString());
  }
  const Clock::time_point t3 = Clock::now();

  // examples/distributed_training's configuration.
  mamdr::ps::DistributedConfig dc;
  dc.num_workers = kPsWorkers;
  dc.model_name = "MLP";
  dc.use_embedding_cache = true;
  dc.run_dr = true;
  dc.train.epochs = kNetpsEpochsPerRound;
  dc.train.batch_size = 256;
  dc.train.outer_lr = 0.5f;
  dc.train.dr_sample_k = 3;
  dc.train.dr_max_batches = 2;
  dc.train.seed = DeriveSeed(seed, kTrainStream);
  w->clients.assign(kPsWorkers + 1, nullptr);
  NetWorld* world = w.get();
  dc.ps_client_factory =
      [world, traced](int64_t id) -> std::unique_ptr<mamdr::ps::PsClient> {
    mamdr::ps::net::NetPsClientConfig cc;
    cc.num_shards = kShards;
    auto client = std::make_unique<CountingPsClient>(
        std::make_unique<mamdr::ps::net::NetPsClient>(
            cc, world->group->directory(), world->layout,
            world->is_embedding),
        traced);
    world->clients[static_cast<size_t>(id < 0 ? kPsWorkers : id)] =
        client.get();
    return client;
  };
  w->dist = std::make_unique<mamdr::ps::DistributedMamdr>(mc, &w->ds, dc);

  // Composite serving from the workers' replicas, the way EvaluateTest
  // scores: the owner of domain d installs θS + θd into its model and
  // scores. Installing mutates the replica, so calls are serialized, as
  // Mamdr::Scorer() calls are in process.
  mamdr::metrics::ScoreFn score = [world](const mamdr::data::Batch& batch,
                                          int64_t domain) {
    mamdr::ps::Worker* owner =
        world->dist->worker(world->dist->OwnerOf(domain));
    owner->specific_store()->InstallComposite(domain);
    return owner->model()->Score(batch, domain);
  };
  if (traced) score = TimedScorer(std::move(score));
  w->score = SerializedScorer(std::move(score), &w->score_mu, traced);
  w->rec = std::make_unique<Recommender>(w->dist->worker(0)->model(), w->score);
  RegisterCandidates(w->ds, w->rec.get());
  const Clock::time_point t4 = Clock::now();
  w->pool = MakeRequestPool(w->ds, seed);

  times->generate_ms = Ms(t1 - t0);
  times->create_ms = Ms(t2 - t1) + Ms(t4 - t3);
  times->group_start_ms = Ms(t3 - t2);
  times->setup_s = std::chrono::duration<double>(t4 - t0).count();
  return w;
}

int64_t TotalPayloadBytes(const NetWorld& w) {
  int64_t bytes = 0;
  for (const CountingPsClient* c : w.clients) bytes += c->log().payload_bytes;
  return bytes;
}

RoundResult RunNetpsRound(uint64_t seed, bool traced,
                          std::unique_ptr<NetWorld>* keep, Report* report) {
  keep->reset();
  RoundResult r;
  r.traced = traced;
  auto w = SetUpNetps(seed, traced, &r);
  const int64_t test = w->ds.TotalTest();
  if (traced) mamdr::obs::StartTracing();
  for (int64_t e = 0; e < kNetpsEpochsPerRound; ++e) {
    EpochSample s;
    const int64_t bytes = TotalPayloadBytes(*w);
    const Clock::time_point t0 = Clock::now();
    const mamdr::Status status = w->dist->TrainEpoch();
    s.epoch_ms = Ms(Clock::now() - t0);
    s.ps_bytes = TotalPayloadBytes(*w) - bytes;
    r.epoch_samples.push_back(s);
    r.train_s += s.epoch_ms / 1e3;
    if (!status.ok()) {
      report->Fail("DistributedMamdr::TrainEpoch: " + status.ToString());
      ++report->failed;
    }
    // AverageTestAuc() after every epoch, as the distributed example does.
    const Clock::time_point t1 = Clock::now();
    r.auc = w->dist->AverageTestAuc();
    r.eval_ms.push_back(Ms(Clock::now() - t1));
    r.eval_s += r.eval_ms.back() / 1e3;
    r.eval_samples += test;
  }
  r.epochs = kNetpsEpochsPerRound;
  r.train_split_samples = w->ds.TotalTrain();
  r.has_ps = true;
  if (traced) {
    const auto events = mamdr::obs::TraceRecorder::Global().SnapshotEvents();
    mamdr::obs::StopTracing();
    r.dn_ms = SpanMs(events, "worker_dn_epoch");
    r.dr_ms = SpanMs(events, "distributed_dr_phase");
  }
  if (w->dist->recovery_stats().failed_epochs != 0) {
    report->Fail("PS workers failed " +
                 std::to_string(w->dist->recovery_stats().failed_epochs) +
                 " epochs");
  }
  *keep = std::move(w);
  return r;
}

/// Aggregated PS client logs and the library's ps.net metrics.
void ReportPs(const std::vector<PsOpLog>& logs, bool traced, Report* report) {
  PsOpLog all;
  std::vector<double> snapshot_ms;
  for (const PsOpLog& l : logs) {
    all.ops += l.ops;
    all.failed_ops += l.failed_ops;
    for (auto [from, to] :
         {std::pair{&l.pull_dense_us, &all.pull_dense_us},
          std::pair{&l.push_dense_us, &all.push_dense_us},
          std::pair{&l.pull_rows_us, &all.pull_rows_us},
          std::pair{&l.push_rows_us, &all.push_rows_us},
          std::pair{&l.snapshot_us, &all.snapshot_us}}) {
      to->insert(to->end(), from->begin(), from->end());
    }
  }
  report->attempted += all.ops;
  report->failed += all.failed_ops;
  if (all.failed_ops != 0) {
    report->Fail(std::to_string(all.failed_ops) + " of " +
                 std::to_string(all.ops) + " PS ops failed");
  }
  report->Info("ps_ops", static_cast<double>(all.ops));
  if (!traced) return;
  for (auto [name, series] :
       {std::pair{"ps.pull_dense_us", &all.pull_dense_us},
        std::pair{"ps.push_dense_us", &all.push_dense_us},
        std::pair{"ps.pull_rows_us", &all.pull_rows_us},
        std::pair{"ps.push_rows_us", &all.push_rows_us}}) {
    report->AddQuantile(name, *series, 0.5, "us");
    report->Add(std::string(name) + ".count",
                static_cast<double>(series->size()), "count");
  }
  for (double us : all.snapshot_us) snapshot_ms.push_back(us / 1e3);
  report->AddQuantile("ps.snapshot_ms", snapshot_ms, 0.5, "ms");
  report->Add("ps.ops", static_cast<double>(all.ops), "count");
  report->Add("ps.failed_ops", static_cast<double>(all.failed_ops), "count");

  // The library's own networked-PS metrics, accumulated over the run.
  const auto snap = mamdr::obs::Registry::Global().Snapshot();
  auto counter = [&snap](const std::string& name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return static_cast<double>(c.value);
    }
    return 0.0;
  };
  mamdr::obs::Histogram::Snapshot queue_wait;
  std::vector<double> utilization;
  for (const auto& h : snap.histograms) {
    if (h.name.rfind("ps.net.shard.queue_wait_us{", 0) != 0) continue;
    if (queue_wait.counts.empty()) {
      queue_wait = h.snapshot;
      continue;
    }
    for (size_t b = 0; b < queue_wait.counts.size(); ++b) {
      queue_wait.counts[b] += h.snapshot.counts[b];
    }
    queue_wait.count += h.snapshot.count;
    queue_wait.sum += h.snapshot.sum;
  }
  for (const auto& g : snap.gauges) {
    if (g.name.rfind("ps.net.shard.worker_utilization{", 0) == 0) {
      utilization.push_back(g.value);
    }
  }
  const double dials = counter("ps.net.client.pool.dials");
  const double reuses = counter("ps.net.client.pool.reuses");
  if (queue_wait.count > 0) {
    report->Add("ps.net.shard.queue_wait_us",
                mamdr::obs::SnapshotQuantile(queue_wait, 0.5), "us");
  }
  report->Add("ps.net.shard.utilization", Mean(utilization), "ratio");
  report->Add("ps.net.client.pool.reuse_ratio",
              reuses + dials > 0 ? reuses / (reuses + dials) : 0.0, "ratio");
  report->Add("ps.net.client.redials", counter("ps.net.client.redials"),
              "count");
  report->Add("ps.net.client.deadline_cuts",
              counter("ps.net.client.deadline_cuts"), "count");
  report->Info("n.ps.net.shard.queue_wait_us",
               static_cast<double>(queue_wait.count));
}

void RunNetps(const RunOptions& options, Report* report) {
  std::unique_ptr<NetWorld> world;
  std::vector<PsOpLog> logs;
  ServeResult served;
  const auto rounds = RunCycles(
      options, /*min_rounds=*/1,
      [&](size_t, bool traced) {
        RoundResult r = RunNetpsRound(options.seed, traced, &world, report);
        for (const CountingPsClient* c : world->clients) {
          logs.push_back(c->log());
        }
        return r;
      },
      [&](double closed_s, double open_s, bool traced) {
        ServeBurst(*world->rec, world->score, world->pool, kNetpsOpenLoopRate,
                   closed_s, open_s, traced, &served, report);
      });

  std::vector<double> setups;
  for (const RoundResult& r : rounds) setups.push_back(r.setup_s);
  while (setups.size() < kMinSetups) {
    RoundResult extra;
    (void)SetUpNetps(options.seed, false, &extra);
    setups.push_back(extra.setup_s);
  }
  double auc = 0.0;
  for (const RoundResult& r : rounds) {
    auc += r.auc / static_cast<double>(rounds.size());
  }
  ReportTraining(rounds, setups, auc, options.trace, report);
  ReportPs(logs, options.trace, report);
  report->Info("ps_shards", kShards);
  report->Info("ps_workers", static_cast<double>(kPsWorkers));
  report->Info("auc_min", [&] {
    double m = 1.0;
    for (const RoundResult& r : rounds) m = std::min(m, r.auc);
    return m;
  }());

  ReportServing(served, options.trace, report);
  report->Info("open_loop_rate_per_s", kNetpsOpenLoopRate);
}

const InProcessSpec kTaobao10Spec{"mamdr-taobao10", &Taobao10, "MAMDR",
                                  /*epochs_per_round=*/5,
                                  /*open_loop_rate=*/1250.0};
const InProcessSpec kAmazon13Spec{"dn-amazon13", &Amazon13, "DN",
                                  /*epochs_per_round=*/5,
                                  /*open_loop_rate=*/1200.0};

struct MetricName {
  const char* name;
  const char* unit;
};

// The metrics of BENCHMARK.json, in its order.
const std::vector<MetricName> kEndToEndMetrics = {
    {"setup_s", "s"},
    {"train_samples_per_s", "1/s"},
    {"eval_samples_per_s", "1/s"},
    {"auc", "auc"},
    {"serve_qps", "1/s"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricName> kPerLayerMetrics = {
    {"data.generate_ms", "ms"},
    {"models.create_ms", "ms"},
    {"ps.group_start_ms", "ms"},
    {"core.train_epoch_ms", "ms"},
    {"core.dn_ms", "ms"},
    {"core.dr_ms", "ms"},
    {"core.domain_passes", "count"},
    {"core.batch_steps", "count"},
    {"models.forward_ms", "ms"},
    {"models.forward_calls", "count"},
    {"train.rest_ms", "ms"},
    {"metrics.evaluate_ms", "ms"},
    {"serve.open_loop_p50_us", "us"},
    {"serve.open_loop_p99_us", "us"},
    {"serve.score_us", "us"},
    {"serve.topk_other_us", "us"},
    {"serve.lock_wait_us", "us"},
    {"serve.lock_wait_p99_us", "us"},
    {"serve.late_us", "us"},
    {"ps.pull_dense_us", "us"},
    {"ps.pull_dense_us.count", "count"},
    {"ps.push_dense_us", "us"},
    {"ps.push_dense_us.count", "count"},
    {"ps.pull_rows_us", "us"},
    {"ps.pull_rows_us.count", "count"},
    {"ps.push_rows_us", "us"},
    {"ps.push_rows_us.count", "count"},
    {"ps.computed_bytes_per_epoch", "bytes"},
    {"ps.snapshot_ms", "ms"},
    {"ps.ops", "count"},
    {"ps.failed_ops", "count"},
    {"ps.net.shard.queue_wait_us", "us"},
    {"ps.net.shard.utilization", "ratio"},
    {"ps.net.client.pool.reuse_ratio", "ratio"},
    {"ps.net.client.redials", "count"},
    {"ps.net.client.deadline_cuts", "count"},
    {"obs.trace_overhead_pct", "%"},
};

/// Orders the metrics as `names` lists them and checks that every one is
/// present. A per-layer metric whose layer the workload does not exercise
/// (core.dr_ms under DN, ps.* in process, ...) reads 0 and is listed in
/// info "not_exercised"; a missing end-to-end metric is a benchmark bug.
void Canonicalize(const std::vector<MetricName>& names, bool zero_fill,
                  Report* report) {
  std::vector<Report::Metric> ordered;
  std::string missing;
  for (const MetricName& want : names) {
    auto it = std::find_if(
        report->metrics.begin(), report->metrics.end(),
        [&](const Report::Metric& m) { return m.name == want.name; });
    if (it != report->metrics.end()) {
      ordered.push_back(*it);
      continue;
    }
    if (!zero_fill) {
      throw std::logic_error(std::string("metric not measured: ") + want.name);
    }
    ordered.push_back({want.name, 0.0, want.unit});
    missing += std::string(missing.empty() ? "" : " ") + want.name;
  }
  for (const Report::Metric& m : report->metrics) {
    if (std::none_of(names.begin(), names.end(), [&](const MetricName& n) {
          return m.name == n.name;
        })) {
      throw std::logic_error("metric missing from the list: " + m.name);
    }
  }
  report->metrics = std::move(ordered);
  if (zero_fill) report->InfoText("not_exercised", missing);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      kTaobao10Spec.name, kAmazon13Spec.name, "mamdr-netps"};
  return names;
}

Report RunWorkload(const RunOptions& options) {
  Report report;
  report.InfoText("workload", options.workload);
  report.Info("seed", static_cast<double>(options.seed));
  if (options.workload == kTaobao10Spec.name) {
    RunInProcess(kTaobao10Spec, options, &report);
  } else if (options.workload == kAmazon13Spec.name) {
    RunInProcess(kAmazon13Spec, options, &report);
  } else {
    RunNetps(options, &report);
  }
  if (options.trace) {
    Canonicalize(kPerLayerMetrics, /*zero_fill=*/true, &report);
  } else {
    report.Add("peak_rss_mb", PeakRssMb(), "MB");
    Canonicalize(kEndToEndMetrics, /*zero_fill=*/false, &report);
  }
  if (report.failed > 0) report.correct = false;
  return report;
}

}  // namespace perfbench
