// Whole-round benchmark harness.
//
// Runs one workload through the library's public entry points
// (core::run_federated, core::run_population) for a fixed
// wall-clock budget and prints, as its last stdout line, one JSON object:
//
//   {"correct": ..., "attempted": ..., "failed": ...,
//    "metrics": {"<name>": {"value": ..., "unit": "..."}, ...}}
//
// preceded by a "meta {...}" line recording the workload, the seed and the
// host (nproc, client-pool and kernel-pool thread counts).
//
// --trace 0 measures the end-to-end metrics with the obs plane off:
//   setup_s                median over repetitions of data generation plus
//                          model/server/client construction
//   updates_per_s          median over repetitions of absorbed client
//                          updates / wall time of the run call
//   peak_rss_mb            VmHWM after all repetitions
//   final_loss             test-set cross-entropy of the final model
//                          (core::evaluate, outside every timed section)
//   delivered_update_frac  updates aggregated / updates attempted
// --trace 1 repeats the workload with obs_level=trace and splits it across
// the modules of src/ from span self times, registry counters, getrusage
// and the harness's own timers (see perfbench/layer_map.json), alternating
// untraced and traced repetitions so the two can be compared.
//
// Every repetition uses the same seed, so every repetition must produce the
// same final model; each one is checked (update counts, finite model,
// digest, workload-specific coverage) and a repetition that fails a check
// counts as a failed operation. One warm-up repetition runs before anything
// is timed and is discarded.
//
// Usage:
//   perfbench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--tiny]
//   perfbench_e2e --list
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/config.hpp"
#include "core/evaluation.hpp"
#include "core/event_engine.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"
#include "rng/rng.hpp"
#include "tensor/gemm.hpp"
#include "util/thread_pool.hpp"

extern char** environ;

namespace {

using namespace appfl;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Linear-interpolated quantile of an unsorted sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

std::uint64_t minor_faults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_minflt);
}

// FNV-1a over the model's bytes: the repetition-identity digest.
std::uint64_t digest(const std::vector<float>& w) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto* p = reinterpret_cast<const unsigned char*>(w.data());
  for (std::size_t i = 0; i < w.size() * sizeof(float); ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

// Standard-normal quantile by bisection on the CDF (setup-time only).
double normal_quantile(double q) {
  double lo = -10.0, hi = 10.0;
  for (int i = 0; i < 100; ++i) {
    const double mid = 0.5 * (lo + hi);
    (0.5 * std::erfc(-mid / std::sqrt(2.0)) < q ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { kSync, kPopulation };

struct Workload {
  std::string name;
  Kind kind = Kind::kSync;
  bool femnist = true;          // FEMNIST-like writers; else MNIST-like shards
  std::size_t clients = 0;      // writers/clients, or the population size
  std::size_t per_client = 0;   // (mean) training samples per client
  std::size_t test_size = 256;
  double noise = 0.9;           // MNIST-like pixel noise (difficulty)
  core::RunConfig cfg;
  // Output checks beyond the universal ones.
  bool expect_all_delivered = true;
  bool expect_fault_recovery = false;  // reconstructions, retries, CRC fails
  std::size_t min_tree_depth = 0;
};

std::vector<std::string> workload_names() {
  return {"sync-femnist-cnn", "population-mlp-20k", "sync-secagg-faults"};
}

// Shapes are fixed here; --seed only changes the generated data and the
// fault draws. --tiny shrinks every size for the self-test.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, bool tiny) {
  Workload w;
  w.name = name;
  w.cfg.seed = seed;
  w.cfg.protocol = comm::Protocol::kMpi;
  w.cfg.validate_every_round = true;
  if (name == "sync-femnist-cnn") {
    w.kind = Kind::kSync;
    w.clients = tiny ? 4 : 16;
    w.per_client = tiny ? 16 : 48;
    w.cfg.algorithm = core::Algorithm::kIIAdmm;
    w.cfg.model = core::ModelKind::kPaperCnn;
    w.cfg.rounds = 2;
  } else if (name == "population-mlp-20k") {
    w.kind = Kind::kPopulation;
    w.clients = tiny ? 200 : 20000;
    w.per_client = tiny ? 16 : 32;
    w.test_size = 512;
    w.cfg.algorithm = core::Algorithm::kFedAvg;
    w.cfg.model = core::ModelKind::kMlp;
    w.cfg.rounds = 2;
    w.cfg.population = w.clients;
    w.cfg.participants_per_round = tiny ? 40 : 1000;
    w.cfg.tree_fan_out = 16;
    w.min_tree_depth = 2;
  } else if (name == "sync-secagg-faults") {
    w.kind = Kind::kSync;
    w.femnist = false;
    // Noisy pixels keep the final loss mid-range (~1.6 nats), where it
    // moves little from one seed's task to the next.
    w.noise = 4.0;
    w.test_size = 1024;
    w.clients = tiny ? 6 : 32;
    w.per_client = tiny ? 16 : 64;
    w.cfg.algorithm = core::Algorithm::kFedAvg;
    w.cfg.model = core::ModelKind::kMlp;
    w.cfg.rounds = tiny ? 3 : 16;
    w.cfg.secure_agg = true;
    w.cfg.secure_agg_threshold = tiny ? 2 : 8;
    w.cfg.faults.drop = 0.02;
    w.cfg.faults.corrupt = 0.02;
    w.cfg.faults.delay = 0.05;
    w.cfg.faults.delay_max_s = 4.0;
    w.cfg.gather_timeout_s = 2.0;
    w.expect_all_delivered = false;
    w.expect_fault_recovery = true;
  } else {
    return std::nullopt;
  }
  return w;
}

// FEMNIST-like writers (the femnist_like recipe: personal class subset,
// personal style, shared prototypes) whose shard sizes follow a FIXED
// lognormal(0, 0.45) quantile profile instead of a seeded draw, so the
// work per round — and with it updates_per_s — does not move with --seed.
data::FederatedSplit femnist_writers(std::size_t writers, std::size_t mean,
                                     std::size_t test_size,
                                     std::uint64_t seed) {
  constexpr std::size_t kClasses = 62, kMinClasses = 5, kMaxClasses = 15;
  constexpr double kNoise = 0.9, kSigma = 0.45;
  data::FederatedSplit split;
  split.name = "femnist-writers";
  rng::Rng meta(rng::derive_seed(seed, {9000}));
  // Interleave large and small shards across the client order.
  const std::size_t stride = std::gcd(writers, std::size_t{5}) == 1 ? 5 : 1;
  for (std::size_t w = 0; w < writers; ++w) {
    const std::size_t k =
        kMinClasses + meta.uniform_below(kMaxClasses - kMinClasses + 1);
    std::vector<std::size_t> all(kClasses);
    std::iota(all.begin(), all.end(), std::size_t{0});
    rng::shuffle(meta, std::span<std::size_t>(all));
    std::vector<std::size_t> pool(all.begin(),
                                  all.begin() + static_cast<long>(k));
    const double q = (static_cast<double>((w * stride) % writers) + 0.5) /
                     static_cast<double>(writers);
    const std::size_t count = static_cast<std::size_t>(
        std::max(8.0, static_cast<double>(mean) *
                          std::exp(kSigma * normal_quantile(q))));
    split.clients.push_back(data::generate_samples(
        1, 28, 28, kClasses, count, kNoise, seed, /*writer_id=*/w + 1, &pool));
  }
  split.test = data::generate_samples(1, 28, 28, kClasses, test_size, kNoise,
                                      seed, /*writer_id=*/0, nullptr,
                                      /*sample_stream=*/999999);
  return split;
}

// What one repetition's setup produced (everything the run call consumes).
struct Prepared {
  data::FederatedSplit split;                            // kSync
  std::unique_ptr<data::SyntheticPopulation> population;  // kPopulation
  data::TensorDataset test;                              // evaluation set
  std::unique_ptr<core::BaseServer> server;              // kSync
  std::vector<std::unique_ptr<core::BaseClient>> clients;  // kSync
  double data_s = 0.0;   // data generation
  double setup_s = 0.0;  // data generation + construction
};

Prepared setup(const Workload& w) {
  Prepared p;
  const auto t0 = Clock::now();
  if (w.kind == Kind::kPopulation) {
    data::FemnistSpec spec;
    spec.num_writers = w.clients;
    spec.mean_samples_per_writer = w.per_client;
    spec.test_size = w.test_size;
    spec.seed = w.cfg.seed;
    p.population = std::make_unique<data::SyntheticPopulation>(spec);
    p.test = p.population->test_set();
  } else if (w.femnist) {
    p.split = femnist_writers(w.clients, w.per_client, w.test_size, w.cfg.seed);
    p.test = p.split.test;
  } else {
    data::SynthImageSpec spec;
    spec.num_clients = w.clients;
    spec.train_per_client = w.per_client;
    spec.test_size = w.test_size;
    spec.noise = w.noise;
    spec.seed = w.cfg.seed;
    p.split = data::mnist_like(spec);
    p.test = p.split.test;
  }
  p.data_s = seconds_since(t0);
  if (w.kind == Kind::kSync) {
    auto model = core::build_model(w.cfg, p.split.test);
    for (std::size_t c = 0; c < p.split.clients.size(); ++c) {
      p.clients.push_back(core::build_client(static_cast<std::uint32_t>(c + 1),
                                             w.cfg, *model,
                                             std::move(p.split.clients[c])));
    }
    p.server = core::build_server(w.cfg, std::move(model), p.split.test,
                                  p.clients.size());
  }
  p.setup_s = seconds_since(t0);
  return p;
}

// What one run call produced.
struct Outcome {
  std::size_t absorbed = 0;   // client updates aggregated by the server
  std::size_t attempted = 0;  // client updates the run tried to deliver
  std::size_t rounds = 0;
  std::vector<float> final_params;
  comm::TrafficStats traffic;
  double sim_comm_s = 0.0;
  std::uint64_t reconstructions = 0;
  std::size_t tree_depth = 0;
  double engine_events_per_s = 0.0;
};

Outcome run(const Workload& w, Prepared& p, const core::RunConfig& cfg) {
  Outcome o;
  if (w.kind == Kind::kSync) {
    const core::RunResult r = core::run_federated(cfg, *p.server, p.clients);
    for (const core::RoundMetrics& m : r.rounds) {
      o.absorbed += m.secagg_degraded ? 0 : m.responders;
      o.attempted += m.participants;
    }
    o.rounds = r.rounds.size();
    o.final_params = r.final_parameters;
    o.traffic = r.traffic;
    o.sim_comm_s = r.sim_comm_seconds;
    o.reconstructions = r.secagg_reconstructions;
  } else {
    const core::PopulationRunResult r = core::run_population(cfg, *p.population);
    for (const core::RoundMetrics& m : r.run.rounds) {
      o.absorbed += m.secagg_degraded ? 0 : m.responders;
      o.attempted += m.participants;
    }
    o.rounds = r.run.rounds.size();
    o.final_params = r.run.final_parameters;
    o.traffic = r.run.traffic;
    o.sim_comm_s = r.run.sim_comm_seconds;
    o.tree_depth = r.engine.tree_depth;
    o.engine_events_per_s = r.engine.events_per_second;
  }
  return o;
}

// Universal + workload-specific output checks; returns the failures.
std::vector<std::string> check(const Workload& w, const Outcome& o) {
  std::vector<std::string> bad;
  std::size_t expected = 0;
  switch (w.kind) {
    case Kind::kSync: expected = w.clients * w.cfg.rounds; break;
    case Kind::kPopulation:
      expected = w.cfg.participants_per_round * w.cfg.rounds;
      break;
  }
  if (o.attempted != expected) {
    bad.push_back("attempted " + std::to_string(o.attempted) + " updates, " +
                  "expected " + std::to_string(expected));
  }
  if (w.expect_all_delivered && o.absorbed != expected) {
    bad.push_back("absorbed " + std::to_string(o.absorbed) + " updates, " +
                  "expected " + std::to_string(expected));
  }
  if (o.absorbed == 0 || o.absorbed > o.attempted) {
    bad.push_back("absorbed " + std::to_string(o.absorbed) + " of " +
                  std::to_string(o.attempted) + " attempted updates");
  }
  if (o.final_params.empty()) bad.push_back("empty final model");
  for (float v : o.final_params) {
    if (!std::isfinite(v)) {
      bad.push_back("non-finite final model");
      break;
    }
  }
  if (w.expect_fault_recovery) {
    if (o.reconstructions == 0) bad.push_back("no secure-agg reconstruction");
    if (o.traffic.retries == 0) bad.push_back("no uplink retries");
    if (o.traffic.crc_failures == 0) bad.push_back("no CRC failures");
  }
  if (o.tree_depth < w.min_tree_depth) {
    bad.push_back("aggregation tree depth " + std::to_string(o.tree_depth) +
                  " < " + std::to_string(w.min_tree_depth));
  }
  return bad;
}

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

void print_json(bool correct, std::size_t attempted, std::size_t failed,
                const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os.precision(17);
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << "\"" << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

// Span self times: a span's duration minus the durations of its children on
// the same thread (same-thread children nest, so they never overlap).
struct SpanStats {
  std::vector<double> wall;  // per-span wall durations
  double self_total = 0.0;
  bool main_thread = false;  // emitted by the thread that called run_*
};

struct TraceTotals {
  std::map<std::string, SpanStats> spans;
  double run_wall = 0.0;        // Σ run-call wall time (harness timer)
  double main_self_named = 0.0; // Σ main-thread self time outside fl.round
  double round_self = 0.0;      // Σ fl.round self time (orchestration)
  std::vector<double> first_round_ratio;  // per repetition
  std::uint64_t dropped = 0;
  std::uint64_t gemm_calls = 0, gemm_flops = 0;
  double gemm_s = 0.0, encode_s = 0.0, decode_s = 0.0;
  std::size_t updates = 0, rounds = 0;
  comm::TrafficStats traffic;
  double sim_comm_s = 0.0;
  std::uint64_t reconstructions = 0;
  std::vector<double> events_per_s;

  double total(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end()
               ? 0.0
               : std::accumulate(it->second.wall.begin(),
                                 it->second.wall.end(), 0.0);
  }
  double self(const std::string& name) const {
    const auto it = spans.find(name);
    return it == spans.end() ? 0.0 : it->second.self_total;
  }
};

// Folds one traced repetition's spans into the totals.
void absorb_spans(TraceTotals& t, const std::vector<obs::SpanRecord>& spans,
                  double run_wall) {
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  for (std::size_t i = 0; i < spans.size(); ++i) by_id[spans[i].span_id] = i;
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].wall_dur_s;
  for (const auto& s : spans) {
    const auto it = by_id.find(s.parent_id);
    if (s.parent_id != 0 && it != by_id.end() &&
        spans[it->second].tid == s.tid) {
      self[it->second] -= s.wall_dur_s;
    }
  }
  // The main thread is the one that emits the fl.round spans.
  std::uint32_t main_tid = 0;
  for (const auto& s : spans) {
    if (std::strcmp(s.name, "fl.round") == 0) {
      main_tid = s.tid;
      break;
    }
  }
  std::vector<double> round_walls;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    SpanStats& st = t.spans[s.name];
    st.wall.push_back(s.wall_dur_s);
    st.self_total += self[i];
    st.main_thread = st.main_thread || s.tid == main_tid;
    if (s.tid != main_tid) continue;
    if (std::strcmp(s.name, "fl.round") == 0) {
      t.round_self += self[i];
      round_walls.push_back(s.wall_dur_s);
    } else {
      t.main_self_named += self[i];
    }
  }
  if (round_walls.size() >= 2) {
    t.first_round_ratio.push_back(safe_div(
        round_walls.front(),
        median(std::vector<double>(round_walls.begin() + 1, round_walls.end()))));
  }
  t.run_wall += run_wall;
}

std::vector<Metric> layer_metrics(const TraceTotals& t,
                                  double ups_untraced, double ups_traced,
                                  double faults_per_update, double gen_s,
                                  double materialize_ms) {
  const double u = static_cast<double>(t.updates);
  const double r = static_cast<double>(t.rounds);
  const auto per_u_ms = [&](double s) { return 1e3 * safe_div(s, u); };
  const auto per_r_ms = [&](double s) { return 1e3 * safe_div(s, r); };
  // Model compute = local minibatch steps + server-side validation; GEMM
  // time from the kernel registry covers both.
  const double batch_s = t.total("client.batch");
  const double compute_s = batch_s + t.total("fl.validate");
  std::vector<double> batch_ms;
  if (const auto it = t.spans.find("client.batch"); it != t.spans.end()) {
    for (double d : it->second.wall) batch_ms.push_back(1e3 * d);
  }
  const double pool_threads =
      static_cast<double>(util::ThreadPool::default_threads());
  const double local_phase = t.total("fl.local_update_phase");
  const double attributed = safe_div(t.main_self_named, t.run_wall);
  return {
      {"tensor.gemm_gflops", "GFLOP/s",
       safe_div(static_cast<double>(t.gemm_flops), t.gemm_s) / 1e9},
      {"tensor.gemm_share", "ratio", safe_div(t.gemm_s, compute_s)},
      {"tensor.gemm_calls_per_update", "count",
       safe_div(static_cast<double>(t.gemm_calls), u)},
      {"tensor.minor_faults_per_update", "count", faults_per_update},
      {"nn.batch_p50_ms", "ms", quantile(batch_ms, 0.5)},
      {"nn.batch_p90_ms", "ms", quantile(batch_ms, 0.9)},
      {"nn.non_gemm_ms_per_update", "ms",
       per_u_ms(std::max(0.0, compute_s - t.gemm_s))},
      {"data.gen_s", "s", gen_s},
      {"data.materialize_ms_per_client", "ms", materialize_ms},
      {"comm.bytes_up_per_update", "B",
       safe_div(static_cast<double>(t.traffic.bytes_up), u)},
      {"comm.bytes_down_per_update", "B",
       safe_div(static_cast<double>(t.traffic.bytes_down), u)},
      {"comm.retries_per_round", "count",
       safe_div(static_cast<double>(t.traffic.retries), r)},
      {"comm.crc_failures_per_round", "count",
       safe_div(static_cast<double>(t.traffic.crc_failures), r)},
      {"comm.gather_timeouts_per_round", "count",
       safe_div(static_cast<double>(t.traffic.gather_timeouts), r)},
      {"comm.encode_ms_per_update", "ms", per_u_ms(t.encode_s)},
      {"comm.decode_ms_per_update", "ms", per_u_ms(t.decode_s)},
      {"comm.gather_wait_ms_per_round", "ms", per_r_ms(t.total("fl.gather_phase"))},
      {"comm.broadcast_ms_per_round", "ms", per_r_ms(t.total("comm.broadcast"))},
      {"comm.sim_s_per_round", "s", safe_div(t.sim_comm_s, r)},
      {"core.local_phase_share", "ratio", safe_div(local_phase, t.run_wall)},
      {"core.pool_busy_frac", "ratio",
       safe_div(t.total("fl.client_update"), local_phase * pool_threads)},
      {"core.aggregate_ms_per_round", "ms", per_r_ms(t.total("fl.aggregate"))},
      {"core.validate_share", "ratio", safe_div(t.total("fl.validate"), t.run_wall)},
      {"core.orchestration_residual_share", "ratio", 1.0 - attributed},
      {"core.first_round_ratio", "ratio", median(t.first_round_ratio)},
      {"core.engine_events_per_s", "1/s", median(t.events_per_s)},
      {"core.tree_ms_per_round", "ms",
       per_r_ms(t.total("fl.tree.leader") + t.total("fl.tree.level"))},
      {"dp.masked_upload_ms_per_update", "ms", per_u_ms(t.self("fl.masked_upload"))},
      {"dp.unmask_ms_per_round", "ms", per_r_ms(t.total("fl.secagg_unmask"))},
      {"dp.share_gather_ms_per_round", "ms",
       per_r_ms(t.total("comm.gather_shares") + t.total("fl.secagg_share_gather"))},
      {"dp.reconstructions_per_round", "count",
       safe_div(static_cast<double>(t.reconstructions), r)},
      {"obs.trace_overhead_frac", "ratio", safe_div(ups_untraced, ups_traced) - 1.0},
      {"obs.spans_dropped", "count", static_cast<double>(t.dropped)},
      {"obs.attributed_frac", "ratio", attributed},
  };
}

// Self-time table: p50 always, p90 only where at least ten samples lie
// beyond it (n >= 100), with sample counts.
void print_span_table(const TraceTotals& t) {
  std::printf("\n%-26s %6s %7s %10s %9s %9s %9s\n", "span (self time)", "thread",
              "n", "self_s", "share", "p50_ms", "p90_ms");
  std::vector<std::pair<double, std::string>> order;
  for (const auto& [name, st] : t.spans) order.push_back({-st.self_total, name});
  std::sort(order.begin(), order.end());
  double pool_self = 0.0;
  for (const auto& [name, st] : t.spans) {
    if (!st.main_thread) pool_self += st.self_total;
  }
  for (const auto& [neg, name] : order) {
    const SpanStats& st = t.spans.at(name);
    const double share =
        safe_div(st.self_total, st.main_thread ? t.run_wall : pool_self);
    char p90[32] = "-";
    if (st.wall.size() >= 100) {
      std::snprintf(p90, sizeof p90, "%.3f", 1e3 * quantile(st.wall, 0.9));
    }
    std::printf("%-26s %6s %7zu %10.4f %8.1f%% %9.3f %9s\n", name.c_str(),
                st.main_thread ? "main" : "pool", st.wall.size(), st.self_total,
                100.0 * share, 1e3 * quantile(st.wall, 0.5), p90);
  }
  const double outside = t.run_wall - t.main_self_named - t.round_self;
  std::printf("%-26s %6s %7s %10.4f %8.1f%%\n", "residual: fl.round self",
              "main", "-", t.round_self, 100.0 * safe_div(t.round_self, t.run_wall));
  std::printf("%-26s %6s %7s %10.4f %8.1f%%\n", "residual: outside spans",
              "main", "-", outside, 100.0 * safe_div(outside, t.run_wall));
  std::printf("(main shares are of run wall %.3f s; pool shares of pool-thread "
              "self time %.3f s)\n", t.run_wall, pool_self);
  // Layer mix: CPU seconds per module of src/.
  const double gemm = t.gemm_s;
  const double nn = std::max(0.0, t.total("client.batch") + t.total("fl.validate") - gemm);
  std::printf("\nlayer mix (seconds): tensor.gemm %.3f | nn (batch+validate "
              "- gemm) %.3f | client_update self (data, wire) %.3f | "
              "comm encode+decode %.3f | dp masked_upload self %.3f | "
              "core aggregate %.3f, tree %.3f\n",
              gemm, nn, t.self("fl.client_update"), t.encode_s + t.decode_s,
              t.self("fl.masked_upload"), t.total("fl.aggregate"),
              t.total("fl.tree.leader") + t.total("fl.tree.level"));
}

void clear_appfl_env() {
  // The library reads APPFL_* overrides at run start; the benchmark's
  // workloads are defined here only.
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string kv(*e);
    if (kv.rfind("APPFL_", 0) == 0) names.push_back(kv.substr(0, kv.find('=')));
  }
  for (const auto& n : names) unsetenv(n.c_str());
}

int usage(const char* msg) {
  std::cerr << "perfbench_e2e: " << msg
            << "\nusage: perfbench_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] | --list\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string name;
  std::uint64_t seed = 1;
  double budget_s = 10.0;
  bool trace = false, tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (a == "--list") {
      for (const auto& n : workload_names()) std::cout << n << "\n";
      return 0;
    } else if (a == "--tiny") {
      tiny = true;
    } else if (v == nullptr) {
      return usage(("missing value for " + a).c_str());
    } else if (a == "--workload") {
      name = v, ++i;
    } else if (a == "--seed") {
      seed = std::strtoull(v, nullptr, 10), ++i;
    } else if (a == "--seconds") {
      budget_s = std::atof(v), ++i;
    } else if (a == "--trace") {
      trace = std::string(v) == "1", ++i;
    } else {
      return usage(("unknown flag " + a).c_str());
    }
  }
  const std::optional<Workload> wl = make_workload(name, seed, tiny);
  if (!wl) return usage(("unknown workload '" + name + "'").c_str());
  if (!(budget_s > 0.0)) return usage("--seconds must be positive");
  const Workload& w = *wl;
  clear_appfl_env();
  tensor::apply_kernel_config(w.cfg.kernel_backend, w.cfg.kernel_threads);
  const std::size_t kernel_threads = tensor::kernel_config().threads;

  std::printf("meta {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"tiny\": %s, \"nproc\": %u, "
              "\"client_pool_threads\": %zu, \"kernel_pool_threads\": %zu}\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), budget_s,
              trace ? 1 : 0, tiny ? "true" : "false",
              std::thread::hardware_concurrency(),
              util::ThreadPool::default_threads(),
              kernel_threads == 0 ? std::size_t{std::thread::hardware_concurrency()}
                                  : kernel_threads);

  std::size_t attempted = 0, failed = 0;
  std::optional<std::uint64_t> first_digest;
  std::vector<float> final_params;
  data::TensorDataset eval_test;
  std::vector<double> setup_samples, data_samples;
  std::size_t absorbed_total = 0, attempted_total = 0;

  // One repetition: set up, run (timed), check. Returns (updates/s, wall).
  const auto repetition = [&](const core::RunConfig& cfg, Outcome* out) {
    Prepared p = setup(w);
    setup_samples.push_back(p.setup_s);
    data_samples.push_back(p.data_s);
    const auto t0 = Clock::now();
    Outcome o = run(w, p, cfg);
    const double wall = seconds_since(t0);
    ++attempted;
    std::vector<std::string> bad = check(w, o);
    const std::uint64_t d = digest(o.final_params);
    if (!first_digest) first_digest = d;
    if (d != *first_digest) bad.push_back("final model differs between repetitions");
    for (const auto& b : bad) std::fprintf(stderr, "check failed: %s\n", b.c_str());
    if (!bad.empty()) ++failed;
    absorbed_total += o.absorbed;
    attempted_total += o.attempted;
    const double ups = static_cast<double>(o.absorbed) / wall;
    std::printf("  rep %zu%s: setup %.4f s, run %.4f s, %zu/%zu updates, %.2f "
                "updates/s%s\n",
                attempted, cfg.obs_level == "trace" ? " (traced)" : "", p.setup_s,
                wall, o.absorbed, o.attempted, ups, bad.empty() ? "" : "  [FAILED]");
    if (final_params.empty()) {
      final_params = o.final_params;
      eval_test = p.test;
    }
    if (out != nullptr) *out = std::move(o);
    return std::make_pair(ups, wall);
  };

  core::RunConfig untraced = w.cfg;
  untraced.obs_level = "off";

  std::printf("warm-up (discarded):\n");
  repetition(untraced, nullptr);
  setup_samples.clear();
  data_samples.clear();
  absorbed_total = attempted_total = 0;

  std::vector<Metric> metrics;
  if (!trace) {
    std::printf("measured:\n");
    std::vector<double> ups;
    const auto t0 = Clock::now();
    while (ups.size() < 3 || seconds_since(t0) < budget_s) {
      ups.push_back(repetition(untraced, nullptr).first);
    }
    // Set-up is short and noisy: take the median of at least kSetups.
    constexpr std::size_t kSetups = 15;
    while (setup_samples.size() < kSetups) setup_samples.push_back(setup(w).setup_s);
    // Outside every timed section: the final model's test-set loss.
    auto model = core::build_model(w.cfg, eval_test);
    const core::EvalReport rep =
        core::evaluate(*model, final_params, eval_test, w.cfg.validate_batch);
    metrics = {
        {"setup_s", "s", median(setup_samples)},
        {"updates_per_s", "1/s", median(ups)},
        {"peak_rss_mb", "MB",
         static_cast<double>(core::peak_rss_bytes()) / (1024.0 * 1024.0)},
        {"final_loss", "nats", rep.mean_loss},
        {"delivered_update_frac", "ratio",
         safe_div(static_cast<double>(absorbed_total),
                  static_cast<double>(attempted_total))},
    };
    std::printf("updates/s over %zu repetitions: p25 %.2f, median %.2f, p75 "
                "%.2f; final accuracy %.4f\n",
                ups.size(), quantile(ups, 0.25), median(ups),
                quantile(ups, 0.75), rep.accuracy);
  } else {
    // Untraced and traced repetitions alternate, so host drift during the
    // run cannot masquerade as tracing overhead. The untraced ones also give
    // the page-fault count.
    core::RunConfig traced = w.cfg;
    traced.obs_level = "trace";
    TraceTotals t;
    std::vector<double> ups_off, ups_on;
    std::uint64_t faults = 0;
    std::size_t updates_off = 0;
    const auto t0 = Clock::now();
    while (ups_on.size() < 2 || seconds_since(t0) < budget_s) {
      Outcome o;
      const std::uint64_t faults0 = minor_faults();
      ups_off.push_back(repetition(untraced, &o).first);
      faults += minor_faults() - faults0;
      updates_off += o.absorbed;
      const auto [ups, wall] = repetition(traced, &o);
      ups_on.push_back(ups);
      absorb_spans(t, obs::Tracer::global().collect(), wall);
      t.dropped += obs::Tracer::global().dropped();
      const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
      if (const auto* c = snap.counter("kernel.gemm_calls")) t.gemm_calls += *c;
      if (const auto* c = snap.counter("kernel.gemm_flops")) t.gemm_flops += *c;
      if (const auto* h = snap.histogram("kernel.gemm_s")) t.gemm_s += h->sum;
      if (const auto* h = snap.histogram("comm.encode_s")) t.encode_s += h->sum;
      if (const auto* h = snap.histogram("comm.decode_s")) t.decode_s += h->sum;
      t.updates += o.absorbed;
      t.rounds += o.rounds;
      t.traffic.bytes_up += o.traffic.bytes_up;
      t.traffic.bytes_down += o.traffic.bytes_down;
      t.traffic.retries += o.traffic.retries;
      t.traffic.crc_failures += o.traffic.crc_failures;
      t.traffic.gather_timeouts += o.traffic.gather_timeouts;
      t.sim_comm_s += o.sim_comm_s;
      t.reconstructions += o.reconstructions;
      if (w.kind == Kind::kPopulation) t.events_per_s.push_back(o.engine_events_per_s);
    }
    const double faults_per_update =
        safe_div(static_cast<double>(faults), static_cast<double>(updates_off));
    // Data layer, timed directly through the public generator calls.
    double materialize_ms = 0.0;
    if (w.kind == Kind::kPopulation) {
      Prepared p = setup(w);
      rng::Rng pick(rng::derive_seed(seed, {4242}));
      constexpr std::size_t kProbe = 64;
      const auto t0 = Clock::now();
      for (std::size_t i = 0; i < kProbe; ++i) {
        const auto id = static_cast<std::uint32_t>(1 + pick.uniform_below(w.clients));
        (void)p.population->materialize(id);
      }
      materialize_ms = 1e3 * seconds_since(t0) / kProbe;
    }
    print_span_table(t);
    metrics = layer_metrics(t, median(ups_off), median(ups_on),
                            faults_per_update, median(data_samples),
                            materialize_ms);
    std::printf("\nper-layer metrics:\n");
    for (const auto& m : metrics) {
      std::printf("  %-38s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    if (t.dropped != 0) {
      std::fprintf(stderr, "check failed: %llu spans dropped; the traced table "
                   "is incomplete\n", static_cast<unsigned long long>(t.dropped));
      ++failed;
    }
  }
  print_json(failed == 0, attempted, failed, metrics);
  return 0;
}
