#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "core/checkpoint.hpp"
#include "dp/secure_agg.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "core/fedavg.hpp"
#include "core/sampling.hpp"
#include "core/obs_session.hpp"
#include "dp/accountant.hpp"
#include "core/iceadmm.hpp"
#include "core/fedprox.hpp"
#include "core/iiadmm.hpp"
#include "nn/model_zoo.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace appfl::core {

std::string to_string(SecaggDegradeReason r) {
  switch (r) {
    case SecaggDegradeReason::kNone: return "none";
    case SecaggDegradeReason::kBelowThreshold: return "below-threshold";
    case SecaggDegradeReason::kShareWaveTimeout: return "share-wave-timeout";
    case SecaggDegradeReason::kRootUnreachable: return "root-unreachable";
  }
  return "?";
}

std::vector<double> RunResult::cumulative_comm_seconds() const {
  std::vector<double> out;
  out.reserve(comm_rounds.size());
  double acc = 0.0;
  for (const auto& r : comm_rounds) {
    acc += r.total_s();
    out.push_back(acc);
  }
  return out;
}

double RunResult::mean_test_accuracy() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& m : rounds) {
    if (m.test_accuracy < 0.0) continue;  // skipped-validation sentinel
    sum += m.test_accuracy;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : -1.0;
}

double RunResult::best_test_accuracy() const {
  double best = -1.0;
  for (const auto& m : rounds) {
    if (m.test_accuracy < 0.0) continue;
    best = std::max(best, m.test_accuracy);
  }
  return best;
}

std::unique_ptr<nn::Module> build_model(const RunConfig& config,
                                        const data::TensorDataset& reference) {
  rng::Rng rng(rng::derive_seed(config.seed, {42}));
  const auto shape = reference.sample_shape();
  const std::size_t classes = reference.num_classes();
  std::size_t flat = 1;
  for (std::size_t d : shape) flat *= d;
  switch (config.model) {
    case ModelKind::kPaperCnn: {
      APPFL_CHECK_MSG(shape.size() == 3,
                      "paper CNN expects CHW samples, got rank " << shape.size());
      return nn::paper_cnn(shape[0], shape[1], shape[2], classes, rng);
    }
    case ModelKind::kMlp:
      return nn::mlp(flat, config.mlp_hidden, classes, rng);
    case ModelKind::kLogistic:
      return nn::logistic_regression(flat, classes, rng);
  }
  APPFL_CHECK(false);
  return nullptr;
}

std::unique_ptr<BaseServer> build_server(const RunConfig& config,
                                         std::unique_ptr<nn::Module> model,
                                         data::TensorDataset test_set,
                                         std::size_t num_clients) {
  switch (config.algorithm) {
    case Algorithm::kFedAvg:
      return std::make_unique<FedAvgServer>(config, std::move(model),
                                            std::move(test_set), num_clients);
    case Algorithm::kIceAdmm:
      return std::make_unique<IceAdmmServer>(config, std::move(model),
                                             std::move(test_set), num_clients);
    case Algorithm::kIIAdmm:
      return std::make_unique<IIAdmmServer>(config, std::move(model),
                                            std::move(test_set), num_clients);
    case Algorithm::kFedProx:
      // FedProx aggregates exactly like FedAvg.
      return std::make_unique<FedProxServer>(config, std::move(model),
                                             std::move(test_set), num_clients);
  }
  APPFL_CHECK(false);
  return nullptr;
}

std::unique_ptr<BaseClient> build_client(std::uint32_t id,
                                         const RunConfig& config,
                                         const nn::Module& prototype,
                                         data::TensorDataset dataset) {
  switch (config.algorithm) {
    case Algorithm::kFedAvg:
      return std::make_unique<FedAvgClient>(id, config, prototype,
                                            std::move(dataset));
    case Algorithm::kIceAdmm:
      return std::make_unique<IceAdmmClient>(id, config, prototype,
                                             std::move(dataset));
    case Algorithm::kIIAdmm:
      return std::make_unique<IIAdmmClient>(id, config, prototype,
                                            std::move(dataset));
    case Algorithm::kFedProx:
      return std::make_unique<FedProxClient>(id, config, prototype,
                                             std::move(dataset));
  }
  APPFL_CHECK(false);
  return nullptr;
}

RunResult run_federated(const RunConfig& config,
                        const data::FederatedSplit& split) {
  config.validate();
  APPFL_CHECK_MSG(!split.clients.empty(), "split has no clients");

  std::unique_ptr<nn::Module> model = build_model(config, split.test);
  // The prototype is cloned per client BEFORE the server takes ownership,
  // so everyone starts from the same z¹ (the one-time init exchange).
  std::vector<std::unique_ptr<BaseClient>> clients;
  clients.reserve(split.clients.size());
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(build_client(static_cast<std::uint32_t>(p + 1), config,
                                   *model, split.clients[p]));
  }
  std::unique_ptr<BaseServer> server =
      build_server(config, std::move(model), split.test, clients.size());
  return run_federated(config, *server, clients);
}

RunResult run_federated(const RunConfig& config, BaseServer& server,
                        std::vector<std::unique_ptr<BaseClient>>& clients) {
  config.validate();
  tensor::apply_kernel_config(config.kernel_backend, config.kernel_threads);
  const std::size_t num_clients = clients.size();
  APPFL_CHECK(num_clients >= 1);
  APPFL_CHECK(server.num_clients() == num_clients);

  // Backpressure must never decide which update survives: a fault-free
  // gather waits for every participant, so an overflowed update would hang
  // the round. Same rule as the population engine's fan-in check.
  const std::size_t cohort =
      fraction_cohort(num_clients, config.client_fraction);
  APPFL_CHECK_MSG(config.mailbox_capacity == 0 ||
                      config.mailbox_capacity >= cohort,
                  "mailbox_capacity " << config.mailbox_capacity
                      << " is below the round cohort of " << cohort
                      << " — overflow would drop participant updates");

  comm::ReliabilityConfig reliability;
  reliability.faults = config.faults;
  reliability.gather_timeout_s = config.gather_timeout_s;
  reliability.ack_timeout_s = config.ack_timeout_s;
  reliability.backoff_cap_s =
      std::max(config.ack_timeout_s, reliability.backoff_cap_s);
  reliability.max_retries = config.max_uplink_retries;
  reliability.mailbox_capacity = config.mailbox_capacity;
  comm::CodecConfig codec_config{config.uplink_codec, config.topk_fraction};
  if (config.uplink_codec == comm::UplinkCodec::kInt8Ef && config.clip > 0.0F) {
    // Clip the pre-quantization deltas to the DP sensitivity bound — the
    // largest honest per-round displacement — so one outlier coordinate
    // cannot blow up a whole block's quantization scale.
    codec_config.int8_range = config.sensitivity();
  }
  comm::Communicator comm(config.protocol, num_clients,
                          rng::derive_seed(config.seed, {77}), codec_config,
                          reliability);
  util::ThreadPool pool;
  rng::Rng sampler(rng::derive_seed(config.seed, {78}));

  // Observability session: raises the process level for this run, clears
  // the global tracer/registry when enabled, streams per-round JSONL lines,
  // and exports trace + summary at the end. At level off every hook below
  // is a single relaxed atomic load, and the run is bit-identical.
  ObsSession obs_session(config);

  RunResult result;
  result.model_parameters = server.num_parameters();

  // Crash recovery: an empty dir keeps every path below untouched, so a
  // checkpoint-free run stays bit-identical to a pre-checkpoint build.
  std::optional<CheckpointStore> store;
  if (!config.checkpoint_dir.empty()) store.emplace(config.checkpoint_dir);
  dp::PrivacyAccountant accountant(num_clients);
  // ε is spent once per round by each client that releases an update
  // (basic composition); ε = ∞ rounds are accounted as zero leakage.
  const double round_epsilon = std::isfinite(config.epsilon) ? config.epsilon : 0.0;

  // Per-client uplink fault attribution (retransmits, corrupt frames): the
  // communicator counts cumulatively, the ledger wants per-round deltas.
  std::vector<comm::Communicator::UplinkHealth> prev_uplink;

  std::uint32_t start_round = 1;
  if (!config.resume_from.empty()) {
    APPFL_SPAN("ckpt.restore", "ckpt");
    obs::flight_record("ckpt.restore");
    // Resuming through the save store (same directory) keeps the A/B
    // alternation correct: the next save overwrites the slot we did NOT
    // load from.
    std::optional<CheckpointStore> separate;
    CheckpointStore& resume_store =
        store && config.resume_from == config.checkpoint_dir
            ? *store
            : separate.emplace(config.resume_from);
    const std::optional<RoundCheckpoint> rc =
        load_latest_round_checkpoint(resume_store);
    for (const std::string& diag : resume_store.report().diagnostics) {
      std::fprintf(stderr, "warning: checkpoint recovery: %s\n", diag.c_str());
    }
    APPFL_CHECK_MSG(rc.has_value(), "resume_from='" << config.resume_from
                        << "' holds no loadable checkpoint");
    APPFL_CHECK_MSG(
        rc->seed == config.seed && rc->num_clients == num_clients &&
            rc->param_count == server.num_parameters() &&
            rc->total_rounds == config.rounds,
        "checkpoint fingerprint mismatch: checkpoint is (seed="
            << rc->seed << ", clients=" << rc->num_clients << ", params="
            << rc->param_count << ", rounds=" << rc->total_rounds
            << "), this run is (seed=" << config.seed << ", clients="
            << num_clients << ", params=" << server.num_parameters()
            << ", rounds=" << config.rounds << ")");
    server.import_state(rc->server);  // also cross-checks the kind tag
    for (std::size_t p = 0; p < num_clients; ++p) {
      clients[p]->import_state(rc->clients[p]);
      accountant.restore_spent(p, rc->clients[p].dp_spent);
    }
    sampler.set_state(rc->sampler_state);
    comm::Communicator::PersistentState cs;
    cs.sim_now = rc->comm.sim_now;
    cs.stats = rc->comm.stats;
    cs.link_keys = rc->comm.link_keys;
    cs.link_seqs = rc->comm.link_seqs;
    cs.ef_residuals = rc->comm.ef_residuals;
    comm.restore_persistent_state(cs);
    start_round = rc->rounds_completed + 1;
    result.resumed_from_round = rc->rounds_completed;
  }

  for (std::uint32_t round = start_round; round <= config.rounds; ++round) {
    obs::ScopedSpan round_span("fl.round", "fl");
    round_span.set_arg("round", round);
    obs::flight_record("round.start",
                       "{\"round\":" + std::to_string(round) + "}");
    const double sim_round_start = comm.clock().now();
    // (0) Client sampling: all clients at fraction 1, otherwise ⌈f·P⌉
    // distinct ids drawn from the seed-derived stream.
    const std::vector<std::uint32_t> participants =
        sample_fraction(sampler, num_clients, config.client_fraction);

    // (1) Global update + broadcast to the round's participants. The stats
    // snapshot brackets the whole round, broadcast included, so the
    // per-round metric deltas add up to the run totals.
    const comm::TrafficStats before = comm.stats();
    const std::vector<float> w = [&] {
      APPFL_SPAN("fl.compute_global", "fl");
      return server.compute_global(round);
    }();
    comm::Message global;
    global.kind = comm::MessageKind::kGlobalModel;
    global.sender = 0;
    global.round = round;
    global.primal = w;
    global.rho = server.current_rho();  // ρ^t in force (adaptive-ρ support)
    comm.broadcast_global(global, participants);

    // (2) Parallel client updates. Each participant pulls w from its
    // mailbox (already delivered, so no deadlock with a small pool),
    // trains, sends. A client whose downlink was lost sits the round out;
    // one whose uplink was lost is told so (ADMM clients roll their
    // speculative dual update back).
    //
    // Secure-aggregation mode splits the uplink into a share-distribution
    // phase (kSecAggShares → U2) and a masked-upload phase (U2 members
    // only → U3); see dp/secure_agg.hpp for the protocol.
    std::vector<char> trained(num_clients, 0);
    std::uint64_t round_reconstructions = 0;
    bool round_degraded = false;
    SecaggDegradeReason degrade_reason = SecaggDegradeReason::kNone;
    bool shares_below_threshold = false;
    const bool track_health = obs_session.metrics_enabled();
    std::size_t secagg_threshold = 0;
    std::uint64_t round_seed = 0;
    std::vector<std::optional<comm::Message>> pending_updates;
    std::vector<std::unique_ptr<dp::SecureAggClient>> sec_clients;
    if (config.secure_agg) {
      APPFL_CHECK_MSG(participants.size() >= 2,
                      "secure aggregation needs a cohort of at least 2, got "
                          << participants.size());
      secagg_threshold = config.secure_agg_threshold != 0
                             ? config.secure_agg_threshold
                             : participants.size() / 2 + 1;
      APPFL_CHECK_MSG(secagg_threshold <= participants.size(),
                      "secure_agg_threshold " << secagg_threshold
                          << " exceeds the round cohort of "
                          << participants.size());
      round_seed =
          rng::derive_seed(config.seed, {rng::stream::kSecureAgg, round});
      pending_updates.resize(participants.size());
      sec_clients.resize(participants.size());
    }
    {
      // The wall time of this block is the round's parallel local-update
      // phase — the numerator's complement in the Fig 3b gather-share
      // breakdown (bench/phase_breakdown).
      obs::ScopedSpan phase_span("fl.local_update_phase", "fl");
      phase_span.set_arg("participants", participants.size());
      // Pool workers have their own (empty) span stacks, so the lexical
      // parent link does not cross the dispatch; hand the phase's id in.
      const std::uint64_t phase_id = phase_span.id();
      pool.parallel_for(participants.size(), [&](std::size_t i) {
        const std::uint32_t id = participants[i];
        obs::ScopedSpan client_span("fl.client_update", "fl");
        client_span.set_parent(phase_id);
        client_span.set_arg("client", id);
        const std::optional<comm::Message> incoming =
            comm.try_recv_global(id, round);
        if (!incoming) {
          // Downlink loss: the client never saw this round.
          if (track_health) obs_session.health().note_dropout(id);
          return;
        }
        trained[id - 1] = 1;
        const auto train_start = std::chrono::steady_clock::now();
        comm::Message update = clients[id - 1]->handle_global(*incoming);
        if (track_health) {
          obs_session.health().observe_latency(
              id, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - train_start)
                      .count());
        }
        if (!config.secure_agg) {
          const bool delivered = comm.send_update(id, update);
          if (track_health && !delivered) {
            obs_session.health().add_dropped_frames(id, 1);
          }
          clients[id - 1]->on_uplink_result(delivered);
          return;
        }
        // Secure mode: hold the update, distribute Shamir shares first.
        // The share uplink rides the same reliability plane (retransmit,
        // deadline) as any update; losing it drops this client from U2.
        sec_clients[i] = std::make_unique<dp::SecureAggClient>(
            id, participants, round_seed, secagg_threshold);
        pending_updates[i] = std::move(update);
        comm::Message shares;
        shares.kind = comm::MessageKind::kSecAggShares;
        shares.sender = id;
        shares.round = round;
        shares.primal =
            dp::pack_bytes_as_floats(sec_clients[i]->share_packet());
        comm.send_update(id, shares);
      });
    }

    std::optional<dp::SecureAggServer> sec_server;
    if (config.secure_agg) {
      // Share gather decides U2 (share-distribution survivors); the server
      // then releases the masked-upload phase for exactly that set. A
      // trained client outside U2 is told its uplink failed — its masks
      // could never be removed, so its update must not enter the sum.
      sec_server.emplace(participants, round_seed, secagg_threshold);
      for (const comm::Message& m :
           comm.gather_secagg_shares(round, participants.size())) {
        sec_server->deposit_share_packet(
            m.sender, dp::unpack_bytes_from_floats(m.primal));
      }
      const std::vector<std::uint32_t> u2 = sec_server->share_survivors();
      std::vector<char> in_u2(num_clients, 0);
      for (std::uint32_t id : u2) in_u2[id - 1] = 1;
      const bool recoverable = u2.size() >= secagg_threshold;
      shares_below_threshold = !recoverable;
      obs::ScopedSpan phase_span("fl.masked_upload_phase", "fl");
      phase_span.set_arg("u2", u2.size());
      const std::uint64_t phase_id = phase_span.id();
      pool.parallel_for(participants.size(), [&](std::size_t i) {
        const std::uint32_t id = participants[i];
        if (!trained[id - 1]) return;
        obs::ScopedSpan client_span("fl.masked_upload", "fl");
        client_span.set_parent(phase_id);
        client_span.set_arg("client", id);
        if (!recoverable || !in_u2[id - 1]) {
          // This client's share packet never reached the server: its masks
          // could not be removed, so its update is discarded with it.
          if (track_health && !in_u2[id - 1]) {
            obs_session.health().add_share_discards(id, 1);
          }
          clients[id - 1]->on_uplink_result(false);
          return;
        }
        const comm::Message& update = *pending_updates[i];
        const double weight =
            config.weighted_aggregation
                ? static_cast<double>(update.sample_count)
                : 1.0;
        comm::Message masked;
        masked.kind = comm::MessageKind::kLocalUpdate;
        masked.sender = id;
        masked.round = round;
        masked.sample_count = update.sample_count;
        masked.loss = update.loss;
        masked.primal = dp::pack_words_as_floats(sec_clients[i]->mask(
            update.primal, u2, dp::kDefaultScale, weight));
        const bool delivered = comm.send_update(id, masked);
        if (track_health && !delivered) {
          obs_session.health().add_dropped_frames(id, 1);
        }
        clients[id - 1]->on_uplink_result(delivered);
      });
    }

    // (3) Gather + server-side absorption (tolerates partial rounds). The
    // batch keeps the decoded wire payloads alive so the server can absorb
    // them in place; only when a server declines (adaptive ρ, malformed
    // round) are owning Messages materialized for the classic update().
    // Secure mode gathers MASKED uploads: the expected count is |U2| (only
    // U2 members send), and the gather still runs when the round already
    // degraded so the round keeps its comm record and timeline.
    const std::size_t expected_uploads =
        config.secure_agg
            ? std::max<std::size_t>(sec_server->share_survivors().size(), 1)
            : participants.size();
    const comm::GatherBatch batch = [&] {
      APPFL_SPAN("fl.gather_phase", "fl");
      return comm.gather_batch(round, expected_uploads);
    }();
    if (!config.secure_agg) {
      APPFL_SPAN("fl.aggregate", "fl");
      if (!server.absorb(batch, w, round)) {
        const std::vector<comm::Message> locals = batch.take_messages();
        server.update(locals, w, round);
      }
    } else {
      APPFL_SPAN("fl.secagg_unmask", "fl");
      // U3 = upload survivors. Sum their masked words, reconstruct the
      // self-masks of U3 and the pairwise keys of U2 \ U3 from the shares,
      // and recover the exact fixed-point survivor sum.
      std::vector<std::uint32_t> u3;
      std::vector<std::vector<std::uint64_t>> uploads;
      double total_weight = 0.0;
      std::uint64_t total_samples = 0;
      double loss_acc = 0.0;
      for (const auto& u : batch.updates()) {
        APPFL_CHECK(u.primal.enc == comm::WireEncoding::kF32 &&
                    u.primal.count % 2 == 0);
        u3.push_back(u.sender);
        std::vector<std::uint64_t> words(u.primal.count / 2);
        std::memcpy(words.data(), u.primal.data, u.primal.count * 4);
        uploads.push_back(std::move(words));
        total_weight += config.weighted_aggregation
                            ? static_cast<double>(u.sample_count)
                            : 1.0;
        total_samples += u.sample_count;
        loss_acc += u.loss * static_cast<double>(u.sample_count);
      }
      const dp::SecureAggServer::Recovery recovery =
          sec_server->unmask(u3, uploads);
      if (recovery.ok) {
        round_reconstructions = recovery.pair_keys_reconstructed;
        // One synthesized update carrying the recovered survivor mean:
        // FedAvg/FedProx's weighted mean of a single message is that
        // message, so the server classes need no secure-agg awareness.
        comm::Message synth;
        synth.kind = comm::MessageKind::kLocalUpdate;
        synth.sender = u3.front();
        synth.round = round;
        synth.sample_count = total_samples;
        synth.loss = total_samples > 0
                         ? loss_acc / static_cast<double>(total_samples)
                         : 0.0;
        synth.primal = dp::dequantize_sum(recovery.sum,
                                          dp::kDefaultScale * total_weight);
        std::vector<comm::Message> locals;
        locals.push_back(std::move(synth));
        server.update(locals, w, round);
      } else {
        // Below threshold: skip the model update, count the round, keep
        // running — graceful degradation, never a partial unmask. The
        // reason distinguishes WHERE the cohort thinned: the share wave
        // (U2 < t, nobody even uploaded) or the masked uploads (U3 < t).
        round_degraded = true;
        degrade_reason = shares_below_threshold
                             ? SecaggDegradeReason::kShareWaveTimeout
                             : SecaggDegradeReason::kBelowThreshold;
      }
      if (obs::metrics_on()) {
        static obs::Counter& reconstructions =
            obs::MetricsRegistry::global().counter(
                "secure_agg.reconstructions");
        static obs::Counter& degraded =
            obs::MetricsRegistry::global().counter(
                "secure_agg.rounds_degraded");
        reconstructions.add(round_reconstructions);
        if (round_degraded) degraded.add(1);
      }
    }
    if (round_degraded) {
      // Degraded rounds are a flight-recorder trigger: dump the black box
      // now, while the events leading here are still in the ring.
      obs::flight_record("secagg.degraded",
                         "{\"round\":" + std::to_string(round) +
                             ",\"reason\":\"" + to_string(degrade_reason) +
                             "\"}");
      obs::FlightRecorder::global().dump("secagg-degraded-" +
                                         to_string(degrade_reason));
    }
    const comm::TrafficStats after = comm.stats();
    round_span.set_sim(sim_round_start,
                      comm.clock().now() - sim_round_start);
    // Every client that trained released a perturbed update, so it spent
    // this round's ε whether or not the network delivered it.
    for (std::size_t p = 0; p < num_clients; ++p) {
      if (trained[p]) accountant.spend(p, round_epsilon);
    }
    if (track_health) {
      for (std::size_t p = 0; p < num_clients; ++p) {
        if (trained[p]) {
          obs_session.health().set_dp_epsilon(
              static_cast<std::uint32_t>(p + 1), accountant.spent(p));
        }
      }
      // Fold this round's communicator-attributed faults into the ledger.
      std::vector<comm::Communicator::UplinkHealth> uh = comm.uplink_health();
      for (std::size_t p = 0; p < uh.size(); ++p) {
        const comm::Communicator::UplinkHealth base =
            p < prev_uplink.size() ? prev_uplink[p]
                                   : comm::Communicator::UplinkHealth{};
        const std::uint32_t id = static_cast<std::uint32_t>(p + 1);
        if (uh[p].retransmits > base.retransmits) {
          obs_session.health().add_retransmits(
              id, uh[p].retransmits - base.retransmits);
        }
        if (uh[p].corrupt > base.corrupt) {
          obs_session.health().add_corrupt_frames(id,
                                                  uh[p].corrupt - base.corrupt);
        }
      }
      prev_uplink = std::move(uh);
    }

    // (4) Metrics.
    RoundMetrics metrics;
    metrics.round = round;
    metrics.rho = global.rho;
    metrics.participants = participants.size();
    metrics.responders = batch.size();
    metrics.drops = after.drops - before.drops;
    metrics.retries = after.retries - before.retries;
    metrics.crc_failures = after.crc_failures - before.crc_failures;
    metrics.discards = after.discards - before.discards;
    metrics.timeouts = after.gather_timeouts - before.gather_timeouts;
    metrics.secagg_reconstructions = round_reconstructions;
    metrics.secagg_degraded = round_degraded;
    metrics.secagg_degrade_reason = degrade_reason;
    result.secagg_reconstructions += round_reconstructions;
    if (round_degraded) ++result.secagg_rounds_degraded;
    double loss_acc = 0.0;
    std::uint64_t samples = 0;
    for (const auto& u : batch.updates()) {
      loss_acc += u.loss * static_cast<double>(u.sample_count);
      samples += u.sample_count;
    }
    metrics.train_loss = samples > 0 ? loss_acc / static_cast<double>(samples) : 0.0;
    const auto& rec = comm.round_log().back();
    metrics.broadcast_s = rec.broadcast_s;
    metrics.gather_s = rec.gather_s;
    if (config.validate_every_round || round == config.rounds) {
      APPFL_SPAN("fl.validate", "fl");
      metrics.test_accuracy = server.validate(w);
    } else {
      metrics.test_accuracy = -1.0;
    }
    if (comm.fault_plane_active()) {
      APPFL_LOG_DEBUG(to_string(config.algorithm)
                      << " round " << round << ": loss=" << metrics.train_loss
                      << " acc=" << metrics.test_accuracy << " responders="
                      << metrics.responders << "/" << metrics.participants
                      << " drops=" << metrics.drops << " retries="
                      << metrics.retries << " crc=" << metrics.crc_failures
                      << " discards=" << metrics.discards
                      << " timeouts=" << metrics.timeouts);
    } else {
      APPFL_LOG_DEBUG(to_string(config.algorithm)
                      << " round " << round << ": loss=" << metrics.train_loss
                      << " acc=" << metrics.test_accuracy);
    }
    result.rounds.push_back(metrics);
    obs_session.write_round(metrics);
    obs::flight_record("round.done",
                       "{\"round\":" + std::to_string(round) +
                           ",\"responders\":" +
                           std::to_string(metrics.responders) + "}");

    // (5) Round checkpoint: captured after the server absorbed the round,
    // so a restart replays nothing and skips nothing.
    const bool halt_here =
        config.halt_after_round > 0 && round == config.halt_after_round;
    if (store &&
        (round % config.checkpoint_every_n_rounds == 0 ||
         round == config.rounds || halt_here)) {
      APPFL_SPAN("ckpt.save", "ckpt");
      obs::flight_record("ckpt.save",
                         "{\"round\":" + std::to_string(round) + "}");
      RoundCheckpoint rc;
      rc.algorithm = to_string(config.algorithm);
      rc.seed = config.seed;
      rc.num_clients = static_cast<std::uint32_t>(num_clients);
      rc.param_count = server.num_parameters();
      rc.total_rounds = static_cast<std::uint32_t>(config.rounds);
      rc.rounds_completed = round;
      rc.parameters = w;
      rc.server = server.export_state();
      for (std::size_t p = 0; p < num_clients; ++p) {
        rc.clients.push_back(clients[p]->export_state());
        rc.clients.back().dp_spent = accountant.spent(p);
      }
      rc.sampler_state = sampler.state();
      const comm::Communicator::PersistentState cs = comm.persistent_state();
      rc.comm.sim_now = cs.sim_now;
      rc.comm.stats = cs.stats;
      rc.comm.link_keys = cs.link_keys;
      rc.comm.link_seqs = cs.link_seqs;
      rc.comm.ef_residuals = cs.ef_residuals;
      save_round_checkpoint(*store, rc);
      ++result.checkpoints_written;
    }
    if (halt_here) break;
  }

  // Final validation on the post-absorption global parameters.
  const std::vector<float> w_final =
      server.compute_global(static_cast<std::uint32_t>(config.rounds + 1));
  {
    APPFL_SPAN("fl.validate", "fl");
    result.final_accuracy = server.validate(w_final);
  }
  result.final_parameters = w_final;
  result.dp_epsilon_spent = accountant.max_spent();
  result.traffic = comm.stats();
  result.comm_rounds = comm.round_log();
  result.sim_comm_seconds = comm.clock().now();
  obs_session.finish(result);
  return result;
}

}  // namespace appfl::core
