#include "core/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>

#include "core/fedavg.hpp"
#include "core/round_session.hpp"
#include "core/sampling.hpp"
#include "dp/accountant.hpp"
#include "core/iceadmm.hpp"
#include "core/fedprox.hpp"
#include "core/iiadmm.hpp"
#include "nn/model_zoo.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"

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

  // Observability, crash recovery and round bookkeeping. At obs level off
  // every hook is a single relaxed atomic load, and the run is
  // bit-identical.
  RoundSession session(config, {num_clients, server.num_parameters(), 0, 0});
  dp::PrivacyAccountant accountant(num_clients);
  // ε is spent once per round by each client that releases an update
  // (basic composition); ε = ∞ rounds are accounted as zero leakage.
  const double round_epsilon = std::isfinite(config.epsilon) ? config.epsilon : 0.0;

  // Per-client uplink fault attribution (retransmits, corrupt frames).
  if (session.metrics_enabled()) comm.attach_health(&session.health());

  const std::uint32_t start_round = session.resume([&](const RoundCheckpoint& rc) {
    server.import_state(rc.server);  // also cross-checks the kind tag
    for (std::size_t p = 0; p < num_clients; ++p) {
      clients[p]->import_state(rc.clients[p]);
      accountant.restore_spent(p, rc.clients[p].dp_spent);
    }
    sampler.set_state(rc.sampler_state);
    comm.restore_persistent_state(rc.comm);
  });

  for (std::uint32_t round = start_round; round <= config.rounds; ++round) {
    RoundSession::Round r(session, round, comm.clock().now(), comm.stats());
    // (0) Client sampling: all clients at fraction 1, otherwise ⌈f·P⌉
    // distinct ids drawn from the seed-derived stream.
    const std::vector<std::uint32_t> participants =
        sample_fraction(sampler, num_clients, config.client_fraction);

    // (1) Global update + broadcast to the round's participants.
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
    const bool track_health = session.metrics_enabled();
    std::optional<SecAggRound> sec;
    if (config.secure_agg) sec.emplace(config, round, participants);
    // Sends client `id`'s update and tells the client whether it got through.
    const auto send_and_ack = [&](std::uint32_t id, const comm::Message& m) {
      const bool delivered = comm.send_update(id, m);
      if (track_health && !delivered) session.health().add_dropped_frames(id, 1);
      clients[id - 1]->on_uplink_result(delivered);
    };
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
          if (track_health) session.health().note_dropout(id);
          return;
        }
        trained[id - 1] = 1;
        const auto train_start = std::chrono::steady_clock::now();
        comm::Message update = clients[id - 1]->handle_global(*incoming);
        if (track_health) {
          session.health().observe_latency(
              id, std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - train_start)
                      .count());
        }
        if (!sec) {
          send_and_ack(id, update);
          return;
        }
        // Secure mode: hold the update, distribute Shamir shares first.
        // The share uplink rides the same reliability plane (retransmit,
        // deadline) as any update; losing it drops this client from U2.
        comm.send_update(id, sec->share(i, std::move(update)));
      });
    }

    if (sec) {
      // Share gather decides U2 (share-distribution survivors); the server
      // then releases the masked-upload phase for exactly that set. A
      // trained client outside U2 is told its uplink failed — its masks
      // could never be removed, so its update must not enter the sum.
      const std::vector<comm::Message> shares =
          comm.gather_secagg_shares(round, participants.size());
      std::vector<SecAggRound::SharePacket> packets;
      packets.reserve(shares.size());
      for (const comm::Message& m : shares) {
        const auto* bytes =
            reinterpret_cast<const std::uint8_t*>(m.primal.data());
        packets.push_back({m.sender, comm::FloatView(bytes, m.primal.size())});
      }
      sec->deposit_all(packets, pool);
      const bool recoverable =
          sec->close_shares(track_health ? &session.health() : nullptr);
      obs::ScopedSpan phase_span("fl.masked_upload_phase", "fl");
      phase_span.set_arg("u2", sec->u2().size());
      const std::uint64_t phase_id = phase_span.id();
      pool.parallel_for(participants.size(), [&](std::size_t i) {
        const std::uint32_t id = participants[i];
        if (!trained[id - 1]) return;
        obs::ScopedSpan client_span("fl.masked_upload", "fl");
        client_span.set_parent(phase_id);
        client_span.set_arg("client", id);
        if (!recoverable || !sec->in_u2(i)) {
          // No unmaskable sum this round, or this client's share packet never
          // reached the server: its update is discarded.
          clients[id - 1]->on_uplink_result(false);
          return;
        }
        send_and_ack(id, sec->masked_upload(i));
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
        sec ? std::max<std::size_t>(sec->u2().size(), 1) : participants.size();
    const comm::GatherBatch batch = [&] {
      APPFL_SPAN("fl.gather_phase", "fl");
      return comm.gather_batch(round, expected_uploads);
    }();
    const std::uint64_t samples = r.record_uploads(batch.updates());
    RoundMetrics& metrics = r.metrics;
    if (!sec) {
      APPFL_SPAN("fl.aggregate", "fl");
      if (!server.absorb(batch, w, round)) {
        const std::vector<comm::Message> locals = batch.take_messages();
        server.update(locals, w, round);
      }
    } else {
      APPFL_SPAN("fl.secagg_unmask", "fl");
      // U3 = upload survivors; their recovered weighted mean reaches the
      // server as one synthesized update: FedAvg/FedProx's weighted mean of
      // a single message is that message, so the server classes need no
      // secure-agg awareness.
      if (std::optional<std::vector<float>> mean = sec->unmask(batch.updates())) {
        comm::Message synth;
        synth.kind = comm::MessageKind::kLocalUpdate;
        synth.sender = batch.updates().front().sender;
        synth.round = round;
        synth.sample_count = samples;
        synth.loss = metrics.train_loss;
        synth.primal = std::move(*mean);
        std::vector<comm::Message> locals;
        locals.push_back(std::move(synth));
        server.update(locals, w, round);
      }
      sec->report(metrics);
    }
    // Every client that trained released a perturbed update, so it spent
    // this round's ε whether or not the network delivered it.
    for (std::size_t p = 0; p < num_clients; ++p) {
      if (!trained[p]) continue;
      accountant.spend(p, round_epsilon);
      if (track_health) {
        session.health().set_dp_epsilon(static_cast<std::uint32_t>(p + 1),
                                        accountant.spent(p));
      }
    }

    // (4) Metrics.
    metrics.rho = global.rho;
    metrics.participants = participants.size();
    const auto& rec = comm.round_log().back();
    metrics.broadcast_s = rec.broadcast_s;
    metrics.gather_s = rec.gather_s;
    if (config.validate_every_round || round == config.rounds) {
      APPFL_SPAN("fl.validate", "fl");
      metrics.test_accuracy = server.validate(w);
    } else {
      metrics.test_accuracy = -1.0;
    }
    r.end(comm.clock().now(), comm.stats());

    // (5) Round checkpoint.
    if (session.checkpoint_due(round, config.rounds)) {
      session.save_checkpoint(round, [&](RoundCheckpoint& rc) {
        rc.parameters = w;
        rc.server = server.export_state();
        for (std::size_t p = 0; p < num_clients; ++p) {
          rc.clients.push_back(clients[p]->export_state());
          rc.clients.back().dp_spent = accountant.spent(p);
        }
        rc.sampler_state = sampler.state();
        rc.comm = comm.persistent_state();
      });
    }
    if (session.halt_after(round)) break;
  }

  // Final validation on the post-absorption global parameters.
  RunResult& result = session.result();
  const std::vector<float> w_final =
      server.compute_global(static_cast<std::uint32_t>(config.rounds + 1));
  {
    APPFL_SPAN("fl.validate", "fl");
    result.final_accuracy = server.validate(w_final);
  }
  result.final_parameters = w_final;
  result.dp_epsilon_spent = accountant.max_spent();
  result.comm_rounds = comm.round_log();
  return session.finish(comm.stats(), comm.clock().now());
}

}  // namespace appfl::core
