#include "core/round_session.hpp"

#include <cstdio>
#include <sstream>

#include "obs/critpath.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "rng/rng.hpp"
#include "util/check.hpp"
#include "util/logging.hpp"

namespace appfl::core {

RoundSession::RoundSession(const RunConfig& config, RunShape shape)
    : config_(config),
      shape_(shape),
      level_(obs::parse_level(config.obs_level).value_or(obs::Level::kOff)),
      previous_(obs::level()) {
  obs::set_level(level_);
  if (level_ >= obs::Level::kMetrics) {
    // Artifacts describe this run only; instruments are zeroed in place so
    // references cached by hot paths (gemm, communicator) stay valid.
    obs::MetricsRegistry::global().reset();
    obs::Tracer::global().clear();
    obs::FlightRecorder::global().clear();
  }
  obs::FlightRecorder::global().set_dump_dir(config.flight_dir);
  if (!config.flight_dir.empty()) obs::FlightRecorder::install_crash_hooks();
  if (!config.metrics_out.empty()) writer_.emplace(config.metrics_out);
  // Crash recovery: an empty dir keeps every checkpoint path untouched, so
  // a checkpoint-free run stays bit-identical to a pre-checkpoint build.
  if (!config.checkpoint_dir.empty()) store_.emplace(config.checkpoint_dir);
  result_.model_parameters = shape.param_count;
}

std::uint32_t RoundSession::resume(
    const std::function<void(const RoundCheckpoint&)>& restore) {
  if (config_.resume_from.empty()) return 1;
  APPFL_SPAN("ckpt.restore", "ckpt");
  const RoundCheckpoint rc = resume_round_checkpoint(config_.resume_from, store_);
  APPFL_CHECK_MSG(
      rc.seed == config_.seed && rc.num_clients == shape_.num_clients &&
          rc.param_count == shape_.param_count &&
          rc.total_rounds == config_.rounds &&
          rc.population == shape_.population &&
          rc.participants_per_round == shape_.participants_per_round,
      "checkpoint fingerprint mismatch: checkpoint is (seed="
          << rc.seed << ", clients=" << rc.num_clients << ", population="
          << rc.population << ", participants=" << rc.participants_per_round
          << ", params=" << rc.param_count << ", rounds=" << rc.total_rounds
          << "), this run is (seed=" << config_.seed
          << ", clients=" << shape_.num_clients
          << ", population=" << shape_.population
          << ", participants=" << shape_.participants_per_round
          << ", params=" << shape_.param_count
          << ", rounds=" << config_.rounds << ")");
  restore(rc);
  result_.resumed_from_round = rc.rounds_completed;
  return rc.rounds_completed + 1;
}

bool RoundSession::checkpoint_due(std::uint64_t n, std::uint64_t total) const {
  return store_.has_value() &&
         (n % config_.checkpoint_every_n_rounds == 0 || n == total ||
          halt_after(n));
}

void RoundSession::save_checkpoint(
    std::uint32_t round, const std::function<void(RoundCheckpoint&)>& fill) {
  APPFL_SPAN("ckpt.save", "ckpt");
  obs::flight_record("ckpt.save", "{\"round\":" + std::to_string(round) + "}");
  // Captured after the round was absorbed, so a restart replays nothing
  // and skips nothing.
  RoundCheckpoint rc;
  rc.algorithm = to_string(config_.algorithm);
  rc.seed = config_.seed;
  rc.num_clients = static_cast<std::uint32_t>(shape_.num_clients);
  rc.param_count = shape_.param_count;
  rc.total_rounds = static_cast<std::uint32_t>(config_.rounds);
  rc.rounds_completed = round;
  rc.population = shape_.population;
  rc.participants_per_round = shape_.participants_per_round;
  fill(rc);
  save_round_checkpoint(*store_, rc);
  ++result_.checkpoints_written;
}

RoundSession::Round::Round(RoundSession& session, std::uint32_t round,
                           double sim_now, comm::TrafficStats before)
    : session_(session),
      span_("fl.round", "fl"),
      sim_start_(sim_now),
      before_(std::move(before)) {
  span_.set_arg("round", round);
  obs::flight_record("round.start", "{\"round\":" + std::to_string(round) + "}");
  metrics.round = round;
}

std::uint64_t RoundSession::Round::record_uploads(
    std::span<const comm::GatherUpdate> uploads) {
  double loss_acc = 0.0;
  std::uint64_t samples = 0;
  for (const comm::GatherUpdate& u : uploads) {
    loss_acc += u.loss * static_cast<double>(u.sample_count);
    samples += u.sample_count;
  }
  metrics.responders = uploads.size();
  metrics.train_loss =
      samples > 0 ? loss_acc / static_cast<double>(samples) : 0.0;
  return samples;
}

void RoundSession::Round::end(double sim_now, const comm::TrafficStats& after) {
  span_.set_sim(sim_start_, sim_now - sim_start_);
  // The ledger snapshots bracket the whole round, broadcast included, so
  // the per-round deltas add up to the run totals.
  metrics.drops = after.drops - before_.drops;
  metrics.retries = after.retries - before_.retries;
  metrics.crc_failures = after.crc_failures - before_.crc_failures;
  metrics.discards = after.discards - before_.discards;
  metrics.timeouts = after.gather_timeouts - before_.gather_timeouts;
  RunResult& result = session_.result_;
  result.secagg_reconstructions += metrics.secagg_reconstructions;
  if (metrics.secagg_degraded) ++result.secagg_rounds_degraded;
  result.rounds.push_back(metrics);
  APPFL_LOG_DEBUG(to_string(session_.config_.algorithm)
                  << " round " << metrics.round << ": loss="
                  << metrics.train_loss << " acc=" << metrics.test_accuracy
                  << " responders=" << metrics.responders << "/"
                  << metrics.participants << " drops=" << metrics.drops
                  << " retries=" << metrics.retries
                  << " crc=" << metrics.crc_failures
                  << " discards=" << metrics.discards
                  << " timeouts=" << metrics.timeouts);
  session_.write_round(metrics);
  obs::flight_record("round.done",
                     "{\"round\":" + std::to_string(metrics.round) +
                         ",\"responders\":" +
                         std::to_string(metrics.responders) + "}");
}

void RoundSession::write_round(const RoundMetrics& m) {
  if (!streaming()) return;
  std::ostringstream os;
  os << "{\"type\":\"round\",\"round\":" << m.round
     << ",\"train_loss\":" << obs::json_number(m.train_loss)
     << ",\"test_accuracy\":" << obs::json_optional(m.test_accuracy)
     << ",\"broadcast_s\":" << obs::json_number(m.broadcast_s)
     << ",\"gather_s\":" << obs::json_number(m.gather_s)
     << ",\"rho\":" << obs::json_number(m.rho)
     << ",\"participants\":" << m.participants
     << ",\"responders\":" << m.responders << ",\"drops\":" << m.drops
     << ",\"retries\":" << m.retries
     << ",\"crc_failures\":" << m.crc_failures
     << ",\"discards\":" << m.discards << ",\"timeouts\":" << m.timeouts
     << ",\"secagg_reconstructions\":" << m.secagg_reconstructions
     << ",\"secagg_degraded\":" << (m.secagg_degraded ? "true" : "false")
     << ",\"secagg_degrade_reason\":";
  if (m.secagg_degrade_reason == SecaggDegradeReason::kNone) {
    os << "null";
  } else {
    os << "\"" << to_string(m.secagg_degrade_reason) << "\"";
  }
  os << "}";
  writer_->line(os.str());
  const std::vector<obs::ClientHealth> clients = health_.snapshot();
  if (!clients.empty()) {
    writer_->line(obs::HealthLedger::round_json(m.round, clients));
  }
}

RunResult RoundSession::finish(const comm::TrafficStats& traffic,
                               double sim_seconds) {
  result_.traffic = traffic;
  result_.sim_comm_seconds = sim_seconds;
  if (streaming()) {
    const RunResult& r = result_;
    const comm::TrafficStats& t = r.traffic;
    std::ostringstream os;
    os << "{\"type\":\"summary\",\"rounds_completed\":" << r.rounds.size()
       << ",\"final_accuracy\":" << obs::json_number(r.final_accuracy)
       << ",\"mean_test_accuracy\":"
       << obs::json_optional(r.mean_test_accuracy())
       << ",\"best_test_accuracy\":"
       << obs::json_optional(r.best_test_accuracy())
       << ",\"sim_comm_seconds\":" << obs::json_number(r.sim_comm_seconds)
       << ",\"model_parameters\":" << r.model_parameters
       << ",\"dp_epsilon_spent\":" << obs::json_number(r.dp_epsilon_spent)
       << ",\"resumed_from_round\":" << r.resumed_from_round
       << ",\"checkpoints_written\":" << r.checkpoints_written
       << ",\"traffic\":{\"messages_up\":" << t.messages_up
       << ",\"messages_down\":" << t.messages_down
       << ",\"bytes_up\":" << t.bytes_up << ",\"bytes_down\":" << t.bytes_down
       << ",\"bytes_up_precodec\":" << t.bytes_up_precodec
       << ",\"drops\":" << t.drops << ",\"retries\":" << t.retries
       << ",\"crc_failures\":" << t.crc_failures
       << ",\"discards\":" << t.discards
       << ",\"gather_timeouts\":" << t.gather_timeouts
       << "},\"dropped_spans\":" << obs::Tracer::global().dropped() << "}";
    writer_->line(os.str());
  }
  finish();
  return std::move(result_);
}

void RoundSession::finish() {
  // Tracer self-telemetry: silent ring overwrites become visible in the
  // end-of-run metrics snapshot, not only via dropped().
  if (level_ >= obs::Level::kMetrics) {
    obs::Tracer& tracer = obs::Tracer::global();
    obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
    reg.counter("obs.spans_emitted").add(tracer.emitted());
    reg.counter("obs.spans_dropped").add(tracer.dropped());
    reg.gauge("obs.trace_threads")
        .set(static_cast<double>(tracer.ring_count()));
  }
  if (streaming()) {
    const std::vector<obs::ClientHealth> clients = health_.snapshot();
    if (!clients.empty()) {
      std::string line = obs::HealthLedger::round_json(0, clients);
      // Re-tag the final snapshot so consumers can tell it from a round line.
      line.replace(line.find("\"health\""), 8, "\"health_summary\"");
      writer_->line(line);
    }
    writer_->line(obs::metrics_snapshot_json(
        obs::MetricsRegistry::global().snapshot()));
    writer_->flush();
  }
  if (!config_.health_out.empty()) {
    std::string error;
    if (!health_.write_csv(config_.health_out, &error)) {
      std::fprintf(stderr, "warning: health CSV export failed: %s\n",
                   error.c_str());
    }
  }
  if (!config_.trace_out.empty()) {
    std::string error;
    if (!obs::write_chrome_trace(obs::Tracer::global(), config_.trace_out,
                                 &error)) {
      std::fprintf(stderr, "warning: trace export failed: %s\n",
                   error.c_str());
    }
  }
  if (!config_.critpath_out.empty()) {
    const std::vector<obs::RoundCritPath> paths =
        obs::critical_paths(obs::Tracer::global().collect());
    std::string error;
    if (!obs::write_critpath_jsonl(paths, config_.critpath_out, &error) ||
        !obs::write_critpath_csv(paths,
                                 obs::critpath_csv_path(config_.critpath_out),
                                 &error)) {
      std::fprintf(stderr, "warning: critical-path export failed: %s\n",
                   error.c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// SecAggRound
// ---------------------------------------------------------------------------

namespace {

std::size_t checked_threshold(const RunConfig& config, std::size_t k) {
  APPFL_CHECK_MSG(k >= 2,
                  "secure aggregation needs a cohort of at least 2, got " << k);
  const std::size_t t = config.secure_agg_threshold != 0
                            ? config.secure_agg_threshold
                            : k / 2 + 1;
  APPFL_CHECK_MSG(t <= k, "secure_agg_threshold "
                              << t << " exceeds the round cohort of " << k);
  return t;
}

}  // namespace

SecAggRound::SecAggRound(const RunConfig& config, std::uint32_t round,
                         std::span<const std::uint32_t> cohort)
    : round_(round),
      cohort_(cohort.begin(), cohort.end()),
      threshold_(checked_threshold(config, cohort.size())),
      weighted_(config.weighted_aggregation),
      round_seed_(
          rng::derive_seed(config.seed, {rng::stream::kSecureAgg, round})),
      server_(cohort, round_seed_, threshold_),
      clients_(cohort.size()),
      held_(cohort.size()) {}

comm::Message SecAggRound::share(std::size_t slot, comm::Message update) {
  clients_[slot] = std::make_unique<dp::SecureAggClient>(
      cohort_[slot], cohort_, round_seed_, threshold_);
  held_[slot] = std::move(update);
  comm::Message shares;
  shares.kind = comm::MessageKind::kSecAggShares;
  shares.sender = cohort_[slot];
  shares.receiver = 0;
  shares.round = round_;
  shares.primal = dp::pack_bytes_as_floats(clients_[slot]->share_packet());
  return shares;
}

comm::Message SecAggRound::masked_upload(std::size_t slot) const {
  const comm::Message& update = held_[slot];
  const double weight =
      weighted_ ? static_cast<double>(update.sample_count) : 1.0;
  comm::Message masked;
  masked.kind = comm::MessageKind::kLocalUpdate;
  masked.sender = cohort_[slot];
  masked.receiver = 0;
  masked.round = round_;
  masked.sample_count = update.sample_count;
  masked.loss = update.loss;
  masked.primal = dp::pack_words_as_floats(
      clients_[slot]->mask(update.primal, u2_, dp::kDefaultScale, weight));
  return masked;
}

std::vector<bool> SecAggRound::deposit_all(
    std::span<const SharePacket> packets, util::ThreadPool& pool) {
  // Verification reads only the cohort and the threshold, so it fans out;
  // the deposits stay serial so a duplicate loses to the first valid copy.
  std::vector<std::optional<dp::SecureAggServer::VerifiedPacket>> verified(
      packets.size());
  pool.parallel_for(packets.size(), [&](std::size_t i) {
    const comm::FloatView& payload = packets[i].payload;
    try {
      verified[i] = server_.verify_share_packet(
          packets[i].sender,
          dp::unframe_bytes({payload.bytes(), 4 * payload.size()}));
    } catch (const Error&) {
      // Malformed framing: the packet stays unverified.
    }
  });
  std::vector<bool> accepted(packets.size(), false);
  for (std::size_t i = 0; i < packets.size(); ++i) {
    if (verified[i]) {
      accepted[i] = server_.deposit_verified(packets[i].sender,
                                             std::move(*verified[i]));
    }
  }
  return accepted;
}

bool SecAggRound::close_shares(obs::HealthLedger* health) {
  u2_ = server_.share_survivors();
  for (std::size_t s = 0; health != nullptr && s < cohort_.size(); ++s) {
    if (shared(s) && !in_u2(s)) health->add_share_discards(cohort_[s], 1);
  }
  shares_short_ = u2_.size() < threshold_;
  return !shares_short_;
}

std::optional<std::vector<float>> SecAggRound::unmask(
    std::span<const comm::GatherUpdate> uploads) {
  // The masked words are unmasked where they landed in the wire buffers.
  std::vector<std::uint32_t> u3;
  std::vector<std::span<const std::uint8_t>> words;
  u3.reserve(uploads.size());
  words.reserve(uploads.size());
  double total_weight = 0.0;
  for (const comm::GatherUpdate& u : uploads) {
    APPFL_CHECK(u.primal.enc == comm::WireEncoding::kF32 &&
                u.primal.count % 2 == 0);
    u3.push_back(u.sender);
    words.push_back({u.primal.data, u.primal.count * 4});
    total_weight +=
        weighted_ ? static_cast<double>(u.sample_count) : 1.0;
  }
  const dp::SecureAggServer::Recovery recovery = server_.unmask(u3, words);
  if (!recovery.ok) {
    // Below threshold: skip the model update, count the round, keep
    // running — graceful degradation, never a partial unmask. The reason
    // names WHERE the cohort thinned: the share wave (U2 < t) or the
    // masked uploads (U3 < t).
    reason_ = shares_short_ ? SecaggDegradeReason::kShareWaveTimeout
                            : SecaggDegradeReason::kBelowThreshold;
    return std::nullopt;
  }
  reconstructions_ = recovery.pair_keys_reconstructed;
  return dp::dequantize_sum(recovery.sum, dp::kDefaultScale * total_weight);
}

void SecAggRound::report(RoundMetrics& m) const {
  m.secagg_reconstructions = reconstructions_;
  m.secagg_degraded = degraded();
  m.secagg_degrade_reason = reason_;
  if (obs::metrics_on()) {
    static obs::Counter& reconstructions =
        obs::MetricsRegistry::global().counter("secure_agg.reconstructions");
    static obs::Counter& rounds_degraded =
        obs::MetricsRegistry::global().counter("secure_agg.rounds_degraded");
    reconstructions.add(reconstructions_);
    if (degraded()) rounds_degraded.add(1);
  }
  if (degraded()) {
    // Degraded rounds are a flight-recorder trigger: dump the black box
    // now, while the events leading here are still in the ring.
    obs::flight_record("secagg.degraded",
                       "{\"round\":" + std::to_string(round_) +
                           ",\"reason\":\"" + to_string(reason_) + "\"}");
    obs::FlightRecorder::global().dump("secagg-degraded-" +
                                       to_string(reason_));
  }
}

}  // namespace appfl::core
