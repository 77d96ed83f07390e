// Per-run round session: the lifecycle every runner shares. The sync
// runner (core/runner.cpp) and the population engine (core/event_engine.cpp)
// keep only their schedules — the thread-pool round versus the event queue;
// the async runner uses the observability and checkpoint parts. The session
// owns observability (run-scoped obs level, health ledger, JSONL stream, end
// of run artifacts), crash recovery (checkpoint store, fingerprinted resume,
// save cadence) and the per-round bookkeeping (Round). SecAggRound is the
// secure-aggregation round both round runners drive.
//
// Resume semantics (the contract tests/test_resume.cpp pins): traffic
// counters CONTINUE across --resume because the JSONL summary reports the
// comm ledger, which the checkpoint restores; registry instruments and
// spans RESTART, because the session clears them at run start — a resumed
// run's trace covers only the rounds this process executed.
//
// The level is process-wide state, so concurrent runs in one process should
// not both enable observability; the last session to finish restores the
// level it found.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/config.hpp"
#include "core/runner.hpp"
#include "dp/secure_agg.hpp"
#include "obs/export.hpp"
#include "obs/health.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace appfl::core {

/// What a round checkpoint is fingerprinted with: a resume must match the
/// run's seed and total rounds plus these. A sync run has population 0.
struct RunShape {
  std::uint64_t num_clients = 0;  // P, or the population size
  std::uint64_t param_count = 0;
  std::uint64_t population = 0;
  std::uint32_t participants_per_round = 0;
};

class RoundSession {
 public:
  /// Raises the obs level for the run (clearing the global tracer and
  /// registry when enabled) and opens the checkpoint store, if any.
  /// run_async, which keeps its own checkpoint type, passes no shape.
  explicit RoundSession(const RunConfig& config, RunShape shape = {});
  ~RoundSession() { obs::set_level(previous_); }

  RoundSession(const RoundSession&) = delete;
  RoundSession& operator=(const RoundSession&) = delete;

  bool metrics_enabled() const { return level_ >= obs::Level::kMetrics; }
  /// True when a JSONL stream is open — callers can skip building lines.
  bool streaming() const { return writer_.has_value() && writer_->ok(); }

  /// The run's per-client health ledger. Runners feed it (gated on
  /// metrics_enabled()); the session snapshots it per round into the JSONL
  /// stream and at finish into the summary + the --health-out CSV.
  obs::HealthLedger& health() { return health_; }

  /// Arbitrary pre-rendered JSONL line (the async runner's event stream).
  void write_line(const std::string& json) {
    if (streaming()) writer_->line(json);
  }

  /// The result being built; the session fills the bookkeeping fields.
  RunResult& result() { return result_; }

  /// The save store (empty when config.checkpoint_dir is).
  std::optional<CheckpointStore>& store() { return store_; }

  /// The first round to run: 1, or after a resume — the newest checkpoint
  /// under config.resume_from, fingerprint-checked, handed to `restore`.
  std::uint32_t resume(
      const std::function<void(const RoundCheckpoint&)>& restore);

  /// Whether the run stops after completed round/update `n`.
  bool halt_after(std::uint64_t n) const {
    return config_.halt_after_round > 0 && n == config_.halt_after_round;
  }
  /// The cadence of every runner (`n` counts rounds, or applied updates in
  /// run_async): a store is open and `n` is a multiple of
  /// checkpoint_every_n_rounds, the last of `total`, or the halt point.
  bool checkpoint_due(std::uint64_t n, std::uint64_t total) const;

  /// Saves the round checkpoint (ckpt.save span and flight event): the
  /// session fills the header, `fill` the runner's state.
  void save_checkpoint(std::uint32_t round,
                       const std::function<void(RoundCheckpoint&)>& fill);

  /// One round, from the fl.round span and round.start flight event to
  /// end(). Lives in the round loop's scope so the span encloses the whole
  /// round, its checkpoint save included.
  class Round {
   public:
    Round(RoundSession& session, std::uint32_t round, double sim_now,
          comm::TrafficStats before);

    RoundMetrics metrics;  // filled by the runner, completed by end()

    /// Sets responders and the sample-weighted mean train loss from the
    /// round's surviving uploads; returns their total sample count.
    std::uint64_t record_uploads(std::span<const comm::GatherUpdate> uploads);

    /// Closes the round at `sim_now`: fault-counter deltas against the
    /// ledger snapshot taken at the start, run totals, the JSONL line and
    /// round.done.
    void end(double sim_now, const comm::TrafficStats& after);

   private:
    RoundSession& session_;
    obs::ScopedSpan span_;
    double sim_start_ = 0.0;
    comm::TrafficStats before_;
  };

  /// End of a round run: summary line and artifacts; hands the result over.
  RunResult finish(const comm::TrafficStats& traffic, double sim_seconds);

  /// End of run without a round summary (run_async): health, metrics,
  /// trace and critical-path artifacts.
  void finish();

 private:
  void write_round(const RoundMetrics& metrics);

  const RunConfig& config_;
  RunShape shape_;
  obs::Level level_ = obs::Level::kOff;
  obs::Level previous_ = obs::Level::kOff;
  std::optional<obs::JsonlWriter> writer_;
  obs::HealthLedger health_;
  std::optional<CheckpointStore> store_;
  RunResult result_;
};

/// One Bonawitz secure-aggregation round (dp/secure_agg.hpp) over a sampled
/// cohort; a slot is a cohort index. Each trained slot's share() goes out
/// first; the server passes what arrives to deposit_all() and
/// close_shares() freezes U2; U2 slots send masked_upload(); unmask() turns
/// the uploads that arrived (U3) into the weighted survivor mean, or
/// degrades the round. Client-side calls for distinct slots may run
/// concurrently.
class SecAggRound {
 public:
  /// t = config.secure_agg_threshold, or ⌊k/2⌋+1 when 0; needs 2 ≤ t ≤ k.
  SecAggRound(const RunConfig& config, std::uint32_t round,
              std::span<const std::uint32_t> cohort);

  /// Holds the slot's trained update; returns its kSecAggShares message.
  comm::Message share(std::size_t slot, comm::Message update);
  /// Whether `slot` trained and shared this round.
  bool shared(std::size_t slot) const { return clients_[slot] != nullptr; }
  /// The held update masked against U2, as a kLocalUpdate message.
  comm::Message masked_upload(std::size_t slot) const;

  /// A share packet as received: its sender and the primal payload.
  struct SharePacket {
    std::uint32_t sender = 0;
    comm::FloatView payload;
  };
  /// Deposits a batch of share packets: parses and Feldman-verifies them on
  /// `pool`, then deposits them serially in batch order. Returns each
  /// packet's verdict — false, never a throw, for a malformed, tampered or
  /// duplicate packet — exactly as one-at-a-time deposits would.
  std::vector<bool> deposit_all(std::span<const SharePacket> packets,
                                util::ThreadPool& pool);
  /// Freezes U2 from the deposited packets and returns whether |U2| ≥ t.
  /// A slot that shared but is outside U2 has its update discarded with
  /// its lost packet; it is counted in `health`, if given.
  bool close_shares(obs::HealthLedger* health);
  const std::vector<std::uint32_t>& u2() const { return u2_; }
  bool in_u2(std::size_t slot) const {
    return std::binary_search(u2_.begin(), u2_.end(), cohort_[slot]);
  }

  /// Unmasks U3 = `uploads` (ascending sender). The weights were folded
  /// into the quantization scale client-side, so one division by
  /// scale · Σweights gives the weighted survivor mean. With |U3| < t the
  /// round degrades instead and nullopt is returned.
  std::optional<std::vector<float>> unmask(
      std::span<const comm::GatherUpdate> uploads);

  /// Marks the round degraded (model unchanged) for `reason`.
  void degrade(SecaggDegradeReason reason) { reason_ = reason; }
  bool degraded() const { return reason_ != SecaggDegradeReason::kNone; }

  /// Copies the outcome into `m`; counts it in secure_agg.*, and for a
  /// degraded round records secagg.degraded and dumps the flight ring.
  void report(RoundMetrics& m) const;

 private:
  std::uint32_t round_ = 0;
  std::vector<std::uint32_t> cohort_;
  std::size_t threshold_ = 0;
  bool weighted_ = true;
  std::uint64_t round_seed_ = 0;
  dp::SecureAggServer server_;
  std::vector<std::unique_ptr<dp::SecureAggClient>> clients_;
  std::vector<comm::Message> held_;
  std::vector<std::uint32_t> u2_;
  bool shares_short_ = false;
  std::uint64_t reconstructions_ = 0;
  SecaggDegradeReason reason_ = SecaggDegradeReason::kNone;
};

}  // namespace appfl::core
