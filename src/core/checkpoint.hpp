// Checkpointing: persist training state to disk and restore it later.
//
// Two layers live here:
//
//  * The legacy v1 `Checkpoint` — a final trained model plus provenance,
//    the deploy artifact a framework user keeps after a long run. The file
//    format reuses the protolite wire encoding, so the same parser that
//    guards the network guards the disk.
//
//  * The v2 `RoundCheckpoint` — a *resumable* snapshot taken at a round
//    boundary, carrying everything a killed process needs to continue the
//    run to a bit-identical result: global parameters, server-optimizer
//    state (FedOpt moments), per-client ADMM primal/dual replicas, data-
//    loader epoch counters, the client-sampler RNG state, DP budget spent,
//    fault-plane link counters, and the simulated clock. v2 payloads are
//    sealed in the comm plane's CRC32 envelope (comm/envelope.hpp), so disk
//    corruption is detected exactly like wire corruption.
//
// Persistence of v2 snapshots is crash-consistent via `CheckpointStore`:
// write-to-temp + flush + fsync + atomic rename into a two-slot A/B layout,
// so a crash at ANY instant — including mid-save — always leaves the newest
// previously-completed checkpoint loadable. Recovery scans both slots,
// loads the newest valid one and quarantines torn/corrupt slots with a
// counted diagnostic instead of throwing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"

namespace appfl::core {

struct Checkpoint {
  std::uint32_t format_version = 1;
  std::string algorithm;          // e.g. "IIADMM"
  std::string dataset;            // e.g. "mnist-like"
  std::string model;              // e.g. "mlp" — architecture provenance
  std::uint32_t rounds_completed = 0;
  double final_accuracy = 0.0;
  std::vector<float> parameters;  // flat global model

  bool operator==(const Checkpoint&) const = default;
};

/// Serializes to protolite bytes (exposed for tests).
std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& ckpt);

/// Parses protolite bytes; throws appfl::Error on malformed input or an
/// unsupported format version.
Checkpoint decode_checkpoint(std::span<const std::uint8_t> bytes);

/// Writes the checkpoint to `path`. Crash-consistent: the bytes land in a
/// temporary file first and are atomically renamed over `path`, so a crash
/// mid-write can never destroy a previous good checkpoint. Throws on I/O
/// failure.
void save_checkpoint(const std::string& path, const Checkpoint& ckpt);

/// Reads a checkpoint from `path`. Throws on I/O failure or bad content.
Checkpoint load_checkpoint(const std::string& path);

// ---------------------------------------------------------------------------
// v2: resumable round checkpoints.
// ---------------------------------------------------------------------------

/// Per-client resumable state. The algorithm-specific vectors are filled by
/// BaseClient::export_state overrides (empty when the algorithm keeps no
/// such state client-side).
struct ClientStateCkpt {
  std::uint32_t id = 0;            // 1-based endpoint id
  std::uint64_t loader_epochs = 0; // DataLoader epochs consumed so far
  std::vector<float> primal;       // ICEADMM's persistent local z_p
  std::vector<float> dual;         // ADMM family's persistent local λ_p
  double dp_spent = 0.0;           // cumulative ε spent by this client

  bool operator==(const ClientStateCkpt&) const = default;
};

/// Server-side resumable state; filled by BaseServer::export_state
/// overrides. `kind` names the exporting server ("fedavg", "iceadmm",
/// "iiadmm", "fedopt") and is cross-checked on import so a checkpoint never
/// restores into the wrong algorithm.
struct ServerStateCkpt {
  std::string kind;
  double rho = 0.0;                          // ρ^t in force (adaptive-ρ)
  std::vector<std::vector<float>> primal;    // per-client z_p replicas
  std::vector<std::vector<float>> dual;      // per-client λ_p replicas
  std::vector<std::uint64_t> sample_counts;  // FedAvg I_p
  std::vector<std::uint64_t> participants;   // FedAvg last responders
  std::vector<float> opt_w;                  // FedOpt server-held w
  std::vector<float> opt_m;                  // FedOpt first moment
  std::vector<float> opt_v;                  // FedOpt second moment

  bool operator==(const ServerStateCkpt&) const = default;
};

/// A full resumable snapshot at a synchronous round boundary.
struct RoundCheckpoint {
  std::uint32_t format_version = 2;
  std::string algorithm;           // to_string(config.algorithm), diagnostic
  std::uint64_t seed = 0;          // run fingerprint ↓ — checked on resume
  std::uint32_t num_clients = 0;
  std::uint64_t param_count = 0;
  std::uint32_t total_rounds = 0;  // lr schedules depend on T, so T must match
  std::uint32_t rounds_completed = 0;
  std::vector<float> parameters;   // the round's broadcast w (inspection)
  ServerStateCkpt server;
  std::vector<ClientStateCkpt> clients;
  std::array<std::uint64_t, 4> sampler_state{};  // client-sampling stream
  /// Comm-plane state. Residuals are encoded as (id, values) pairs so
  /// pre-int8 decoders skip them as unknown fields — format_version stays 2.
  comm::CommState comm;

  // Population-engine extension (core/event_engine). All encoded as optional
  // tags that pre-population decoders skip as unknown fields, so
  // format_version stays 2. `population == 0` means a classic sync-runner
  // checkpoint. Clients in a population run are transient (rebuilt per
  // participation), so `clients` stays empty there; per-client DP spend is
  // carried by `participation` (id → rounds participated) instead.
  std::uint64_t population = 0;
  std::uint32_t participants_per_round = 0;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> participation;

  bool operator==(const RoundCheckpoint&) const = default;
};

/// A resumable snapshot at an asynchronous update boundary (run_async).
struct AsyncCheckpoint {
  std::uint32_t format_version = 2;
  std::uint64_t seed = 0;
  std::uint32_t num_clients = 0;
  std::uint64_t param_count = 0;
  std::uint64_t total_updates = 0;
  std::uint64_t applied_updates = 0;
  std::uint64_t version = 0;           // server model version
  std::uint64_t dispatch_counter = 0;
  double staleness_sum = 0.0;
  double sim_seconds = 0.0;
  std::vector<float> w;                // server-held global model
  std::array<std::uint64_t, 4> jitter_state{};
  struct Pending {
    double finish_time = 0.0;
    std::uint32_t client = 0;          // 1-based
    std::uint64_t version = 0;         // version the client trained on
    bool operator==(const Pending&) const = default;
  };
  std::vector<Pending> queue;          // in-flight dispatches
  std::vector<std::vector<float>> in_flight;  // payloads computed at dispatch
  std::vector<ClientStateCkpt> clients;

  // Strategy-resumable state. All encoded as optional tags that pre-strategy
  // decoders skip as unknown fields, so format_version stays 2. An empty
  // `strategy` means a legacy checkpoint: FedAsync with polynomial weighting
  // (the only scheme that existed when those files were written).
  std::string strategy;                // "fedasync"|"fedbuff"|"fedcompass"|
                                       // "iiadmm"; cross-checked on resume
  std::vector<std::vector<float>> buffer;  // FedBuff: buffered deltas
  std::vector<float> buffer_weights;       // FedBuff: α_s per buffered delta
  std::vector<std::uint64_t> assigned_steps;  // FedCompass per-client steps
  std::uint64_t dropped_updates = 0;   // fault-plane ledger
  std::array<std::uint64_t, 4> fault_rng{};   // drop stream; all-zero = unused
  std::vector<std::vector<float>> server_primal;  // IIADMM z_p replicas
  std::vector<std::vector<float>> server_dual;    // IIADMM λ_p replicas
  std::vector<std::vector<float>> w_sent;  // IIADMM per-client broadcast w

  bool operator==(const AsyncCheckpoint&) const = default;
};

/// Serializes to protolite bytes sealed in the CRC32 envelope. decode_*
/// throws appfl::Error on a bad checksum, malformed body, a flavor
/// mismatch (sync vs async), or an unsupported format version — never
/// crashes (fuzzed in tests/test_fuzz.cpp).
std::vector<std::uint8_t> encode_round_checkpoint(const RoundCheckpoint& ckpt);
RoundCheckpoint decode_round_checkpoint(std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> encode_async_checkpoint(const AsyncCheckpoint& ckpt);
AsyncCheckpoint decode_async_checkpoint(std::span<const std::uint8_t> bytes);

/// Crash-consistent two-slot (A/B) checkpoint directory.
///
/// save() alternates between the slots, always overwriting the OLDER one,
/// via temp file + flush + fsync + atomic rename — so at every instant at
/// least one slot holds a complete previously-saved checkpoint. load_latest()
/// scans both slots and returns the newest valid payload; slots that are
/// torn, truncated, checksum-damaged, or rejected by the caller's validator
/// are renamed to `<slot>.quarantined` and counted in report(), never fatal.
class CheckpointStore {
 public:
  /// Opaque payload validator (e.g. "does this decode as a RoundCheckpoint
  /// for my run"). Must return false — not throw — to reject.
  using Validator = std::function<bool(std::span<const std::uint8_t>)>;

  struct Loaded {
    std::vector<std::uint8_t> payload;
    std::uint64_t sequence = 0;
    std::string slot;  // filename the payload came from
  };

  struct Report {
    std::size_t corrupt_quarantined = 0;
    std::vector<std::string> diagnostics;
  };

  /// Creates `dir` if missing and scans existing slots to decide which one
  /// the next save overwrites. Throws appfl::Error if the directory cannot
  /// be created.
  explicit CheckpointStore(std::string dir);

  /// Persists `payload` under monotonically increasing `sequence` (the
  /// round / update counter). Throws appfl::Error on I/O failure; on any
  /// failure or crash the previously saved slot remains intact.
  void save(std::span<const std::uint8_t> payload, std::uint64_t sequence);

  /// Newest valid slot's payload, or nullopt when no slot is loadable.
  /// Invalid slots are quarantined and counted in report(). The validator
  /// sees each slot's payload in the very buffer Loaded::payload then owns,
  /// so a caller can match what it validated to what was loaded.
  std::optional<Loaded> load_latest(const Validator& valid = nullptr);

  const Report& report() const { return report_; }
  const std::string& dir() const { return dir_; }

  static constexpr const char* kSlotA = "slot_a.ckpt";
  static constexpr const char* kSlotB = "slot_b.ckpt";

 private:
  struct Slot {
    bool present = false;
    bool valid = false;
    std::uint64_t sequence = 0;
    std::vector<std::uint8_t> payload;
    std::string why;  // diagnostic when invalid
  };
  Slot read_slot(const char* name, const Validator& valid) const;
  void quarantine(const char* name, const std::string& why);

  std::string dir_;
  Report report_;
  int write_slot_ = 0;  // 0 ⇒ kSlotA next, 1 ⇒ kSlotB next
};

/// Typed convenience wrappers over CheckpointStore.
void save_round_checkpoint(CheckpointStore& store, const RoundCheckpoint& ckpt);
std::optional<RoundCheckpoint> load_latest_round_checkpoint(
    CheckpointStore& store);
void save_async_checkpoint(CheckpointStore& store, const AsyncCheckpoint& ckpt);
std::optional<AsyncCheckpoint> load_latest_async_checkpoint(
    CheckpointStore& store);

/// The restore step every resuming runner shares. Loads the newest
/// checkpoint under `resume_from`: through `save_store` when it is open on
/// that same directory (so the next save overwrites the slot that was NOT
/// loaded), else through a store opened on `resume_from`. Prints each
/// recovery diagnostic (a torn or corrupt slot quarantined on the way) to
/// stderr as "warning: checkpoint recovery: ...", records the ckpt.restore
/// flight event, and throws appfl::Error when no checkpoint loads.
RoundCheckpoint resume_round_checkpoint(
    const std::string& resume_from, std::optional<CheckpointStore>& save_store);
AsyncCheckpoint resume_async_checkpoint(
    const std::string& resume_from, std::optional<CheckpointStore>& save_store);

}  // namespace appfl::core
