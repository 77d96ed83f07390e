// Communicator: the protocol layer the FL server and clients talk through.
//
// One object serves both roles of a star topology (endpoint 0 = server,
// 1..P = clients), mirroring the paper's client-server architecture (§II).
// Protocol selection changes three real things:
//   • the wire encoding (raw/RDMA-style for MPI, protolite/protobuf for gRPC),
//   • the bytes accounted on each link,
//   • the cost model advancing simulated communication time.
// Every payload is genuinely encoded by the sender and decoded by the
// receiver through an in-process mailbox network.
//
// Fault tolerance: when the ReliabilityConfig's fault injector is enabled,
// payloads are CRC-framed (comm/envelope.hpp), uplinks retransmit with
// capped exponential backoff, and gather_locals drains against a sim-clock
// deadline, returning whatever arrived. With the injector off every one of
// those paths is bypassed — wire bytes and timing stay bit-identical to the
// fault-free communicator.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string_view>
#include <vector>

#include "comm/buffer_pool.hpp"
#include "comm/cost_model.hpp"
#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "comm/sim_clock.hpp"

namespace appfl::comm {

enum class Protocol { kMpi, kGrpc };

std::string to_string(Protocol p);

/// Optional lossy compression of client→server updates, applied INSIDE the
/// communicator (algorithms never see packed payloads). Only sound for
/// primal-only algorithms without server-side state replicas
/// (FedAvg/FedProx) — core::RunConfig::validate enforces that.
enum class UplinkCodec : std::uint8_t {
  kNone = 0,
  kQuant8 = 1,  // 8-bit block quantization of the update (≈4× fewer bytes)
  kTopK = 2,    // top-k of (z − w) vs the round's broadcast (k = f·m)
  kFp16 = 3,    // IEEE binary16 payload (2× fewer bytes, ≤2⁻¹¹ rel. error)
  // int8 + error feedback: symmetric int8 quantization of (z − w) plus the
  // client's residual from previous rounds, Rice-entropy-coded (compression
  // doc comment on encode_int8). The residual carries the quantization error
  // forward so it is corrected, not lost — the classic EF-SGD trick.
  kInt8Ef = 4,
};

std::string to_string(UplinkCodec codec);

/// Parses a to_string name (none | fp16 | quant8 | topk | int8); nullopt on
/// anything else.
std::optional<UplinkCodec> parse_uplink_codec(std::string_view name);

struct CodecConfig {
  UplinkCodec codec = UplinkCodec::kNone;
  double topk_fraction = 0.1;  // fraction of coordinates kTopK keeps
  /// kInt8Ef clipping range for the quantizer input (delta + residual),
  /// derived from the DP sensitivity bound when clipping is on — the same
  /// per-round update bound DP accounting relies on caps every outlier's
  /// quantization step. 0 = fully adaptive per-block ranges.
  double int8_range = 0.0;
};

/// Fault-tolerance knobs. The fault plane is active iff faults.enabled().
struct ReliabilityConfig {
  FaultConfig faults;
  /// Sim-seconds the server waits in gather_locals before proceeding with
  /// whatever arrived. Also the client's effective ack horizon: an uplink
  /// landing later than this is reported as undelivered to the sender.
  double gather_timeout_s = 30.0;
  /// Base retransmit backoff (sim-seconds); doubles per retry up to the cap.
  double ack_timeout_s = 0.25;
  double backoff_cap_s = 4.0;
  /// Retransmissions attempted after the first send of an update.
  std::size_t max_retries = 4;
  /// Per-mailbox high-water mark (queued datagrams); 0 = unbounded. Pushes
  /// beyond the mark are rejected and counted in
  /// TrafficStats::mailbox_overflows — a guardrail against unbounded
  /// std::deque growth under misconfigured fan-in, not a scheduling device.
  std::size_t mailbox_capacity = 0;
};

/// Byte/message counters, split by direction, plus fault-plane counters
/// (all zero in a fault-free run).
struct TrafficStats {
  std::uint64_t messages_up = 0;
  std::uint64_t messages_down = 0;
  std::uint64_t bytes_up = 0;    // client → server (retransmissions included)
  std::uint64_t bytes_down = 0;  // server → client
  /// Bytes the same uplink traffic would have cost with the codec off —
  /// pre-codec encoded size per send attempt, envelope included. Equals
  /// bytes_up when no codec is active; the gap is the codec's wire saving.
  std::uint64_t bytes_up_precodec = 0;

  std::uint64_t drops = 0;        // messages lost in flight (either direction)
  std::uint64_t duplicates = 0;   // duplicate deliveries injected
  std::uint64_t reorders = 0;     // deliveries that jumped the queue
  std::uint64_t corruptions = 0;  // payloads damaged in flight
  std::uint64_t delays = 0;       // deliveries given extra latency
  std::uint64_t retries = 0;        // client retransmission attempts
  std::uint64_t crc_failures = 0;   // corrupted envelopes caught at decode
  std::uint64_t discards = 0;       // duplicate/stale/malformed discards
  std::uint64_t gather_timeouts = 0;  // gathers that hit the deadline short
  std::uint64_t mailbox_overflows = 0;  // datagrams rejected by the high-water
                                        // mark (ReliabilityConfig::
                                        // mailbox_capacity)

  std::uint64_t total_bytes() const { return bytes_up + bytes_down; }

  bool operator==(const TrafficStats&) const = default;
};

/// Per-round simulated communication times.
struct RoundCommRecord {
  std::uint32_t round = 0;
  double broadcast_s = 0.0;
  double gather_s = 0.0;
  /// gRPC only: each client's upload transfer time this round (Fig 4b).
  std::vector<double> client_transfer_s;

  double total_s() const { return broadcast_s + gather_s; }
};

/// One gathered client update whose float payloads are still wire-resident
/// (or codec-materialized) — the fused decode→aggregate handoff. Header
/// fields are owned; `primal`/`dual` borrow from buffers the owning
/// GatherBatch keeps alive.
struct GatherUpdate {
  std::uint32_t sender = 0;
  std::uint32_t receiver = 0;
  std::uint32_t round = 0;
  std::uint64_t sample_count = 0;
  double loss = 0.0;
  double rho = 0.0;
  /// Sender-side span id that rode in on the message (0 = none): lets
  /// server-side spans link back to the originating client span.
  std::uint64_t trace_span = 0;
  WirePayload primal;
  WirePayload dual;
};

/// The result of Communicator::gather_batch: validated updates ordered by
/// client id, each payload readable exactly where it landed. Raw and fp16
/// payloads point into the retained wire datagrams (zero copies); codec
/// payloads that need real decoding (quant8/topk/int8) point into
/// batch-owned float vectors. Buffers return to the communicator's pool
/// when the batch is destroyed — destroy it before the next broadcast so
/// they recycle.
class GatherBatch {
 public:
  GatherBatch() = default;
  ~GatherBatch();
  GatherBatch(GatherBatch&&) noexcept = default;
  GatherBatch& operator=(GatherBatch&&) noexcept;
  GatherBatch(const GatherBatch&) = delete;
  GatherBatch& operator=(const GatherBatch&) = delete;

  std::span<const GatherUpdate> updates() const { return updates_; }
  std::size_t size() const { return updates_.size(); }
  bool empty() const { return updates_.empty(); }

  /// Materializes owning Messages, bit-identical to what gather_locals
  /// returns for the same traffic — the unfused fallback and the reference
  /// the fused path is tested against.
  std::vector<Message> take_messages() const;

 private:
  friend class Communicator;
  void release_buffers();

  std::vector<GatherUpdate> updates_;
  /// Retained wire datagrams the zero-copy payloads point into. Each buffer
  /// is heap storage owned by a unique_ptr, so growing the outer vector
  /// never moves the bytes a WirePayload borrowed.
  std::vector<std::unique_ptr<std::vector<std::uint8_t>>> buffers_;
  /// Codec-materialized float storage (quant8/topk/int8 payloads).
  std::vector<std::unique_ptr<std::vector<float>>> decoded_;
  BufferPool* pool_ = nullptr;
};

class Communicator {
 public:
  /// `seed` drives the gRPC jitter stream (deterministic per round/client)
  /// and, when enabled, the fault-injection schedule.
  Communicator(Protocol protocol, std::size_t num_clients, std::uint64_t seed,
               CodecConfig codec = {}, ReliabilityConfig reliability = {});

  Protocol protocol() const { return protocol_; }
  std::size_t num_clients() const { return num_clients_; }
  bool fault_plane_active() const { return network_.faults_enabled(); }

  // -- Server role -------------------------------------------------------------

  /// Encodes `m` once per recipient and delivers it. `participants` empty ⇒
  /// all clients (full participation); otherwise only the listed client ids
  /// receive the broadcast (partial participation / client sampling).
  /// Advances simulated time by the protocol's broadcast cost. Under fault
  /// injection individual downlinks may be lost (counted, not retried —
  /// the affected client simply sits the round out).
  void broadcast_global(const Message& m,
                        std::span<const std::uint32_t> participants = {});

  /// Gathers local updates for `round` (0 ⇒ one from every client),
  /// advances simulated time, and appends a RoundCommRecord. Duplicate,
  /// stale-round, and malformed messages are discarded and counted, never
  /// fatal. Fault plane off: blocks until `expected` valid updates arrive
  /// (pre-fault behavior) — but if a discard has consumed a datagram and
  /// the mailbox runs dry short of `expected`, the missing update can never
  /// be replaced, so the caller bug is diagnosed with an appfl::Error
  /// instead of deadlocking. Fault plane on: drains against a sim-clock
  /// deadline of reliability.gather_timeout_s and returns whatever made it
  /// (possibly fewer than `expected`; a short return bumps gather_timeouts).
  /// Updates are returned ordered by client id.
  std::vector<Message> gather_locals(std::uint32_t round,
                                     std::size_t expected = 0);

  /// gather_locals' zero-copy sibling: identical draining, validation,
  /// accounting, and timing, but the returned batch keeps each update's
  /// float payload where it already is (wire buffer or codec decode) for
  /// the fused decode→aggregate data path. gather_locals is implemented as
  /// gather_batch(...).take_messages().
  GatherBatch gather_batch(std::uint32_t round, std::size_t expected = 0);

  /// Gathers the round's kSecAggShares packets (secure-aggregation share
  /// distribution). Same draining/validation/deadline rules as
  /// gather_batch, but it does NOT append a RoundCommRecord — the round's
  /// comm record still comes from the masked-update gather; the wait time
  /// advances the simulated clock directly. Returns the packets ordered by
  /// sender (primal carries the packed share bytes). Requires the fault
  /// plane's deadline machinery or full delivery (fault-free path blocks
  /// until `expected` arrive).
  std::vector<Message> gather_secagg_shares(std::uint32_t round,
                                            std::size_t expected = 0);

  // -- Client role -------------------------------------------------------------

  /// Client `client` (1..P) sends its update to the server. Returns true
  /// when the update will be seen by this round's gather. Under fault
  /// injection a dropped — or corrupted, since the server CRC-discards the
  /// damaged frame and so never acks it — uplink is retransmitted with
  /// capped exponential backoff (each attempt's bytes are accounted); false
  /// means the update was lost after all retries or landed past the gather
  /// deadline.
  bool send_update(std::uint32_t client, const Message& m);

  /// Client `client` receives the current global model (blocking; fault-free
  /// path only — under fault injection use try_recv_global).
  Message recv_global(std::uint32_t client);

  /// Non-blocking receive of the round-`round` broadcast. Stale or
  /// corrupted downlink traffic is discarded and counted; nullopt means the
  /// broadcast was lost or is still in flight — the client sits out.
  std::optional<Message> try_recv_global(std::uint32_t client,
                                         std::uint32_t round);

  // -- Accounting ----------------------------------------------------------------

  /// Aggregated traffic + fault counters (injector counters folded in).
  TrafficStats stats() const;
  const std::vector<RoundCommRecord>& round_log() const { return round_log_; }
  const SimClock& clock() const { return clock_; }

  /// The uplink codec in force — the negotiation record both endpoints
  /// honor. On the wire the agreement travels per message as Message.codec
  /// (inside the CRC frame), so a receiver never guesses the encoding.
  UplinkCodec negotiated_codec() const { return codec_.codec; }

  /// Encode-buffer recycling counters (see comm/buffer_pool.hpp).
  BufferPool::Stats pool_stats() const { return pool_.stats(); }

  /// Per-client uplink fault attribution (index = client − 1): retransmit
  /// attempts beyond the first send and corrupted deliveries, as observed
  /// by send_update. Feeds the per-client health ledger; all zeros when the
  /// fault plane is off.
  struct UplinkHealth {
    std::uint64_t retransmits = 0;
    std::uint64_t corrupt = 0;
  };
  std::vector<UplinkHealth> uplink_health() const;

  /// Resumable snapshot of the comm plane: the simulated clock, the
  /// composed traffic/fault ledger, and the fault injector's per-link
  /// sequence counters. Restoring it on a fresh Communicator (same
  /// protocol/seed/config) continues the simulated timeline and fault
  /// schedule exactly where the snapshot left off.
  struct PersistentState {
    double sim_now = 0.0;
    TrafficStats stats;
    std::vector<std::uint64_t> link_keys;
    std::vector<std::uint64_t> link_seqs;
    /// Per-client kInt8Ef error-feedback residuals (index = client − 1,
    /// empty vectors when unused). Losing these across a restart would
    /// silently drop the quantization error they carry, so they ride in
    /// every checkpoint.
    std::vector<std::vector<float>> ef_residuals;
  };
  PersistentState persistent_state() const;
  void restore_persistent_state(const PersistentState& s);

 private:
  /// Appends the encoded (and, fault plane on, CRC-framed) message to `out`
  /// — the pooled zero-realloc encode. `out` is cleared first; its capacity
  /// is what pooling recycles.
  void encode_into(const Message& m, std::vector<std::uint8_t>& out) const;
  Message decode(std::span<const std::uint8_t> bytes) const;
  /// Zero-copy decode of one datagram: verifies the CRC frame (fault plane
  /// only) and parses a view whose float payloads still live in `bytes`.
  /// Fault plane off, malformed bytes throw (caller bug, pre-fault
  /// behavior); fault plane on, damage is counted as a crc_failure and
  /// nullopt returned. The view borrows from `bytes`.
  std::optional<MessageView> decode_frame_view(
      std::span<const std::uint8_t> bytes);

  /// Packs m.primal into m.packed per the configured codec (send side).
  /// Non-const: kInt8Ef updates the sending client's error-feedback
  /// residual (its own slot, so concurrent senders never contend).
  void compress_update(Message& m);
  /// Restores m.primal from m.packed (gather side).
  void decompress_update(Message& m) const;
  /// Decodes one codec payload into the primal it represents (delta codecs
  /// add the broadcast reference back) — shared by decompress_update and
  /// the batch gather.
  std::vector<float> decode_packed(std::uint8_t codec,
                                   std::span<const std::uint8_t> packed) const;

  Protocol protocol_;
  std::size_t num_clients_;
  std::uint64_t seed_;
  CodecConfig codec_;
  ReliabilityConfig reliability_;
  InProcNetwork network_;
  /// Recycles wire buffers end to end: encode acquires, the mailbox carries
  /// the buffer as the datagram payload, the receiver releases after decode.
  mutable BufferPool pool_;
  MpiCostModel mpi_model_;
  GrpcCostModel grpc_model_;
  mutable std::mutex stats_mutex_;  // clients send concurrently
  TrafficStats stats_;
  std::vector<UplinkHealth> uplink_health_;  // slot per client
  std::vector<RoundCommRecord> round_log_;
  SimClock clock_;
  double pending_broadcast_s_ = 0.0;
  /// Reference for kTopK/kInt8Ef deltas.
  std::vector<float> last_broadcast_primal_;
  /// kInt8Ef error-feedback residuals, one slot per client (index =
  /// client − 1). Disjoint slots: concurrent send_update calls are safe.
  std::vector<std::vector<float>> ef_residual_;
};

}  // namespace appfl::comm
