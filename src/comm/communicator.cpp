#include "comm/communicator.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "comm/compression.hpp"
#include "comm/envelope.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/check.hpp"

namespace appfl::comm {

std::string to_string(Protocol p) {
  return p == Protocol::kMpi ? "MPI" : "gRPC";
}

std::string to_string(UplinkCodec codec) {
  switch (codec) {
    case UplinkCodec::kNone: return "none";
    case UplinkCodec::kQuant8: return "quant8";
    case UplinkCodec::kTopK: return "topk";
    case UplinkCodec::kFp16: return "fp16";
    case UplinkCodec::kInt8Ef: return "int8";
  }
  return "?";
}

std::optional<UplinkCodec> parse_uplink_codec(std::string_view name) {
  for (const UplinkCodec c : {UplinkCodec::kNone, UplinkCodec::kFp16,
                              UplinkCodec::kQuant8, UplinkCodec::kTopK,
                              UplinkCodec::kInt8Ef}) {
    if (name == to_string(c)) return c;
  }
  return std::nullopt;
}

namespace {
constexpr std::uint64_t kFaultNetStream = 0xFE;

// Registry handles for the comm data path, resolved once per process
// (registration locks; updates afterwards are sharded relaxed atomics).
// Every use is guarded by obs::metrics_on(), and the counters mirror — never
// replace — TrafficStats: the stats struct stays the checkpointed source of
// truth, the registry gives the live-export view.
struct CommInstruments {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  obs::Counter& messages_up = reg.counter("comm.messages_up");
  obs::Counter& messages_down = reg.counter("comm.messages_down");
  obs::Counter& bytes_up = reg.counter("comm.bytes_up");
  obs::Counter& bytes_down = reg.counter("comm.bytes_down");
  obs::Counter& bytes_up_precodec = reg.counter("comm.bytes_up_precodec");
  obs::Counter& retries = reg.counter("comm.retries");
  obs::Counter& crc_failures = reg.counter("comm.crc_failures");
  obs::Counter& discards = reg.counter("comm.discards");
  obs::Counter& gather_timeouts = reg.counter("comm.gather_timeouts");
  obs::Histogram& encode_s = reg.histogram("comm.encode_s", 1e-7, 1.0, 32);
  obs::Histogram& decode_s = reg.histogram("comm.decode_s", 1e-7, 1.0, 32);
  obs::Histogram& uplink_sim_transfer_s =
      reg.histogram("comm.uplink.sim_transfer_s", 1e-6, 100.0, 40);
};

CommInstruments& instruments() {
  static CommInstruments* in = new CommInstruments();  // never destroyed
  return *in;
}
}  // namespace

Communicator::Communicator(Protocol protocol, std::size_t num_clients,
                           std::uint64_t seed, CodecConfig codec,
                           ReliabilityConfig reliability)
    : protocol_(protocol),
      num_clients_(num_clients),
      seed_(seed),
      codec_(codec),
      reliability_(std::move(reliability)),
      network_(num_clients + 1, reliability_.faults,
               rng::derive_seed(seed, {kFaultNetStream}),
               reliability_.mailbox_capacity) {
  APPFL_CHECK_MSG(num_clients >= 1, "need at least one client");
  APPFL_CHECK(codec_.topk_fraction > 0.0 && codec_.topk_fraction <= 1.0);
  APPFL_CHECK_MSG(codec_.int8_range >= 0.0,
                  "int8 clip range must be non-negative");
  ef_residual_.resize(num_clients_);
  uplink_health_.resize(num_clients_);
  APPFL_CHECK_MSG(reliability_.gather_timeout_s > 0.0,
                  "gather deadline must be positive");
  APPFL_CHECK_MSG(reliability_.ack_timeout_s > 0.0 &&
                      reliability_.backoff_cap_s >= reliability_.ack_timeout_s,
                  "retransmit backoff must be positive and capped above the "
                  "base timeout");
}

void Communicator::compress_update(Message& m) {
  if (codec_.codec == UplinkCodec::kNone ||
      m.kind != MessageKind::kLocalUpdate || m.primal.empty()) {
    return;
  }
  APPFL_CHECK_MSG(m.dual.empty(),
                  "uplink codecs are lossy and cannot carry dual state");
  if (codec_.codec == UplinkCodec::kFp16) {
    m.packed = encode_fp16(m.primal);
  } else if (codec_.codec == UplinkCodec::kQuant8) {
    m.packed = encode_quantized8(quantize8(m.primal));
  } else if (codec_.codec == UplinkCodec::kTopK) {
    APPFL_CHECK_MSG(last_broadcast_primal_.size() == m.primal.size(),
                    "kTopK needs a matching broadcast to delta against");
    std::vector<float> delta = m.primal;
    for (std::size_t i = 0; i < delta.size(); ++i) {
      delta[i] -= last_broadcast_primal_[i];
    }
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(codec_.topk_fraction *
                         static_cast<double>(delta.size()))));
    m.packed = encode_topk(sparsify_topk(delta, k));
  } else {
    // kInt8Ef: quantize (delta + carried residual), keep the new
    // quantization error in the sender's residual slot so next round's
    // update corrects it. The server reconstructs dequantize(q) + w from
    // the same stored scales, bit-exactly.
    APPFL_CHECK_MSG(last_broadcast_primal_.size() == m.primal.size(),
                    "kInt8Ef needs a matching broadcast to delta against");
    APPFL_CHECK(m.sender >= 1 && m.sender <= num_clients_);
    std::vector<float>& residual = ef_residual_[m.sender - 1];
    if (residual.size() != m.primal.size()) {
      residual.assign(m.primal.size(), 0.0F);
    }
    std::vector<float> carried(m.primal.size());
    for (std::size_t i = 0; i < carried.size(); ++i) {
      carried[i] = (m.primal[i] - last_broadcast_primal_[i]) + residual[i];
    }
    const Int8Ef q =
        quantize_int8(carried, static_cast<float>(codec_.int8_range));
    const std::vector<float> recon = dequantize_int8(q);
    for (std::size_t i = 0; i < carried.size(); ++i) {
      residual[i] = carried[i] - recon[i];
    }
    m.packed = encode_int8(q);
  }
  m.codec = static_cast<std::uint8_t>(codec_.codec);
  m.primal.clear();
}

std::vector<float> Communicator::decode_packed(
    std::uint8_t codec, std::span<const std::uint8_t> packed) const {
  if (codec == static_cast<std::uint8_t>(UplinkCodec::kFp16)) {
    return decode_fp16(packed);
  }
  if (codec == static_cast<std::uint8_t>(UplinkCodec::kQuant8)) {
    return dequantize8(decode_quantized8(packed));
  }
  if (codec == static_cast<std::uint8_t>(UplinkCodec::kTopK)) {
    const TopK sparse = decode_topk(packed);
    APPFL_CHECK_MSG(sparse.size == last_broadcast_primal_.size(),
                    "top-k payload size does not match the broadcast model");
    std::vector<float> primal = densify(sparse);
    for (std::size_t i = 0; i < primal.size(); ++i) {
      primal[i] += last_broadcast_primal_[i];
    }
    return primal;
  }
  if (codec == static_cast<std::uint8_t>(UplinkCodec::kInt8Ef)) {
    const Int8Ef q = decode_int8(packed);
    APPFL_CHECK_MSG(q.size == last_broadcast_primal_.size(),
                    "int8 payload size does not match the broadcast model");
    std::vector<float> primal = dequantize_int8(q);
    for (std::size_t i = 0; i < primal.size(); ++i) {
      primal[i] += last_broadcast_primal_[i];
    }
    return primal;
  }
  APPFL_CHECK_MSG(false, "unknown uplink codec " << int{codec});
  return {};
}

void Communicator::decompress_update(Message& m) const {
  if (m.codec == 0) return;
  APPFL_CHECK_MSG(m.primal.empty(), "packed update also carries raw primal");
  m.primal = decode_packed(m.codec, m.packed);
  m.codec = 0;
  m.packed.clear();
}

void Communicator::encode_into(const Message& m,
                               std::vector<std::uint8_t>& out) const {
  const bool timed = obs::metrics_on();
  const double t0 = timed ? obs::Tracer::global().now() : 0.0;
  out.clear();
  // The CRC frame exists to catch injected corruption; without the injector
  // it is skipped so the wire bytes match the fault-free format exactly.
  const bool framed = network_.faults_enabled();
  if (framed) out.resize(kEnvelopeOverhead);  // header placeholder
  if (protocol_ == Protocol::kMpi) {
    encode_raw_append(m, out);
  } else {
    encode_proto_append(m, out);
  }
  if (framed) seal_envelope_in_place(out);
  if (timed) instruments().encode_s.record(obs::Tracer::global().now() - t0);
}

Message Communicator::decode(std::span<const std::uint8_t> bytes) const {
  const bool timed = obs::metrics_on();
  const double t0 = timed ? obs::Tracer::global().now() : 0.0;
  Message m =
      protocol_ == Protocol::kMpi ? decode_raw(bytes) : decode_proto(bytes);
  if (timed) instruments().decode_s.record(obs::Tracer::global().now() - t0);
  return m;
}

std::optional<MessageView> Communicator::decode_frame_view(
    std::span<const std::uint8_t> bytes) {
  const bool timed = obs::metrics_on();
  const double t0 = timed ? obs::Tracer::global().now() : 0.0;
  const auto done = [&] {
    if (timed) instruments().decode_s.record(obs::Tracer::global().now() - t0);
  };
  if (!network_.faults_enabled()) {
    auto v = protocol_ == Protocol::kMpi ? decode_raw_view(bytes)
                                         : decode_proto_view(bytes);
    done();
    return v;
  }
  const auto payload = open_envelope(bytes);
  if (!payload) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.crc_failures;
    }
    if (timed) instruments().crc_failures.inc();
    done();
    return std::nullopt;
  }
  try {
    auto v = protocol_ == Protocol::kMpi ? decode_raw_view(*payload)
                                         : decode_proto_view(*payload);
    done();
    return v;
  } catch (const appfl::Error&) {
    // A CRC collision let damaged bytes through, or the payload was built
    // malformed; either way decoding must not take the process down.
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++stats_.crc_failures;
    }
    if (timed) instruments().crc_failures.inc();
    done();
    return std::nullopt;
  }
}

void Communicator::broadcast_global(
    const Message& m, std::span<const std::uint32_t> participants) {
  obs::ScopedSpan span("comm.broadcast", "comm");
  span.set_arg("round", m.round);
  APPFL_CHECK_MSG(m.sender == 0, "broadcast must originate at the server");
  std::vector<std::uint32_t> all;
  if (participants.empty()) {
    all.resize(num_clients_);
    for (std::uint32_t c = 1; c <= num_clients_; ++c) all[c - 1] = c;
    participants = all;
  }
  const double now = clock_.now();
  std::size_t bytes_each = 0;
  for (std::uint32_t c : participants) {
    APPFL_CHECK_MSG(c >= 1 && c <= num_clients_,
                    "broadcast to bad client id " << c);
    Message copy = m;
    copy.receiver = c;
    std::vector<std::uint8_t> bytes = pool_.acquire();
    encode_into(copy, bytes);
    bytes_each = bytes.size();
    stats_.bytes_down += bytes.size();
    ++stats_.messages_down;
    if (obs::metrics_on()) {
      instruments().bytes_down.add(bytes.size());
      instruments().messages_down.inc();
    }
    // Lost downlinks are not retried: the client misses the round and the
    // deadline gather treats it as a straggler.
    (void)network_.send(0, c, std::move(bytes), now);
  }
  last_broadcast_primal_ = m.primal;  // kTopK delta reference
  const std::size_t count = participants.size();
  if (protocol_ == Protocol::kMpi) {
    pending_broadcast_s_ = mpi_model_.broadcast_seconds(count, bytes_each);
  } else {
    // Downlink: the server pushes `count` responses through its streams.
    rng::Rng jitter(rng::derive_seed(seed_, {0xB0, m.round}));
    std::vector<double> times(count);
    for (auto& t : times) t = grpc_model_.transfer_seconds(bytes_each, jitter);
    pending_broadcast_s_ = grpc_model_.round_seconds(times);
  }
  span.set_sim(now, pending_broadcast_s_);
  clock_.advance(pending_broadcast_s_);
}

bool Communicator::send_update(std::uint32_t client, const Message& m) {
  obs::ScopedSpan span("comm.uplink.send", "comm");
  span.set_arg("client", client);
  APPFL_CHECK_MSG(client >= 1 && client <= num_clients_,
                  "bad client id " << client);
  APPFL_CHECK_MSG(m.sender == client, "sender field must match client id");
  Message outgoing = m;
  // Trace context rides the wire only when this span is live (obs=trace):
  // obs-off encodings stay byte-identical.
  if (outgoing.trace_span == 0) outgoing.trace_span = span.id();
  // What this update costs with the codec off — the exact encoded size of
  // the uncompressed message (no need to build those bytes), envelope
  // included. Accounted per send attempt so bytes_up_precodec / bytes_up is
  // the codec's true wire saving even under retransmission.
  const std::size_t precodec_bytes =
      (protocol_ == Protocol::kMpi ? raw_encoded_size(outgoing)
                                   : proto_encoded_size(outgoing)) +
      (network_.faults_enabled() ? kEnvelopeOverhead : 0);
  compress_update(outgoing);
  std::vector<std::uint8_t> bytes = pool_.acquire();
  encode_into(outgoing, bytes);
  const double now = clock_.now();
  if (!network_.faults_enabled()) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.bytes_up += bytes.size();
      stats_.bytes_up_precodec += precodec_bytes;
      ++stats_.messages_up;
    }
    if (obs::metrics_on()) {
      instruments().bytes_up.add(bytes.size());
      instruments().bytes_up_precodec.add(precodec_bytes);
      instruments().messages_up.inc();
    }
    (void)network_.send(client, 0, std::move(bytes), now);
    return true;
  }
  // Stop-and-wait retransmit: the client re-sends until the (free, assumed
  // reliable) ack arrives, backing off exponentially up to the cap. The ack
  // horizon is the gather deadline — a delivery past it will be discarded
  // server-side as stale, which the client observes as a missing ack.
  const double deadline = now + reliability_.gather_timeout_s;
  double backoff = 0.0;
  for (std::size_t attempt = 0;; ++attempt) {
    {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      stats_.bytes_up += bytes.size();
      stats_.bytes_up_precodec += precodec_bytes;
      ++stats_.messages_up;
      if (attempt > 0) {
        ++stats_.retries;
        ++uplink_health_[client - 1].retransmits;
      }
    }
    if (obs::metrics_on()) {
      instruments().bytes_up.add(bytes.size());
      instruments().bytes_up_precodec.add(precodec_bytes);
      instruments().messages_up.inc();
      if (attempt > 0) instruments().retries.inc();
    }
    const auto outcome = network_.send(client, 0, bytes, now + backoff);
    if (outcome.delivered && outcome.corrupted) {
      std::lock_guard<std::mutex> lock(stats_mutex_);
      ++uplink_health_[client - 1].corrupt;
    }
    // A corrupted delivery reaches the server but is CRC-discarded there,
    // so the receiver never acks it — to the sender it is a drop.
    if (outcome.delivered && !outcome.corrupted) {
      const bool in_time = outcome.deliver_at <= deadline;
      pool_.release(std::move(bytes));
      return in_time;
    }
    if (attempt >= reliability_.max_retries) {
      pool_.release(std::move(bytes));
      return false;
    }
    backoff += std::min(reliability_.backoff_cap_s,
                        reliability_.ack_timeout_s *
                            static_cast<double>(std::uint64_t{1} << attempt));
  }
}

Message Communicator::recv_global(std::uint32_t client) {
  APPFL_CHECK(client >= 1 && client <= num_clients_);
  Datagram d = network_.recv(client);
  APPFL_CHECK_MSG(d.from == 0, "client received a non-server message");
  Message m = decode(d.bytes);
  pool_.release(std::move(d.bytes));
  return m;
}

std::optional<Message> Communicator::try_recv_global(std::uint32_t client,
                                                     std::uint32_t round) {
  APPFL_CHECK(client >= 1 && client <= num_clients_);
  const double now = clock_.now();
  while (auto d = network_.try_recv_ready(client, now)) {
    if (d->from != 0) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.discards;
      }
      if (obs::metrics_on()) instruments().discards.inc();
      pool_.release(std::move(d->bytes));
      continue;
    }
    // Zero-copy peek: kind/round checks run on a view into the datagram;
    // only an accepted broadcast materializes its payload.
    std::optional<MessageView> v = decode_frame_view(d->bytes);
    if (v && v->kind == MessageKind::kGlobalModel && v->round == round) {
      Message m = v->detach();
      pool_.release(std::move(d->bytes));
      return m;
    }
    if (v) {
      // A broadcast from an earlier round that was delayed past its window.
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.discards;
      }
      if (obs::metrics_on()) instruments().discards.inc();
    }  // else: counted by decode_frame_view
    pool_.release(std::move(d->bytes));
  }
  return std::nullopt;
}

std::vector<Message> Communicator::gather_locals(std::uint32_t round,
                                                 std::size_t expected) {
  return gather_batch(round, expected).take_messages();
}

GatherBatch Communicator::gather_batch(std::uint32_t round,
                                       std::size_t expected) {
  obs::ScopedSpan span("comm.gather", "comm");
  span.set_arg("round", round);
  if (expected == 0) expected = num_clients_;
  APPFL_CHECK_MSG(expected <= num_clients_,
                  "cannot gather " << expected << " updates from "
                                   << num_clients_ << " clients");
  GatherBatch batch;
  batch.pool_ = &pool_;
  batch.updates_.reserve(expected);
  batch.buffers_.reserve(expected);
  std::vector<bool> seen(num_clients_ + 1, false);
  std::vector<std::size_t> upload_bytes;
  upload_bytes.reserve(expected);
  std::vector<std::uint32_t> upload_senders;
  upload_senders.reserve(expected);
  std::vector<std::uint64_t> upload_spans;  // sender-side trace context
  upload_spans.reserve(expected);

  // Validates one datagram: duplicates, stale rounds, unknown senders, and
  // damaged payloads are discarded and counted — never fatal. Validation
  // runs on a zero-copy view into the datagram, so a rejected message never
  // copies its (multi-MB) payload. An accepted datagram is retained by the
  // batch (its floats are read in place during fused aggregation); a
  // rejected one recycles into the pool immediately. Returns whether the
  // datagram was accepted into the gather.
  const auto consider = [&](Datagram& d) {
    bool accepted = false;
    std::optional<MessageView> v = decode_frame_view(d.bytes);
    if (!v) {
      // counted by decode_frame_view
    } else if (v->kind != MessageKind::kLocalUpdate || v->sender < 1 ||
               v->sender > num_clients_ || v->round != round ||
               seen[v->sender]) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.discards;
      }
      if (obs::metrics_on()) instruments().discards.inc();
    } else {
      GatherUpdate u;
      u.sender = v->sender;
      u.receiver = v->receiver;
      u.round = v->round;
      u.sample_count = v->sample_count;
      u.loss = v->loss;
      u.rho = v->rho;
      u.trace_span = v->trace_span;
      if (v->codec == 0) {
        // Raw floats: read them where they landed.
        u.primal = WirePayload::f32_bytes(v->primal.bytes(), v->primal.size());
        u.dual = WirePayload::f32_bytes(v->dual.bytes(), v->dual.size());
      } else {
        APPFL_CHECK_MSG(v->primal.empty(),
                        "packed update also carries raw primal");
        if (v->codec == static_cast<std::uint8_t>(UplinkCodec::kFp16)) {
          // fp16 stays packed: validate the frame exactly as decode_fp16
          // would, then aggregate straight from the half bytes (the
          // widening kernel is the same exact conversion).
          const std::span<const std::uint8_t> p = v->packed;
          APPFL_CHECK_MSG(p.size() >= 8, "truncated compressed payload");
          std::uint64_t count = 0;
          for (int i = 0; i < 8; ++i) count |= std::uint64_t{p[i]} << (8 * i);
          APPFL_CHECK_MSG(count <= (p.size() - 8) / 2,
                          "truncated fp16 payload");
          APPFL_CHECK_MSG(8 + 2 * count == p.size(),
                          "trailing bytes in fp16 payload");
          u.primal = WirePayload::f16_bytes(p.data() + 8, count);
        } else {
          // quant8/topk/int8 need real decoding; the result lives in the
          // batch so downstream aggregation still reads it exactly once.
          auto decoded = std::make_unique<std::vector<float>>(
              decode_packed(v->codec, v->packed));
          u.primal = WirePayload::f32(decoded->data(), decoded->size());
          batch.decoded_.push_back(std::move(decoded));
        }
      }
      seen[u.sender] = true;
      upload_bytes.push_back(d.bytes.size());
      upload_senders.push_back(u.sender);
      upload_spans.push_back(u.trace_span);
      batch.buffers_.push_back(
          std::make_unique<std::vector<std::uint8_t>>(std::move(d.bytes)));
      batch.updates_.push_back(u);
      accepted = true;
    }
    if (!accepted) pool_.release(std::move(d.bytes));
    return accepted;
  };
  auto& out = batch.updates_;

  const double start = clock_.now();
  double waited_s = 0.0;  // extra sim-time spent waiting on late deliveries
  if (!network_.faults_enabled()) {
    // Fault-free path: block until every expected update has arrived —
    // identical timing and byte accounting to the pre-fault communicator.
    // Discards are still tolerated (a caller may legitimately double-send),
    // but once one has consumed a datagram and the mailbox runs dry the
    // missing update can never be replaced: fail loudly instead of letting
    // the blocking recv turn a caller bug into a silent deadlock.
    std::size_t discarded = 0;
    while (out.size() < expected) {
      std::optional<Datagram> d = network_.try_recv(0);
      if (!d) {
        if (discarded > 0) {
          // Unfillable gather: a flight-recorder trigger — dump the black
          // box before the error unwinds (or takes the process down).
          obs::flight_record(
              "gather.unfillable",
              "{\"round\":" + std::to_string(round) +
                  ",\"discarded\":" + std::to_string(discarded) +
                  ",\"received\":" + std::to_string(out.size()) +
                  ",\"expected\":" + std::to_string(expected) + "}");
          obs::FlightRecorder::global().dump("unfillable-gather");
        }
        APPFL_CHECK_MSG(discarded == 0,
                        "gather(round " << round << ") would block forever: "
                            << discarded << " message(s) were discarded "
                            << "(stale round, duplicate sender, or bad kind) "
                            << "and only " << out.size() << " of " << expected
                            << " expected updates arrived");
        d = network_.recv(0);
      }
      if (!consider(*d)) ++discarded;
    }
  } else {
    // Deadline drain: consume everything deliverable "now", fast-forward to
    // the next scheduled delivery while it is within the deadline, and give
    // up on whoever is left once nothing more can arrive in time.
    const double deadline = start + reliability_.gather_timeout_s;
    double vt = start;
    while (out.size() < expected) {
      if (auto d = network_.try_recv_ready(0, vt)) {
        consider(*d);
        continue;
      }
      const double next = network_.next_deliver_at(0);
      if (next >= 0.0 && next <= deadline) {
        vt = std::max(vt, next);
        continue;
      }
      break;  // nothing else can make the deadline
    }
    if (out.size() < expected) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.gather_timeouts;
      }
      if (obs::metrics_on()) instruments().gather_timeouts.inc();
      vt = deadline;  // the server waited the round out
    }
    waited_s = vt - start;
  }
  std::sort(out.begin(), out.end(),
            [](const GatherUpdate& a, const GatherUpdate& b) {
              return a.sender < b.sender;
            });

  RoundCommRecord rec;
  rec.round = round;
  rec.broadcast_s = pending_broadcast_s_;
  pending_broadcast_s_ = 0.0;

  const std::size_t received = upload_bytes.size();
  double model_s = 0.0;
  if (protocol_ == Protocol::kMpi) {
    // MPI.gather with one rank per participant; the per-rank payload is the
    // (uniform) encoded update size.
    std::size_t bytes_per_rank = 0;
    for (std::size_t b : upload_bytes) {
      bytes_per_rank = std::max(bytes_per_rank, b);
    }
    if (received > 0) model_s = mpi_model_.gather_seconds(received, bytes_per_rank);
  } else if (received > 0) {
    rng::Rng jitter(rng::derive_seed(seed_, {0xA0, round}));
    rec.client_transfer_s.resize(received);
    for (std::size_t i = 0; i < received; ++i) {
      rec.client_transfer_s[i] =
          grpc_model_.transfer_seconds(upload_bytes[i], jitter);
    }
    model_s = grpc_model_.round_seconds(rec.client_transfer_s);
    // Per-client uplink transfers on the sim timeline (the Fig 4b per-round
    // distribution): one zero-wall-cost record per accepted upload, carrying
    // the gRPC-model transfer time and the sender id.
    if (obs::metrics_on()) {
      for (double t : rec.client_transfer_s) {
        instruments().uplink_sim_transfer_s.record(t);
      }
    }
    if (obs::trace_on()) {
      obs::Tracer& tracer = obs::Tracer::global();
      for (std::size_t i = 0; i < received; ++i) {
        obs::SpanRecord r;
        r.name = "comm.uplink.transfer";
        r.cat = "comm";
        r.wall_start_s = tracer.now();
        r.wall_dur_s = 0.0;
        r.sim_start_s = start;
        r.sim_dur_s = rec.client_transfer_s[i];
        r.arg_name = "sender";
        r.arg = upload_senders[i];
        // Message edge: the transfer record is a child of the client-side
        // uplink.send span when its context rode the wire, else of the
        // gather span it was observed in.
        r.span_id = obs::next_span_id();
        r.parent_id = upload_spans[i] != 0 ? upload_spans[i] : span.id();
        tracer.emit(r);
      }
    }
  }
  rec.gather_s = std::max(model_s, waited_s);
  span.set_sim(start, rec.gather_s);
  clock_.advance(rec.gather_s);
  round_log_.push_back(std::move(rec));
  return batch;
}

std::vector<Message> Communicator::gather_secagg_shares(std::uint32_t round,
                                                        std::size_t expected) {
  obs::ScopedSpan span("comm.gather_shares", "comm");
  span.set_arg("round", round);
  if (expected == 0) expected = num_clients_;
  APPFL_CHECK_MSG(expected <= num_clients_,
                  "cannot gather " << expected << " share packets from "
                                   << num_clients_ << " clients");
  std::vector<Message> out;
  out.reserve(expected);
  std::vector<bool> seen(num_clients_ + 1, false);

  // Validates one datagram: anything that is not this round's first
  // kSecAggShares packet from a known sender is discarded and counted
  // (e.g. a previous round's delayed update drifting in).
  const auto consider = [&](Datagram& d) {
    std::optional<MessageView> v = decode_frame_view(d.bytes);
    if (!v) {
      // counted by decode_frame_view
    } else if (v->kind != MessageKind::kSecAggShares || v->sender < 1 ||
               v->sender > num_clients_ || v->round != round ||
               seen[v->sender]) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.discards;
      }
      if (obs::metrics_on()) instruments().discards.inc();
    } else {
      Message m;
      m.kind = MessageKind::kSecAggShares;
      m.sender = v->sender;
      m.receiver = v->receiver;
      m.round = v->round;
      m.sample_count = v->sample_count;
      v->primal.copy_into(m.primal);
      seen[m.sender] = true;
      out.push_back(std::move(m));
    }
    pool_.release(std::move(d.bytes));
  };

  const double start = clock_.now();
  if (!network_.faults_enabled()) {
    // Fault-free path: every packet arrives; the deadlock guard mirrors
    // gather_batch.
    std::size_t discarded = 0;
    while (out.size() < expected) {
      std::optional<Datagram> d = network_.try_recv(0);
      if (!d) {
        if (discarded > 0) {
          obs::flight_record(
              "gather.unfillable",
              "{\"round\":" + std::to_string(round) +
                  ",\"discarded\":" + std::to_string(discarded) +
                  ",\"received\":" + std::to_string(out.size()) +
                  ",\"expected\":" + std::to_string(expected) + "}");
          obs::FlightRecorder::global().dump("unfillable-gather");
        }
        APPFL_CHECK_MSG(discarded == 0,
                        "share gather(round " << round
                            << ") would block forever: " << discarded
                            << " message(s) were discarded and only "
                            << out.size() << " of " << expected
                            << " expected packets arrived");
        d = network_.recv(0);
      }
      const std::size_t before = out.size();
      consider(*d);
      if (out.size() == before) ++discarded;
    }
  } else {
    const double deadline = start + reliability_.gather_timeout_s;
    double vt = start;
    while (out.size() < expected) {
      if (auto d = network_.try_recv_ready(0, vt)) {
        consider(*d);
        continue;
      }
      const double next = network_.next_deliver_at(0);
      if (next >= 0.0 && next <= deadline) {
        vt = std::max(vt, next);
        continue;
      }
      break;  // nothing else can make the deadline
    }
    if (out.size() < expected) {
      {
        std::lock_guard<std::mutex> lock(stats_mutex_);
        ++stats_.gather_timeouts;
      }
      if (obs::metrics_on()) instruments().gather_timeouts.inc();
      vt = deadline;  // the server waited the share phase out
    }
    span.set_sim(start, vt - start);
    clock_.advance(vt - start);
  }
  std::sort(out.begin(), out.end(), [](const Message& a, const Message& b) {
    return a.sender < b.sender;
  });
  return out;
}

GatherBatch::~GatherBatch() { release_buffers(); }

GatherBatch& GatherBatch::operator=(GatherBatch&& other) noexcept {
  if (this != &other) {
    release_buffers();
    updates_ = std::move(other.updates_);
    buffers_ = std::move(other.buffers_);
    decoded_ = std::move(other.decoded_);
    pool_ = other.pool_;
    other.pool_ = nullptr;
  }
  return *this;
}

void GatherBatch::release_buffers() {
  if (pool_ != nullptr) {
    for (auto& b : buffers_) pool_->release(std::move(*b));
  }
  buffers_.clear();
  decoded_.clear();
  updates_.clear();
  pool_ = nullptr;
}

std::vector<Message> GatherBatch::take_messages() const {
  std::vector<Message> out;
  out.reserve(updates_.size());
  for (const GatherUpdate& u : updates_) {
    Message m;
    m.kind = MessageKind::kLocalUpdate;
    m.sender = u.sender;
    m.receiver = u.receiver;
    m.round = u.round;
    m.sample_count = u.sample_count;
    m.loss = u.loss;
    m.rho = u.rho;
    m.trace_span = u.trace_span;
    m.primal.resize(u.primal.count);
    if (u.primal.enc == WireEncoding::kF32) {
      if (u.primal.count > 0) {
        std::memcpy(m.primal.data(), u.primal.data, 4 * u.primal.count);
      }
    } else {
      // Same exact conversion the fused path's widening kernel performs, so
      // fused and unfused consumers see identical floats.
      for (std::size_t i = 0; i < u.primal.count; ++i) {
        const auto h = static_cast<std::uint16_t>(
            std::uint16_t{u.primal.data[2 * i]} |
            (std::uint16_t{u.primal.data[2 * i + 1]} << 8));
        m.primal[i] = half_to_float(h);
      }
    }
    m.dual.resize(u.dual.count);
    if (u.dual.count > 0) {
      std::memcpy(m.dual.data(), u.dual.data, 4 * u.dual.count);
    }
    out.push_back(std::move(m));
  }
  return out;
}

std::vector<Communicator::UplinkHealth> Communicator::uplink_health() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return uplink_health_;
}

TrafficStats Communicator::stats() const {
  TrafficStats s;
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    s = stats_;
  }
  const FaultStats f = network_.fault_stats();
  s.drops = f.drops;
  s.duplicates = f.duplicates;
  s.reorders = f.reorders;
  s.corruptions = f.corruptions;
  s.delays = f.delays;
  // stats_.mailbox_overflows only carries a restored pre-crash base (the
  // live count lives in the network's mailboxes), so add rather than assign.
  s.mailbox_overflows += network_.mailbox_overflows();
  return s;
}

Communicator::PersistentState Communicator::persistent_state() const {
  PersistentState s;
  s.sim_now = clock_.now();
  s.stats = stats();
  const FaultInjector::PersistentState fs = network_.fault_persistent_state();
  s.link_keys = fs.link_keys;
  s.link_seqs = fs.link_seqs;
  s.ef_residuals = ef_residual_;
  return s;
}

void Communicator::restore_persistent_state(const PersistentState& s) {
  clock_.sync_to(s.sim_now);
  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    // The injector-owned counters are restored into the injector below;
    // stats() composes them back on top of this copy either way.
    stats_ = s.stats;
  }
  FaultInjector::PersistentState fs;
  fs.stats.drops = s.stats.drops;
  fs.stats.duplicates = s.stats.duplicates;
  fs.stats.reorders = s.stats.reorders;
  fs.stats.corruptions = s.stats.corruptions;
  fs.stats.delays = s.stats.delays;
  fs.link_keys = s.link_keys;
  fs.link_seqs = s.link_seqs;
  network_.restore_fault_state(fs);
  ef_residual_ = s.ef_residuals;
  ef_residual_.resize(num_clients_);  // tolerate snapshots without residuals
}

}  // namespace appfl::comm
