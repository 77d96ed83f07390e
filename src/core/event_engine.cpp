#include "core/event_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <queue>
#include <span>
#include <unordered_map>
#include <utility>

#include "comm/cost_model.hpp"
#include "comm/envelope.hpp"
#include "comm/mailbox.hpp"
#include "comm/message.hpp"
#include "comm/sim_clock.hpp"
#include "core/aggregate.hpp"
#include "core/checkpoint.hpp"
#include "core/evaluation.hpp"
#include "core/obs_session.hpp"
#include "core/sampling.hpp"
#include "dp/secure_agg.hpp"
#include "hw/device.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "rng/rng.hpp"
#include "tensor/gemm.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace appfl::core {

std::uint64_t peak_rss_bytes() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<std::uint64_t>(kib) * 1024;
#else
  return 0;
#endif
}

namespace {

// RNG streams owned by the engine (see rng::derive_seed): 79 = population
// sampler (rides the checkpoint), 0x6A1/0x6A2 = per-(round, slot) gRPC
// down/uplink jitter, 77 = fault-injector seed (slot-link keyed).
constexpr std::uint64_t kSamplerStream = 79;
constexpr std::uint64_t kDownJitterStream = 0x6A1;
constexpr std::uint64_t kUpJitterStream = 0x6A2;
constexpr std::uint64_t kShareJitterStream = 0x6A3;
constexpr std::uint64_t kNetStream = 77;

enum class EventKind : std::uint8_t {
  kArrival = 0,      // broadcast model reaches a participant slot
  kUplink = 1,       // a slot's update lands in its leaf leader's mailbox
  kGroupReady = 2,   // a leaf leader has every surviving child update
  kRootReduce = 3,   // the root holds every group's payload refs
  kShareArrive = 4,  // secure agg: a slot's share packet lands at the root
};

struct Event {
  double t = 0.0;
  std::uint64_t seq = 0;  // FIFO tie-break at equal times (determinism)
  EventKind kind = EventKind::kArrival;
  std::uint32_t arg = 0;  // slot (kArrival/kUplink) or group (kGroupReady)
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.t != b.t) return a.t > b.t;
    return a.seq > b.seq;
  }
};

struct SlotOutcome {
  bool delivered = false;
  double deliver_at = 0.0;
  std::uint64_t up_bytes = 0;
};

}  // namespace

PopulationRunResult run_population(const RunConfig& config,
                                   const data::SyntheticPopulation& population) {
  config.validate();
  APPFL_CHECK_MSG(config.population > 0,
                  "run_population needs config.population > 0");
  APPFL_CHECK_MSG(config.population == population.size(),
                  "config.population=" << config.population
                      << " does not match the population object's "
                      << population.size());
  APPFL_CHECK_MSG(config.population <=
                      std::numeric_limits<std::uint32_t>::max(),
                  "population exceeds the 32-bit id space");
  tensor::apply_kernel_config(config.kernel_backend, config.kernel_threads);

  const std::size_t n = population.size();
  const std::size_t k = config.participants_per_round;
  const AggTree tree(k, config.tree_fan_out);
  const std::size_t num_groups = tree.num_leaf_groups();
  // Endpoint layout: 0 = root, 1..k = participant slots (slot i carries the
  // i-th smallest sampled id this round), k+1..k+G = leaf-leader mailboxes.
  // One network serves the whole run — fault link sequence counters persist
  // across rounds and ride the checkpoint, exactly like the Communicator's.
  const auto leader_endpoint = [k](std::size_t g) {
    return static_cast<std::uint32_t>(1 + k + g);
  };
  const bool faults_on = config.faults.enabled();
  comm::InProcNetwork net(1 + k + num_groups, config.faults,
                          rng::derive_seed(config.seed, {kNetStream}),
                          config.mailbox_capacity);
  const std::size_t env_overhead = faults_on ? comm::kEnvelopeOverhead : 0;

  data::TensorDataset test_set = population.test_set();
  std::unique_ptr<nn::Module> prototype = build_model(config, test_set);
  std::vector<float> w = prototype->flat_parameters();
  const std::size_t param_count = prototype->num_parameters();
  // local_update_flops is linear in samples × steps, so one evaluation on
  // the prototype serves every transient client (and keeps pool tasks from
  // touching the shared module).
  const double flops_per_sample_step =
      hw::local_update_flops(*prototype, 1, 1);

  comm::SimClock clock;
  util::ThreadPool pool;
  rng::Rng sampler(rng::derive_seed(config.seed, {kSamplerStream}));
  ObsSession obs_session(config);
  const bool track_health = obs_session.metrics_enabled();
  const comm::MpiCostModel mpi;
  const comm::GrpcCostModel grpc;
  const hw::DeviceProfile device = hw::v100();
  const bool is_grpc = config.protocol == comm::Protocol::kGrpc;

  PopulationRunResult out;
  out.run.model_parameters = param_count;
  out.engine.tree_depth = tree.depth();
  out.engine.tree_leaf_groups = num_groups;

  // Engine-owned ledger. Fault/overflow counters live in the network; this
  // copy carries everything else plus restored pre-crash bases, and
  // current_stats() composes them exactly like Communicator::stats().
  comm::TrafficStats stats;
  const auto current_stats = [&] {
    comm::TrafficStats s = stats;
    const comm::FaultStats f = net.fault_stats();
    s.drops = f.drops;
    s.duplicates = f.duplicates;
    s.reorders = f.reorders;
    s.corruptions = f.corruptions;
    s.delays = f.delays;
    s.mailbox_overflows += net.mailbox_overflows();
    return s;
  };

  // Sparse DP ledger: id → rounds this client released an update. ε_p =
  // count × per-round ε under basic composition; memory is O(distinct
  // participants), never O(population).
  std::unordered_map<std::uint32_t, std::uint32_t> participation;
  const double round_epsilon =
      std::isfinite(config.epsilon) ? config.epsilon : 0.0;

  std::optional<CheckpointStore> store;
  if (!config.checkpoint_dir.empty()) store.emplace(config.checkpoint_dir);

  std::uint32_t start_round = 1;
  if (!config.resume_from.empty()) {
    APPFL_SPAN("ckpt.restore", "ckpt");
    obs::flight_record("ckpt.restore");
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
        rc->seed == config.seed && rc->num_clients == n &&
            rc->param_count == param_count &&
            rc->total_rounds == config.rounds && rc->population == n &&
            rc->participants_per_round == k,
        "checkpoint fingerprint mismatch: checkpoint is (seed="
            << rc->seed << ", population=" << rc->population
            << ", participants=" << rc->participants_per_round << ", params="
            << rc->param_count << ", rounds=" << rc->total_rounds
            << "), this run is (seed=" << config.seed << ", population=" << n
            << ", participants=" << k << ", params=" << param_count
            << ", rounds=" << config.rounds << ")");
    APPFL_CHECK_MSG(rc->server.kind == "population",
                    "checkpoint was written by a '" << rc->server.kind
                        << "' server, not the population engine");
    w = rc->parameters;
    APPFL_CHECK_MSG(w.size() == param_count, "checkpoint parameter size "
                        << w.size() << " != model " << param_count);
    sampler.set_state(rc->sampler_state);
    participation.clear();
    for (const auto& [id, count] : rc->participation) participation[id] = count;
    clock.sync_to(rc->comm.sim_now);
    stats = rc->comm.stats;
    comm::FaultInjector::PersistentState fs;
    fs.stats.drops = stats.drops;
    fs.stats.duplicates = stats.duplicates;
    fs.stats.reorders = stats.reorders;
    fs.stats.corruptions = stats.corruptions;
    fs.stats.delays = stats.delays;
    fs.link_keys = rc->comm.link_keys;
    fs.link_seqs = rc->comm.link_seqs;
    net.restore_fault_state(fs);
    start_round = rc->rounds_completed + 1;
    out.run.resumed_from_round = rc->rounds_completed;
  }

  // Secure aggregation (dp/secure_agg.hpp): the share fan-out rides the same
  // fault-injected network as the updates — slot endpoint → root (endpoint
  // 0), a link distinct from the slot → leaf-leader uplink — and the masked
  // uploads then flow through the ordinary tree pipeline. The root reduce
  // becomes an integer sum + unmask instead of weighted_sum_stream.
  const bool secure = config.secure_agg;
  const std::size_t secagg_threshold =
      secure ? (config.secure_agg_threshold != 0 ? config.secure_agg_threshold
                                                 : k / 2 + 1)
             : 0;
  const std::size_t expected_primal = secure ? 2 * param_count : param_count;

  const auto wall_start = std::chrono::steady_clock::now();
  std::uint64_t events_processed = 0;

  for (std::uint32_t round = start_round; round <= config.rounds; ++round) {
    obs::ScopedSpan round_span("fl.round", "fl");
    round_span.set_arg("round", round);
    obs::flight_record("round.start",
                       "{\"round\":" + std::to_string(round) + "}");
    const double sim_round_start = clock.now();
    const comm::TrafficStats before = current_stats();

    const std::vector<std::uint32_t> participants =
        sample_k_of_n(sampler, n, k);
    out.participants_by_round.push_back(participants);

    // Broadcast: one canonical message; every slot reads the same bytes, so
    // the engine encodes once for size accounting and hands the message by
    // reference (the uplink direction is the one that really crosses the
    // network — that is where the tree lives).
    comm::Message global;
    global.kind = comm::MessageKind::kGlobalModel;
    global.sender = 0;
    global.round = round;
    global.primal = w;
    global.rho = config.rho;
    const std::size_t down_bytes =
        (is_grpc ? comm::proto_encoded_size(global)
                 : comm::raw_encoded_size(global)) +
        env_overhead;
    stats.messages_down += k;
    stats.bytes_down += static_cast<std::uint64_t>(k) * down_bytes;

    std::priority_queue<Event, std::vector<Event>, EventLater> queue;
    std::uint64_t seq = 0;
    double bcast_done = sim_round_start;
    if (is_grpc) {
      for (std::size_t i = 0; i < k; ++i) {
        rng::Rng jitter(
            rng::derive_seed(config.seed, {kDownJitterStream, round, i}));
        const double at =
            sim_round_start + grpc.transfer_seconds(down_bytes, jitter);
        bcast_done = std::max(bcast_done, at);
        queue.push({at, seq++, EventKind::kArrival,
                    static_cast<std::uint32_t>(i)});
      }
    } else {
      bcast_done = sim_round_start + mpi.broadcast_seconds(k, down_bytes);
      for (std::size_t i = 0; i < k; ++i) {
        queue.push({bcast_done, seq++, EventKind::kArrival,
                    static_cast<std::uint32_t>(i)});
      }
    }

    // Per-round slot-indexed state. Heavy handlers write only their own
    // slot/group entry, so results are independent of pool thread count.
    std::vector<SlotOutcome> slots(k);
    std::vector<std::vector<std::uint8_t>> update_frames(k);  // validated
    std::vector<std::uint32_t> group_arrived(num_groups, 0);
    std::vector<double> group_latest(num_groups, 0.0);
    std::vector<std::uint64_t> group_crc(num_groups, 0);
    std::vector<std::uint64_t> group_discards(num_groups, 0);
    std::size_t slots_outstanding = k;
    std::size_t uplinks_outstanding = 0;
    std::size_t groups_outstanding = 0;
    bool groups_scheduled = false;
    double root_ready = 0.0;
    double round_end = bcast_done;
    std::size_t responders = 0;
    double round_loss = 0.0;
    double gather_s = 0.0;

    // Secure-aggregation round state. Slot-indexed so parallel handlers
    // never share an entry; the sec server and U2 live on the orchestration
    // thread only.
    const std::uint64_t round_seed =
        secure ? rng::derive_seed(config.seed, {rng::stream::kSecureAgg, round})
               : 0;
    std::optional<dp::SecureAggServer> sec_server;
    if (secure) sec_server.emplace(participants, round_seed, secagg_threshold);
    std::vector<std::unique_ptr<dp::SecureAggClient>> sec_clients(
        secure ? k : 0);
    std::vector<comm::Message> pending_updates(secure ? k : 0);
    std::vector<SlotOutcome> share_slots(secure ? k : 0);
    std::size_t shares_outstanding = 0;
    double share_latest = bcast_done;
    bool masked_phase_done = !secure;  // plain mode: no share phase to wait on
    bool root_reduced = false;
    bool round_degraded = false;
    SecaggDegradeReason degrade_reason = SecaggDegradeReason::kNone;
    std::uint64_t round_reconstructions = 0;

    // Group readiness can only be decided once every training executed and
    // every surviving uplink's arrival has been observed — a late gRPC
    // arrival may interleave with another slot's uplink in event order.
    // Secure mode additionally gates on the masked-upload phase: group
    // mailboxes stay empty until the root has announced U2.
    const auto maybe_schedule_groups = [&] {
      if (!masked_phase_done || groups_scheduled || slots_outstanding > 0 ||
          uplinks_outstanding > 0)
        return;
      groups_scheduled = true;
      for (std::size_t g = 0; g < num_groups; ++g) {
        if (group_arrived[g] == 0) continue;
        queue.push({group_latest[g], seq++, EventKind::kGroupReady,
                    static_cast<std::uint32_t>(g)});
        ++groups_outstanding;
      }
    };

    // Secure mode, end of the share phase: every training ran and every
    // surviving share packet's arrival has been observed. The root drains
    // its mailbox to decide U2 and releases the masked uploads (U2 slots
    // only) into the ordinary uplink pipeline. Below threshold the round
    // degrades here — no masked upload is ever sent.
    const auto maybe_start_masked_phase = [&] {
      if (masked_phase_done || slots_outstanding > 0 || shares_outstanding > 0)
        return;
      masked_phase_done = true;
      obs::ScopedSpan span("fl.secagg_share_gather", "fl");
      std::size_t shares_sent = 0;
      for (std::size_t slot = 0; slot < k; ++slot) {
        if (sec_clients[slot]) ++shares_sent;
      }
      std::size_t deposited = 0;
      while (std::optional<comm::Datagram> d = net.try_recv(0)) {
        std::span<const std::uint8_t> body(d->bytes);
        if (faults_on) {
          const auto opened = comm::open_envelope(body);
          if (!opened) {
            ++stats.crc_failures;
            continue;
          }
          body = *opened;
        }
        if (d->from < 1 || d->from > k) {
          ++stats.discards;
          continue;
        }
        const std::size_t slot = d->from - 1;
        try {
          const comm::MessageView v = is_grpc ? comm::decode_proto_view(body)
                                              : comm::decode_raw_view(body);
          if (v.kind != comm::MessageKind::kSecAggShares || v.round != round ||
              v.sender != participants[slot]) {
            ++stats.discards;
            continue;
          }
          if (sec_server->deposit_share_packet(
                  v.sender, dp::unpack_bytes_from_floats(v.primal.to_vector()))) {
            ++deposited;
          } else {
            ++stats.discards;  // duplicate delivery or tampered packet
          }
        } catch (const Error&) {
          ++stats.discards;
        }
      }
      const std::vector<std::uint32_t> u2 = sec_server->share_survivors();
      span.set_arg("u2", u2.size());
      // A complete share phase ends with the last arrival; a lossy one runs
      // into the server's gather deadline before U2 is frozen.
      const double u2_time =
          deposited == shares_sent
              ? share_latest
              : std::max(share_latest, bcast_done + config.gather_timeout_s);
      round_end = std::max(round_end, u2_time);
      if (u2.size() < secagg_threshold) {
        // Too few share packets survived: nobody uploads this round.
        round_degraded = true;
        degrade_reason = SecaggDegradeReason::kShareWaveTimeout;
        maybe_schedule_groups();
        return;
      }
      std::vector<char> slot_in_u2(k, 0);
      for (std::uint32_t id : u2) {
        const auto it =
            std::lower_bound(participants.begin(), participants.end(), id);
        slot_in_u2[static_cast<std::size_t>(it - participants.begin())] = 1;
      }
      if (track_health) {
        // Trained slots outside U2: their share packet was lost, and their
        // update is discarded with it.
        for (std::size_t slot = 0; slot < k; ++slot) {
          if (sec_clients[slot] && !slot_in_u2[slot]) {
            obs_session.health().add_share_discards(participants[slot], 1);
          }
        }
      }
      pool.parallel_for(k, [&](std::size_t slot) {
        if (!slot_in_u2[slot] || !sec_clients[slot]) return;
        const comm::Message& update = pending_updates[slot];
        const double weight =
            config.weighted_aggregation
                ? static_cast<double>(update.sample_count)
                : 1.0;
        comm::Message masked;
        masked.kind = comm::MessageKind::kLocalUpdate;
        masked.sender = update.sender;
        masked.receiver = 0;
        masked.round = round;
        masked.sample_count = update.sample_count;
        masked.loss = update.loss;
        masked.primal = dp::pack_words_as_floats(sec_clients[slot]->mask(
            update.primal, u2, dp::kDefaultScale, weight));
        std::vector<std::uint8_t> bytes =
            is_grpc ? comm::encode_proto(masked) : comm::encode_raw(masked);
        double t_up = u2_time;
        if (is_grpc) {
          rng::Rng jitter(
              rng::derive_seed(config.seed, {kUpJitterStream, round, slot}));
          t_up += grpc.transfer_seconds(bytes.size() + env_overhead, jitter);
        }
        if (faults_on) bytes = comm::seal_envelope(std::move(bytes));
        SlotOutcome& so = slots[slot];
        so.up_bytes = bytes.size();
        const comm::InProcNetwork::SendOutcome outcome =
            net.send(static_cast<std::uint32_t>(1 + slot),
                     leader_endpoint(tree.group_of(slot)), std::move(bytes),
                     t_up);
        so.delivered = outcome.delivered;
        so.deliver_at = outcome.deliver_at;
        if (track_health && !outcome.delivered) {
          obs_session.health().add_dropped_frames(masked.sender, 1);
        }
      });
      for (std::size_t slot = 0; slot < k; ++slot) {
        if (!slot_in_u2[slot] || !sec_clients[slot]) continue;
        const SlotOutcome& so = slots[slot];
        stats.messages_up += 1;
        stats.bytes_up += so.up_bytes;
        stats.bytes_up_precodec += so.up_bytes;
        if (so.delivered) {
          queue.push({so.deliver_at, seq++, EventKind::kUplink,
                      static_cast<std::uint32_t>(slot)});
          ++uplinks_outstanding;
        }
      }
      maybe_schedule_groups();
    };

    while (!queue.empty()) {
      // Wave batching: consecutive same-kind events at the queue front run
      // as one pool dispatch. An event of another kind bounds the wave, so
      // cross-kind causality (uplink bookkeeping between arrival waves)
      // still executes in event order.
      const EventKind kind = queue.top().kind;
      std::vector<Event> wave;
      while (!queue.empty() && queue.top().kind == kind) {
        wave.push_back(queue.top());
        queue.pop();
      }
      events_processed += wave.size();

      switch (kind) {
        case EventKind::kArrival: {
          obs::ScopedSpan phase("fl.local_update_phase", "fl");
          phase.set_arg("participants", wave.size());
          // Pool workers have empty span stacks; hand the phase id across.
          const std::uint64_t phase_id = phase.id();
          pool.parallel_for(wave.size(), [&](std::size_t wi) {
            const std::uint32_t slot = wave[wi].arg;
            const std::uint32_t id = participants[slot];
            obs::ScopedSpan client_span("fl.client_update", "fl");
            client_span.set_parent(phase_id);
            client_span.set_arg("client", id);
            // The transient client: dataset and model replica exist only
            // for this participation.
            const std::unique_ptr<BaseClient> client = build_client(
                id, config, *prototype, population.materialize(id));
            comm::Message update = client->handle_global(global);
            update.receiver = 0;
            // Trace context rides the uplink frame (nonzero only at
            // obs=trace, so obs-off bytes are unchanged).
            update.trace_span = client_span.id();
            const double train_s = device.seconds_for(
                flops_per_sample_step *
                static_cast<double>(client->num_samples()) *
                static_cast<double>(config.local_steps));
            // The engine's client latency is its simulated training cost —
            // the quantity the straggler score should rank slots by.
            if (track_health) obs_session.health().observe_latency(id, train_s);
            const double t_send = wave[wi].t + train_s;
            if (secure) {
              // Hold the update; ship the Shamir share packet to the root
              // first. Losing it on this link keeps the slot out of U2.
              sec_clients[slot] = std::make_unique<dp::SecureAggClient>(
                  id, participants, round_seed, secagg_threshold);
              pending_updates[slot] = std::move(update);
              comm::Message shares;
              shares.kind = comm::MessageKind::kSecAggShares;
              shares.sender = id;
              shares.receiver = 0;
              shares.round = round;
              shares.primal = dp::pack_bytes_as_floats(
                  sec_clients[slot]->share_packet());
              std::vector<std::uint8_t> bytes = is_grpc
                                                    ? comm::encode_proto(shares)
                                                    : comm::encode_raw(shares);
              double t_up = t_send;
              if (is_grpc) {
                rng::Rng jitter(rng::derive_seed(
                    config.seed, {kShareJitterStream, round, slot}));
                t_up = t_send + grpc.transfer_seconds(
                                    bytes.size() + env_overhead, jitter);
              }
              if (faults_on) bytes = comm::seal_envelope(std::move(bytes));
              SlotOutcome& so = share_slots[slot];
              so.up_bytes = bytes.size();
              const comm::InProcNetwork::SendOutcome outcome = net.send(
                  static_cast<std::uint32_t>(1 + slot), 0, std::move(bytes),
                  t_up);
              so.delivered = outcome.delivered;
              so.deliver_at = outcome.deliver_at;
              if (track_health && !(outcome.delivered && !outcome.corrupted)) {
                obs_session.health().add_dropped_frames(id, 1);
              }
              client->on_uplink_result(outcome.delivered &&
                                       !outcome.corrupted);
              return;
            }
            double t_up = t_send;
            std::vector<std::uint8_t> bytes =
                is_grpc ? comm::encode_proto(update) : comm::encode_raw(update);
            if (is_grpc) {
              rng::Rng jitter(rng::derive_seed(
                  config.seed, {kUpJitterStream, round, slot}));
              t_up = t_send +
                     grpc.transfer_seconds(bytes.size() + env_overhead, jitter);
            }
            if (faults_on) bytes = comm::seal_envelope(std::move(bytes));
            SlotOutcome& so = slots[slot];
            so.up_bytes = bytes.size();
            const comm::InProcNetwork::SendOutcome outcome =
                net.send(static_cast<std::uint32_t>(1 + slot),
                         leader_endpoint(tree.group_of(slot)),
                         std::move(bytes), t_up);
            so.delivered = outcome.delivered;
            so.deliver_at = outcome.deliver_at;
            if (track_health && !(outcome.delivered && !outcome.corrupted)) {
              obs_session.health().add_dropped_frames(id, 1);
            }
            client->on_uplink_result(outcome.delivered && !outcome.corrupted);
          });
          // Fold on the orchestration thread, in wave (event) order.
          for (const Event& e : wave) {
            const SlotOutcome& so =
                secure ? share_slots[e.arg] : slots[e.arg];
            --slots_outstanding;
            stats.messages_up += 1;
            stats.bytes_up += so.up_bytes;
            stats.bytes_up_precodec += so.up_bytes;  // codec is always off
            ++participation[participants[e.arg]];    // trained ⇒ ε spent
            if (so.delivered) {
              queue.push({so.deliver_at, seq++,
                          secure ? EventKind::kShareArrive : EventKind::kUplink,
                          e.arg});
              secure ? ++shares_outstanding : ++uplinks_outstanding;
            }
          }
          if (secure) maybe_start_masked_phase();
          maybe_schedule_groups();
          break;
        }

        case EventKind::kShareArrive: {
          for (const Event& e : wave) {
            share_latest = std::max(share_latest, e.t);
            --shares_outstanding;
            (void)e;
          }
          maybe_start_masked_phase();
          break;
        }

        case EventKind::kUplink: {
          for (const Event& e : wave) {
            const std::size_t g = tree.group_of(e.arg);
            ++group_arrived[g];
            group_latest[g] = std::max(group_latest[g], e.t);
            --uplinks_outstanding;
          }
          maybe_schedule_groups();
          break;
        }

        case EventKind::kGroupReady: {
          obs::ScopedSpan span("fl.tree.leader", "fl");
          span.set_arg("leaders", wave.size());
          // Leaf leaders drain and validate their children's mailboxes in
          // parallel; payload buffers move into slot-indexed storage and
          // are NOT summed here (see agg_tree.hpp for the bit-identity
          // argument).
          pool.parallel_for(wave.size(), [&](std::size_t wi) {
            const std::uint32_t g = wave[wi].arg;
            const auto [lo, hi] = tree.leaf_group(g);
            while (std::optional<comm::Datagram> d =
                       net.try_recv(leader_endpoint(g))) {
              std::span<const std::uint8_t> body(d->bytes);
              if (faults_on) {
                const auto opened = comm::open_envelope(body);
                if (!opened) {
                  ++group_crc[g];
                  continue;
                }
                body = *opened;
              }
              if (d->from < 1 + lo || d->from >= 1 + hi) {
                ++group_discards[g];
                continue;
              }
              const std::size_t slot = d->from - 1;
              if (!update_frames[slot].empty()) {  // duplicate delivery
                ++group_discards[g];
                continue;
              }
              try {
                const comm::MessageView v = is_grpc
                                                ? comm::decode_proto_view(body)
                                                : comm::decode_raw_view(body);
                if (v.kind != comm::MessageKind::kLocalUpdate ||
                    v.round != round || v.sender != participants[slot] ||
                    v.primal.size() != expected_primal) {
                  ++group_discards[g];
                  continue;
                }
              } catch (const Error&) {
                ++group_discards[g];
                continue;
              }
              update_frames[slot] = std::move(d->bytes);
            }
          });
          for (const Event& e : wave) {
            --groups_outstanding;
            root_ready = std::max(root_ready, e.t);
          }
          if (groups_scheduled && groups_outstanding == 0) {
            queue.push({root_ready, seq++, EventKind::kRootReduce, 0});
          }
          break;
        }

        case EventKind::kRootReduce: {
          // The numeric reduce: slot-ordered terms, one weighted_sum_stream
          // — the tree contributed routing and cost, never float order.
          std::vector<comm::MessageView> views;
          std::vector<std::size_t> resp_slots;
          views.reserve(k);
          resp_slots.reserve(k);
          std::size_t max_up_bytes = 0;
          for (std::size_t slot = 0; slot < k; ++slot) {
            if (update_frames[slot].empty()) continue;
            std::span<const std::uint8_t> body(update_frames[slot]);
            if (faults_on) body = *comm::open_envelope(body);
            views.push_back(is_grpc ? comm::decode_proto_view(body)
                                    : comm::decode_raw_view(body));
            resp_slots.push_back(slot);
            max_up_bytes = std::max(max_up_bytes, slots[slot].up_bytes);
          }
          responders = views.size();
          double total_samples = 0.0;
          double loss_acc = 0.0;
          std::uint64_t samples = 0;
          for (const comm::MessageView& v : views) {
            total_samples += static_cast<double>(v.sample_count);
            loss_acc += v.loss * static_cast<double>(v.sample_count);
            samples += v.sample_count;
          }
          round_loss =
              samples > 0 ? loss_acc / static_cast<double>(samples) : 0.0;
          root_reduced = true;
          if (secure) {
            // Integer reduce + unmask: U3 is the responder set, in slot
            // (ascending sender) order. The aggregation weights were folded
            // into the quantization scale client-side, so one division by
            // scale · Σweights recovers the weighted survivor mean exactly.
            APPFL_SPAN("fl.secagg_unmask", "fl");
            std::vector<std::uint32_t> u3;
            std::vector<std::vector<std::uint64_t>> uploads;
            u3.reserve(views.size());
            uploads.reserve(views.size());
            double total_weight = 0.0;
            for (const comm::MessageView& v : views) {
              u3.push_back(v.sender);
              std::vector<std::uint64_t> words(v.primal.size() / 2);
              std::memcpy(words.data(), v.primal.bytes(),
                          v.primal.size() * 4);
              uploads.push_back(std::move(words));
              total_weight += config.weighted_aggregation
                                  ? static_cast<double>(v.sample_count)
                                  : 1.0;
            }
            const dp::SecureAggServer::Recovery recovery =
                sec_server->unmask(u3, uploads);
            if (recovery.ok) {
              round_reconstructions = recovery.pair_keys_reconstructed;
              w = dp::dequantize_sum(recovery.sum,
                                     dp::kDefaultScale * total_weight);
            } else {
              round_degraded = true;  // |U3| < t: model unchanged
              degrade_reason = SecaggDegradeReason::kBelowThreshold;
            }
          } else if (!views.empty()) {
            std::vector<StreamTerm> terms;
            terms.reserve(views.size());
            for (const comm::MessageView& v : views) {
              const float weight =
                  config.weighted_aggregation && total_samples > 0.0
                      ? static_cast<float>(
                            static_cast<double>(v.sample_count) /
                            total_samples)
                      : 1.0F / static_cast<float>(views.size());
              terms.push_back({comm::WirePayload::f32_bytes(v.primal.bytes(),
                                                            v.primal.size()),
                               weight});
            }
            APPFL_SPAN("fl.aggregate", "fl");
            weighted_sum_stream(terms, std::span<float>(w));
          }
          // Hierarchical sim cost: levels sequential, nodes within a level
          // concurrent, one span per level.
          double t_level = wave.front().t;
          std::size_t level = 0;
          for (const std::size_t fan_in : tree.level_fan_ins()) {
            obs::ScopedSpan level_span("fl.tree.level", "fl");
            level_span.set_arg("level", level);
            level_span.set_arg("fan_in", fan_in);
            const double dur = mpi.gather_seconds(fan_in, max_up_bytes);
            level_span.set_sim(t_level, dur);
            t_level += dur;
            ++level;
          }
          gather_s = t_level - wave.front().t;
          round_end = std::max(round_end, t_level);
          break;
        }
      }
    }
    for (std::size_t g = 0; g < num_groups; ++g) {
      stats.crc_failures += group_crc[g];
      stats.discards += group_discards[g];
    }
    // Secure mode with every masked upload lost: the root reduce never
    // fired, so the below-threshold outcome is decided here.
    if (secure && !root_reduced && !round_degraded) {
      round_degraded = true;
      degrade_reason = SecaggDegradeReason::kRootUnreachable;
    }
    if (secure && obs::metrics_on()) {
      static obs::Counter& reconstructions =
          obs::MetricsRegistry::global().counter("secure_agg.reconstructions");
      static obs::Counter& degraded =
          obs::MetricsRegistry::global().counter("secure_agg.rounds_degraded");
      reconstructions.add(round_reconstructions);
      if (round_degraded) degraded.add(1);
    }
    if (round_degraded) {
      obs::flight_record("secagg.degraded",
                         "{\"round\":" + std::to_string(round) +
                             ",\"reason\":\"" + to_string(degrade_reason) +
                             "\"}");
      obs::FlightRecorder::global().dump("secagg-degraded-" +
                                         to_string(degrade_reason));
    }
    if (track_health) {
      for (std::size_t slot = 0; slot < k; ++slot) {
        const std::uint32_t id = participants[slot];
        // A slot whose update never reached the root went missing this
        // round, whatever the hop that lost it.
        if (update_frames[slot].empty()) obs_session.health().note_dropout(id);
        const auto it = participation.find(id);
        if (it != participation.end()) {
          obs_session.health().set_dp_epsilon(
              id, static_cast<double>(it->second) * round_epsilon);
        }
      }
    }
    clock.sync_to(round_end);
    const comm::TrafficStats after = current_stats();
    round_span.set_sim(sim_round_start, clock.now() - sim_round_start);

    RoundMetrics metrics;
    metrics.round = round;
    metrics.rho = config.rho;
    metrics.participants = k;
    metrics.responders = responders;
    metrics.train_loss = round_loss;
    metrics.broadcast_s = bcast_done - sim_round_start;
    metrics.gather_s = gather_s;
    metrics.drops = after.drops - before.drops;
    metrics.crc_failures = after.crc_failures - before.crc_failures;
    metrics.discards = after.discards - before.discards;
    metrics.secagg_reconstructions = round_reconstructions;
    metrics.secagg_degraded = round_degraded;
    metrics.secagg_degrade_reason = degrade_reason;
    out.run.secagg_reconstructions += round_reconstructions;
    if (round_degraded) ++out.run.secagg_rounds_degraded;
    if (config.validate_every_round || round == config.rounds) {
      APPFL_SPAN("fl.validate", "fl");
      metrics.test_accuracy =
          evaluate(*prototype, w, test_set, config.validate_batch).accuracy;
    } else {
      metrics.test_accuracy = -1.0;
    }
    out.run.rounds.push_back(metrics);
    comm::RoundCommRecord rec;
    rec.round = round;
    rec.broadcast_s = metrics.broadcast_s;
    rec.gather_s = metrics.gather_s;
    out.run.comm_rounds.push_back(std::move(rec));
    obs_session.write_round(metrics);
    obs::flight_record("round.done",
                       "{\"round\":" + std::to_string(round) +
                           ",\"responders\":" + std::to_string(responders) +
                           "}");

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
      rc.num_clients = static_cast<std::uint32_t>(n);
      rc.param_count = param_count;
      rc.total_rounds = static_cast<std::uint32_t>(config.rounds);
      rc.rounds_completed = round;
      rc.parameters = w;
      rc.server.kind = "population";
      rc.sampler_state = sampler.state();
      rc.population = n;
      rc.participants_per_round = static_cast<std::uint32_t>(k);
      rc.participation.assign(participation.begin(), participation.end());
      std::sort(rc.participation.begin(), rc.participation.end());
      rc.comm.sim_now = clock.now();
      rc.comm.stats = current_stats();
      const comm::FaultInjector::PersistentState fs =
          net.fault_persistent_state();
      rc.comm.link_keys = fs.link_keys;
      rc.comm.link_seqs = fs.link_seqs;
      save_round_checkpoint(*store, rc);
      ++out.run.checkpoints_written;
    }
    if (halt_here) break;
  }

  const auto wall_end = std::chrono::steady_clock::now();
  out.engine.events_processed = events_processed;
  out.engine.wall_seconds =
      std::chrono::duration<double>(wall_end - wall_start).count();
  out.engine.events_per_second =
      out.engine.wall_seconds > 0.0
          ? static_cast<double>(events_processed) / out.engine.wall_seconds
          : 0.0;
  out.engine.peak_rss_bytes = peak_rss_bytes();
  out.engine.mailbox_overflows =
      stats.mailbox_overflows + net.mailbox_overflows();

  {
    APPFL_SPAN("fl.validate", "fl");
    out.run.final_accuracy =
        evaluate(*prototype, w, test_set, config.validate_batch).accuracy;
  }
  out.run.final_parameters = std::move(w);
  std::uint32_t max_count = 0;
  for (const auto& [id, count] : participation) {
    max_count = std::max(max_count, count);
  }
  out.run.dp_epsilon_spent = static_cast<double>(max_count) * round_epsilon;
  out.run.traffic = current_stats();
  out.run.sim_comm_seconds = clock.now();
  obs_session.finish(out.run);
  return out;
}

}  // namespace appfl::core
