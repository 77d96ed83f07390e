// Population-scale discrete-event client engine.
//
// The thread-per-client runner (core/runner) multiplexes P live clients
// over a thread pool, which caps P at a few hundred: every client owns a
// model replica, a mailbox, and a dataset for the whole run. This engine
// turns a round into a discrete-event simulation instead: a round samples
// `participants_per_round` clients from a `population`-sized lazy
// data::SyntheticPopulation, and each participant exists only while its
// events execute — built (dataset + model clone), trained, encoded,
// uplinked, destroyed. Non-participants cost nothing; memory tracks the
// sampled cohort, so a 100k-client population with 1k participants/round
// fits on one box.
//
// Mechanics: a priority event queue over comm::SimClock time drives the
// client state machine train → encode → uplink → idle. Consecutive
// same-kind events at the queue front are dispatched as one wave on the
// shared util::ThreadPool (heavy work writes only slot-indexed arrays, so
// results are independent of thread count); bookkeeping events run on the
// orchestration thread. Uplinks route through a core/agg_tree
// leader/sub-leader topology over a real comm::InProcNetwork — leaf
// leaders drain and validate their children's mailboxes in parallel — and
// the root reduces with ONE slot-ordered weighted_sum_stream, making tree
// output byte-identical to the flat gather (see agg_tree.hpp for why
// per-subtree partial sums could never be).
//
// Determinism contract: participant sets come from the checkpointable
// sampler stream derive_seed(seed, {79}); the final model is a pure
// function of (config, population) — identical across reruns, thread
// counts, tree fan-outs, and kill/resume at any round boundary (the v2
// checkpoint carries the sampler state and the sparse participation
// ledger).
#pragma once

#include <cstdint>
#include <vector>

#include "core/agg_tree.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"

namespace appfl::core {

/// Engine-side counters (the simulator's own performance, not the FL run's).
struct EngineStats {
  std::uint64_t events_processed = 0;
  double wall_seconds = 0.0;        // real time spent in the round loop
  double events_per_second = 0.0;   // events_processed / wall_seconds
  std::uint64_t peak_rss_bytes = 0; // process VmHWM after the run (Linux)
  std::uint64_t mailbox_overflows = 0;
  std::size_t tree_depth = 1;
  std::size_t tree_leaf_groups = 1;
};

struct PopulationRunResult {
  RunResult run;
  EngineStats engine;
  /// Sampled participant ids (sorted, 1-based) for each round THIS process
  /// executed — what the sampler-determinism tests compare across reruns,
  /// thread counts, and resumes.
  std::vector<std::vector<std::uint32_t>> participants_by_round;
};

/// Peak resident set size of this process in bytes (/proc/self/status
/// VmHWM); 0 where the platform doesn't expose it.
std::uint64_t peak_rss_bytes();

/// Runs config.rounds sampled rounds of FedAvg/FedProx over `population`.
/// Requires config.population == population.size() (validate() enforces the
/// rest: algorithm, codec, participants_per_round, tree_fan_out,
/// mailbox_capacity). Honors the same checkpoint/halt/obs knobs as
/// run_federated. Notes vs the flat runner: the downlink is one canonical
/// encode accounted per participant (uplinks genuinely cross the network;
/// config.faults therefore act on uplinks only, with dead/drop
/// entries keyed by participant SLOT endpoints 1..k, not client ids), and a
/// client's data-loader position restarts at each participation (clients
/// are transient by design).
PopulationRunResult run_population(const RunConfig& config,
                                   const data::SyntheticPopulation& population);

}  // namespace appfl::core
