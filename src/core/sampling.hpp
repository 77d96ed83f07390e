// Per-round client sampling. Both runners draw a round's participant set
// from a dedicated, checkpointable RNG stream (derive_seed(seed, {78}) in
// the sync runner, {79} in the population engine), so the sampled set is a
// pure function of the stream state: identical across reruns, across thread
// counts (the draws happen on the orchestration thread, never in a pool
// task), and across a kill/resume at any round boundary (the stream state
// rides the v2 checkpoint).
#pragma once

#include <cstdint>
#include <vector>

#include "rng/rng.hpp"

namespace appfl::core {

/// The sync runner's rule, extracted verbatim: all of 1..num_clients at
/// fraction 1 (no draw — the stream does not advance), otherwise one full
/// shuffle truncated to ⌈fraction·num_clients⌉ ids, returned sorted.
/// O(num_clients) per round — fine at the star topology's scale.
std::vector<std::uint32_t> sample_fraction(rng::Rng& sampler,
                                           std::size_t num_clients,
                                           double fraction);

/// Size of every sample_fraction draw: num_clients at fraction 1,
/// otherwise max(1, ⌈fraction·num_clients⌉).
std::size_t fraction_cohort(std::size_t num_clients, double fraction);

/// Draws k distinct 1-based ids from a population of n, returned sorted —
/// the population engine's rule. A partial Fisher–Yates over a virtual
/// identity array (sparse overlay) makes the draw O(k) in time and memory
/// regardless of n, so sampling 1k participants from 100k (or 1M) clients
/// never materializes the population. Always consumes exactly k draws from
/// `sampler`, so the stream position after a round is independent of n.
std::vector<std::uint32_t> sample_k_of_n(rng::Rng& sampler, std::size_t n,
                                         std::size_t k);

}  // namespace appfl::core
