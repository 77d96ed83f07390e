#include "core/sampling.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <unordered_map>

#include "rng/distributions.hpp"
#include "util/check.hpp"

namespace appfl::core {

std::vector<std::uint32_t> sample_fraction(rng::Rng& sampler,
                                           std::size_t num_clients,
                                           double fraction) {
  std::vector<std::uint32_t> participants(num_clients);
  for (std::size_t p = 0; p < num_clients; ++p) {
    participants[p] = static_cast<std::uint32_t>(p + 1);
  }
  if (fraction < 1.0) {
    rng::shuffle(sampler, std::span<std::uint32_t>(participants));
    participants.resize(fraction_cohort(num_clients, fraction));
    std::sort(participants.begin(), participants.end());
  }
  return participants;
}

std::size_t fraction_cohort(std::size_t num_clients, double fraction) {
  if (fraction >= 1.0) return num_clients;
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(fraction * static_cast<double>(num_clients))));
}

std::vector<std::uint32_t> sample_k_of_n(rng::Rng& sampler, std::size_t n,
                                         std::size_t k) {
  APPFL_CHECK_MSG(k >= 1 && k <= n,
                  "cannot sample " << k << " participants from a population "
                                   << "of " << n);
  // Partial Fisher–Yates: position j of the virtual identity array [0, n)
  // swaps with a uniform position in [j, n). Only touched positions live in
  // the overlay map, so memory is O(k) — the first k positions after the
  // partial shuffle are exactly a uniform k-subset (in uniform random
  // order, which the final sort normalizes away).
  std::unordered_map<std::uint64_t, std::uint64_t> overlay;
  overlay.reserve(2 * k);
  const auto value_at = [&](std::uint64_t pos) {
    const auto it = overlay.find(pos);
    return it == overlay.end() ? pos : it->second;
  };
  std::vector<std::uint32_t> picked(k);
  for (std::size_t j = 0; j < k; ++j) {
    const std::uint64_t r =
        static_cast<std::uint64_t>(j) + sampler.uniform_below(n - j);
    const std::uint64_t vj = value_at(j);
    const std::uint64_t vr = value_at(r);
    overlay[r] = vj;
    picked[j] = static_cast<std::uint32_t>(vr + 1);  // ids are 1-based
  }
  std::sort(picked.begin(), picked.end());
  return picked;
}

}  // namespace appfl::core
