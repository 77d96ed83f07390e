#include "core/async_strategy.hpp"

#include <algorithm>
#include <cmath>

#include "comm/message.hpp"
#include "core/aggregate.hpp"
#include "core/checkpoint.hpp"
#include "util/check.hpp"

namespace appfl::core {

std::string to_string(AsyncStrategyKind k) {
  switch (k) {
    case AsyncStrategyKind::kFedAsync: return "fedasync";
    case AsyncStrategyKind::kFedBuff: return "fedbuff";
    case AsyncStrategyKind::kFedCompass: return "fedcompass";
  }
  return "?";
}

std::string to_string(StalenessWeight w) {
  switch (w) {
    case StalenessWeight::kConstant: return "constant";
    case StalenessWeight::kPolynomial: return "polynomial";
    case StalenessWeight::kHinge: return "hinge";
  }
  return "?";
}

std::optional<AsyncStrategyKind> parse_async_strategy(std::string_view name) {
  if (name == "fedasync") return AsyncStrategyKind::kFedAsync;
  if (name == "fedbuff") return AsyncStrategyKind::kFedBuff;
  if (name == "fedcompass") return AsyncStrategyKind::kFedCompass;
  return std::nullopt;
}

std::optional<StalenessWeight> parse_staleness_weight(std::string_view name) {
  if (name == "constant") return StalenessWeight::kConstant;
  if (name == "polynomial") return StalenessWeight::kPolynomial;
  if (name == "hinge") return StalenessWeight::kHinge;
  return std::nullopt;
}

void AsyncStrategyOptions::validate() const {
  APPFL_CHECK_MSG(buffer_k >= 1, "FedBuff buffer_k must be >= 1");
  APPFL_CHECK_MSG(buffer_k <= 4096, "FedBuff buffer_k " << buffer_k
                                        << " is implausibly large (max 4096)");
}

float AsyncStrategy::staleness_weight(std::size_t staleness) const {
  switch (weight_) {
    case StalenessWeight::kConstant:
      return alpha_;
    case StalenessWeight::kPolynomial:
      // The exact expression the pre-strategy runner used — the default
      // configuration must stay bit-identical across this refactor.
      return alpha_ / (1.0F + static_cast<float>(staleness));
    case StalenessWeight::kHinge:
      if (staleness <= hinge_s0_) return alpha_;
      return alpha_ / (1.0F + static_cast<float>(staleness - hinge_s0_));
  }
  return alpha_;
}

namespace {

/// FedAsync: every arrival is mixed into the model immediately,
/// w ← (1 − α_s)·w + α_s·z, and the model version advances.
class FedAsyncStrategy : public AsyncStrategy {
 public:
  FedAsyncStrategy(float alpha, StalenessWeight weight, std::size_t hinge_s0,
                   std::size_t base_steps)
      : AsyncStrategy(alpha, weight, hinge_s0, base_steps) {}

  AsyncStrategyKind kind() const override {
    return AsyncStrategyKind::kFedAsync;
  }

  Absorbed absorb(std::span<const float> payload, std::size_t staleness,
                  std::span<float> w) override {
    APPFL_CHECK_MSG(payload.size() == w.size(),
                    "async payload size " << payload.size()
                                          << " != model size " << w.size());
    const float mixing = staleness_weight(staleness);
    for (std::size_t i = 0; i < w.size(); ++i) {
      w[i] = (1.0F - mixing) * w[i] + mixing * payload[i];
    }
    return {.mixing = mixing, .committed = true};
  }
};

/// FedBuff: arrivals carry deltas Δ = z − w_sent; K of them are buffered
/// (each pre-weighted by its own α_s) and committed in one fused reduction
/// w ← w + (1/K) Σ α_s(τᵢ)·Δᵢ. Only commits advance the model version.
class FedBuffStrategy : public AsyncStrategy {
 public:
  FedBuffStrategy(float alpha, StalenessWeight weight, std::size_t hinge_s0,
                  std::size_t base_steps, std::size_t k)
      : AsyncStrategy(alpha, weight, hinge_s0, base_steps), k_(k) {}

  AsyncStrategyKind kind() const override { return AsyncStrategyKind::kFedBuff; }

  std::vector<float> in_flight_payload(
      std::vector<float> z, std::span<const float> w_sent) const override {
    APPFL_CHECK_MSG(z.size() == w_sent.size(),
                    "FedBuff delta: trained model size "
                        << z.size() << " != dispatched size " << w_sent.size());
    for (std::size_t i = 0; i < z.size(); ++i) z[i] -= w_sent[i];
    return z;  // the delta the server buffers on arrival
  }

  Absorbed absorb(std::span<const float> payload, std::size_t staleness,
                  std::span<float> w) override {
    APPFL_CHECK_MSG(payload.size() == w.size(),
                    "async payload size " << payload.size()
                                          << " != model size " << w.size());
    const float mixing = staleness_weight(staleness);
    buffer_.emplace_back(payload.begin(), payload.end());
    weights_.push_back(mixing);
    if (buffer_.size() < k_) return {.mixing = mixing, .committed = false};

    // Commit: one fused weighted reduction over the K buffered deltas via
    // the core/aggregate stream kernels (bit-identical at any kernel-pool
    // thread count), then an elementwise add into the global model.
    std::vector<StreamTerm> terms;
    terms.reserve(buffer_.size());
    const float inv_k = 1.0F / static_cast<float>(k_);
    for (std::size_t i = 0; i < buffer_.size(); ++i) {
      terms.push_back(StreamTerm{
          comm::WirePayload::f32(buffer_[i].data(), buffer_[i].size()),
          weights_[i] * inv_k});
    }
    std::vector<float> step(w.size(), 0.0F);
    weighted_sum_stream(terms, step);
    for (std::size_t i = 0; i < w.size(); ++i) w[i] += step[i];
    buffer_.clear();
    weights_.clear();
    return {.mixing = mixing, .committed = true};
  }

  void export_state(AsyncCheckpoint& out) const override {
    out.buffer = buffer_;
    out.buffer_weights = weights_;
  }

  void import_state(const AsyncCheckpoint& in) override {
    APPFL_CHECK_MSG(in.buffer.size() == in.buffer_weights.size(),
                    "FedBuff checkpoint buffer/weights are unpaired");
    APPFL_CHECK_MSG(in.buffer.size() < k_,
                    "FedBuff checkpoint buffers " << in.buffer.size()
                        << " deltas, but commits fire at " << k_);
    buffer_ = in.buffer;
    weights_ = in.buffer_weights;
  }

 private:
  std::size_t k_;
  std::vector<std::vector<float>> buffer_;
  std::vector<float> weights_;
};

/// FedCompass-style compute-aware scheduler: assign each client the number
/// of local steps that makes its dispatch last about as long as the
/// slowest client's base pass, so arrivals cluster and staleness ≈ 0.
/// Absorption is FedAsync's staleness-damped mixing.
class FedCompassStrategy : public FedAsyncStrategy {
 public:
  FedCompassStrategy(float alpha, StalenessWeight weight, std::size_t hinge_s0,
                     std::size_t base_steps,
                     std::span<const double> seconds_per_step)
      : FedAsyncStrategy(alpha, weight, hinge_s0, base_steps) {
    APPFL_CHECK_MSG(!seconds_per_step.empty(),
                    "FedCompass needs per-client compute speeds");
    double slowest = 0.0;
    for (double s : seconds_per_step) {
      APPFL_CHECK_MSG(s > 0.0, "FedCompass needs positive per-step seconds");
      slowest = std::max(slowest, s);
    }
    // Everyone targets the wall-clock of the slowest client's base pass;
    // fast clients fill the window with extra local steps (capped at 8×
    // base so loosely-coupled fleets can't run away from the global model).
    const double target = static_cast<double>(base_steps) * slowest;
    steps_.reserve(seconds_per_step.size());
    for (double s : seconds_per_step) {
      const double ideal = target / s;
      const auto steps = static_cast<std::size_t>(std::llround(ideal));
      steps_.push_back(std::clamp<std::size_t>(steps, 1, 8 * base_steps));
    }
  }

  AsyncStrategyKind kind() const override {
    return AsyncStrategyKind::kFedCompass;
  }

  std::size_t local_steps(std::size_t client) const override {
    APPFL_CHECK_MSG(client < steps_.size(),
                    "FedCompass step plan has no client " << client);
    return steps_[client];
  }

  void export_state(AsyncCheckpoint& out) const override {
    out.assigned_steps.assign(steps_.begin(), steps_.end());
  }

  void import_state(const AsyncCheckpoint& in) override {
    // The plan is a pure function of the fleet + config, so a resumed run
    // re-derives it; the stored copy is a fingerprint that catches resuming
    // against a different fleet.
    std::vector<std::uint64_t> derived(steps_.begin(), steps_.end());
    APPFL_CHECK_MSG(in.assigned_steps == derived,
                    "FedCompass checkpoint step plan does not match this "
                    "fleet — resuming against different devices?");
  }

 private:
  std::vector<std::size_t> steps_;
};

}  // namespace

std::unique_ptr<AsyncStrategy> AsyncStrategy::make(
    const AsyncStrategyOptions& opts, float mixing_alpha,
    std::size_t base_local_steps, std::span<const double> seconds_per_step) {
  opts.validate();
  switch (opts.kind) {
    case AsyncStrategyKind::kFedAsync:
      return std::make_unique<FedAsyncStrategy>(mixing_alpha, opts.weight,
                                                opts.hinge_s0,
                                                base_local_steps);
    case AsyncStrategyKind::kFedBuff:
      return std::make_unique<FedBuffStrategy>(mixing_alpha, opts.weight,
                                               opts.hinge_s0, base_local_steps,
                                               opts.buffer_k);
    case AsyncStrategyKind::kFedCompass:
      return std::make_unique<FedCompassStrategy>(mixing_alpha, opts.weight,
                                                  opts.hinge_s0,
                                                  base_local_steps,
                                                  seconds_per_step);
  }
  APPFL_CHECK_MSG(false, "unreachable async strategy kind");
  return nullptr;
}

}  // namespace appfl::core
