// Server-side asynchronous FL strategies ("Advances in APPFL", arXiv
// 2409.11585). The async runner is a discrete-event scheduler; WHAT it does
// with an arriving update — and how much work it hands a client per
// dispatch — is this interface:
//
//   * **FedAsync** (Xie et al.): absorb every arrival immediately with a
//     staleness-damped mixing step w ← (1 − α_s)·w + α_s·z. The damping
//     rule α_s is selectable: constant (α), polynomial (α / (1 + s), the
//     historical default — bit-identical to the pre-strategy runner), or
//     hinge (full α up to a staleness knee s₀, polynomial decay past it).
//
//   * **FedBuff** (Nguyen et al.): buffer the staleness-weighted model
//     *deltas* of K arrivals, then commit their average in one step:
//     w ← w + (1/K) Σᵢ α_s(τᵢ)·Δᵢ. The commit reduction reuses the fused
//     core/aggregate stream kernels (weighted_sum_stream), so it is
//     bit-identical at every kernel-pool thread count. The server model
//     version advances only on commits, so staleness counts commits — not
//     raw arrivals — exactly as the algorithm defines it.
//
//   * **FedCompass-style scheduler** (Li et al.): read each client's
//     simulated compute speed (hw::DeviceProfile × its dataset size) and
//     assign *variable local steps* so every dispatch lasts about as long
//     as the slowest client's base pass — arrivals then cluster into
//     near-synchronous groups and staleness stays near zero. Absorption is
//     the same staleness-damped mixing as FedAsync (which the clustering
//     makes almost undamped).
//
// Strategies are deterministic plain state machines: no RNG, no clocks.
// Their mutable state (FedBuff's partially-filled buffer, the scheduler's
// step plan) exports into AsyncCheckpoint so a killed run resumes
// bit-identically mid-buffer.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace appfl::core {

struct AsyncCheckpoint;

enum class AsyncStrategyKind {
  kFedAsync,   // immediate staleness-damped mixing (the historical scheme)
  kFedBuff,    // buffered-K delta aggregation
  kFedCompass, // compute-aware variable local steps + damped mixing
};

enum class StalenessWeight {
  kConstant,    // α_s = α
  kPolynomial,  // α_s = α / (1 + s)   (FedAsync's a=1 polynomial family)
  kHinge,       // α_s = α for s ≤ s₀, α / (1 + s − s₀) past the knee
};

std::string to_string(AsyncStrategyKind k);
std::string to_string(StalenessWeight w);
/// nullopt on an unrecognized name ("fedasync"|"fedbuff"|"fedcompass",
/// "constant"|"polynomial"|"hinge").
std::optional<AsyncStrategyKind> parse_async_strategy(std::string_view name);
std::optional<StalenessWeight> parse_staleness_weight(std::string_view name);

/// The async-plane strategy knobs carried by AsyncConfig.
struct AsyncStrategyOptions {
  AsyncStrategyKind kind = AsyncStrategyKind::kFedAsync;
  StalenessWeight weight = StalenessWeight::kPolynomial;
  std::size_t buffer_k = 4;  // FedBuff: arrivals per commit
  std::size_t hinge_s0 = 4;  // hinge weighting: full-α staleness knee

  /// Throws appfl::Error on inconsistent settings (e.g. buffer_k == 0).
  void validate() const;
};

class AsyncStrategy {
 public:
  virtual ~AsyncStrategy() = default;

  virtual AsyncStrategyKind kind() const = 0;
  std::string name() const { return to_string(kind()); }

  /// The vector the dispatcher retains for an in-flight dispatch that
  /// trained from `w_sent` and produced `z`: z itself for mixing schemes,
  /// the delta z − w_sent for FedBuff. Also the payload absorb() receives.
  virtual std::vector<float> in_flight_payload(
      std::vector<float> z, std::span<const float> w_sent) const {
    (void)w_sent;
    return z;
  }

  /// Local steps client p (0-based) runs per dispatch. The runner builds
  /// client p with this step count and bills its simulated compute by it.
  virtual std::size_t local_steps(std::size_t client) const {
    (void)client;
    return base_steps_;
  }

  struct Absorbed {
    float mixing = 0.0F;    // staleness weight applied to this update
    bool committed = true;  // did the global model (and its version) advance?
  };

  /// Absorbs one arrived payload into `w`. `staleness` is the number of
  /// model versions committed since the producing dispatch left.
  virtual Absorbed absorb(std::span<const float> payload,
                          std::size_t staleness, std::span<float> w) = 0;

  /// Checkpoint halves: fill / restore the strategy's resumable state
  /// (FedBuff's partial buffer, the scheduler's step plan). Defaults:
  /// stateless.
  virtual void export_state(AsyncCheckpoint& out) const { (void)out; }
  virtual void import_state(const AsyncCheckpoint& in) { (void)in; }

  /// Builds a strategy. `seconds_per_step[p]` is the simulated compute
  /// seconds one local step costs client p — the FedCompass scheduler
  /// input (ignored by the other strategies).
  static std::unique_ptr<AsyncStrategy> make(
      const AsyncStrategyOptions& opts, float mixing_alpha,
      std::size_t base_local_steps, std::span<const double> seconds_per_step);

 protected:
  AsyncStrategy(float alpha, StalenessWeight weight, std::size_t hinge_s0,
                std::size_t base_steps)
      : alpha_(alpha), weight_(weight), hinge_s0_(hinge_s0),
        base_steps_(base_steps) {}

  /// α_s under the configured weighting rule. The polynomial branch is the
  /// exact float expression the pre-strategy runner used, so the default
  /// configuration stays bit-identical.
  float staleness_weight(std::size_t staleness) const;

  float alpha_;
  StalenessWeight weight_;
  std::size_t hinge_s0_;
  std::size_t base_steps_;
};

}  // namespace appfl::core
