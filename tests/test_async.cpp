// Asynchronous aggregation (future-work extension): event ordering,
// staleness damping, determinism, the straggler advantage vs sync, and the
// strategy suite (FedAsync weighting, FedBuff buffering, FedCompass
// scheduling) with its checkpoint/resume and fault-plane contracts.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cstring>
#include <filesystem>

#include "core/async_runner.hpp"
#include "core/checkpoint.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "hw/device.hpp"
#include "obs/metrics.hpp"

namespace {

using appfl::core::AsyncConfig;
using appfl::core::AsyncStrategyKind;
using appfl::core::RunConfig;
using appfl::core::StalenessWeight;

// Fresh (pre-removed) temp directory, cleaned up on scope exit.
struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& name)
      : path(std::filesystem::temp_directory_path() / name) {
    std::filesystem::remove_all(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
  std::string str() const { return path.string(); }
};

// Bitwise equality — accuracy-style EXPECT_NEAR would hide drift.
bool same_bits(const std::vector<float>& a, const std::vector<float>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

appfl::data::FederatedSplit split_of(std::size_t per_client = 48) {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = per_client;
  spec.test_size = 128;
  spec.seed = 17;
  return appfl::data::mnist_like(spec);
}

AsyncConfig base_async() {
  AsyncConfig cfg;
  cfg.run.algorithm = appfl::core::Algorithm::kFedAvg;
  cfg.run.model = appfl::core::ModelKind::kMlp;
  cfg.run.mlp_hidden = 16;
  cfg.run.rounds = 6;  // ⇒ 6 × P total updates by default
  cfg.run.local_steps = 1;
  cfg.run.batch_size = 32;
  cfg.run.lr = 0.1F;
  cfg.run.seed = 17;
  cfg.mixing_alpha = 0.6F;
  return cfg;
}

TEST(Async, AppliesExactlyTheRequestedUpdates) {
  const auto split = split_of();
  AsyncConfig cfg = base_async();
  cfg.total_updates = 10;
  const auto result = appfl::core::run_async(cfg, split);
  EXPECT_EQ(result.applied_updates, 10U);
  EXPECT_EQ(result.events.size(), 10U);
}

TEST(Async, EventTimesAreNonDecreasing) {
  const auto result = appfl::core::run_async(base_async(), split_of());
  double prev = 0.0;
  for (const auto& e : result.events) {
    EXPECT_GE(e.sim_time, prev);
    prev = e.sim_time;
  }
  EXPECT_GT(result.sim_seconds, 0.0);
  EXPECT_NEAR(result.sim_seconds, result.events.back().sim_time, 1e-12);
}

TEST(Async, MixingIsStalenessDamped) {
  AsyncConfig cfg = base_async();
  // Extreme heterogeneity forces staleness: one fast, three slow clients.
  cfg.devices = {appfl::hw::DeviceProfile{"fast", 1e12},
                 appfl::hw::DeviceProfile{"slow", 1e9},
                 appfl::hw::DeviceProfile{"slow", 1e9},
                 appfl::hw::DeviceProfile{"slow", 1e9}};
  const auto result = appfl::core::run_async(cfg, split_of());
  bool saw_stale = false;
  for (const auto& e : result.events) {
    EXPECT_NEAR(e.mixing,
                cfg.mixing_alpha / (1.0F + static_cast<float>(e.staleness)),
                1e-6);
    if (e.staleness > 0) saw_stale = true;
  }
  EXPECT_TRUE(saw_stale);
  EXPECT_GT(result.mean_staleness, 0.0);
}

TEST(Async, LearnsAboveChance) {
  AsyncConfig cfg = base_async();
  cfg.run.rounds = 10;
  const auto result = appfl::core::run_async(cfg, split_of(96));
  EXPECT_GT(result.final_accuracy, 0.5);  // 10-class chance = 0.1
}

TEST(Async, DeterministicGivenSeed) {
  const auto split = split_of();
  const auto a = appfl::core::run_async(base_async(), split);
  const auto b = appfl::core::run_async(base_async(), split);
  ASSERT_EQ(a.events.size(), b.events.size());
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].sim_time, b.events[i].sim_time);
    EXPECT_EQ(a.events[i].client, b.events[i].client);
  }
}

TEST(Async, ValidateEveryControlsValidationPoints) {
  AsyncConfig cfg = base_async();
  cfg.total_updates = 12;
  cfg.validate_every = 4;
  const auto result = appfl::core::run_async(cfg, split_of());
  std::size_t validated = 0;
  for (const auto& e : result.events) {
    if (e.test_accuracy >= 0.0) ++validated;
  }
  EXPECT_EQ(validated, 3U);
}

TEST(Async, BeatsSyncWallClockOnHeterogeneousFleet) {
  // The motivation from §IV-E: with mixed A100/V100 silos the synchronous
  // server waits for the V100s every round; async keeps everyone busy. For
  // the same number of total client updates, async must finish in less
  // simulated time.
  const auto split = split_of();
  AsyncConfig cfg = base_async();
  cfg.devices = {appfl::hw::a100(), appfl::hw::v100()};
  const auto async_result = appfl::core::run_async(cfg, split);
  const auto sync_result = appfl::core::run_sync_baseline(cfg, split);
  EXPECT_LT(async_result.sim_seconds, sync_result.sim_seconds);
  EXPECT_GT(sync_result.straggler_idle_fraction, 0.1);
}

TEST(Async, IdleFractionGrowsWithDeviceHeterogeneity) {
  // On equal devices the only sync idling comes from network jitter
  // (§IV-D's effect); adding device heterogeneity (§IV-E) must add idle
  // time on top.
  AsyncConfig cfg = base_async();
  const auto split = split_of();
  cfg.devices = {appfl::hw::v100()};
  const auto homogeneous = appfl::core::run_sync_baseline(cfg, split);
  cfg.devices = {appfl::hw::DeviceProfile{"fast", 8e9},
                 appfl::hw::DeviceProfile{"slow", 1e9}};
  const auto heterogeneous = appfl::core::run_sync_baseline(cfg, split);
  EXPECT_GT(heterogeneous.straggler_idle_fraction,
            homogeneous.straggler_idle_fraction);
  EXPECT_GT(homogeneous.final_accuracy, 0.3);
}

TEST(AsyncIIAdmm, DualReplicasSurviveAsynchrony) {
  // The paper's no-duals-on-the-wire invariant under the future-work
  // schedule: asynchronous arrivals, heterogeneous devices, yet every
  // client dual matches the server replica bit-for-bit.
  AsyncConfig cfg = base_async();
  cfg.run.algorithm = appfl::core::Algorithm::kIIAdmm;
  cfg.run.rho = 2.0F;
  cfg.run.zeta = 2.0F;
  cfg.devices = {appfl::hw::a100(), appfl::hw::v100()};
  const auto result = appfl::core::run_async_iiadmm(cfg, split_of());
  EXPECT_TRUE(result.duals_consistent);
  EXPECT_EQ(result.base.applied_updates, 6U * 4U);
}

TEST(AsyncIIAdmm, LearnsAboveChance) {
  AsyncConfig cfg = base_async();
  cfg.run.algorithm = appfl::core::Algorithm::kIIAdmm;
  cfg.run.rounds = 10;
  cfg.run.rho = 2.0F;
  cfg.run.zeta = 2.0F;
  const auto result = appfl::core::run_async_iiadmm(cfg, split_of(96));
  EXPECT_GT(result.base.final_accuracy, 0.5);
}

TEST(AsyncIIAdmm, DeterministicGivenSeed) {
  AsyncConfig cfg = base_async();
  cfg.run.algorithm = appfl::core::Algorithm::kIIAdmm;
  const auto split = split_of(24);
  const auto a = appfl::core::run_async_iiadmm(cfg, split);
  const auto b = appfl::core::run_async_iiadmm(cfg, split);
  EXPECT_EQ(a.base.final_accuracy, b.base.final_accuracy);
  ASSERT_EQ(a.base.events.size(), b.base.events.size());
  for (std::size_t i = 0; i < a.base.events.size(); ++i) {
    EXPECT_EQ(a.base.events[i].client, b.base.events[i].client);
  }
}

TEST(Async, RejectsBadMixingAlpha) {
  AsyncConfig cfg = base_async();
  cfg.mixing_alpha = 0.0F;
  EXPECT_THROW(appfl::core::run_async(cfg, split_of(16)), appfl::Error);
  cfg.mixing_alpha = 1.5F;
  EXPECT_THROW(appfl::core::run_async(cfg, split_of(16)), appfl::Error);
}

TEST(Async, OverflowedUpdateBudgetIsAUsageError) {
  // Regression: rounds × clients used to wrap (2^62 × 4 ≡ 0 mod 2^64),
  // handing the event loop a budget of 0 and the summary a 0/0 = NaN
  // mean_staleness. Now it is a validation error before any training.
  AsyncConfig cfg = base_async();
  cfg.run.rounds = std::size_t{1} << 62;  // × 4 clients wraps to exactly 0
  EXPECT_THROW(appfl::core::run_async(cfg, split_of(16)), appfl::Error);
  EXPECT_THROW(appfl::core::run_async_iiadmm(cfg, split_of(16)), appfl::Error);
}

// The async schedules model uplink drop only. Every other fault kind used to
// be silently ignored (and run_async_iiadmm ignored drop too); each runner
// now rejects what it does not simulate before training anything.
std::vector<appfl::comm::FaultConfig> unsimulated_faults() {
  std::vector<appfl::comm::FaultConfig> out(5);
  out[0].duplicate = 0.1;
  out[1].reorder = 0.1;
  out[2].corrupt = 0.1;
  out[3].delay = 0.1;
  out[4].dead = {2};
  return out;
}

TEST(Async, RunAsyncRejectsFaultsItDoesNotSimulate) {
  AsyncConfig cfg = base_async();
  cfg.total_updates = 2;
  for (const auto& faults : unsimulated_faults()) {
    cfg.run.faults = faults;
    EXPECT_THROW(appfl::core::run_async(cfg, split_of(16)), appfl::Error);
  }
  cfg.run.faults = {};
  cfg.run.faults.drop = 0.3;  // the one simulated kind still runs
  EXPECT_EQ(appfl::core::run_async(cfg, split_of(16)).applied_updates, 2U);
}

TEST(Async, SyncBaselineRejectsFaultsItDoesNotSimulate) {
  AsyncConfig cfg = base_async();
  cfg.run.rounds = 1;
  for (const auto& faults : unsimulated_faults()) {
    cfg.run.faults = faults;
    EXPECT_THROW(appfl::core::run_sync_baseline(cfg, split_of(16)),
                 appfl::Error);
  }
}

TEST(Async, AsyncIIAdmmRejectsAnyFault) {
  AsyncConfig cfg = base_async();
  cfg.total_updates = 2;
  std::vector<appfl::comm::FaultConfig> all = unsimulated_faults();
  all.emplace_back().drop = 0.3;
  for (const auto& faults : all) {
    cfg.run.faults = faults;
    EXPECT_THROW(appfl::core::run_async_iiadmm(cfg, split_of(16)),
                 appfl::Error);
  }
}

TEST(Async, StalenessHistogramExportCoversZero) {
  // Regression: async.staleness was registered with lower bound 1.0, so
  // staleness 0 — the modal value in low-concurrency runs — vanished into
  // the underflow counter. The export must show it in bucket [0, 1).
  AsyncConfig cfg = base_async();
  cfg.run.obs_level = "metrics";
  const auto result = appfl::core::run_async(cfg, split_of(16));
  std::size_t zero_staleness = 0;
  for (const auto& e : result.events) {
    if (e.staleness == 0) ++zero_staleness;
  }
  ASSERT_GT(zero_staleness, 0U);  // the first arrival is always fresh
  const auto snap = appfl::obs::MetricsRegistry::global().snapshot();
  const auto* h = snap.histogram("async.staleness");
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(h->bounds.front(), 0.0);
  EXPECT_DOUBLE_EQ(h->bounds[1], 1.0);
  EXPECT_EQ(h->count, result.events.size());
  EXPECT_EQ(h->buckets[0], zero_staleness);
  const auto* applied = snap.counter("async.updates_applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_EQ(*applied, result.events.size());
}

TEST(Async, FedBuffBuffersAndCommitsEveryK) {
  AsyncConfig cfg = base_async();
  cfg.strategy.kind = AsyncStrategyKind::kFedBuff;
  cfg.strategy.buffer_k = 3;
  cfg.total_updates = 12;
  const auto result = appfl::core::run_async(cfg, split_of());
  EXPECT_EQ(result.strategy, "fedbuff");
  EXPECT_EQ(result.applied_updates, 12U);
  EXPECT_EQ(result.committed_updates, 4U);
  for (std::size_t i = 0; i < result.events.size(); ++i) {
    EXPECT_EQ(result.events[i].committed, (i + 1) % 3 == 0) << "event " << i;
  }
}

TEST(Async, RejectsZeroBufferK) {
  AsyncConfig cfg = base_async();
  cfg.strategy.kind = AsyncStrategyKind::kFedBuff;
  cfg.strategy.buffer_k = 0;
  EXPECT_THROW(appfl::core::run_async(cfg, split_of(16)), appfl::Error);
}

TEST(Async, AllStrategiesDeterministicAcrossReruns) {
  const auto split = split_of();
  for (const AsyncStrategyKind kind :
       {AsyncStrategyKind::kFedAsync, AsyncStrategyKind::kFedBuff,
        AsyncStrategyKind::kFedCompass}) {
    AsyncConfig cfg = base_async();
    cfg.strategy.kind = kind;
    cfg.devices = {appfl::hw::a100(), appfl::hw::v100()};
    const auto a = appfl::core::run_async(cfg, split);
    const auto b = appfl::core::run_async(cfg, split);
    EXPECT_TRUE(same_bits(a.final_w, b.final_w))
        << appfl::core::to_string(kind);
    EXPECT_EQ(a.final_accuracy, b.final_accuracy);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (std::size_t i = 0; i < a.events.size(); ++i) {
      EXPECT_EQ(a.events[i].sim_time, b.events[i].sim_time);
      EXPECT_EQ(a.events[i].client, b.events[i].client);
      EXPECT_EQ(a.events[i].committed, b.events[i].committed);
    }
  }
}

TEST(Async, StalenessWeightingFamiliesDiffer) {
  // constant keeps full α at any staleness; hinge holds full α below the
  // knee and decays polynomially past it.
  AsyncConfig cfg = base_async();
  cfg.devices = {appfl::hw::DeviceProfile{"fast", 1e12},
                 appfl::hw::DeviceProfile{"slow", 1e9},
                 appfl::hw::DeviceProfile{"slow", 1e9},
                 appfl::hw::DeviceProfile{"slow", 1e9}};
  cfg.strategy.weight = StalenessWeight::kConstant;
  const auto constant = appfl::core::run_async(cfg, split_of());
  for (const auto& e : constant.events) {
    EXPECT_FLOAT_EQ(e.mixing, cfg.mixing_alpha);
  }
  cfg.strategy.weight = StalenessWeight::kHinge;
  cfg.strategy.hinge_s0 = 2;
  const auto hinge = appfl::core::run_async(cfg, split_of());
  bool saw_past_knee = false;
  for (const auto& e : hinge.events) {
    if (e.staleness <= 2) {
      EXPECT_FLOAT_EQ(e.mixing, cfg.mixing_alpha);
    } else {
      saw_past_knee = true;
      EXPECT_FLOAT_EQ(e.mixing,
                      cfg.mixing_alpha /
                          (1.0F + static_cast<float>(e.staleness - 2)));
    }
  }
  EXPECT_TRUE(saw_past_knee);
}

TEST(Async, FedCompassReducesStalenessOnHeterogeneousFleet) {
  // The compute-aware scheduler sizes each client's local work so arrivals
  // cluster — on a compute-dominated heterogeneous fleet its staleness must
  // not exceed plain FedAsync's on the same fleet.
  const auto split = split_of(96);
  AsyncConfig cfg = base_async();
  cfg.devices = {appfl::hw::DeviceProfile{"fast", 50e9},
                 appfl::hw::DeviceProfile{"slow", 1e9}};
  const auto fedasync = appfl::core::run_async(cfg, split);
  cfg.strategy.kind = AsyncStrategyKind::kFedCompass;
  const auto compass = appfl::core::run_async(cfg, split);
  EXPECT_GT(fedasync.mean_staleness, 0.0);
  EXPECT_LE(compass.mean_staleness, fedasync.mean_staleness);
  EXPECT_EQ(compass.committed_updates, compass.applied_updates);
}

TEST(Async, DropFaultsAreDeterministicAndCounted) {
  const auto split = split_of(16);
  AsyncConfig cfg = base_async();
  cfg.run.faults.drop = 0.3;
  const auto a = appfl::core::run_async(cfg, split);
  const auto b = appfl::core::run_async(cfg, split);
  EXPECT_GT(a.dropped_updates, 0U);
  EXPECT_EQ(a.applied_updates, 24U);  // every loss is re-dispatched
  EXPECT_EQ(a.dropped_updates, b.dropped_updates);
  EXPECT_TRUE(same_bits(a.final_w, b.final_w));
  // And the fault-free path never draws from the drop stream: same seed,
  // drop off, must equal the historical schedule (checked indirectly by
  // DeterministicGivenSeed + the pinned MixingIsStalenessDamped above).
  EXPECT_GT(a.sim_seconds, 0.0);
}

TEST(Async, FedBuffPartialBufferSurvivesKillAndResume) {
  // Kill the run with a partially filled FedBuff buffer (6 arrivals, K=4 ⇒
  // one commit + 2 buffered deltas), resume, and demand the final model be
  // bit-identical to the uninterrupted run.
  const auto split = split_of();
  AsyncConfig cfg = base_async();
  cfg.strategy.kind = AsyncStrategyKind::kFedBuff;
  cfg.strategy.buffer_k = 4;
  const auto full = appfl::core::run_async(cfg, split);

  TempDir dir("appfl_async_fedbuff_resume");
  AsyncConfig first = cfg;
  first.run.checkpoint_dir = dir.str();
  first.run.checkpoint_every_n_rounds = 3;
  first.run.halt_after_round = 6;
  const auto killed = appfl::core::run_async(first, split);
  EXPECT_EQ(killed.applied_updates, 6U);
  EXPECT_GT(killed.checkpoints_written, 0U);
  {
    appfl::core::CheckpointStore store(dir.str());
    const auto ac = appfl::core::load_latest_async_checkpoint(store);
    ASSERT_TRUE(ac.has_value());
    EXPECT_EQ(ac->strategy, "fedbuff");
    EXPECT_EQ(ac->buffer.size(), 2U);  // the partial buffer rides along
    EXPECT_EQ(ac->buffer_weights.size(), 2U);
  }

  AsyncConfig second = cfg;
  second.run.resume_from = dir.str();
  const auto resumed = appfl::core::run_async(second, split);
  EXPECT_EQ(resumed.resumed_from_update, 6U);
  EXPECT_TRUE(same_bits(resumed.final_w, full.final_w));
  EXPECT_EQ(resumed.final_accuracy, full.final_accuracy);
  EXPECT_EQ(resumed.committed_updates, full.committed_updates);
}

TEST(Async, ResumeRejectsStrategyMismatch) {
  // A FedBuff checkpoint restored into a FedAsync run would silently train
  // a different algorithm; the strategy tag must make that a hard error.
  const auto split = split_of(16);
  TempDir dir("appfl_async_strategy_mismatch");
  AsyncConfig first = base_async();
  first.strategy.kind = AsyncStrategyKind::kFedBuff;
  first.run.checkpoint_dir = dir.str();
  first.run.halt_after_round = 3;
  (void)appfl::core::run_async(first, split);
  AsyncConfig second = base_async();  // fedasync
  second.run.resume_from = dir.str();
  EXPECT_THROW(appfl::core::run_async(second, split), appfl::Error);
}

TEST(AsyncIIAdmm, CheckpointsHaltsAndResumesBitIdentical) {
  // Regression: run_async_iiadmm used to silently ignore the checkpoint
  // options and halt_after_round — a resume-configured run wrote nothing
  // and never halted. It now honors the same contract as run_async, down
  // to bit-identical resume of the server's (z_p, λ_p) replicas.
  const auto split = split_of();
  AsyncConfig cfg = base_async();
  cfg.run.algorithm = appfl::core::Algorithm::kIIAdmm;
  cfg.run.rho = 2.0F;
  cfg.run.zeta = 2.0F;
  cfg.devices = {appfl::hw::a100(), appfl::hw::v100()};
  const auto full = appfl::core::run_async_iiadmm(cfg, split);

  TempDir dir("appfl_async_iiadmm_resume");
  AsyncConfig first = cfg;
  first.run.checkpoint_dir = dir.str();
  first.run.checkpoint_every_n_rounds = 4;
  first.run.halt_after_round = 7;
  const auto killed = appfl::core::run_async_iiadmm(first, split);
  EXPECT_EQ(killed.base.applied_updates, 7U);
  EXPECT_GT(killed.base.checkpoints_written, 0U);

  AsyncConfig second = cfg;
  second.run.resume_from = dir.str();
  const auto resumed = appfl::core::run_async_iiadmm(second, split);
  EXPECT_EQ(resumed.base.resumed_from_update, 7U);
  EXPECT_TRUE(resumed.duals_consistent);
  EXPECT_TRUE(same_bits(resumed.base.final_w, full.base.final_w));
  EXPECT_EQ(resumed.base.final_accuracy, full.base.final_accuracy);
}

}  // namespace
