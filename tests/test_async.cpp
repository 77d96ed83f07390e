// Asynchronous aggregation (future-work extension): event ordering,
// staleness damping, determinism, the straggler advantage vs sync, and the
// strategy suite (FedAsync weighting, FedBuff buffering, FedCompass
// scheduling) with its checkpoint/resume and fault-plane contracts.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cstring>
#include <filesystem>
#include <ostream>
#include <stdexcept>
#include <string>

#include "core/async_runner.hpp"
#include "core/checkpoint.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "hw/device.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"

// Names table rows in gtest failure messages.
namespace appfl::core {
void PrintTo(AsyncStrategyKind kind, std::ostream* os) {
  *os << to_string(kind);
}
}  // namespace appfl::core

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

TEST(AsyncIIAdmm, LearnsAboveChance) {
  AsyncConfig cfg = base_async();
  cfg.strategy.kind = AsyncStrategyKind::kIIAdmm;
  cfg.run.rounds = 10;
  cfg.run.rho = 2.0F;
  cfg.run.zeta = 2.0F;
  const auto result = appfl::core::run_async(cfg, split_of(96));
  EXPECT_EQ(result.strategy, "iiadmm");
  EXPECT_EQ(result.committed_updates, result.applied_updates);
  EXPECT_GT(result.final_accuracy, 0.5);
}

TEST(AsyncIIAdmm, RejectsAdaptiveRho) {
  // The server would adapt ρ per arrival while every dispatched client
  // keeps the configured ρ, so the dual replicas would drift apart.
  AsyncConfig cfg = base_async();
  cfg.strategy.kind = AsyncStrategyKind::kIIAdmm;
  cfg.total_updates = 2;
  cfg.run.adaptive_rho = true;
  EXPECT_THROW(appfl::core::run_async(cfg, split_of(16)), appfl::Error);
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
  cfg.strategy.kind = AsyncStrategyKind::kIIAdmm;
  EXPECT_THROW(appfl::core::run_async(cfg, split_of(16)), appfl::Error);
}

// The async schedules model uplink drop only. Every other fault kind used to
// be silently ignored (and async IIADMM ignored drop too); each runner now
// rejects what it does not simulate before training anything.
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

TEST(Async, IIAdmmStrategyRejectsAnyFault) {
  // Drop too: a lost arrival would have to roll back the client's
  // speculative dual, which a resumed run cannot do.
  AsyncConfig cfg = base_async();
  cfg.strategy.kind = AsyncStrategyKind::kIIAdmm;
  cfg.total_updates = 2;
  std::vector<appfl::comm::FaultConfig> all = unsimulated_faults();
  all.emplace_back().drop = 0.3;
  for (const auto& faults : all) {
    cfg.run.faults = faults;
    EXPECT_THROW(appfl::core::run_async(cfg, split_of(16)), appfl::Error);
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

// --- One table over every strategy -----------------------------------------
// Determinism and the kill/halt/resume contract are the same for each
// strategy, so they run as one parameterized table. The iiadmm rows also
// assert the paper's no-duals-on-the-wire invariant, read from the final
// checkpoint: every client's dual equals the server replica bit-for-bit.

class AsyncStrategyTable : public ::testing::TestWithParam<AsyncStrategyKind> {
 protected:
  std::string name() const { return appfl::core::to_string(GetParam()); }
  bool is_iiadmm() const { return GetParam() == AsyncStrategyKind::kIIAdmm; }

  AsyncConfig config() const {
    AsyncConfig cfg = base_async();
    cfg.strategy.kind = GetParam();
    cfg.strategy.buffer_k = 4;  // FedBuff only
    cfg.run.rho = 2.0F;         // IIADMM only
    cfg.run.zeta = 2.0F;
    cfg.devices = {appfl::hw::a100(), appfl::hw::v100()};
    return cfg;
  }
};

appfl::core::AsyncCheckpoint latest_checkpoint(const std::string& dir) {
  appfl::core::CheckpointStore store(dir);
  const auto ac = appfl::core::load_latest_async_checkpoint(store);
  if (!ac.has_value()) throw std::runtime_error("no checkpoint in " + dir);
  return *ac;
}

void expect_duals_consistent(const appfl::core::AsyncCheckpoint& ac) {
  ASSERT_EQ(ac.server_dual.size(), ac.num_clients);
  ASSERT_EQ(ac.clients.size(), ac.num_clients);
  bool any_nonzero = false;
  for (std::size_t p = 0; p < ac.num_clients; ++p) {
    EXPECT_TRUE(same_bits(ac.clients[p].dual, ac.server_dual[p]))
        << "client " << p + 1 << " dual differs from the server replica";
    for (float l : ac.server_dual[p]) any_nonzero |= l != 0.0F;
  }
  EXPECT_TRUE(any_nonzero) << "no dual step ever ran";
}

void expect_same_events(const std::vector<appfl::core::AsyncEvent>& a,
                        const std::vector<appfl::core::AsyncEvent>& b,
                        std::size_t b_offset = 0) {
  ASSERT_EQ(a.size() + b_offset, b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const auto& x = a[i];
    const auto& y = b[i + b_offset];
    EXPECT_EQ(x.sim_time, y.sim_time) << "event " << i;
    EXPECT_EQ(x.client, y.client) << "event " << i;
    EXPECT_EQ(x.staleness, y.staleness) << "event " << i;
    EXPECT_EQ(x.mixing, y.mixing) << "event " << i;
    EXPECT_EQ(x.committed, y.committed) << "event " << i;
  }
}

TEST_P(AsyncStrategyTable, DeterministicAcrossReruns) {
  // A rerun with checkpointing on must reproduce a plain run bit-for-bit:
  // same model, same events, same accuracy.
  const auto split = split_of();
  const AsyncConfig cfg = config();
  const auto a = appfl::core::run_async(cfg, split);
  TempDir dir("appfl_async_table_rerun_" + name());
  AsyncConfig ckpt = cfg;
  ckpt.run.checkpoint_dir = dir.str();
  const auto b = appfl::core::run_async(ckpt, split);
  EXPECT_EQ(a.strategy, name());
  EXPECT_TRUE(same_bits(a.final_w, b.final_w));
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.applied_updates, 24U);
  expect_same_events(a.events, b.events);
  if (is_iiadmm()) expect_duals_consistent(latest_checkpoint(dir.str()));
}

TEST_P(AsyncStrategyTable, KillHaltResumeIsBitIdentical) {
  // Halt after 7 arrivals (FedBuff, K = 4: one commit plus 3 buffered
  // deltas), resume, and demand the uninterrupted run's final bits.
  const auto split = split_of();
  const AsyncConfig cfg = config();
  const auto full = appfl::core::run_async(cfg, split);

  TempDir dir("appfl_async_table_resume_" + name());
  AsyncConfig first = cfg;
  first.run.checkpoint_dir = dir.str();
  first.run.checkpoint_every_n_rounds = 3;
  first.run.halt_after_round = 7;
  const auto killed = appfl::core::run_async(first, split);
  EXPECT_EQ(killed.applied_updates, 7U);
  EXPECT_EQ(killed.checkpoints_written, 3U);  // at 3, 6 and the halt
  const auto halted = latest_checkpoint(dir.str());
  EXPECT_EQ(halted.applied_updates, 7U);
  EXPECT_EQ(halted.strategy, name());
  if (GetParam() == AsyncStrategyKind::kFedBuff) {
    EXPECT_EQ(halted.buffer.size(), 3U);  // the partial buffer rides along
  }

  AsyncConfig second = cfg;
  second.run.checkpoint_dir = dir.str();
  second.run.resume_from = dir.str();
  const auto resumed = appfl::core::run_async(second, split);
  EXPECT_EQ(resumed.resumed_from_update, 7U);
  EXPECT_TRUE(same_bits(resumed.final_w, full.final_w));
  EXPECT_EQ(resumed.final_accuracy, full.final_accuracy);
  EXPECT_EQ(resumed.committed_updates, full.committed_updates);
  EXPECT_EQ(resumed.dropped_updates, full.dropped_updates);
  expect_same_events(resumed.events, full.events, 7);
  if (is_iiadmm()) expect_duals_consistent(latest_checkpoint(dir.str()));
}

TEST_P(AsyncStrategyTable, TornNewestSlotResumesFromTheOlderOne) {
  // A crash mid-save tears the newest slot. Resume must say so on stderr,
  // record the restore in the flight ring, fall back to the older slot and
  // still end at the uninterrupted run's bits.
  const auto split = split_of();
  const AsyncConfig cfg = config();
  const auto full = appfl::core::run_async(cfg, split);

  TempDir dir("appfl_async_table_torn_" + name());
  AsyncConfig first = cfg;
  first.run.checkpoint_dir = dir.str();
  first.run.checkpoint_every_n_rounds = 2;
  first.run.halt_after_round = 6;
  (void)appfl::core::run_async(first, split);
  std::string newest_slot;
  {
    appfl::core::CheckpointStore probe(dir.str());
    const auto newest = probe.load_latest();
    ASSERT_TRUE(newest.has_value());
    ASSERT_EQ(newest->sequence, 6U);
    newest_slot = newest->slot;
  }
  const std::filesystem::path torn = dir.path / newest_slot;
  std::filesystem::resize_file(torn, std::filesystem::file_size(torn) / 3);

  AsyncConfig second = cfg;
  second.run.resume_from = dir.str();
  second.run.obs_level = "metrics";  // enables the flight ring; no bits move
  appfl::obs::FlightRecorder::global().clear();
  ::testing::internal::CaptureStderr();
  const auto resumed = appfl::core::run_async(second, split);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("warning: checkpoint recovery: " + newest_slot),
            std::string::npos)
      << err;
  bool restore_recorded = false;
  for (const auto& e : appfl::obs::FlightRecorder::global().events()) {
    restore_recorded |= std::string(e.kind) == "ckpt.restore";
  }
  EXPECT_TRUE(restore_recorded);
  EXPECT_EQ(resumed.resumed_from_update, 4U);
  EXPECT_TRUE(same_bits(resumed.final_w, full.final_w));
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, AsyncStrategyTable,
    ::testing::Values(AsyncStrategyKind::kFedAsync, AsyncStrategyKind::kFedBuff,
                      AsyncStrategyKind::kFedCompass,
                      AsyncStrategyKind::kIIAdmm),
    [](const ::testing::TestParamInfo<AsyncStrategyKind>& info) {
      return appfl::core::to_string(info.param);
    });

}  // namespace
