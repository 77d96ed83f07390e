// apply_env, the one reader of APPFL_* run overrides: a valid value lands in
// its field, garbage is warned about and ignored, obs paths the level cannot
// produce are cleared, and library runs never look at the environment.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/async_runner.hpp"
#include "core/env.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"

extern char** environ;

namespace {

using appfl::core::AsyncConfig;
using appfl::core::RunConfig;

// Every test starts with no APPFL_* variable set (CI runs this suite with
// stray overrides in the environment) and leaves the process environment as
// it found it.
class Env : public ::testing::Test {
 protected:
  void SetUp() override {
    for (const std::string& name : appfl_names()) {
      saved_.emplace_back(name, std::getenv(name.c_str()));
      ::unsetenv(name.c_str());
    }
  }
  void TearDown() override {
    for (const std::string& name : appfl_names()) ::unsetenv(name.c_str());
    for (const auto& [name, value] : saved_) {
      ::setenv(name.c_str(), value.c_str(), 1);
    }
  }

  static void set(const char* name, const char* value) {
    ASSERT_EQ(::setenv(name, value, 1), 0);
  }

 private:
  static std::vector<std::string> appfl_names() {
    std::vector<std::string> names;
    for (char** e = environ; *e != nullptr; ++e) {
      if (std::strncmp(*e, "APPFL_", 6) == 0) {
        const char* eq = std::strchr(*e, '=');
        names.emplace_back(*e, eq != nullptr ? eq - *e : std::strlen(*e));
      }
    }
    return names;
  }

  std::vector<std::pair<std::string, std::string>> saved_;
};

// Runs apply_env on `cfg` with `name=value` set; returns what it printed on
// stderr.
template <class Config>
std::string apply_with(Config& cfg, const char* name, const char* value) {
  ::setenv(name, value, 1);
  ::testing::internal::CaptureStderr();
  appfl::core::apply_env(cfg);
  ::unsetenv(name);
  return ::testing::internal::GetCapturedStderr();
}

template <class Config>
struct Row {
  const char* var;
  const char* valid;
  std::string expected;  // the field, rendered, after `valid`
  const char* garbage;   // must leave the field as configured
  std::function<std::string(const Config&)> field;
};

std::string num(double v) { return std::to_string(v); }

template <class Config>
void check_rows(const Config& base, const std::vector<Row<Config>>& rows) {
  for (const Row<Config>& row : rows) {
    SCOPED_TRACE(row.var);
    Config cfg = base;
    EXPECT_EQ(apply_with(cfg, row.var, row.valid), "");
    EXPECT_EQ(row.field(cfg), row.expected);

    cfg = base;
    const std::string warning = apply_with(cfg, row.var, row.garbage);
    EXPECT_EQ(row.field(cfg), row.field(base)) << "garbage '" << row.garbage
                                               << "' was applied";
    EXPECT_NE(warning.find(row.var), std::string::npos)
        << "no warning for garbage '" << row.garbage << "'";
  }
}

RunConfig traced_base() {
  RunConfig cfg;
  cfg.obs_level = "trace";  // so every obs output path is producible
  return cfg;
}

TEST_F(Env, EveryRunOverrideAppliesValidAndIgnoresGarbage) {
  using R = Row<RunConfig>;
  const auto codec = [](const RunConfig& c) {
    return appfl::comm::to_string(c.uplink_codec);
  };
  check_rows<RunConfig>(
      traced_base(),
      {
          R{"APPFL_FAULT_DROP", "0.25", num(0.25), "abc",
            [](const RunConfig& c) { return num(c.faults.drop); }},
          R{"APPFL_FAULT_DUPLICATE", "0.125", num(0.125), "0.1x",
            [](const RunConfig& c) { return num(c.faults.duplicate); }},
          R{"APPFL_FAULT_REORDER", "0.5", num(0.5), "",
            [](const RunConfig& c) { return num(c.faults.reorder); }},
          R{"APPFL_FAULT_CORRUPT", "1e-2", num(0.01), "1e",
            [](const RunConfig& c) { return num(c.faults.corrupt); }},
          R{"APPFL_FAULT_DELAY", "0.2", num(0.2), "0.5x",
            [](const RunConfig& c) { return num(c.faults.delay); }},
          R{"APPFL_FAULT_DELAY_MAX_S", "2", num(2.0), "two",
            [](const RunConfig& c) { return num(c.faults.delay_max_s); }},
          R{"APPFL_WIRE_CODEC", "fp16", "fp16", "zip", codec},
          R{"APPFL_CKPT_EVERY", "3", "3", "0",
            [](const RunConfig& c) {
              return std::to_string(c.checkpoint_every_n_rounds);
            }},
          R{"APPFL_MAILBOX_CAP", "64", "64", "-3",
            [](const RunConfig& c) {
              return std::to_string(c.mailbox_capacity);
            }},
          R{"APPFL_OBS_LEVEL", "metrics", "metrics", "loud",
            [](const RunConfig& c) { return c.obs_level; }},
          R{"APPFL_KERNEL_BACKEND", "reference", "reference", "bogus",
            [](const RunConfig& c) { return c.kernel_backend; }},
          R{"APPFL_KERNEL_THREADS", "4", "4", "4x",
            [](const RunConfig& c) {
              return std::to_string(c.kernel_threads);
            }},
      });
}

TEST_F(Env, PathOverridesApply) {
  // An empty obs path is no override; an empty checkpoint directory or
  // resume source switches that feature off.
  struct PathRow {
    const char* var;
    std::string RunConfig::*field;
    bool empty_clears;
  };
  for (const PathRow& row : std::vector<PathRow>{
           {"APPFL_OBS_TRACE_OUT", &RunConfig::trace_out, false},
           {"APPFL_OBS_METRICS_OUT", &RunConfig::metrics_out, false},
           {"APPFL_OBS_HEALTH_OUT", &RunConfig::health_out, false},
           {"APPFL_OBS_CRITPATH_OUT", &RunConfig::critpath_out, false},
           {"APPFL_OBS_FLIGHT_DIR", &RunConfig::flight_dir, false},
           {"APPFL_CKPT_DIR", &RunConfig::checkpoint_dir, true},
           {"APPFL_CKPT_RESUME", &RunConfig::resume_from, true},
       }) {
    SCOPED_TRACE(row.var);
    RunConfig cfg = traced_base();
    cfg.*row.field = "configured";
    apply_with(cfg, row.var, "from-env");
    EXPECT_EQ(cfg.*row.field, "from-env");
    cfg.*row.field = "configured";
    apply_with(cfg, row.var, "");
    EXPECT_EQ(cfg.*row.field, row.empty_clears ? "" : "configured");
  }
}

TEST_F(Env, FaultDeadListReplacesConfigAndSkipsBadTokens) {
  const std::vector<std::pair<const char*, std::vector<std::uint32_t>>> table{
      {"3,9", {3, 9}},
      {"3,two,9", {3, 9}},
      {",,5,", {5}},
      {"-1,7x", {}},
      {"", {}},
  };
  for (const auto& [value, expected] : table) {
    SCOPED_TRACE(value);
    RunConfig cfg;
    cfg.faults.dead = {1};
    const std::string warning = apply_with(cfg, "APPFL_FAULT_DEAD", value);
    EXPECT_EQ(cfg.faults.dead, expected);
    const bool bad_token = std::strpbrk(value, "-twox") != nullptr;
    EXPECT_EQ(warning.find("APPFL_FAULT_DEAD") != std::string::npos,
              bad_token);
  }
}

TEST_F(Env, ObsPathsTheLevelCannotProduceAreCleared) {
  // Level off: nothing can be produced.
  RunConfig cfg;
  set("APPFL_OBS_TRACE_OUT", "t.json");
  set("APPFL_OBS_METRICS_OUT", "m.jsonl");
  set("APPFL_OBS_HEALTH_OUT", "h.csv");
  set("APPFL_OBS_CRITPATH_OUT", "c.jsonl");
  set("APPFL_OBS_FLIGHT_DIR", "flight");
  ::testing::internal::CaptureStderr();
  appfl::core::apply_env(cfg);
  EXPECT_NE(::testing::internal::GetCapturedStderr().find("t.json"),
            std::string::npos);
  EXPECT_TRUE(cfg.trace_out.empty() && cfg.metrics_out.empty() &&
              cfg.health_out.empty() && cfg.critpath_out.empty() &&
              cfg.flight_dir.empty());
  EXPECT_NO_THROW(cfg.validate());

  // Level metrics: the span-fed outputs go, the rest stay.
  cfg = RunConfig{};
  set("APPFL_OBS_LEVEL", "metrics");
  ::testing::internal::CaptureStderr();
  appfl::core::apply_env(cfg);
  ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(cfg.trace_out.empty());
  EXPECT_TRUE(cfg.critpath_out.empty());
  EXPECT_EQ(cfg.metrics_out, "m.jsonl");
  EXPECT_EQ(cfg.health_out, "h.csv");
  EXPECT_EQ(cfg.flight_dir, "flight");
  EXPECT_NO_THROW(cfg.validate());

  // An env level below a configured path clears the configured path too.
  ::unsetenv("APPFL_OBS_TRACE_OUT");
  cfg = RunConfig{};
  cfg.obs_level = "trace";
  cfg.trace_out = "configured.json";
  ::testing::internal::CaptureStderr();
  appfl::core::apply_env(cfg);
  ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(cfg.obs_level, "metrics");
  EXPECT_TRUE(cfg.trace_out.empty());
}

TEST_F(Env, KernelOverridesFillOnlyAutoFieldsAndRejectGarbage) {
  RunConfig flagged;
  flagged.kernel_backend = "tiled";
  flagged.kernel_threads = 2;
  set("APPFL_KERNEL_BACKEND", "reference");
  set("APPFL_KERNEL_THREADS", "8");
  appfl::core::apply_env(flagged);
  EXPECT_EQ(flagged.kernel_backend, "tiled");  // the flag wins
  EXPECT_EQ(flagged.kernel_threads, 2U);

  // Garbage used to abort the run at the first GEMM (backend) or be read
  // as a prefix (threads); now both warn and leave the engine default.
  for (const char* threads : {"4x", "-1", "5000", ""}) {
    SCOPED_TRACE(threads);
    RunConfig cfg;
    set("APPFL_KERNEL_BACKEND", "bogus");
    const std::string warning =
        apply_with(cfg, "APPFL_KERNEL_THREADS", threads);
    EXPECT_EQ(cfg.kernel_backend, "auto");
    EXPECT_EQ(cfg.kernel_threads, 0U);
    EXPECT_NE(warning.find("APPFL_KERNEL_BACKEND"), std::string::npos);
    EXPECT_NE(warning.find("APPFL_KERNEL_THREADS"), std::string::npos);
    EXPECT_NO_THROW(cfg.validate());
  }
}

TEST_F(Env, ModeSpecificOverridesApplyOnlyWhereTheRunReadsThem) {
  RunConfig population;
  population.population = 100;
  population.participants_per_round = 10;
  set("APPFL_WIRE_CODEC", "fp16");  // no codec path in the engine
  EXPECT_NE(apply_with(population, "APPFL_TREE_FANOUT", "4")
                .find("APPFL_WIRE_CODEC"),
            std::string::npos);
  EXPECT_EQ(population.tree_fan_out, 4U);
  EXPECT_EQ(population.uplink_codec, appfl::comm::UplinkCodec::kNone);
  EXPECT_NO_THROW(population.validate());
  ::unsetenv("APPFL_WIRE_CODEC");
  EXPECT_NE(apply_with(population, "APPFL_TREE_FANOUT", "x")
                .find("APPFL_TREE_FANOUT"),
            std::string::npos);
  EXPECT_EQ(population.tree_fan_out, 4U);

  RunConfig sync;
  EXPECT_NE(apply_with(sync, "APPFL_TREE_FANOUT", "4").find("population"),
            std::string::npos);
  EXPECT_EQ(sync.tree_fan_out, 0U);
}

TEST_F(Env, EveryAsyncOverrideAppliesValidAndIgnoresGarbage) {
  using R = Row<AsyncConfig>;
  check_rows<AsyncConfig>(
      AsyncConfig{},
      {
          R{"APPFL_ASYNC_STRATEGY", "fedbuff", "fedbuff", "not-a-strategy",
            [](const AsyncConfig& c) {
              return appfl::core::to_string(c.strategy.kind);
            }},
          R{"APPFL_ASYNC_STALENESS_WEIGHT", "hinge", "hinge", "steep",
            [](const AsyncConfig& c) {
              return appfl::core::to_string(c.strategy.weight);
            }},
          R{"APPFL_ASYNC_BUFFER_K", "2", "2", "0",
            [](const AsyncConfig& c) {
              return std::to_string(c.strategy.buffer_k);
            }},
          R{"APPFL_ASYNC_HINGE_S0", "1", "1", "-1",
            [](const AsyncConfig& c) {
              return std::to_string(c.strategy.hinge_s0);
            }},
          // The run-level overrides reach config.run.
          R{"APPFL_FAULT_DROP", "0.3", num(0.3), "x",
            [](const AsyncConfig& c) { return num(c.run.faults.drop); }},
      });
}

TEST_F(Env, LibraryRunsIgnoreTheEnvironment) {
  appfl::data::SynthImageSpec spec;
  spec.num_clients = 3;
  spec.train_per_client = 16;
  spec.test_size = 32;
  const auto split = appfl::data::mnist_like(spec);
  RunConfig cfg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 2;
  cfg.local_steps = 1;
  cfg.batch_size = 16;
  const auto clean = appfl::core::run_federated(cfg, split);

  set("APPFL_FAULT_DROP", "0.5");
  set("APPFL_WIRE_CODEC", "fp16");
  set("APPFL_CKPT_EVERY", "abc");
  set("APPFL_MAILBOX_CAP", "1");
  set("APPFL_OBS_LEVEL", "trace");
  set("APPFL_KERNEL_BACKEND", "bogus");
  const auto stray = appfl::core::run_federated(cfg, split);
  ASSERT_EQ(clean.final_parameters.size(), stray.final_parameters.size());
  EXPECT_EQ(0, std::memcmp(clean.final_parameters.data(),
                           stray.final_parameters.data(),
                           clean.final_parameters.size() * sizeof(float)));
  EXPECT_EQ(clean.traffic.bytes_up, stray.traffic.bytes_up);
  EXPECT_EQ(stray.traffic.drops, 0U);
}

}  // namespace
