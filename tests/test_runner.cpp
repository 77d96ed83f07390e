// FederatedRunner: orchestration, metrics, config validation, factories.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <limits>

#include "core/runner.hpp"
#include "data/synth.hpp"

namespace {

using appfl::core::Algorithm;
using appfl::core::ModelKind;
using appfl::core::RunConfig;

appfl::data::FederatedSplit small_split(std::size_t per_client = 24) {
  appfl::data::SynthImageSpec spec;
  spec.train_per_client = per_client;
  spec.test_size = 32;
  spec.seed = 9;
  return appfl::data::mnist_like(spec);
}

RunConfig quick_config() {
  RunConfig cfg;
  cfg.algorithm = Algorithm::kFedAvg;
  cfg.model = ModelKind::kLogistic;
  cfg.rounds = 3;
  cfg.local_steps = 1;
  cfg.batch_size = 16;
  cfg.seed = 5;
  return cfg;
}

TEST(Runner, ProducesOneMetricsRowPerRound) {
  const auto result = appfl::core::run_federated(quick_config(), small_split());
  ASSERT_EQ(result.rounds.size(), 3U);
  for (std::size_t i = 0; i < result.rounds.size(); ++i) {
    EXPECT_EQ(result.rounds[i].round, i + 1);
    EXPECT_GE(result.rounds[i].test_accuracy, 0.0);
    EXPECT_LE(result.rounds[i].test_accuracy, 1.0);
    EXPECT_GT(result.rounds[i].train_loss, 0.0);
    EXPECT_GT(result.rounds[i].broadcast_s, 0.0);
    EXPECT_GT(result.rounds[i].gather_s, 0.0);
  }
  EXPECT_GT(result.model_parameters, 0U);
}

TEST(Runner, SkipsValidationWhenDisabled) {
  RunConfig cfg = quick_config();
  cfg.validate_every_round = false;
  const auto result = appfl::core::run_federated(cfg, small_split());
  EXPECT_EQ(result.rounds[0].test_accuracy, -1.0);
  EXPECT_EQ(result.rounds[1].test_accuracy, -1.0);
  // The last round always validates.
  EXPECT_GE(result.rounds[2].test_accuracy, 0.0);
  EXPECT_GE(result.final_accuracy, 0.0);
}

TEST(Runner, CumulativeCommSecondsIsMonotone) {
  const auto result = appfl::core::run_federated(quick_config(), small_split());
  const auto cum = result.cumulative_comm_seconds();
  ASSERT_EQ(cum.size(), 3U);
  EXPECT_GT(cum[0], 0.0);
  EXPECT_LT(cum[0], cum[1]);
  EXPECT_LT(cum[1], cum[2]);
  EXPECT_NEAR(cum[2], result.sim_comm_seconds, 1e-9);
}

TEST(Runner, GrpcProtocolRecordsPerClientTimes) {
  RunConfig cfg = quick_config();
  cfg.protocol = appfl::comm::Protocol::kGrpc;
  const auto result = appfl::core::run_federated(cfg, small_split());
  ASSERT_FALSE(result.comm_rounds.empty());
  EXPECT_EQ(result.comm_rounds[0].client_transfer_s.size(), 4U);
}

TEST(Runner, WeightedAggregationMattersForUnevenShards) {
  // Two clients with very different sample counts: the weighted average must
  // differ from the plain average after one round.
  appfl::data::FederatedSplit split;
  split.name = "uneven";
  split.clients.push_back(
      appfl::data::generate_samples(1, 8, 8, 2, 64, 0.5, 31));
  split.clients.push_back(
      appfl::data::generate_samples(1, 8, 8, 2, 4, 0.5, 32));
  split.test = appfl::data::generate_samples(1, 8, 8, 2, 32, 0.5, 33);

  RunConfig cfg = quick_config();
  cfg.rounds = 2;
  const auto weighted = appfl::core::run_federated(cfg, split);
  cfg.weighted_aggregation = false;
  const auto plain = appfl::core::run_federated(cfg, split);
  EXPECT_NE(weighted.rounds[1].train_loss, plain.rounds[1].train_loss);
}

TEST(Runner, ManyClientsRunThroughTheThreadPool) {
  appfl::data::FemnistSpec spec;
  spec.num_writers = 16;
  spec.mean_samples_per_writer = 10;
  spec.test_size = 16;
  const auto split = appfl::data::femnist_like(spec);
  RunConfig cfg = quick_config();
  cfg.rounds = 2;
  cfg.validate_every_round = false;
  const auto result = appfl::core::run_federated(cfg, split);
  EXPECT_EQ(result.traffic.messages_up, 2U * 16U);
}

TEST(Runner, MailboxCapBelowCohortFailsFast) {
  // Regression: a cap below the round cohort overflowed the server mailbox,
  // and the fault-free gather then waited forever for the lost updates.
  const auto split = small_split();
  ASSERT_EQ(split.num_clients(), 4U);
  RunConfig cfg = quick_config();
  cfg.mailbox_capacity = 3;
  EXPECT_THROW(appfl::core::run_federated(cfg, split), appfl::Error);
  cfg.client_fraction = 0.5;  // cohort of 2
  cfg.mailbox_capacity = 1;
  EXPECT_THROW(appfl::core::run_federated(cfg, split), appfl::Error);
  cfg.mailbox_capacity = 2;
  EXPECT_EQ(appfl::core::run_federated(cfg, split).rounds.size(), 3U);
}

TEST(BuildModel, AllKindsMatchDataShape) {
  const auto split = small_split(8);
  for (ModelKind kind :
       {ModelKind::kPaperCnn, ModelKind::kMlp, ModelKind::kLogistic}) {
    RunConfig cfg = quick_config();
    cfg.model = kind;
    auto model = appfl::core::build_model(cfg, split.test);
    EXPECT_GT(model->num_parameters(), 0U) << appfl::core::to_string(kind);
  }
}

TEST(BuildFactories, ProduceMatchingAlgorithmPairs) {
  const auto split = small_split(8);
  for (Algorithm alg :
       {Algorithm::kFedAvg, Algorithm::kIceAdmm, Algorithm::kIIAdmm}) {
    RunConfig cfg = quick_config();
    cfg.algorithm = alg;
    auto model = appfl::core::build_model(cfg, split.test);
    auto client = appfl::core::build_client(1, cfg, *model, split.clients[0]);
    auto server = appfl::core::build_server(cfg, std::move(model), split.test,
                                            1);
    EXPECT_EQ(client->num_parameters(), server->num_parameters());
  }
}

TEST(Config, ValidationCatchesBadSettings) {
  RunConfig cfg = quick_config();
  cfg.rounds = 0;
  EXPECT_THROW(cfg.validate(), appfl::Error);

  cfg = quick_config();
  cfg.epsilon = 5.0;
  cfg.clip = 0.0F;  // finite ε without clipping is unsound
  EXPECT_THROW(cfg.validate(), appfl::Error);

  cfg = quick_config();
  cfg.algorithm = Algorithm::kIIAdmm;
  cfg.rho = 0.0F;
  EXPECT_THROW(cfg.validate(), appfl::Error);

  cfg = quick_config();
  cfg.momentum = 1.0F;
  EXPECT_THROW(cfg.validate(), appfl::Error);
}

TEST(Config, SensitivityDependsOnAlgorithm) {
  RunConfig cfg = quick_config();
  cfg.clip = 1.0F;
  cfg.lr = 0.1F;
  cfg.algorithm = Algorithm::kFedAvg;
  EXPECT_NEAR(cfg.sensitivity(), 0.2, 1e-6);
  cfg.algorithm = Algorithm::kIIAdmm;
  cfg.rho = 5.0F;
  cfg.zeta = 5.0F;
  EXPECT_NEAR(cfg.sensitivity(), 0.2, 1e-6);
  cfg.zeta = 15.0F;
  EXPECT_NEAR(cfg.sensitivity(), 0.1, 1e-6);
}

TEST(Runner, TrafficScalesWithModelAndClientsAndRounds) {
  RunConfig cfg = quick_config();
  cfg.validate_every_round = false;
  const auto split = small_split(8);
  const auto r1 = appfl::core::run_federated(cfg, split);
  cfg.rounds = 6;
  const auto r2 = appfl::core::run_federated(cfg, split);
  EXPECT_NEAR(static_cast<double>(r2.traffic.bytes_up) / r1.traffic.bytes_up,
              2.0, 0.01);
}

}  // namespace
