// Fused decode→aggregate data path: the streaming aggregation entry points
// and the servers' absorb() overrides must be bit-identical to the classic
// decode-then-reduce path — per kernel (f32 and f16 payloads, every thread
// count), and end to end through the runner (every algorithm × codec,
// fused vs a server that declines absorb() and so takes the classic path).
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <cstring>

#include "comm/compression.hpp"
#include "core/aggregate.hpp"
#include "core/fedavg.hpp"
#include "core/iceadmm.hpp"
#include "core/iiadmm.hpp"
#include "core/runner.hpp"
#include "data/synth.hpp"
#include "rng/distributions.hpp"
#include "scoped_kernel_config.hpp"

namespace {

using appfl::comm::UplinkCodec;
using appfl::comm::WirePayload;
using appfl::core::Algorithm;
using appfl::core::RunConfig;
using appfl::testutil::ScopedKernelConfig;

std::vector<float> gaussian_vec(std::uint64_t seed, std::size_t n) {
  appfl::rng::Rng r(seed);
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(appfl::rng::normal(r, 0.0, 1.0));
  return v;
}

std::vector<std::uint8_t> f32_bytes(const std::vector<float>& v) {
  std::vector<std::uint8_t> bytes(v.size() * 4);
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

// fp16 payload plus its exactly-decoded float values, so the stream result
// can be compared against the span form fed with identical inputs.
struct F16Case {
  std::vector<std::uint8_t> bytes;  // packed binary16, no header
  std::vector<float> decoded;
};

F16Case f16_case(std::uint64_t seed, std::size_t n) {
  const auto v = gaussian_vec(seed, n);
  F16Case c;
  c.bytes.resize(2 * n);
  c.decoded.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint16_t h = appfl::comm::float_to_half(v[i]);
    std::memcpy(c.bytes.data() + 2 * i, &h, 2);
    c.decoded[i] = appfl::comm::half_to_float(h);
  }
  return c;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * 4) == 0;
}

// Sizes straddle kParallelAggregateThreshold so both the serial-block and
// pooled fan-out paths run; thread counts 1/2/8 must all agree bitwise.
const std::size_t kSizes[] = {1000, 40000};
const std::size_t kThreads[] = {1, 2, 8};

TEST(FusedStream, WeightedSumMatchesSpanFormEveryThreadCount) {
  for (const std::size_t n : kSizes) {
    std::vector<std::vector<float>> vecs;
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<appfl::core::WeightedVec> span_terms;
    std::vector<appfl::core::StreamTerm> stream_terms;
    for (std::size_t p = 0; p < 7; ++p) {
      vecs.push_back(gaussian_vec(p + 1, n));
      bytes.push_back(f32_bytes(vecs.back()));
      const float w = 0.1F * static_cast<float>(p + 1);
      span_terms.push_back({vecs[p], w});
      stream_terms.push_back({WirePayload::f32_bytes(bytes[p].data(), n), w});
    }
    std::vector<float> reference(n);
    {
      const ScopedKernelConfig serial(appfl::tensor::kernel_config().backend,
                                      1);
      appfl::core::weighted_sum(span_terms, reference);
    }
    for (const std::size_t threads : kThreads) {
      const ScopedKernelConfig engine(appfl::tensor::kernel_config().backend,
                                      threads);
      std::vector<float> fused(n);
      appfl::core::weighted_sum_stream(stream_terms, fused);
      EXPECT_TRUE(same_bits(reference, fused))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(FusedStream, ConsensusSumMatchesSpanFormEveryThreadCount) {
  for (const std::size_t n : kSizes) {
    std::vector<std::vector<float>> vecs;
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<appfl::core::ConsensusTerm> span_terms;
    std::vector<appfl::core::ConsensusStreamTerm> stream_terms;
    for (std::size_t p = 0; p < 10; ++p) {
      vecs.push_back(gaussian_vec(p + 1, n));
      bytes.push_back(f32_bytes(vecs.back()));
    }
    for (std::size_t p = 0; p < 5; ++p) {
      span_terms.push_back({vecs[2 * p], vecs[2 * p + 1]});
      stream_terms.push_back(
          {WirePayload::f32_bytes(bytes[2 * p].data(), n),
           WirePayload::f32_bytes(bytes[2 * p + 1].data(), n)});
    }
    std::vector<float> reference(n);
    {
      const ScopedKernelConfig serial(appfl::tensor::kernel_config().backend,
                                      1);
      appfl::core::consensus_sum(span_terms, 0.2F, 0.5F, reference);
    }
    for (const std::size_t threads : kThreads) {
      const ScopedKernelConfig engine(appfl::tensor::kernel_config().backend,
                                      threads);
      std::vector<float> fused(n);
      appfl::core::consensus_sum_stream(stream_terms, 0.2F, 0.5F, fused);
      EXPECT_TRUE(same_bits(reference, fused))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(FusedStream, WeightedDeltaMatchesSpanFormEveryThreadCount) {
  for (const std::size_t n : kSizes) {
    const std::vector<float> base = gaussian_vec(99, n);
    std::vector<std::vector<float>> vecs;
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<appfl::core::DeltaTerm> span_terms;
    std::vector<appfl::core::DeltaStreamTerm> stream_terms;
    for (std::size_t p = 0; p < 4; ++p) {
      vecs.push_back(gaussian_vec(p + 7, n));
      bytes.push_back(f32_bytes(vecs.back()));
      const double w = 0.25 * static_cast<double>(p + 1);
      span_terms.push_back({vecs[p], w});
      stream_terms.push_back({WirePayload::f32_bytes(bytes[p].data(), n), w});
    }
    std::vector<double> reference(n);
    {
      const ScopedKernelConfig serial(appfl::tensor::kernel_config().backend,
                                      1);
      appfl::core::weighted_delta(span_terms, base, reference);
    }
    for (const std::size_t threads : kThreads) {
      const ScopedKernelConfig engine(appfl::tensor::kernel_config().backend,
                                      threads);
      std::vector<double> fused(n);
      appfl::core::weighted_delta_stream(stream_terms, base, fused);
      ASSERT_EQ(reference.size(), fused.size());
      EXPECT_EQ(0, std::memcmp(reference.data(), fused.data(), 8 * n))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(FusedStream, F16PayloadsWidenExactly) {
  for (const std::size_t n : kSizes) {
    std::vector<F16Case> cases;
    std::vector<appfl::core::WeightedVec> span_terms;
    std::vector<appfl::core::StreamTerm> stream_terms;
    for (std::size_t p = 0; p < 3; ++p) cases.push_back(f16_case(p + 1, n));
    for (std::size_t p = 0; p < 3; ++p) {
      span_terms.push_back({cases[p].decoded, 0.5F});
      stream_terms.push_back(
          {WirePayload::f16_bytes(cases[p].bytes.data(), n), 0.5F});
    }
    std::vector<float> reference(n);
    appfl::core::weighted_sum(span_terms, reference);
    for (const std::size_t threads : kThreads) {
      const ScopedKernelConfig engine(appfl::tensor::kernel_config().backend,
                                      threads);
      std::vector<float> fused(n);
      appfl::core::weighted_sum_stream(stream_terms, fused);
      EXPECT_TRUE(same_bits(reference, fused))
          << "n=" << n << " threads=" << threads;
    }
  }
}

TEST(FusedStream, MaterializeChunkMatchesFullDecode) {
  const std::size_t n = 5000;
  const auto v = gaussian_vec(42, n);
  const auto bytes = f32_bytes(v);
  const F16Case half = f16_case(43, n);
  std::vector<float> out(n, -1.0F);
  appfl::core::materialize_chunk(WirePayload::f32_bytes(bytes.data(), n), 100,
                                 4100, out.data());
  EXPECT_TRUE(same_bits({v.data() + 100, 4000}, {out.data(), 4000}));
  appfl::core::materialize_chunk(WirePayload::f16_bytes(half.bytes.data(), n),
                                 0, n, out.data());
  EXPECT_TRUE(same_bits(half.decoded, out));
}

// -- End to end: fused servers vs the classic update() path ------------------

appfl::data::FederatedSplit make_split() {
  appfl::data::SynthImageSpec spec;
  spec.num_clients = 3;
  spec.train_per_client = 32;
  spec.test_size = 64;
  spec.seed = 91;
  return appfl::data::mnist_like(spec);
}

RunConfig fused_cfg(Algorithm alg) {
  RunConfig cfg;
  cfg.algorithm = alg;
  cfg.model = appfl::core::ModelKind::kLogistic;
  cfg.rounds = 4;
  cfg.local_steps = 2;
  cfg.batch_size = 16;
  cfg.seed = 7;
  cfg.validate_every_round = false;
  return cfg;
}

// Declining absorb() is how a server without a fused path behaves: the
// runner materializes the batch and calls update() — the classic path.
template <class Server>
class ClassicPathServer : public Server {
 public:
  using Server::Server;
  bool absorb(const appfl::comm::GatherBatch& /*batch*/,
              std::span<const float> /*global*/,
              std::uint32_t /*round*/) override {
    return false;
  }
};

// run_federated(cfg, split) with the algorithm's server on the classic path.
appfl::core::RunResult run_classic(const RunConfig& cfg,
                                   const appfl::data::FederatedSplit& split) {
  std::unique_ptr<appfl::nn::Module> model =
      appfl::core::build_model(cfg, split.test);
  std::vector<std::unique_ptr<appfl::core::BaseClient>> clients;
  for (std::size_t p = 0; p < split.clients.size(); ++p) {
    clients.push_back(appfl::core::build_client(
        static_cast<std::uint32_t>(p + 1), cfg, *model, split.clients[p]));
  }
  std::unique_ptr<appfl::core::BaseServer> server;
  switch (cfg.algorithm) {
    case Algorithm::kFedAvg:
    case Algorithm::kFedProx:
      server = std::make_unique<ClassicPathServer<appfl::core::FedAvgServer>>(
          cfg, std::move(model), split.test, clients.size());
      break;
    case Algorithm::kIceAdmm:
      server = std::make_unique<ClassicPathServer<appfl::core::IceAdmmServer>>(
          cfg, std::move(model), split.test, clients.size());
      break;
    case Algorithm::kIIAdmm:
      server = std::make_unique<ClassicPathServer<appfl::core::IIAdmmServer>>(
          cfg, std::move(model), split.test, clients.size());
      break;
  }
  return appfl::core::run_federated(cfg, *server, clients);
}

void expect_fused_matches_unfused(const RunConfig& cfg,
                                  const appfl::data::FederatedSplit& split) {
  const auto fused = appfl::core::run_federated(cfg, split);
  const auto classic = run_classic(cfg, split);
  ASSERT_EQ(fused.final_parameters.size(), classic.final_parameters.size());
  EXPECT_TRUE(same_bits(fused.final_parameters, classic.final_parameters));
  EXPECT_EQ(fused.traffic.bytes_up, classic.traffic.bytes_up);
  ASSERT_EQ(fused.rounds.size(), classic.rounds.size());
  for (std::size_t r = 0; r < fused.rounds.size(); ++r) {
    EXPECT_EQ(fused.rounds[r].responders, classic.rounds[r].responders);
    EXPECT_EQ(fused.rounds[r].train_loss, classic.rounds[r].train_loss);
  }
}

TEST(FusedEndToEnd, EveryAlgorithmBitIdenticalToClassicPath) {
  const auto split = make_split();
  for (const Algorithm alg : {Algorithm::kFedAvg, Algorithm::kFedProx,
                              Algorithm::kIceAdmm, Algorithm::kIIAdmm}) {
    SCOPED_TRACE(appfl::core::to_string(alg));
    expect_fused_matches_unfused(fused_cfg(alg), split);
  }
}

TEST(FusedEndToEnd, EveryCodecBitIdenticalToClassicPath) {
  const auto split = make_split();
  for (const UplinkCodec codec :
       {UplinkCodec::kNone, UplinkCodec::kFp16, UplinkCodec::kQuant8,
        UplinkCodec::kTopK, UplinkCodec::kInt8Ef}) {
    SCOPED_TRACE(appfl::comm::to_string(codec));
    RunConfig cfg = fused_cfg(Algorithm::kFedAvg);
    cfg.uplink_codec = codec;
    expect_fused_matches_unfused(cfg, split);
  }
}

TEST(FusedEndToEnd, AdaptiveRhoFallsBackAndStaysCorrect) {
  // Adaptive-ρ ADMM declines the fused path (absorb returns false); the
  // run must still complete identically to the forced classic path.
  const auto split = make_split();
  for (const Algorithm alg : {Algorithm::kIceAdmm, Algorithm::kIIAdmm}) {
    SCOPED_TRACE(appfl::core::to_string(alg));
    RunConfig cfg = fused_cfg(alg);
    cfg.adaptive_rho = true;
    expect_fused_matches_unfused(cfg, split);
  }
}

TEST(FusedEndToEnd, PartialParticipationBitIdentical) {
  const auto split = make_split();
  for (const Algorithm alg : {Algorithm::kFedAvg, Algorithm::kIIAdmm}) {
    SCOPED_TRACE(appfl::core::to_string(alg));
    RunConfig cfg = fused_cfg(alg);
    cfg.client_fraction = 0.67;  // 2 of 3 clients per round
    expect_fused_matches_unfused(cfg, split);
  }
}

}  // namespace
