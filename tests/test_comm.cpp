// Communicator end-to-end: broadcast/gather over both protocols with real
// encode/decode, byte accounting, and the per-round timing ledger.
#include <gtest/gtest.h>

#include "util/check.hpp"

#include <thread>

#include "comm/communicator.hpp"

namespace {

using appfl::comm::Communicator;
using appfl::comm::Message;
using appfl::comm::MessageKind;
using appfl::comm::Protocol;

Message global_msg(std::uint32_t round, std::size_t m) {
  Message msg;
  msg.kind = MessageKind::kGlobalModel;
  msg.sender = 0;
  msg.round = round;
  msg.primal.assign(m, 0.5F);
  return msg;
}

Message local_msg(std::uint32_t client, std::uint32_t round, std::size_t m,
                  bool dual = false) {
  Message msg;
  msg.kind = MessageKind::kLocalUpdate;
  msg.sender = client;
  msg.round = round;
  msg.primal.assign(m, static_cast<float>(client));
  if (dual) msg.dual.assign(m, 1.0F);
  msg.sample_count = 10 * client;
  return msg;
}

class CommProtocolTest : public testing::TestWithParam<Protocol> {};

TEST_P(CommProtocolTest, OneRoundBroadcastAndGather) {
  Communicator comm(GetParam(), 4, 1);
  comm.broadcast_global(global_msg(1, 64));
  for (std::uint32_t c = 1; c <= 4; ++c) {
    const Message g = comm.recv_global(c);
    EXPECT_EQ(g.kind, MessageKind::kGlobalModel);
    EXPECT_EQ(g.round, 1U);
    EXPECT_EQ(g.primal.size(), 64U);
    comm.send_update(c, local_msg(c, 1, 64));
  }
  const auto locals = comm.gather_locals(1);
  ASSERT_EQ(locals.size(), 4U);
  for (std::uint32_t c = 1; c <= 4; ++c) {
    EXPECT_EQ(locals[c - 1].sender, c);           // ordered by client id
    EXPECT_EQ(locals[c - 1].primal[0], static_cast<float>(c));
    EXPECT_EQ(locals[c - 1].sample_count, 10U * c);
  }
}

TEST_P(CommProtocolTest, TrafficAccountingMatchesEncodedSizes) {
  Communicator comm(GetParam(), 2, 1);
  const Message g = global_msg(1, 100);
  comm.broadcast_global(g);
  EXPECT_EQ(comm.stats().messages_down, 2U);
  // Uplink.
  const Message u1 = local_msg(1, 1, 100);
  const Message u2 = local_msg(2, 1, 100, /*dual=*/true);
  comm.send_update(1, u1);
  comm.send_update(2, u2);
  comm.recv_global(1);
  comm.recv_global(2);
  (void)comm.gather_locals(1);

  const auto encoded = [&](const Message& m) {
    return GetParam() == Protocol::kMpi ? appfl::comm::raw_encoded_size(m)
                                        : appfl::comm::proto_encoded_size(m);
  };
  EXPECT_EQ(comm.stats().bytes_up, encoded(u1) + encoded(u2));
  EXPECT_EQ(comm.stats().messages_up, 2U);
  EXPECT_GT(comm.stats().bytes_down, 0U);
}

TEST_P(CommProtocolTest, RoundLogAdvancesSimClock) {
  Communicator comm(GetParam(), 3, 1);
  for (std::uint32_t round = 1; round <= 2; ++round) {
    comm.broadcast_global(global_msg(round, 32));
    for (std::uint32_t c = 1; c <= 3; ++c) {
      comm.recv_global(c);
      comm.send_update(c, local_msg(c, round, 32));
    }
    (void)comm.gather_locals(round);
  }
  ASSERT_EQ(comm.round_log().size(), 2U);
  for (const auto& rec : comm.round_log()) {
    EXPECT_GT(rec.broadcast_s, 0.0);
    EXPECT_GT(rec.gather_s, 0.0);
  }
  EXPECT_NEAR(comm.clock().now(),
              comm.round_log()[0].total_s() + comm.round_log()[1].total_s(),
              1e-12);
}

TEST_P(CommProtocolTest, ConcurrentClientsWork) {
  Communicator comm(GetParam(), 6, 1);
  comm.broadcast_global(global_msg(1, 16));
  std::vector<std::thread> threads;
  for (std::uint32_t c = 1; c <= 6; ++c) {
    threads.emplace_back([&comm, c] {
      const Message g = comm.recv_global(c);
      comm.send_update(c, local_msg(c, g.round, 16));
    });
  }
  for (auto& t : threads) t.join();
  const auto locals = comm.gather_locals(1);
  EXPECT_EQ(locals.size(), 6U);
}

INSTANTIATE_TEST_SUITE_P(Protocols, CommProtocolTest,
                         testing::Values(Protocol::kMpi, Protocol::kGrpc),
                         [](const testing::TestParamInfo<Protocol>& i) {
                           return appfl::comm::to_string(i.param);
                         });

TEST(Communicator, GrpcRecordsPerClientTransferTimes) {
  Communicator comm(Protocol::kGrpc, 5, 1);
  comm.broadcast_global(global_msg(1, 8));
  for (std::uint32_t c = 1; c <= 5; ++c) {
    comm.recv_global(c);
    comm.send_update(c, local_msg(c, 1, 8));
  }
  (void)comm.gather_locals(1);
  ASSERT_EQ(comm.round_log().size(), 1U);
  EXPECT_EQ(comm.round_log()[0].client_transfer_s.size(), 5U);
  for (double t : comm.round_log()[0].client_transfer_s) EXPECT_GT(t, 0.0);
}

TEST(Communicator, MpiHasNoPerClientTimes) {
  Communicator comm(Protocol::kMpi, 2, 1);
  comm.broadcast_global(global_msg(1, 8));
  for (std::uint32_t c = 1; c <= 2; ++c) {
    comm.recv_global(c);
    comm.send_update(c, local_msg(c, 1, 8));
  }
  (void)comm.gather_locals(1);
  EXPECT_TRUE(comm.round_log()[0].client_transfer_s.empty());
}

TEST(Communicator, GatherDiscardsRoundMismatch) {
  // A stale-round update must be dropped and counted, never fatal — under
  // fault injection a delayed uplink can legitimately arrive a round late.
  Communicator comm(Protocol::kMpi, 2, 1);
  comm.broadcast_global(global_msg(2, 4));
  comm.recv_global(1);
  comm.recv_global(2);
  comm.send_update(1, local_msg(1, /*round=*/1, 4));  // leftover from round 1
  comm.send_update(2, local_msg(2, /*round=*/2, 4));
  const auto locals = comm.gather_locals(2, /*expected=*/1);
  ASSERT_EQ(locals.size(), 1U);
  EXPECT_EQ(locals[0].sender, 2U);
  EXPECT_EQ(comm.stats().discards, 1U);
}

TEST(Communicator, GatherDiscardsDuplicateSenders) {
  Communicator comm(Protocol::kMpi, 2, 1);
  comm.broadcast_global(global_msg(1, 4));
  comm.recv_global(1);
  comm.recv_global(2);
  comm.send_update(1, local_msg(1, 1, 4));
  comm.send_update(1, local_msg(1, 1, 4));  // double send (e.g. app retry)
  comm.send_update(2, local_msg(2, 1, 4));
  const auto locals = comm.gather_locals(1, /*expected=*/2);
  ASSERT_EQ(locals.size(), 2U);
  EXPECT_EQ(locals[0].sender, 1U);
  EXPECT_EQ(locals[1].sender, 2U);
  EXPECT_EQ(comm.stats().discards, 1U);
}

TEST(Communicator, FaultFreeGatherDiagnosesUnfillableExpectation) {
  // Fault plane off, a discarded message can never be replaced by a
  // retransmission; once the mailbox runs dry short of `expected` the
  // gather must fail loudly with a diagnosis instead of blocking forever.
  Communicator comm(Protocol::kMpi, 2, 1);
  comm.broadcast_global(global_msg(2, 4));
  comm.recv_global(1);
  comm.recv_global(2);
  comm.send_update(1, local_msg(1, /*round=*/1, 4));  // stale — discarded
  EXPECT_THROW(comm.gather_locals(2, /*expected=*/1), appfl::Error);
}

TEST(Communicator, FaultFreeShortGatherFailsFast) {
  // Fault plane off, callers send before they gather: a mailbox holding
  // one update can never supply a second, so the gather throws instead of
  // blocking forever in the mailbox.
  Communicator comm(Protocol::kMpi, 2, 1);
  comm.broadcast_global(global_msg(1, 4));
  comm.recv_global(1);
  comm.recv_global(2);
  comm.send_update(1, local_msg(1, 1, 4));
  EXPECT_THROW(comm.gather_locals(1, /*expected=*/2), appfl::Error);
}

TEST(Communicator, SenderFieldMustMatchClient) {
  Communicator comm(Protocol::kMpi, 2, 1);
  EXPECT_THROW(comm.send_update(1, local_msg(2, 1, 4)), appfl::Error);
  EXPECT_THROW(comm.send_update(3, local_msg(3, 1, 4)), appfl::Error);
}

TEST(Communicator, BroadcastMustComeFromServer) {
  Communicator comm(Protocol::kMpi, 2, 1);
  Message m = global_msg(1, 4);
  m.sender = 1;
  EXPECT_THROW(comm.broadcast_global(m), appfl::Error);
}

TEST(Communicator, GrpcJitterDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    Communicator comm(Protocol::kGrpc, 3, seed);
    comm.broadcast_global(global_msg(1, 8));
    for (std::uint32_t c = 1; c <= 3; ++c) {
      comm.recv_global(c);
      comm.send_update(c, local_msg(c, 1, 8));
    }
    (void)comm.gather_locals(1);
    return comm.round_log()[0].gather_s;
  };
  EXPECT_EQ(run(42), run(42));
  EXPECT_NE(run(42), run(43));
}

}  // namespace
