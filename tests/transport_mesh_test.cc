// The per-rank mesh endpoint (MakeMeshEndpoint) in one process: three
// endpoints on three threads over connected socket pairs. Every rank sends
// its whole round — a 4 MiB kFactBatch to each peer with small frames
// interleaved — before its first Recv, far past any socket buffer. A mesh
// whose sends block on a full buffer deadlocks here; the endpoint must
// instead flush its queues while it waits in Recv. The test also pins
// per-channel FIFO order, byte-exact payloads and the WireStats counters,
// and that Shutdown delivers frames still queued when it is called.

#include <gtest/gtest.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "transport/transport.h"
#include "transport/wire.h"

namespace lamp::transport {
namespace {

constexpr std::size_t kRanks = 3;
constexpr std::size_t kBigPayload = 4u << 20;

/// The frames rank `from` sends to rank `to`, in channel order: small,
/// big, small, small. Every payload starts with its sequence number and is
/// filled with a pattern of (from, to, seq), so a reordered, truncated or
/// misdelivered frame cannot compare equal.
std::vector<WireFrame> ChannelFrames(std::uint32_t from, std::uint32_t to) {
  std::vector<WireFrame> frames;
  for (std::uint64_t seq = 0; seq < 4; ++seq) {
    const bool big = seq == 1;
    WireFrame frame{kWireVersion, big ? FrameType::kFactBatch
                                      : FrameType::kStats,
                    from, to, {}};
    PutVarint(frame.payload, seq);
    const std::size_t size = big ? kBigPayload : 64 + 16 * seq;
    while (frame.payload.size() < size) {
      frame.payload.push_back(static_cast<std::uint8_t>(
          frame.payload.size() * 31 + from * 7 + to * 3 + seq));
    }
    frames.push_back(std::move(frame));
  }
  return frames;
}

/// Connected socket pairs for a full mesh of kRanks: peers[r][s] is rank
/// r's end of the (r, s) pair.
std::vector<std::vector<FramedFd>> MeshSockets(TransportKind kind) {
  std::vector<std::vector<FramedFd>> peers(kRanks);
  for (auto& row : peers) row.resize(kRanks);
  for (std::size_t r = 0; r < kRanks; ++r) {
    for (std::size_t s = r + 1; s < kRanks; ++s) {
      const std::array<int, 2> pair = SocketPair(kind);
      peers[r][s] = FramedFd(pair[0]);
      peers[s][r] = FramedFd(pair[1]);
    }
  }
  return peers;
}

struct RankResult {
  std::vector<std::vector<WireFrame>> received;  // By source rank.
  WireStats stats;
  std::uint64_t bytes_sent = 0;      // Sum of FrameWireSize, sent.
  std::uint64_t bytes_received = 0;  // Sum of FrameWireSize, received.
};

void RunRank(TransportKind kind, std::uint32_t rank,
             std::vector<FramedFd> peers, RankResult& out) {
  const std::unique_ptr<Transport> mesh =
      MakeMeshEndpoint(kind, rank, std::move(peers));
  // The whole round goes out before the first Recv, channel by channel
  // interleaved: frame k to every peer before frame k + 1 to any.
  for (std::size_t k = 0; k < 4; ++k) {
    for (std::uint32_t to = 0; to < kRanks; ++to) {
      if (to == rank) continue;
      WireFrame frame = ChannelFrames(rank, to)[k];
      out.bytes_sent += FrameWireSize(frame);
      mesh->Send(std::move(frame));
    }
  }
  out.received.resize(kRanks);
  for (std::uint32_t from = 0; from < kRanks; ++from) {
    if (from == rank) continue;
    for (std::size_t k = 0; k < 4; ++k) {
      out.received[from].push_back(mesh->Recv(rank, from));
      out.bytes_received += FrameWireSize(out.received[from].back());
    }
  }
  mesh->Shutdown();
  out.stats = mesh->stats();
}

class MeshEndpointTest : public ::testing::TestWithParam<TransportKind> {};

TEST_P(MeshEndpointTest, WholeRoundSentBeforeAnyRecvCompletes) {
  const TransportKind kind = GetParam();
  std::vector<std::vector<FramedFd>> sockets = MeshSockets(kind);
  std::array<RankResult, kRanks> results;
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < kRanks; ++r) {
    threads.emplace_back(RunRank, kind, r, std::move(sockets[r]),
                         std::ref(results[r]));
  }
  for (std::thread& t : threads) t.join();

  for (std::uint32_t r = 0; r < kRanks; ++r) {
    const RankResult& got = results[r];
    for (std::uint32_t from = 0; from < kRanks; ++from) {
      if (from == r) continue;
      const std::vector<WireFrame> want = ChannelFrames(from, r);
      ASSERT_EQ(got.received[from].size(), want.size());
      for (std::size_t k = 0; k < want.size(); ++k) {
        const WireFrame& frame = got.received[from][k];
        EXPECT_EQ(frame.type, want[k].type) << "rank " << r << " from " << from;
        EXPECT_EQ(frame.from, from);
        EXPECT_EQ(frame.to, r);
        EXPECT_TRUE(frame.payload == want[k].payload)
            << "rank " << r << " from " << from << " frame " << k;
      }
    }
    EXPECT_EQ(got.stats.frames_sent, 4 * (kRanks - 1));
    EXPECT_EQ(got.stats.frames_received, 4 * (kRanks - 1));
    EXPECT_EQ(got.stats.bytes_sent, got.bytes_sent);
    EXPECT_EQ(got.stats.bytes_received, got.bytes_received);
    EXPECT_GT(got.bytes_sent, (kRanks - 1) * kBigPayload);
  }
}

TEST_P(MeshEndpointTest, ShutdownFlushesFramesStillQueued) {
  const TransportKind kind = GetParam();
  std::vector<std::vector<FramedFd>> sockets = MeshSockets(kind);
  // Rank 0 queues 4 MiB to rank 1 and shuts down without receiving; rank 1
  // only starts reading after rank 0 is already in Shutdown. Rank 2 idles.
  const std::vector<WireFrame> want = ChannelFrames(0, 1);
  std::thread sender([&] {
    const std::unique_ptr<Transport> mesh =
        MakeMeshEndpoint(kind, 0, std::move(sockets[0]));
    for (const WireFrame& frame : want) mesh->Send(frame);
    mesh->Shutdown();
  });
  std::vector<WireFrame> got;
  {
    const std::unique_ptr<Transport> idle =
        MakeMeshEndpoint(kind, 2, std::move(sockets[2]));
    const std::unique_ptr<Transport> mesh =
        MakeMeshEndpoint(kind, 1, std::move(sockets[1]));
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (std::size_t k = 0; k < want.size(); ++k) {
      got.push_back(mesh->Recv(1, 0));
    }
  }
  sender.join();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_TRUE(got[k].payload == want[k].payload) << "frame " << k;
  }
}

INSTANTIATE_TEST_SUITE_P(SocketKinds, MeshEndpointTest,
                         ::testing::Values(TransportKind::kUds,
                                           TransportKind::kTcp),
                         [](const auto& info) {
                           return std::string(TransportKindName(info.param));
                         });

}  // namespace
}  // namespace lamp::transport
