// lamp.wire.v1 unit + property + golden tests.
//
// Three layers of pinning: (1) primitive and payload round-trips over
// seeded random inputs — every encode must decode back to itself through
// arbitrary chunk boundaries; (2) malformed-input rejection (future
// version, oversized body, unknown type, truncation) without misparses;
// (3) a committed golden frame dump (tests/golden/wire_frames.bin) that
// freezes the byte layout itself, so an accidental encoding change breaks
// the build even if encoder and decoder drift together.
//
// Regenerate the golden after an intentional format change (bump
// kWireVersion!) with:
//   LAMP_REGEN_GOLDEN=1 ./build/tests/transport_wire_test

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "transport/wire.h"

#ifndef LAMP_TESTS_DIR
#error "tests/CMakeLists.txt must define LAMP_TESTS_DIR"
#endif

namespace lamp::transport {
namespace {

std::string GoldenPath() {
  return std::string(LAMP_TESTS_DIR) + "/golden/wire_frames.bin";
}

Fact RandomFact(Rng& rng) {
  const auto relation = static_cast<RelationId>(rng.Uniform(64));
  const std::size_t arity = rng.Uniform(5);
  std::vector<Value> args;
  for (std::size_t i = 0; i < arity; ++i) {
    // Mix magnitudes: tiny values, negatives and full-range 64-bit ones
    // all have distinct varint/zigzag paths.
    switch (rng.Uniform(3)) {
      case 0:
        args.push_back(Value(rng.UniformInt(-10, 10)));
        break;
      case 1:
        args.push_back(Value(rng.UniformInt(-100000, 100000)));
        break;
      default:
        args.push_back(Value(static_cast<std::int64_t>(rng.Next())));
        break;
    }
  }
  return Fact(relation, std::move(args));
}

// Row references to \p facts, the batch encoder's input.
std::vector<RowRef> RowRefs(const std::vector<Fact>& facts) {
  std::vector<RowRef> refs;
  for (const Fact& f : facts) {
    refs.push_back(RowRef{f.relation, f.args.data(),
                          static_cast<std::uint32_t>(f.args.size())});
  }
  return refs;
}

// The decoded rows as facts, in row order.
std::vector<Fact> RowsAsFacts(const FactBatchRows& rows) {
  std::vector<Fact> facts;
  const Value* at = rows.values.data();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    facts.emplace_back(rows.relation[i],
                       std::vector<Value>(at, at + rows.arity[i]));
    at += rows.arity[i];
  }
  EXPECT_EQ(at, rows.values.data() + rows.values.size());
  return facts;
}

TEST(WireTest, VarintRoundTripAndSize) {
  Rng rng(5);
  std::vector<std::uint64_t> values = {0,       1,
                                       127,     128,
                                       16383,   16384,
                                       ~0ull,   0x8000000000000000ull};
  for (int i = 0; i < 200; ++i) values.push_back(rng.Next() >> rng.Uniform(64));
  for (std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    PutVarint(buf, v);
    EXPECT_EQ(buf.size(), VarintSize(v)) << v;
    WireReader reader(buf);
    const auto back = reader.ReadVarint();
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(WireTest, ZigzagRoundTripAndSize) {
  Rng rng(6);
  std::vector<std::int64_t> values = {0, -1, 1, -64, 63, -65, 64,
                                      std::numeric_limits<std::int64_t>::min(),
                                      std::numeric_limits<std::int64_t>::max()};
  for (int i = 0; i < 200; ++i) {
    values.push_back(static_cast<std::int64_t>(rng.Next()) >> rng.Uniform(63));
  }
  for (std::int64_t v : values) {
    std::vector<std::uint8_t> buf;
    PutZigzag(buf, v);
    EXPECT_EQ(buf.size(), ZigzagSize(v)) << v;
    WireReader reader(buf);
    const auto back = reader.ReadZigzag();
    ASSERT_TRUE(back.has_value()) << v;
    EXPECT_EQ(*back, v);
  }
}

TEST(WireTest, FactRoundTripProperty) {
  Rng rng(7);
  for (int i = 0; i < 500; ++i) {
    const Fact fact = RandomFact(rng);
    std::vector<std::uint8_t> buf;
    PutFact(buf, fact);
    EXPECT_EQ(buf.size(), EncodedFactSize(fact));
    WireReader reader(buf);
    const auto back = ReadFact(reader);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, fact);
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(WireTest, PayloadRoundTrips) {
  Rng rng(8);
  std::vector<Fact> owned;
  for (int i = 0; i < 20; ++i) owned.push_back(RandomFact(rng));

  const auto hello = DecodeHelloPayload(EncodeHelloPayload(3, 0xdeadbeef));
  ASSERT_TRUE(hello.has_value());
  EXPECT_EQ(hello->rank, 3u);
  EXPECT_EQ(hello->seed, 0xdeadbeefull);
  EXPECT_EQ(hello->features, 0u);

  // Featureless encoding is byte-identical to features=0 (the optional
  // trailing varint is omitted), and nonzero features round-trip.
  EXPECT_EQ(EncodeHelloPayload(3, 0xdeadbeef),
            EncodeHelloPayload(3, 0xdeadbeef, 0));
  const auto featured = DecodeHelloPayload(
      EncodeHelloPayload(3, 0xdeadbeef, kHelloFeatureTraceCtx));
  ASSERT_TRUE(featured.has_value());
  EXPECT_EQ(featured->rank, 3u);
  EXPECT_EQ(featured->seed, 0xdeadbeefull);
  EXPECT_EQ(featured->features, kHelloFeatureTraceCtx);

  const auto ctx = DecodeTraceCtxPayload(
      EncodeTraceCtxPayload(0x1122334455667788ull, 4242, 9));
  ASSERT_TRUE(ctx.has_value());
  EXPECT_EQ(ctx->trace_id, 0x1122334455667788ull);
  EXPECT_EQ(ctx->span, 4242u);
  EXPECT_EQ(ctx->round, 9u);

  FactBatchRows rows;
  ASSERT_TRUE(
      DecodeFactBatchRows(EncodeFactBatchPayload(9, RowRefs(owned)), 9, rows));
  EXPECT_EQ(RowsAsFacts(rows), owned);

  const auto msg =
      DecodeMessagePayload(EncodeMessagePayload(42, 7, 12345, owned));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->seq, 42u);
  EXPECT_EQ(msg->depth, 7u);
  EXPECT_EQ(msg->parent, 12345u);
  EXPECT_EQ(msg->facts.size(), owned.size());

  const auto stats = DecodeStatsPayload(EncodeStatsPayload(1, 999, 80000));
  ASSERT_TRUE(stats.has_value());
  EXPECT_EQ(stats->received, 999u);
  EXPECT_EQ(stats->wire_bytes, 80000u);
}

TEST(WireTest, FrameRoundTripThroughArbitraryChunks) {
  Rng rng(9);
  // A frame stream with mixed types and payload sizes.
  std::vector<WireFrame> frames;
  for (int i = 0; i < 40; ++i) {
    WireFrame frame;
    frame.from = static_cast<std::uint32_t>(rng.Uniform(300));
    frame.to = static_cast<std::uint32_t>(rng.Uniform(300));
    std::vector<Fact> owned;
    for (std::size_t k = rng.Uniform(8); k > 0; --k) {
      owned.push_back(RandomFact(rng));
    }
    switch (rng.Uniform(3)) {
      case 0:
        frame.type = FrameType::kFactBatch;
        frame.payload = EncodeFactBatchPayload(rng.Uniform(5), RowRefs(owned));
        break;
      case 1:
        frame.type = FrameType::kMessage;
        frame.payload =
            EncodeMessagePayload(rng.Next(), rng.Uniform(50),
                                 static_cast<std::uint32_t>(rng.Uniform(99)),
                                 owned);
        break;
      default:
        frame.type = FrameType::kShutdown;
        break;
    }
    frames.push_back(std::move(frame));
  }

  std::vector<std::uint8_t> stream;
  std::size_t expected_bytes = 0;
  for (const WireFrame& frame : frames) {
    AppendFrame(stream, frame);
    expected_bytes += FrameWireSize(frame);
  }
  EXPECT_EQ(stream.size(), expected_bytes);

  // Feed in random chunks (including empty ones); every frame must come
  // back intact and in order.
  FrameDecoder decoder;
  std::size_t fed = 0;
  std::vector<WireFrame> decoded;
  while (fed < stream.size()) {
    const std::size_t chunk =
        std::min<std::size_t>(rng.Uniform(97), stream.size() - fed);
    decoder.Feed(stream.data() + fed, chunk);
    fed += chunk;
    while (auto frame = decoder.Next()) decoded.push_back(std::move(*frame));
  }
  ASSERT_FALSE(decoder.error());
  ASSERT_EQ(decoded.size(), frames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(decoded[i].type, frames[i].type) << i;
    EXPECT_EQ(decoded[i].from, frames[i].from) << i;
    EXPECT_EQ(decoded[i].to, frames[i].to) << i;
    EXPECT_EQ(decoded[i].payload, frames[i].payload) << i;
  }
}

TEST(WireTest, DecoderRejectsMalformedStreams) {
  // Future version byte.
  {
    WireFrame frame;
    frame.type = FrameType::kShutdown;
    std::vector<std::uint8_t> bytes;
    AppendFrame(bytes, frame);
    bytes[4] = kWireVersion + 1;  // Version byte sits after the u32 length.
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_TRUE(decoder.error());
  }
  // Frame type zero is not a skip candidate — it can only come from
  // zeroed/corrupt bytes, so it stays a hard error.
  {
    WireFrame frame;
    frame.type = FrameType::kShutdown;
    std::vector<std::uint8_t> bytes;
    AppendFrame(bytes, frame);
    bytes[5] = 0;
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size());
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_TRUE(decoder.error());
  }
  // Oversized length prefix.
  {
    const std::uint32_t body = kMaxFrameBody + 1;
    std::uint8_t bytes[4] = {
        static_cast<std::uint8_t>(body),
        static_cast<std::uint8_t>(body >> 8),
        static_cast<std::uint8_t>(body >> 16),
        static_cast<std::uint8_t>(body >> 24),
    };
    FrameDecoder decoder;
    decoder.Feed(bytes, sizeof bytes);
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_TRUE(decoder.error());
  }
  // Truncation is not an error — just "need more bytes".
  {
    WireFrame frame;
    frame.type = FrameType::kHello;
    frame.payload = EncodeHelloPayload(1, 2);
    std::vector<std::uint8_t> bytes;
    AppendFrame(bytes, frame);
    FrameDecoder decoder;
    decoder.Feed(bytes.data(), bytes.size() - 1);
    EXPECT_FALSE(decoder.Next().has_value());
    EXPECT_FALSE(decoder.error());
    decoder.Feed(bytes.data() + bytes.size() - 1, 1);
    EXPECT_TRUE(decoder.Next().has_value());
  }
  // Malformed payloads are rejected by the payload decoders.
  FactBatchRows rows;
  EXPECT_FALSE(DecodeFactBatchRows({0x01}, 1, rows));
  EXPECT_FALSE(DecodeHelloPayload({}).has_value());
  // A truncated features varint (continuation bit with no next byte) and
  // bytes *after* the features varint are both rejected; a single whole
  // extra varint is the legal optional features field.
  std::vector<std::uint8_t> truncated = EncodeHelloPayload(1, 2);
  truncated.push_back(0x80);
  EXPECT_FALSE(DecodeHelloPayload(truncated).has_value());
  std::vector<std::uint8_t> trailing = EncodeHelloPayload(1, 2, 5);
  trailing.push_back(0);
  EXPECT_FALSE(DecodeHelloPayload(trailing).has_value());
  EXPECT_FALSE(DecodeTraceCtxPayload({}).has_value());
  std::vector<std::uint8_t> ctx_trailing = EncodeTraceCtxPayload(1, 2, 3);
  ctx_trailing.push_back(0);
  EXPECT_FALSE(DecodeTraceCtxPayload(ctx_trailing).has_value());
}

TEST(WireTest, DecoderSkipsUnknownFrameTypes) {
  // A current-version peer talking to an older decoder: frames of a type
  // the decoder does not know are skipped (counted, not fatal), and the
  // known frames around them still come through in order. This is the
  // forward-compatibility contract optional frames like kTraceCtx rely
  // on — see the FrameDecoder doc comment in transport/wire.h.
  std::vector<std::uint8_t> stream;
  AppendFrame(stream, {kWireVersion, FrameType::kHello, 1, 0,
                       EncodeHelloPayload(1, 7)});
  // Hand-build a frame whose type byte is from the future.
  {
    WireFrame unknown;
    unknown.type = FrameType::kShutdown;
    unknown.from = 1;
    unknown.to = 0;
    unknown.payload = {0xaa, 0xbb, 0xcc};
    const std::size_t at = stream.size();
    AppendFrame(stream, unknown);
    stream[at + 5] = 0x7f;  // Type byte sits after u32 length + version.
  }
  AppendFrame(stream, {kWireVersion, FrameType::kShutdown, 1, 0, {}});

  FrameDecoder decoder;
  decoder.Feed(stream.data(), stream.size());
  std::vector<WireFrame> decoded;
  while (auto frame = decoder.Next()) decoded.push_back(std::move(*frame));
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(decoder.unknown_skipped(), 1u);
  EXPECT_EQ(decoder.last_unknown_type(), 0x7f);
  ASSERT_EQ(decoded.size(), 2u);
  EXPECT_EQ(decoded[0].type, FrameType::kHello);
  EXPECT_EQ(decoded[1].type, FrameType::kShutdown);

  // Skipping respects chunk boundaries: an unknown frame split across
  // feeds is still consumed exactly once.
  FrameDecoder chunked;
  std::vector<WireFrame> chunk_decoded;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    chunked.Feed(stream.data() + i, 1);
    while (auto frame = chunked.Next()) {
      chunk_decoded.push_back(std::move(*frame));
    }
  }
  EXPECT_FALSE(chunked.error());
  EXPECT_EQ(chunked.unknown_skipped(), 1u);
  EXPECT_EQ(chunk_decoded.size(), 2u);
}

TEST(WireTest, FactBatchRowsRoundTripProperty) {
  Rng rng(10);
  FactBatchRows rows;  // Reused: each decode must replace its contents.
  for (int i = 0; i < 200; ++i) {
    std::vector<Fact> owned;
    for (std::size_t k = rng.Uniform(12); k > 0; --k) {
      // Repeat the previous relation often so that runs form.
      if (!owned.empty() && rng.Uniform(2) == 0) {
        Fact f = RandomFact(rng);
        f.relation = owned.back().relation;
        owned.push_back(std::move(f));
      } else {
        owned.push_back(RandomFact(rng));
      }
    }
    const std::uint64_t round = rng.Uniform(300);
    ASSERT_TRUE(DecodeFactBatchRows(
        EncodeFactBatchPayload(round, RowRefs(owned)), round, rows));
    ASSERT_EQ(RowsAsFacts(rows), owned);

    // Runs partition the rows in order, each one relation and arity.
    std::size_t row = 0;
    const Value* expect_at = rows.values.data();
    rows.ForEachRun([&](RelationId relation, const Value* at,
                        std::size_t count, std::size_t arity) {
      ASSERT_GT(count, 0u);
      EXPECT_EQ(at, expect_at);
      for (std::size_t k = row; k < row + count; ++k) {
        EXPECT_EQ(rows.relation[k], relation);
        EXPECT_EQ(rows.arity[k], arity);
      }
      if (row + count < rows.size()) {
        EXPECT_TRUE(rows.relation[row + count] != relation ||
                    rows.arity[row + count] != arity);
      }
      row += count;
      expect_at += count * arity;
    });
    EXPECT_EQ(row, rows.size());
  }
}

TEST(WireTest, FactBatchRowsRejectsMalformedPayloads) {
  const Fact small(0, {Value(1), Value(-1)});
  const Fact wide(3, {Value(1000000), Value(-1000000), Value(0)});
  const std::vector<std::uint8_t> good =
      EncodeFactBatchPayload(5, RowRefs({small, wide}));
  FactBatchRows rows;
  ASSERT_TRUE(DecodeFactBatchRows(good, 5, rows));

  // Every strict prefix is a truncation somewhere: inside a varint, before
  // a row's arguments, or short of the announced row count.
  for (std::size_t n = 0; n < good.size(); ++n) {
    const std::vector<std::uint8_t> prefix(good.begin(), good.begin() + n);
    EXPECT_FALSE(DecodeFactBatchRows(prefix, 5, rows)) << n;
  }
  // A truncated varint: the last byte announces a continuation.
  std::vector<std::uint8_t> truncated_varint = good;
  truncated_varint.back() |= 0x80;
  EXPECT_FALSE(DecodeFactBatchRows(truncated_varint, 5, rows));
  // An overlong varint (11 continuation bytes) as the row count.
  std::vector<std::uint8_t> overlong = {0x05};
  overlong.insert(overlong.end(), 11, 0x80);
  overlong.push_back(0x01);
  EXPECT_FALSE(DecodeFactBatchRows(overlong, 5, rows));
  // An arity larger than the bytes left: round 5, one row of relation 0
  // claiming 1000 arguments with two bytes behind it.
  std::vector<std::uint8_t> wide_arity = {0x05, 0x01, 0x00};
  PutVarint(wide_arity, 1000);
  wide_arity.push_back(0x02);
  wide_arity.push_back(0x04);
  EXPECT_FALSE(DecodeFactBatchRows(wide_arity, 5, rows));
  // A huge arity must not be reserved for before it is rejected.
  std::vector<std::uint8_t> huge_arity = {0x05, 0x01, 0x00};
  PutVarint(huge_arity, ~0ull);
  EXPECT_FALSE(DecodeFactBatchRows(huge_arity, 5, rows));
  // A row count larger than the payload itself.
  std::vector<std::uint8_t> many_rows = {0x05};
  PutVarint(many_rows, 1ull << 40);
  many_rows.push_back(0x00);
  many_rows.push_back(0x00);
  EXPECT_FALSE(DecodeFactBatchRows(many_rows, 5, rows));
  // A row count larger than the rows present (but not than the payload).
  std::vector<std::uint8_t> short_rows = good;
  short_rows[1] = 3;
  EXPECT_FALSE(DecodeFactBatchRows(short_rows, 5, rows));
  // Trailing bytes after the last row.
  std::vector<std::uint8_t> trailing = good;
  trailing.push_back(0x00);
  EXPECT_FALSE(DecodeFactBatchRows(trailing, 5, rows));
  // A well-formed batch of another round.
  EXPECT_FALSE(DecodeFactBatchRows(good, 4, rows));
  EXPECT_FALSE(DecodeFactBatchRows(good, 6, rows));

  // A failed decode leaves the reused buffers fit for the next batch.
  ASSERT_TRUE(DecodeFactBatchRows(good, 5, rows));
  EXPECT_EQ(RowsAsFacts(rows), (std::vector<Fact>{small, wide}));
}

// Deterministic frame stream covering every type and the interesting
// value shapes (empty batch, negative args, multi-byte varints).
std::vector<std::uint8_t> GoldenStream() {
  std::vector<std::uint8_t> stream;
  AppendFrame(stream, {kWireVersion, FrameType::kHello, 0, 1,
                       EncodeHelloPayload(0, 0x1234567890abcdefull)});
  AppendFrame(stream, {kWireVersion, FrameType::kHello, 1, 0,
                       EncodeHelloPayload(1, 0x1234567890abcdefull,
                                          kHelloFeatureTraceCtx)});
  AppendFrame(stream, {kWireVersion, FrameType::kTraceCtx, 2, 3,
                       EncodeTraceCtxPayload(0x0123456789abcdefull, 17, 4)});

  const Fact small(0, {Value(1), Value(-1)});
  const Fact wide(3, {Value(1000000), Value(-1000000), Value(0)});
  const Fact nullary(7, {});
  AppendFrame(stream, {kWireVersion, FrameType::kFactBatch, 2, 3,
                       EncodeFactBatchPayload(
                           4, RowRefs({small, wide, nullary}))});
  AppendFrame(stream, {kWireVersion, FrameType::kFactBatch, 3, 2,
                       EncodeFactBatchPayload(0, std::vector<RowRef>{})});
  AppendFrame(stream, {kWireVersion, FrameType::kMessage, 200, 300,
                       EncodeMessagePayload(77, 5, 42, {small, wide})});
  AppendFrame(stream, {kWireVersion, FrameType::kStats, 1, 0,
                       EncodeStatsPayload(2, 12345, 9876543)});
  AppendFrame(stream, {kWireVersion, FrameType::kShutdown, 0, 0, {}});
  return stream;
}

TEST(WireTest, GoldenFrameDumpIsStable) {
  const std::vector<std::uint8_t> stream = GoldenStream();
  if (std::getenv("LAMP_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(GoldenPath(), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(stream.data()),
              static_cast<std::streamsize>(stream.size()));
    GTEST_SKIP() << "golden regenerated at " << GoldenPath();
  }
  std::ifstream in(GoldenPath(), std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << GoldenPath()
                         << " — regenerate with LAMP_REGEN_GOLDEN=1";
  const std::vector<std::uint8_t> golden(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  ASSERT_EQ(stream, golden)
      << "wire layout drifted from the golden. If the change is intentional,"
         " bump kWireVersion and rerun with LAMP_REGEN_GOLDEN=1.";

  // And the committed bytes must decode — the dump doubles as a decoder
  // fixture for foreign implementations.
  FrameDecoder decoder;
  decoder.Feed(golden.data(), golden.size());
  std::size_t frames = 0;
  while (auto frame = decoder.Next()) {
    ++frames;
    if (frame->type == FrameType::kFactBatch && frame->from == 2) {
      FactBatchRows batch;
      ASSERT_TRUE(DecodeFactBatchRows(frame->payload, 4, batch));
      EXPECT_EQ(batch.size(), 3u);
      EXPECT_EQ(batch.values.size(), 5u);
    }
  }
  EXPECT_FALSE(decoder.error());
  EXPECT_EQ(frames, 8u);
  EXPECT_EQ(decoder.unknown_skipped(), 0u);
}

}  // namespace
}  // namespace lamp::transport
