#include "cluster/frame.h"

#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gtest/gtest.h"

namespace rafiki::cluster {
namespace {

Message SampleMessage() {
  Message m;
  m.type = MessageType::kReport;
  m.from = "study/s/worker/w0";
  m.trial_id = 42;
  m.performance = 0.875;
  m.num_fields["epochs"] = 7;
  m.num_fields["sim_seconds"] = 12.5;
  m.str_fields["trial"] = "3|lr:f:0.1;momentum:f:0.9";
  m.str_fields["blob"] = std::string("\x00\x01\xff\x7f", 4);  // binary-safe
  return m;
}

std::vector<Frame> DecodeAll(FrameDecoder& decoder) {
  std::vector<Frame> frames;
  while (true) {
    auto next = decoder.Next();
    EXPECT_TRUE(next.ok()) << next.status().ToString();
    if (!next.ok() || !next.value().has_value()) break;
    frames.push_back(std::move(**next));
  }
  return frames;
}

TEST(FrameTest, RoundTripsSingleFrame) {
  std::string wire;
  AppendFrame(FrameType::kMessage, "hello", &wire);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + 5);

  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  std::vector<Frame> frames = DecodeAll(decoder);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, FrameType::kMessage);
  EXPECT_EQ(frames[0].payload, "hello");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameTest, ReassemblesTornFramesFedByteAtATime) {
  std::string wire;
  AppendFrame(FrameType::kAnnounce, EncodeEndpointList({"a", "b/c"}), &wire);
  AppendFrame(FrameType::kMessage, "", &wire);
  AppendFrame(FrameType::kMessage, std::string(1000, 'x'), &wire);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  for (char c : wire) {
    decoder.Feed(&c, 1);
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (next.value().has_value()) frames.push_back(std::move(**next));
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kAnnounce);
  auto endpoints = DecodeEndpointList(frames[0].payload);
  ASSERT_TRUE(endpoints.ok());
  EXPECT_EQ(endpoints.value(), (std::vector<std::string>{"a", "b/c"}));
  EXPECT_EQ(frames[1].type, FrameType::kMessage);
  EXPECT_EQ(frames[1].payload, "");
  EXPECT_EQ(frames[2].payload, std::string(1000, 'x'));
}

TEST(FrameTest, TruncatedLengthPrefixNeedsMoreBytes) {
  std::string wire;
  AppendFrame(FrameType::kMessage, "payload", &wire);
  FrameDecoder decoder;
  // Feed only part of the 12-byte header: no frame, no error.
  decoder.Feed(wire.data(), kFrameHeaderBytes - 3);
  auto next = decoder.Next();
  ASSERT_TRUE(next.ok());
  EXPECT_FALSE(next.value().has_value());
  EXPECT_FALSE(decoder.failed());
  // The rest completes the frame.
  decoder.Feed(wire.data() + kFrameHeaderBytes - 3,
               wire.size() - (kFrameHeaderBytes - 3));
  next = decoder.Next();
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.value().has_value());
  EXPECT_EQ((*next.value()).payload, "payload");
}

TEST(FrameTest, BadMagicPoisonsTheStream) {
  std::string wire;
  AppendFrame(FrameType::kMessage, "", &wire);
  wire[0] = 'X';
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  auto next = decoder.Next();
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(decoder.failed());
  // Poisoned: even after more valid bytes the error repeats.
  std::string good;
  AppendFrame(FrameType::kMessage, "", &good);
  decoder.Feed(good.data(), good.size());
  EXPECT_FALSE(decoder.Next().ok());
}

TEST(FrameTest, UnsupportedVersionIsUnimplemented) {
  std::string wire;
  AppendFrame(FrameType::kMessage, "", &wire);
  wire[4] = 9;
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kUnimplemented);
}

TEST(FrameTest, UnknownTypeAndReservedBitsAreInvalid) {
  // 0 and every value past kMessage are unknown frame types.
  for (char type : {0, 4, 99}) {
    std::string wire;
    AppendFrame(FrameType::kMessage, "", &wire);
    wire[5] = type;
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    auto next = decoder.Next();
    ASSERT_FALSE(next.ok()) << "type " << int{type};
    EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  }
  {
    std::string wire;
    AppendFrame(FrameType::kMessage, "", &wire);
    wire[6] = 1;  // reserved must be zero
    FrameDecoder decoder;
    decoder.Feed(wire.data(), wire.size());
    auto next = decoder.Next();
    ASSERT_FALSE(next.ok());
    EXPECT_EQ(next.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FrameTest, OversizedPayloadIsOutOfRange) {
  std::string wire;
  AppendFrame(FrameType::kMessage, "x", &wire);
  uint32_t huge = static_cast<uint32_t>(kMaxFramePayload) + 1;
  std::memcpy(&wire[8], &huge, sizeof(huge));
  FrameDecoder decoder;
  decoder.Feed(wire.data(), wire.size());
  auto next = decoder.Next();
  ASSERT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kOutOfRange);
}

TEST(FrameTest, FuzzedHeadersNeverCrash) {
  // Random 12-byte headers plus random tails: every outcome must be a
  // clean frame, a need-more-bytes, or a typed error — never a crash.
  Rng rng(20260808);
  for (int i = 0; i < 2000; ++i) {
    std::string wire(kFrameHeaderBytes + rng.Next64() % 64, '\0');
    for (char& c : wire) c = static_cast<char>(rng.Next64() & 0xff);
    FrameDecoder decoder;
    // Feed in random-sized slices to exercise reassembly.
    size_t pos = 0;
    while (pos < wire.size()) {
      size_t n = 1 + rng.Next64() % 7;
      n = std::min(n, wire.size() - pos);
      decoder.Feed(wire.data() + pos, n);
      pos += n;
      auto next = decoder.Next();
      if (!next.ok()) break;  // poisoned, stop feeding
    }
  }
}

TEST(FrameTest, FuzzedValidStreamWithRandomPayloadsRoundTrips) {
  Rng rng(7);
  std::string wire;
  std::vector<std::string> want;
  for (int i = 0; i < 50; ++i) {
    std::string payload(rng.Next64() % 300, '\0');
    for (char& c : payload) c = static_cast<char>(rng.Next64() & 0xff);
    want.push_back(payload);
    AppendFrame(FrameType::kMessage, payload, &wire);
  }
  FrameDecoder decoder;
  std::vector<Frame> frames;
  size_t pos = 0;
  while (pos < wire.size()) {
    size_t n = std::min<size_t>(1 + rng.Next64() % 17, wire.size() - pos);
    decoder.Feed(wire.data() + pos, n);
    pos += n;
    auto next = decoder.Next();
    ASSERT_TRUE(next.ok());
    if (next.value().has_value()) frames.push_back(std::move(**next));
  }
  std::vector<Frame> rest = DecodeAll(decoder);
  frames.insert(frames.end(), std::make_move_iterator(rest.begin()),
                std::make_move_iterator(rest.end()));
  ASSERT_EQ(frames.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(frames[i].payload, want[i]);
  }
}

TEST(FrameTest, EnvelopeRoundTripsEveryField) {
  Message m = SampleMessage();
  std::string payload = EncodeEnvelope("study/s/master", m);
  auto decoded = DecodeEnvelope(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded.value().first, "study/s/master");
  const Message& got = decoded.value().second;
  EXPECT_EQ(got.type, m.type);
  EXPECT_EQ(got.from, m.from);
  EXPECT_EQ(got.trial_id, m.trial_id);
  EXPECT_DOUBLE_EQ(got.performance, m.performance);
  EXPECT_EQ(got.num_fields, m.num_fields);
  EXPECT_EQ(got.str_fields, m.str_fields);
}

TEST(FrameTest, EnvelopeRoundTripsEveryMessageType) {
  constexpr auto kLast = static_cast<uint8_t>(MessageType::kContinue);
  for (uint8_t type = 0; type <= kLast; ++type) {
    Message m = SampleMessage();
    m.type = static_cast<MessageType>(type);
    auto decoded = DecodeEnvelope(EncodeEnvelope("to", m));
    ASSERT_TRUE(decoded.ok()) << MessageTypeToString(m.type);
    EXPECT_EQ(decoded.value().second.type, m.type);
  }
  // The type byte follows the destination (u32 length + "to").
  std::string payload = EncodeEnvelope("to", SampleMessage());
  payload[4 + 2] = static_cast<char>(kLast + 1);
  EXPECT_EQ(DecodeEnvelope(payload).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(FrameTest, EnvelopeRejectsTruncationAndTrailingGarbage) {
  std::string payload = EncodeEnvelope("to", SampleMessage());
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    auto decoded = DecodeEnvelope(std::string_view(payload.data(), cut));
    EXPECT_FALSE(decoded.ok()) << "cut=" << cut;
  }
  auto trailing = DecodeEnvelope(payload + "x");
  EXPECT_FALSE(trailing.ok());
}

TEST(FrameTest, EnvelopeFuzzNeverCrashes) {
  Rng rng(99);
  std::string payload = EncodeEnvelope("to", SampleMessage());
  for (int i = 0; i < 2000; ++i) {
    std::string mutated = payload;
    int flips = 1 + static_cast<int>(rng.Next64() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[rng.Next64() % mutated.size()] ^=
          static_cast<char>(1 + rng.Next64() % 255);
    }
    (void)DecodeEnvelope(mutated);  // any Status is fine; crashing is not
  }
}

TEST(FrameTest, EndpointListRejectsHostileCount) {
  // A count claiming more entries than bytes remain must fail instead of
  // attempting a huge allocation.
  std::string payload = EncodeEndpointList({"a"});
  uint32_t hostile = 0x7fffffffu;
  std::memcpy(payload.data(), &hostile, sizeof(hostile));
  auto decoded = DecodeEndpointList(payload);
  EXPECT_FALSE(decoded.ok());
}

TEST(FrameTest, EndpointListRoundTripsEmptyAndMany) {
  EXPECT_TRUE(DecodeEndpointList(EncodeEndpointList({})).value().empty());
  std::vector<std::string> many;
  for (int i = 0; i < 200; ++i) many.push_back("endpoint/" + std::to_string(i));
  EXPECT_EQ(DecodeEndpointList(EncodeEndpointList(many)).value(), many);
}

}  // namespace
}  // namespace rafiki::cluster
