// Wire format: arena framing, batch decode, standalone/arena byte
// equivalence, and bundle experimenter messages.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "net/headers.h"
#include "openflow/bundle.h"
#include "openflow/wire.h"
#include "util/rng.h"

namespace zen::openflow {
namespace {

FlowMod sample_mod(std::uint16_t priority) {
  FlowMod mod;
  mod.priority = priority;
  mod.cookie = 0xc0ffee;
  mod.match.in_port(3)
      .eth_type(net::EtherType::kIpv4)
      .ipv4_dst(net::Ipv4Address(10, 0, 0, 2), 32)
      .l4_dst(priority);
  mod.instructions = output_to(7);
  return mod;
}

// A pool of representative messages for fuzzed equivalence sweeps.
Message random_message(util::Rng& rng) {
  switch (rng.next_below(6)) {
    case 0: return Message{sample_mod(static_cast<std::uint16_t>(
        1 + rng.next_below(1000)))};
    case 1: {
      EchoRequest echo;
      echo.data.resize(rng.next_below(64));
      for (auto& b : echo.data) b = static_cast<std::uint8_t>(rng.next_u64());
      return Message{echo};
    }
    case 2: {
      PacketIn pin;
      pin.buffer_id = static_cast<std::uint32_t>(rng.next_u64());
      pin.in_port = 3;
      pin.data.resize(rng.next_below(128));
      return Message{pin};
    }
    case 3: {
      PacketOut out;
      out.in_port = Ports::kController;
      out.actions = {OutputAction{Ports::kFlood, 0xffff}};
      out.data.resize(rng.next_below(128), 0x11);
      return Message{out};
    }
    case 4: return Message{BarrierRequest{}};
    default: {
      ErrorMsg err;
      err.type = ErrorType::FlowModFailed;
      err.code = flow_mod_failed_code::kTableFull;
      return Message{err};
    }
  }
}

// ---- arena framing --------------------------------------------------------

TEST(WireArena, AppendProducesParsableFrames) {
  WireArena arena;
  EXPECT_TRUE(arena.empty());
  const auto f1 = arena.append(Message{sample_mod(1)}, 10);
  const auto f2 = arena.append(Message{BarrierRequest{}}, 11);
  EXPECT_EQ(arena.frame_count(), 2u);
  EXPECT_EQ(arena.size(), f1.size() + f2.size());

  BatchReader reader(arena.bytes());
  auto a = reader.next();
  ASSERT_TRUE(a.has_value() && a->ok());
  EXPECT_EQ(a->value().xid, 10u);
  EXPECT_EQ(a->value().type, MsgType::FlowMod);
  auto b = reader.next();
  ASSERT_TRUE(b.has_value() && b->ok());
  EXPECT_EQ(b->value().xid, 11u);
  EXPECT_FALSE(reader.next().has_value());
  EXPECT_EQ(reader.frames_yielded(), 2u);
}

TEST(WireArena, ViewsAreZeroCopyIntoTheArena) {
  WireArena arena;
  arena.append(Message{sample_mod(1)}, 1);
  const auto bytes = arena.bytes();
  BatchReader reader(bytes);
  auto frame = reader.next();
  ASSERT_TRUE(frame.has_value() && frame->ok());
  // The view's storage IS the arena buffer, not a copy.
  EXPECT_GE(frame->value().frame.data(), bytes.data());
  EXPECT_LE(frame->value().frame.data() + frame->value().frame.size(),
            bytes.data() + bytes.size());
  EXPECT_EQ(frame->value().body.data(), frame->value().frame.data() + kHeaderSize);
}

TEST(WireArena, ClearKeepsCapacityTakeMovesBytes) {
  WireArena arena;
  arena.append(Message{sample_mod(1)}, 1);
  const std::size_t n = arena.size();
  Bytes taken = arena.take();
  EXPECT_EQ(taken.size(), n);
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.frame_count(), 0u);

  arena.append(Message{sample_mod(2)}, 2);
  arena.clear();
  EXPECT_TRUE(arena.empty());
  EXPECT_EQ(arena.frame_count(), 0u);
}

TEST(FrameWriter, StreamedBodyMatchesAppend) {
  const Message msg{sample_mod(42)};
  WireArena via_append;
  via_append.append(msg, 7);

  WireArena via_writer;
  {
    FrameWriter frame(via_writer, type_of(msg), 7);
    encode_body(msg, frame.body());
    frame.finish();
  }
  EXPECT_EQ(std::vector(via_append.bytes().begin(), via_append.bytes().end()),
            std::vector(via_writer.bytes().begin(), via_writer.bytes().end()));
}

// ---- arena vs standalone equivalence --------------------------------------

// encode_frame is the one-allocation-per-message encoder (the v1 encode()
// was a shim over it); the arena must produce the same bytes, also when
// frames share one buffer.
TEST(WireEquivalence, ArenaFramesAreByteIdenticalToV1Encode) {
  util::Rng rng(2024);
  WireArena shared;
  for (int i = 0; i < 500; ++i) {
    const Message msg = random_message(rng);
    const Xid xid = static_cast<Xid>(rng.next_u64());
    const Bytes v1 = encode_frame(msg, xid);
    WireArena arena;
    const auto v2 = arena.append(msg, xid);
    ASSERT_EQ(v1.size(), v2.size());
    EXPECT_EQ(0, std::memcmp(v1.data(), v2.data(), v1.size()));
    const auto in_batch = shared.append(msg, xid);
    ASSERT_EQ(v1.size(), in_batch.size());
    EXPECT_EQ(0, std::memcmp(v1.data(), in_batch.data(), v1.size()));
  }
}

TEST(WireEquivalence, DecodePathsAgree) {
  // A standalone frame and the same frame read out of a batch (the
  // receive path) decode to the message that was encoded.
  util::Rng rng(77);
  WireArena batch;
  std::vector<Message> sent;
  for (int i = 0; i < 200; ++i) {
    const Message msg = random_message(rng);
    const Xid xid = static_cast<Xid>(i + 1);
    const Bytes wire = encode_frame(msg, xid);
    auto view = parse_frame(wire);
    ASSERT_TRUE(view.ok());
    auto owned = decode_frame(view.value());
    ASSERT_TRUE(owned.ok());
    EXPECT_EQ(owned.value().xid, xid);
    EXPECT_TRUE(owned.value().msg == msg);
    batch.append(msg, xid);
    sent.push_back(msg);
  }
  BatchReader reader(batch.bytes());
  std::size_t i = 0;
  while (auto view = reader.next()) {
    ASSERT_TRUE(view->ok());
    ASSERT_LT(i, sent.size());
    auto owned = decode_frame(view->value());
    ASSERT_TRUE(owned.ok());
    EXPECT_EQ(owned.value().xid, static_cast<Xid>(i + 1));
    EXPECT_TRUE(owned.value().msg == sent[i]);
    ++i;
  }
  EXPECT_EQ(i, sent.size());
}

// ---- batch-boundary error isolation ---------------------------------------

TEST(BatchReader, TruncatedFinalFrameRejectsOnlyThatFrame) {
  WireArena arena;
  arena.append(Message{sample_mod(1)}, 1);
  arena.append(Message{sample_mod(2)}, 2);
  const auto whole = arena.bytes();
  // Chop the last frame short (keep its header so the length prefix is
  // readable but the body is missing).
  BatchReader reader(whole.subspan(0, whole.size() - 4));
  auto first = reader.next();
  ASSERT_TRUE(first.has_value() && first->ok());
  EXPECT_EQ(first->value().xid, 1u);
  auto second = reader.next();
  ASSERT_TRUE(second.has_value());
  EXPECT_FALSE(second->ok());  // the short frame itself errors...
  EXPECT_FALSE(reader.next().has_value());  // ...and the reader stops
  EXPECT_EQ(reader.frames_yielded(), 1u);
}

TEST(BatchReader, TruncatedHeaderAtBatchBoundary) {
  WireArena arena;
  arena.append(Message{BarrierRequest{}}, 9);
  const auto whole = arena.bytes();
  BatchReader reader(whole.subspan(0, kHeaderSize - 3));
  auto r = reader.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
}

TEST(BatchReader, OversizedLengthPrefixRejected) {
  Bytes junk = encode_frame(Message{BarrierRequest{}}, 1);
  // Patch the length field (offset 2, u32 BE) to something absurd.
  junk[2] = 0xff;
  junk[3] = 0xff;
  junk[4] = 0xff;
  junk[5] = 0xff;
  BatchReader reader(junk);
  auto r = reader.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
  EXPECT_FALSE(reader.next().has_value());
}

TEST(BatchReader, UndersizedLengthPrefixRejected) {
  Bytes junk = encode_frame(Message{BarrierRequest{}}, 1);
  junk[2] = 0;
  junk[3] = 0;
  junk[4] = 0;
  junk[5] = kHeaderSize - 1;  // below the header size itself
  BatchReader reader(junk);
  auto r = reader.next();
  ASSERT_TRUE(r.has_value());
  EXPECT_FALSE(r->ok());
}

TEST(BatchReader, FuzzedRandomCutsNeverCrashAndKeepPrefix) {
  util::Rng rng(31337);
  for (int round = 0; round < 200; ++round) {
    WireArena arena;
    const std::size_t n = 1 + rng.next_below(8);
    std::vector<Xid> xids;
    for (std::size_t i = 0; i < n; ++i) {
      const Xid xid = static_cast<Xid>(100 + i);
      arena.append(random_message(rng), xid);
      xids.push_back(xid);
    }
    const auto whole = arena.bytes();
    const std::size_t cut = rng.next_below(whole.size() + 1);
    BatchReader reader(whole.subspan(0, cut));
    std::size_t ok_frames = 0;
    while (auto r = reader.next()) {
      if (!r->ok()) break;
      // Every intact prefix frame must decode with the right xid.
      ASSERT_LT(ok_frames, xids.size());
      EXPECT_EQ(r->value().xid, xids[ok_frames]);
      EXPECT_TRUE(decode_frame(r->value()).ok());
      ++ok_frames;
    }
    // A cut can only lose the tail, never a fully-delivered prefix frame.
    EXPECT_EQ(ok_frames, reader.frames_yielded());
  }
}

// ---- bundle messages ------------------------------------------------------

TEST(Bundle, OpenAddCommitDiscardRoundtrip) {
  const Experimenter open = make_bundle_open(5);
  auto parsed_open = parse_bundle_message(open);
  ASSERT_TRUE(parsed_open.ok());
  EXPECT_EQ(std::get<BundleOpen>(parsed_open.value()).bundle_id, 5u);

  const Experimenter add = make_bundle_add(5, 2, Message{sample_mod(9)});
  auto parsed_add = parse_bundle_message(add);
  ASSERT_TRUE(parsed_add.ok());
  const auto& badd = std::get<BundleAdd>(parsed_add.value());
  EXPECT_EQ(badd.bundle_id, 5u);
  EXPECT_EQ(badd.member_index, 2u);
  const auto* mod = std::get_if<FlowMod>(&badd.member);
  ASSERT_NE(mod, nullptr);
  EXPECT_EQ(mod->priority, 9);

  const Experimenter commit = make_bundle_commit(5, 3);
  auto parsed_commit = parse_bundle_message(commit);
  ASSERT_TRUE(parsed_commit.ok());
  EXPECT_EQ(std::get<BundleCommit>(parsed_commit.value()).bundle_id, 5u);
  EXPECT_EQ(std::get<BundleCommit>(parsed_commit.value()).n_members, 3u);

  const Experimenter discard = make_bundle_discard(5);
  auto parsed_discard = parse_bundle_message(discard);
  ASSERT_TRUE(parsed_discard.ok());
  EXPECT_EQ(std::get<BundleDiscard>(parsed_discard.value()).bundle_id, 5u);
}

TEST(Bundle, MemberSurvivesWireRoundtrip) {
  // The envelope must survive a real encode/decode cycle, nested frame
  // and all.
  const Experimenter add = make_bundle_add(1, 0, Message{sample_mod(77)});
  const Bytes wire = encode_frame(Message{add}, 123);
  auto view = parse_frame(wire);
  ASSERT_TRUE(view.ok());
  auto decoded = decode_frame(view.value());
  ASSERT_TRUE(decoded.ok());
  const auto* exp = std::get_if<Experimenter>(&decoded.value().msg);
  ASSERT_NE(exp, nullptr);
  auto parsed = parse_bundle_message(*exp);
  ASSERT_TRUE(parsed.ok());
  const auto* mod =
      std::get_if<FlowMod>(&std::get<BundleAdd>(parsed.value()).member);
  ASSERT_NE(mod, nullptr);
  EXPECT_EQ(mod->priority, 77);
}

TEST(Bundle, RejectsForeignExperimenterAndTruncation) {
  Experimenter foreign;
  foreign.experimenter_id = 0xdeadbeef;
  foreign.exp_type = kExpTypeBundleOpen;
  EXPECT_FALSE(parse_bundle_message(foreign).ok());

  Experimenter truncated = make_bundle_add(1, 0, Message{sample_mod(1)});
  truncated.payload.resize(6);  // cuts into the member frame
  EXPECT_FALSE(parse_bundle_message(truncated).ok());

  Experimenter unknown = make_bundle_open(1);
  unknown.exp_type = 99;
  EXPECT_FALSE(parse_bundle_message(unknown).ok());
}

}  // namespace
}  // namespace zen::openflow
