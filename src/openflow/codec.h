// Framing codec: the wire layout and the one-frame owned decode.
//
// Wire layout (all big-endian):
//   u8  version   (kProtocolVersion)
//   u8  type      (MsgType)
//   u32 length    (header + body, bytes)
//   u32 xid       (transaction id, echoed in replies)
//   ... body
//
// The arena-based API lives in wire.h (WireArena / FrameWriter /
// FrameView / BatchReader, encode_frame); this header keeps decode(), the
// one-call owned decode of a single whole frame.
#pragma once

#include <cstdint>
#include <span>

#include "openflow/messages.h"
#include "openflow/wire.h"
#include "util/result.h"

namespace zen::openflow {

// Decodes exactly one message from `frame` (which must be a whole message).
util::Result<OwnedMessage> decode(std::span<const std::uint8_t> frame);

}  // namespace zen::openflow
