#include "openflow/codec.h"

#include "util/strings.h"

namespace zen::openflow {

util::Result<OwnedMessage> decode(std::span<const std::uint8_t> frame) {
  auto view = parse_frame(frame);
  if (!view.ok()) return util::make_error<OwnedMessage>(view.error());
  if (view.value().frame.size() != frame.size())
    return util::make_error<OwnedMessage>(util::format(
        "length mismatch: header says %zu, frame is %zu",
        view.value().frame.size(), frame.size()));
  return decode_frame(view.value());
}

}  // namespace zen::openflow
