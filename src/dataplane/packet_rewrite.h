// MutablePacket: a decoded frame the action executor can rewrite.
//
// The pipeline parses a frame once into (headers, payload); set-field
// actions mutate the header structs, and serialize() materializes wire
// bytes with recomputed IPv4 and L4 checksums. This gives correct
// semantics for action lists that interleave rewrites and outputs (each
// output sees the packet as rewritten so far).
#pragma once

#include <optional>
#include <span>

#include "net/packet.h"
#include "openflow/actions.h"

namespace zen::dataplane {

class MutablePacket {
 public:
  // Copies and parses `frame`; check ok() before use.
  explicit MutablePacket(std::span<const std::uint8_t> frame);
  // Adopts a frame already parsed into `parsed` (no copy, no re-parse).
  MutablePacket(net::Bytes frame, net::ParsedPacket parsed) noexcept
      : parsed_(std::move(parsed)), original_(std::move(frame)), ok_(true) {}

  bool ok() const noexcept { return ok_; }

  // Applies one field-modifying action. Output/Group/SetQueue are ignored
  // (the pipeline handles them). Returns false if the action cannot apply
  // (e.g. set_ipv4_src on an ARP packet, dec_ttl hitting zero, pop_vlan on
  // an untagged frame) — the packet is then dropped by the caller.
  bool apply(const openflow::Action& action);

  // Current flow key (reflects rewrites).
  net::FlowKey flow_key(std::uint32_t in_port) const noexcept {
    return parsed_.flow_key(in_port);
  }

  // True once any field rewrite has been applied.
  bool modified() const noexcept { return modified_; }

  const net::ParsedPacket& parsed() const noexcept { return parsed_; }

  // Wire bytes for the current state. If nothing was modified, returns the
  // original frame verbatim.
  net::Bytes serialize() const;

  std::size_t wire_size() const noexcept;

 private:
  // Bytes after the parsed headers (rewrites never touch them).
  std::span<const std::uint8_t> payload() const noexcept {
    return std::span<const std::uint8_t>(original_).subspan(
        parsed_.payload_offset);
  }

  net::ParsedPacket parsed_;
  net::Bytes original_;
  bool ok_ = false;
  bool modified_ = false;
};

}  // namespace zen::dataplane
