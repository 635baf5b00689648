// Explain engine data model: the structured record of one pipeline walk.
//
// Switch::explain() classifies a synthetic packet with the same code the
// forwarding path uses and renders the verdict without applying it (no
// counters credited, no meter tokens consumed, no cache insert, no
// learning), recording every decision as an ExplainStep — the
// ofproto/trace analog. The diag module chains per-switch traces along sim
// links into end-to-end explanations and renders them as text and JSON.
//
// ExplainProbe is the hook the classifier carries: a single pointer when
// observability is on, an empty no-op type under ZEN_OBS_DISABLED (the
// verdict stays available either way — the invariant monitor needs only
// the ForwardResult, not the narration).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace zen::dataplane {

enum class ExplainStepKind : std::uint8_t {
  kMegaflow = 0,  // cache probe: hit/miss (+ whether the verdict was cacheable)
  kTableMatch,    // a flow table produced a winner
  kTableMiss,     // a flow table had no matching rule
  kMeter,         // a meter instruction charged (or would drop) the packet
  kGroup,         // group indirection: bucket selection
  kRewrite,       // a set-field / push / pop / dec-ttl action (field diff)
  kOutput,        // the packet left (or failed to leave) a port
  kPacketIn,      // the packet would be punted to the controller
  kDrop,          // the pipeline dropped the packet (reason in detail)
};

const char* to_string(ExplainStepKind kind) noexcept;

struct ExplainStep {
  ExplainStepKind kind = ExplainStepKind::kDrop;
  std::uint8_t table_id = 0;

  // kTableMatch / kTableMiss: one entry per tuple-space hash table probed,
  // in probe order. `pruned` = skipped because its max priority could not
  // beat the best hit so far; `hit` = the masked key found a candidate.
  struct MaskProbe {
    int fields = 0;  // mask specificity (number of non-wildcard fields)
    std::uint16_t max_priority = 0;
    bool hit = false;
    bool pruned = false;
  };
  std::vector<MaskProbe> masks;

  // kTableMatch: the winning rule.
  std::uint16_t priority = 0;
  std::uint64_t cookie = 0;
  std::uint16_t importance = 0;

  // kMegaflow.
  bool cache_hit = false;

  // kGroup.
  std::uint32_t group_id = 0;
  int bucket = -1;  // chosen bucket index (-1 = none / all)
  std::uint64_t hash_point = 0;
  std::uint64_t total_weight = 0;

  // kMeter.
  std::uint32_t meter_id = 0;
  bool allowed = true;

  // kOutput / kPacketIn.
  std::uint32_t port = 0;
  std::uint32_t queue_id = 0;

  // Human-readable specifics: the matched rule's match text and actions,
  // the rewrite field diff, the drop reason, ...
  std::string detail;
};

// Every decision one switch made about one packet.
struct ExplainTrace {
  std::uint64_t dpid = 0;
  std::uint32_t in_port = 0;
  std::vector<ExplainStep> steps;

  // Indented multi-line rendering (one line per step).
  std::string to_text() const;
  // JSON object: {"dpid":..,"in_port":..,"steps":[{...},...]}.
  std::string to_json() const;
};

#ifndef ZEN_OBS_DISABLED

// Carried by the classification walk; records into the attached trace.
struct ExplainProbe {
  ExplainTrace* trace = nullptr;

  void attach(ExplainTrace* t) noexcept { trace = t; }
  bool active() const noexcept { return trace != nullptr; }
  void add(ExplainStep step) {
    if (trace) trace->steps.push_back(std::move(step));
  }
};

#else

// Compiled-out probe: empty, and active() is constexpr-false so every
// `if (probe.active())` block is dead code the optimizer removes.
struct ExplainProbe {
  void attach(ExplainTrace*) noexcept {}
  constexpr bool active() const noexcept { return false; }
  void add(ExplainStep) const noexcept {}
};

#endif

}  // namespace zen::dataplane
