// Messages in the CONGEST model.
//
// The paper assumes the synchronous CONGEST(log n) model (Section 1.2):
// per round, a node may send an O(log n)-bit message over each incident
// edge. We model a message as a small fixed layout -- a protocol tag plus
// up to two payload words -- and each message *declares* its width in
// bits. The network enforces the declared width against the configured
// CONGEST budget, so an algorithm that accidentally needed big messages
// would fail loudly in tests.
#pragma once

#include <cstdint>

#include "graph/graph.h"

namespace slumber::sim {

/// Protocol-defined message tag.
enum class MsgKind : std::uint8_t {
  kHello = 0,       // presence probe (isolated-node detection)
  kStatus = 1,      // MIS status: payload_a in {0=false, 1=true, 2=unknown}
  kRank = 2,        // a random priority/rank in payload_a
  kInMis = 3,       // "I joined the MIS"
  kProb = 5,        // Ghaffari desire level (fixed point) in payload_a
  kMark = 6,        // Ghaffari mark
  kColor = 7,       // tentative or final color in payload_a
  kBeep = 8,        // a 1-bit carrier pulse (beeping model, no payload)
  kCustom = 255,
};

/// A CONGEST message: tag + up to two payload words, with a declared
/// bit-width used for CONGEST accounting.
struct Message {
  MsgKind kind = MsgKind::kCustom;
  std::uint64_t payload_a = 0;
  std::uint64_t payload_b = 0;
  std::uint32_t bits = 8;  // declared width, must cover the payload used

  static Message hello() { return {MsgKind::kHello, 0, 0, 8}; }

  /// Status message carrying an inMIS value (0/1/2); 2 status bits + tag.
  static Message status(std::uint64_t value) {
    return {MsgKind::kStatus, value, 0, 10};
  }

  /// A rank message: `rank_bits` must be O(log n) for CONGEST compliance;
  /// the distributed greedy algorithms use ranks of ~3 log n bits.
  static Message rank(std::uint64_t rank, std::uint32_t rank_bits) {
    return {MsgKind::kRank, rank, 0, rank_bits + 8};
  }

  static Message in_mis() { return {MsgKind::kInMis, 0, 0, 8}; }

  /// Desire level for Ghaffari's algorithm. Desire levels are always
  /// exact powers of two (start at 1/2, halve or double), so only the
  /// exponent e with p = 2^-e travels: 16 bits is ample.
  static Message prob(std::uint64_t exponent) {
    return {MsgKind::kProb, exponent, 0, 24};
  }

  static Message mark() { return {MsgKind::kMark, 0, 0, 8}; }

  /// A beep: the 1-bit primitive of the beeping model (Afek et al.). A
  /// listener learns only "at least one neighbor beeped this slot".
  static Message beep() { return {MsgKind::kBeep, 0, 0, 1}; }

  static Message color(std::uint64_t c, std::uint32_t color_bits) {
    return {MsgKind::kColor, c, 0, color_bits + 8};
  }
};

/// A received message together with its provenance.
struct Received {
  VertexId from = kInvalidVertex;  // sender id
  std::uint32_t port = 0;          // receiver's port the message arrived on
  Message msg;
};

}  // namespace slumber::sim
