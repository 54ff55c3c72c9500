// Must-pass counterpart of d1_fault_stream_bad.cc: fault decisions as
// pure keyed util::stream_rng draws — no generator outlives the draw,
// so no decision can depend on consumption order. The stream keys
// through a tag of the fixture registry (d6_registry_ok.h).
#include <cstdint>

#include "util/stream_rng.h"

namespace slumber::fault {

bool keyed_loss_draw(std::uint64_t fault_seed, std::uint64_t edge,
                     std::uint64_t round) {
  const std::uint64_t stream =
      util::detail::mix(util::stream_tags::kFxAlphaTag ^ edge, round);
  return util::stream_rng(fault_seed, stream).bernoulli(0.01);
}

}  // namespace slumber::fault
