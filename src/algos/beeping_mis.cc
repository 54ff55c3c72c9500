#include "algos/beeping_mis.h"

#include <bit>

#include "algos/common.h"

namespace slumber::algos {
namespace {

sim::Task beeping_node(sim::Context& ctx, BeepingMisOptions options) {
  const std::uint64_t phase_cap = iteration_cap(options.max_phases, ctx.n());
  const std::uint32_t id_bits = static_cast<std::uint32_t>(
      std::bit_width(std::max<std::uint64_t>(ctx.n(), 2) - 1));
  // The composite rank (random bits above the id) lives in one 64-bit
  // word, so cap the random part at 64 - id_bits: past n = 65536 the
  // uncapped 3 log2 n + id_bits would exceed 64 and the auction's bit
  // shifts would be undefined.
  const std::uint32_t random_bits =
      std::min(rank_bits_for(ctx.n()), 64 - id_bits);
  const std::uint32_t total_bits = random_bits + id_bits;

  for (std::uint64_t phase = 0; phase < phase_cap; ++phase) {
    const bool candidate = ctx.rng().bernoulli(options.candidate_prob);
    // Composite rank: random bits then id, so adjacent candidates can
    // never tie and the independence argument needs no whp caveat.
    const std::uint64_t rank =
        candidate ? (ctx.rng().below(std::uint64_t{1} << random_bits)
                     << id_bits) |
                        ctx.id()
                  : 0;

    // Bit auction, most significant bit first.
    bool contending = candidate;
    for (std::uint32_t slot = 0; slot < total_bits; ++slot) {
      const std::uint32_t bit_index = total_bits - 1 - slot;
      const bool my_bit = contending && ((rank >> bit_index) & 1) != 0;
      if (my_bit) {
        // A beeping node cannot listen: discard the slot's inbox.
        (void)co_await ctx.broadcast(sim::Message::beep());
      } else {
        sim::Inbox inbox = co_await ctx.listen();
        contending = contending && !heard(inbox, sim::MsgKind::kBeep);
      }
    }

    // Join slot: survivors announce and exit; listeners that hear a
    // join beep are dominated.
    co_await join_round(ctx, contending, sim::Message::beep());
    if (ctx.decided()) co_return;
  }
}

}  // namespace

sim::Protocol beeping_mis(BeepingMisOptions options) {
  return [options](sim::Context& ctx) { return beeping_node(ctx, options); };
}

}  // namespace slumber::algos
