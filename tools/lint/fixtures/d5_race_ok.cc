// slumber-d5 must-pass fixture: the repo's sanctioned patterns --
// chunk-indexed partials (also through a lane-local pointer), indices
// derived from the lane's parameters (transitively), range-fors over
// the handed span, atomics (also an atomic_ref flush into a packed
// word), a nested dispatcher whose own index parameters stay its
// own, and per-block partials stored from a named lambda or after a
// braceless if/else/for head.

void fx_ok_scan(Engine& eng, Pool* pool,
                const std::vector<Vertex>& fx_members,
                std::vector<std::uint64_t>& fx_parts,
                std::vector<std::uint32_t>& fx_stamp,
                std::atomic<std::uint64_t>& fx_atomic_total) {
  pool->parallel_for_range(
      fx_stamp.size(),
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        std::uint64_t fx_local = 0;
        for (std::size_t i = begin; i < end; ++i) {
          fx_local += i;
          const std::size_t fx_slot = i * 2;
          fx_stamp[fx_slot] = 1;
        }
        fx_parts[c] += fx_local;
        std::uint64_t* fx_part = &fx_parts[c];
        *fx_part += 1;
        fx_atomic_total += fx_local;
      });
  eng.scan_awake(fx_members,
                 [&](Chunk& chunk, std::span<const Vertex> part) {
                   for (const Vertex v : part) {
                     fx_stamp[v] = 2;
                     chunk.keep(v);
                   }
                 });
}

void fx_ok_nested(Pool* pool, std::vector<std::uint64_t>& fx_outer_parts) {
  pool->parallel_for_index(4, [&](std::size_t b) {
    fx_outer_parts[b] += 1;
    pool->parallel_for_range(
        8, [&](std::size_t c2, std::size_t b2, std::size_t e2) {
          fx_outer_parts[c2] += b2 + e2;
        });
  });
}

void fx_ok_justified(Pool* pool, std::vector<std::uint64_t>& fx_cells) {
  pool->parallel_for_index(4, [&](std::size_t b) {
    // Blocks 1+ take the else branch, so cell 0 has a single writer.
    // NOLINTNEXTLINE(slumber-d5): cell 0 is single-writer by construction
    if (b == 0) fx_cells[0] = 7;
  });
}

void fx_ok_packed(Pool* pool, const std::vector<Vertex>& fx_members,
                  std::vector<std::uint64_t>& fx_words) {
  pool->parallel_for_range(
      fx_members.size(),
      [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const std::size_t fx_word = fx_members[i] >> 6;
          std::atomic_ref(fx_words[fx_word])
              .fetch_or(std::uint64_t{1} << (fx_members[i] & 63),
                        std::memory_order_relaxed);
        }
      });
}

void fx_ok_named(Pool* pool, std::vector<std::uint8_t>& fx_block_flags,
                 std::vector<std::uint64_t>& fx_block_last) {
  const auto fx_check_block = [&](std::size_t b) {
    bool fx_bad = false;
    if (b == 3) fx_bad = true;
    fx_block_flags[b] = fx_bad ? 1 : 0;
  };
  pool->parallel_for_index(8, fx_check_block);
  for (std::size_t b = 0; b < 8; ++b) fx_check_block(b);
  pool->parallel_for_index(8, [&](std::size_t b) {
    if (b == 3) fx_block_flags[b] = 1;
    if (b % 2 == 0) {
      fx_block_flags[b] |= 2;
    } else fx_block_flags[b] |= 4;
    for (std::size_t i = 0; i < b; ++i) fx_block_last[b] = i;
  });
}
