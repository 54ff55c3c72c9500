// slumber-d5 must-flag fixture: stores through captured references
// that are not indexed by the lane's chunk/index parameters. Analyzed
// as if under src/bulk/; never compiled.

void fx_bad_scan(Pool* pool, std::vector<std::uint64_t>& fx_totals,
                 std::vector<std::uint64_t>& fx_slots) {
  std::uint64_t fx_sum = 0;
  std::size_t fx_cursor = 0;
  pool->parallel_for_range(
      fx_slots.size(),
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          fx_sum += fx_slots[i];        // MUST-FLAG(slumber-d5)
          fx_totals[0] += fx_slots[i];  // MUST-FLAG(slumber-d5)
          fx_slots[fx_cursor++] = i;    // MUST-FLAG(slumber-d5)
        }
        fx_totals[c] += 1;
      });
}

void fx_bad_span(Engine& eng, const std::vector<Vertex>& fx_members,
                 std::vector<std::uint32_t>& fx_stamp) {
  std::uint64_t fx_seen = 0;
  eng.scan_awake(fx_members,
                 [&](Chunk& chunk, std::span<const Vertex> part) {
                   for (const Vertex v : part) {
                     fx_stamp[v] = 1;
                     ++fx_seen;  // MUST-FLAG(slumber-d5)
                     chunk.keep(v);
                   }
                 });
}

void fx_bad_deref(Pool* pool, std::uint64_t* fx_last) {
  pool->parallel_for_index(8, [&](std::size_t b) {
    *fx_last = b;  // MUST-FLAG(slumber-d5)
  });
}

// A packed subscript is many-to-one: the nodes v and v ^ 1 share a
// word, and neighboring members of one list can fall to two lanes.
void fx_bad_packed(Engine& eng, const std::vector<Vertex>& fx_members,
                   std::vector<std::uint64_t>& fx_words) {
  eng.scan_awake(fx_members,
                 [&](Chunk&, std::span<const Vertex> part) {
                   for (const Vertex v : part) {
                     fx_words[v >> 6] |= std::uint64_t{1} << (v & 63);  // MUST-FLAG(slumber-d5)
                     const auto w = v / 64;
                     fx_words[w] |= std::uint64_t{1} << (v % 64);  // MUST-FLAG(slumber-d5)
                   }
                 });
}

// A lambda handed over by name is analyzed at its definition, and a
// store after a braceless if/else/for head is a store like any other.
void fx_bad_named(Pool* pool, std::vector<std::uint64_t>& fx_parts) {
  bool fx_bad = false;
  std::size_t fx_last = 0;
  const auto fx_check_block = [&](std::size_t b) {
    fx_bad = b > 3;       // MUST-FLAG(slumber-d5)
    fx_parts[0] += b;     // MUST-FLAG(slumber-d5)
  };
  pool->parallel_for_index(8, fx_check_block);
  pool->parallel_for_index(8, [&](std::size_t b) {
    if (b == 3) fx_bad = true;  // MUST-FLAG(slumber-d5)
    if (b % 2 == 0) {
      fx_parts[b] = 1;
    } else fx_bad = true;  // MUST-FLAG(slumber-d5)
    for (std::size_t i = 0; i < b; ++i) fx_last = i;  // MUST-FLAG(slumber-d5)
  });
}
