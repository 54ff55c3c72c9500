// slumber-d5 must-pass fixture for the optional-pool helpers and the
// engine's port walk: per-chunk partials from a util::for_each_chunk
// body, per-block partials from a util::for_each_index body (inline and
// by name), and scan-body locals written from a BulkEngine::reach
// callback nested in a scan_awake body.

void fx_ok_chunks(Pool* pool, const std::vector<std::uint64_t>& fx_xs,
                  std::vector<std::uint64_t>& fx_parts,
                  std::vector<std::uint8_t>& fx_block_flags) {
  util::for_each_chunk(
      pool, fx_xs.size(),
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        std::uint64_t fx_local = 0;
        for (std::size_t i = begin; i < end; ++i) fx_local += fx_xs[i];
        fx_parts[c] = fx_local;
      });
  util::for_each_index(pool, fx_xs.size(), [&](std::size_t b) {
    fx_block_flags[b] = fx_xs[b] > 3 ? 1 : 0;
  });
  const auto fx_check_block = [&](std::size_t b) {
    fx_parts[b] += fx_xs[b];
  };
  util::for_each_index(pool, fx_xs.size(), fx_check_block);
}

void fx_ok_reach(Engine& eng, const std::vector<Vertex>& fx_members,
                 const std::vector<std::uint8_t>& fx_flag,
                 std::vector<std::uint8_t>& fx_win, Round round) {
  eng.scan_awake(fx_members,
                 [&](Chunk& chunk, std::span<const Vertex> part) {
                   for (const Vertex v : part) {
                     std::uint64_t fx_flagged = 0;
                     bool fx_wins = true;
                     const Reach r =
                         eng.reach(v, round, [&](Vertex u, std::uint32_t) {
                           fx_flagged += fx_flag[u];
                           if (u > v) fx_wins = false;
                         });
                     chunk.charge_received(v, fx_flagged + r.heard);
                     fx_win[v] = fx_wins ? 1 : 0;
                   }
                 });
}
