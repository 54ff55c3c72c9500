// slumber-d5 must-flag fixture for the optional-pool helpers and the
// engine's port walk: a shared scalar stored from a util::for_each_chunk
// body, a lane-invariant slot stored from a util::for_each_index body,
// and a captured outer counter bumped from a BulkEngine::reach callback
// nested in a scan_awake body. Analyzed as if under src/bulk/; never
// compiled.

void fx_bad_chunks(Pool* pool, const std::vector<std::uint64_t>& fx_xs,
                   std::vector<std::uint64_t>& fx_parts) {
  std::uint64_t fx_total = 0;
  util::for_each_chunk(
      pool, fx_xs.size(),
      [&](std::size_t c, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          fx_total += fx_xs[i];  // MUST-FLAG(slumber-d5)
        }
        fx_parts[c] += end - begin;
      });
  util::for_each_index(pool, fx_xs.size(), [&](std::size_t b) {
    fx_parts[0] += fx_xs[b];  // MUST-FLAG(slumber-d5)
  });
}

void fx_bad_reach(Engine& eng, const std::vector<Vertex>& fx_members,
                  const std::vector<std::uint8_t>& fx_flag, Round round) {
  std::uint64_t fx_flagged = 0;
  eng.scan_awake(fx_members,
                 [&](Chunk& chunk, std::span<const Vertex> part) {
                   for (const Vertex v : part) {
                     const Reach r =
                         eng.reach(v, round, [&](Vertex u, std::uint32_t) {
                           fx_flagged += fx_flag[u];  // MUST-FLAG(slumber-d5)
                         });
                     chunk.charge_received(v, r.heard);
                   }
                 });
}
