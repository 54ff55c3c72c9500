#!/usr/bin/env python3
"""Mutation test for the slumber-lint determinism analyzer.

Plants known determinism bugs into copies of the real src/ tree -- at
the call sites that motivated the D1 and D5-D8 rules -- and asserts
that tools/lint/slumber_checks.py flags each plant with the expected
rule in the expected file. A run on the unmutated copy must be clean,
so the test also pins "zero findings on the real tree" as a regression
gate.

The copies live in a temp directory; the repo itself is never touched.

Exit status: 0 all plants flagged + clean tree clean, 1 otherwise.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.abspath(os.path.join(HERE, "..", ".."))
CHECKER = os.path.join(HERE, "slumber_checks.py")

# (id, repo-relative file to mutate, exact original text, mutated text,
# rule that must fire, file the finding must land in). Originals are
# exact substrings of the current tree; the test fails loudly if drift
# makes one unmatchable, which is the signal to re-aim the plant rather
# than let the gate rot.
PLANTS = [
    (
        "d1-trial-threads-hardware",
        "src/analysis/parallel.cc",
        "return util::ThreadPool::hardware_threads();",
        "return std::thread::hardware_concurrency();",
        "slumber-d1",
        "src/analysis/parallel.cc",
    ),
    (
        # The awake bitset's word-run flush turned into a plain OR: two
        # chunks can hold members of one word, so this races, though
        # the subscript is derived from the lane's range.
        "d5-engine-mark-awake",
        "src/bulk/engine.cc",
        "std::atomic_ref(words[word]).fetch_or(run, "
        "std::memory_order_relaxed);",
        "words[word] |= run;",
        "slumber-d5",
        "src/bulk/engine.cc",
    ),
    (
        # from_csr's mirror tally stored to one shared slot from the
        # named block lambda: D5 must resolve the lambda by name.
        "d5-from-csr-block-tally",
        "src/graph/graph.cc",
        "mirrored_parts[b] = found;",
        "mirrored_parts[0] += found;",
        "slumber-d5",
        "src/graph/graph.cc",
    ),
    (
        # The announce-and-join scan's tally hoisted out of the lambda
        # into the free helper that hands it to scan_awake: every lane
        # then adds into one captured counter from its reach callback.
        # D5 must analyze a scan body that lives in a free helper, not
        # in a protocol's run(), and see a store in a nested callback.
        "d5-join-scan-hoisted-tally",
        "src/bulk/baselines.cc",
        "  const auto join = [&](BulkChunk& chunk, "
        "std::span<const VertexId> part) {\n"
        "    for (const VertexId v : part) {\n"
        "      std::uint64_t joins_heard = 0;\n",
        "  std::uint64_t joins_heard = 0;\n"
        "  const auto join = [&](BulkChunk& chunk, "
        "std::span<const VertexId> part) {\n"
        "    for (const VertexId v : part) {\n",
        "slumber-d5",
        "src/bulk/baselines.cc",
    ),
    (
        "d5-churn-leave-counter",
        "src/fault/churn.cc",
        "++leave_parts[c];",
        "++leave_parts[0];",
        "slumber-d5",
        "src/fault/churn.cc",
    ),
    (
        "d6-registry-high32-collision",
        "src/util/stream_tags.h",
        "0xC4A54AD0'5EED'0002ULL",
        "0x10557AD0'5EED'0002ULL",
        "slumber-d6",
        "src/util/stream_tags.h",
    ),
    (
        "d6-churn-unregistered-stream",
        "src/fault/churn.cc",
        "util::stream_tags::kChurnTag ^ static_cast<VertexId>(v)",
        "0x99990000ULL ^ static_cast<VertexId>(v)",
        "slumber-d6",
        "src/fault/churn.cc",
    ),
    (
        "d6-live-churn-unregistered-stream",
        "src/fault/fault.h",
        "util::stream_tags::kLiveChurnTag ^ v",
        "0xBADC0DE5EEDULL ^ v",
        "slumber-d6",
        "src/fault/fault.h",
    ),
    (
        "d6-burst-unregistered-stream",
        "src/fault/fault.h",
        "util::stream_tags::kBurstTag ^ edge",
        "0xFEED5EEDULL ^ edge",
        "slumber-d6",
        "src/fault/fault.h",
    ),
    (
        "d7-engine-truncated-makespan",
        "src/bulk/engine.cc",
        "metrics_.makespan = saturate_round(virtual_makespan_);",
        "metrics_.makespan = "
        "static_cast<std::uint64_t>(virtual_makespan_);",
        "slumber-d7",
        "src/bulk/engine.cc",
    ),
    (
        # The taint must cross into the header template that calls the
        # tainted function, past its brace-bearing trailing return type.
        "d8-trial-threads-rss",
        "src/analysis/parallel.cc",
        "return util::ThreadPool::hardware_threads();",
        "return static_cast<unsigned>(obs::peak_rss_kb() % 64 + 1);",
        "slumber-d8",
        "src/analysis/parallel.h",
    ),
]

FINDING_RE = re.compile(r"^(?P<path>\S+):\d+: \[(?P<rule>slumber-[\w-]+)\]",
                        re.MULTILINE)


def run_linter(root: str) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, CHECKER, "--root", root],
        capture_output=True, text=True, check=False)
    return proc.returncode, proc.stdout + proc.stderr


def copy_src(dest_root: str) -> None:
    shutil.copytree(os.path.join(REPO, "src"),
                    os.path.join(dest_root, "src"))


def main() -> int:
    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="slumber-mutation-") as tmp:
        clean_root = os.path.join(tmp, "clean")
        copy_src(clean_root)
        code, out = run_linter(clean_root)
        if code != 0:
            failures.append(
                f"clean tree: expected exit 0, got {code}\n{out}")
        else:
            print("mutation_test: clean tree OK")

        for plant_id, relpath, original, mutated, rule, lands_in in PLANTS:
            root = os.path.join(tmp, plant_id)
            copy_src(root)
            target = os.path.join(root, relpath)
            with open(target, "r", encoding="utf-8") as fh:
                text = fh.read()
            if original not in text:
                failures.append(
                    f"{plant_id}: plant text not found in {relpath}; "
                    f"the tree drifted -- re-aim this plant")
                continue
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text.replace(original, mutated, 1))
            code, out = run_linter(root)
            hits = {(m.group("path"), m.group("rule"))
                    for m in FINDING_RE.finditer(out)}
            if code != 1:
                failures.append(
                    f"{plant_id}: expected exit 1, got {code}\n{out}")
            elif (lands_in, rule) not in hits:
                failures.append(
                    f"{plant_id}: no {rule} finding in {lands_in}:\n{out}")
            else:
                print(f"mutation_test: {plant_id} caught ({rule} in "
                      f"{lands_in})")

    if failures:
        print(f"mutation_test: FAIL ({len(failures)} problems)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"mutation_test: OK ({len(PLANTS)} plants caught, "
          f"clean tree clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
