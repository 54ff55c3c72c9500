#!/usr/bin/env python3
"""slumber-lint custom checks: the repo's determinism & concurrency rules.

Stock clang-tidy cannot express the invariants this reproduction's
science rests on (bitwise-identical trial output at every lane count),
so this checker enforces them directly. Every scanned file is parsed
once into a comment-aware FileModel and all rules run over the models
in one pass; D8 then joins the per-file function tables into one call
graph.

  slumber-d1  No nondeterminism sources in src/: std::rand/srand,
              std::random_device, std::chrono::*::now (timing belongs
              in bench/), time(nullptr)-style seeding, and
              thread::hardware_concurrency outside the documented
              default_trial_threads precedence chain
              (src/util/thread_pool.cc is the single allowed site).
              src/obs/ is the one scope allowed to read the wall
              clock: the telemetry layer is out-of-band by contract
              (timestamps flow to sinks only, never back into a
              schedule or decided output). Outside src/obs/, src/ code
              must also never *read* telemetry back (obs::peak_rss_kb,
              obs::proc::*): a measurement feeding a decision would
              make trial output machine-dependent.
              src/fault/ additionally bans sequential RNG state (Rng
              construction, Rng::split, engine node_rng streams): every
              fault decision must be a pure keyed util::stream_rng
              draw, which is what makes the fault layer engine- and
              lane-count-independent.
  slumber-d2  No iteration over std::unordered_map/set/multimap/multiset
              anywhere findings-bearing code lives (src/, bench/,
              examples/, tools/): iteration order is implementation-
              defined. Lookup-only use (find/emplace/insert/count) is
              deterministic and allowed; ordered drains must go through
              sorted containers or sort-before-iterate.
  slumber-d3  Atomic reductions must be commutative-and-associative
              integer ops: fetch_add/fetch_sub on floating-point
              atomics is flagged (FP addition is not associative, so
              the merged value depends on lane interleaving), and any
              compare_exchange loop needs an explicit justification
              (the documented tri-state Unknown->True/False pattern in
              src/bulk/sleeping_mis.cc uses plain relaxed load/store,
              not CAS).
  slumber-d4  memory_order stricter than relaxed requires an adjacent
              justification comment (same line or the three lines
              above).
  slumber-d5  Race discipline in pool lambdas, across the whole scan.
              For every lambda handed to a sharding dispatcher
              (parallel_for_range / parallel_for_index /
              util::for_each_chunk / util::for_each_index / scan_range /
              scan_awake), inline or by the name of a local lambda
              defined earlier, resolve which names are lane-local: the
              chunk/index parameters, everything derived from them
              (transitively, through initializers and range-fors over
              the handed span), and body locals, which include the
              parameters of a callback nested in the body (such as a
              BulkEngine::reach visitor, whose stores are the body's
              stores). A store through a
              captured reference (`x = ...`, `++x`, `*p = ...`) whose
              target (also after a braceless if/for/while/switch head
              or an else) is not lane-local, not atomic (in this file or
              its same-stem header), and not subscripted by a derived
              index is a cross-lane race, or an order-dependent
              reduction, and is flagged: `parts[c] += x` passes,
              `parts[0] += x` and `++hits` do not. A subscript that
              reaches the index only through `>>` or `/` (`bits[v >>
              6]`, or a local `w = v / 64`) is many-to-one -- lanes
              share the packed word -- so it proves nothing: the store
              must be atomic or carry a NOLINT with a reason.
  slumber-d6  RNG stream-tag registry. src/util/stream_tags.h declares
              every domain-separation tag; the checker proves the
              registry well-formed (annotation format, kAllStreamTags
              listing, pairwise-distinct high 32 bits) and that every
              util::stream_rng call site under src/ keys its stream
              through a registered tag (directly or via a one-hop local
              definition) or sits on a documented block-counter
              discipline marked SLUMBER-STREAM-DISCIPLINE(block-counter).
  slumber-d7  Clock-width safety. The bulk engine's virtual clock is
              128-bit (VirtualRound); narrowing it to 64 bits anywhere
              in src/ except the blessed saturate helpers
              (saturate_round / round_halves in src/bulk/) silently
              truncates at deep recursions (K >= 62 is reached at
              n = 10M). Flagged: static_cast<64-bit int>(clock
              expression) and implicit 64-bit-typed declarations
              initialized from clock expressions.
  slumber-d8  Cross-TU obs write-only discipline. D1 bans *direct*
              telemetry readbacks outside src/obs/; D8 closes the
              transitive hole: a function-level call graph over every
              scanned src/ file proves no function outside src/obs/
              *transitively* reads telemetry state through helpers.

Suppression: clang-tidy style, with a mandatory reason string --
    // NOLINT(slumber-d2): drained into a sorted vector first
    // NOLINTNEXTLINE(slumber-d1): wall-clock only feeds the progress log
A NOLINT without a reason is itself a finding (slumber-nolint).

The analysis is structural (comment/string-aware tokenization, brace
matching, one-hop def-use) and stdlib-only, so it runs unchanged in
minimal containers and CI images without a clang toolchain. Known
limits: member-qualified clock reads (`x.round`) resolve by field name,
not by object type, and a lambda handed to a dispatcher by name
resolves to the nearest earlier `auto NAME = [` in the file, not by
scope.

Usage:
    tools/lint/slumber_checks.py [--root REPO] [--gha] [paths...]
    tools/lint/slumber_checks.py --self-test        # fixture suite

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import bisect
import os
import re
import sys
from collections.abc import Iterator
from dataclasses import dataclass

# Directories scanned in tree mode, relative to the repo root. tests/
# are deliberately excluded: they keep hash-container reference
# implementations as behavioral oracles for the rewrites this lint
# mandates (see tests/determinism_container_test.cc).
TREE_SCAN_DIRS = ("src", "bench", "examples", "tools")
CXX_EXTENSIONS = (".cc", ".h", ".cpp", ".hpp")
REGISTRY_REL = "src/util/stream_tags.h"
# The stream_rng definition itself is not a call site.
STREAM_DEF_REL = "src/util/stream_rng.h"

# The self-test analyzes each fixture at a tree path so the scoped
# rules see it where they apply; first matching prefix wins.
# d6_registry_ok.h stands in for the registry itself.
FIXTURE_SCOPES = (
    ("d1_fault_", "src/fault/"),
    ("d1_obs_", "src/obs/"),
    ("d5_", "src/bulk/"),
    ("d6_", "src/fault/"),
    ("d7_", "src/bulk/"),
    ("d8_obs_", "src/obs/"),
    ("", "src/lint_fixture/"),
)
REGISTRY_FIXTURE = "d6_registry_ok.h"


@dataclass(frozen=True)
class Finding:
    path: str
    line: int  # 1-based
    rule: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


# --------------------------------------------------------------------------
# the per-file model
# --------------------------------------------------------------------------

def split_views(text: str) -> tuple[list[str], list[str]]:
    """Comment/string-aware split of a C++ source into per-line code and
    comment views. Code lines keep their columns, with comments and
    string/char literal contents blanked."""
    code: list[str] = []
    comments: list[str] = []
    cur_code: list[str] = []
    cur_comment: list[str] = []
    i = 0
    n = len(text)
    state = "code"  # code | line_comment | block_comment | string | char | raw
    raw_delim = ""
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "\n":
            code.append("".join(cur_code))
            comments.append("".join(cur_comment))
            cur_code, cur_comment = [], []
            if state == "line_comment":
                state = "code"
            i += 1
            continue
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                cur_code.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                cur_code.append("  ")
                i += 2
                continue
            if c == "R" and nxt == '"':
                m = re.match(r'R"([^(\s\\")]{0,16})\(', text[i:])
                if m:
                    raw_delim = m.group(1)
                    state = "raw"
                    cur_code.append(" " * len(m.group(0)))
                    i += len(m.group(0))
                    continue
            if c == '"':
                state = "string"
                cur_code.append('"')
                i += 1
                continue
            if c == "'":
                state = "char"
                cur_code.append("'")
                i += 1
                continue
            cur_code.append(c)
            i += 1
            continue
        if state == "line_comment":
            cur_comment.append(c)
            cur_code.append(" ")
            i += 1
            continue
        if state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                cur_code.append("  ")
                i += 2
                continue
            cur_comment.append(c)
            cur_code.append(" ")
            i += 1
            continue
        if state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                cur_code.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                cur_code.append(quote)
                i += 1
                continue
            cur_code.append(" ")
            i += 1
            continue
        if state == "raw":
            end = ')' + raw_delim + '"'
            if text.startswith(end, i):
                state = "code"
                cur_code.append(" " * len(end))
                i += len(end)
                continue
            cur_code.append(" ")
            i += 1
            continue
    if cur_code or cur_comment:
        code.append("".join(cur_code))
        comments.append("".join(cur_comment))
    return code, comments


NOLINT_RE = re.compile(
    r"NOLINT(?P<next>NEXTLINE)?\((?P<rules>[^)]*)\)(?P<rest>.*)", re.DOTALL)
MUST_FLAG_RE = re.compile(r"MUST-FLAG\((?P<rule>slumber-[\w-]+)\)")


def nolint_suppressions(path: str, comments: list[str]) -> tuple[
        dict[int, set[str]], list[Finding]]:
    """Maps 0-based line -> set of suppressed rule names.

    NOLINT suppresses on its own line, NOLINTNEXTLINE on the following
    line. A marker without a reason string is a slumber-nolint finding.
    """
    suppressed: dict[int, set[str]] = {}
    findings: list[Finding] = []
    for idx, comment in enumerate(comments):
        m = NOLINT_RE.search(comment)
        if not m:
            continue
        rules = {r.strip() for r in m.group("rules").split(",") if r.strip()}
        slumber_rules = {r for r in rules if r.startswith("slumber-")}
        if not slumber_rules:
            continue  # plain clang-tidy NOLINT; not ours to police
        reason = MUST_FLAG_RE.sub("", m.group("rest")).lstrip(": \t").strip()
        if len(reason) < 8:
            findings.append(Finding(
                path, idx + 1, "slumber-nolint",
                "NOLINT(slumber-*) requires a reason string: "
                "`// NOLINT(slumber-dN): why this is sound`"))
        target = idx + 1 if m.group("next") else idx
        suppressed.setdefault(target, set()).update(slumber_rules)
    return suppressed, findings


CLOCK_VAR_RE = re.compile(r"\bVirtualRound\b\s*&?\s*([A-Za-z_]\w*)")
CLOCK_INT128_RE = re.compile(r"\bunsigned\s+__int128\s+([A-Za-z_]\w*)")
CLOCK_FN_RE = re.compile(r"\bVirtualRound\s+([A-Za-z_]\w*)\s*\(")
NONCLOCK_RE = re.compile(
    r"\b(?:std::)?(?:u?int(?:8|16|32|64)_t|size_t|ptrdiff_t)\s+"
    r"([A-Za-z_]\w*)")
ATOMIC_RE = re.compile(
    r"\bstd::atomic(?:_ref)?\s*<[^;{}]*>\s*&?\s*([A-Za-z_]\w*)")


@dataclass
class FileModel:
    """One C++ file, parsed once for every rule.

    `code[i]` is line i's code view and `comments[i]` its comment text;
    `text` is the code view joined back into one string for the
    multi-line extractors, and `starts` its line offsets. The name sets
    are the type facts D5 and D7 resolve against.
    """

    path: str  # repo-relative scope path, e.g. src/bulk/engine.cc
    raw: str
    code: list[str]
    comments: list[str]
    text: str
    starts: list[int]
    suppressed: dict[int, set[str]]
    nolint: list[Finding]  # reasonless NOLINT(slumber-*) markers
    clock_names: set[str]
    clock_fns: set[str]
    nonclock_names: set[str]
    atomic_names: set[str]

    def window(self, idx: int) -> list[str]:
        """Comments on line idx and the three lines above it."""
        return self.comments[max(0, idx - 3):idx + 1]

    def flag(self, out: list[Finding], idx: int, rule: str,
             message: str) -> None:
        """Appends a finding on 0-based line idx unless a NOLINT for the
        rule covers that line."""
        rules = self.suppressed.get(idx, set())
        if rule not in rules and "slumber-all" not in rules:
            out.append(Finding(self.path, idx + 1, rule, message))


def line_starts_of(text: str) -> list[int]:
    starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            starts.append(i + 1)
    return starts


def line_of(starts: list[int], pos: int) -> int:
    return bisect.bisect_right(starts, pos) - 1


def parse_model(path: str, raw: str) -> FileModel:
    code, comments = split_views(raw)
    text = "\n".join(code)
    suppressed, nolint = nolint_suppressions(path, comments)
    clock_fns = set(CLOCK_FN_RE.findall(text))
    return FileModel(
        path, raw, code, comments, text, line_starts_of(text), suppressed,
        nolint,
        clock_names=(set(CLOCK_VAR_RE.findall(text)) |
                     set(CLOCK_INT128_RE.findall(text))) - clock_fns,
        clock_fns=clock_fns,
        nonclock_names=set(NONCLOCK_RE.findall(text)),
        atomic_names=set(ATOMIC_RE.findall(text)))


def load_model(abspath: str, path: str) -> FileModel:
    with open(abspath, "r", encoding="utf-8", errors="replace") as fh:
        return parse_model(path, fh.read())


# --------------------------------------------------------------------------
# lexical helpers
# --------------------------------------------------------------------------

WORD_RE = re.compile(r"[A-Za-z_]\w*")


def match_forward(text: str, pos: int, open_ch: str, close_ch: str) -> int:
    """Index of the close matching text[pos] == open_ch, or -1."""
    depth = 0
    for i in range(pos, len(text)):
        if text[i] == open_ch:
            depth += 1
        elif text[i] == close_ch:
            depth -= 1
            if depth == 0:
                return i
    return -1


def body_open(text: str, pos: int) -> int:
    """Offset of the `{` opening the body of a definition whose
    parameter list closes just before pos, or -1 when a `;` or `=` ends
    a declaration first. Balanced (...) groups are skipped, so a
    trailing return type such as `-> decltype(fn(std::size_t{0}))` is
    passed over rather than taken for the body."""
    depth = 0
    for i in range(pos, len(text)):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                return -1
            depth -= 1
        elif depth == 0 and ch in "{;=":
            return i if ch == "{" else -1
    return -1


def split_args(text: str) -> list[str]:
    """Splits an argument list on top-level commas."""
    args: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in text:
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        if ch == "," and depth == 0:
            args.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur or args:
        args.append("".join(cur))
    return args


def param_name(param: str) -> str | None:
    """Name of a function parameter, or None when unnamed."""
    param = param.strip()
    if not param or param.endswith("..."):
        return None
    m = re.search(r"([A-Za-z_]\w*)\s*$", param)
    if not m:
        return None
    before = param[:m.start()].rstrip()
    if not before or before.endswith("::"):
        return None  # a bare (possibly qualified) type: unnamed param
    return m.group(1)


def word_in(text: str, names: set[str]) -> bool:
    return any(m.group(0) in names for m in WORD_RE.finditer(text))


# --------------------------------------------------------------------------
# slumber-d1: nondeterminism sources
# --------------------------------------------------------------------------

# (pattern, name, explanation) rows.
D1_PATTERNS = (
    (re.compile(r"\bstd::rand\b|(?<![\w:])rand\s*\("), "std::rand",
     "non-reproducible RNG; use util::Rng / util::stream_rng seeded from "
     "the trial schedule"),
    (re.compile(r"\bsrand\s*\(|\bstd::srand\b"), "srand",
     "global RNG seeding is hidden state; use util::Rng / "
     "util::stream_rng"),
    (re.compile(r"\brandom_device\b"), "std::random_device",
     "non-reproducible entropy source; seeds must come from the trial "
     "schedule"),
    (re.compile(r"\b(?:steady_clock|system_clock|high_resolution_clock)\s*"
                r"::\s*now\s*\("), "std::chrono::*::now",
     "wall-clock reads are nondeterministic; timing belongs in bench/, "
     "not src/"),
    (re.compile(r"(?<![\w:])time\s*\(\s*(?:NULL|nullptr|0)\s*\)"),
     "time(nullptr) seeding",
     "time-derived values are nondeterministic; seeds must come from the "
     "trial schedule"),
    (re.compile(r"\bhardware_concurrency\b"), "hardware_concurrency",
     "machine-dependent value; route through the default_trial_threads "
     "precedence chain (--threads > SLUMBER_THREADS > hardware)"),
)

# The single hardware_concurrency call the default_trial_threads
# precedence chain (--threads > SLUMBER_THREADS > hardware) ends in.
D1_ALLOWLIST = {("src/util/thread_pool.cc", "hardware_concurrency")}

# src/obs/ exemption: the telemetry layer is the repo's one sanctioned
# wall-clock consumer. Its out-of-band contract (timestamps reach the
# JSONL/trace sinks and the stderr heartbeat only — never an RNG, a
# schedule, or a decided output) is what the obs on/off bitwise-identity
# tests pin, so clock reads there cannot perturb the science.
D1_OBS_SCOPE_PREFIX = "src/obs/"
D1_OBS_ALLOWED_NAMES = {"std::chrono::*::now"}

# The readback half of that contract: src/ code outside src/obs/ must
# never consume a telemetry value. These are write-only APIs from the
# library's point of view; reading one back would let a measured
# quantity (RSS, wall time) steer computation. D8 follows the same
# reads through the call graph.
OBS_READ_RE = re.compile(r"\bobs::(?:peak_rss_kb\s*\(|proc::)")
D1_OBS_READBACK = (
    OBS_READ_RE, "telemetry readback",
    "telemetry values are write-only outside src/obs/: a measured "
    "quantity steering src/ computation would make trial output "
    "machine-dependent (bench/ and tools/ may read them)")

# src/fault/ extension: the fault layer's contract is that every
# probabilistic decision is a pure function of (seed, entity) via
# util::stream_rng. Sequential generator state — a constructed Rng, a
# state-derived split, or a protocol's per-node engine stream — makes a
# draw depend on consumption order, which breaks the bitwise agreement
# between the coroutine and bulk back ends and across lane counts.
D1_FAULT_SCOPE_PREFIX = "src/fault/"
D1_FAULT_PATTERNS = (
    (re.compile(r"\bRng\s+\w+\s*[({=]|\bRng\s*\("), "sequential Rng",
     "fault draws must be pure keyed util::stream_rng calls; a "
     "constructed generator's output depends on consumption order, "
     "breaking engine- and lane-independence"),
    (re.compile(r"\.\s*split\s*\("), "Rng::split",
     "state-derived child streams depend on how much of the parent was "
     "consumed; key a util::stream_rng stream by the faulted entity "
     "instead"),
    (re.compile(r"\bnode_rng\s*\("), "engine node stream",
     "per-node engine streams belong to the protocols; fault decisions "
     "consuming them would perturb the fault-free trajectory"),
)


def check_d1(m: FileModel) -> list[Finding]:
    if not m.path.startswith("src/"):
        return []
    in_obs = m.path.startswith(D1_OBS_SCOPE_PREFIX)
    rules = [row for row in D1_PATTERNS
             if (m.path, row[1]) not in D1_ALLOWLIST
             and not (in_obs and row[1] in D1_OBS_ALLOWED_NAMES)]
    if not in_obs:
        rules.append(D1_OBS_READBACK)
    if m.path.startswith(D1_FAULT_SCOPE_PREFIX):
        rules.extend(D1_FAULT_PATTERNS)
    out: list[Finding] = []
    for idx, line in enumerate(m.code):
        for pattern, name, why in rules:
            if pattern.search(line):
                m.flag(out, idx, "slumber-d1", f"{name}: {why}")
    return out


# --------------------------------------------------------------------------
# slumber-d2: iteration over unordered containers
# --------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"\bstd::unordered_(?:map|set|multimap|multiset)\s*<[^;{]*?>\s*"
    r"[&]?\s*(?P<name>\w+)\s*[;({=,)]")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(?P<range>[\w.>-]+)\s*\)")
BEGIN_CALL_RE = re.compile(r"\b(?P<name>\w+)\s*\.\s*c?r?begin\s*\(")


def check_d2(m: FileModel) -> list[Finding]:
    unordered = {um.group("name") for line in m.code
                 for um in UNORDERED_DECL_RE.finditer(line)}
    if not unordered:
        return []
    out: list[Finding] = []
    for idx, line in enumerate(m.code):
        hits: list[str] = []
        for rm in RANGE_FOR_RE.finditer(line):
            expr = rm.group("range").split(".")[0].split("->")[0]
            if expr in unordered:
                hits.append(f"range-for over unordered container '{expr}'")
        for bm in BEGIN_CALL_RE.finditer(line):
            if bm.group("name") in unordered:
                hits.append(
                    f"iterator walk over unordered container "
                    f"'{bm.group('name')}'")
        for hit in hits:
            m.flag(out, idx, "slumber-d2",
                   f"{hit}: iteration order is implementation-defined; use "
                   f"a sorted container or drain into a sorted vector first")
    return out


# --------------------------------------------------------------------------
# slumber-d3: non-commutative / non-associative atomic reductions
# --------------------------------------------------------------------------

FP_ATOMIC_VAR_RE = re.compile(
    r"\bstd::atomic\s*<\s*(?:float|double|long\s+double)\s*>\s+(?P<name>\w+)")
FETCH_RE = re.compile(r"\b(?P<name>\w+)\s*\.\s*fetch_(?:add|sub)\s*\(")
INLINE_FP_FETCH_RE = re.compile(
    r"\batomic(?:_ref)?\s*<\s*(?:float|double|long\s+double)\s*>\s*"
    r"\([^)]*\)\s*\.\s*fetch_(?:add|sub)\s*\(")
CAS_RE = re.compile(r"\bcompare_exchange_(?:weak|strong)\b")


def check_d3(m: FileModel) -> list[Finding]:
    fp_atomics = {fm.group("name") for line in m.code
                  for fm in FP_ATOMIC_VAR_RE.finditer(line)}
    out: list[Finding] = []
    for idx, line in enumerate(m.code):
        if INLINE_FP_FETCH_RE.search(line) or any(
                fm.group("name") in fp_atomics
                for fm in FETCH_RE.finditer(line)):
            m.flag(out, idx, "slumber-d3",
                   "fetch_add/fetch_sub on a floating-point atomic: FP "
                   "addition is not associative, so the merged value "
                   "depends on lane interleaving; reduce into per-chunk "
                   "partials and merge in chunk order instead")
        if CAS_RE.search(line):
            m.flag(out, idx, "slumber-d3",
                   "compare_exchange loop: CAS retry order is scheduling-"
                   "dependent; the engine's documented lock-free pattern "
                   "is one-directional relaxed load/store (tri-state "
                   "Unknown->True/False, src/bulk/sleeping_mis.cc). "
                   "Justify with NOLINT(slumber-d3): <reason> if genuinely "
                   "needed")
    return out


# --------------------------------------------------------------------------
# slumber-d4: memory_order escalation
# --------------------------------------------------------------------------

STRICT_ORDER_RE = re.compile(
    r"\bmemory_order(?:_|::\s*)(?:seq_cst|acquire|release|acq_rel|consume)\b")


def check_d4(m: FileModel) -> list[Finding]:
    out: list[Finding] = []
    for idx, line in enumerate(m.code):
        if not STRICT_ORDER_RE.search(line):
            continue
        # Fixture MUST-FLAG annotations are lint-test metadata, not
        # justification prose; they never satisfy the rule.
        if any(c.strip() and not MUST_FLAG_RE.fullmatch(c.strip())
               for c in m.window(idx)):
            continue
        m.flag(out, idx, "slumber-d4",
               "memory_order stricter than relaxed without an adjacent "
               "justification comment (same line or the 3 lines above): "
               "say what this ordering synchronizes and why relaxed is "
               "insufficient")
    return out


# --------------------------------------------------------------------------
# slumber-d5: pool-lambda race discipline
# --------------------------------------------------------------------------

# Dispatcher name -> which lambda parameter positions are lane-local
# index parameters (chunk id / range bounds) and which hand the lambda
# a lane-owned span (iterating it yields lane-local work items).
DISPATCHERS: dict[str, dict[str, tuple[int, ...]]] = {
    "parallel_for_range": {"index": (0, 1, 2)},
    "for_each_chunk": {"index": (0, 1, 2)},
    "scan_range": {"index": (1, 2)},
    "parallel_for_index": {"index": (0,)},
    "for_each_index": {"index": (0,)},
    "scan_awake": {"span": (1,)},
}
DISPATCH_RE = re.compile(
    r"\b(" + "|".join(sorted(DISPATCHERS, key=len, reverse=True)) +
    r")\s*\(")
NESTED_LAMBDA_RE = re.compile(r"\[[^\[\]]*\]\s*\(([^()]*)\)")
STRUCTURED_BINDING_RE = re.compile(
    r"\bauto\s*&{0,2}\s*\[([^\[\]]*)\]\s*[=:]")
DECL_RE = re.compile(
    r"(?:(?:const|constexpr|static|volatile|unsigned|signed|long|short)"
    r"\s+)*"
    r"([A-Za-z_][\w:]*(?:\s*<[^;{}()=]*>)?)[\s&*]+"
    r"([A-Za-z_]\w*)\s*(=[^;]*|\([^;{}]*\)|\{[^;{}]*\})?\s*[;,)]")
CONTROL_KEYWORDS = {
    "if", "for", "while", "switch", "return", "break", "continue", "else",
    "do", "case", "default", "sizeof", "static_cast", "const_cast",
    "reinterpret_cast", "dynamic_cast", "throw", "new", "delete", "this",
    "true", "false", "nullptr", "auto", "const", "constexpr",
    "namespace", "template", "typename", "using", "struct", "class",
    "public", "private", "protected", "operator", "static", "inline",
    "void", "noexcept", "co_return", "co_await", "co_yield", "goto",
    "static_assert", "alignas", "alignof", "decltype", "typeid",
}
DECL_TYPE_KEYWORDS = {
    "return", "co_return", "delete", "throw", "new", "case", "goto",
    "else", "typedef", "using", "break", "continue", "default",
}


@dataclass
class PoolLambda:
    dispatcher: str
    params: list[str | None]  # positional; None = unnamed
    body: str                 # code view, nested dispatchers masked
    body_line: int            # 0-based line of the opening brace


def find_lambda_after(text: str, call_end: int) -> tuple[
        str, int, int] | None:
    """After a dispatcher's open paren, locate its lambda argument.

    Returns (params_text, body_start, body_end) with body offsets
    delimiting the inside of the lambda's braces. An inline lambda is
    parsed in place; a last argument that names a local lambda defined
    earlier in `text` (`const auto fn = [&](std::size_t b) {...};`)
    resolves to that definition. None when the argument is neither
    (a forwarded callable, or this is a declaration/definition of the
    dispatcher itself).
    """
    i = call_end
    depth = 0
    last_code = "("  # the dispatcher's own open paren
    while i < len(text):
        ch = text[i]
        if ch == "[" and depth == 0 and last_code in "(,":
            return lambda_at(text, i)  # an introducer in argument position
        if ch in ";{":
            return None  # signature or forwarding call: no inline lambda
        if ch == "(":
            depth += 1
        elif ch == ")":
            if depth == 0:
                return named_lambda(text, call_end, i)
            depth -= 1
        if not ch.isspace():
            last_code = ch
        i += 1
    return None


def named_lambda(text: str, call_end: int, call_close: int) -> tuple[
        str, int, int] | None:
    """The lambda a dispatcher call's last argument names, when the
    nearest earlier `auto NAME = [` in `text` defines it."""
    last = split_args(text[call_end:call_close])[-1].strip()
    if not WORD_RE.fullmatch(last):
        return None
    defs = list(re.finditer(
        r"\bauto\s*&{0,2}\s*" + re.escape(last) + r"\s*=\s*\[",
        text[:call_end]))
    return lambda_at(text, defs[-1].end() - 1) if defs else None


def lambda_at(text: str, i: int) -> tuple[str, int, int] | None:
    """Parses the lambda whose introducer `[` is at text[i]."""
    rb = text.find("]", i)
    if rb < 0:
        return None
    pos = rb + 1
    while pos < len(text) and text[pos].isspace():
        pos += 1
    params = ""
    if pos < len(text) and text[pos] == "(":
        close = match_forward(text, pos, "(", ")")
        if close < 0:
            return None
        params = text[pos + 1:close]
        pos = close + 1
    while pos < len(text) and text[pos] not in "{;)":
        pos += 1
    if pos >= len(text) or text[pos] != "{":
        return None
    body_close = match_forward(text, pos, "{", "}")
    if body_close < 0:
        return None
    return params, pos + 1, body_close


def mask_nested_dispatchers(body: str) -> str:
    """Blanks nested dispatcher lambdas: they are analyzed as their own
    PoolLambda with their own index parameters."""
    out = body
    for call in DISPATCH_RE.finditer(body):
        found = find_lambda_after(body, call.end())
        if found is None:
            continue
        _, bstart, bend = found
        out = (out[:bstart] +
               "".join("\n" if c == "\n" else " "
                       for c in out[bstart:bend]) +
               out[bend:])
    return out


def pool_lambdas(m: FileModel) -> list[PoolLambda]:
    lambdas = []
    seen: set[int] = set()  # a named lambda may be dispatched twice
    for call in DISPATCH_RE.finditer(m.text):
        found = find_lambda_after(m.text, call.end())
        if found is None or found[1] in seen:
            continue
        params_text, bstart, bend = found
        seen.add(bstart)
        lambdas.append(PoolLambda(
            dispatcher=call.group(1),
            params=[param_name(p) for p in split_args(params_text)],
            body=mask_nested_dispatchers(m.text[bstart:bend]),
            body_line=line_of(m.starts, bstart)))
    return lambdas


def parse_chain_backward(body: str, end: int) -> tuple[
        str | None, list[str], bool]:
    """Postfix chain ending (exclusive) at `end`, walked backward.

    Returns (root, subscripts, is_decl). is_decl is True when the
    target is a bare name immediately preceded by a type token -- a
    declaration, hence a lane-local. A `*` that starts a statement or
    an argument (after `; { } ( ,`) is a dereference, so `*p = x` is a
    store through p, while `T* p = x` declares p."""
    subs: list[str] = []
    j = end - 1
    while j >= 0 and body[j].isspace():
        j -= 1
    saw_postfix = False
    while True:
        if j >= 0 and body[j] == "]":
            depth = 0
            k = j
            while k >= 0:
                if body[k] == "]":
                    depth += 1
                elif body[k] == "[":
                    depth -= 1
                    if depth == 0:
                        break
                k -= 1
            if k < 0:
                return None, subs, False
            subs.append(body[k + 1:j])
            saw_postfix = True
            j = k - 1
            while j >= 0 and body[j].isspace():
                j -= 1
            continue
        m = re.search(r"([A-Za-z_]\w*)\s*$", body[:j + 1])
        if not m:
            return None, subs, False
        root = m.group(1)
        j = m.start(1) - 1
        while j >= 0 and body[j].isspace():
            j -= 1
        if j >= 0 and body[j] == ".":
            saw_postfix = True
            j -= 1
            continue
        if j >= 1 and body[j] == ">" and body[j - 1] == "-":
            saw_postfix = True
            j -= 2
            continue
        if j >= 0 and body[j] == ")":
            if control_head_ends_at(body, j):
                return root, subs, False  # `if (...) x = ...;`
            return None, subs, False  # call-result target: out of scope
        if j >= 0 and body[j] == "*":
            k = j
            while k >= 0 and (body[k] == "*" or body[k].isspace()):
                k -= 1
            if k < 0 or body[k] in ";{}(,":
                return root, subs, False  # store through *root
        prev = re.search(r"([A-Za-z_]\w*)\s*$", body[:j + 1])
        if prev and prev.group(1) in ("else", "do"):
            return root, subs, False  # `else x = ...;` starts a statement
        is_decl = (not saw_postfix and j >= 0 and
                   (body[j].isalnum() or body[j] in "_>&*:"))
        return root, subs, is_decl


CONTROL_HEAD_RE = re.compile(r"\b(?:if|for|while|switch)(?:\s+constexpr)?\s*$")


def control_head_ends_at(body: str, close: int) -> bool:
    """Is body[close] the `)` that ends an if/for/while/switch head, so
    that the statement after it starts a new store target?"""
    depth = 0
    for k in range(close, -1, -1):
        if body[k] == ")":
            depth += 1
        elif body[k] == "(":
            depth -= 1
            if depth == 0:
                return bool(CONTROL_HEAD_RE.search(body[:k]))
    return False


def parse_chain_forward(body: str, pos: int) -> tuple[
        str | None, list[str]]:
    m = re.match(r"[A-Za-z_]\w*", body[pos:])
    if not m:
        return None, []
    root = m.group(0)
    subs: list[str] = []
    j = pos + m.end()
    n = len(body)
    while True:
        while j < n and body[j].isspace():
            j += 1
        if j < n and body[j] == "[":
            k = match_forward(body, j, "[", "]")
            if k < 0:
                break
            subs.append(body[j + 1:k])
            j = k + 1
            continue
        if j < n and (body[j] == "." or body.startswith("->", j)):
            j += 1 if body[j] == "." else 2
            m2 = re.match(r"\s*([A-Za-z_]\w*)", body[j:])
            if not m2:
                break
            j += m2.end()
            continue
        break
    return root, subs


def iter_writes(body: str) -> Iterator[tuple[str, list[str], bool, int]]:
    """Yields (root, subscripts, is_decl, offset) for every store."""
    n = len(body)
    i = 0
    while i < n:
        ch = body[i]
        if ch == "=":
            prev = body[i - 1] if i else ""
            nxt = body[i + 1] if i + 1 < n else ""
            if nxt == "=":
                i += 2
                continue
            if prev in "<>" and i >= 2 and body[i - 2] == prev:
                end = i - 2  # <<= / >>=
            elif prev in "=!<>":
                i += 1
                continue  # comparison
            elif prev in "+-*/%&|^":
                end = i - 1
            else:
                end = i
            root, subs, is_decl = parse_chain_backward(body, end)
            if root:
                yield root, subs, is_decl, i
            i += 1
            continue
        if body.startswith("++", i) or body.startswith("--", i):
            j = i + 2
            while j < n and body[j].isspace():
                j += 1
            if j < n and (body[j].isalpha() or body[j] == "_"):
                root, subs = parse_chain_forward(body, j)
                is_decl = False
            else:
                root, subs, is_decl = parse_chain_backward(body, i)
            if root:
                yield root, subs, is_decl, i
            i += 2
            continue
        i += 1


def top_level_colon(text: str) -> int:
    """Offset of the first top-level single `:` (range-for separator),
    skipping `::` and ternaries; -1 when absent."""
    depth = 0
    saw_question = False
    i = 0
    while i < len(text):
        ch = text[i]
        if ch in "(<[{":
            depth += 1
        elif ch in ")>]}":
            depth -= 1
        elif ch == "?" and depth == 0:
            saw_question = True
        elif ch == ":" and depth == 0:
            if i + 1 < len(text) and text[i + 1] == ":":
                i += 2
                continue
            if i > 0 and text[i - 1] == ":":
                i += 1
                continue
            if saw_question:
                saw_question = False
            else:
                return i
        i += 1
    return -1


# `>>` and `/` map many lane indices onto one slot (`bits[v >> 6]`).
# `>>=` and comment openers are not packing operators.
PACKING_RE = re.compile(r">>(?!=)|(?<![/*])/(?![/*=])")


def owns(text: str, owning: set[str]) -> bool:
    """Does a subscript (or initializer) reach a lane-owning name without
    passing through a packing operator?"""
    return word_in(text, owning) and not PACKING_RE.search(text)


def collect_locals_and_derived(lam: PoolLambda) -> tuple[
        set[str], set[str], set[str]]:
    """Returns (locals, derived, owning). Derived names reach the lane's
    chunk/index parameters at all; owning names reach them one-to-one,
    never through `>>` or `/`, so a slot they subscript belongs to one
    lane."""
    body = lam.body
    spec = DISPATCHERS[lam.dispatcher]

    def named(kind: str) -> set[str]:
        return {p for i, p in enumerate(lam.params)
                if p and i in spec.get(kind, ())}

    derived = named("index")
    owning = set(derived)
    spans = named("span")
    locals_: set[str] = {p for p in lam.params if p} | spans
    decls: list[tuple[str, str]] = []  # (name, initializer text)
    for m in DECL_RE.finditer(body):
        type_tok = m.group(1).split("<")[0].split("::")[-1]
        if type_tok in DECL_TYPE_KEYWORDS or \
                m.group(1) in DECL_TYPE_KEYWORDS:
            continue
        locals_.add(m.group(2))
        decls.append((m.group(2), m.group(3) or ""))
    for m in NESTED_LAMBDA_RE.finditer(body):
        for p in split_args(m.group(1)):
            name = param_name(p)
            if name:
                locals_.add(name)
    for m in STRUCTURED_BINDING_RE.finditer(body):
        locals_.update(piece.strip() for piece in m.group(1).split(",")
                       if piece.strip())
    range_fors: list[tuple[str, str]] = []  # (var, range expr)
    for m in re.finditer(r"\bfor\s*\(", body):
        close = match_forward(body, m.end() - 1, "(", ")")
        if close < 0:
            continue
        header = body[m.end():close]
        colon = top_level_colon(header)
        if colon < 0:
            continue
        var = param_name(header[:colon])
        if var:
            locals_.add(var)
            range_fors.append((var, header[colon + 1:]))

    changed = True
    while changed:
        changed = False
        for name, init in decls:
            if name not in derived and word_in(init, derived):
                derived.add(name)
                changed = True
            if name not in owning and owns(init, owning):
                owning.add(name)
                changed = True
        for var, rng in range_fors:
            if var not in derived and word_in(rng, derived | spans):
                derived.add(var)
                changed = True
            if var not in owning and owns(rng, owning | spans):
                owning.add(var)
                changed = True
    return locals_, derived, owning


def check_d5(m: FileModel, atomics: set[str]) -> list[Finding]:
    """`atomics` are the names declared atomic in m or its same-stem
    header; a name atomic only in some other file does not count."""
    out: list[Finding] = []
    for lam in pool_lambdas(m):
        locals_, derived, owning = collect_locals_and_derived(lam)
        for root, subs, is_decl, offset in iter_writes(lam.body):
            if root in CONTROL_KEYWORDS or is_decl:
                continue
            if root in locals_ or root in atomics:
                continue
            if any(owns(sub, owning) for sub in subs):
                continue
            where = (f"'{root}[{subs[-1].strip()}]'" if subs
                     else f"'{root}'")
            line = lam.body_line + lam.body[:offset].count("\n")
            if any(word_in(sub, derived) for sub in subs):
                m.flag(out, line, "slumber-d5",
                       f"store to captured {where} inside a "
                       f"{lam.dispatcher} lambda is subscripted through "
                       f"`>>` or `/`: many lane indices share the slot "
                       f"(a packed word), so lanes race on it; flush it "
                       f"with an atomic read-modify-write such as "
                       f"std::atomic_ref(...).fetch_or")
                continue
            m.flag(out, line, "slumber-d5",
                   f"store to captured {where} inside a {lam.dispatcher} "
                   f"lambda is not indexed by the lane's chunk/index "
                   f"parameter: lanes race on it and the merged value "
                   f"depends on scheduling; index a per-chunk partial "
                   f"derived from the lambda's chunk/index arguments, or "
                   f"make it atomic")
    return out


# --------------------------------------------------------------------------
# slumber-d6: stream-tag registry + call-site keying
# --------------------------------------------------------------------------

TAG_DECL_RE = re.compile(
    r"\binline\s+constexpr\s+std::uint64_t\s+(k\w*Tag)\s*=\s*"
    r"(0[xX][0-9a-fA-F']+)\s*ULL\s*;")
TAG_ANNOTATION_RE = re.compile(r"SLUMBER-STREAM-TAG\(")
DISCIPLINE_RE = re.compile(r"SLUMBER-STREAM-DISCIPLINE\(block-counter\)")
STREAM_CALL_RE = re.compile(r"\bstream_rng\s*\(")


def parse_registry(m: FileModel) -> tuple[dict[str, int], list[Finding]]:
    """The stream tags m declares (name -> value), and the registry
    well-formedness findings for them."""
    # Tag values are matched against the RAW text: the code view blanks
    # C++14 digit-separator groups ('5EED') as if they were char
    # literals, which would corrupt every registry constant. The code
    # view still gates each match so commented-out decls don't count.
    tags: dict[str, int] = {}
    decl_lines: dict[str, int] = {}
    out: list[Finding] = []
    raw_starts = line_starts_of(m.raw)
    for dm in TAG_DECL_RE.finditer(m.raw):
        name = dm.group(1)
        idx = line_of(raw_starts, dm.start())
        if idx >= len(m.code) or name not in m.code[idx]:
            continue  # declaration lives inside a comment or string
        tags[name] = int(dm.group(2).replace("'", ""), 16)
        decl_lines[name] = idx
        if not any(TAG_ANNOTATION_RE.search(c) for c in m.window(idx)):
            m.flag(out, idx, "slumber-d6",
                   f"stream tag {name} lacks the registry annotation "
                   f"`// SLUMBER-STREAM-TAG(<name>): <purpose>` on the "
                   f"preceding lines")
    array = re.search(r"kAllStreamTags\s*\[\s*\]\s*=\s*\{", m.text)
    if array:
        close = match_forward(m.text, array.end() - 1, "{", "}")
        listed = set(re.findall(r"k\w*Tag", m.text[array.end():close]))
        for name, idx in decl_lines.items():
            if name not in listed:
                m.flag(out, idx, "slumber-d6",
                       f"stream tag {name} is not listed in "
                       f"kAllStreamTags: the pairwise-distinctness proof "
                       f"does not cover it")
    seen_high: dict[int, str] = {}
    for name, idx in sorted(decl_lines.items(), key=lambda kv: kv[1]):
        high = tags[name] >> 32
        if high in seen_high:
            m.flag(out, idx, "slumber-d6",
                   f"stream tag {name} collides with {seen_high[high]} in "
                   f"the high 32 bits (0x{high:08x}): their keyed streams "
                   f"are correlated; pick a fresh prefix")
        else:
            seen_high[high] = name
    return tags, out


def keyed_by_tag(text: str, arg: str, tags: set[str]) -> bool:
    """The stream argument names a registered tag, directly or through a
    one-hop definition of a name it uses (`stream = mix(kTag ^ v, r)`)."""
    return word_in(arg, tags) or any(
        word_in(dm.group(1), tags)
        for ident in WORD_RE.findall(arg) if ident not in CONTROL_KEYWORDS
        for dm in re.finditer(rf"\b{re.escape(ident)}\s*=\s*([^;]*);", text))


def check_d6(m: FileModel, tags: set[str]) -> list[Finding]:
    if m.path == STREAM_DEF_REL:
        return []
    out: list[Finding] = []
    for call in STREAM_CALL_RE.finditer(m.text):
        open_paren = m.text.find("(", call.start())
        close = match_forward(m.text, open_paren, "(", ")")
        if close < 0:
            continue
        args = split_args(m.text[open_paren + 1:close])
        if len(args) < 2:
            continue  # declaration or partial application: not a draw
        arg = args[-1].strip()
        idx = line_of(m.starts, call.start())
        if keyed_by_tag(m.text, arg, tags) or any(
                DISCIPLINE_RE.search(c) for c in m.window(idx)):
            continue
        m.flag(out, idx, "slumber-d6",
               f"util::stream_rng stream argument '{arg}' does not key "
               f"through a registered tag (util/stream_tags.h) and is not "
               f"marked `// SLUMBER-STREAM-DISCIPLINE(block-counter): "
               f"<why sound>`: unregistered streams can silently collide "
               f"with another subsystem's draws")
    return out


# --------------------------------------------------------------------------
# slumber-d7: clock-width safety
# --------------------------------------------------------------------------

INT64_TARGET_RE = (
    r"(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t|std::ptrdiff_t|"
    r"(?:unsigned\s+)?(?:long\s+)?long|unsigned|(?:unsigned\s+)?int")
STATIC_CAST_RE = re.compile(
    r"static_cast\s*<\s*(?:" + INT64_TARGET_RE + r")\s*>\s*\(")
NARROW_DECL_RE = re.compile(
    r"\b((?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t)\s+"
    r"([A-Za-z_]\w*)\s*=\s*([^;]*);")
BLESSED_HELPERS = ("saturate_round", "round_halves")
BLESSED_DEF_RE = re.compile(
    r"\b(?:" + "|".join(BLESSED_HELPERS) + r")\s*\(")


def references_clock(expr: str, clock: set[str], fns: set[str]) -> bool:
    for m in WORD_RE.finditer(expr):
        if expr[:m.start()].rstrip().endswith("::"):
            continue  # std::round etc.: qualified, different entity
        if expr[m.end():].lstrip().startswith("("):
            if m.group(0) in fns:
                return True
            continue
        if m.group(0) in clock:
            return True
    return False


def blessed_extents(text: str) -> list[tuple[int, int]]:
    """Definition extents of the blessed saturate helpers."""
    extents = []
    for m in BLESSED_DEF_RE.finditer(text):
        close = match_forward(text, m.end() - 1, "(", ")")
        pos = body_open(text, close + 1) if close > 0 else -1
        if pos < 0:
            continue  # a call or declaration, not the definition
        end = match_forward(text, pos, "{", "}")
        if end > 0:
            extents.append((m.start(), end))
    return extents


def check_d7(m: FileModel, clock_names: set[str],
             clock_fns: set[str]) -> list[Finding]:
    """`clock_names` / `clock_fns` span every scanned src/ file: the bulk
    engine's clock fields (declared in engine.h) must be recognizable
    when cast in engine.cc."""
    clock = (clock_names | m.clock_names) - m.nonclock_names
    fns = clock_fns | m.clock_fns
    extents = blessed_extents(m.text) if m.path.startswith("src/bulk/") \
        else []

    def blessed(pos: int) -> bool:
        return any(a <= pos <= b for a, b in extents)

    out: list[Finding] = []
    for cm in STATIC_CAST_RE.finditer(m.text):
        close = match_forward(m.text, cm.end() - 1, "(", ")")
        if close < 0:
            continue
        arg = m.text[cm.end():close]
        if blessed(cm.start()) or not references_clock(arg, clock, fns):
            continue
        m.flag(out, line_of(m.starts, cm.start()), "slumber-d7",
               f"static_cast narrows a 128-bit virtual-clock value "
               f"('{arg.strip()}') to 64 bits outside the blessed "
               f"saturate helpers: deep recursions overflow 64 bits "
               f"(K >= 62 at n = 10M); call saturate_round() or "
               f"round_halves() (src/bulk/engine.h) instead")
    for dm in NARROW_DECL_RE.finditer(m.text):
        init = dm.group(3)
        if blessed(dm.start()) or any(h in init for h in BLESSED_HELPERS):
            continue
        if "static_cast" in init:
            continue  # the cast loop above already judged it
        if not references_clock(init, clock, fns):
            continue
        m.flag(out, line_of(m.starts, dm.start()), "slumber-d7",
               f"'{dm.group(2)}' implicitly narrows a 128-bit virtual-"
               f"clock value to 64 bits at initialization: use "
               f"VirtualRound, or saturate_round()/round_halves() "
               f"(src/bulk/engine.h) when a 64-bit value is required")
    return out


# --------------------------------------------------------------------------
# slumber-d8: transitive obs write-only discipline
# --------------------------------------------------------------------------

FUNC_DEF_RE = re.compile(
    r"(?:^|[;}{])\s*(?:template\s*<[^;{}]*>\s*)?"
    r"((?:[\w:~]+(?:\s*<[^;{}]*>)?[\s&*]+)+)"
    r"([A-Za-z_][\w:]*)\s*\(")
CALL_RE = re.compile(r"([A-Za-z_][\w:]*)\s*\(")


@dataclass
class FuncDef:
    name: str       # simple (last ::-component) name
    qual: str       # as written at the definition
    line: int       # 0-based
    calls: set[str]  # simple names of everything the body calls
    reads_obs: bool


def function_defs(m: FileModel) -> list[FuncDef]:
    funcs = []
    for fm in FUNC_DEF_RE.finditer(m.text):
        qual = fm.group(2)
        simple = qual.rsplit("::", 1)[-1]
        type_tokens = re.findall(r"[\w:~]+", fm.group(1))
        if (simple in CONTROL_KEYWORDS or
                any(t in DECL_TYPE_KEYWORDS for t in type_tokens)):
            continue
        close = match_forward(m.text, fm.end() - 1, "(", ")")
        pos = body_open(m.text, close + 1) if close > 0 else -1
        if pos < 0:
            continue  # declaration (or `= default`), not a definition
        end = match_forward(m.text, pos, "{", "}")
        if end < 0:
            continue
        body = m.text[pos + 1:end]
        funcs.append(FuncDef(
            name=simple, qual=qual, line=line_of(m.starts, fm.start(2)),
            calls={c.rsplit("::", 1)[-1] for c in CALL_RE.findall(body)},
            reads_obs=bool(OBS_READ_RE.search(body))))
    return funcs


def check_d8(models: list[FileModel]) -> list[Finding]:
    scope = [(m, function_defs(m)) for m in models
             if not m.path.startswith(D1_OBS_SCOPE_PREFIX)]
    tainted: dict[str, list[str]] = {}  # simple name -> chain
    queue: list[str] = []
    for _, funcs in scope:
        for fn in funcs:
            if fn.reads_obs and fn.name not in tainted:
                tainted[fn.name] = [fn.name, "obs telemetry read"]
                queue.append(fn.name)
    while queue:
        target = queue.pop()
        for _, funcs in scope:
            for fn in funcs:
                if fn.name not in tainted and target in fn.calls:
                    tainted[fn.name] = [fn.name] + tainted[target]
                    queue.append(fn.name)
    out: list[Finding] = []
    for m, funcs in scope:
        for fn in funcs:
            if fn.name in tainted:
                m.flag(out, fn.line, "slumber-d8",
                       f"function '{fn.qual}' transitively reads telemetry "
                       f"state ({' -> '.join(tainted[fn.name])}): obs "
                       f"values are write-only outside src/obs/ -- a "
                       f"measured quantity steering src/ computation would "
                       f"make trial output machine-dependent")
    return out


# --------------------------------------------------------------------------
# driver
# --------------------------------------------------------------------------

def analyze(models: list[FileModel], root: str | None) -> list[Finding]:
    """Runs every rule over every model in one pass, then D8 over the
    joined call graph. `root` locates the stream-tag registry when the
    scan does not include it."""
    by_path = {m.path: m for m in models}
    findings: list[Finding] = []
    registry = by_path.get(REGISTRY_REL)
    if registry is None and root is not None and \
            os.path.isfile(os.path.join(root, REGISTRY_REL)):
        registry = load_model(os.path.join(root, REGISTRY_REL), REGISTRY_REL)
    if registry is None:
        findings.append(Finding(
            REGISTRY_REL, 1, "slumber-d6",
            "stream-tag registry not found: every keyed RNG tag must be "
            "declared there"))
    tags: set[str] = set(parse_registry(registry)[0]) if registry else set()
    in_src = [m for m in models if m.path.startswith("src/")]
    clock_fns = {f for m in in_src for f in m.clock_fns}
    clock_names = {c for m in in_src for c in m.clock_names} - clock_fns
    for m in models:
        header = by_path.get(os.path.splitext(m.path)[0] + ".h")
        atomics = m.atomic_names | (header.atomic_names if header else set())
        findings += m.nolint
        findings += check_d1(m) + check_d2(m) + check_d3(m) + check_d4(m)
        findings += check_d5(m, atomics)
        if m.path.startswith("src/"):
            findings += parse_registry(m)[1]
            findings += check_d6(m, tags)
            findings += check_d7(m, clock_names, clock_fns)
    findings += check_d8(in_src)
    return sorted(set(findings),
                  key=lambda f: (f.path, f.line, f.rule, f.message))


def iter_tree_files(root: str) -> Iterator[tuple[str, str]]:
    for scan_dir in TREE_SCAN_DIRS:
        base = os.path.join(root, scan_dir)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames[:] = sorted(
                d for d in dirnames
                if not d.startswith(("fixtures", ".", "__")))
            for name in sorted(filenames):
                if name.endswith(CXX_EXTENSIONS):
                    abspath = os.path.join(dirpath, name)
                    yield abspath, os.path.relpath(
                        abspath, root).replace(os.sep, "/")


def fixture_scope(name: str) -> str:
    if name == REGISTRY_FIXTURE:
        return REGISTRY_REL
    return next(scope + name for prefix, scope in FIXTURE_SCOPES
                if name.startswith(prefix))


def run_self_test(fixtures_dir: str) -> int:
    """Fixture suite: every rule runs on every fixture in one pass, as
    in a tree scan. Each MUST-FLAG(rule) annotation must produce a
    finding with that rule on that line, and no other findings are
    allowed, so the must-pass fixtures must be clean."""
    if not os.path.isdir(fixtures_dir):
        print(f"error: fixtures dir not found: {fixtures_dir}",
              file=sys.stderr)
        return 2
    names = sorted(n for n in os.listdir(fixtures_dir)
                   if n.endswith(CXX_EXTENSIONS))
    if not names:
        print("error: no fixtures found", file=sys.stderr)
        return 2
    models = [load_model(os.path.join(fixtures_dir, n), fixture_scope(n))
              for n in names]
    findings = analyze(models, root=None)
    failures: list[str] = []
    expectations = 0
    for name, model in zip(names, models):
        expected = {(idx + 1, fm.group("rule"))
                    for idx, line in enumerate(model.raw.split("\n"))
                    for fm in MUST_FLAG_RE.finditer(line)}
        expectations += len(expected)
        actual = {(f.line, f.rule): f.message for f in findings
                  if f.path == model.path}
        for line_no, rule in sorted(expected - actual.keys()):
            failures.append(f"{name}:{line_no}: expected {rule} finding, "
                            f"got none")
        for line_no, rule in sorted(actual.keys() - expected):
            failures.append(f"{name}:{line_no}: unexpected {rule} finding: "
                            f"{actual[(line_no, rule)]}")
    if failures:
        print(f"slumber_checks self-test: FAIL "
              f"({len(failures)} mismatches over {len(names)} fixtures)")
        for f in failures:
            print(f"  {f}")
        return 1
    print(f"slumber_checks self-test: OK ({len(names)} fixtures, "
          f"{expectations} must-flag expectations)")
    return 0


def emit_gha(findings: list[Finding]) -> None:
    """GitHub Actions problem-matcher annotations, one per finding."""
    for f in findings:
        message = f.message.replace("%", "%25").replace("\n", "%0A")
        print(f"::error file={f.path},line={f.line},"
              f"title={f.rule}::{message}")


def main() -> int:
    parser = argparse.ArgumentParser(
        description="slumber-lint determinism & concurrency checks "
                    "(D1-D8)")
    parser.add_argument("paths", nargs="*",
                        help="files to check (default: the tree scan set)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels up from here)")
    parser.add_argument("--self-test", action="store_true",
                        help="run the fixture suite instead of a scan")
    parser.add_argument("--gha", action="store_true",
                        help="also emit GitHub Actions ::error "
                             "annotations (auto under GITHUB_ACTIONS)")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.abspath(args.root or os.path.join(here, "..", ".."))
    if args.self_test:
        return run_self_test(os.path.join(here, "fixtures"))

    if args.paths:
        files = [(os.path.abspath(p), os.path.relpath(
            os.path.abspath(p), root).replace(os.sep, "/"))
            for p in args.paths]
    else:
        files = list(iter_tree_files(root))
    try:
        models = [load_model(abspath, relpath) for abspath, relpath in files]
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    findings = analyze(models, root)

    for f in findings:
        print(f.render())
    if args.gha or os.environ.get("GITHUB_ACTIONS"):
        emit_gha(findings)
    if findings:
        print(f"\nslumber_checks: {len(findings)} finding(s) over "
              f"{len(files)} files", file=sys.stderr)
        return 1
    print(f"slumber_checks: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
