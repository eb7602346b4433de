#!/usr/bin/env python3
"""mhrp-lint: repo-specific static analysis for the MHRP simulator.

The repo's strongest correctness asset is byte-identical replay: every
seeded run must produce the same digests with telemetry on or off, across
chaos and crash fuzzing. Nothing in the compiler enforces that, so this
tool does. It checks four rule families over src/ (see DESIGN.md §12):

Determinism rules
  wallclock       No wall-clock reads (std::chrono clocks, time(), ...)
                  outside the explicit allowlist (the event-loop profiler
                  is wall-time by design and documented as such).
  unseeded-rng    No ambient randomness: rand()/srand(), std::random_device,
                  default-seeded engines. All randomness flows through
                  util::Rng seeded by the scenario.
  unordered-iter  No iteration over std::unordered_{map,set} inside
                  observable-output functions (digest/serialize/report/
                  metrics/audit/to_string/to_json/...): hash-table
                  iteration order is libstdc++-version- and address-
                  dependent, so it must never feed replay digests.
  pointer-keyed   No associative containers keyed by raw pointers:
                  iteration order (ordered) or hashing (unordered) of
                  pointer values is allocation-order-dependent.

Hot-path rules
  hotpath-alloc   No new/make_shared/make_unique or allocating container
                  growth in functions marked MHRP_HOT_PATH
                  (src/util/annotations.hpp).

Sharding rules
  shard-serial    A function annotated MHRP_REQUIRES(<shard>.serial) runs
                  inside exactly one shard's serial domain (DESIGN.md §13).
                  It may touch only that shard's event queue: accessing
                  another object's `.queue`/`->queue`, or indexing the
                  global `shards_` table, is a cross-shard data race that
                  TSan would only catch when the interleaving happens to
                  bite. Resolve the target shard and post() to its
                  inbox before entering the serial domain.

API rules
  nodiscard       Functions returning status/handle types (EventHandle,
                  store tickets/LSNs, recovery results) must be
                  [[nodiscard]] — silently dropping them loses a
                  cancellation capability or a durability acknowledgment.

Engine
  A C++-aware tokenizer: it strips comments and string literals, tracks
  brace depth and function boundaries, and applies the rules lexically.
  It needs nothing beyond Python, so every host gets the same findings.

Suppressions
  // mhrp-lint: allow(rule[,rule...]) <reason>     on the offending line,
  or alone on the line directly above it. A reason is required.
  MHRP_DETERMINISM_EXEMPT("reason") anywhere in a function's signature or
  body exempts that whole function from the determinism rules.

Baseline ratchet
  tools/lint/baseline.json holds grandfathered findings keyed by
  (rule, file, symbol) with a written justification. With --baseline,
  findings matching an entry are reported as baselined (not failures);
  a baseline entry matching nothing is STALE and fails the run, so the
  baseline can only shrink. --write-baseline regenerates the file,
  preserving justifications for surviving entries.

Exit codes: 0 clean, 1 findings or stale baseline, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

RULES = (
    "wallclock",
    "unseeded-rng",
    "unordered-iter",
    "pointer-keyed",
    "hotpath-alloc",
    "shard-serial",
    "nodiscard",
)
DETERMINISM_RULES = {"wallclock", "unseeded-rng", "unordered-iter",
                     "pointer-keyed"}

# Files allowed to read wall clocks: the event-loop profiler measures
# wall time by design (DESIGN.md §11 documents that it must never feed a
# replay digest), and telemetry trace timestamps are simulated-time only
# but the bench harness around them is not linted anyway.
DEFAULT_WALLCLOCK_ALLOW = ("src/sim/profiler.hpp",)

# Functions whose output is observable in replay digests, reports, or
# exports. unordered-iter applies inside these (by name match).
OBSERVABLE_FN_RE = re.compile(
    r"(digest|serialize|to_string|to_text|to_json|to_csv|write_json|"
    r"report|metrics|snapshot|audit|check|dump|advertise)",
    re.IGNORECASE,
)

# Return types that must be [[nodiscard]] wherever they appear as a
# function's return type. Matched on the final name component, so
# `sim::EventHandle` and `EventHandle` both hit.
NODISCARD_TYPES = (
    "EventHandle",
    "Ticket",
    "Lsn",
    "RecoveryStats",
    "Intercept",
)

SUPPRESS_RE = re.compile(r"mhrp-lint:\s*allow\(([a-z\-,\s]+)\)\s*(.*)")

# MHRP_REQUIRES(<base>.serial) marks a function as serial to one specific
# shard. The member-capability form MHRP_REQUIRES(serial_) (EventQueue's
# own lock) has no <base> and is out of scope for shard-serial.
SERIAL_REQ_RE = re.compile(
    r"MHRP_REQUIRES\s*\(\s*([A-Za-z_]\w*)\s*\.\s*serial\b")

KEYWORDS_NOT_FUNCTIONS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "static_assert", "decltype", "noexcept", "defined", "assert",
}


@dataclass
class Finding:
    rule: str
    path: str            # repo-relative
    line: int            # 1-based
    symbol: str          # enclosing function or declared symbol
    message: str
    baselined: bool = False
    suppressed: bool = False

    @property
    def key(self) -> str:
        return f"{self.rule}|{self.path}|{self.symbol}"

    def render(self) -> str:
        tag = " [baselined]" if self.baselined else ""
        return (f"{self.path}:{self.line}: [{self.rule}] {self.message}"
                f" (in '{self.symbol}'){tag}")


@dataclass
class FunctionSpan:
    name: str
    sig_start: int       # line where the signature begins (0-based)
    body_start: int      # line of the opening brace (0-based)
    body_end: int        # line of the closing brace (0-based, inclusive)
    hot: bool = False
    exempt: bool = False
    serial_of: str | None = None  # base of MHRP_REQUIRES(<base>.serial)


@dataclass
class FileModel:
    path: str                 # repo-relative, forward slashes
    raw_lines: list[str] = field(default_factory=list)
    code_lines: list[str] = field(default_factory=list)  # comments/strings blanked
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    functions: list[FunctionSpan] = field(default_factory=list)
    unordered_vars: set[str] = field(default_factory=set)
    includes: list[str] = field(default_factory=list)


# --------------------------------------------------------------------------
# Source preprocessing
# --------------------------------------------------------------------------

def strip_comments_and_strings(text: str) -> str:
    """Blank comments, string and char literals, preserving newlines and
    column positions so findings report real locations."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j == -1 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c == '"':
            if out and text[i - 1] == "R":  # raw string R"delim( ... )delim"
                m = re.match(r'R"([^(]*)\(', text[i - 1:i + 32])
                if m:
                    closer = ")" + m.group(1) + '"'
                    j = text.find(closer, i)
                    j = n - len(closer) if j == -1 else j
                    seg = text[i:j + len(closer)]
                    out.append('"')
                    out.append("".join(
                        ch if ch == "\n" else " " for ch in seg[1:]))
                    i = j + len(closer)
                    continue
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append('"' + " " * (j - i - 1) + '"')
            i = j + 1
        elif c == "'":
            j = i + 1
            while j < n and text[j] != "'":
                j += 2 if text[j] == "\\" else 1
            out.append("'" + " " * (j - i - 1) + "'")
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def collect_suppressions(raw_lines: list[str]) -> dict[int, set[str]]:
    """Map 0-based line -> set of allowed rules. A suppression comment on
    its own line also covers the next line."""
    supp: dict[int, set[str]] = {}
    for idx, line in enumerate(raw_lines):
        m = SUPPRESS_RE.search(line)
        if not m:
            continue
        rules = {r.strip() for r in m.group(1).split(",") if r.strip()}
        supp.setdefault(idx, set()).update(rules)
        if line.lstrip().startswith("//"):
            supp.setdefault(idx + 1, set()).update(rules)
    return supp


# --------------------------------------------------------------------------
# Function-boundary tracking (tokenizer engine)
# --------------------------------------------------------------------------

FN_NAME_RE = re.compile(r"([A-Za-z_~][A-Za-z0-9_]*)\s*$")


def find_functions(code_lines: list[str], raw_lines: list[str]) -> list[FunctionSpan]:
    """Heuristic function-definition finder: a '{' whose preceding
    non-space character closes a parameter list (possibly through
    const/noexcept/override/attributes/ctor-initializers) opens a function
    body. Good enough for this codebase's clang-format'd style; lambdas
    are attributed to their enclosing function."""
    text = "\n".join(code_lines)
    functions: list[FunctionSpan] = []
    # Statement start offsets: after ; { } or file start.
    stmt_start = 0
    depth = 0
    fn_stack: list[tuple[FunctionSpan, int]] = []  # (span, depth at body)
    i, n = 0, len(text)
    line_of = _LineIndex(text)

    while i < n:
        c = text[i]
        if c in ";}":
            if c == "}":
                depth -= 1
                while fn_stack and depth < fn_stack[-1][1]:
                    span, _ = fn_stack.pop()
                    span.body_end = line_of(i)
                    functions.append(span)
            stmt_start = i + 1
            i += 1
            continue
        if c == "{":
            seg = text[stmt_start:i]
            name = _function_name_of(seg)
            depth += 1
            if name:
                span = FunctionSpan(
                    name=name,
                    sig_start=line_of(stmt_start + _leading_ws(seg)),
                    body_start=line_of(i),
                    body_end=line_of(i),
                )
                sig_raw = "\n".join(
                    raw_lines[span.sig_start:span.body_start + 1])
                span.hot = "MHRP_HOT_PATH" in sig_raw
                span.exempt = "MHRP_DETERMINISM_EXEMPT" in sig_raw
                sm = SERIAL_REQ_RE.search(sig_raw)
                if sm:
                    span.serial_of = sm.group(1)
                fn_stack.append((span, depth))
            stmt_start = i + 1
            i += 1
            continue
        i += 1
    while fn_stack:  # unterminated (truncated file)
        span, _ = fn_stack.pop()
        span.body_end = len(code_lines) - 1
        functions.append(span)
    for span in functions:
        body_raw = "\n".join(raw_lines[span.body_start:span.body_end + 1])
        if "MHRP_DETERMINISM_EXEMPT" in body_raw:
            span.exempt = True
    return functions


def _leading_ws(seg: str) -> int:
    return len(seg) - len(seg.lstrip())


class _LineIndex:
    def __init__(self, text: str):
        self.starts = [0]
        for m in re.finditer("\n", text):
            self.starts.append(m.end())

    def __call__(self, offset: int) -> int:
        import bisect
        return bisect.bisect_right(self.starts, offset) - 1


def _function_name_of(segment: str) -> str | None:
    """Given the statement text before a '{', return the function name if
    the segment looks like a function definition header."""
    seg = segment.strip()
    if not seg or seg.endswith(("=", ",", "(")):
        return None
    # Cut a ctor-initializer list / trailing specifiers back to the ')'.
    close = seg.rfind(")")
    if close == -1:
        return None
    tail = seg[close + 1:]
    # After ')': only const/noexcept/override/final/attributes/-> type/
    # ctor-init allowed for a function definition.
    if not re.fullmatch(
            r"(\s|const|noexcept|override|final|mutable|->\s*[\w:<>,&*\s]+|"
            r"\[\[[^\]]*\]\]|:\s*[^{}]*)*", tail):
        return None
    # Find the '(' matching that last ')' ... walk backwards.
    bal = 0
    open_idx = -1
    for idx in range(close, -1, -1):
        if seg[idx] == ")":
            bal += 1
        elif seg[idx] == "(":
            bal -= 1
            if bal == 0:
                open_idx = idx
                break
    if open_idx <= 0:
        return None
    m = FN_NAME_RE.search(seg[:open_idx].rstrip())
    if not m:
        return None
    name = m.group(1)
    if name in KEYWORDS_NOT_FUNCTIONS:
        return None
    # `= delete`, `= default` never reach here (no '{'). Reject control
    # flow disguised as calls and struct initialization `Foo foo{...}`.
    before = seg[:open_idx].rstrip()
    if before.endswith(("operator", "&", "*")):
        return name  # conversion/operator edge cases: keep the identifier
    return name


def enclosing_function(functions: list[FunctionSpan], line: int) -> FunctionSpan | None:
    best: FunctionSpan | None = None
    for span in functions:
        if span.sig_start <= line <= span.body_end:
            if best is None or span.body_start >= best.body_start:
                best = span
    return best


# --------------------------------------------------------------------------
# Tokenizer-engine rules
# --------------------------------------------------------------------------

WALLCLOCK_PATTERNS = (
    (re.compile(r"\b(steady_clock|system_clock|high_resolution_clock)\b"),
     "std::chrono clock read"),
    (re.compile(r"\bgettimeofday\s*\("), "gettimeofday()"),
    (re.compile(r"\bclock_gettime\s*\("), "clock_gettime()"),
    (re.compile(r"(?<![\w:.>])time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
     "time()"),
    (re.compile(r"(?<![\w:.>])clock\s*\(\s*\)"), "clock()"),
)

RNG_PATTERNS = (
    (re.compile(r"\bstd::random_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w:.>])s?rand\s*\("), "rand()/srand()"),
    (re.compile(r"\b(?:std::)?(mt19937(?:_64)?|default_random_engine|"
                r"minstd_rand0?|ranlux\d+(?:_base)?)\s+\w+\s*(;|\{\s*\})"),
     "default-seeded random engine"),
)

UNORDERED_DECL_RE = re.compile(
    r"std\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
POINTER_KEY_RE = re.compile(
    r"std\s*::\s*(?:unordered_)?(?:map|set|multimap|multiset)\s*<\s*"
    r"(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;()]*?):\s*([^)]+)\)")
BEGIN_CALL_RE = re.compile(r"\b([A-Za-z_]\w*)\s*\.\s*(?:c?begin|c?end)\s*\(")
ALLOC_PATTERNS = (
    (re.compile(r"(?<![\w.])new\b(?!\s*\()"), "operator new"),
    (re.compile(r"(?<![\w.])new\s*\("), "operator new"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\.\s*(push_back|emplace_back|push_front|emplace_front|"
                r"emplace|insert|try_emplace|resize|reserve|append)\s*\("),
     "allocating container growth"),
)
FOREIGN_QUEUE_RE = re.compile(r"\b([A-Za-z_]\w*)\s*(?:\.|->)\s*queue\b")
SHARD_TABLE_RE = re.compile(r"\bshards_\s*\[")
NODISCARD_FN_RE = re.compile(
    r"(?:^|[;{}]\s*|\n\s*)((?:virtual\s+|static\s+|constexpr\s+|inline\s+)*"
    r"(?:[\w:]+::)?(" + "|".join(NODISCARD_TYPES) + r"))\s+"
    r"([A-Za-z_]\w*)\s*\(")


def build_file_model(abspath: str, relpath: str) -> FileModel:
    with open(abspath, encoding="utf-8", errors="replace") as f:
        text = f.read()
    raw_lines = text.split("\n")
    code = strip_comments_and_strings(text)
    code_lines = code.split("\n")
    model = FileModel(path=relpath, raw_lines=raw_lines,
                      code_lines=code_lines,
                      suppressions=collect_suppressions(raw_lines))
    model.functions = find_functions(code_lines, raw_lines)
    # Names declared with an unordered container type in this file
    # (members and locals; used for cross-file member resolution too).
    for m in re.finditer(
            r"unordered_(?:map|set|multimap|multiset)\s*<[^;{}]*>\s*"
            r"([A-Za-z_]\w*)\s*(?:;|=|\{)", code):
        model.unordered_vars.add(m.group(1))
    # Includes come from the RAW text: string literals are blanked in the
    # stripped code, which would erase the include path itself.
    for m in re.finditer(r'#include\s+"([^"]+)"', text):
        model.includes.append(m.group(1))
    return model


class TokenEngine:
    def __init__(self, models: list[FileModel]):
        self.models = models
        # Unordered-declared names resolve against the file itself plus
        # its transitive repo-local #include closure (so a .cpp iterating
        # `cache.map_` sees the header that declared map_ as unordered,
        # while an unrelated file with a same-named std::map member does
        # not collide).
        self.by_include_path: dict[str, FileModel] = {}
        for m in models:
            self.by_include_path[m.path] = m
            # Headers are included as "net/arp.hpp" relative to src/.
            if m.path.startswith("src/"):
                self.by_include_path[m.path[len("src/"):]] = m
        self._closure_cache: dict[str, set[str]] = {}

    def unordered_names_for(self, fm: FileModel) -> set[str]:
        if fm.path in self._closure_cache:
            return self._closure_cache[fm.path]
        names: set[str] = set()
        seen: set[str] = set()
        stack = [fm.path]
        while stack:
            p = stack.pop()
            if p in seen:
                continue
            seen.add(p)
            m = self.by_include_path.get(p)
            if m is None:
                continue
            names |= m.unordered_vars
            stack += m.includes
        self._closure_cache[fm.path] = names
        return names

    def run(self, wallclock_allow: set[str]) -> list[Finding]:
        findings: list[Finding] = []
        for model in self.models:
            findings += self._scan(model, wallclock_allow)
        return findings

    def _scan(self, fm: FileModel, wallclock_allow: set[str]) -> list[Finding]:
        out: list[Finding] = []

        def fn_at(idx: int) -> FunctionSpan | None:
            return enclosing_function(fm.functions, idx)

        def emit(rule: str, idx: int, msg: str, symbol: str | None = None):
            span = fn_at(idx)
            if rule in DETERMINISM_RULES and span is not None and span.exempt:
                return
            sym = symbol or (span.name if span else "<file-scope>")
            f = Finding(rule, fm.path, idx + 1, sym, msg)
            if rule in fm.suppressions.get(idx, set()):
                f.suppressed = True
            out.append(f)

        in_allow = fm.path in wallclock_allow
        unordered_names = self.unordered_names_for(fm)
        for idx, line in enumerate(fm.code_lines):
            if not line.strip():
                continue
            if not in_allow:
                for pat, what in WALLCLOCK_PATTERNS:
                    if pat.search(line):
                        emit("wallclock", idx,
                             f"{what}: wall time must not reach simulation "
                             "or digest state (allowlist: profiler)")
            for pat, what in RNG_PATTERNS:
                if pat.search(line):
                    emit("unseeded-rng", idx,
                         f"{what}: all randomness must flow through a "
                         "scenario-seeded util::Rng")
            if POINTER_KEY_RE.search(line):
                emit("pointer-keyed", idx,
                     "associative container keyed by a raw pointer: "
                     "iteration/hash order depends on allocation addresses")
            span = fn_at(idx)
            if span and OBSERVABLE_FN_RE.search(span.name) \
                    and span.body_start <= idx <= span.body_end:
                # Range-fors often wrap: match against a two-line window,
                # keeping only matches that start on this line.
                window = line
                if idx + 1 < len(fm.code_lines):
                    window = line + " " + fm.code_lines[idx + 1]
                for m in RANGE_FOR_RE.finditer(window):
                    if m.start() >= len(line):
                        continue
                    base = self._base_name(m.group(2))
                    if base in unordered_names:
                        emit("unordered-iter", idx,
                             f"iterates unordered container '{base}' inside "
                             "observable-output function: emit in sorted "
                             "key order instead")
                for m in BEGIN_CALL_RE.finditer(line):
                    if m.group(1) in unordered_names:
                        emit("unordered-iter", idx,
                             f"unordered container '{m.group(1)}' traversed "
                             "inside observable-output function")
            if span and span.hot and span.body_start <= idx <= span.body_end:
                for pat, what in ALLOC_PATTERNS:
                    if pat.search(line):
                        emit("hotpath-alloc", idx,
                             f"{what} in MHRP_HOT_PATH function")
            if span and span.serial_of \
                    and span.body_start <= idx <= span.body_end:
                for m in FOREIGN_QUEUE_RE.finditer(line):
                    if m.group(1) != span.serial_of:
                        emit("shard-serial", idx,
                             f"touches '{m.group(1)}' queue inside "
                             f"MHRP_REQUIRES({span.serial_of}.serial): a "
                             "serial-domain function may touch only its own "
                             "shard's queue (post() to its inbox)")
                if SHARD_TABLE_RE.search(line):
                    emit("shard-serial", idx,
                         "indexes the shard table inside a shard-serial "
                         "function: resolve the target shard before "
                         "entering the serial domain")
        out += self._scan_nodiscard(fm)
        return out

    def _scan_nodiscard(self, fm: FileModel) -> list[Finding]:
        out: list[Finding] = []
        text = "\n".join(fm.code_lines)
        line_of = _LineIndex(text)
        for m in NODISCARD_FN_RE.finditer(text):
            ret, fn_name = m.group(2), m.group(3)
            idx = line_of(m.start(1))
            if fn_name in KEYWORDS_NOT_FUNCTIONS or fn_name == ret:
                continue
            # The attribute must be attached to THIS declaration: look
            # back only to the start of the statement (the previous
            # ';', '{' or '}'), not into neighboring declarations.
            stmt_start = max(text.rfind(d, 0, m.start(1)) for d in ";{}")
            stmt_prefix = text[stmt_start + 1:m.start(1)]
            if "[[nodiscard]]" in stmt_prefix or "MHRP_NODISCARD" in stmt_prefix:
                continue
            # Skip variable declarations with initializers: `Lsn x(...)`
            # is rare; require the paren group to look like parameters
            # (empty, or containing a type-ish token) — heuristic: skip
            # when the open paren is immediately followed by a digit or a
            # lone identifier that is a known local... keep simple: allow
            # suppression for false positives.
            f = Finding("nodiscard", fm.path, idx + 1, fn_name,
                        f"'{fn_name}' returns {ret} without [[nodiscard]]: "
                        "dropping it loses a handle/status")
            if "nodiscard" in fm.suppressions.get(idx, set()):
                f.suppressed = True
            out.append(f)
        return out

    @staticmethod
    def _base_name(expr: str) -> str:
        # Final component of the leading identifier path: `cache.map_` ->
        # map_, `by_length_[i]` -> by_length_, `this->map_` -> map_.
        # Anything past the path (subscripts, call parens) is ignored.
        m = re.match(
            r"\s*[*&(]*\s*((?:[A-Za-z_]\w*\s*(?:\.|->|::)\s*)*[A-Za-z_]\w*)",
            expr)
        if not m:
            return ""
        return re.split(r"\.|->|::", m.group(1))[-1].strip()


# --------------------------------------------------------------------------
# Baseline ratchet
# --------------------------------------------------------------------------

def load_baseline(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    entries = data["entries"] if isinstance(data, dict) else data
    for e in entries:
        for k in ("rule", "file", "symbol", "justification"):
            if k not in e:
                raise ValueError(f"baseline entry missing '{k}': {e}")
        if not e["justification"].strip():
            raise ValueError(f"baseline entry lacks a justification: {e}")
    return entries


def apply_baseline(findings: list[Finding],
                   entries: list[dict]) -> tuple[list[Finding], list[dict]]:
    """Mark findings covered by the baseline; return (findings, stale)."""
    index = {f"{e['rule']}|{e['file']}|{e['symbol']}": e for e in entries}
    used: set[str] = set()
    for f in findings:
        if f.suppressed:
            continue
        if f.key in index:
            f.baselined = True
            used.add(f.key)
    stale = [e for k, e in index.items() if k not in used]
    return findings, stale


def write_baseline(path: str, findings: list[Finding],
                   old_entries: list[dict]) -> None:
    old = {f"{e['rule']}|{e['file']}|{e['symbol']}": e for e in old_entries}
    entries, seen = [], set()
    for f in findings:
        if f.suppressed or f.key in seen:
            continue
        seen.add(f.key)
        entries.append({
            "rule": f.rule,
            "file": f.path,
            "symbol": f.symbol,
            "justification": old.get(f.key, {}).get(
                "justification", "TODO: justify or fix"),
        })
    entries.sort(key=lambda e: (e["rule"], e["file"], e["symbol"]))
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"schema": "mhrp-lint-baseline.v1", "entries": entries},
                  f, indent=2)
        f.write("\n")


# --------------------------------------------------------------------------
# Driver
# --------------------------------------------------------------------------

CXX_EXTS = (".cpp", ".cc", ".cxx", ".hpp", ".hh", ".h")


def gather_files(paths: list[str], compile_db: str | None,
                 repo_root: str) -> list[tuple[str, str]]:
    files: list[str] = []
    if compile_db:
        with open(compile_db, encoding="utf-8") as f:
            for entry in json.load(f):
                p = os.path.normpath(
                    os.path.join(entry["directory"], entry["file"]))
                if os.path.commonpath(
                        [repo_root, p]) == repo_root and "/src/" in p:
                    files.append(p)
    for path in paths:
        if os.path.isdir(path):
            for base, _dirs, names in os.walk(path):
                files += [os.path.join(base, n) for n in sorted(names)
                          if n.endswith(CXX_EXTS)]
        elif os.path.isfile(path):
            files.append(path)
        else:
            raise FileNotFoundError(path)
    uniq: list[tuple[str, str]] = []
    seen: set[str] = set()
    for p in files:
        ab = os.path.abspath(p)
        if ab in seen:
            continue
        seen.add(ab)
        rel = os.path.relpath(ab, repo_root).replace(os.sep, "/")
        uniq.append((ab, rel))
    uniq.sort(key=lambda t: t[1])
    return uniq


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="mhrp-lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("paths", nargs="*", help="files or directories to lint "
                    "(default: <repo>/src)")
    ap.add_argument("--compile-db", help="compile_commands.json; adds its "
                    "src/ TUs to the file list")
    ap.add_argument("--baseline", help="baseline.json ratchet: matching "
                    "findings pass, stale entries fail")
    ap.add_argument("--write-baseline", metavar="PATH",
                    help="write current findings as the new baseline")
    ap.add_argument("--rule", action="append", choices=RULES,
                    help="restrict to these rules (repeatable)")
    ap.add_argument("--wallclock-allow", action="append", default=[],
                    metavar="RELPATH",
                    help="extra repo-relative files allowed to read wall "
                    "clocks (default allowlist: %s)" %
                    ", ".join(DEFAULT_WALLCLOCK_ALLOW))
    ap.add_argument("--list-suppressed", action="store_true",
                    help="also print inline-suppressed findings")
    ap.add_argument("-q", "--quiet", action="store_true")
    args = ap.parse_args(argv)

    repo_root = os.path.abspath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
    paths = args.paths or [os.path.join(repo_root, "src")]
    try:
        files = gather_files(paths, args.compile_db, repo_root)
    except FileNotFoundError as e:
        print(f"mhrp-lint: no such path: {e}", file=sys.stderr)
        return 2
    if not files:
        print("mhrp-lint: no input files", file=sys.stderr)
        return 2

    wallclock_allow = set(DEFAULT_WALLCLOCK_ALLOW) | set(args.wallclock_allow)

    models = [build_file_model(ab, rel) for ab, rel in files]
    findings = TokenEngine(models).run(wallclock_allow)

    if args.rule:
        findings = [f for f in findings if f.rule in set(args.rule)]
    findings.sort(key=lambda f: (f.path, f.line, f.rule))

    baseline_entries: list[dict] = []
    stale: list[dict] = []
    if args.baseline:
        try:
            baseline_entries = load_baseline(args.baseline)
        except (OSError, ValueError, KeyError) as e:
            print(f"mhrp-lint: bad baseline: {e}", file=sys.stderr)
            return 2
        findings, stale = apply_baseline(findings, baseline_entries)

    if args.write_baseline:
        write_baseline(args.write_baseline,
                       [f for f in findings if not f.suppressed],
                       baseline_entries)
        print(f"mhrp-lint: wrote baseline to {args.write_baseline}")
        return 0

    active = [f for f in findings if not f.suppressed and not f.baselined]
    suppressed = [f for f in findings if f.suppressed]
    baselined = [f for f in findings if f.baselined]

    if not args.quiet:
        for f in active:
            print(f.render())
        for f in baselined:
            print(f.render())
        if args.list_suppressed:
            for f in suppressed:
                print(f"{f.render()} [suppressed]")
        for e in stale:
            print(f"STALE baseline entry (fixed? remove it): "
                  f"[{e['rule']}] {e['file']} '{e['symbol']}'")
        print(f"mhrp-lint: {len(files)} files: "
              f"{len(active)} finding(s), {len(baselined)} baselined, "
              f"{len(suppressed)} suppressed, {len(stale)} stale baseline "
              f"entr{'y' if len(stale) == 1 else 'ies'}")
    return 1 if active or stale else 0


if __name__ == "__main__":
    sys.exit(main())
