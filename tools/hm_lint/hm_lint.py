#!/usr/bin/env python3
"""hm_lint: repo-specific determinism & hot-path static analysis.

Every reproducibility claim this repo makes — byte-identical sweep CSVs at
any thread count, bit-exact store round-trips, seed-derived search traces —
rests on invariants the type system cannot express. This linter enforces
them at analysis time instead of leaving them to after-the-fact golden
diffs. Token/scope analysis only (no compiler needed): comments and string
literals are blanked before matching, so the rules see code, not prose.

Rules
-----
  nondeterminism   (R1) std::rand / srand / random_device, the standard
                   library's implementation-defined draws
                   (std::*_distribution, std::shuffle, std::sample),
                   time-based seeding, and this-pointer hashing are banned
                   outside src/noc/rng.hpp and src/util/stable_hash.hpp.
                   All randomness must flow from noc::Rng / noc::derive_seed
                   (or the partitioner's in-tree std::mt19937 draws); all
                   hashing from util::StableHash.
  unordered-iter   (R2) iterating a std::unordered_map/unordered_set is
                   implementation-ordered. Any such loop must either
                   materialize + sort before feeding an ordered consumer
                   (CSV/JSON export, trace emission, stable_hash, the
                   on-disk store) or carry a waiver explaining why order
                   cannot matter.
  hot-alloc        (R3) functions/classes annotated `// HM_HOT` are on the
                   per-cycle simulation path: no `new`, no make_unique/
                   make_shared, no std::function construction, no `throw`.
  telemetry-name   (R4) telemetry Counter/Gauge/Histogram/Span literals
                   must match the `family.sub` catalog regex; a Counter/
                   Gauge/Histogram name must be constructed at exactly one
                   site (the registry aggregates by name, so a stray
                   duplicate silently double-counts) unless waived.
  header-include   (R5) every src/**/*.hpp must be self-sufficient:
                   `#pragma once` plus a direct include for every std::
                   symbol it uses (checked against a curated symbol ->
                   header map; transitive includes do not count).
  waiver-syntax    a `// HM_LINT allow(<rule>): <reason>` waiver must name
                   a known rule and carry a non-empty one-line reason.

Waivers
-------
A waiver suppresses findings of `<rule>` on its own line and on the next
non-comment line:

    // HM_LINT allow(unordered-iter): batch is sorted by key below
    for (const std::uint64_t key : shard.dirty) {

Usage
-----
    hm_lint.py [--root DIR] [paths...]

With no paths, scans src/, examples/, bench/, tests/ under --root (default:
the repo root containing this script). Explicit paths are linted with every
rule armed (that is how the fixture corpus under tools/hm_lint/fixtures/
is driven). Exit 0 = clean, 1 = findings, 2 = internal/usage error.
"""

import argparse
import os
import re
import sys

RULES = (
    "nondeterminism",
    "unordered-iter",
    "hot-alloc",
    "telemetry-name",
    "header-include",
    "waiver-syntax",
)

# Files allowed to hold nondeterminism primitives / pointer hashing: the
# single RNG implementation and the stable-hash implementation.
R1_ALLOWED_SUFFIXES = ("src/noc/rng.hpp", "src/util/stable_hash.hpp")

WAIVER_RE = re.compile(r"//\s*HM_LINT\s+allow\(([a-z0-9_-]*)\)\s*:?\s*(.*)$")
HOT_RE = re.compile(r"//\s*HM_HOT\b")

TELEMETRY_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$")
TELEMETRY_CTOR_RE = re.compile(
    r"\b(?:telemetry::)?(Counter|Gauge|Histogram|Span)\b"
    r"(?:\s+[A-Za-z_]\w*)?\s*[({]\s*\"([^\"]*)\""
)
# Metric kinds whose identity is the registry slot (spans are scoped trace
# events; emitting the same span name from several sites is normal).
REGISTERED_KINDS = ("Counter", "Gauge", "Histogram")

# R5: curated std symbol -> acceptable direct includes. Deliberately small
# and high-signal; symbols not listed are not checked.
STD_HEADERS = {
    "std::vector": ("vector",),
    "std::string": ("string",),
    "std::to_string": ("string",),
    "std::string_view": ("string_view",),
    "std::array": ("array",),
    "std::deque": ("deque",),
    "std::map": ("map",),
    "std::set": ("set",),
    "std::unordered_map": ("unordered_map",),
    "std::unordered_set": ("unordered_set",),
    "std::optional": ("optional",),
    "std::nullopt": ("optional",),
    "std::pair": ("utility",),
    "std::make_pair": ("utility",),
    "std::move": ("utility",),
    "std::forward": ("utility",),
    "std::swap": ("utility",),
    "std::exchange": ("utility",),
    "std::tuple": ("tuple",),
    "std::variant": ("variant",),
    "std::span": ("span",),
    "std::unique_ptr": ("memory",),
    "std::shared_ptr": ("memory",),
    "std::weak_ptr": ("memory",),
    "std::make_unique": ("memory",),
    "std::make_shared": ("memory",),
    "std::function": ("functional",),
    "std::atomic": ("atomic",),
    "std::mutex": ("mutex",),
    "std::lock_guard": ("mutex",),
    "std::unique_lock": ("mutex",),
    "std::scoped_lock": ("mutex",),
    "std::shared_mutex": ("shared_mutex",),
    "std::shared_lock": ("shared_mutex",),
    "std::condition_variable": ("condition_variable",),
    "std::thread": ("thread",),
    "std::uint8_t": ("cstdint",),
    "std::uint16_t": ("cstdint",),
    "std::uint32_t": ("cstdint",),
    "std::uint64_t": ("cstdint",),
    "std::int8_t": ("cstdint",),
    "std::int16_t": ("cstdint",),
    "std::int32_t": ("cstdint",),
    "std::int64_t": ("cstdint",),
    "std::uintptr_t": ("cstdint",),
    "std::size_t": ("cstddef", "cstdint", "cstdio", "cstring", "vector"),
    "std::byte": ("cstddef",),
    "std::ptrdiff_t": ("cstddef",),
    "std::initializer_list": ("initializer_list",),
    "std::numeric_limits": ("limits",),
    "std::bit_cast": ("bit",),
    "std::countr_zero": ("bit",),
    "std::countl_zero": ("bit",),
    "std::popcount": ("bit",),
    "std::has_single_bit": ("bit",),
    "std::ostream": ("ostream", "iostream", "iosfwd", "sstream", "fstream"),
    "std::istream": ("istream", "iostream", "iosfwd", "sstream", "fstream"),
    "std::ofstream": ("fstream",),
    "std::ifstream": ("fstream",),
    "std::fstream": ("fstream",),
    "std::ostringstream": ("sstream",),
    "std::istringstream": ("sstream",),
    "std::stringstream": ("sstream",),
    "std::runtime_error": ("stdexcept",),
    "std::logic_error": ("stdexcept",),
    "std::invalid_argument": ("stdexcept",),
    "std::out_of_range": ("stdexcept",),
    "std::length_error": ("stdexcept",),
    "std::exception": ("exception", "stdexcept"),
    "std::exception_ptr": ("exception",),
    "std::current_exception": ("exception",),
    "std::rethrow_exception": ("exception",),
    "std::sort": ("algorithm",),
    "std::stable_sort": ("algorithm",),
    "std::find": ("algorithm",),
    "std::find_if": ("algorithm",),
    "std::min": ("algorithm",),
    "std::max": ("algorithm",),
    "std::clamp": ("algorithm",),
    "std::fill": ("algorithm",),
    "std::copy": ("algorithm",),
    "std::lower_bound": ("algorithm",),
    "std::upper_bound": ("algorithm",),
    "std::all_of": ("algorithm",),
    "std::any_of": ("algorithm",),
    "std::none_of": ("algorithm",),
    "std::accumulate": ("numeric",),
    "std::iota": ("numeric",),
    "std::sqrt": ("cmath",),
    "std::ceil": ("cmath",),
    "std::floor": ("cmath",),
    "std::fabs": ("cmath",),
    "std::pow": ("cmath",),
    "std::isnan": ("cmath",),
    "std::isfinite": ("cmath",),
    "std::llround": ("cmath",),
    "std::lround": ("cmath",),
    "std::memcpy": ("cstring",),
    "std::memset": ("cstring",),
    "std::strcmp": ("cstring",),
    "std::strlen": ("cstring",),
    "std::chrono": ("chrono",),
}
STD_SYMBOL_RE = re.compile(r"\bstd::[a-z_][a-z0-9_]*")


class Finding:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def render(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def blank_comments_and_strings(text):
    """Returns (code, comments) with identical line structure to `text`.

    `code` has comments and string/char literal contents replaced by spaces
    (so token regexes never match prose); `comments` has everything *except*
    comment text blanked (so waiver/annotation regexes only match comments).
    """
    code = []
    comments = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                code.append("  ")
                comments.append("//")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                code.append("  ")
                comments.append("/*")
                i += 2
                continue
            if c == '"':
                # Raw strings: skip to the matching delimiter verbatim.
                if code and code[-1] == "R":
                    m = re.match(r'R"([^\s()\\]*)\(', text[i - 1 :])
                    if m:
                        end = text.find(")" + m.group(1) + '"', i)
                        end = n if end < 0 else end + len(m.group(1)) + 2
                        seg = text[i:end]
                        code.append('"' + re.sub(r"[^\n]", " ", seg[1:]))
                        comments.append(re.sub(r"[^\n]", " ", seg))
                        i = end
                        continue
                state = "string"
                code.append('"')
                comments.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                code.append("'")
                comments.append(" ")
                i += 1
                continue
            code.append(c)
            comments.append(c if c == "\n" else " ")
            i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                code.append("\n")
                comments.append("\n")
            else:
                code.append(" ")
                comments.append(c)
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                code.append("  ")
                comments.append("*/")
                i += 2
            else:
                code.append(c if c == "\n" else " ")
                comments.append(c)
                i += 1
        elif state == "string":
            if c == "\\" and nxt:
                code.append("  ")
                comments.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
                code.append('"')
            else:
                code.append(" " if c != "\n" else "\n")
            comments.append(" " if c != "\n" else "\n")
            i += 1
        else:  # char
            if c == "\\" and nxt:
                code.append("  ")
                comments.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
                code.append("'")
            else:
                code.append(" " if c != "\n" else "\n")
            comments.append(" " if c != "\n" else "\n")
            i += 1
    return "".join(code), "".join(comments)


class FileContext:
    def __init__(self, relpath, text):
        self.relpath = relpath
        self.text = text
        self.lines = text.splitlines()
        code, comments = blank_comments_and_strings(text)
        self.code_lines = code.splitlines()
        self.comment_lines = comments.splitlines()
        # line number (1-based) -> set of waived rule names
        self.waivers = {}
        self.waiver_findings = []
        self._collect_waivers()

    def _collect_waivers(self):
        pending = None  # waiver rules carried to the next non-comment line
        for ln, comment in enumerate(self.comment_lines, start=1):
            m = WAIVER_RE.search(comment)
            code = (
                self.code_lines[ln - 1].strip()
                if ln - 1 < len(self.code_lines)
                else ""
            )
            if m:
                rule, reason = m.group(1), m.group(2).strip()
                if rule not in RULES:
                    self.waiver_findings.append(
                        Finding(
                            self.relpath,
                            ln,
                            "waiver-syntax",
                            f"waiver names unknown rule '{rule}' "
                            f"(known: {', '.join(RULES)})",
                        )
                    )
                    continue
                if not reason:
                    self.waiver_findings.append(
                        Finding(
                            self.relpath,
                            ln,
                            "waiver-syntax",
                            f"waiver for '{rule}' has an empty reason — "
                            "every waiver must justify itself in one line",
                        )
                    )
                    continue
                self.waivers.setdefault(ln, set()).add(rule)
                if code:  # trailing waiver: covers its own line only
                    pending = None
                else:
                    pending = (rule, ln)
                continue
            if pending is not None and code:
                self.waivers.setdefault(ln, set()).add(pending[0])
                pending = None

    def waived(self, line, rule):
        return rule in self.waivers.get(line, set())


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def match_brace_block(code, open_pos):
    """Returns the index just past the `}` matching the `{` at open_pos."""
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "{":
            depth += 1
        elif code[i] == "}":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


# ----------------------------------------------------------------- rule R1
R1_PATTERNS = (
    (re.compile(r"\bstd::rand\b|\brand\s*\(\s*\)"), "std::rand"),
    (re.compile(r"\bsrand\s*\("), "srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    # The standard fixes the engines' output but leaves these algorithms to
    # the library, so libc++ or MSVC would draw different values.
    (re.compile(r"\bstd::\w+_distribution\b"), "std::*_distribution"),
    (re.compile(r"\bstd::(?:ranges::)?shuffle\b"), "std::shuffle"),
    (re.compile(r"\bstd::(?:ranges::)?sample\b"), "std::sample"),
)
R1_TIME_RE = re.compile(
    r"::now\s*\(\s*\)|\btime\s*\(\s*(?:NULL|nullptr|0)\s*\)|\bclock\s*\(\s*\)"
)
R1_SEED_CONTEXT_RE = re.compile(r"\bseed\b|\bSeed\b|\bRng\b|\bsrand\b", re.I)
R1_THIS_HASH_RE = re.compile(
    r"(?:uintptr_t|intptr_t)[^;\n]*\bthis\b|hash[^;\n(]*\(\s*this\s*\)"
)


def check_nondeterminism(ctx, findings):
    if any(ctx.relpath.endswith(suffix) for suffix in R1_ALLOWED_SUFFIXES):
        return
    for ln, code in enumerate(ctx.code_lines, start=1):
        if ctx.waived(ln, "nondeterminism"):
            continue
        for pattern, label in R1_PATTERNS:
            if pattern.search(code):
                findings.append(
                    Finding(
                        ctx.relpath,
                        ln,
                        "nondeterminism",
                        f"{label} is banned outside src/noc/rng.hpp — all "
                        "randomness must derive from noc::Rng / "
                        "noc::derive_seed",
                    )
                )
        if R1_TIME_RE.search(code) and R1_SEED_CONTEXT_RE.search(code):
            findings.append(
                Finding(
                    ctx.relpath,
                    ln,
                    "nondeterminism",
                    "time-based seeding — seeds must be explicit inputs "
                    "(wall clock varies run to run)",
                )
            )
        if R1_THIS_HASH_RE.search(code):
            findings.append(
                Finding(
                    ctx.relpath,
                    ln,
                    "nondeterminism",
                    "this-pointer hashing — addresses vary per run/ASLR; "
                    "hash logical content via util::StableHash",
                )
            )


# ----------------------------------------------------------------- rule R2
UNORDERED_DECL_RE = re.compile(r"\bunordered_(?:map|set)\s*<")
IDENT_RE = re.compile(r"[A-Za-z_]\w*")
RANGE_FOR_RE = re.compile(r"\bfor\s*\(")
ITER_BEGIN_RE = re.compile(r"([A-Za-z_][\w.\->]*)\s*\.\s*(?:c?begin)\s*\(")


def find_template_end(code, lt_pos):
    """Index just past the `>` matching the `<` at lt_pos."""
    depth = 0
    for i in range(lt_pos, len(code)):
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


def collect_unordered_names(code):
    """Names (variables, members, aliases) declared with an unordered type."""
    names = set()
    aliases = set()
    for m in UNORDERED_DECL_RE.finditer(code):
        end = find_template_end(code, m.end() - 1)
        # `using Alias = std::unordered_map<...>;`
        before = code[max(0, m.start() - 200) : m.start()]
        alias_m = re.search(r"\busing\s+([A-Za-z_]\w*)\s*=\s*[\w:]*$", before)
        if alias_m:
            aliases.add(alias_m.group(1))
            continue
        # declarator(s) after the closing `>`: `> name;` / `> name{..};`
        tail = code[end : end + 200]
        decl_m = re.match(r"\s*&?\s*([A-Za-z_]\w*)\s*[;={(,)]", tail)
        if decl_m:
            names.add(decl_m.group(1))
    if aliases:
        for alias in aliases:
            for m in re.finditer(
                r"\b" + re.escape(alias) + r"\s+([A-Za-z_]\w*)\s*[;={(,]", code
            ):
                names.add(m.group(1))
    return names


def base_identifier(expr):
    """Last identifier component of `a.b->c` / `(*x).y` style expressions."""
    expr = expr.strip()
    parts = re.split(r"\.|->", expr)
    if not parts:
        return None
    last = parts[-1].strip().lstrip("*&(").rstrip(") ")
    m = IDENT_RE.fullmatch(last)
    return m.group(0) if m else None


def check_unordered_iter(ctx, names, findings):
    """`names` is the scan-wide set of identifiers declared with an
    unordered type: members are declared in headers and iterated in .cpp
    files, so the declaration scope must span the whole file set."""
    code = "\n".join(ctx.code_lines)
    if not names:
        return

    def flag(ln, base):
        if ctx.waived(ln, "unordered-iter"):
            return
        findings.append(
            Finding(
                ctx.relpath,
                ln,
                "unordered-iter",
                f"iteration over unordered container '{base}' — "
                "implementation order must not feed exports, traces, "
                "stable hashes or on-disk records; materialize + sort, "
                "or waive with why order cannot matter",
            )
        )

    # Range-for over an unordered container.
    for m in RANGE_FOR_RE.finditer(code):
        close = find_paren_end(code, m.end() - 1)
        header = code[m.end() : close - 1]
        if ":" not in header:
            continue
        range_expr = header.rsplit(":", 1)[1]
        base = base_identifier(range_expr)
        if base in names:
            flag(line_of(code, m.start()), base)

    # Iterator loops: `x.begin()` on an unordered container.
    for m in ITER_BEGIN_RE.finditer(code):
        base = base_identifier(m.group(1))
        if base in names:
            flag(line_of(code, m.start()), base)


def find_paren_end(code, open_pos):
    depth = 0
    for i in range(open_pos, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(code)


# ----------------------------------------------------------------- rule R3
R3_PATTERNS = (
    (re.compile(r"\bnew\b(?!\s*\()"), "operator new"),
    (re.compile(r"\bnew\s*\("), "operator new"),
    (re.compile(r"\bmake_unique\s*<"), "std::make_unique"),
    (re.compile(r"\bmake_shared\s*<"), "std::make_shared"),
    (re.compile(r"\bstd::function\s*<"), "std::function construction"),
    (re.compile(r"\bthrow\b"), "throw"),
)


def check_hot_alloc(ctx, findings):
    code = "\n".join(ctx.code_lines)
    comments = "\n".join(ctx.comment_lines)
    for m in HOT_RE.finditer(comments):
        # The annotation governs the next brace block (function body or
        # class body) that opens after it.
        open_pos = code.find("{", m.end())
        if open_pos < 0:
            continue
        end = match_brace_block(code, open_pos)
        body = code[open_pos:end]
        offset_line = line_of(code, open_pos)
        for pattern, label in R3_PATTERNS:
            for bm in pattern.finditer(body):
                ln = offset_line + body.count("\n", 0, bm.start())
                if ctx.waived(ln, "hot-alloc"):
                    continue
                findings.append(
                    Finding(
                        ctx.relpath,
                        ln,
                        "hot-alloc",
                        f"{label} inside an HM_HOT region — the per-cycle "
                        "path must be allocation- and throw-free",
                    )
                )


# ----------------------------------------------------------------- rule R4
def check_telemetry_names(ctx, registry, findings):
    for ln, line in enumerate(ctx.lines, start=1):
        # Match against raw text (names are string literals) but require the
        # construct to survive in blanked code (not inside a comment).
        if "Counter" not in line and "Gauge" not in line \
                and "Histogram" not in line and "Span" not in line:
            continue
        code_line = ctx.code_lines[ln - 1] if ln - 1 < len(ctx.code_lines) else ""
        for m in TELEMETRY_CTOR_RE.finditer(line):
            kind, name = m.group(1), m.group(2)
            if kind not in code_line:
                continue  # commented-out construction
            if not TELEMETRY_NAME_RE.fullmatch(name):
                if not ctx.waived(ln, "telemetry-name"):
                    findings.append(
                        Finding(
                            ctx.relpath,
                            ln,
                            "telemetry-name",
                            f"{kind} name '{name}' does not match the "
                            "family.sub catalog regex "
                            "^[a-z][a-z0-9_]*(\\.[a-z0-9_]+)+$",
                        )
                    )
            if kind in REGISTERED_KINDS:
                registry.setdefault(name, []).append(
                    (ctx, ln, kind)
                )


def check_telemetry_duplicates(registry, findings):
    for name, sites in sorted(registry.items()):
        kinds = {kind for _, _, kind in sites}
        if len(kinds) > 1:
            for ctx, ln, kind in sites:
                if ctx.waived(ln, "telemetry-name"):
                    continue
                findings.append(
                    Finding(
                        ctx.relpath,
                        ln,
                        "telemetry-name",
                        f"metric '{name}' is registered as multiple kinds "
                        f"({', '.join(sorted(kinds))}) — one name, one kind",
                    )
                )
            continue
        if len(sites) > 1:
            unwaived = [
                (ctx, ln, kind)
                for ctx, ln, kind in sites
                if not ctx.waived(ln, "telemetry-name")
            ]
            # One unwaived site is the canonical registration; every
            # additional unwaived site silently shares (and double-counts
            # into) the same registry slot.
            for ctx, ln, _ in unwaived[1:]:
                findings.append(
                    Finding(
                        ctx.relpath,
                        ln,
                        "telemetry-name",
                        f"metric '{name}' is registered at "
                        f"{len(sites)} sites — the registry aggregates by "
                        "name, so duplicates double-count; share one "
                        "handle or waive each intentional alias",
                    )
                )


# ----------------------------------------------------------------- rule R5
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]', re.M)


def check_header_includes(ctx, findings):
    code = "\n".join(ctx.code_lines)
    # Look in the comment-blanked view: a header whose prose merely
    # *mentions* "#pragma once" must not pass the guard check.
    if "#pragma once" not in code:
        if not ctx.waived(1, "header-include"):
            findings.append(
                Finding(
                    ctx.relpath,
                    1,
                    "header-include",
                    "header is missing #pragma once",
                )
            )
    includes = set(INCLUDE_RE.findall(ctx.text))
    missing = {}
    for m in STD_SYMBOL_RE.finditer(code):
        symbol = m.group(0)
        headers = STD_HEADERS.get(symbol)
        if headers is None:
            continue
        if any(h in includes for h in headers):
            continue
        ln = line_of(code, m.start())
        if ctx.waived(ln, "header-include"):
            continue
        missing.setdefault((symbol, headers[0]), ln)
    for (symbol, header), ln in sorted(missing.items(), key=lambda kv: kv[1]):
        findings.append(
            Finding(
                ctx.relpath,
                ln,
                "header-include",
                f"{symbol} used without a direct #include <{header}> — "
                "headers must be self-sufficient (transitive includes "
                "break under refactor)",
            )
        )


# ------------------------------------------------------------------ driver
def default_scan_paths(root):
    out = []
    for top in ("src", "examples", "bench", "tests"):
        base = os.path.join(root, top)
        if not os.path.isdir(base):
            continue
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for fn in sorted(filenames):
                if fn.endswith((".cpp", ".hpp", ".cc", ".h")):
                    out.append(os.path.join(dirpath, fn))
    return out


def load_context(path, root):
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            text = f.read()
    except OSError as e:
        raise SystemExit(f"hm_lint: cannot read {path}: {e}")
    rel = os.path.relpath(path, root).replace(os.sep, "/")
    return FileContext(rel, text)


def lint_file(ctx, explicit, unordered_names, registry, findings):
    rel = ctx.relpath
    findings.extend(ctx.waiver_findings)

    under_tests = rel.startswith("tests/")
    is_header = rel.endswith((".hpp", ".h"))
    in_src = rel.startswith("src/")

    check_nondeterminism(ctx, findings)
    check_unordered_iter(ctx, unordered_names, findings)
    check_hot_alloc(ctx, findings)
    if explicit or not under_tests:
        # Tests construct ad-hoc metrics on purpose; the production catalog
        # lives in src/, examples/ and bench/.
        check_telemetry_names(ctx, registry, findings)
    if is_header and (explicit or in_src):
        check_header_includes(ctx, findings)


def main(argv):
    parser = argparse.ArgumentParser(
        prog="hm_lint", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--root",
        default=os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        ),
        help="repo root (default: two levels above this script)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print rule ids and exit"
    )
    parser.add_argument("paths", nargs="*", help="explicit files to lint")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in RULES:
            print(rule)
        return 0

    root = os.path.abspath(args.root)
    explicit = bool(args.paths)
    paths = (
        [os.path.abspath(p) for p in args.paths]
        if explicit
        else default_scan_paths(root)
    )
    if not paths:
        print("hm_lint: nothing to lint", file=sys.stderr)
        return 2

    findings = []
    registry = {}
    contexts = [load_context(path, root) for path in paths]
    # Pass 1: unordered-container declarations scan-wide (members declared
    # in a header are iterated from .cpp files). Pass 2: per-file checks.
    unordered_names = set()
    for ctx in contexts:
        unordered_names |= collect_unordered_names("\n".join(ctx.code_lines))
    for ctx in contexts:
        lint_file(ctx, explicit, unordered_names, registry, findings)
    check_telemetry_duplicates(registry, findings)

    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding.render())
    if findings:
        print(
            f"hm_lint: {len(findings)} finding(s) in "
            f"{len({f.path for f in findings})} file(s)",
            file=sys.stderr,
        )
        return 1
    print(f"hm_lint: clean ({len(paths)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
