#!/usr/bin/env python3
"""dewrite-analyze: whole-tree shard-isolation / purity / layering prover.

Where dewrite_lint.py checks single lines and clang-tidy checks single
translation units, this tool builds a *whole-tree* call graph and
include graph over ``src/`` and proves reachability properties that no
lexical rule can express (DESIGN.md §5i):

  shard-isolation     From the per-shard drain-task roots (functions
                      annotated ``// dewrite-analyze:
                      root(shard-isolation)``: CoreModel's push-mode
                      feed/finish and shared flush, and
                      DedupService::finalizeShard), no call
                      path reaches mutable static-storage state — a
                      namespace-scope variable or function-local
                      ``static`` — unless the variable is annotated
                      with an ownership class:
                        // dewrite-owned: shard         per-shard or
                                                        per-thread
                        // dewrite-owned: global-const  immutable after
                                                        first use
                        // dewrite-owned: sync(<lock>)  guarded by the
                                                        named lock or
                                                        by atomics
                      This is the compile-time form of the guarantee
                      the service's parity fingerprints and TSan only
                      check observationally: shard drain tasks share no
                      mutable state.
  hot-path-purity     Functions annotated ``// dewrite-lint: hot`` and
                      *everything they transitively call* are free of
                      allocation-shaped constructs (operator new,
                      make_unique, push_back, resize, ...). The lexical
                      hot-path-alloc rule only sees the annotated body;
                      this rule closes it over the call graph.
  layering            The include graph respects the module DAG
                        common -> {crypto, obs, trace} -> nvm -> cache
                        -> dedup -> controller -> cpu -> sim
                        -> {service}
                      (obs and trace are leaf utility layers: they are
                      included by everything and include only common).
                      A module may include itself or any strictly lower
                      layer. Known-good back-edges carry
                      ``// dewrite-analyze: allow(layering) <reason>``
                      on the include line.
  determinism         From the result-producing roots (functions
                      annotated ``// dewrite-analyze:
                      root(determinism)``: System::run and
                      CoreModel's push-mode drain), no call path reaches
                      wall-clock reads, rand(), or address-ordered
                      iteration. Sites PR 4 already catalogued — a
                      ``.forEach(`` carrying ``// dewrite-lint:
                      allow(unsorted-iteration)`` — are trusted;
                      deliberate host-side profiling reads carry
                      ``// dewrite-analyze: allow(determinism)``.

Front-ends
  The call graph is built from clang's ``-Xclang -ast-dump=json`` over
  ``compile_commands.json`` when a clang binary is available
  (``--frontend clang``; dumps are cached under --cache-dir keyed on
  compiler, flags, the TU's content, and the full src/ header set —
  header-defined inline functions live inside TU dumps, so a header
  edit invalidates every dump). When clang is absent the tool
  falls back to a built-in lexical-structural front-end
  (``--frontend internal``) that parses the same sources directly, so
  the prover still gates on minimal containers; ``--frontend clang``
  without a binary skips gracefully (exit 0) and CI passes
  ``--require`` to turn that into a hard failure, mirroring
  run_clang_tidy.py. Both front-ends feed the same IR; annotation
  handling and rule logic are shared, so a suppression means the same
  thing everywhere.

  Call resolution is deliberately over-approximate (an unqualified call
  resolves to every function of that name when no better match exists):
  false reachability is suppressible with an annotation, missed
  reachability would be a hole in the proof.

Baseline
  Findings are gated against tools/analyze_baseline.json with the same
  ratchet as the clang-tidy wall: the committed baseline is empty and
  may only shrink; any new finding fails the run.

Exit codes: 0 clean/skipped, 1 findings or seeded-break failure,
2 usage/environment error, 3 clang required (--require) but not found.
"""

from __future__ import annotations

import argparse
import glob
import gzip
import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_BASELINE = os.path.join(REPO_ROOT, "tools",
                                "analyze_baseline.json")
DEFAULT_CACHE = os.path.join(REPO_ROOT, "build", "analyze_cache")

RULE_NAMES = ("shard-isolation", "hot-path-purity", "layering",
              "determinism")
ROOT_RULES = ("shard-isolation", "determinism")
OWNED_CLASSES = ("shard", "global-const", "sync")

#: Module layering (rule 3). A file's module is its first path
#: component under src/. Lower number = lower layer; a module may
#: include itself or any strictly lower layer.
LAYERS = {
    "common": 0,
    "crypto": 1,
    "obs": 1,
    "trace": 1,
    "nvm": 2,
    "cache": 3,
    "dedup": 4,
    "controller": 5,
    "cpu": 6,
    "sim": 7,
    "service": 8,
}

#: C++ keywords and keyword-like tokens that look like calls.
NOT_A_CALL = frozenset({
    "if", "for", "while", "switch", "return", "catch", "sizeof",
    "alignof", "alignas", "decltype", "noexcept", "throw", "new",
    "delete", "case", "default", "do", "else", "goto", "typeid",
    "static_assert", "assert", "defined", "va_start", "va_end",
    "va_copy", "operator",
})

#: Allocation-shaped constructs (rule 2) — the same catalogue as
#: dewrite-lint's lexical hot-path-alloc rule, applied transitively.
ALLOC_RE = re.compile(
    r"(?:\bnew\b|\bmake_unique\b|\bmake_shared\b|\bmalloc\s*\("
    r"|\bcalloc\s*\(|\brealloc\s*\(|\.push_back\s*\("
    r"|\.emplace_back\s*\(|\.resize\s*\(|\.reserve\s*\("
    # Container *value* declarations allocate; mentions of the type
    # as a reference/pointer binding do not.
    r"|std::(?:vector|deque)\s*<[^;]*>\s+[A-Za-z_]\w*"
    r"|std::string\s+[A-Za-z_]\w*)")

#: Nondeterminism sources (rule 4): wall-clock reads, rand, and
#: address-ordered (bucket-order) iteration.
WALLCLOCK_RE = re.compile(
    r"(?:\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b"
    r"|\btime\s*\(|\bclock_gettime\s*\(|\bgettimeofday\s*\("
    r"|\b__?rdtscp?\s*\()")
RAND_RE = re.compile(r"(?:\bs?rand\s*\(|\brandom_device\b)")
FOREACH_RE = re.compile(r"\.forEach\s*\(")
LINT_ALLOW_UNSORTED_RE = re.compile(
    r"//\s*dewrite-lint:\s*allow[^)]*unsorted-iteration")

ANALYZE_ANNOT_RE = re.compile(
    r"//\s*dewrite-analyze:\s*(?P<kind>allow-file|allow|root)"
    r"\s*\(\s*(?P<rules>[a-z-]+(?:\s*,\s*[a-z-]+)*)\s*\)")
OWNED_RE = re.compile(
    r"//\s*dewrite-owned:\s*(?P<cls>shard|global-const"
    r"|sync\(\s*[A-Za-z_][\w.:]*\s*\))")
HOT_RE = re.compile(r"//\s*dewrite-lint:\s*hot\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*"(?P<path>[^"]+)"')

#: Candidate clang binaries, newest first (mirrors run_clang_tidy).
CLANG_CANDIDATES = ("clang++",) + tuple(
    f"clang++-{v}" for v in range(21, 13, -1)) + ("clang",)


# --------------------------------------------------------------------
# Shared text utilities
# --------------------------------------------------------------------

def strip_code(lines: list[str]) -> list[str]:
    """Per-line 'code view': comments and string/char literal contents
    removed (annotations are parsed from the raw lines instead)."""
    out = []
    in_block = False
    for line in lines:
        code = []
        i, n = 0, len(line)
        while i < n:
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = n
                else:
                    in_block = False
                    i = end + 2
                continue
            ch = line[i]
            nxt = line[i + 1] if i + 1 < n else ""
            if ch == "/" and nxt == "/":
                break
            if ch == "/" and nxt == "*":
                in_block = True
                i += 2
                continue
            if ch in "\"'":
                quote = ch
                code.append(quote)
                i += 1
                while i < n:
                    if line[i] == "\\":
                        i += 2
                        continue
                    if line[i] == quote:
                        code.append(quote)
                        i += 1
                        break
                    i += 1
                continue
            code.append(ch)
            i += 1
        out.append("".join(code))
    return out


class Annotations:
    """The per-file annotation sets the rules consult."""

    def __init__(self) -> None:
        self.allow: dict[int, set[str]] = {}      # line -> rules
        self.allow_file: set[str] = set()
        self.roots: dict[int, set[str]] = {}      # line -> rules
        self.owned: dict[int, str] = {}           # line -> class
        self.hot_lines: list[int] = []
        self.bad: list[tuple[int, str]] = []      # unknown rule names

    def allowed(self, rule: str, lineno: int) -> bool:
        if rule in self.allow_file:
            return True
        return rule in self.allow.get(lineno, ())

    def owned_at(self, lineno: int) -> str | None:
        return self.owned.get(lineno)


def parse_annotations(lines: list[str]) -> Annotations:
    """Scan raw source lines for the analyzer annotation grammar.

    A trailing ``allow``/``owned`` annotation applies to its own line;
    one on a line of its own applies to the next code line (comment
    continuation lines in between are skipped, so the justification
    can span lines). ``root`` applies to the next function definition
    at or below it.
    """
    notes = Annotations()

    def is_comment_only(idx: int) -> bool:
        return not lines[idx - 1].split("//", 1)[0].strip()

    def next_code_line(lineno: int) -> int:
        target = lineno + 1
        while target <= len(lines) and is_comment_only(target):
            target += 1
        return target

    for lineno, line in enumerate(lines, 1):
        own_line = is_comment_only(lineno)
        match = ANALYZE_ANNOT_RE.search(line)
        if match:
            names = [name.strip()
                     for name in match.group("rules").split(",")]
            for name in names:
                if name not in RULE_NAMES:
                    notes.bad.append((lineno, name))
            kind = match.group("kind")
            if kind == "allow-file":
                notes.allow_file.update(names)
            elif kind == "allow":
                target = next_code_line(lineno) if own_line else lineno
                notes.allow.setdefault(target, set()).update(names)
            else:  # root
                for name in names:
                    if name in RULE_NAMES and name not in ROOT_RULES:
                        notes.bad.append((lineno, name))
                notes.roots.setdefault(lineno, set()).update(names)
        match = OWNED_RE.search(line)
        if match:
            cls = match.group("cls")
            notes.owned[next_code_line(lineno)
                        if own_line else lineno] = cls
        if HOT_RE.search(line):
            notes.hot_lines.append(lineno)
    return notes


# --------------------------------------------------------------------
# Intermediate representation
# --------------------------------------------------------------------

class Function:
    """One function definition with a body."""

    def __init__(self, qname: str, rel: str, line: int,
                 end_line: int) -> None:
        self.qname = qname          # e.g. "dewrite::CoreModel::flush"
        self.rel = rel
        self.line = line            # definition line (header)
        self.end_line = end_line    # closing brace line
        self.calls: list[str] = []  # callee names as written/resolved
        self.cls = ""               # owning class ("" for free fns)
        parts = qname.split("::")
        self.name = parts[-1]
        if len(parts) >= 2:
            self.cls = parts[-2]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<fn {self.qname} {self.rel}:{self.line}>"


class GlobalVar:
    """A mutable static-storage variable (namespace-scope or
    function-local static)."""

    def __init__(self, name: str, rel: str, line: int,
                 owner: str | None) -> None:
        self.name = name
        self.rel = rel
        self.line = line
        self.owner = owner  # qname of enclosing function, or None


class FileIR:
    def __init__(self, rel: str, text: str) -> None:
        self.rel = rel
        self.lines = text.splitlines()
        self.code = strip_code(self.lines)
        self.notes = parse_annotations(self.lines)
        self.functions: list[Function] = []
        self.globals: list[GlobalVar] = []
        self.includes: list[tuple[int, str]] = []  # (line, path)
        for lineno, line in enumerate(self.lines, 1):
            match = INCLUDE_RE.match(line)
            if match:
                self.includes.append((lineno, match.group("path")))


class Tree:
    """The whole-tree IR both front-ends produce."""

    def __init__(self) -> None:
        self.files: dict[str, FileIR] = {}

    def add(self, ir: FileIR) -> None:
        self.files[ir.rel] = ir

    def all_functions(self) -> list[Function]:
        return [fn for ir in self.files.values() for fn in ir.functions]

    def all_globals(self) -> list[GlobalVar]:
        return [gv for ir in self.files.values() for gv in ir.globals]


# --------------------------------------------------------------------
# Internal (lexical-structural) front-end
# --------------------------------------------------------------------

SCOPE_NAMESPACE_RE = re.compile(
    r"(?:^|[;{}\s])namespace(?:\s+([A-Za-z_]\w*))?\s*$")
SCOPE_CLASS_RE = re.compile(
    r"\b(?:class|struct|union)\s+(?:alignas\s*\([^)]*\)\s*)?"
    r"([A-Za-z_]\w*)\b(?!.*;)[^()]*$")
SCOPE_ENUM_RE = re.compile(r"\benum\b[^;()]*$")
FUNC_NAME_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*(?:~\s*[A-Za-z_]\w*|operator\s*"
    r"(?:\(\s*\)|\[\s*\]|[<>=!+\-*/%&|^~]+)|[A-Za-z_]\w*))\s*$")
CALL_RE = re.compile(
    r"((?:[A-Za-z_]\w*\s*::\s*)*[A-Za-z_]\w*)"
    r"\s*(?:<[^<>;(){}]*>)?\s*\(")
STATIC_LOCAL_RE = re.compile(
    r"^\s*(?:static|thread_local)\s+(?:thread_local\s+)?(?!const\b)"
    r"(?!constexpr\b)(?!inline\b)"
    r"(?P<type>[A-Za-z_][\w:<>,\s*&]*?)\s*"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\{|=|;)")
GLOBAL_VAR_RE = re.compile(
    r"^(?:static\s+|inline\s+|thread_local\s+)*"
    r"(?!using\b|typedef\b|extern\b|template\b|friend\b|return\b"
    r"|class\b|struct\b|enum\b|union\b|namespace\b|const\b"
    r"|constexpr\b|constinit\b|static_assert\b|public\b|private\b"
    r"|protected\b)"
    r"(?P<type>[A-Za-z_][\w:<>,\s*&]*?)\s+"
    r"(?P<name>[A-Za-z_]\w*)\s*(?:\[[^\]]*\]\s*)*"
    r"(?:\{.*\}|=[^;]*)?;\s*$")
#: A '{' that continues a declaration (brace/equals initializer)
#: rather than opening a scope.
INIT_BRACE_RE = re.compile(
    r"(?:=|[A-Za-z_]\w*\s*(?:\[[^\]]*\]\s*)*)\s*$")
SCOPE_KEYWORD_RE = re.compile(
    r"\b(?:struct|class|union|enum|namespace)\b")


def _function_header(pending: str) -> str | None:
    """If ``pending`` (code since the last statement boundary) ends in
    a function-definition header, return the function name as written
    (possibly ``Class::name``); else None."""
    text = " ".join(pending.split())
    if not text or text.endswith("=") or "=]" in text:
        return None
    # Trim a constructor initializer list / trailing specifiers: find
    # the parameter list — the last top-level "(...)" group whose
    # preceding token is a plausible function name and whose trailing
    # text is only specifiers or an initializer list.
    depth = 0
    groups = []  # (start, end) of top-level paren groups
    start = -1
    for i, ch in enumerate(text):
        if ch == "(":
            if depth == 0:
                start = i
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0 and start >= 0:
                groups.append((start, i))
    if depth != 0 or not groups:
        return None
    for start, end in groups:
        head = text[:start].rstrip()
        tail = text[end + 1:].strip()
        match = FUNC_NAME_RE.search(head)
        if not match:
            continue
        name = re.sub(r"\s+", "", match.group(1))
        last = name.split("::")[-1]
        if last in NOT_A_CALL and not last.startswith("operator"):
            continue
        # The tail must be specifiers, a trailing return, or a ctor
        # initializer list — anything else means this group was not
        # the parameter list (e.g. an initializer expression).
        if re.fullmatch(
                r"(?:\s|const|noexcept(?:\([^)]*\))?|override|final"
                r"|mutable|->\s*[\w:<>,&*\s]+|:\s*.*|\btry\b)*",
                tail):
            return name
    return None


def parse_file_internal(rel: str, text: str) -> FileIR:
    """Lexical-structural parse of one file into the IR."""
    ir = FileIR(rel, text)
    code = ir.code

    # Scope stack entries: (kind, name) with kind in
    # namespace/class/function/block/enum; functions also carry state.
    stack: list[dict] = []
    pending = ""
    current_fn: Function | None = None
    fn_depth = 0          # brace depth where current_fn's body started
    init_depth: int | None = None  # brace-initializer nesting start
    depth = 0

    def scope_prefix() -> str:
        parts = [entry["name"] for entry in stack
                 if entry["kind"] in ("namespace", "class")
                 and entry["name"]]
        return "::".join(parts)

    for lineno, line in enumerate(code, 1):
        fn_this_line = current_fn
        i, n = 0, len(line)
        while i < n:
            ch = line[i]
            if ch == "{":
                if current_fn is None and init_depth is not None:
                    pending += "{"
                elif current_fn is None:
                    header = pending
                    name = None
                    ns = SCOPE_NAMESPACE_RE.search(header)
                    if ns:
                        stack.append({"kind": "namespace",
                                      "name": ns.group(1) or "",
                                      "depth": depth})
                    elif SCOPE_ENUM_RE.search(header):
                        stack.append({"kind": "enum", "name": "",
                                      "depth": depth})
                    elif (cls := SCOPE_CLASS_RE.search(header)) \
                            and "(" not in header[cls.end(1):]:
                        stack.append({"kind": "class",
                                      "name": cls.group(1),
                                      "depth": depth})
                    elif (name := _function_header(header)) is not None:
                        prefix = scope_prefix()
                        qname = (prefix + "::" + name) if prefix \
                            else name
                        current_fn = Function(re.sub(r"\s+", "", qname),
                                              rel, lineno, lineno)
                        fn_this_line = current_fn
                        fn_depth = depth
                        stack.append({"kind": "function", "name": "",
                                      "depth": depth})
                    elif INIT_BRACE_RE.search(header.strip()) \
                            and header.strip() \
                            and not SCOPE_KEYWORD_RE.search(header):
                        init_depth = depth
                        pending += "{"
                        depth += 1
                        i += 1
                        continue
                    else:
                        stack.append({"kind": "block", "name": "",
                                      "depth": depth})
                    pending = ""
                depth += 1
            elif ch == "}":
                depth -= 1
                if init_depth is not None and current_fn is None:
                    pending += "}"
                    if depth == init_depth:
                        init_depth = None
                    i += 1
                    continue
                if stack and stack[-1]["depth"] == depth:
                    entry = stack.pop()
                    if entry["kind"] == "function" \
                            and current_fn is not None \
                            and depth == fn_depth:
                        current_fn.end_line = lineno
                        ir.functions.append(current_fn)
                        current_fn = None
                pending = ""
            elif ch == ";" and current_fn is None \
                    and init_depth is None:
                statement = pending.strip()
                # Namespace-scope mutable variable definitions (class
                # bodies and enums are not namespace scope).
                at_ns = not stack or stack[-1]["kind"] == "namespace"
                if at_ns and statement and "(" not in statement:
                    gv = GLOBAL_VAR_RE.match(statement + ";")
                    immutable = {"const", "constexpr",
                                 "constinit"}
                    if gv and not (immutable &
                                   set(gv.group("type").split())):
                        ir.globals.append(
                            GlobalVar(gv.group("name"), rel, lineno,
                                      None))
                pending = ""
            else:
                pending += ch
            i += 1
        if fn_this_line is not None:
            # Record calls and function-local statics on body lines
            # (fn_this_line also covers one-line bodies that opened
            # and closed within this line).
            for call in CALL_RE.finditer(line):
                name = re.sub(r"\s+", "", call.group(1))
                if name.split("::")[-1] in NOT_A_CALL:
                    continue
                # Member calls on some other object ('x.f(' / 'x->f(')
                # are marked so resolution does not narrow them to the
                # caller's own class.
                before = line[:call.start()].rstrip()
                if before.endswith(".") or before.endswith("->"):
                    name = "." + name
                fn_this_line.calls.append(name)
            sl = STATIC_LOCAL_RE.match(line)
            if sl and not ({"const", "constexpr", "constinit"} &
                           set(sl.group("type").split())):
                ir.globals.append(GlobalVar(sl.group("name"), rel,
                                            lineno,
                                            fn_this_line.qname))
        if current_fn is None:
            pending += " "  # line break separates tokens
    return ir


def load_tree_internal(files: dict[str, str]) -> Tree:
    tree = Tree()
    for rel in sorted(files):
        tree.add(parse_file_internal(rel, files[rel]))
    return tree


# --------------------------------------------------------------------
# Clang AST-dump front-end
# --------------------------------------------------------------------

def find_clang(explicit: str | None) -> str | None:
    if explicit:
        return explicit if shutil.which(explicit) else None
    env = os.environ.get("CLANG")
    if env:
        return env if shutil.which(env) else None
    for name in CLANG_CANDIDATES:
        if shutil.which(name):
            return name
    return None


def load_compile_db(build_dir: str) -> list[dict]:
    path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.isfile(path):
        raise SystemExit(
            f"error: {path} not found; configure with "
            "'cmake -B build -S .' first")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def ast_dump_command(entry: dict) -> list[str]:
    """The cc command rewritten to emit an AST JSON dump on stdout."""
    if "arguments" in entry:
        argv = list(entry["arguments"])
    else:
        argv = shlex.split(entry["command"])
    out: list[str] = []
    skip = False
    for arg in argv[1:]:
        if skip:
            skip = False
            continue
        if arg in ("-o", "-MF", "-MT", "-MQ"):
            skip = True
            continue
        if arg in ("-c", "-MD", "-MMD") or arg.startswith("-fmodules"):
            continue
        out.append(arg)
    return out + ["-fsyntax-only", "-w", "-Wno-everything",
                  "-Xclang", "-ast-dump=json"]


_CLANG_VERSION: dict[str, str] = {}


def clang_version(binary: str) -> str:
    """'clang --version' output, memoized per binary: it is part of
    every TU's cache key and must not re-run 150+ times per tree."""
    if binary not in _CLANG_VERSION:
        _CLANG_VERSION[binary] = subprocess.run(
            [binary, "--version"], capture_output=True, text=True,
            check=False).stdout
    return _CLANG_VERSION[binary]


_HEADER_HASH: str | None = None


def tree_header_hash() -> str:
    """sha256 over every src/ header's path and content, memoized.

    Header-defined inline functions (and their line numbers) are
    extracted from each including TU's dump, so a header edit must
    invalidate every cached dump that could textually include it —
    otherwise a restored CI cache serves stale dumps for unchanged
    .cc files and new header code becomes invisible (or stale line
    ranges misalign against the fresh header text). Hashing the whole
    header set into every key is coarser than an exact -MM dependency
    list but safe by construction and one pass per run.
    """
    global _HEADER_HASH
    if _HEADER_HASH is None:
        digest = hashlib.sha256()
        for absolute in sorted(glob.glob(
                os.path.join(REPO_ROOT, "src/**/*.hh"),
                recursive=True)):
            rel = os.path.relpath(absolute, REPO_ROOT) \
                .replace(os.sep, "/")
            digest.update(rel.encode() + b"\0")
            with open(absolute, "rb") as handle:
                digest.update(handle.read())
            digest.update(b"\0")
        _HEADER_HASH = digest.hexdigest()
    return _HEADER_HASH


def cached_ast_dump(binary: str, entry: dict, cache_dir: str) -> dict:
    """Run (or reuse) one TU's AST dump; returns the parsed JSON."""
    args = ast_dump_command(entry)
    source = os.path.normpath(os.path.join(
        entry.get("directory", "."), entry["file"]))
    with open(source, "rb") as handle:
        content = handle.read()
    key = hashlib.sha256()
    key.update(clang_version(binary).encode())
    key.update("\0".join(args).encode())
    key.update(tree_header_hash().encode())
    key.update(content)
    os.makedirs(cache_dir, exist_ok=True)
    cache_path = os.path.join(cache_dir, key.hexdigest() + ".json.gz")
    if os.path.isfile(cache_path):
        with gzip.open(cache_path, "rt", encoding="utf-8") as handle:
            return json.load(handle)
    proc = subprocess.run([binary, *args],
                          cwd=entry.get("directory", "."),
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0 or not proc.stdout.lstrip().startswith("{"):
        raise SystemExit(f"error: AST dump failed for {source}:\n"
                         f"{proc.stderr.strip()[:2000]}")
    with gzip.open(cache_path, "wt", encoding="utf-8") as handle:
        handle.write(proc.stdout)
    return json.loads(proc.stdout)


class _AstWalker:
    """Extracts function definitions and call edges from one TU dump.

    clang's JSON location objects omit ``file`` (and ``line``) when
    unchanged from the previous location in pre-order, so the walker
    tracks both statefully.
    """

    FN_KINDS = ("FunctionDecl", "CXXMethodDecl", "CXXConstructorDecl",
                "CXXDestructorDecl", "CXXConversionDecl")

    def __init__(self, repo_root: str) -> None:
        self.repo_root = repo_root
        self.cur_file = ""
        self.cur_line = 0
        self.decl_names: dict[int, str] = {}   # id -> qualified name
        self.functions: list[tuple[Function, list[dict]]] = []
        self.globals: list[GlobalVar] = []

    def _loc(self, node: dict) -> tuple[str, int]:
        loc = node.get("loc") or {}
        for candidate in (loc.get("spellingLoc"), loc):
            if not candidate:
                continue
            if "file" in candidate:
                self.cur_file = candidate["file"]
            if "line" in candidate:
                self.cur_line = candidate["line"]
        return self.cur_file, self.cur_line

    def _rel(self, path: str) -> str | None:
        absolute = os.path.normpath(
            path if os.path.isabs(path)
            else os.path.join(self.repo_root, path))
        rel = os.path.relpath(absolute, self.repo_root)
        if rel.startswith(".."):
            return None
        return rel.replace(os.sep, "/")

    def walk(self, node: dict, scope: list[str]) -> None:
        if not isinstance(node, dict):
            return
        kind = node.get("kind", "")
        file, line = self._loc(node)
        node_id = node.get("id")
        name = node.get("name", "")
        if node_id is not None and name and kind in (
                "NamespaceDecl", "CXXRecordDecl", "ClassTemplateDecl",
                *self.FN_KINDS):
            prefix = "::".join(s for s in scope if s)
            self.decl_names[int(node_id, 16)] = \
                (prefix + "::" + name) if prefix else name

        inner = node.get("inner", [])
        if kind in self.FN_KINDS and any(
                child.get("kind") == "CompoundStmt"
                for child in inner if isinstance(child, dict)):
            rel = self._rel(file) if file else None
            if rel is not None and rel.startswith("src/"):
                parent = node.get("parentDeclContextId")
                if parent is not None:
                    prefix = self.decl_names.get(int(parent, 16), "")
                else:
                    prefix = "::".join(s for s in scope if s)
                qname = (prefix + "::" + name) if prefix else name
                end = node.get("range", {}).get("end", {})
                fn = Function(qname, rel, line,
                              end.get("line", line))
                self.functions.append((fn, inner))
                for child in inner:
                    self._collect_calls(child, fn)
                # Do not descend normally — calls were collected.
                for child in inner:
                    if isinstance(child, dict) \
                            and child.get("kind") != "CompoundStmt":
                        self.walk(child, scope)
                return
        if kind == "VarDecl" and name:
            rel = self._rel(file) if file else None
            qual = (node.get("type", {}).get("qualType", ""))
            if rel is not None and rel.startswith("src/") \
                    and "const" not in qual.split() \
                    and not scope_is_local(scope):
                # Namespace-scope variable (class statics resolve via
                # their out-of-line definition which lands here too).
                self.globals.append(GlobalVar(name, rel, line, None))

        next_scope = scope
        if kind in ("NamespaceDecl", "CXXRecordDecl") and name:
            next_scope = scope + [name]
        for child in inner:
            self.walk(child, next_scope)

    def _collect_calls(self, node: dict, fn: Function) -> None:
        if not isinstance(node, dict):
            return
        self._loc(node)
        ref = node.get("referencedDecl")
        if isinstance(ref, dict) and ref.get("kind") in (
                *self.FN_KINDS,):
            ref_id = ref.get("id")
            qname = None
            if ref_id is not None:
                qname = self.decl_names.get(int(ref_id, 16))
            fn.calls.append(qname or ref.get("name", ""))
            # Over-approximate virtual dispatch like the internal
            # front-end: also record the bare name.
            if qname and "::" in qname:
                fn.calls.append(qname.split("::")[-1])
        # Member calls (obj.f(), this->f(), implicit this) carry no
        # referencedDecl: clang encodes them as CXXMemberCallExpr ->
        # MemberExpr whose 'referencedMemberDecl' is the bare hex id
        # of the method's in-class declaration. The class definition
        # precedes every use in the TU, so the id resolves through
        # decl_names; an unresolved id (dependent template member,
        # field access) falls back to the spelled name, which the
        # over-approximate call graph treats like any unqualified
        # call. Without this branch the closures from method-heavy
        # roots (CoreModel::flush et al.) are near-empty and every
        # reachability rule passes vacuously.
        mref = node.get("referencedMemberDecl")
        if node.get("kind") == "MemberExpr" and mref:
            qname = self.decl_names.get(int(mref, 16))
            name = qname or node.get("name", "")
            if name:
                fn.calls.append(name)
                if "::" in name:
                    fn.calls.append(name.split("::")[-1])
        if node.get("kind") == "VarDecl" \
                and node.get("storageClass") == "static" \
                and "const" not in node.get("type", {}).get(
                    "qualType", "").split():
            file, line = self.cur_file, self.cur_line
            rel = self._rel(file) if file else None
            if rel is not None and rel.startswith("src/"):
                self.globals.append(GlobalVar(node.get("name", "?"),
                                              rel, line, fn.qname))
        for child in node.get("inner", []):
            self._collect_calls(child, fn)


def scope_is_local(scope: list[str]) -> bool:
    return False  # namespace/class scopes only reach VarDecl here


def load_tree_clang(binary: str, build_dir: str,
                    cache_dir: str) -> Tree:
    """Whole-tree IR from clang AST dumps (src/ TUs + textual headers).

    Header-defined inline functions come out of each including TU's
    dump; duplicates collapse by (qname, file, line).
    """
    tree = Tree()
    texts = collect_sources()
    for rel, text in texts.items():
        tree.add(FileIR(rel, text))  # includes + annotations
    seen: set[tuple[str, str, int]] = set()
    db = load_compile_db(build_dir)
    for entry in db:
        source = os.path.normpath(os.path.join(
            entry.get("directory", "."), entry["file"]))
        rel = os.path.relpath(source, REPO_ROOT).replace(os.sep, "/")
        if rel.startswith("..") or not rel.startswith("src/"):
            continue
        dump = cached_ast_dump(binary, entry, cache_dir)
        walker = _AstWalker(REPO_ROOT)
        walker.walk(dump, [])
        del dump
        for fn, _inner in walker.functions:
            key = (fn.qname, fn.rel, fn.line)
            if key in seen or fn.rel not in tree.files:
                continue
            seen.add(key)
            tree.files[fn.rel].functions.append(fn)
        for gv in walker.globals:
            key = ("var:" + gv.name, gv.rel, gv.line)
            if key in seen or gv.rel not in tree.files:
                continue
            seen.add(key)
            tree.files[gv.rel].globals.append(gv)
    return tree


# --------------------------------------------------------------------
# Call graph
# --------------------------------------------------------------------

class CallGraph:
    def __init__(self, tree: Tree) -> None:
        self.tree = tree
        self.by_name: dict[str, list[Function]] = {}
        self.by_class: dict[tuple[str, str], list[Function]] = {}
        self.by_file: dict[tuple[str, str], list[Function]] = {}
        for fn in tree.all_functions():
            self.by_name.setdefault(fn.name, []).append(fn)
            if fn.cls:
                self.by_class.setdefault((fn.cls, fn.name),
                                         []).append(fn)
            self.by_file.setdefault((fn.rel, fn.name), []).append(fn)

    def resolve(self, caller: Function, callee: str) -> list[Function]:
        """Over-approximate resolution of one call written ``callee``.

        Qualified calls match by component suffix. Unqualified calls
        prefer the caller's class, then the caller's file, then every
        function of that name tree-wide (virtual dispatch and
        cross-file helpers stay covered). Member calls on another
        object (recorded with a leading '.') skip the same-class and
        same-file narrowing: the receiver's type is unknown, so every
        method of that name stays a candidate.
        """
        member_call = callee.startswith(".")
        if member_call:
            callee = callee[1:]
        parts = callee.split("::")
        name = parts[-1]
        candidates = self.by_name.get(name, [])
        if not candidates:
            return []
        if len(parts) > 1:
            suffix = parts[-2:]
            return [fn for fn in candidates
                    if fn.qname.split("::")[-2:] == suffix
                    or fn.qname.split("::")[-len(parts):] == parts]
        if member_call:
            return candidates
        if caller.cls:
            same_class = self.by_class.get((caller.cls, name))
            if same_class:
                return same_class
        same_file = self.by_file.get((caller.rel, name))
        if same_file:
            return same_file
        return candidates

    def reachable(self, roots: list[Function]
                  ) -> dict[Function, tuple[Function, ...]]:
        """BFS closure; value is the witness path from a root."""
        paths: dict[Function, tuple[Function, ...]] = {}
        queue: list[Function] = []
        for root in roots:
            if root not in paths:
                paths[root] = (root,)
                queue.append(root)
        while queue:
            fn = queue.pop(0)
            for callee in fn.calls:
                for target in self.resolve(fn, callee):
                    if target not in paths:
                        paths[target] = paths[fn] + (target,)
                        queue.append(target)
        return paths


def witness(path: tuple[Function, ...]) -> str:
    return " -> ".join(fn.qname for fn in path)


# --------------------------------------------------------------------
# Rules
# --------------------------------------------------------------------

Finding = tuple[str, int, str, str]  # (file, line, rule, message)


def collect_roots(tree: Tree, rule: str) -> list[Function]:
    roots = []
    for ir in tree.files.values():
        for lineno, rules in ir.notes.roots.items():
            if rule not in rules:
                continue
            below = [fn for fn in ir.functions if fn.line >= lineno]
            if below:
                roots.append(min(below, key=lambda fn: fn.line))
    return roots


def hot_roots(tree: Tree) -> list[Function]:
    roots = []
    for ir in tree.files.values():
        for lineno in ir.notes.hot_lines:
            below = [fn for fn in ir.functions if fn.line >= lineno]
            if below:
                roots.append(min(below, key=lambda fn: fn.line))
    return roots


def rule_shard_isolation(tree: Tree, graph: CallGraph) -> list[Finding]:
    """No drain-task call path reaches unannotated mutable
    static-storage state."""
    findings: list[Finding] = []
    roots = collect_roots(tree, "shard-isolation")
    closure = graph.reachable(roots)
    reachable_names = {fn.qname for fn in closure}

    mutable_globals: list[GlobalVar] = []
    for gv in tree.all_globals():
        notes = tree.files[gv.rel].notes
        if notes.owned_at(gv.line):
            continue  # annotated ownership class
        if notes.allowed("shard-isolation", gv.line):
            continue
        mutable_globals.append(gv)

    by_name: dict[str, list[GlobalVar]] = {}
    for gv in mutable_globals:
        by_name.setdefault(gv.name, []).append(gv)

    for fn, path in closure.items():
        notes = tree.files[fn.rel].notes
        # Function-local statics declared by a reachable function.
        for gv in mutable_globals:
            if gv.owner == fn.qname:
                findings.append((
                    gv.rel, gv.line, "shard-isolation",
                    f"mutable static '{gv.name}' in {fn.qname} is "
                    f"reachable from a shard drain task "
                    f"({witness(path)}); annotate '// dewrite-owned: "
                    f"shard|global-const|sync(<lock>)' or remove the "
                    f"shared state"))
        # References to namespace-scope mutable globals.
        body = tree.files[fn.rel].code[fn.line - 1:fn.end_line]
        for lineno_off, code_line in enumerate(body):
            lineno = fn.line + lineno_off
            for token in re.finditer(r"[A-Za-z_]\w*", code_line):
                for gv in by_name.get(token.group(0), ()):
                    if gv.owner is not None:
                        # Function-local statics are reported at the
                        # declaring function above, not per mention.
                        continue
                    if gv.line == lineno and gv.rel == fn.rel:
                        continue  # the declaration itself
                    if notes.allowed("shard-isolation", lineno):
                        continue
                    findings.append((
                        fn.rel, lineno, "shard-isolation",
                        f"{fn.qname} touches mutable global "
                        f"'{gv.name}' ({gv.rel}:{gv.line}) on a shard "
                        f"drain path ({witness(path)})"))
    # Globals defined in headers whose inline accessors are reachable
    # are caught through the accessor's own static-local (owner set).
    del reachable_names
    return dedupe(findings)


def rule_hot_purity(tree: Tree, graph: CallGraph) -> list[Finding]:
    """Hot functions and everything they reach never allocate."""
    findings: list[Finding] = []
    closure = graph.reachable(hot_roots(tree))
    for fn, path in closure.items():
        ir = tree.files[fn.rel]
        for lineno in range(fn.line, fn.end_line + 1):
            code_line = ir.code[lineno - 1]
            if not ALLOC_RE.search(code_line):
                continue
            if ir.notes.allowed("hot-path-purity", lineno):
                continue
            findings.append((
                fn.rel, lineno, "hot-path-purity",
                f"allocation-shaped construct in {fn.qname}, "
                f"reachable from hot kernel ({witness(path)})"))
    return dedupe(findings)


def rule_layering(tree: Tree) -> list[Finding]:
    """The include graph respects the module DAG."""
    findings: list[Finding] = []
    for rel, ir in sorted(tree.files.items()):
        parts = rel.split("/")
        if parts[0] != "src" or len(parts) < 3:
            continue
        from_mod = parts[1]
        from_layer = LAYERS.get(from_mod)
        if from_layer is None:
            findings.append((rel, 1, "layering",
                             f"module '{from_mod}' is not in the "
                             "layering table (tools/dewrite_analyze.py "
                             "LAYERS); add it with a layer"))
            continue
        for lineno, path in ir.includes:
            to_mod = path.split("/", 1)[0]
            to_layer = LAYERS.get(to_mod)
            if to_layer is None:
                continue  # non-module include (e.g. generated)
            if to_mod == from_mod or to_layer < from_layer:
                continue
            if ir.notes.allowed("layering", lineno):
                continue
            findings.append((
                rel, lineno, "layering",
                f"include of '{path}' breaks the module DAG: "
                f"{from_mod} (layer {from_layer}) may not depend on "
                f"{to_mod} (layer {to_layer}); invert the dependency "
                f"or annotate '// dewrite-analyze: allow(layering) "
                f"<reason>'"))
    return dedupe(findings)


def rule_determinism(tree: Tree, graph: CallGraph) -> list[Finding]:
    """Result-producing code never reaches wall-clock, rand, or
    unannotated address-ordered iteration."""
    findings: list[Finding] = []
    closure = graph.reachable(collect_roots(tree, "determinism"))
    for fn, path in closure.items():
        ir = tree.files[fn.rel]
        for lineno in range(fn.line, fn.end_line + 1):
            code_line = ir.code[lineno - 1]
            raw_line = ir.lines[lineno - 1]
            prev_raw = ir.lines[lineno - 2] if lineno >= 2 else ""
            kind = None
            if WALLCLOCK_RE.search(code_line):
                kind = "wall-clock read"
            elif RAND_RE.search(code_line):
                kind = "rand()-family call"
            elif FOREACH_RE.search(code_line):
                if LINT_ALLOW_UNSORTED_RE.search(raw_line) or \
                        LINT_ALLOW_UNSORTED_RE.search(prev_raw):
                    continue  # PR 4's catalogued sites
                kind = "address-ordered .forEach( iteration"
            if kind is None:
                continue
            if ir.notes.allowed("determinism", lineno):
                continue
            findings.append((
                fn.rel, lineno, "determinism",
                f"{kind} in {fn.qname} is reachable from "
                f"result-producing code ({witness(path)}); results "
                f"must be a pure function of the seed"))
    return dedupe(findings)


def dedupe(findings: list[Finding]) -> list[Finding]:
    seen = set()
    out = []
    for row in sorted(findings, key=lambda r: (r[0], r[1], r[2])):
        key = row[:3]
        if key in seen:
            continue
        seen.add(key)
        out.append(row)
    return out


def analyze(tree: Tree, rules: tuple[str, ...] = RULE_NAMES,
            require_roots: bool = False) -> list[Finding]:
    findings: list[Finding] = []
    for ir in tree.files.values():
        for lineno, name in ir.notes.bad:
            findings.append((ir.rel, lineno, "unknown-rule",
                             f"annotation names unknown or non-root "
                             f"rule '{name}'"))
    graph = CallGraph(tree)
    if require_roots:
        for rule in ROOT_RULES:
            if rule in rules and not collect_roots(tree, rule):
                findings.append((
                    "src", 0, rule,
                    f"no '// dewrite-analyze: root({rule})' "
                    "annotations found in the tree; the rule would "
                    "vacuously pass (annotations deleted?)"))
    if "shard-isolation" in rules:
        findings.extend(rule_shard_isolation(tree, graph))
    if "hot-path-purity" in rules:
        findings.extend(rule_hot_purity(tree, graph))
    if "layering" in rules:
        findings.extend(rule_layering(tree))
    if "determinism" in rules:
        findings.extend(rule_determinism(tree, graph))
    return dedupe(findings)


# --------------------------------------------------------------------
# Baseline ratchet (same shape as the clang-tidy wall)
# --------------------------------------------------------------------

def count_findings(rows: list[Finding]) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for rel, _line, rule, _message in rows:
        counts.setdefault(rel, {})[rule] = \
            counts.get(rel, {}).get(rule, 0) + 1
    return counts


def load_baseline(path: str) -> dict[str, dict[str, int]]:
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as handle:
        return json.load(handle).get("findings", {})


def write_baseline(path: str,
                   counts: dict[str, dict[str, int]]) -> None:
    payload = {
        "comment": "dewrite-analyze ratchet baseline; regenerate with "
                   "tools/dewrite_analyze.py --update-baseline. An "
                   "empty 'findings' object means the tree proves "
                   "clean; entries may only shrink.",
        "findings": {rel: dict(sorted(rules.items()))
                     for rel, rules in sorted(counts.items())},
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


def diff_against_baseline(
        counts: dict[str, dict[str, int]],
        baseline: dict[str, dict[str, int]]
) -> list[tuple[str, str, int, int]]:
    regressions = []
    for rel in sorted(counts):
        for rule in sorted(counts[rel]):
            found = counts[rel][rule]
            allowed = baseline.get(rel, {}).get(rule, 0)
            if found > allowed:
                regressions.append((rel, rule, found, allowed))
    return regressions


# --------------------------------------------------------------------
# Tree collection
# --------------------------------------------------------------------

def collect_sources(only: list[str] | None = None) -> dict[str, str]:
    """rel -> text for every src/ .cc/.hh file."""
    files: dict[str, str] = {}
    for pattern in ("src/**/*.cc", "src/**/*.hh"):
        for absolute in glob.glob(os.path.join(REPO_ROOT, pattern),
                                  recursive=True):
            rel = os.path.relpath(absolute, REPO_ROOT) \
                .replace(os.sep, "/")
            if only and not any(
                    rel == o or rel.startswith(o.rstrip("/") + "/")
                    for o in only):
                continue
            with open(absolute, encoding="utf-8") as handle:
                files[rel] = handle.read()
    return files


# --------------------------------------------------------------------
# Seeded-break check over the real tree
# --------------------------------------------------------------------

SEEDED_BREAKS = [
    ("shard-isolation", "src/cpu/core_model.cc",
     "    core.now += timing_.cycles(event.instGap + 1);",
     "    static std::uint64_t seededCrossShard = 0;\n"
     "    core.now += ++seededCrossShard * 0;\n"
     "    core.now += timing_.cycles(event.instGap + 1);"),
    ("hot-path-purity", "src/common/line.hh",
     "            if (a != b)",
     "            seededScratch.push_back(a);\n"
     "            if (a != b)"),
    ("layering", "src/common/line.hh",
     "#include <array>",
     "#include <array>\n#include \"service/dedup_service.hh\""),
    ("determinism", "src/cpu/core_model.cc",
     "    core.now += timing_.cycles(event.instGap + 1);",
     "    core.now += static_cast<Time>(time(nullptr)) * 0;\n"
     "    core.now += timing_.cycles(event.instGap + 1);"),
]


#: Sentinel callees for the clang front-end teeth check. Each is a
#: function that enters its closure *only* through member-call edges
#: (``former_.flush``, ``fingerprinter_.fingerprint``): if MemberExpr
#: resolution regresses, these vanish from the closure and the check
#: fails even though the (near-empty) closure itself reports clean.
CLANG_SENTINELS = (
    ("shard-isolation", "BatchFormer::flush"),
    ("determinism", "BatchFormer::flush"),
    ("hot-path-purity", "Fingerprinter::fingerprint"),
)


def check_clang_closures(binary: str, build_dir: str,
                         cache_dir: str) -> int:
    """Prove the clang front-end's call graph is non-vacuous.

    The seeded-break pass feeds patched sources through the internal
    parser; the clang pipeline reads real files and a compile
    database, so it cannot be seeded in-memory. Instead, assert that
    each rule's closure over the *live* tree reaches a known sentinel
    callee via at least one call edge — the property the
    referencedMemberDecl handling exists to provide. A silent
    regression there would shrink every closure to its roots and pass
    the main gate while proving nothing; it fails here instead.
    """
    try:
        tree = load_tree_clang(binary, build_dir, cache_dir)
    except SystemExit as err:
        print(err, file=sys.stderr)
        return 2
    graph = CallGraph(tree)
    failures = 0
    for rule, sentinel in CLANG_SENTINELS:
        roots = hot_roots(tree) if rule == "hot-path-purity" \
            else collect_roots(tree, rule)
        if not roots:
            print(f"error: clang front-end found no roots for {rule}",
                  file=sys.stderr)
            failures += 1
            continue
        closure = graph.reachable(roots)
        hit = next((fn for fn in closure
                    if fn.qname.endswith(sentinel)
                    and len(closure[fn]) >= 2), None)
        if hit is None:
            print(f"error: clang {rule} closure ({len(closure)} "
                  f"function(s) from {len(roots)} root(s)) never "
                  f"reaches sentinel '{sentinel}' through a call "
                  f"edge; member-call resolution has regressed",
                  file=sys.stderr)
            failures += 1
        else:
            print(f"clang closure check: [{rule}] {len(closure)} "
                  f"functions; sentinel via "
                  f"{witness(closure[hit])}")
    if failures:
        return 1
    print("dewrite_analyze clang closure check: OK "
          f"({len(CLANG_SENTINELS)} sentinels reached)")
    return 0


def check_seeded_break(frontend: str = "internal",
                       binary: str | None = None,
                       build_dir: str | None = None,
                       cache_dir: str = DEFAULT_CACHE) -> int:
    """Prove each rule still has teeth on the *real* tree: a clean
    baseline run, then one deliberate violation per rule, each of
    which must fail naming exactly that rule. With the clang
    front-end selected, additionally prove the clang call graph is
    non-vacuous (see check_clang_closures)."""
    sources = collect_sources()
    clean = analyze(load_tree_internal(sources), require_roots=True)
    if clean:
        for row in clean:
            print(f"{row[0]}:{row[1]}: [{row[2]}] {row[3]}",
                  file=sys.stderr)
        print("error: tree is not clean before seeding; fix the "
              "findings above first", file=sys.stderr)
        return 1
    for rule, rel, anchor, replacement in SEEDED_BREAKS:
        if rel not in sources or anchor not in sources[rel]:
            print(f"error: seeded-break anchor for {rule} not found "
                  f"in {rel}; update SEEDED_BREAKS in "
                  "tools/dewrite_analyze.py", file=sys.stderr)
            return 1
        patched = dict(sources)
        patched[rel] = sources[rel].replace(anchor, replacement, 1)
        rows = analyze(load_tree_internal(patched))
        fired = {row[2] for row in rows}
        if rule not in fired:
            print(f"error: deliberately breaking {rule} in {rel} was "
                  f"NOT caught (fired: {sorted(fired) or 'nothing'})",
                  file=sys.stderr)
            return 1
        print(f"seeded break caught: [{rule}] via {rel}")
    print("dewrite_analyze seeded-break check: OK "
          f"({len(SEEDED_BREAKS)} rules verified against the live "
          "tree)")
    if frontend == "clang" and binary is not None:
        return check_clang_closures(
            binary, build_dir or os.path.join(REPO_ROOT, "build"),
            cache_dir)
    return 0


# --------------------------------------------------------------------
# Self-test (synthetic mini-tree; no clang, no repo access)
# --------------------------------------------------------------------

MINI_COMMON = """\
namespace dewrite {
std::mutex reportMutex; // dewrite-owned: sync(reportMutex)
int sharedCounter;
// dewrite-lint: hot
inline int hotKernel(int x) { return helper(x) + 1; }
inline int helper(int x) {
    scratch.push_back(x);
    return x;
}
inline void coldHelper(std::vector<int> &v) { v.push_back(1); }
} // namespace dewrite
"""

MINI_SERVICE = """\
#include "common/util.hh"
#include "sim/system.hh"
namespace dewrite {
class ShardCore {
  public:
    // dewrite-analyze: root(shard-isolation)
    // dewrite-analyze: root(determinism)
    void drain() {
        touchGlobal();
        auto t = time(nullptr);
        table.forEach([](int k) {});
    }
    void touchGlobal() {
        static int drained = 0;
        ++drained;
        sharedCounter += 1;
    }
};
} // namespace dewrite
"""

MINI_SIM = """\
#include "service/shard_core.hh"
namespace dewrite {
struct System {
    int run() { return 0; }
};
} // namespace dewrite
"""


def self_test() -> int:
    # --- internal parser: qualified names, methods, spans, calls ---
    ir = parse_file_internal("src/service/x.cc", "\n".join([
        "namespace dewrite {",
        "void",
        "ShardCore::flush(BatchFormer::FlushReason reason)",
        "{",
        "    former_.flush(controller_, responses_.data(), reason);",
        "}",
        "ShardCore::ShardCore(const TimingConfig &timing)",
        "    : timing_(timing), controller_(controller)",
        "{",
        "    former_.reset(batch_capacity);",
        "}",
        "struct Inner {",
        "    int size() const { return n_; }",
        "};",
        "} // namespace dewrite",
    ]))
    names = sorted(fn.qname for fn in ir.functions)
    assert names == ["dewrite::Inner::size", "dewrite::ShardCore::" +
                     "ShardCore", "dewrite::ShardCore::flush"], names
    flush = next(fn for fn in ir.functions if fn.name == "flush")
    assert flush.line == 4 and flush.end_line == 6, \
        (flush.line, flush.end_line)
    assert ".flush" in flush.calls and ".data" in flush.calls

    # Control-flow parens and initializer braces are not functions.
    ir = parse_file_internal("src/common/y.cc", "\n".join([
        "int values[] = { 1, 2, 3 };",
        "void fn() {",
        "    if (values[0]) {",
        "        for (int i = 0; i < 3; ++i) {}",
        "    }",
        "}",
    ]))
    assert [fn.qname for fn in ir.functions] == ["fn"], ir.functions
    # `values` is a namespace-scope mutable global.
    assert [(gv.name, gv.owner) for gv in ir.globals] == \
        [("values", None)], [(g.name, g.owner) for g in ir.globals]

    # Static locals are attributed to their function; const ones are
    # not mutable state.
    ir = parse_file_internal("src/common/z.hh", "\n".join([
        "inline int counter() {",
        "    static int hits = 0;",
        "    static const int limit = 9;",
        "    return ++hits < limit;",
        "}",
    ]))
    assert [(gv.name, gv.owner) for gv in ir.globals] == \
        [("hits", "counter")], [(g.name, g.owner) for g in ir.globals]

    # --- the four rules on the synthetic mini-tree ---
    tree = load_tree_internal({
        "src/common/util.hh": MINI_COMMON,
        "src/service/shard_core.hh": MINI_SERVICE,
        "src/sim/system.hh": MINI_SIM,
    })
    rows = analyze(tree, require_roots=True)
    by_rule: dict[str, list[Finding]] = {}
    for row in rows:
        by_rule.setdefault(row[2], []).append(row)

    # shard-isolation: the unannotated static local and the mutable
    # namespace-scope global fire; the sync()-annotated mutex does not.
    iso = by_rule.get("shard-isolation", [])
    assert any("drained" in row[3] for row in iso), rows
    assert any("sharedCounter" in row[3] for row in iso), rows
    assert not any("reportMutex" in row[3] for row in iso), rows

    # hot-path-purity: the allocation in the *callee* of the hot
    # kernel fires (transitive closure); the never-called coldHelper
    # does not.
    pure = by_rule.get("hot-path-purity", [])
    assert any("helper" in row[3] and "hotKernel" in row[3]
               for row in pure), rows
    assert not any("coldHelper" in row[3] for row in pure), rows

    # layering: sim (layer 7) including service (layer 8) is a
    # back-edge; service including sim is a legal downward edge.
    lay = by_rule.get("layering", [])
    assert any(row[0] == "src/sim/system.hh" and
               "service" in row[3] for row in lay), rows
    assert not any(row[0] == "src/service/shard_core.hh"
                   for row in lay), rows

    # determinism: the wall-clock read and the unannotated forEach in
    # the drain root both fire.
    det = by_rule.get("determinism", [])
    assert any("wall-clock" in row[3] for row in det), rows
    assert any("forEach" in row[3] for row in det), rows

    # --- suppressions and the catalogue of PR 4 sites ---
    fixed = MINI_SERVICE \
        .replace("        auto t = time(nullptr);",
                 "        // dewrite-analyze: allow(determinism) host\n"
                 "        auto t = time(nullptr);") \
        .replace("        table.forEach([](int k) {});",
                 "        // dewrite-lint: allow(unsorted-iteration)\n"
                 "        table.forEach([](int k) {});") \
        .replace("        static int drained = 0;",
                 "        // dewrite-owned: shard\n"
                 "        static int drained = 0;") \
        .replace("        sharedCounter += 1;",
                 "        // dewrite-analyze: allow(shard-isolation)\n"
                 "        sharedCounter += 1;")
    fixed_sim = MINI_SIM.replace(
        "#include \"service/shard_core.hh\"",
        "// dewrite-analyze: allow(layering) seeded test\n"
        "#include \"service/shard_core.hh\"")
    clean_common = MINI_COMMON.replace(
        "    scratch.push_back(x);",
        "    // dewrite-analyze: allow(hot-path-purity) fixed-cap\n"
        "    scratch.push_back(x);")
    rows = analyze(load_tree_internal({
        "src/common/util.hh": clean_common,
        "src/service/shard_core.hh": fixed,
        "src/sim/system.hh": fixed_sim,
    }), require_roots=True)
    assert rows == [], rows

    # Deleting every root annotation must NOT pass silently.
    rows = analyze(load_tree_internal({
        "src/common/util.hh": clean_common,
        "src/service/shard_core.hh":
            fixed.replace("// dewrite-analyze: root(shard-isolation)",
                          "")
                 .replace("// dewrite-analyze: root(determinism)", ""),
        "src/sim/system.hh": fixed_sim,
    }), require_roots=True)
    assert {row[2] for row in rows} == {"shard-isolation",
                                        "determinism"}, rows
    assert all("vacuously" in row[3] for row in rows), rows

    # Unknown rule names in annotations are themselves findings.
    rows = analyze(load_tree_internal({
        "src/common/a.hh": "// dewrite-analyze: allow(no-such-rule)\n",
    }))
    assert [(row[2], "no-such-rule" in row[3]) for row in rows] == \
        [("unknown-rule", True)], rows

    # --- baseline ratchet ---
    counts = count_findings([
        ("src/a.cc", 3, "layering", "m"),
        ("src/a.cc", 9, "layering", "m"),
        ("src/b.cc", 1, "determinism", "m"),
    ])
    assert counts == {"src/a.cc": {"layering": 2},
                      "src/b.cc": {"determinism": 1}}
    regress = diff_against_baseline(counts,
                                    {"src/a.cc": {"layering": 2}})
    assert regress == [("src/b.cc", "determinism", 1, 0)], regress
    assert diff_against_baseline(
        counts, {"src/a.cc": {"layering": 2},
                 "src/b.cc": {"determinism": 1}}) == []

    # --- clang front-end plumbing on canned data ---
    cmd = ast_dump_command({
        "directory": "/b",
        "command": "g++ -O2 -Iinclude -c src/x.cc -o x.o",
        "file": "src/x.cc"})
    assert "-c" not in cmd and "-o" not in cmd and "x.o" not in cmd
    assert cmd[-1] == "-ast-dump=json" and "-fsyntax-only" in cmd

    walker = _AstWalker("/repo")
    walker.walk({
        "id": "0x1", "kind": "TranslationUnitDecl", "inner": [
            {"id": "0x10", "kind": "NamespaceDecl", "name": "dewrite",
             "loc": {"file": "/repo/src/service/shard_core.cc",
                     "line": 1},
             "inner": [
                 {"id": "0x20", "kind": "CXXRecordDecl",
                  "name": "ShardCore",
                  "inner": [
                      {"id": "0x30", "kind": "CXXMethodDecl",
                       "name": "flush", "loc": {"line": 5}},
                      {"id": "0x50", "kind": "CXXMethodDecl",
                       "name": "stage", "loc": {"line": 6}}]},
                 {"id": "0x40", "kind": "CXXMethodDecl",
                  "name": "flush",
                  "parentDeclContextId": "0x20",
                  "loc": {"line": 12},
                  "range": {"begin": {}, "end": {"line": 20}},
                  "inner": [
                      {"kind": "CompoundStmt", "inner": [
                          {"kind": "DeclRefExpr",
                           "referencedDecl": {
                               "id": "0x99", "kind": "FunctionDecl",
                               "name": "helper"}},
                          # Member call: CXXMemberCallExpr ->
                          # MemberExpr with a bare hex id, the shape
                          # referencedDecl handling never sees.
                          {"kind": "CXXMemberCallExpr", "inner": [
                              {"kind": "MemberExpr", "name": "stage",
                               "referencedMemberDecl": "0x50"}]},
                          # Unresolvable member id (dependent member)
                          # falls back to the spelled name.
                          {"kind": "MemberExpr", "name": "commit",
                           "referencedMemberDecl": "0xdead"},
                          {"kind": "VarDecl", "name": "leak",
                           "storageClass": "static",
                           "type": {"qualType": "int"}},
                      ]}]},
             ]}]}, [])
    fns = [fn for fn, _ in walker.functions]
    assert len(fns) == 1 and fns[0].qname == "dewrite::ShardCore::flush"
    assert fns[0].line == 12 and fns[0].end_line == 20
    assert "helper" in fns[0].calls
    # Member calls resolve through decl_names to the qualified method
    # (plus the bare name for virtual dispatch); unresolved ids keep
    # the spelled name so the closure stays over-approximate.
    assert "dewrite::ShardCore::stage" in fns[0].calls, fns[0].calls
    assert "stage" in fns[0].calls, fns[0].calls
    assert "commit" in fns[0].calls, fns[0].calls
    assert [(gv.name, gv.owner) for gv in walker.globals] == \
        [("leak", "dewrite::ShardCore::flush")], walker.globals

    # Stateful location tracking: 'file' omitted means unchanged.
    walker = _AstWalker("/repo")
    walker._loc({"loc": {"file": "/repo/src/a.cc", "line": 3}})
    assert walker._loc({"loc": {"col": 2}}) == ("/repo/src/a.cc", 3)
    assert walker._loc({"loc": {"line": 9}}) == ("/repo/src/a.cc", 9)

    print("dewrite_analyze self-test: OK")
    return 0


# --------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1])
    parser.add_argument("paths", nargs="*",
                        help="restrict analysis scope to these "
                             "repo-relative files or directories "
                             "(call graph is still whole-tree)")
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO_ROOT, "build"),
                        help="build tree holding compile_commands.json "
                             "(clang front-end; default: %(default)s)")
    parser.add_argument("--frontend",
                        choices=("auto", "clang", "internal"),
                        default="auto",
                        help="AST source (default: auto = clang if "
                             "installed, else the built-in parser)")
    parser.add_argument("--clang", default=None,
                        help="clang binary (default: $CLANG or the "
                             "newest clang++[-N] on PATH)")
    parser.add_argument("--cache-dir", default=DEFAULT_CACHE,
                        help="AST dump cache (default: %(default)s)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="ratchet baseline (default: %(default)s)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline from this run")
    parser.add_argument("--require", action="store_true",
                        help="fail (exit 3) if the clang front-end "
                             "was requested but no binary exists")
    parser.add_argument("--report", default=None,
                        help="write a JSON analysis report here")
    parser.add_argument("--rule", action="append", dest="rules",
                        choices=RULE_NAMES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--self-test", action="store_true",
                        help="run the synthetic-tree self-test")
    parser.add_argument("--check-seeded-break", action="store_true",
                        help="verify each rule catches a deliberate "
                             "violation seeded into the real tree")
    args = parser.parse_args(argv)

    if args.list_rules:
        doc = __doc__.split("Front-ends")[0]
        print(doc.split("\n", 6)[-1].rstrip())
        return 0
    if args.self_test:
        return self_test()

    frontend = args.frontend
    binary = find_clang(args.clang)
    if frontend == "auto":
        frontend = "clang" if binary else "internal"
    if frontend == "clang" and binary is None:
        if args.require:
            print("error: clang not found and --require given",
                  file=sys.stderr)
            return 3
        if args.check_seeded_break:
            print("dewrite_analyze: clang not installed; seeded-break "
                  "check runs on the internal front-end only")
            frontend = "internal"
        else:
            print("dewrite_analyze: clang not installed; skipping the "
                  "AST front-end (use --frontend internal for the "
                  "built-in parser; CI uses --require)")
            return 0

    if args.check_seeded_break:
        return check_seeded_break(frontend, binary, args.build_dir,
                                  args.cache_dir)

    if frontend == "clang":
        try:
            tree = load_tree_clang(binary, args.build_dir,
                                   args.cache_dir)
        except SystemExit as err:
            print(err, file=sys.stderr)
            return 2
    else:
        tree = load_tree_internal(collect_sources())
    if not tree.files:
        print("error: no src/ sources found", file=sys.stderr)
        return 2

    rules = tuple(args.rules) if args.rules else RULE_NAMES
    findings = analyze(tree, rules, require_roots=not args.paths)
    if args.paths:
        scoped = set()
        for only in args.paths:
            scoped.add(only.rstrip("/"))
        findings = [row for row in findings
                    if any(row[0] == o or row[0].startswith(o + "/")
                           for o in scoped)]

    if args.report:
        payload = {
            "frontend": frontend,
            "files": len(tree.files),
            "functions": len(tree.all_functions()),
            "mutable_statics": len(tree.all_globals()),
            "rules": list(rules),
            "findings": [
                {"file": rel, "line": line, "rule": rule,
                 "message": message}
                for rel, line, rule, message in findings],
        }
        with open(args.report, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")

    counts = count_findings(findings)
    if args.update_baseline:
        write_baseline(args.baseline, counts)
        total = sum(sum(c.values()) for c in counts.values())
        print(f"baseline updated: {total} finding(s) -> "
              f"{args.baseline}")
        return 0

    regressions = diff_against_baseline(counts,
                                        load_baseline(args.baseline))
    if regressions:
        shown = {(rel, rule) for rel, rule, _f, _a in regressions}
        for rel, line, rule, message in findings:
            if (rel, rule) in shown:
                print(f"{rel}:{line}: [{rule}] {message}",
                      file=sys.stderr)
        print(f"\ndewrite-analyze: {len(regressions)} finding "
              f"class(es) over the baseline", file=sys.stderr)
        return 1
    print(f"dewrite-analyze clean ({frontend} front-end): "
          f"{len(tree.files)} files, "
          f"{len(tree.all_functions())} functions, "
          f"{len(rules)} rules")
    return 0


if __name__ == "__main__":
    sys.exit(main())
