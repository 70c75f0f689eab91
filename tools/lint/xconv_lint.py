#!/usr/bin/env python3
"""xconv invariant linter.

Enforces repo-wide invariants that the compiler cannot see and that code
review keeps re-litigating. Each rule is a small, line-anchored static check;
violations print as ``path:line: [rule] message`` and make the process exit
nonzero, so the script works as a CI gate and a pre-commit hook alike.

Rules
-----
env-getenv
    All ``XCONV_*`` environment reads must go through the validated helpers
    in ``src/platform/envparse.hpp`` (strict throwing parsers or the lenient
    ``*_or`` fallbacks). A raw ``getenv`` call anywhere else skips validation
    and scatters parsing policy across the tree.
thread-outside-allreduce
    ``std::thread`` may only be constructed in ``src/mlsl/allreduce.cpp``
    (the rank farm and the comm-thread pool). Library code spawning its own
    threads invisibly breaks the communicator's threading contract and the
    TSan suppression inventory. ``std::thread::hardware_concurrency()`` is
    fine anywhere (static member access, no thread is created).
baseline-isa
    The library is compiled for the baseline target: every SIMD instruction
    it runs is generated at run time and verified before it runs
    (``src/jit/``). No file under ``src/`` includes ``<immintrin.h>`` or uses
    ``_mm*`` / ``__m256`` / ``__m512`` intrinsics outside comments, and no
    CMake file at the repository root or under ``src/`` sets a ``-m<isa>``
    compile option. Compiled intrinsics would be a second kernel path that
    the verifier never sees and a build that needs ISA flags.
omp-in-header
    No ``#pragma omp`` in headers. A header compiles into every includer,
    with or without -fopenmp, so OpenMP pragmas in headers silently change
    semantics per-TU. Keep them in .cpp files.
test-registration
    Every ``tests/test_*.cpp`` must be registered with CTest (explicitly or
    via a ``file(GLOB test_*.cpp)`` + ``add_test`` loop) and CI must run
    ``ctest``. A test file that never runs is worse than no test.
bench-schema
    The set of JSON fields each bench emitter writes is locked in
    ``tools/lint/bench_schema.json`` together with its ``schema_version``.
    Changing emitted fields without bumping the version breaks every
    downstream trajectory diff; this rule forces the bump (and a lockfile
    regeneration via ``--update-bench-lock``) to land in the same commit.
plan-schema
    Same contract for the on-disk plan cache: the JSON fields written by
    ``ConvPlan::to_json`` (src/core/plan.cpp) and ``kPlanSchemaVersion``
    (src/core/plan.hpp) are locked in ``tools/lint/plan_schema.json``.
    Cached plan files outlive the binary that wrote them, so silently
    changing the serialization would turn every user's warm cache into
    rejected-stale entries (or worse, misparses). Changing either requires a
    version bump plus ``--update-plan-lock`` in the same commit.
jit-bitwise-test
    Every runtime kernel generator (``src/jit/*_kernel_gen.cpp``) must have
    a registered test that includes its header and cross-checks against a
    scalar reference. The repo's correctness story for generated machine
    code is bitwise equality with the scalar loops — a generator without
    that cross-check is unverifiable by construction.
decoder-coverage
    Every public instruction method of ``jit::Assembler``
    (src/jit/assembler.hpp) must appear in the decoder's coverage table —
    the quoted names between the ``BEGIN-DECODER-COVERAGE`` /
    ``END-DECODER-COVERAGE`` markers in ``src/jit/verify/decoder.cpp`` —
    and vice versa. The static verifier treats any byte sequence its
    decoder cannot parse as a corrupt kernel, so an assembler method the
    decoder does not know about would make every kernel using it fail
    verification; this rule forces the decoder (and its Op enum, which the
    table mirrors) to grow in the same commit as the emitter.

Usage
-----
    python3 tools/lint/xconv_lint.py [--repo PATH] [--update-bench-lock]
                                     [--update-plan-lock]

Self-tests live in ``tools/lint/test_xconv_lint.py`` (plain unittest, known
-bad fixtures per rule).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

SOURCE_EXTS = (".cpp", ".cc", ".hpp", ".h")
SOURCE_DIRS = ("src", "bench", "examples", "tests")

# Files exempt from env-getenv: the one sanctioned wrapper around getenv.
ENV_WRAPPER = "src/platform/envparse.hpp"

# Files allowed to mention std::thread as a type: the communicator owns every
# thread in the library (rank farm + comm pool); the header holds the pool
# member declarations for the .cpp.
THREAD_ALLOWED = ("src/mlsl/allreduce.cpp", "src/mlsl/allreduce.hpp")
# thread-outside-allreduce scopes to library code: tests and benches may spawn
# driver threads (e.g. the concurrency stress test's fake trainers).
THREAD_SCOPED_DIRS = ("src",)

BENCH_LOCK = "tools/lint/bench_schema.json"

# Plan-cache serialization contract: the emitter, the version constant's
# header, and the lockfile that pins both.
PLAN_EMITTER = "src/core/plan.cpp"
PLAN_VERSION_HEADER = "src/core/plan.hpp"
PLAN_LOCK = "tools/lint/plan_schema.json"

GETENV_RE = re.compile(r"\bgetenv\s*\(")
# std::thread not followed by :: (static member access creates no thread).
THREAD_RE = re.compile(r"\bstd::thread\b(?!\s*::)")
OMP_RE = re.compile(r"#\s*pragma\s+omp\b")
INTRIN_INCLUDE_RE = re.compile(r"#\s*include\s*[<\"]immintrin\.h[>\"]")
INTRIN_RE = re.compile(r"\b(?:_mm\w*|__m256\w*|__m512\w*)")
# An ISA-selecting compiler option: -mavx512f, -msse4.2, -march=native, ...
ISA_FLAG_RE = re.compile(
    r"(?<![\w-])-m(?:arch=|tune=|avx|sse|ssse|fma|f16c|bmi|amx|popcnt|lzcnt)"
    r"[\w.=-]*")
# A JSON key literal inside an fprintf format string: \"key\":
JSON_KEY_RE = re.compile(r'\\"([A-Za-z_][A-Za-z_0-9]*)\\":')
SCHEMA_VERSION_RE = re.compile(r'\\"schema_version\\":\s*(\d+)')
PLAN_VERSION_RE = re.compile(r"\bkPlanSchemaVersion\s*=\s*(\d+)")


class Violation:
    def __init__(self, path: str, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments(text: str) -> str:
    """Blank out // and /* */ comments, preserving line structure and string
    literals. Good enough for line-anchored pattern rules; not a C++ lexer."""
    out = []
    i, n = 0, len(text)
    in_line = in_block = in_str = in_chr = False
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if in_line:
            if c == "\n":
                in_line = False
                out.append(c)
            else:
                out.append(" ")
        elif in_block:
            if c == "*" and nxt == "/":
                in_block = False
                out.append("  ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
        elif in_str:
            out.append(c)
            if c == "\\" and nxt:
                out.append(nxt)
                i += 1
            elif c == '"':
                in_str = False
        elif in_chr:
            out.append(c)
            if c == "\\" and nxt:
                out.append(nxt)
                i += 1
            elif c == "'":
                in_chr = False
        elif c == "/" and nxt == "/":
            in_line = True
            out.append("  ")
            i += 1
        elif c == "/" and nxt == "*":
            in_block = True
            out.append("  ")
            i += 1
        elif c == '"':
            in_str = True
            out.append(c)
        elif c == "'":
            in_chr = True
            out.append(c)
        else:
            out.append(c)
        i += 1
    return "".join(out)


def iter_sources(repo: Path, dirs=SOURCE_DIRS):
    for d in dirs:
        root = repo / d
        if not root.is_dir():
            continue
        for p in sorted(root.rglob("*")):
            if p.suffix in SOURCE_EXTS and p.is_file():
                yield p


def rel(repo: Path, p: Path) -> str:
    return p.relative_to(repo).as_posix()


# --- rule: env-getenv -------------------------------------------------------

def check_env_getenv(repo: Path) -> list:
    out = []
    for p in iter_sources(repo):
        r = rel(repo, p)
        if r == ENV_WRAPPER:
            continue
        code = strip_comments(p.read_text(encoding="utf-8", errors="replace"))
        for ln, line in enumerate(code.splitlines(), 1):
            if GETENV_RE.search(line):
                out.append(Violation(
                    r, ln, "env-getenv",
                    "raw getenv(); route env reads through "
                    "platform/envparse.hpp helpers"))
    return out


# --- rule: thread-outside-allreduce ----------------------------------------

def check_thread_outside_allreduce(repo: Path) -> list:
    out = []
    for p in iter_sources(repo, THREAD_SCOPED_DIRS):
        r = rel(repo, p)
        if r in THREAD_ALLOWED:
            continue
        code = strip_comments(p.read_text(encoding="utf-8", errors="replace"))
        for ln, line in enumerate(code.splitlines(), 1):
            if THREAD_RE.search(line):
                out.append(Violation(
                    r, ln, "thread-outside-allreduce",
                    "std::thread outside src/mlsl/allreduce.cpp; the "
                    "communicator owns all library threads"))
    return out


# --- rule: baseline-isa -----------------------------------------------------

def check_baseline_isa(repo: Path) -> list:
    out = []
    for p in iter_sources(repo, ("src",)):
        r = rel(repo, p)
        code = strip_comments(p.read_text(encoding="utf-8", errors="replace"))
        for ln, line in enumerate(code.splitlines(), 1):
            if INTRIN_INCLUDE_RE.search(line) or INTRIN_RE.search(line):
                out.append(Violation(
                    r, ln, "baseline-isa",
                    "compiled SIMD intrinsics; generate the kernel in "
                    "src/jit/ instead"))
    cmake_files = [repo / "CMakeLists.txt"]
    if (repo / "src").is_dir():
        cmake_files += sorted(
            p for p in (repo / "src").rglob("*")
            if p.is_file() and (p.name == "CMakeLists.txt" or
                                p.suffix == ".cmake"))
    for p in cmake_files:
        if not p.is_file():
            continue
        text = p.read_text(encoding="utf-8", errors="replace")
        for ln, line in enumerate(text.splitlines(), 1):
            m = ISA_FLAG_RE.search(line.split("#", 1)[0])
            if m:
                out.append(Violation(
                    rel(repo, p), ln, "baseline-isa",
                    f"ISA compile option {m.group(0)}; the library builds "
                    "for the baseline target"))
    return out


# --- rule: omp-in-header ----------------------------------------------------

def check_omp_in_header(repo: Path) -> list:
    out = []
    for p in iter_sources(repo):
        if p.suffix not in (".hpp", ".h"):
            continue
        r = rel(repo, p)
        code = strip_comments(p.read_text(encoding="utf-8", errors="replace"))
        for ln, line in enumerate(code.splitlines(), 1):
            if OMP_RE.search(line):
                out.append(Violation(
                    r, ln, "omp-in-header",
                    "#pragma omp in a header; move the OpenMP construct "
                    "into a .cpp"))
    return out


# --- rule: test-registration ------------------------------------------------

def check_test_registration(repo: Path) -> list:
    out = []
    tests_dir = repo / "tests"
    cml = tests_dir / "CMakeLists.txt"
    tests = sorted(tests_dir.glob("test_*.cpp")) if tests_dir.is_dir() else []
    if not tests:
        return out
    if not cml.is_file():
        return [Violation("tests", 1, "test-registration",
                          "tests exist but tests/CMakeLists.txt is missing")]
    cml_text = cml.read_text(encoding="utf-8", errors="replace")
    glob_covers = (re.search(r"file\s*\(\s*GLOB[^)]*test_\*\.cpp", cml_text)
                   is not None)
    has_add_test = re.search(r"\badd_test\s*\(", cml_text) is not None
    if not has_add_test:
        out.append(Violation("tests/CMakeLists.txt", 1, "test-registration",
                             "no add_test(); test binaries never run under "
                             "ctest"))
    if not glob_covers:
        for t in tests:
            if t.name not in cml_text:
                out.append(Violation(
                    rel(repo, t), 1, "test-registration",
                    f"{t.name} not registered in tests/CMakeLists.txt "
                    "(no GLOB test_*.cpp and no explicit mention)"))
    ci = repo / ".github" / "workflows" / "ci.yml"
    if not ci.is_file() or "ctest" not in ci.read_text(encoding="utf-8",
                                                       errors="replace"):
        out.append(Violation(".github/workflows/ci.yml", 1,
                             "test-registration",
                             "CI workflow never invokes ctest"))
    return out


# --- rule: jit-bitwise-test -------------------------------------------------

def check_jit_bitwise_test(repo: Path) -> list:
    """Each src/jit/*_kernel_gen.cpp needs a tests/test_*.cpp that includes
    the generator's header and mentions 'scalar' (the cross-check oracle).
    Intentionally shallow: it cannot prove the test asserts bitwise equality,
    but it guarantees a generator cannot land without *any* scalar-reference
    test, which is the failure mode worth automating against."""
    out = []
    jit_dir = repo / "src" / "jit"
    if not jit_dir.is_dir():
        return out
    gens = sorted(jit_dir.glob("*_kernel_gen.cpp"))
    if not gens:
        return out
    tests_dir = repo / "tests"
    tests = sorted(tests_dir.glob("test_*.cpp")) if tests_dir.is_dir() else []
    texts = [t.read_text(encoding="utf-8", errors="replace") for t in tests]
    for g in gens:
        header = f"jit/{g.stem}.hpp"
        covered = any(header in text and
                      re.search(r"\bscalar\b", text, re.IGNORECASE)
                      for text in texts)
        if not covered:
            out.append(Violation(
                rel(repo, g), 1, "jit-bitwise-test",
                f"no tests/test_*.cpp includes {header} and cross-checks a "
                "scalar reference; generated code must have a bitwise "
                "scalar-equivalence test"))
    return out


# --- rule: decoder-coverage -------------------------------------------------

ASSEMBLER_HEADER = "src/jit/assembler.hpp"
DECODER_TABLE = "src/jit/verify/decoder.cpp"
COVERAGE_BEGIN = "BEGIN-DECODER-COVERAGE"
COVERAGE_END = "END-DECODER-COVERAGE"
ASM_METHOD_RE = re.compile(r"^\s*void\s+(\w+)\s*\(", re.MULTILINE)
COVERED_NAME_RE = re.compile(r'"(\w+)"')


def scan_assembler_methods(text: str) -> dict:
    """Public instruction methods of class Assembler: name -> 1-based line.
    Parses the class body up to the first access-specifier change; only
    void-returning methods count (here() and the constructor are not
    instructions)."""
    m = re.search(r"class\s+Assembler\b", text)
    if m is None:
        return {}
    body = text[m.end():]
    cut = re.search(r"^\s*(?:private|protected)\s*:", body, re.MULTILINE)
    if cut is not None:
        body = body[:cut.start()]
    base_line = text.count("\n", 0, m.end()) + 1
    methods = {}
    for mm in ASM_METHOD_RE.finditer(body):
        line = base_line + body.count("\n", 0, mm.start())
        methods.setdefault(mm.group(1), line)
    return methods


def scan_decoder_coverage(text: str):
    """(name -> 1-based line) for the quoted names between the coverage
    markers, or None when the markers are absent/malformed."""
    begin = text.find(COVERAGE_BEGIN)
    end = text.find(COVERAGE_END)
    if begin < 0 or end < 0 or end <= begin:
        return None
    region = text[begin:end]
    base_line = text.count("\n", 0, begin) + 1
    names = {}
    for mm in COVERED_NAME_RE.finditer(region):
        line = base_line + region.count("\n", 0, mm.start())
        names.setdefault(mm.group(1), line)
    return names


def check_decoder_coverage(repo: Path) -> list:
    header = repo / ASSEMBLER_HEADER
    table = repo / DECODER_TABLE
    if not header.is_file():
        return []  # no assembler layer: nothing to cover
    methods = scan_assembler_methods(
        strip_comments(header.read_text(encoding="utf-8", errors="replace")))
    if not methods:
        return []
    if not table.is_file():
        return [Violation(DECODER_TABLE, 1, "decoder-coverage",
                          "assembler.hpp defines instruction methods but the "
                          "decoder coverage table is missing")]
    covered = scan_decoder_coverage(
        table.read_text(encoding="utf-8", errors="replace"))
    if covered is None:
        return [Violation(DECODER_TABLE, 1, "decoder-coverage",
                          f"{COVERAGE_BEGIN}/{COVERAGE_END} markers missing "
                          "or malformed; the lint rule cannot audit decoder "
                          "coverage")]
    out = []
    for name, line in sorted(methods.items(), key=lambda kv: kv[1]):
        if name not in covered:
            out.append(Violation(
                ASSEMBLER_HEADER, line, "decoder-coverage",
                f"Assembler::{name} has no decoder coverage; teach "
                "src/jit/verify/decoder.cpp the encoding (Op enum + decode "
                "case + coverage-table entry) in the same commit"))
    for name, line in sorted(covered.items(), key=lambda kv: kv[1]):
        if name not in methods:
            out.append(Violation(
                DECODER_TABLE, line, "decoder-coverage",
                f'stale coverage entry "{name}": no such public Assembler '
                "instruction method"))
    return out


# --- rule: bench-schema -----------------------------------------------------

def scan_bench_emitters(repo: Path) -> dict:
    """Map emitter file -> {"schema_version": int, "fields": sorted list}.
    An emitter is any bench/ source that writes a schema_version literal."""
    emitters = {}
    bench = repo / "bench"
    if not bench.is_dir():
        return emitters
    for p in sorted(bench.rglob("*")):
        if p.suffix not in SOURCE_EXTS or not p.is_file():
            continue
        text = p.read_text(encoding="utf-8", errors="replace")
        m = SCHEMA_VERSION_RE.search(text)
        if m is None:
            continue
        fields = sorted(set(JSON_KEY_RE.findall(text)))
        emitters[rel(repo, p)] = {
            "schema_version": int(m.group(1)),
            "fields": fields,
        }
    return emitters


def check_bench_schema(repo: Path) -> list:
    out = []
    lock_path = repo / BENCH_LOCK
    emitters = scan_bench_emitters(repo)
    if not lock_path.is_file():
        # No lockfile is fine only while there is nothing to lock.
        if emitters:
            out.append(Violation(BENCH_LOCK, 1, "bench-schema",
                                 "lockfile missing; run xconv_lint.py "
                                 "--update-bench-lock and commit it"))
        return out
    lock = json.loads(lock_path.read_text(encoding="utf-8"))
    for f, cur in sorted(emitters.items()):
        locked = lock.get(f)
        if locked is None:
            out.append(Violation(f, 1, "bench-schema",
                                 "new bench emitter not in lockfile; run "
                                 "--update-bench-lock"))
            continue
        same_fields = locked.get("fields") == cur["fields"]
        same_version = locked.get("schema_version") == cur["schema_version"]
        if same_fields and same_version:
            continue
        if not same_fields and same_version:
            added = sorted(set(cur["fields"]) - set(locked.get("fields", [])))
            removed = sorted(set(locked.get("fields", [])) -
                             set(cur["fields"]))
            out.append(Violation(
                f, 1, "bench-schema",
                "emitted JSON fields changed (added: %s; removed: %s) but "
                "schema_version is still %d; bump it and run "
                "--update-bench-lock" % (added or "-", removed or "-",
                                         cur["schema_version"])))
        else:
            out.append(Violation(
                f, 1, "bench-schema",
                "schema_version %s does not match lockfile (%s); run "
                "--update-bench-lock to re-lock" %
                (cur["schema_version"], locked.get("schema_version"))))
    for f in sorted(set(lock) - set(emitters)):
        out.append(Violation(f, 1, "bench-schema",
                             "locked emitter no longer exists; run "
                             "--update-bench-lock"))
    return out


def update_bench_lock(repo: Path) -> None:
    lock_path = repo / BENCH_LOCK
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    emitters = scan_bench_emitters(repo)
    lock_path.write_text(json.dumps(emitters, indent=2, sort_keys=True) +
                         "\n", encoding="utf-8")
    print(f"wrote {rel(repo, lock_path)} ({len(emitters)} emitters)")


# --- rule: plan-schema ------------------------------------------------------

def scan_plan_schema(repo: Path) -> dict | None:
    """Current plan-cache serialization contract, or None if the ConvPlan
    layer is absent: {"plan_schema_version": int, "fields": sorted list}."""
    emitter = repo / PLAN_EMITTER
    header = repo / PLAN_VERSION_HEADER
    if not emitter.is_file() or not header.is_file():
        return None
    m = PLAN_VERSION_RE.search(header.read_text(encoding="utf-8",
                                                errors="replace"))
    if m is None:
        return None
    fields = sorted(set(JSON_KEY_RE.findall(
        emitter.read_text(encoding="utf-8", errors="replace"))))
    return {"plan_schema_version": int(m.group(1)), "fields": fields}


def check_plan_schema(repo: Path) -> list:
    out = []
    lock_path = repo / PLAN_LOCK
    cur = scan_plan_schema(repo)
    if cur is None:
        if lock_path.is_file():
            out.append(Violation(PLAN_LOCK, 1, "plan-schema",
                                 "lockfile exists but the plan emitter/"
                                 "version constant is gone; run "
                                 "--update-plan-lock"))
        return out
    if not lock_path.is_file():
        out.append(Violation(PLAN_LOCK, 1, "plan-schema",
                             "lockfile missing; run xconv_lint.py "
                             "--update-plan-lock and commit it"))
        return out
    lock = json.loads(lock_path.read_text(encoding="utf-8"))
    same_fields = lock.get("fields") == cur["fields"]
    same_version = (lock.get("plan_schema_version") ==
                    cur["plan_schema_version"])
    if same_fields and same_version:
        return out
    if not same_fields and same_version:
        added = sorted(set(cur["fields"]) - set(lock.get("fields", [])))
        removed = sorted(set(lock.get("fields", [])) - set(cur["fields"]))
        out.append(Violation(
            PLAN_EMITTER, 1, "plan-schema",
            "plan-cache JSON fields changed (added: %s; removed: %s) but "
            "kPlanSchemaVersion is still %d; cached plans on disk would "
            "misparse — bump the version and run --update-plan-lock" %
            (added or "-", removed or "-", cur["plan_schema_version"])))
    else:
        out.append(Violation(
            PLAN_VERSION_HEADER, 1, "plan-schema",
            "kPlanSchemaVersion %s does not match lockfile (%s); run "
            "--update-plan-lock to re-lock" %
            (cur["plan_schema_version"], lock.get("plan_schema_version"))))
    return out


def update_plan_lock(repo: Path) -> None:
    lock_path = repo / PLAN_LOCK
    lock_path.parent.mkdir(parents=True, exist_ok=True)
    cur = scan_plan_schema(repo)
    if cur is None:
        if lock_path.is_file():
            lock_path.unlink()
            print(f"removed {rel(repo, lock_path)} (no plan emitter)")
        else:
            print("no plan emitter; nothing to lock")
        return
    lock_path.write_text(json.dumps(cur, indent=2, sort_keys=True) + "\n",
                         encoding="utf-8")
    print(f"wrote {rel(repo, lock_path)} "
          f"(version {cur['plan_schema_version']}, "
          f"{len(cur['fields'])} fields)")


RULES = (
    check_env_getenv,
    check_thread_outside_allreduce,
    check_baseline_isa,
    check_omp_in_header,
    check_test_registration,
    check_jit_bitwise_test,
    check_decoder_coverage,
    check_bench_schema,
    check_plan_schema,
)


def run(repo: Path) -> list:
    out = []
    for rule in RULES:
        out.extend(rule(repo))
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repo", default=None,
                    help="repo root (default: two levels up from this file)")
    ap.add_argument("--update-bench-lock", action="store_true",
                    help="regenerate tools/lint/bench_schema.json and exit")
    ap.add_argument("--update-plan-lock", action="store_true",
                    help="regenerate tools/lint/plan_schema.json and exit")
    args = ap.parse_args(argv)
    repo = Path(args.repo) if args.repo else Path(__file__).resolve().parents[2]
    if args.update_bench_lock or args.update_plan_lock:
        if args.update_bench_lock:
            update_bench_lock(repo)
        if args.update_plan_lock:
            update_plan_lock(repo)
        return 0
    violations = run(repo)
    for v in violations:
        print(v)
    if violations:
        print(f"xconv_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("xconv_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
