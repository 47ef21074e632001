#!/usr/bin/env python3
"""Project-rule linter (docs/CORRECTNESS.md, "Project lint rules").

Mechanical checks for conventions the compiler cannot enforce:

  aggregate-coverage  Every `DecayedAggregate` implementation must declare
                      `AuditInvariants()` in its header and be exercised by
                      name from a fuzz driver in tests/fuzz/. A class
                      template (Standalone<State>) is covered through its
                      aliases: each `using X = Standalone<...>;` is an
                      implementation a fuzz driver must name.
  raw-mutex           No raw `std::mutex` / `std::shared_mutex` /
                      `std::condition_variable` (or their headers / lock
                      adapters) outside src/util/mutex.h — everything else
                      uses the annotated tds::Mutex wrappers so Clang's
                      thread-safety analysis sees every lock.
  raw-atomic          No raw `std::atomic` / `std::atomic_thread_fence`
                      (or the <atomic> header) outside src/util/atomic.h —
                      everything else uses tds::Atomic / tds::AtomicFence,
                      whose call sites route through the model-check
                      scheduler under -DTDS_MODELCHECK=ON (src/modelcheck).
                      Comments are stripped before matching, so prose may
                      name the std types.
  wall-clock          No wall-clock reads or ambient randomness in src/core
                      or src/engine: ticks come from the caller and
                      randomness from seeded tds::Rng, so every run is
                      replayable. (bench/ and examples/ may read clocks.)
  todo-owner          Every task marker carries an owner — `(name):` after
                      the marker word.
  spin-loop           No yield/pause/sleep retry idioms in src/engine
                      outside wait_strategy.h: every producer or consumer
                      wait goes through StagedWait, which bounds spinning
                      and parks on a condition variable, so an overloaded
                      engine cannot silently burn a core per thread.
  fuzz-dual-mode      Every fuzz driver (tests/fuzz/*_fuzz_test.cc) must
                      register both execution modes: a deterministic gtest
                      wrapper (the ctest leg) and an
                      LLVMFuzzerTestOneInput entry point (the libFuzzer
                      leg), be wired through tds_add_fuzz_test() in
                      tests/fuzz/CMakeLists.txt, and ship a seed corpus
                      under tests/fuzz/corpus/<driver>/.

Usage:
  tools/tds_lint.py [--root DIR]     lint the tree (default: repo root)
  tools/tds_lint.py --selftest       prove each rule rejects a violation
                                     (runs against tools/lint_fixtures/)

Exit status: 0 clean, 1 violations (printed one per line as
`path:line: [rule] message`), 2 usage/internal error.

A line may opt out with a trailing `tds-lint: allow(<rule>)` marker; the
marker is for generated or quoted code, not for silencing real findings —
reviews treat new markers like new suppressions. (The word this file's
rules hunt for is spelled piecewise throughout so the linter never flags
its own source.)
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

TODO_WORD = "TO" + "DO"

CXX_SUFFIXES = {".h", ".cc", ".cpp", ".hpp"}
TEXT_SUFFIXES = CXX_SUFFIXES | {".py", ".sh", ".cmake", ".txt", ".yml"}

RAW_MUTEX_PATTERN = re.compile(
    r"std::(mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(_any)?|lock_guard|scoped_lock|unique_lock|"
    r"shared_lock)\b"
    r"|#\s*include\s*<(mutex|shared_mutex|condition_variable)>"
)

RAW_ATOMIC_PATTERN = re.compile(
    r"std::atomic(_flag)?\s*<"
    r"|std::atomic_flag\b"
    r"|std::atomic_thread_fence\s*\("
    r"|std::atomic_signal_fence\s*\("
    r"|#\s*include\s*<atomic>"
)

WALL_CLOCK_PATTERN = re.compile(
    r"std::chrono::(system_clock|steady_clock|high_resolution_clock)"
    r"|\bgettimeofday\s*\("
    r"|\btime\s*\(\s*(NULL|nullptr|0)?\s*\)"
    r"|\b(std::)?s?rand\s*\("
    r"|std::random_device"
)

TODO_PATTERN = re.compile(r"\b" + TODO_WORD + r"\b(?!\()")

SPIN_PATTERN = re.compile(
    r"std::this_thread::(yield|sleep_for|sleep_until)\s*\("
    r"|\b_mm_pause\s*\("
    r"|__builtin_ia32_pause\s*\("
)

AGGREGATE_DECL_PATTERN = re.compile(
    r"(template\s*<[^;{]*?>\s*)?"
    r"class\s+(\w+)\s*(?:final\s*)?:\s*public\s+DecayedAggregate"
)

AGGREGATE_ALIAS_PATTERN = re.compile(r"using\s+(\w+)\s*=\s*Standalone\s*<")

AUDIT_DECL_PATTERN = re.compile(r"\bStatus\s+AuditInvariants\s*\(\s*\)")

ALLOW_PATTERN = re.compile(r"tds-lint:\s*allow\(([\w-]+)\)")


class Violation:
    def __init__(self, rule: str, path: Path, line: int, message: str):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def allowed(rule: str, line: str) -> bool:
    match = ALLOW_PATTERN.search(line)
    return match is not None and match.group(1) == rule


def iter_source_files(root: Path, subdirs, suffixes):
    for subdir in subdirs:
        base = root / subdir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            # Fixture trees are excluded only relative to the scanned root,
            # so the selftest (whose root IS a fixture tree) still sees them.
            if "lint_fixtures" in path.relative_to(root).parts:
                continue
            if path.is_file() and path.suffix in suffixes:
                yield path
            elif path.is_file() and path.name == "CMakeLists.txt":
                yield path


def scan_pattern(rule, pattern, path, message, out, strip_comments=False):
    try:
        text = path.read_text(errors="replace")
    except OSError as err:
        out.append(Violation(rule, path, 0, f"unreadable: {err}"))
        return
    for number, line in enumerate(text.splitlines(), start=1):
        subject = line.split("//", 1)[0] if strip_comments else line
        if pattern.search(subject) and not allowed(rule, line):
            out.append(Violation(rule, path, number, message))


def check_raw_mutex(root: Path, out):
    exempt = root / "src" / "util" / "mutex.h"
    for path in iter_source_files(root, ["src"], CXX_SUFFIXES):
        if path == exempt:
            continue
        scan_pattern(
            "raw-mutex",
            RAW_MUTEX_PATTERN,
            path,
            "raw standard mutex/condvar primitive; use the annotated "
            "wrappers from util/mutex.h",
            out,
        )


def check_raw_atomic(root: Path, out):
    exempt = root / "src" / "util" / "atomic.h"
    for path in iter_source_files(root, ["src"], CXX_SUFFIXES):
        if path == exempt:
            continue
        scan_pattern(
            "raw-atomic",
            RAW_ATOMIC_PATTERN,
            path,
            "raw std::atomic primitive; use tds::Atomic / tds::AtomicFence "
            "from util/atomic.h so the model-check scheduler sees every "
            "operation",
            out,
            strip_comments=True,
        )


def check_wall_clock(root: Path, out):
    for path in iter_source_files(
        root, ["src/core", "src/engine"], CXX_SUFFIXES
    ):
        scan_pattern(
            "wall-clock",
            WALL_CLOCK_PATTERN,
            path,
            "wall-clock or ambient randomness in deterministic code; take "
            "ticks from the caller and randomness from a seeded tds::Rng",
            out,
        )


def check_todo_owner(root: Path, out):
    for path in iter_source_files(
        root,
        ["src", "tests", "tools", "bench", "examples"],
        TEXT_SUFFIXES,
    ):
        scan_pattern(
            "todo-owner",
            TODO_PATTERN,
            path,
            f"{TODO_WORD} without an owner; write {TODO_WORD}(name): ...",
            out,
        )


def check_spin_loop(root: Path, out):
    exempt = root / "src" / "engine" / "wait_strategy.h"
    for path in iter_source_files(root, ["src/engine"], CXX_SUFFIXES):
        if path == exempt:
            continue
        scan_pattern(
            "spin-loop",
            SPIN_PATTERN,
            path,
            "yield/pause/sleep retry idiom outside wait_strategy.h; wait "
            "through StagedWait so stalls stay bounded and parked",
            out,
        )


def check_aggregate_coverage(root: Path, out):
    fuzz_dir = root / "tests" / "fuzz"
    fuzz_text = ""
    for path in sorted(fuzz_dir.glob("*.cc")) if fuzz_dir.is_dir() else []:
        fuzz_text += path.read_text(errors="replace")
    for path in iter_source_files(root, ["src"], {".h"}):
        text = path.read_text(errors="replace")
        # (name, line, must declare the audit hook, must be fuzzed by name):
        # a class template's aliases are what the fuzz drivers name, and an
        # alias inherits the template's audit hook.
        found = []
        for match in AGGREGATE_DECL_PATTERN.finditer(text):
            is_template = match.group(1) is not None
            line = text.count("\n", 0, match.start(2)) + 1
            found.append((match.group(2), line, True, not is_template))
        for match in AGGREGATE_ALIAS_PATTERN.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            found.append((match.group(1), line, False, True))
        for name, line, needs_audit, needs_fuzz in found:
            if allowed("aggregate-coverage", text.splitlines()[line - 1]):
                continue
            if needs_audit and not AUDIT_DECL_PATTERN.search(text):
                out.append(
                    Violation(
                        "aggregate-coverage",
                        path,
                        line,
                        f"{name} implements DecayedAggregate but declares no "
                        "`Status AuditInvariants() const`",
                    )
                )
            if needs_fuzz and not re.search(rf"\b{name}\b", fuzz_text):
                out.append(
                    Violation(
                        "aggregate-coverage",
                        path,
                        line,
                        f"{name} implements DecayedAggregate but no fuzz "
                        "driver in tests/fuzz/ exercises it by name",
                    )
                )


def check_fuzz_dual_mode(root: Path, out):
    fuzz_dir = root / "tests" / "fuzz"
    if not fuzz_dir.is_dir():
        return
    cmake_path = fuzz_dir / "CMakeLists.txt"
    cmake_text = (
        cmake_path.read_text(errors="replace") if cmake_path.is_file() else ""
    )
    for path in sorted(fuzz_dir.glob("*_fuzz_test.cc")):
        name = path.stem
        text = path.read_text(errors="replace")
        if "LLVMFuzzerTestOneInput" not in text:
            out.append(
                Violation(
                    "fuzz-dual-mode",
                    path,
                    1,
                    f"{name} has no LLVMFuzzerTestOneInput entry point; "
                    "every driver must also run under -DTDS_LIBFUZZER=ON",
                )
            )
        if not re.search(r"\bTEST(_F|_P)?\s*\(", text):
            out.append(
                Violation(
                    "fuzz-dual-mode",
                    path,
                    1,
                    f"{name} has no gtest wrapper; every driver must keep "
                    "its deterministic ctest leg",
                )
            )
        if f"tds_add_fuzz_test({name})" not in cmake_text:
            out.append(
                Violation(
                    "fuzz-dual-mode",
                    path,
                    1,
                    f"{name} is not registered via tds_add_fuzz_test() in "
                    "tests/fuzz/CMakeLists.txt",
                )
            )
        corpus = fuzz_dir / "corpus" / name
        if not corpus.is_dir() or not any(corpus.iterdir()):
            out.append(
                Violation(
                    "fuzz-dual-mode",
                    path,
                    1,
                    f"{name} ships no seed corpus under tests/fuzz/corpus/"
                    f"{name}/ (regenerate with tools/make_fuzz_corpus.py)",
                )
            )


def lint(root: Path):
    out = []
    check_raw_mutex(root, out)
    check_raw_atomic(root, out)
    check_wall_clock(root, out)
    check_todo_owner(root, out)
    check_spin_loop(root, out)
    check_aggregate_coverage(root, out)
    check_fuzz_dual_mode(root, out)
    return out


def selftest(repo_root: Path) -> int:
    """Each fixture tree must trigger exactly its intended rule — proving
    the checks actually reject violations — and the real tree must be
    clean."""
    fixtures = repo_root / "tools" / "lint_fixtures"
    expected = {
        "raw-mutex": fixtures / "raw_mutex",
        "raw-atomic": fixtures / "raw_atomic",
        "wall-clock": fixtures / "wall_clock",
        "todo-owner": fixtures / "todo_owner",
        "spin-loop": fixtures / "spin_loop",
        "aggregate-coverage": fixtures / "aggregate_coverage",
        "fuzz-dual-mode": fixtures / "fuzz_dual_mode",
    }
    failures = 0
    for rule, tree in expected.items():
        if not tree.is_dir():
            print(f"selftest: missing fixture tree {tree}", file=sys.stderr)
            failures += 1
            continue
        found = lint(tree)
        hits = [v for v in found if v.rule == rule]
        strays = [v for v in found if v.rule != rule]
        # Every fixture file is one violation the rule must catch.
        flagged = {v.path for v in hits}
        unflagged = [
            path for path in sorted(tree.rglob("*"))
            if path.is_file() and path.name != ".keep" and path not in flagged
        ]
        for path in unflagged:
            print(
                f"selftest: fixture {path} did NOT trigger rule {rule}",
                file=sys.stderr,
            )
            failures += 1
        if not hits:
            print(
                f"selftest: fixture {tree.name} did NOT trigger rule {rule}",
                file=sys.stderr,
            )
            failures += 1
        if strays:
            for violation in strays:
                print(f"selftest: stray finding: {violation}", file=sys.stderr)
            failures += 1
        if hits and not strays and not unflagged:
            print(f"selftest: {rule}: fixture rejected as intended")
    real = lint(repo_root)
    if real:
        for violation in real:
            print(violation, file=sys.stderr)
        print("selftest: real tree is not clean", file=sys.stderr)
        failures += 1
    else:
        print("selftest: real tree clean")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="tree to lint (default: the repository root)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="verify each rule rejects its fixture violation, then lint "
        "the real tree",
    )
    args = parser.parse_args()
    root = args.root.resolve()
    if args.selftest:
        return selftest(root)
    violations = lint(root)
    for violation in violations:
        print(violation)
    if violations:
        print(f"tds_lint: {len(violations)} violation(s)", file=sys.stderr)
        return 1
    print("tds_lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
