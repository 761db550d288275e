#!/usr/bin/env python3
"""Project-invariant source linter (DESIGN.md §15).

Enforces the concurrency conventions that the compiler cannot:

  raw-mutex       std::mutex / std::lock_guard / std::unique_lock /
                  std::scoped_lock / std::shared_lock /
                  std::condition_variable (and recursive/shared/timed
                  variants) are banned outside src/util/ — service code
                  must use util::Mutex / util::MutexLock / util::CondVar
                  so every lock is annotated and rank-checked.
  raw-thread      constructing a std::thread is banned outside src/util/ —
                  threads must come from util::SpawnThread (named) or
                  util::ThreadPool (laned, telemetered) so no worker
                  bypasses the util/ layer. Declaring an
                  empty handle (std::thread t;) or a member stays legal:
                  only construction with a body is flagged.
  detached-thread std::thread::detach() is banned everywhere: a detached
                  thread outlives scoped state invisibly and can never be
                  drained on shutdown (every thread in the tree is joined
                  by an owner).
  locked-suffix   a method annotated REQUIRES(...) must be named with a
                  `Locked` suffix, so call sites read as what they are.

Usage:
  tools/check_source.py [--root DIR]   lint DIR (default: repo root);
                                       exit 1 if any finding
  tools/check_source.py --selftest     run the rule fixtures under
                                       tests/check_source/ against their
                                       golden findings; exit 1 on drift

Run as a ctest (`check_source`, `check_source_goldens`) by
tests/CMakeLists.txt.
"""

import argparse
import pathlib
import re
import sys

# Directories scanned relative to the root, and the extensions that count.
SCAN_DIRS = ("src", "tools")
CPP_EXTENSIONS = (".h", ".cc")

# src/util/ implements the wrapper layer itself and is the one place raw
# primitives may appear.
RAW_MUTEX_EXEMPT_PREFIX = "src/util/"

RAW_MUTEX_RE = re.compile(
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|std::lock_guard\b"
    r"|std::unique_lock\b"
    r"|std::scoped_lock\b"
    r"|std::shared_lock\b"
    r"|std::condition_variable(?:_any)?\b"
)
# std::thread directly (or through one identifier) followed by ( or { is
# a construction with a body. `std::thread t;`, member declarations, and
# `std::vector<std::thread>` have no following ( or { and stay legal.
RAW_THREAD_RE = re.compile(
    r"std::thread\s*[({]"
    r"|std::thread\s+[A-Za-z_]\w*\s*[({]"
)
DETACH_RE = re.compile(r"\.\s*detach\s*\(")
# An identifier-named parameter list directly followed by REQUIRES(...)
# (possibly through const/noexcept). Lambdas don't match: no identifier
# precedes their parameter list.
REQUIRES_METHOD_RE = re.compile(
    r"\b(?P<name>[A-Za-z_]\w*)\s*\([^()]*\)\s*(?:const\s*)?(?:noexcept\s*)?"
    r"REQUIRES(?:_SHARED)?\s*\("
)
LOCKED_SUFFIX_ALLOWLIST = {
    # util::CondVar's waits: REQUIRES is their calling contract, not a
    # private locked-helper naming situation.
    "Wait", "WaitUntil", "WaitFor",
}


def strip_comments(text):
    """Blanks out // and /* */ comments and string literals, preserving
    line structure so finding line numbers stay exact."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | dquote | squote
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "dquote"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "squote"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("dquote", "squote"):
            quote = '"' if state == "dquote" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; keep line count honest
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def line_of(text, offset):
    return text.count("\n", 0, offset) + 1


def lint_file(relpath, text):
    """Yields (relpath, line, rule, message) findings for one file."""
    code = strip_comments(text)

    if not relpath.startswith(RAW_MUTEX_EXEMPT_PREFIX):
        for m in RAW_MUTEX_RE.finditer(code):
            yield (relpath, line_of(code, m.start()), "raw-mutex",
                   f"{m.group(0)} is banned outside src/util/; use "
                   "util::Mutex / util::MutexLock / util::CondVar "
                   "(util/mutex.h)")

    if not relpath.startswith(RAW_MUTEX_EXEMPT_PREFIX):
        for m in RAW_THREAD_RE.finditer(code):
            yield (relpath, line_of(code, m.start()), "raw-thread",
                   "raw std::thread construction is banned outside "
                   "src/util/; spawn via util::SpawnThread or "
                   "util::ThreadPool (util/topology.h)")

    for m in DETACH_RE.finditer(code):
        yield (relpath, line_of(code, m.start()), "detached-thread",
               "detached threads are banned; every thread must be joined "
               "by an owner")

    for m in REQUIRES_METHOD_RE.finditer(code):
        name = m.group("name")
        if name.endswith("Locked") or name in LOCKED_SUFFIX_ALLOWLIST:
            continue
        yield (relpath, line_of(code, m.start()), "locked-suffix",
               f"method {name} is REQUIRES-annotated but not named with a "
               "Locked suffix")


def scan(root):
    findings = []
    for scan_dir in SCAN_DIRS:
        base = root / scan_dir
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix not in CPP_EXTENSIONS or not path.is_file():
                continue
            rel = path.relative_to(root).as_posix()
            findings.extend(
                lint_file(rel, path.read_text(encoding="utf-8",
                                              errors="replace")))
    return findings


def format_finding(f):
    relpath, line, rule, message = f
    return f"{relpath}:{line}: [{rule}] {message}"


def selftest(root):
    """Lints each fixture under tests/check_source/fixtures/ and compares
    the full finding list against tests/check_source/expected.txt."""
    fixture_dir = root / "tests" / "check_source" / "fixtures"
    expected_path = root / "tests" / "check_source" / "expected.txt"
    got = []
    for path in sorted(fixture_dir.rglob("*")):
        if path.suffix not in CPP_EXTENSIONS or not path.is_file():
            continue
        rel = path.relative_to(fixture_dir).as_posix()
        got.extend(lint_file(rel, path.read_text(encoding="utf-8")))
    got_lines = [format_finding(f) for f in got]
    expected_lines = [
        line for line in
        expected_path.read_text(encoding="utf-8").splitlines()
        if line.strip() and not line.startswith("#")
    ]
    if got_lines != expected_lines:
        print("check_source selftest: fixture findings drifted from golden",
              file=sys.stderr)
        for line in got_lines:
            print(f"  got:      {line}", file=sys.stderr)
        for line in expected_lines:
            print(f"  expected: {line}", file=sys.stderr)
        return 1
    print(f"check_source selftest: {len(got_lines)} golden findings match")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=pathlib.Path,
                        default=pathlib.Path(__file__).resolve().parent.parent)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest(args.root)

    findings = scan(args.root)
    for finding in findings:
        print(format_finding(finding))
    if findings:
        print(f"check_source: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("check_source: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
