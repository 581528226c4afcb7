"""The lines of src/ that no test runs.

A standard-library line collector: sys.settrace records each line that
runs in a module under src/ while pytest runs the suite in this process.
A module's executable lines are the line table of its compiled code
objects; those that never ran are printed module by module, each with
its source text.  CLI subprocesses that a test starts are not traced.

A test can fail under the tracer alone: tracing slows the run several
times over, and a wall-clock bound such as
test_milnor_number_is_bounded's reads the slowdown.  Each test that
fails here runs again untraced, in a fresh interpreter.  Those that pass
there are listed apart as failing only under the tracer, the others as
failures; the exit status is 1 when there is a failure.

The file has no test_ prefix, so pytest does not collect it.  Run it
from the repository root; its arguments pass through to pytest:

    python tests/uncovered.py -k "not regularize_fan_property"
"""

import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def executable_lines(path):
    """The line numbers of every instruction of the module's code."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(n for _, _, n in code.co_lines() if n)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


class FailedTests:
    """A pytest plugin that keeps the ids of the tests that fail."""

    def __init__(self):
        self.ids = []

    def pytest_runtest_logreport(self, report):
        if report.failed and report.nodeid not in self.ids:
            self.ids.append(report.nodeid)


def run_traced(args):
    """pytest's exit code, the lines that ran per resolved source path,
    and the ids of the tests that failed."""
    ran = {path: set() for path in SRC.rglob("*.py")}
    by_name = {}    # code filename -> its set in ran, or None

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in by_name:
            by_name[name] = ran.get(Path(name).resolve())
        hits = by_name[name]
        if hits is None:
            return None
        hits.add(frame.f_lineno)

        def line(frame, event, arg):
            if event == "line":
                hits.add(frame.f_lineno)
            return line
        return line

    failed = FailedTests()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", *args], plugins=[failed])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return code, ran, failed.ids


def passes_untraced(test_id):
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         test_id], cwd=ROOT, capture_output=True).returncode == 0


def main(args):
    code, ran, failed = run_traced(args)
    if code not in (pytest.ExitCode.OK, pytest.ExitCode.TESTS_FAILED):
        return code
    print()
    for path in sorted(ran):
        missed = sorted(executable_lines(path) - ran[path])
        print(f"{path.relative_to(ROOT)}: {len(missed)} lines never ran")
        source = path.read_text().splitlines()
        for n in missed:
            print(f"{n:7}  {source[n - 1].strip()}")
    tracer_only = [t for t in failed if passes_untraced(t)]
    failures = [t for t in failed if t not in tracer_only]
    for title, tests in (("fail only under the tracer", tracer_only),
                         ("fail untraced too", failures)):
        print(f"\n{len(tests)} tests {title}")
        for t in tests:
            print(f"  {t}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
