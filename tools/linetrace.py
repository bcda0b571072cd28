"""A pytest plugin that fails the run on any line of ``src/neutroset`` that no test executed.

Load it with ``tools`` on the import path::

    PYTHONPATH=src:tools python -m pytest -q -p linetrace

It records, with ``sys.settrace`` and ``threading.settrace``, every line of
the package that runs in the test process, in the threads it starts too
(child processes are not traced). A line is executable when an instruction of
a code object compiled from its file maps to it (``co_lines``). When the
session ends, the plugin lists each executable line that did not run and is
not in ``ALLOWED``, and each ``ALLOWED`` entry that is stale because its line
is gone or now runs; if it lists any, the run exits 1. It writes no file.
Run it over the whole suite: a subset leaves lines unexecuted.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

import pytest

#: The lines that may stay unexecuted, keyed by the file (relative to the
#: package) and the line's source text without indentation, so that edits
#: elsewhere in the file leave the key intact. The value is the reason.
ALLOWED = {
    ("cli.py", "from neutroset.families import FamilySpec"): "imported for type checkers only",
    ("cli.py", "from neutroset.operators import OperatorSystem"): "imported for type checkers only",
    ("documents.py", "from neutroset.transforms import LabeledSet"): "imported for type checkers only",
    ("cli.py", "sys.exit(main())"): "runs under python -m neutroset.cli, which tests start as a child process",
    ("families.py", "except AttributeError:  # no affinity mask on this platform"):
        "os.cpu_count fallback, for a platform without os.sched_getaffinity",
    ("families.py", "cpus = os.cpu_count() or 1"): "os.cpu_count fallback, for a platform without os.sched_getaffinity",
    ("demos.py", "return {name: fn() for name, fn in EXHIBITS.items()}"): "demos.run_all: only perfbench calls it",
    ("_kernels/__init__.py", 'return "numpy"'): "_kernels.backend_name: only perfbench calls it",
}

#: The package whose lines are traced, relative to the rootdir.
PACKAGE = Path("src", "neutroset")

_tracer_key = pytest.StashKey["_Tracer"]()
_problems_key = pytest.StashKey["list[str]"]()


class _Tracer:
    """Collects the lines that run in the files under one directory."""

    def __init__(self, directory: Path):
        self._prefix = str(directory) + os.sep
        self._lines = {}  # co_filename -> the set of lines run, or None for a file outside the directory

    def trace(self, frame, event, arg):
        filename = frame.f_code.co_filename
        try:
            lines = self._lines[filename]
        except KeyError:
            inside = os.path.realpath(filename).startswith(self._prefix)
            lines = self._lines[filename] = set() if inside else None
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def hits(self) -> dict[str, set[int]]:
        """The lines that ran, by resolved path."""
        out = {}
        for filename, lines in self._lines.items():
            if lines is not None:
                out.setdefault(os.path.realpath(filename), set()).update(lines)
        return out


def executable_lines(source: str, filename: str) -> set[int]:
    """The lines of ``source`` that an instruction of its compiled code maps to."""
    lines = set()
    stack = [compile(source, filename, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def problems(directory: Path, hits: dict[str, set[int]], allowed: dict) -> list[str]:
    """One message per unexecuted line outside ``allowed`` and per stale entry of ``allowed``."""
    out = []
    used = set()
    ran_by_key = {}
    for path in sorted(directory.rglob("*.py")):
        rel = path.relative_to(directory).as_posix()
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        ran = hits.get(str(path.resolve()), set())
        for line in sorted(executable_lines(source, str(path))):
            key = (rel, text[line - 1].strip())
            if line in ran:
                ran_by_key.setdefault(key, line)
            elif key in allowed:
                used.add(key)
            else:
                out.append(f"{rel}:{line}: not executed: {key[1]}")
    for key in sorted(allowed.keys() - used):
        if key in ran_by_key:
            out.append(f"{key[0]}:{ran_by_key[key]}: allowlisted but executed: {key[1]}")
        else:
            out.append(f"{key[0]}: allowlisted line not found: {key[1]}")
    return out


def pytest_configure(config):
    tracer = _Tracer((config.rootpath / PACKAGE).resolve())
    config.stash[_tracer_key] = tracer
    threading.settrace(tracer.trace)
    sys.settrace(tracer.trace)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    config = session.config
    found = problems(config.rootpath / PACKAGE, config.stash[_tracer_key].hits(), ALLOWED)
    config.stash[_problems_key] = found
    if found and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    found = config.stash.get(_problems_key, [])
    terminalreporter.section("linetrace")
    for message in found:
        terminalreporter.write_line(message)
    terminalreporter.write_line(
        f"{len(found)} problem(s); {len(ALLOWED)} allowlisted line(s) under {PACKAGE.as_posix()}"
    )
