"""The line tracer's verdict (``tools/linetrace.py``): unexecuted lines and stale allowlist entries fail the run."""

import importlib.util
from pathlib import Path

_PLUGIN = Path(__file__).parents[1] / "tools" / "linetrace.py"
_spec = importlib.util.spec_from_file_location("linetrace_under_test", _PLUGIN)
linetrace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(linetrace)

SOURCE = "def f():\n    return 1\n\n\ndef g():\n    return 2\n"


def package_with_one_module(tmp_path) -> tuple[Path, str]:
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "m.py").write_text(SOURCE)
    return package, str((package / "m.py").resolve())


def test_executable_lines_are_those_compiled_code_maps_to():
    assert linetrace.executable_lines(SOURCE, "m.py") == {1, 2, 5, 6}


def test_an_unexecuted_line_is_named_by_file_and_line(tmp_path):
    package, path = package_with_one_module(tmp_path)
    assert linetrace.problems(package, {path: {1, 2, 5}}, {}) == ["m.py:6: not executed: return 2"]
    assert linetrace.problems(package, {path: {1, 2, 5, 6}}, {}) == []


def test_an_allowlist_entry_covers_its_line_and_a_stale_one_is_named(tmp_path):
    package, path = package_with_one_module(tmp_path)
    allowed = {("m.py", "return 2"): "reason", ("m.py", "return 1"): "reason", ("m.py", "return 3"): "reason"}
    assert linetrace.problems(package, {path: {1, 2, 5}}, allowed) == [
        "m.py:2: allowlisted but executed: return 1",
        "m.py: allowlisted line not found: return 3",
    ]


def test_every_allowlist_entry_gives_a_reason():
    assert all(isinstance(reason, str) and reason for reason in linetrace.ALLOWED.values())
