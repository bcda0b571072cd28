"""The CLI contract under fuzzing: mutated documents and flags the parser itself offers.

Whatever the input, a call exits 0, 1 or 2 and prints no traceback. Exit 2
prints one ``error:`` (or ``document error:``) line, or argparse's usage
followed by one ``error:`` line. A component out of range is reported with
the name of its element. Where stdout fails, the input is not at fault: a
closed pipe ends the call quietly with the command's own status, and any
other failed write exits 4 with one ``error:`` line.
"""

import argparse
import contextlib
import copy
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import neutroset
from neutroset import cli

#: One valid document per family shape; element "c" of NS sums to zero, which normalize rejects.
BASES = {
    "NS": ({"kind": "NS"}, [[0.2, 0.3, 0.4], [0.9, 0.8, 0.7], [0, 0, 0]]),
    "IIFS": ({"kind": "IIFS"}, [[0.2, 0.3, 0.4], [0.5, 0.1, 0.1], [0.1, 0.1, 0.1]]),
    "IFS": ({"kind": "IFS"}, [[0.5, 0.3], [0.2, 0.8], [0, 1]]),
    "FS": ({"kind": "FS"}, [[0.5, 0.3], [1, 1], [0.0, 0.0]]),
    "PyFS": ({"kind": "PyFS"}, [[0.9, 0.2], [0.6, 0.6], [0, 0]]),
    "QROFS": ({"kind": "QROFS", "exponent": 3}, [[0.9, 0.6], [0.5, 0.5], [1, 0]]),
    "SFS": ({"kind": "SFS"}, [[0.5, 0.5, 0.5], [0.9, 0.4, 0.1], [0, 0, 1]]),
    "NHSFS": ({"kind": "NHSFS", "exponent": 3}, [[0.7, 0.6, 0.5], [0.2, 0.2, 0.2], [1, 0, 0]]),
    "SNS": ({"kind": "SNS"}, [[1.2, 0.3, 0.4], [0.5, 0.5, 0.5], [1.7, 0, 0]]),
    "NHSNS": ({"kind": "NHSNS", "exponent": 2}, [[1.2, 0.5, 0.5], [0.1, 0.2, 0.3], [0, 0, 1.7]]),
}
NAMES = ["a", "b", "c"]

#: Component values outside the range of every family: the widest cap is sqrt(3), under SNS.
OUT_OF_RANGE = [float("nan"), float("inf"), float("-inf"), 10**400, -(10**400), -0.5, -1e-300, 4.0]
#: Other values a component may be given: out of range for some families only, or not numbers at all.
ODD_COMPONENTS = [1.5, 1.0000000001, 1e-320, -0.0, True, False, None, "0.5", [0.5], {}]
ODD_VALUES = [float("nan"), float("inf"), 10**400, -1, 0, 0.5, True, None, "abc", "1", [1], {}]


def base_document(family: str) -> dict:
    tag, rows = BASES[family]
    return {"format_version": 1, "family": dict(tag), "universe": list(NAMES),
            "elements": {name: list(row) for name, row in zip(NAMES, rows)}}


def set_component(doc, name, position, value):
    row = doc["elements"][name]
    row[position % len(row)] = value


def mutate(doc: dict, mutation: tuple) -> bytes:
    """The document's text after one mutation."""
    doc = copy.deepcopy(doc)
    kind, *args = mutation
    if kind == "component":
        set_component(doc, *args)
    elif kind == "arity":
        name, grow = args
        row = doc["elements"][name]
        doc["elements"][name] = row + [0.1] if grow else row[:-1]
    elif kind == "duplicate":
        doc["universe"].append(args[0])
    elif kind == "field":
        path, value = args
        *parents, key = path
        node = doc
        for p in parents:
            node = node[p]
        node[key] = value
    elif kind == "drop":
        path = args[0]
        node = doc
        for p in path[:-1]:
            node = node[p]
        node.pop(path[-1], None)
    elif kind == "nested":
        # deeper than json.loads can recurse, in place of one element's components
        name = args[0]
        marker = "__nested__"
        doc["elements"][name] = marker
        return json.dumps(doc).replace(json.dumps(marker), "[" * 100_000 + "]" * 100_000).encode()
    elif kind == "text":
        return args[0]
    return json.dumps(doc).encode()


names = st.sampled_from(NAMES)
positions = st.integers(0, 2)
mutations = st.one_of(
    st.just(("none",)),
    st.tuples(st.just("component"), names, positions, st.sampled_from(OUT_OF_RANGE + ODD_COMPONENTS)),
    st.tuples(st.just("arity"), names, st.booleans()),
    st.tuples(st.just("duplicate"), names),
    st.tuples(
        st.just("field"),
        st.sampled_from([("format_version",), ("family", "kind"), ("family", "exponent"), ("family",),
                         ("universe",), ("elements",), ("elements", "z"), ("universe", 0)]),
        st.sampled_from(ODD_VALUES + [2, "NS", "IIFS", "PyFS", [], ["a", "b"]]),
    ),
    st.tuples(st.just("drop"), st.sampled_from([("format_version",), ("family",), ("family", "kind"),
                                                ("universe",), ("elements",), ("elements", "b")])),
    st.tuples(st.just("nested"), names),
    st.tuples(st.just("text"), st.sampled_from([b"", b"{", b"null", b"[]", b"NaN", b"\xff\xfe{}", b'{"a": 1'])),
)

#: Values for flags and positionals without choices, as (accepted, rejected) by the command.
INTS = (["0", "1", "2", "7", "1000"], ["-1", "x", "1e3"])
FLOATS = (["0", "0.3", "0.5", "0.7", "1", "2", "2.5", "1e15"], ["-1", "nan", "inf", "1e400", "x"])
TEXT = {
    "family": (["NS", "IFS", "IIFS", "PyFS", "QROFS", "SFS", "NHSNS", "FS", "pfs"], ["XYZ", ""]),
    "system": (["NS", "IFS", "IIFS-max", "IIFS-min", "iifs-MAX"], ["bogus"]),
    "kind": (["RFS", "RIFS", "RIIFS", "RNS", "RPyFS", "RSFS", "RQROFS", "RNHSNS"], ["bogus"]),
    "truths": (["0.5", "0.2,0.3", "0.9"], ["1.5", "x", "nan", ""]),
    "indets": (["", "0.1", "0.2,0.2"], ["x", "-1"]),
    "falses": (["", "0.2", "0.3,0.1"], ["-1", "inf"]),
    "scores": (["0.9,0.5,0.1", "0.55"], ["", "x,1", "nan"]),
    "cuts": (["0.25,0.5,0.75", "0.5", "0.7,0.3"], ["x", "0.5,nan"]),
    "arities": (["2,1,1", "1,1"], ["1,x,2", "0,0"]),
    "sizes": (["a=1,b=2", "a=0.5"], ["a=x", "a=1,a=2", "a"]),
    "groups": (["a=accept,b=reject", "a=neutral,b=accept"], ["a=maybe", "a"]),
    "amounts": (["0.5,1.2,-0.1", "0.3"], ["x", ""]),
    "names": (["section21", "counterexample1"], ["nope"]),
}


def parser_actions(parser: argparse.ArgumentParser) -> list:
    return [a for a in parser._actions if not isinstance(a, (argparse._HelpAction, argparse._SubParsersAction))]


def subparsers(parser: argparse.ArgumentParser) -> dict:
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@st.composite
def argument_values(draw, action, files: dict):
    """One value for ``action``: mostly one the command accepts, now and then one it rejects."""
    if action.dest in ("file", "a", "b"):
        accepted, rejected = [files["a"], files["a"], files["b"], files["graph"]], [files["missing"]]
    elif action.dest == "out":
        accepted, rejected = [files["out"]], [files["missing_dir"]]
    elif action.choices is not None:
        accepted, rejected = list(action.choices), ["bogus"]
    else:
        accepted, rejected = {int: INTS, float: FLOATS}.get(action.type) or TEXT[action.dest]
    return draw(st.sampled_from(rejected if draw(st.integers(0, 7)) == 7 else accepted))


@st.composite
def arguments(draw, parser, files: dict) -> list:
    """Flags and positionals of one parser, each drawn from what the parser declares."""
    argv = []
    for action in parser_actions(parser):
        if action.option_strings:
            # optional flags come up now and then; a required one is left out now and then,
            # so that argparse's own errors come up too
            if draw(st.integers(0, 9)) >= (9 if action.required else 3):
                continue
            argv.append(draw(st.sampled_from(action.option_strings)))
            if action.nargs != 0:
                argv.append(draw(argument_values(action, files)))
        else:
            count = {None: 1, "?": draw(st.integers(0, 1)), "*": draw(st.integers(0, 2))}[action.nargs]
            argv.extend(draw(argument_values(action, files)) for _ in range(count))
    return argv


@st.composite
def command_lines(draw, files: dict) -> list:
    parser = cli.build_parser()
    name = draw(st.sampled_from(sorted(subparsers(parser))))
    head = draw(arguments(parser, files))
    return head + [name] + draw(arguments(subparsers(parser)[name], files))


def run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse: a usage error, or --help
            code = exc.code
    return code, out.getvalue(), err.getvalue()


ONE_ERROR = re.compile(r"(document )?error: \S")
USAGE_ERROR = re.compile(r"neutroset( [\w-]+)?: error: \S")


def reject_constant(token: str):
    raise AssertionError(f"stdout holds {token}, which strict JSON has no number for")


def assert_strict_json(argv, code, out: str) -> None:
    """A call that ran under ``--format json`` prints one strict JSON document.

    ``matrix --emit`` appends the grid, in either format.
    """
    formats = [value for flag, value in zip(argv, argv[1:]) if flag == "--format"]
    if formats[-1:] == ["json"] and code in (0, 1) and "--emit" not in argv:
        json.loads(out, parse_constant=reject_constant)


def assert_contract(code, err: str) -> None:
    assert code in (0, 1, 2), err
    assert "Traceback" not in err
    if code == 2:
        lines = err.splitlines()
        if lines and lines[0].startswith("usage: "):
            # argparse wraps its usage over indented lines, then names the error on one line
            assert all(line.startswith(" ") for line in lines[1:-1]), err
            assert USAGE_ERROR.match(lines[-1]), err
        else:
            assert len(lines) == 1 and ONE_ERROR.match(lines[0]), err


@contextlib.contextmanager
def files_of(family: str, mutation: tuple):
    """The paths a call may name, with the mutated document at "a" and the valid one at "b".

    Each example writes fresh files and removes them at once: rewriting a
    file in place, or removing one written long before, can take tens of
    milliseconds on some file systems.
    """
    with tempfile.TemporaryDirectory() as folder:
        root = Path(folder)
        base = base_document(family)
        (root / "a.json").write_bytes(mutate(base, mutation))
        (root / "b.json").write_text(json.dumps(base))
        (root / "graph.txt").write_text("0 1 I\n1 0 -1\nI -1 0\n")
        paths = {"a": root / "a.json", "b": root / "b.json", "graph": root / "graph.txt",
                 "missing": root / "missing.json", "out": root / "out.json",
                 "missing_dir": root / "no-such-dir" / "out.json"}
        yield {key: str(path) for key, path in paths.items()}


class TestCliContract:
    @settings(max_examples=250, deadline=None)
    @given(st.sampled_from(sorted(BASES)), mutations, st.data())
    def test_any_call_exits_0_1_or_2_without_a_traceback(self, family, mutation, data):
        with files_of(family, mutation) as files:
            argv = data.draw(command_lines(files), label="argv")
            code, out, err = run(argv)
        event(f"{mutation[0]} mutation, exit {code}")
        assert_contract(code, err)
        assert_strict_json(argv, code, out)

    def test_a_non_finite_number_prints_as_null_in_json_and_as_is_in_a_table(self, tmp_path):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"format_version": 1, "family": {"kind": "NHSNS", "exponent": 1e15},
                                    "universe": ["a"], "elements": {"a": [1.0000000005, 0, 0]}}))
        code, out, err = run(["--format", "json", "validate", str(path)])
        assert (code, err) == (1, "")
        assert json.loads(out, parse_constant=reject_constant)["rows"][0]["constraint"] is None
        code, out, _ = run(["validate", str(path)])
        assert code == 1 and "(1.0000000005, 0.0, 0.0)  inf  " in out

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(sorted(BASES)),
        names,
        positions,
        st.sampled_from(OUT_OF_RANGE),
        st.sampled_from([
            ["validate", "{a}"],
            ["transform", "{a}", "--method", "sup"],
            ["transform", "{a}", "--method", "normalize"],
            ["op", "--op", "not", "{a}", "--system", "IIFS-min"],
            ["op", "--op", "and", "{a}", "{b}"],
            ["op", "--op", "implies", "{a}", "{b}", "--system", "IFS"],
        ]),
        st.sampled_from([[], ["--format", "json"], ["--round", "2"], ["--tolerance", "0.5"]]),
    )
    def test_a_component_out_of_range_is_named(self, family, name, position, value, command, flags):
        with files_of(family, ("component", name, position, value)) as files:
            code, out, err = run(flags + [arg.format(**files) for arg in command])
        assert_contract(code, err)
        assert (code, out) == (2, "")
        assert err.startswith(f"document error: element {name!r} invalid: component"), err

    @pytest.mark.parametrize(
        "argv",
        [
            ["decide", "offset", "--amounts", "-20,45", "--norm", "40"],
            ["decide", "three-ways", "--scores", "-0.5,0.9", "--alpha", "0.7", "--beta", "0.3"],
            ["decide", "offset", "--amou", "-20,45", "--norm", "40"],
        ],
        ids=["offset-amounts", "three-ways-scores", "offset-amounts-prefix"],
    )
    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_a_number_list_may_start_with_a_negative_value(self, argv, fmt):
        flag = next(k for k, token in enumerate(argv) if token.startswith("--"))
        joined = argv[:flag] + [f"{argv[flag]}={argv[flag + 1]}"] + argv[flag + 2:]
        code, out, err = run(["--format", fmt, *argv])
        assert (code, err) == (0, "")
        assert (code, out, err) == run(["--format", fmt, *joined])

    def test_an_unknown_option_after_a_negative_list_still_exits_2(self):
        code, out, err = run(["decide", "offset", "--amounts", "-20,45", "--norm", "40", "--bogus"])
        assert_contract(code, err)
        assert (code, out) == (2, "") and err.endswith("error: unrecognized arguments: --bogus\n")

    @pytest.mark.parametrize("argv, code", [
        (["--format", "json", "demo", "--all"], 0),
        (["--help"], 0),
        (["validate", "{a}"], 0),
        (["validate", "{a}", "--family", "IIFS"], 1),
    ])
    def test_a_closed_pipe_ends_the_call_quietly_with_its_own_status(self, argv, code):
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader: the first write fails with EPIPE
        try:
            with files_of("NS", ("none",)) as files:
                assert run_child([arg.format(**files) for arg in argv], write_end) == (code, "")
        finally:
            os.close(write_end)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("argv", [["--format", "json", "demo", "--all"], ["--help"]])
    def test_a_failed_write_to_stdout_exits_4_with_one_line(self, argv):
        with open("/dev/full", "w") as full:
            code, err = run_child(argv, full)
        assert (code, err) == (4, "error: cannot write the output: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_an_input_error_with_nothing_to_write_is_still_a_usage_error(self, unbuffered):
        """A call that prints nothing writes nothing: unbuffered, even an empty write reaches /dev/full and fails."""
        with files_of("NS", ("none",)) as files, open("/dev/full", "w") as full:
            code, err = run_child(["validate", files["missing"]], full, PYTHONUNBUFFERED=unbuffered)
        assert code == 2 and err == f"error: [Errno 2] No such file or directory: {files['missing']!r}\n"

    def test_out_into_a_missing_directory_is_still_a_usage_error(self):
        with files_of("NS", ("none",)) as files:
            code, err = run_child(["op", "--op", "not", files["a"], "--out", files["missing_dir"]],
                                  subprocess.DEVNULL)
        assert code == 2 and err == f"error: [Errno 2] No such file or directory: {files['missing_dir']!r}\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("command", [["op", "--op", "not", "{a}"], ["transform", "{a}", "--method", "sup"]])
    def test_a_failed_write_to_out_exits_4_with_one_line(self, command):
        """The result document opens on /dev/full but cannot be written: the output's fault, not the input's."""
        err = "error: cannot write the output: [Errno 28] No space left on device\n"
        with files_of("NS", ("none",)) as files:
            argv = ["--format", "json", *(arg.format(**files) for arg in command), "--out", "/dev/full"]
            assert run_child(argv, subprocess.DEVNULL) == (4, err)
            assert run(argv) == (4, "", err)  # in process too, where the line tracer sees it

    @pytest.mark.parametrize("error, code, err", [
        (BrokenPipeError(errno.EPIPE, "Broken pipe"), 0, ""),
        (OSError(errno.ENOSPC, "No space left on device"),
         4, "error: cannot write the output: [Errno 28] No space left on device\n"),
    ])
    def test_what_stays_unwritten_goes_to_devnull(self, tmp_path, error, code, err):
        """In process: after a failed write, stdout's descriptor is devnull, so the flush at exit cannot fail."""

        class FailingStdout(io.StringIO):
            def write(self, text):
                raise error

            def fileno(self):
                return fd

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            out, errors = FailingStdout(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(errors):
                assert cli.main(["demo", "--list"]) == code
            assert errors.getvalue() == err
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)


def run_child(argv, stdout, **variables) -> tuple[int, str]:
    """Exit status and stderr of ``python -m neutroset.cli`` with ``argv``, its stdout at ``stdout``.

    The child's stdout is block-buffered, as a plain call's is, so that what stays in the buffer is flushed at exit,
    unless ``variables`` (environment variables for the child) set ``PYTHONUNBUFFERED``.
    """
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(variables, PYTHONPATH=str(Path(neutroset.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-m", "neutroset.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
                           env=env, text=True, timeout=60)
    assert "Traceback" not in child.stderr
    return child.returncode, child.stderr


# Well-formed calls only: valid documents, and flags and values each command accepts. Every such call
# exits 0 or 1 and, under --format json, prints one strict JSON document.

COMMANDS = ["validate", "op", "transform", "decide", "volume"]
#: Exponents for the families that take one, as ``--exponent`` gives them.
EXPONENTS = {"QROFS": ["2", "3"], "NHSFS": ["2", "2.5"], "NHSNS": ["1.5", "2"]}
#: Families a document of each family in ``BASES`` may be validated under instead of its own: pairs stay
#: pairs, and components above 1 fit only the SNS caps.
PAIRS, ABOVE_1 = ["IFS", "FS", "PyFS", "QROFS"], ["SNS", "NHSNS"]
TRIPLETS = ["NS", "IIFS", "SFS", "NHSFS", *ABOVE_1]
OVERRIDES = {family: PAIRS if family in PAIRS else ABOVE_1 if family in ABOVE_1 else TRIPLETS for family in BASES}
#: Operand families, and the systems each one's sets are operands of (those whose family includes it).
SYSTEMS = {"IFS": ["IFS", "IIFS-max", "IIFS-min", "NS"], "IIFS": ["IIFS-max", "IIFS-min", "NS"], "NS": ["NS"]}
ARITIES = ["1,1,2", "1,2,1", "2,1,1", "2,2,2", "3,1,3"]

eighths = st.integers(0, 8)
scores = st.lists(st.sampled_from(["0", "0.1", "0.25", "0.5", "0.55", "0.9", "1"]), min_size=1, max_size=5).map(
    ",".join)


@st.composite
def operand_document(draw, family: str, n: int) -> dict:
    """A valid ``family`` (NS, IIFS or IFS) document of ``n`` elements, each with a nonzero component sum."""
    elements = {}
    for k in range(n):
        weights = draw(st.permutations([draw(st.integers(1, 8)), draw(eighths), draw(eighths)]))
        if family == "NS":
            row = [w / 8 for w in weights]
        else:
            total = sum(weights) + (draw(eighths) if family == "IIFS" else 0)
            row = [w / total for w in weights]
        elements[f"e{k}"] = [row[0], row[2]] if family == "IFS" else row
    return {"format_version": 1, "family": {"kind": family}, "universe": list(elements), "elements": elements}


def family_flags(draw, families: list) -> list:
    family = draw(st.sampled_from(families))
    exponent = ["--exponent", draw(st.sampled_from(EXPONENTS[family]))] if family in EXPONENTS else []
    return ["--family", family, *exponent]


@st.composite
def well_formed_calls(draw, root: Path) -> list:
    """One ``validate``, ``op``, ``transform``, ``decide`` or ``volume`` call the command accepts."""
    n = draw(st.integers(1, 4))

    def operand(name: str, family: str | None = None) -> str:
        doc = draw(operand_document(family or draw(st.sampled_from(sorted(SYSTEMS))), n))
        path = root / f"{name}.json"
        path.write_text(json.dumps(doc))
        return str(path)

    command = draw(st.sampled_from(COMMANDS))
    if command == "validate":
        family = draw(st.sampled_from(sorted(BASES)))
        if family in SYSTEMS and draw(st.booleans()):
            path = operand("a", family)
        else:
            path = root / "a.json"
            path.write_text(json.dumps(base_document(family)))
        argv = ["validate", str(path), *(family_flags(draw, OVERRIDES[family]) if draw(st.booleans()) else [])]
    elif command == "op":
        op = draw(st.sampled_from(["and", "or", "implies", "not"]))
        a_family, b_family = draw(st.sampled_from(sorted(SYSTEMS))), draw(st.sampled_from(sorted(SYSTEMS)))
        operands = [operand("a", a_family)] + ([operand("b", b_family)] if op != "not" else [])
        systems = SYSTEMS[a_family] if op == "not" else [s for s in SYSTEMS[a_family] if s in SYSTEMS[b_family]]
        argv = ["op", "--op", op, *operands, "--system", draw(st.sampled_from(systems)),
                # a dual pair: the IFS system's results leave T + F <= 1 only under those
                *draw(st.sampled_from([["--tnorm", "min", "--tconorm", "max"],
                                       ["--tnorm", "product", "--tconorm", "probsum"]])),
                "--overflow", draw(st.sampled_from(["output", "printed"]))]
    elif command == "transform":
        argv = ["transform", operand("a"), "--method", draw(st.sampled_from(["sup", "normalize"]))]
    elif command == "volume":
        argv = ["volume", *family_flags(draw, sorted(BASES)),
                "--samples", str(draw(st.integers(1, 3000))), "--seed", str(draw(st.integers(0, 99)))]
    else:
        mode = draw(st.sampled_from(["three-ways", "n-ways", "neutrosophify", "offset"]))
        argv = ["decide", mode]
        if mode == "three-ways":
            alpha, beta = draw(st.sampled_from([("0.7", "0.3"), ("0.5", "0.4"), ("1", "0")]))
            argv += ["--scores", draw(scores), "--alpha", alpha, "--beta", beta]
        elif mode == "n-ways":
            arities = draw(st.sampled_from(ARITIES))
            bands = sum(map(int, arities.split(",")))
            cuts = ",".join(f"{k / bands:.4f}" for k in range(1, bands))
            argv += ["--scores", draw(scores), "--cuts", cuts, "--arities", arities]
        elif mode == "neutrosophify":
            sizes = [draw(st.integers(1, 8))] + draw(st.lists(eighths, max_size=2))
            groups = [draw(st.sampled_from(["accept", "neutral", "reject"])) for _ in sizes]
            argv += ["--sizes", ",".join(f"l{k}={v}" for k, v in enumerate(sizes)),
                     "--groups", ",".join(f"l{k}={g}" for k, g in enumerate(groups))]
        else:
            argv += ["--amounts", draw(st.sampled_from(["0.5,1.2,-0.1", "0.3", "0,0.5,1"])),
                     "--norm", draw(st.sampled_from(["1", "2.5"])),
                     "--under", draw(st.sampled_from(["0", "-0.5"])), "--over", draw(st.sampled_from(["1", "1.5"]))]
    if command in ("op", "transform") and draw(st.booleans()):
        argv += ["--out", str(root / "out.json")]
    extra = draw(st.sampled_from([[], ["--round", "3"], ["--tolerance", "0.01"]]))
    # the global flags go before the command or after it
    return ["--format", "json", *extra, *argv] if draw(st.booleans()) else [*argv, "--format", "json", *extra]


class TestWellFormedCalls:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_a_well_formed_call_exits_0_or_1_and_prints_one_json_document(self, data):
        with tempfile.TemporaryDirectory() as folder:
            argv = data.draw(well_formed_calls(Path(folder)), label="argv")
            code, out, err = run(argv)
        event(f"{next(arg for arg in argv if arg in COMMANDS)}, exit {code}")
        assert_contract(code, err)
        assert code in (0, 1), err
        json.loads(out, parse_constant=reject_constant)
