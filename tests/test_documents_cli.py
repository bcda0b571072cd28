import importlib
import json
import math
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from test_cli_contract import ODD_COMPONENTS, OUT_OF_RANGE

import neutroset
from neutroset import cli, documents
from neutroset.core import ComponentRangeError, IntervalValue, Triplet, UsageError
from neutroset.families import FamilyKind, FamilySpec, embed_into_ns
from neutroset.indeterminacy import AdjacencyKind
from neutroset.operators import Op, OperatorSystem, SystemKind, setwise
from neutroset.transforms import LabeledSet

A_N_DOC = {
    "format_version": 1,
    "family": {"kind": "NS"},
    "universe": ["x1", "x2"],
    "elements": {"x1": [0.8, 0.3, 0.5], "x2": [0.9, 0.2, 0.6]},
}

B_N_DOC = {
    "format_version": 1,
    "family": {"kind": "NS"},
    "universe": ["x1", "x2"],
    "elements": {"x1": [0.2, 0.1, 0.3], "x2": [0.6, 0.2, 0.1]},
}


@pytest.fixture
def doc_paths(tmp_path):
    a = tmp_path / "a_n.json"
    b = tmp_path / "b_n.json"
    a.write_text(json.dumps(A_N_DOC))
    b.write_text(json.dumps(B_N_DOC))
    return a, b


class TestDocuments:
    def test_round_trip_preserves_full_precision(self, tmp_path):
        values = [0.1234567890123456, 1 / 3, 0.9999999999999999]
        doc = documents.loads(
            json.dumps(
                {
                    "format_version": 1,
                    "family": {"kind": "NS"},
                    "universe": ["e"],
                    "elements": {"e": values},
                }
            )
        )
        path = tmp_path / "doc.json"
        path.write_text(documents.dumps(doc), encoding="utf-8")
        again = documents.loads(path.read_text(encoding="utf-8"))
        assert again.components[0] == tuple(values)
        assert again == doc

    def test_family_aliases(self):
        assert documents.family_from_tag("pfs").kind is FamilyKind.IIFS
        assert documents.family_from_tag("q-rofs", 2).kind is FamilyKind.QROFS
        assert documents.family_from_tag("ns").kind is FamilyKind.NS

    def test_invalid_elements_rejected_on_load(self):
        bad = dict(A_N_DOC, family={"kind": "IIFS"})
        with pytest.raises(documents.DocumentError, match="x1"):
            documents.loads(json.dumps(bad))

    def test_bad_version(self):
        with pytest.raises(documents.DocumentError, match="format_version"):
            documents.loads(json.dumps(dict(A_N_DOC, format_version=99)))

    def test_arity_mismatch(self):
        bad = dict(A_N_DOC, family={"kind": "PyFS"})
        with pytest.raises(documents.DocumentError, match="components"):
            documents.loads(json.dumps(bad))

    def test_missing_element(self):
        bad = dict(A_N_DOC, elements={"x1": [0.8, 0.3, 0.5]})
        with pytest.raises(documents.DocumentError, match="x2"):
            documents.loads(json.dumps(bad))

    def test_empty_universe(self):
        bad = dict(A_N_DOC, universe=[], elements={})
        with pytest.raises(documents.DocumentError, match="empty"):
            documents.loads(json.dumps(bad))

    def test_pair_document_loads(self):
        doc = documents.loads(
            json.dumps(
                {
                    "format_version": 1,
                    "family": {"kind": "PyFS"},
                    "universe": ["e"],
                    "elements": {"e": [0.9, 0.2]},
                }
            )
        )
        assert doc.components == ((0.9, 0.2),)

    @pytest.mark.parametrize("row", [[0.1, 0.2, 0.3], [0.1, Fraction(1, 5), 0.3], [0, 1, 0.5]])
    def test_list_rows_become_tuple_rows(self, row):
        """A document built with list rows makes the set its Triplets make: tuple rows, hashable."""
        ns = FamilySpec(FamilyKind.NS)
        s = documents.ElementSetDocument(family=ns, universe=("x",), components=(row,)).to_labeled_set()
        want = LabeledSet(("x",), [Triplet(*row)], ns)
        assert s.rows == (tuple(row),) and type(s.rows[0]) is tuple
        assert s == want and hash(s) == hash(want)


def json_layout(doc: documents.ElementSetDocument) -> str:
    """The text ``dumps`` must write: the payload through ``json.dumps(indent=2)``."""
    family = {"kind": doc.family.kind.value}
    if doc.family.exponent is not None:
        family["exponent"] = doc.family.exponent
    payload = {
        "format_version": documents.FORMAT_VERSION,
        "family": family,
        "universe": list(doc.universe),
        "elements": {name: [float(v) for v in row] for name, row in zip(doc.universe, doc.components)},
    }
    return json.dumps(payload, indent=2) + "\n"


#: Component values of every type a document may carry, NaN and infinities included.
dump_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0, 1, -0.0, 0.0, 1e-300, 5e-324, 1e16]),
    st.integers(-(10**6), 10**6),
    st.fractions(max_denominator=1000),
)


class TestDumps:
    """``dumps`` lays rows out itself; its bytes are the json module's."""

    @pytest.mark.parametrize(
        "family,universe,components",
        [
            (FamilySpec(FamilyKind.NS), ("x",), ((0.1, 0.2, 0.3),)),
            (FamilySpec(FamilyKind.IIFS), ("\u00e9l\u00e9ment", "\u65e5\u672c", 'q"\\\n'), ((1, 0, 0), (-0.0, 0.5, 0.25), (0, 0, 1))),
            (FamilySpec(FamilyKind.QROFS, 3), ("a", "b"), ((1, 0), (Fraction(1, 3), 0.5))),
            (FamilySpec(FamilyKind.NHSNS, 2.5), ("a",), ((1.2, 0.0, 1e-300),)),
            (FamilySpec(FamilyKind.NS), ("a", "b"), ((float("nan"), 0, 0), (0, float("inf"), 1))),
        ],
    )
    def test_same_bytes_as_json(self, family, universe, components):
        doc = documents.ElementSetDocument(family, universe, components)
        assert documents.dumps(doc) == json_layout(doc)

    @pytest.mark.parametrize(
        "universe,components",
        [
            (("a", "b", "a"), ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6), (0.7, 0.8, 0.9))),
            (("a", "a", "b"), ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))),
            (("a", "b"), ((0.1, 0.2, 0.3),)),
            (("a",), ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))),
            ((1, "b"), ((0.1, 0.2, 0.3), (0.4, 0.5, 0.6))),
            ((None,), ((0.1, 0.2, 0.3),)),
            ((), ()),
            (("a", "b"), ((), (0.4,))),
            (("a", "b"), ((0.1, 0.2, 0.3), (0.4, 0.5))),
            (("a",), ((0.1, 0.2),)),
        ],
        ids=["name-given-twice", "name-twice-one-row-short", "two-names-one-row", "one-name-two-rows",
             "int-name", "none-name", "empty-universe", "mixed-row-lengths", "one-row-short", "pair-row-in-ns"],
    )
    def test_refuses_a_shape_loads_refuses(self, universe, components):
        doc = documents.ElementSetDocument(FamilySpec(FamilyKind.NS), universe, components)
        with pytest.raises(documents.DocumentError, match=r"^cannot write: a document needs distinct text names"):
            documents.dumps(doc)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([FamilySpec(FamilyKind.NS), FamilySpec(FamilyKind.IFS), FamilySpec(FamilyKind.NHSFS, 1.5)]),
        st.lists(st.text(), min_size=1, max_size=6, unique=True),
        st.data(),
    )
    def test_same_bytes_as_json_for_any_names_and_values(self, family, universe, data):
        rows = data.draw(st.lists(st.tuples(*[dump_values] * family.arity), min_size=len(universe),
                                  max_size=len(universe)))
        doc = documents.ElementSetDocument(family, tuple(universe), tuple(rows))
        assert documents.dumps(doc) == json_layout(doc)

    def test_round_trip_of_a_set(self):
        doc = documents.loads(json.dumps(A_N_DOC))
        assert documents.dumps(documents.from_labeled_set(doc.to_labeled_set())) == json_layout(doc)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([FamilySpec(FamilyKind.NS), FamilySpec(FamilyKind.IFS), FamilySpec(FamilyKind.NHSFS, 1.5)]),
        st.lists(st.text(max_size=4), min_size=1, max_size=5, unique=True),
        st.sampled_from([None, None, None, "name-twice", "int-name", "no-names", "row-count", "row-length"]),
        st.data(),
    )
    def test_every_written_document_reads_back(self, family, universe, defect, data):
        """``dumps`` refuses a document exactly when its shape is one ``loads`` refuses, and writes what ``loads`` reads.

        The document read back has the same names, and each component as its float.
        """
        rows = data.draw(st.lists(st.tuples(*[dump_values] * family.arity), min_size=len(universe),
                                  max_size=len(universe)))
        k = data.draw(st.integers(0, len(universe) - 1))
        if defect == "name-twice":
            universe, rows = [*universe, universe[k]], [*rows, rows[k]]
        elif defect == "int-name":
            universe[k] = k
        elif defect == "no-names":
            universe, rows = [], []
        elif defect == "row-count":
            rows = rows[1:] if data.draw(st.booleans()) else [*rows, rows[k]]
        elif defect == "row-length":
            rows[k] = rows[k][1:] if data.draw(st.booleans()) else (*rows[k], 0.5)
        doc = documents.ElementSetDocument(family, tuple(universe), tuple(rows))
        if defect:
            with pytest.raises(documents.DocumentError, match=r"^cannot write: "):
                documents.dumps(doc)
            return
        back = documents.loads(documents.dumps(doc), validate_elements=False)
        assert (back.family, back.universe) == (family, doc.universe)
        assert [list(map(repr, row)) for row in back.components] == [[repr(float(v)) for v in row] for row in rows]

    @pytest.mark.parametrize("kind, arity", [("NS", 3), ("IFS", 2)])
    def test_same_bytes_as_json_for_a_result_of_3000_elements(self, kind, arity):
        rng = random.Random(7)
        universe = [f"x{k:05d}" for k in range(3000)]

        def operand():
            rows = [[rng.random() for _ in range(arity)] for _ in universe]
            if kind == "IFS":
                rows = [[t, f * (1 - t)] for t, f in rows]
            text = json.dumps({"format_version": 1, "family": {"kind": kind}, "universe": universe,
                               "elements": dict(zip(universe, rows))})
            return documents.loads(text).to_labeled_set()

        doc = documents.from_labeled_set(setwise(operand(), operand(), Op.AND, OperatorSystem(SystemKind(kind))))
        assert documents.dumps(doc) == json_layout(doc)

    def test_same_bytes_as_json_for_3000_int_and_fraction_rows(self):
        rng = random.Random(8)
        values = [0, 1, Fraction(1, 3), Fraction(2, 7), 0.5, Fraction(10**20 + 1, 10**21)]
        rows = tuple(tuple(rng.choice(values) for _ in range(3)) for _ in range(3000))
        doc = documents.ElementSetDocument(FamilySpec(FamilyKind.NS), tuple(f"e{k}" for k in range(3000)), rows)
        assert documents.dumps(doc) == json_layout(doc)

    @pytest.mark.parametrize("kind", [FamilyKind.NS, FamilyKind.IFS])
    def test_a_set_of_ints_and_fractions_gives_float_components(self, kind):
        rows = [(1, 0, 0), (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)), (0.5, Fraction(1, 4), Fraction(1, 4))]
        s = LabeledSet(("a", "b", "c"), [Triplet(*row) for row in rows], FamilySpec(kind))
        doc = documents.from_labeled_set(s)
        keep = slice(None) if kind is FamilyKind.NS else slice(None, None, 2)
        assert [[(type(v), v) for v in row] for row in doc.components] == [
            [(float, float(v)) for v in row[keep]] for row in rows
        ]


#: Cells with their kind: "type" for a cell no family reads as a component (a wrong type, a row of the wrong
#: length), "never" for one every family refuses (NaN, the infinities, below 0, too large a float), "some" for a
#: hair past 1, which a family with a larger component cap admits.
BAD_CELLS = [(True, "type"), ("0.5", "type"), (None, "type"), ([0.5], "type"), ("arity", "type"),
             (float("nan"), "never"), (float("inf"), "never"), (float("-inf"), "never"), (-1e-12, "never"),
             (10**400, "never"), (math.nextafter(1.0, 2.0), "some")]
LOADED_FAMILIES = [{"kind": "NS"}, {"kind": "IIFS"}, {"kind": "IFS"}, {"kind": "SNS"}, {"kind": "NHSNS", "exponent": 2}]


class TestBadCells:
    """``loads`` checks every row's type and length before any range, and names the first element to fail."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(LOADED_FAMILIES),
        st.integers(1, 8).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, 2), st.sampled_from(BAD_CELLS)),
                     min_size=1, max_size=2, unique_by=lambda cell: cell[0]),  # one bad cell per element
        )),
        st.booleans(),
        st.data(),
    )
    def test_a_bad_cell_is_blamed_on_its_element(self, tag, bad, validate_elements, data):
        n, cells = bad
        family = documents.family_from_tag(tag["kind"], tag.get("exponent"))
        small = st.one_of(st.floats(0, 1 / 3), st.sampled_from([0, -0.0, 0.25]))  # every row sums to at most 1
        rows = data.draw(st.lists(st.lists(small, min_size=family.arity, max_size=family.arity),
                                  min_size=n, max_size=n))
        for k, position, (cell, _) in cells:
            if cell == "arity":
                rows[k] = rows[k] + [0.0] if position % 2 else rows[k][:-1]
            elif rows[k]:
                rows[k][position % len(rows[k])] = cell
            else:
                rows[k] = [cell]
        universe = [f"e{k}" for k in range(n)]
        text = json.dumps({"format_version": 1, "family": tag, "universe": universe,
                           "elements": dict(zip(universe, rows))})
        blamed = {kind: min([k for k, _, (_, of) in cells if of == kind], default=n) for kind in ("type", "never")}
        out_of_range = {k for k, _, (_, of) in cells if of != "type"}
        if blamed["type"] < n:
            want = re.escape(f"element 'e{blamed['type']}': ") + "(components must|.* takes)"
        elif validate_elements and blamed["never"] < n:
            want = "element 'e(%s)' invalid: " % "|".join(str(k) for k in out_of_range if k <= blamed["never"])
        else:
            event("loads")
            try:
                loaded = documents.loads(text, validate_elements)
            except documents.DocumentError as exc:  # a hair past 1, where the family refuses it
                assert validate_elements
                assert re.match("element 'e(%s)' invalid: " % "|".join(map(str, out_of_range)), str(exc))
            else:
                assert repr(loaded.components) == repr(tuple(map(tuple, rows)))
            return
        event("raises")
        with pytest.raises(documents.DocumentError, match=f"^{want}"):
            documents.loads(text, validate_elements)


class TestCliValidate:
    def test_valid_under_ns(self, doc_paths, capsys):
        a, _ = doc_paths
        assert cli.main(["validate", str(a)]) == 0
        assert "all_valid: True" in capsys.readouterr().out

    def test_invalid_under_iifs(self, doc_paths, capsys):
        a, _ = doc_paths
        assert cli.main(["validate", str(a), "--family", "IIFS"]) == 1
        out = capsys.readouterr().out
        assert "False" in out

    def test_empty_universe_is_usage_error(self, tmp_path, capsys):
        p = tmp_path / "empty.json"
        p.write_text(json.dumps(dict(A_N_DOC, universe=[], elements={})))
        assert cli.main(["validate", str(p)]) == 2

    def test_json_format(self, doc_paths, capsys):
        a, _ = doc_paths
        assert cli.main(["--format", "json", "validate", str(a)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["all_valid"] is True
        assert payload["rows"][0]["region"] == "paraconsistent"

    @pytest.mark.parametrize("family", [{"kind": "SNS"}, {"kind": "NHSNS", "exponent": 2}])
    def test_extended_family_element_above_one(self, family, tmp_path, capsys):
        p = tmp_path / "extended.json"
        p.write_text(json.dumps({**A_N_DOC, "family": family, "universe": ["x"], "elements": {"x": [1.2, 0.5, 0.5]}}))
        assert cli.main(["--format", "json", "validate", str(p)]) == 0
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["valid"] is True and row["region"] == "paraconsistent"


class TestCliOp:
    def test_intersection_writes_result_document(self, doc_paths, tmp_path, capsys):
        a, b = doc_paths
        out = tmp_path / "c_n.json"
        code = cli.main(["op", "--op", "and", str(a), str(b), "--system", "NS", "--out", str(out)])
        assert code == 0
        doc = documents.loads(out.read_text(encoding="utf-8"))
        assert doc.components == ((0.2, 0.3, 0.5), (0.6, 0.2, 0.6))

    def test_union_document(self, doc_paths, tmp_path):
        a, b = doc_paths
        out = tmp_path / "d_n.json"
        assert cli.main(["op", "--op", "or", str(a), str(b), "--out", str(out)]) == 0
        assert documents.loads(out.read_text(encoding="utf-8")).components == ((0.8, 0.1, 0.3), (0.9, 0.2, 0.1))

    def test_unary_not(self, doc_paths, capsys):
        a, _ = doc_paths
        assert cli.main(["op", "--op", "not", str(a)]) == 0
        assert "(0.5, 0.7, 0.8)" in capsys.readouterr().out

    def test_missing_operand(self, doc_paths, capsys):
        a, _ = doc_paths
        assert cli.main(["op", "--op", "and", str(a)]) == 2

    def test_universe_mismatch(self, doc_paths, tmp_path, capsys):
        a, _ = doc_paths
        other = tmp_path / "other.json"
        other.write_text(
            json.dumps(
                {
                    "format_version": 1,
                    "family": {"kind": "NS"},
                    "universe": ["y1"],
                    "elements": {"y1": [0.1, 0.1, 0.1]},
                }
            )
        )
        assert cli.main(["op", "--op", "and", str(a), str(other)]) == 2

    def test_min_with_probsum_is_refused_outside_ns(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path, row in ((a, [0.5, 0.5]), (b, [0.6, 0.4])):
            path.write_text(json.dumps({"format_version": 1, "family": {"kind": "IFS"}, "universe": ["x"],
                                        "elements": {"x": row}}))
        argv = ["--format", "json", "op", "--op", "and", str(a), str(b), "--tnorm", "min", "--tconorm", "probsum"]
        for system in ("IFS", "IIFS-max", "IIFS-min"):
            assert cli.main([*argv, "--system", system]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: t-norm 'min' with t-conorm 'probsum' can take {system} results "
                                    "outside their family; choose another pair\n")
        assert cli.main([*argv, "--system", "NS"]) == 0
        assert json.loads(capsys.readouterr().out)["rows"][0]["result"] == [0.5, 0.0, 0.7]

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["op", "--op", "not", "{a}", "--out", "{a}"], "input_digest_a"),
            (["op", "--op", "and", "{a}", "{b}", "--out", "{a}"], "input_digest_a"),
            (["op", "--op", "or", "{a}", "{b}", "--out", "{b}"], "input_digest_b"),
            (["transform", "{a}", "--method", "sup", "--out", "{a}"], "input_digest"),
        ],
        ids=["not-over-a", "and-over-a", "or-over-b", "transform-over-input"],
    )
    def test_out_over_its_own_input_reports_the_input_digest(self, doc_paths, capsys, argv, key):
        import hashlib

        a, b = doc_paths
        target = a if "{a}" == argv[-1] else b
        before = target.read_bytes()
        assert cli.main(["--format", "json", *(arg.format(a=a, b=b) for arg in argv)]) == 0
        assert target.read_bytes() != before  # the result was written over the input
        assert json.loads(capsys.readouterr().out)[key] == hashlib.sha256(before).hexdigest()[:16]


class TestCliTransform:
    def test_sup_transform(self, doc_paths, tmp_path, capsys):
        a, _ = doc_paths
        out = tmp_path / "a_iifs.json"
        assert cli.main(["transform", str(a), "--method", "sup", "--out", str(out)]) == 0
        doc = documents.loads(out.read_text(encoding="utf-8"))
        assert doc.family.kind is FamilyKind.IIFS
        assert doc.components[0] == pytest.approx((0.8 / 1.8, 0.3 / 1.8, 0.5 / 1.8))

    def test_normalize(self, doc_paths, tmp_path):
        a, _ = doc_paths
        out = tmp_path / "a_ifs.json"
        assert cli.main(["transform", str(a), "--method", "normalize", "--out", str(out)]) == 0
        doc = documents.loads(out.read_text(encoding="utf-8"))
        assert doc.family.kind is FamilyKind.IFS
        # pairs on disk; the derived middle component returns on load
        assert doc.components[0] == pytest.approx((0.5, 0.3125))
        widened = doc.to_labeled_set().element("x1")
        assert tuple(float(v) for v in widened.scalars()) == pytest.approx((0.5, 0.1875, 0.3125))

    def test_table_sizes_columns_from_rounded_values(self, doc_paths, capsys):
        a, _ = doc_paths
        assert cli.main(["--round", "3", "transform", str(a), "--method", "sup"]) == 0
        assert capsys.readouterr().out.splitlines()[3:] == [
            "denominator: 1.8",
            "element  before           after                  refusal",
            "x1       (0.8, 0.3, 0.5)  (0.444, 0.167, 0.278)  0.111  ",
            "x2       (0.9, 0.2, 0.6)  (0.5, 0.111, 0.333)    0.056  ",
        ]


SET_LAYER = Path(__file__).parent / "data" / "set_layer"


def test_set_layer_output_is_pinned_byte_for_byte(capsys, monkeypatch):
    """``op`` for every system, norm pair and operator, and both transforms, on the checked-in documents.

    A few JSON calls ride along: a ``--round`` transform, ``demo --list`` and a ``refined`` residual.

    ``calls.txt`` holds one argument line per call; ``output.txt`` is each
    line after ``$ neutroset`` and then what the call prints, as the CI step
    writes it through the installed entry point.
    """
    monkeypatch.chdir(SET_LAYER.parents[2])  # the calls name the documents from the root of the checkout
    transcript = []
    for line in (SET_LAYER / "calls.txt").read_text(encoding="utf-8").splitlines():
        assert cli.main(line.split()) == 0, line
        transcript.append(f"$ neutroset {line}\n{capsys.readouterr().out}")
    assert "".join(transcript).encode() == (SET_LAYER / "output.txt").read_bytes()


SET_ERRORS = Path(__file__).parent / "data" / "set_errors"


def test_set_layer_errors_are_pinned_byte_for_byte(capsys, monkeypatch):
    """``op`` and ``transform`` calls that fail, each with the error line and exit code it gives, and a failed ``matrix`` check.

    ``calls.txt`` holds one argument line per call; ``errors.txt`` is each
    line after ``$ neutroset``, then what the call writes and ``exit`` with
    its code. A usage or document error (exit 2) writes only to stderr, and
    a failed check (exit 1) writes its report only to stdout.
    """
    monkeypatch.chdir(SET_ERRORS.parents[2])  # the calls name the documents from the root of the checkout
    transcript = []
    for line in (SET_ERRORS / "calls.txt").read_text(encoding="utf-8").splitlines():
        code = cli.main(line.split())
        out, err = capsys.readouterr()
        assert (out if code == 2 else err) == "", line
        transcript.append(f"$ neutroset {line}\n{out}{err}exit {code}\n")
    assert "".join(transcript).encode() == (SET_ERRORS / "errors.txt").read_bytes()


class TestCliDemo:
    def test_all_exhibits_pass(self, capsys):
        assert cli.main(["demo", "--all"]) == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        assert "FAIL" not in out

    def test_single_exhibit(self, capsys):
        assert cli.main(["demo", "section21"]) == 0
        out = capsys.readouterr().out
        assert "section21::conjunct_ns" in out

    def test_round_applies_to_the_table(self, capsys):
        assert cli.main(["--round", "1", "demo", "section21"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "PASS  section21::conjunct_ifs  got (0.3, 0.2, 0.5)  want (0.3, 0.2, 0.5)" in out

    def test_unknown_exhibit(self, capsys):
        assert cli.main(["demo", "nonsense"]) == 2

    def test_list(self, capsys):
        assert cli.main(["demo", "--list"]) == 0
        assert "counterexample1" in capsys.readouterr().out

    def test_list_as_json(self, capsys):
        from neutroset import demos

        assert cli.main(["--format", "json", "demo", "--list"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == {"command": "demo --list", "exhibits": list(demos.EXHIBITS)}


class TestCliVolume:
    def test_volume_json(self, capsys):
        code = cli.main(
            ["--format", "json", "volume", "--family", "SFS", "--samples", "20000", "--seed", "42"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert abs(payload["estimate"] - payload["analytic"]) <= 4 * payload["std_error"]
        assert "backend" not in payload

    def test_deterministic_output(self, capsys):
        cli.main(["--format", "json", "volume", "--family", "SFS", "--samples", "5000", "--seed", "3"])
        first = capsys.readouterr().out
        cli.main(["--format", "json", "volume", "--family", "SFS", "--samples", "5000", "--seed", "3"])
        assert capsys.readouterr().out == first


class TestCliMatrix:
    GRID = "0 1 I\n1 0 I\nI I 0\n"

    def test_validate_and_emit_bit_exact(self, tmp_path, capsys):
        p = tmp_path / "g.txt"
        p.write_text(self.GRID)
        assert cli.main(["matrix", str(p), "--kind", "graph", "--emit"]) == 0
        out = capsys.readouterr().out
        assert out.endswith(self.GRID)

    def test_invalid_alphabet_for_graph(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 -1\n-1 0\n")
        assert cli.main(["matrix", str(p), "--kind", "graph"]) == 1
        assert cli.main(["matrix", str(p), "--kind", "cognitive-map"]) == 0

    def test_unparseable_token(self, tmp_path):
        p = tmp_path / "g.txt"
        p.write_text("0 2\n1 0\n")
        assert cli.main(["matrix", str(p)]) == 2

    def test_kind_choices_are_the_adjacency_kinds(self):
        assert list(cli.MATRIX_KINDS) == [k.value for k in AdjacencyKind]
        for kind in AdjacencyKind:
            assert cli.build_parser().parse_args(["matrix", "g.txt", "--kind", kind.value]).kind == kind.value


class TestCliRefinedAndDecide:
    def test_refined_hesitancy(self, capsys):
        code = cli.main(["--format", "json", "refined", "--kind", "RPyFS", "--t", "0.9", "--f", "0.2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["hesitancy"] == pytest.approx(0.3872983346207417)

    def test_refined_refusal(self, capsys):
        argv = ["--format", "json", "refined", "--kind", "RIIFS", "--t", "0.2,0.1", "--i", "0.3", "--f", "0.1"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["refusal"] == 1 - (0 + 0.2 + 0.1 + 0.3 + 0.1)

    def test_refined_invalid_exit(self, capsys):
        assert cli.main(["refined", "--kind", "RPyFS", "--t", "0.9", "--f", "0.5"]) == 1

    def test_three_ways(self, capsys):
        code = cli.main(
            [
                "--format",
                "json",
                "decide",
                "three-ways",
                "--scores",
                "0.9,0.5,0.1",
                "--alpha",
                "0.7",
                "--beta",
                "0.3",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["labels"] == ["accept", "noncommit", "reject"]

    def test_offset(self, capsys):
        code = cli.main(
            ["--format", "json", "decide", "offset", "--amounts", "45,0,-20", "--norm", "40"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["degrees"] == [1.125, 0.0, -0.5]
        assert payload["classification"] == "offset"

    def test_neutrosophify(self, capsys):
        code = cli.main(
            [
                "--format",
                "json",
                "decide",
                "neutrosophify",
                "--sizes",
                "cold=30,medium=20,hot=50",
                "--groups",
                "cold=accept,medium=neutral,hot=reject",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["partition"] == [0.3, 0.2, 0.5]


#: Components a code-built document may hold: those the CLI contract tries, and Fractions in and out of [0, 1].
set_components = st.one_of(
    st.sampled_from(ODD_COMPONENTS + OUT_OF_RANGE),
    st.fractions(min_value=-1, max_value=2, max_denominator=12),
    st.floats(0, 1),
)


class TestExactTypes:
    def test_ifs_document_widens_like_embed_into_ns(self):
        ifs = FamilySpec(FamilyKind.IFS)
        pairs = (
            (1, 0),
            (Fraction(1, 3), Fraction(1, 2)),
            (Fraction(1, 2), Fraction(1, 2) + Fraction(1, 10**10)),
            (0.25, 0.5),
            (0.7, 0.3 + 5e-10),
        )
        doc = documents.ElementSetDocument(ifs, tuple(f"e{k}" for k in range(len(pairs))), pairs)
        got = doc.to_labeled_set().triplets
        assert got[1].i == Fraction(1, 6)
        for trip, pair in zip(got, pairs):
            want = embed_into_ns(pair, ifs)
            assert [(type(v), repr(v)) for v in trip.components()] == [
                (type(v), repr(v)) for v in want.components()
            ]

    @pytest.mark.parametrize("family", [{"kind": "PyFS"}, {"kind": "QROFS", "exponent": 2}, {"kind": "FS"}])
    @pytest.mark.parametrize("validate_elements", [True, False])
    def test_pair_documents_of_other_families_form_no_set(self, family, validate_elements, monkeypatch):
        text = json.dumps({"format_version": 1, "family": family, "universe": ["e"], "elements": {"e": [0.5, 0.5]}})
        doc = documents.loads(text, validate_elements)

        def read(*args):
            raise AssertionError("a row was read")

        # the family is refused before any row is read, checked or widened
        monkeypatch.setattr(documents, "_check_components", read)
        monkeypatch.setattr(documents, "_widened", read)
        described = doc.family.describe()
        with pytest.raises(UsageError, match=rf"^{re.escape(described)} elements are pairs; only IFS pairs widen"):
            doc.to_labeled_set()

    def test_invalid_unvalidated_ifs_document_fails_to_widen(self):
        text = json.dumps(
            {"format_version": 1, "family": {"kind": "IFS"}, "universe": ["e"], "elements": {"e": [0.7, 0.6]}}
        )
        doc = documents.loads(text, validate_elements=False)
        with pytest.raises(UsageError, match=r"^element 'e' \(0\.7, 0\.0, 0\.6\) is not valid under IFS$"):
            doc.to_labeled_set()

    @pytest.mark.parametrize(
        "kind,row,error,match",
        [
            ("IIFS", [0.5, 0.5, 0.5], UsageError, "not valid under IIFS"),
            ("NS", [1.5, 0.5, 0.5], documents.DocumentError, "1.5"),
        ],
    )
    def test_unvalidated_triplet_documents_are_checked_when_they_form_a_set(self, kind, row, error, match):
        doc = {"format_version": 1, "family": {"kind": kind}, "universe": ["a", "e"]}
        valid = documents.loads(json.dumps({**doc, "elements": {"a": [0.1, 0.2, 0.3], "e": [0.3, 0.2, 0.1]}}), False)
        assert valid.to_labeled_set() == documents.loads(documents.dumps(valid)).to_labeled_set()
        invalid = documents.loads(json.dumps({**doc, "elements": {"a": [0.1, 0.2, 0.3], "e": row}}), False)
        with pytest.raises(error, match=match):
            invalid.to_labeled_set()

    @pytest.mark.parametrize("family", [{"kind": "SNS"}, {"kind": "NHSNS", "exponent": 2.0}])
    def test_a_component_no_set_holds_names_its_element(self, family):
        text = json.dumps({"format_version": 1, "family": family, "universe": ["b", "a"],
                           "elements": {"b": [0.1, 0.2, 0.3], "a": [0.3, 1.2, 0.4]}})
        doc = documents.loads(text)  # both families admit components above 1
        with pytest.raises(documents.DocumentError) as caught:
            doc.to_labeled_set()
        assert str(caught.value) == "element 'a' cannot form a set: component value 1.2 outside permitted range"

    @pytest.mark.parametrize("late_row", [(2, 0, 0), (0.2, 0, 0)])
    def test_a_row_past_the_names_is_a_shape_error(self, late_row):
        """A document built in code with fewer names than rows fails on its shape, in range or not."""
        doc = documents.ElementSetDocument(FamilySpec(FamilyKind.NS), ("a",), ((0.1, 0.2, 0.3), late_row))
        with pytest.raises(UsageError, match=r"^1 element names but 2 triplets$"):
            doc.to_labeled_set()

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[set_components] * 3))
    @example((True, 0, 0))
    @example(("a", 0, 0))
    @example((None, 0, 0))
    def test_a_document_row_meets_the_rule_of_triplet(self, row):
        """A code-built NS document forms the set its Triplets form, and fails where they fail."""
        doc = documents.ElementSetDocument(FamilySpec(FamilyKind.NS), ("x",), (row,))
        try:
            want = LabeledSet.from_mapping({"x": row}, FamilySpec(FamilyKind.NS))
        except ComponentRangeError as exc:
            with pytest.raises(documents.DocumentError) as caught:
                doc.to_labeled_set()
            assert str(caught.value) == f"element 'x' cannot form a set: {exc}"
        except UsageError as exc:
            with pytest.raises(UsageError) as caught:
                doc.to_labeled_set()
            assert str(caught.value) == str(exc)
        else:
            got = doc.to_labeled_set()
            assert got == want and [(type(v), repr(v)) for v in got.rows[0]] == [(type(v), repr(v)) for v in row]

    def test_an_interval_component_is_refused_though_a_triplet_takes_it(self):
        """A document holds numbers (``loads`` gives ints and floats), so a code-built one with an interval forms no set."""
        row = (IntervalValue(0.1, 0.2), 0, 0)
        Triplet(*row)
        doc = documents.ElementSetDocument(FamilySpec(FamilyKind.NS), ("x",), (row,))
        with pytest.raises(UsageError) as caught:
            doc.to_labeled_set()
        assert str(caught.value) == "expected a real number, got IntervalValue"

    def test_int_pair_widens_with_an_int_middle(self):
        doc = documents.loads(
            json.dumps(
                {"format_version": 1, "family": {"kind": "IFS"}, "universe": ["e"], "elements": {"e": [1, 0]}}
            )
        )
        trip = doc.to_labeled_set().triplets[0]
        assert trip.components() == (1, 0, 0)
        assert all(type(v) is int for v in trip.components())


class TestMalformedCalls:
    """User errors exit 2 with one line on stderr; an escaping exception fails the test."""

    BAD_EXPONENT = {
        "format_version": 1,
        "family": {"kind": "QROFS", "exponent": "abc"},
        "universe": ["x"],
        "elements": {"x": [0.5, 0.5]},
    }

    def _one_line_error(self, argv, capsys) -> str:
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert len(err.strip().splitlines()) == 1
        return err

    def test_exponent_not_a_number(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(self.BAD_EXPONENT))
        assert "exponent" in self._one_line_error(["validate", str(path)], capsys)

    def test_boolean_exponent_rejected(self):
        with pytest.raises(documents.DocumentError, match="exponent"):
            documents.family_from_tag("QROFS", True)

    def test_negative_seed(self, capsys):
        argv = ["volume", "--family", "SFS", "--samples", "1000", "--seed", "-1"]
        assert "seed" in self._one_line_error(argv, capsys)

    def test_three_ways_without_thresholds(self, capsys):
        argv = ["decide", "three-ways", "--scores", "0.9,0.5,0.1"]
        assert "--alpha" in self._one_line_error(argv, capsys)

    def test_n_ways_non_integer_arity(self, capsys):
        argv = ["decide", "n-ways", "--scores", "0.9,0.6", "--cuts", "0.25,0.5,0.75", "--arities", "1,x,2"]
        assert "1,x,2" in self._one_line_error(argv, capsys)

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5", "-1e-3"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance, doc_paths, capsys):
        argv = ["--format", "json", "--tolerance", tolerance, "validate", str(doc_paths[0])]
        assert "--tolerance" in self._one_line_error(argv, capsys)

    def test_unknown_exhibit(self, capsys):
        assert "nosuch" in self._one_line_error(["demo", "nosuch"], capsys)

    @pytest.mark.parametrize(
        "argv, what",
        [
            (["--format", "json", "decide", "offset", "--amounts", "1,2", "--norm", "1e-320"], "degree of amount 1.0"),
            (["decide", "offset", "--amounts", "1e308", "--norm", "0.5"], "degree of amount 1e+308"),
            (["decide", "neutrosophify", "--sizes", "a=1e308,b=1e308", "--groups", "a=accept,b=reject"], "total"),
            (["decide", "neutrosophify", "--sizes", "a=1e308,b=1e308", "--groups", "a=accept,b=accept"], "total"),
        ],
    )
    def test_decision_arithmetic_that_overflows(self, argv, what, capsys):
        err = self._one_line_error(argv, capsys)
        assert err.startswith(f"error: {what}") and "must be finite, got inf" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["volume", "--family", "NS", "--exponent", "2", "--samples", "1000"],
            ["refined", "--kind", "RNS", "--exponent", "2", "--t", "0.5", "--i", "0.5", "--f", "0.5"],
        ],
    )
    def test_exponent_for_a_family_without_one(self, argv, capsys):
        err = self._one_line_error(argv, capsys)
        assert "exponent" in err and not err.startswith("document error")

    def test_unknown_family_flag_is_no_document_error(self, capsys):
        err = self._one_line_error(["volume", "--family", "bogus", "--samples", "1000"], capsys)
        assert err.startswith("error: unknown family tag 'bogus'")

    def test_document_with_a_stray_exponent(self, tmp_path, capsys):
        path = tmp_path / "stray.json"
        path.write_text(json.dumps({**A_N_DOC, "family": {"kind": "NS", "exponent": 2}}))
        err = self._one_line_error(["validate", str(path)], capsys)
        assert err.startswith("document error: family NS takes no exponent parameter")

    def test_unreadable_inputs(self, tmp_path, capsys):
        assert "Is a directory" in self._one_line_error(["validate", str(tmp_path)], capsys)
        path = tmp_path / "latin1.json"
        path.write_bytes(json.dumps(A_N_DOC).replace("x1", "\u00e9").encode("latin-1"))
        assert "not UTF-8" in self._one_line_error(["validate", str(path)], capsys)

    def test_unknown_system(self, doc_paths, capsys):
        a, b = map(str, doc_paths)
        err = self._one_line_error(["op", "--op", "and", "--system", "bogus", a, b], capsys)
        assert err == "error: unknown system 'bogus'; choose from ['ifs', 'iifs-max', 'iifs-min', 'ns']\n"

    def test_unknown_refined_kind(self, capsys):
        err = self._one_line_error(["refined", "--kind", "RBOGUS", "--t", "0.2"], capsys)
        kinds = "['rfs', 'rifs', 'riifs', 'rnhsns', 'rns', 'rpyfs', 'rqrofs', 'rsfs']"
        assert err == f"error: unknown refined kind 'RBOGUS'; choose from {kinds}\n"

    def test_operand_files_match_the_operator(self, doc_paths, capsys):
        a, b = map(str, doc_paths)
        err = self._one_line_error(["op", "--op", "not", a, b], capsys)
        assert err == f"error: operator 'not' takes one operand file, got a second: {b!r}\n"
        err = self._one_line_error(["op", "--op", "and", a], capsys)
        assert err == "error: operator 'and' needs a second operand file\n"

    def test_system_and_refined_kind_ignore_case(self, doc_paths, capsys):
        assert cli.main(["op", "--op", "not", str(doc_paths[0]), "--system", "nS"]) == 0
        assert cli.main(["refined", "--kind", "rpyfs", "--t", "0.9", "--f", "0.2"]) == 0

    def test_exponent_without_family(self, doc_paths, capsys):
        err = self._one_line_error(["validate", str(doc_paths[0]), "--exponent", "2"], capsys)
        assert err.startswith("error: --exponent needs --family")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("decide three-ways --scores nan,0.9 --alpha 0.7 --beta 0.3", "scores must be finite, got nan"),
            ("--format json decide offset --amounts inf --norm 40", "amount must be finite, got inf"),
            ("decide neutrosophify --sizes a=inf,b=1 --groups a=accept,b=reject", "size of 'a' must be finite, got inf"),
            ("decide neutrosophify --sizes a=1,a=2,b=1 --groups a=accept,b=reject", "size of 'a' given twice"),
            ("decide neutrosophify --sizes a=1,b=1 --groups a=accept,a=reject,b=reject", "group of 'a' given twice"),
            ("decide neutrosophify --sizes a=1 --groups a=bogus", "group must be accept, neutral, or reject, got 'a=bogus'"),
            ("decide three-ways --scores 0.9,x --alpha 0.7 --beta 0.3", "expected comma-separated numbers, got '0.9,x'"),
            ("decide three-ways --scores , --alpha 0.7 --beta 0.3", "scores are empty"),
            ("decide n-ways --scores , --cuts 0.25,0.5,0.75 --arities 1,1,2", "scores are empty"),
        ],
    )
    def test_decide_input_it_cannot_label_or_print(self, argv, message, capsys):
        assert self._one_line_error(argv.split(), capsys) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("refined --kind RIFS --t 0.3", "RIFS needs at least one sub-falsehood"),
            ("refined --kind RIFS --t 0.3 --f -0.1", "subcomponent -0.1 is negative"),
            ("refined --kind RIFS --t , --f 0.1", "at least one sub-truth component is required"),
        ],
    )
    def test_refined_input_it_cannot_split(self, argv, message, capsys):
        assert self._one_line_error(argv.split(), capsys) == f"error: {message}\n"

    @pytest.mark.parametrize(
        "raw, message",
        [
            ([A_N_DOC], "document root must be an object"),
            ({**A_N_DOC, "family": "NS"}, 'missing "family" object with a "kind" tag'),
            ({**A_N_DOC, "universe": ["x1", 2]}, '"universe" must be a list of element names'),
            ({**A_N_DOC, "universe": ["x1", "x2", "x1"]}, "universe contains duplicate element names"),
            ({**A_N_DOC, "elements": [[0.8, 0.3, 0.5]]}, '"elements" must map element names to component arrays'),
            (
                {**A_N_DOC, "elements": {**A_N_DOC["elements"], "x3": [0.1, 0.1, 0.1]}},
                "elements not in universe: ['x3']",
            ),
            (
                {**A_N_DOC, "elements": {**A_N_DOC["elements"], "x2": [0.9, "0.2", 0.6]}},
                "element 'x2': components must be a numeric array",
            ),
            (
                {**A_N_DOC, "elements": {**A_N_DOC["elements"], "x2": [0.9, True, 0.6]}},
                "element 'x2': components must be a numeric array",
            ),
        ],
        ids=["root", "family", "universe", "duplicate-names", "elements", "not-in-universe", "component", "boolean"],
    )
    def test_malformed_document(self, raw, message, tmp_path, capsys):
        with pytest.raises(documents.DocumentError) as info:
            documents.loads(json.dumps(raw))
        assert str(info.value) == message
        path = tmp_path / "malformed.json"
        path.write_text(json.dumps(raw))
        assert self._one_line_error(["validate", str(path)], capsys) == f"document error: {message}\n"

    @pytest.mark.parametrize(
        "value, message",
        [(1.5, "component value 1.5 outside permitted range"), (float("nan"), "component value nan is not finite")],
        ids=["above-one", "nan"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["validate", "{bad}"],
            ["transform", "{bad}", "--method", "sup"],
            ["transform", "{bad}", "--method", "normalize"],
            ["op", "--op", "not", "{bad}"],
            ["op", "--op", "and", "{bad}", "{good}"],
            ["op", "--op", "or", "{good}", "{bad}"],
        ],
        ids=["validate", "sup", "normalize", "not", "and", "or"],
    )
    def test_component_out_of_range_names_its_element(self, value, message, command, doc_paths, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**A_N_DOC, "elements": {**A_N_DOC["elements"], "x2": [value, 0, 0]}}))
        with pytest.raises(documents.DocumentError) as info:
            documents.loads(path.read_text())
        assert str(info.value) == f"element 'x2' invalid: {message}"
        argv = [arg.format(bad=path, good=doc_paths[0]) for arg in command]
        assert self._one_line_error(argv, capsys) == f"document error: element 'x2' invalid: {message}\n"

    def test_range_errors_keep_document_order(self):
        elements = {"x1": [0.5, 0.5, 0.5], "x2": [1.5, 0, 0], "x3": [0.9, 0.9, 0.9]}
        doc = {"format_version": 1, "family": {"kind": "IIFS"}, "universe": ["x1", "x2", "x3"], "elements": elements}
        with pytest.raises(documents.DocumentError, match=r"^element 'x1' invalid: IIFS: constraint value 1\.5"):
            documents.loads(json.dumps(doc))
        elements["x1"] = [0.1, 0.1, 0.1]
        with pytest.raises(documents.DocumentError, match=r"^element 'x2' invalid: component value 1\.5 outside"):
            documents.loads(json.dumps(doc))

    SET_COMMANDS = [["transform", "{doc}", "--method", "sup"], ["transform", "{doc}", "--method", "normalize"],
                    ["op", "--op", "not", "{doc}"], ["op", "--op", "and", "{doc}", "{doc}"]]

    @pytest.mark.parametrize("command", SET_COMMANDS, ids=["sup", "normalize", "not", "and"])
    def test_a_power_past_the_float_range_is_outside_the_bound(self, command, tmp_path, capsys):
        # 1.0000000005 is within the cap 3 ** (1 / 1e15) + tol, but its 1e15-th power overflows a float
        doc = {"format_version": 1, "family": {"kind": "NHSNS", "exponent": 1e15}, "universe": ["a"],
               "elements": {"a": [1.0000000005, 0, 0]}}
        path = tmp_path / "huge-power.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["--format", "json", "validate", str(path)]) == 1
        (row,) = json.loads(capsys.readouterr().out)["rows"]
        assert row["valid"] is False and row["constraint"] is None  # inf, which strict JSON writes as null
        err = self._one_line_error([arg.format(doc=path) for arg in command], capsys)
        assert err == "document error: element 'a' invalid: NHSNS(exponent=1000000000000000.0): constraint value inf vs bound 3\n"

    @pytest.mark.parametrize("command", SET_COMMANDS, ids=["sup", "normalize", "not", "and"])
    def test_a_component_no_set_holds_names_its_element(self, command, tmp_path, capsys):
        doc = {"format_version": 1, "family": {"kind": "SNS"}, "universe": ["b", "a"],
               "elements": {"b": [0.1, 0.2, 0.3], "a": [1.2, 0.3, 0.4]}}
        path = tmp_path / "above-one.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["validate", str(path)]) == 0  # SNS admits components up to sqrt(3)
        capsys.readouterr()
        err = self._one_line_error([arg.format(doc=path) for arg in command], capsys)
        assert err == "document error: element 'a' cannot form a set: component value 1.2 outside permitted range\n"

    def test_an_nhsns_component_no_set_holds_names_its_element(self, tmp_path, capsys):
        doc = {"format_version": 1, "family": {"kind": "NHSNS", "exponent": 2.0}, "universe": ["a", "b"],
               "elements": {"a": [0.5, 0.2, 0.1], "b": [0.1, 0.2, 1.3]}}
        path = tmp_path / "nhsns-above-one.json"
        path.write_text(json.dumps(doc))
        err = self._one_line_error(["op", "--op", "or", str(path), str(path)], capsys)
        assert err == "document error: element 'b' cannot form a set: component value 1.3 outside permitted range\n"

    def test_neutrosophify_size_not_a_number(self, capsys):
        argv = ["decide", "neutrosophify", "--sizes", "a=x", "--groups", "a=accept"]
        assert "a=x" in self._one_line_error(argv, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["volume", "--family", "QROFS", "--exponent", "inf", "--samples", "1000"],
            ["refined", "--kind", "RQROFS", "--exponent", "inf", "--t", "0.5", "--f", "0.5"],
        ],
    )
    def test_exponent_must_be_finite(self, argv, capsys):
        assert "finite" in self._one_line_error(argv, capsys)

    def test_negative_round(self, capsys):
        argv = ["--round", "-1", "decide", "three-ways", "--scores", "0.55", "--alpha", "0.7", "--beta", "0.3"]
        assert "--round" in self._one_line_error(argv, capsys)

    def test_deeply_nested_document(self, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100_000)
        err = self._one_line_error(["validate", str(path)], capsys)
        assert err == "document error: not valid JSON: nested too deeply\n"
        with pytest.raises(documents.DocumentError, match="nested too deeply"):
            documents.loads("[" * 100_000)

    @pytest.mark.parametrize("exponent", [10**400, -(10**400), Fraction(10**400, 3)])
    def test_exponent_too_large_for_a_float(self, exponent, tmp_path, capsys):
        with pytest.raises(UsageError, match="finite real number"):
            FamilySpec(FamilyKind.QROFS, exponent)
        if isinstance(exponent, int):
            path = tmp_path / "huge.json"
            path.write_text(json.dumps({**self.BAD_EXPONENT, "family": {"kind": "QROFS", "exponent": exponent}}))
            err = self._one_line_error(["validate", str(path)], capsys)
            assert err.startswith("document error: family QROFS exponent must be a finite real number >= 1")

    def test_integer_literal_too_long_to_read(self, tmp_path, capsys):
        path = tmp_path / "long.json"
        path.write_text(json.dumps(A_N_DOC).replace("0.8", "1" * 5000))
        err = self._one_line_error(["validate", str(path)], capsys)
        assert err.startswith("document error: not valid JSON: Exceeds the limit")


class TestInternalErrors:
    """An exception the CLI does not map is a fault of the program: one line and exit 3, or its traceback with --debug."""

    @staticmethod
    def _faulty(monkeypatch, message="boom"):
        def fail(args):
            raise RuntimeError(message)

        monkeypatch.setattr(cli, "_cmd_demo", fail)

    def test_one_line_and_exit_3(self, monkeypatch, capsys):
        self._faulty(monkeypatch)
        assert cli.main(["demo", "--all"]) == 3
        assert capsys.readouterr() == ("", "internal error: RuntimeError: boom\n")

    def test_a_message_of_several_lines_stays_on_one(self, monkeypatch, capsys):
        self._faulty(monkeypatch, "first\nsecond")
        assert cli.main(["demo"]) == 3
        assert capsys.readouterr().err == "internal error: RuntimeError: first second\n"

    @pytest.mark.parametrize("argv", [["--debug", "demo"], ["demo", "--debug"]])
    def test_debug_reraises(self, argv, monkeypatch):
        self._faulty(monkeypatch)
        with pytest.raises(RuntimeError, match="boom"):
            cli.main(argv)

    def test_user_errors_still_exit_2_under_debug(self, capsys):
        assert cli.main(["--debug", "volume", "--family", "SFS", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"


class TestToleranceScope:
    """``--tolerance`` reaches ``validate`` and ``refined``; ``op`` and ``transform`` check at ABS_TOL."""

    HALVES = {
        "format_version": 1,
        "family": {"kind": "IIFS"},
        "universe": ["a", "b"],
        "elements": {"a": [0.5, 0.5, 0.5], "b": [0.5, 0.5, 0.5]},
    }

    def test_validate_reads_the_tolerance(self, tmp_path, capsys):
        path = tmp_path / "halves.json"
        path.write_text(json.dumps(self.HALVES))
        assert cli.main(["--tolerance", "0.5", "validate", str(path)]) == 0
        assert "all_valid: True" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["op", "--op", "not", "--system", "IIFS-max"], ["transform", "--method", "sup"]],
    )
    def test_documents_load_at_abs_tol(self, argv, tmp_path, capsys):
        path = tmp_path / "halves.json"
        path.write_text(json.dumps(self.HALVES))
        assert cli.main(["--tolerance", "0.5", *argv, str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "document error: element 'a' invalid: IIFS: constraint value 1.5 vs bound 1\n"


class TestRoundLeavesSettings:
    """``--round`` rounds what a command computes; the settings it echoes print as given."""

    @pytest.mark.parametrize("fmt", ["table", "json"])
    def test_validate_echoes_its_tolerance(self, fmt, doc_paths, capsys):
        a, _ = doc_paths
        assert cli.main(["--format", fmt, "--round", "3", "validate", str(a)]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert payload["tolerance"] == 1e-09
            assert payload["rows"][1]["constraint"] == 1.7  # 0.9 + 0.2 + 0.6 is 1.7000000000000002
        else:
            assert "tolerance: 1e-09" in out.splitlines()
            assert "x2       (0.9, 0.2, 0.6)  1.7         3.0    True   paraconsistent" in out.splitlines()

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "argv,settings,results",
        [
            (["--round", "0", "decide", "three-ways", "--scores", "0.9,0.5,0.1", "--alpha", "0.7", "--beta", "0.3"],
             {"alpha": 0.7, "beta": 0.3}, {"partition": [0.0, 0.0, 0.0]}),
            (["--round", "1", "decide", "n-ways", "--scores", "0.55,0.9,0.1,0.3", "--cuts", "0.125,0.25,0.5,0.75",
              "--arities", "2,1,2"],
             {"cuts": [0.125, 0.25, 0.5, 0.75]}, {"accept_levels": [0.2, 0.2]}),
            (["--round", "1", "decide", "offset", "--amounts", "45,0,-20", "--norm", "40.55"],
             {"norm": 40.55}, {"degrees": [1.1, 0.0, -0.5]}),
        ],
        ids=["three-ways", "n-ways", "offset"],
    )
    def test_decide_echoes_its_settings(self, fmt, argv, settings, results, capsys):
        assert cli.main(["--format", fmt, *argv]) == 0
        out = capsys.readouterr().out
        if fmt == "json":
            payload = json.loads(out)
            assert {k: payload[k] for k in settings} == settings
            assert {k: payload[k] for k in results} == results
        else:
            for key, value in {**settings, **results}.items():
                shown = f"({', '.join(map(repr, value))})" if isinstance(value, list) else repr(value)
                assert f"{key}: {shown}" in out.splitlines()


#: Runs in a fresh interpreter: what importing the CLI and running some commands, then ``volume``, loads.
STARTUP_PROBE = """
import contextlib, io, json, sys
import neutroset.cli as cli

HEAVY = ("numpy", "neutroset._kernels", "neutroset.demos", "neutroset.decision", "neutroset.refined",
         "neutroset.indeterminacy")
report = {"after_import": [m for m in HEAVY if m in sys.modules], "before_volume": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report["before_volume"].append([argv[0], code, "numpy" in sys.modules])
volume = io.StringIO()
with contextlib.redirect_stdout(volume):
    report["volume_exit"] = cli.main(json.loads(sys.argv[2]))
report["numpy_after_volume"] = "numpy" in sys.modules
report["volume_out"] = volume.getvalue()
print(json.dumps(report))
"""

#: Runs in a fresh interpreter: one command's exit code, the ``neutroset`` modules it loaded, whether numpy
#: loaded, and which of ``decimal`` and ``fractions`` loaded.
COMMAND_PROBE = """
import contextlib, io, json, sys
import neutroset.cli as cli

with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, sorted(m for m in sys.modules if m.partition(".")[0] == "neutroset"), "numpy" in sys.modules,
                  [m for m in ("decimal", "fractions") if m in sys.modules]]))
"""

#: Runs in a fresh interpreter: what ``import neutroset`` loads, and how its public names resolve.
PACKAGE_PROBE = """
import json, sys
import neutroset

loaded = sorted(m for m in sys.modules if m.startswith("neutroset."))
listed = dir(neutroset)
star = {}
exec("from neutroset import *", star)
print(json.dumps({
    "loaded": loaded,
    "not_in_dir": [n for n in neutroset.__all__ if n not in listed],
    "not_starred": [n for n in neutroset.__all__ if star.get(n) is not getattr(neutroset, n)],
    "triplet_is_core": neutroset.Triplet is sys.modules["neutroset.core"].Triplet,
}))
"""

#: The modules each command loads besides ``neutroset``, ``neutroset.core`` and ``neutroset.cli``, and whether
#: it loads numpy; ``{a}``, ``{b}`` and ``{grid}`` stand for input files.
COMMAND_MODULES = {
    "decide": (["decide", "three-ways", "--scores", "0.9,0.5,0.1", "--alpha", "0.7", "--beta", "0.3"],
               {"decision"}, False),
    "matrix": (["matrix", "{grid}"], {"indeterminacy"}, False),
    "refined": (["refined", "--kind", "RPyFS", "--t", "0.3,0.2", "--f", "0.1"], {"families", "refined"}, False),
    "volume-sampled": (["volume", "--family", "SFS", "--samples", "5000", "--seed", "3"],
                       {"families", "_kernels"}, True),
    "volume-whole-cube": (["volume", "--family", "NS", "--samples", "5000"], {"families"}, False),
    "validate": (["validate", "{a}"], {"families", "documents"}, False),
    "transform": (["transform", "{a}", "--method", "normalize"], {"families", "documents", "transforms"}, False),
    "op": (["op", "--op", "implies", "{a}", "{b}"], {"families", "documents", "transforms", "operators"}, False),
}


def run_child(code: str, *args: str) -> object:
    """The JSON that ``code`` prints when a fresh interpreter runs it with ``args``."""
    # the package is found from its own location, not from the caller's environment; a caller that
    # keeps bytecode out of the tree keeps it out of the child too
    env = {"PYTHONPATH": str(Path(neutroset.__file__).parents[1])}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    child = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True)
    return json.loads(child.stdout)


class TestStartup:
    """Each subcommand imports only its own modules; numpy loads only when ``volume`` draws samples."""

    DECIDE = ["decide", "three-ways", "--scores", "0.9,0.5,0.1", "--alpha", "0.7", "--beta", "0.3"]
    VOLUME = ["--format", "json", "volume", "--family", "SFS", "--samples", "5000", "--seed", "3"]

    def test_cli_imports_only_what_the_command_runs(self, doc_paths, capsys):
        a, b = map(str, doc_paths)
        before_volume = [
            self.DECIDE,
            ["op", "--op", "and", a, b, "--tnorm", "product", "--tconorm", "probsum"],
            ["op", "--op", "not", a],
            ["transform", a, "--method", "sup"],
            ["transform", a, "--method", "normalize"],
        ]
        report = run_child(STARTUP_PROBE, json.dumps(before_volume), json.dumps(self.VOLUME))
        assert report["after_import"] == []
        assert report["before_volume"] == [[cmd[0], 0, False] for cmd in before_volume]
        assert report["volume_exit"] == 0 and report["numpy_after_volume"] is True
        assert cli.main(self.VOLUME) == 0
        assert report["volume_out"] == capsys.readouterr().out

    @pytest.mark.parametrize("command", sorted(COMMAND_MODULES))
    def test_each_command_loads_its_own_modules(self, command, doc_paths, tmp_path):
        argv, modules, numpy = COMMAND_MODULES[command]
        grid = tmp_path / "g.txt"
        grid.write_text("0 1\n1 I\n")
        a, b = doc_paths
        argv = [arg.format(a=a, b=b, grid=grid) for arg in argv]
        want = {"neutroset", "neutroset.core", "neutroset.cli", *(f"neutroset.{m}" for m in modules)}
        # only refined computes with Fractions; fractions loads decimal
        exact = ["decimal", "fractions"] if command == "refined" else []
        assert run_child(COMMAND_PROBE, json.dumps(argv)) == [0, sorted(want), numpy, exact]

    def test_demo_loads_what_demos_imports(self):
        imports = "import json, sys, neutroset.cli, neutroset.demos; print(json.dumps(sorted(sys.modules)))"
        want = sorted(m for m in run_child(imports) if m.partition(".")[0] == "neutroset")
        assert run_child(COMMAND_PROBE, json.dumps(["demo", "--all"])) == [0, want, False, []]

    def test_the_package_loads_each_name_when_first_read(self):
        report = run_child(PACKAGE_PROBE)
        assert report == {"loaded": [], "not_in_dir": [], "not_starred": [], "triplet_is_core": True}
        assert sorted(neutroset._MODULE_OF) == sorted(neutroset.__all__)
        assert not hasattr(neutroset, "no_such_name")  # so that ``from neutroset import documents`` imports the module

    def test_the_package_resolves_names_in_process(self):
        for name in neutroset.__all__:
            module = importlib.import_module(f"neutroset.{neutroset._MODULE_OF[name]}")
            assert neutroset.__getattr__(name) is getattr(module, name), name
        with pytest.raises(AttributeError) as info:
            neutroset.__getattr__("no_such_name")
        assert str(info.value) == "module 'neutroset' has no attribute 'no_such_name'"
        assert set(neutroset.__all__) <= set(dir(neutroset))

    def test_each_public_name_is_listed_once(self):
        names = [name for names in neutroset._EXPORTS.values() for name in names]
        assert len(set(names)) == len(names)
        assert neutroset.__all__ == names

    def test_parser_choices_are_the_enum_values(self):
        from neutroset.operators import Op, OverflowRule, TConorm, TNorm

        assert list(cli.OPS) == [e.value for e in Op]
        assert list(cli.TNORMS) == [e.value for e in TNorm]
        assert list(cli.TCONORMS) == [e.value for e in TConorm]
        assert list(cli.OVERFLOW_RULES) == [e.value for e in OverflowRule]
