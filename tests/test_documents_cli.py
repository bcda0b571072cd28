import json
from fractions import Fraction

import pytest

from neutroset import cli, documents
from neutroset.core import ConstraintError, UsageError
from neutroset.families import FamilyKind, FamilySpec, embed_into_ns

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
        documents.dump(doc, path)
        again = documents.load(path)
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


class TestCliOp:
    def test_intersection_writes_result_document(self, doc_paths, tmp_path, capsys):
        a, b = doc_paths
        out = tmp_path / "c_n.json"
        code = cli.main(["op", "--op", "and", str(a), str(b), "--system", "NS", "--out", str(out)])
        assert code == 0
        doc = documents.load(out)
        assert doc.components == ((0.2, 0.3, 0.5), (0.6, 0.2, 0.6))

    def test_union_document(self, doc_paths, tmp_path):
        a, b = doc_paths
        out = tmp_path / "d_n.json"
        assert cli.main(["op", "--op", "or", str(a), str(b), "--out", str(out)]) == 0
        assert documents.load(out).components == ((0.8, 0.1, 0.3), (0.9, 0.2, 0.1))

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


class TestCliTransform:
    def test_sup_transform(self, doc_paths, tmp_path, capsys):
        a, _ = doc_paths
        out = tmp_path / "a_iifs.json"
        assert cli.main(["transform", str(a), "--method", "sup", "--out", str(out)]) == 0
        doc = documents.load(out)
        assert doc.family.kind is FamilyKind.IIFS
        assert doc.components[0] == pytest.approx((0.8 / 1.8, 0.3 / 1.8, 0.5 / 1.8))

    def test_normalize(self, doc_paths, tmp_path):
        a, _ = doc_paths
        out = tmp_path / "a_ifs.json"
        assert cli.main(["transform", str(a), "--method", "normalize", "--out", str(out)]) == 0
        doc = documents.load(out)
        assert doc.family.kind is FamilyKind.IFS
        # pairs on disk; the derived middle component returns on load
        assert doc.components[0] == pytest.approx((0.5, 0.3125))
        widened = doc.to_labeled_set().element("x1")
        assert tuple(float(v) for v in widened.scalars()) == pytest.approx((0.5, 0.1875, 0.3125))


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

    def test_unknown_exhibit(self, capsys):
        assert cli.main(["demo", "nonsense"]) == 2

    def test_list(self, capsys):
        assert cli.main(["demo", "--list"]) == 0
        assert "counterexample1" in capsys.readouterr().out


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


class TestCliRefinedAndDecide:
    def test_refined_hesitancy(self, capsys):
        code = cli.main(["--format", "json", "refined", "--kind", "RPyFS", "--t", "0.9", "--f", "0.2"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True
        assert payload["hesitancy"] == pytest.approx(0.3872983346207417)

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

    @pytest.mark.parametrize("kind,match", [("PyFS", "only IFS pairs"), ("FS", "no embedding")])
    def test_pair_documents_of_other_families_form_no_set(self, kind, match):
        text = json.dumps(
            {"format_version": 1, "family": {"kind": kind}, "universe": ["e"], "elements": {"e": [0.5, 0.5]}}
        )
        with pytest.raises(UsageError, match=match):
            documents.loads(text).to_labeled_set()

    def test_invalid_unvalidated_ifs_document_fails_to_widen(self):
        text = json.dumps(
            {"format_version": 1, "family": {"kind": "IFS"}, "universe": ["e"], "elements": {"e": [0.7, 0.6]}}
        )
        doc = documents.loads(text, validate_elements=False)
        with pytest.raises(ConstraintError):
            doc.to_labeled_set()

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

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "-0.5"])
    def test_tolerance_must_be_finite_and_nonnegative(self, tolerance, doc_paths, capsys):
        argv = ["--format", "json", "--tolerance", tolerance, "validate", str(doc_paths[0])]
        assert "--tolerance" in self._one_line_error(argv, capsys)

    def test_unknown_exhibit(self, capsys):
        assert "nosuch" in self._one_line_error(["demo", "nosuch"], capsys)

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

    def test_negative_round(self, capsys):
        argv = ["--round", "-1", "decide", "three-ways", "--scores", "0.55", "--alpha", "0.7", "--beta", "0.3"]
        assert "--round" in self._one_line_error(argv, capsys)
