import json
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fedosov.geometry import ValidationError
from fedosov.manifest import (
    ExprError,
    Manifest,
    ManifestError,
    load_manifest,
    parse_manifest,
    parse_poly,
    parse_scalar,
    poly_to_records,
    series_to_records,
)
from fedosov.poly import BasePolynomial
from fedosov.scalars import GaussianRational, format_scalar

from conftest import rand_poly, rand_scalar, rand_series
from oracles import poly_from_records, series_from_records


def const(v):
    return BasePolynomial.constant(2, v)


class TestExpressionParser:
    def test_literals_and_arithmetic(self):
        assert parse_poly("3", 2) == const(3)
        assert parse_poly("1/2", 2) == const(Fraction(1, 2))
        assert parse_poly("2 + 3", 2) == const(5)
        assert parse_poly("2 - 3 - 1", 2) == const(-2)
        assert parse_poly("-4", 2) == const(-4)
        assert parse_poly("i", 2) == const(GaussianRational(0, Fraction(1)))

    def test_variables_and_precedence(self):
        q1 = BasePolynomial.variable(2, 1)
        q2 = BasePolynomial.variable(2, 2)
        assert parse_poly("q1", 2) == q1
        assert parse_poly("2 + 3*q1^2", 2) == const(2) + (q1 * q1).scale(3)
        assert parse_poly("-q1^2", 2) == -(q1 * q1)
        assert parse_poly("q1^2*q2", 2) == q1 * q1 * q2
        assert parse_poly("q1**3", 2) == q1 * q1 * q1
        assert parse_poly("(q1 + q2)^2", 2) == q1 * q1 + (q1 * q2).scale(2) + q2 * q2
        assert parse_poly("1/2*q1 - i*q2", 2) == q1.scale(Fraction(1, 2)) - q2.scale(
            GaussianRational(0, Fraction(1))
        )

    def test_power_of_parenthesized_sum(self):
        got = parse_poly("(1+i)^2", 2)
        assert got == const(GaussianRational(0, Fraction(2)))

    @pytest.mark.parametrize("text", [
        "",
        "q1/2",
        "1.5",
        "q3",
        "q0",
        "q1 q2",
        "3/0",
        "q1^-2",
        "2 +",
        "(q1",
        "i2",
        "x",
        "/3",
        "q1^33",
        "q1^99999999999999",
        pytest.param("(" * 3000 + "1" + ")" * 3000, id="parentheses-3000"),
        pytest.param("-" * 5000 + "1", id="signs-5000"),
        pytest.param("(" * 65 + "q1" + ")" * 65, id="parentheses-65"),
        "(1+q1+q2)^32*(1+q1+q2)^32",
        pytest.param("1" * 1001, id="literal-1001"),
        pytest.param("q" + "1" * 1000, id="variable-1001"),
    ])
    def test_rejects(self, text):
        with pytest.raises(ExprError):
            parse_poly(text, 2)

    def test_limits_admit_what_they_bound(self):
        q1 = BasePolynomial.variable(2, 1)
        assert parse_poly("(" * 64 + "q1" + ")" * 64, 2) == q1
        assert parse_poly("-" * 64 + "q1", 2) == q1
        assert parse_poly("1" * 1000, 2) == const(int("1" * 1000))
        assert len(parse_poly("(1+q1+q2)^32", 2).items()) == 561

    def test_non_string_rejected(self):
        with pytest.raises(ManifestError):
            parse_poly(3, 2)

    def test_scalar_parsing(self):
        assert parse_scalar("3/4") == GaussianRational(Fraction(3, 4))
        assert parse_scalar("-i") == GaussianRational(0, Fraction(-1))
        assert parse_scalar("1+1/2*i") == GaussianRational(Fraction(1), Fraction(1, 2))
        with pytest.raises(ExprError):
            parse_scalar("q1")

    def test_scalar_literal_round_trip(self):
        rng = random.Random(41)
        seen = {GaussianRational(0)}
        for _ in range(80):
            seen.add(rand_scalar(rng))
        for v in seen:
            assert parse_scalar(format_scalar(v)) == v


class TestManifestParsing:
    def test_minimal(self):
        m = parse_manifest('{"dim": 2}')
        assert m == Manifest(2, None, (), 6, 2)
        assert m.manifold().dim == 2
        assert m.connection().is_zero()

    def test_full(self):
        text = json.dumps({
            "dim": 2,
            "omega": [[0, "-1/1"], [1, 0]],
            "gamma": [
                {"indices": [1, 1, 1], "poly": "1"},
                {"indices": [2, 2, 2], "poly": "q1 + 1/2"},
            ],
            "defaults": {"max_degree": 8, "hbar_order": 3},
        })
        m = parse_manifest(text)
        assert m.max_degree == 8 and m.hbar_order == 3
        assert m.omega_lower == ((Fraction(0), Fraction(-1)), (Fraction(1), Fraction(0)))
        c = m.connection()
        assert c.coeff(2, 2, 2) == BasePolynomial.variable(2, 1) + const(Fraction(1, 2))

    @pytest.mark.parametrize("text", [
        '{"gamma": []}',
        '{"dim": 3}',
        '{"dim": true}',
        '{"dim": "2"}',
        '{"dim": 2, "extra": 1}',
        '{"dim": 2, "omega": [[0, -1]]}',
        '{"dim": 2, "omega": [[0, -1.0], [1.0, 0]]}',
        '{"dim": 2, "omega": [[0, "i"], ["-i", 0]]}',
        '{"dim": 2, "gamma": [{"indices": [1, 2], "poly": "1"}]}',
        '{"dim": 2, "gamma": [{"indices": [1, 1, 1]}]}',
        '{"dim": 2, "gamma": [{"indices": [1, 1, 1], "poly": "1", "x": 0}]}',
        '{"dim": 2, "defaults": {"max_degree": 2}}',
        '{"dim": 2, "defaults": {"hbar_order": -1}}',
        '{"dim": 2, "defaults": {"order": 4}}',
        '{"dim": 18}',
        '{"dim": 100000}',
        '{"dim": 2, "gamma": 5}',
        '{"dim": 2, "gamma": null}',
        '[]',
    ])
    def test_contract_violations(self, text):
        with pytest.raises(ManifestError):
            parse_manifest(text)

    def test_parse_failures(self):
        with pytest.raises(ExprError):
            parse_manifest('{"dim": 2,')
        with pytest.raises(ExprError):
            parse_manifest('{"dim": 2, "gamma": [{"indices": [1, 1, 1], "poly": "q1/2"}]}')
        with pytest.raises(ExprError):
            parse_manifest("[" * 100000 + "]" * 100000)
        with pytest.raises(ExprError):
            parse_manifest('{"dim": ' + "2" * 5000 + "}")

    def test_semantic_failures_surface_on_build(self):
        m = parse_manifest('{"dim": 2, "omega": [[0, 1], [1, 0]]}')
        with pytest.raises(ValidationError):
            m.manifold()
        m = parse_manifest(json.dumps({
            "dim": 2,
            "gamma": [
                {"indices": [1, 1, 2], "poly": "1"},
                {"indices": [2, 1, 1], "poly": "2"},
            ],
        }))
        with pytest.raises(ValidationError):
            m.connection()

    def test_load_from_file(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"dim": 4}')
        assert load_manifest(str(p)).dim == 4
        with pytest.raises(OSError):
            load_manifest(str(tmp_path / "missing.json"))

    def test_shipped_manifests_load(self):
        root = pathlib.Path(__file__).resolve().parents[1]
        for name in ("flat2d", "curved2d", "commuting4d"):
            m = load_manifest(str(root / "manifests" / f"{name}.json"))
            m.manifold()
            m.connection()


class TestRecordDumps:
    def test_poly_round_trip(self):
        rng = random.Random(42)
        for _ in range(20):
            p = rand_poly(rng, 3, deg=3, terms=4)
            blob = json.dumps(poly_to_records(p))
            assert poly_from_records(3, json.loads(blob)) == p

    def test_series_round_trip(self):
        rng = random.Random(43)
        for _ in range(20):
            s = rand_series(rng, 2, terms=5, max_hbar=2, qdeg=2)
            blob = json.dumps(series_to_records(s))
            assert series_from_records(2, json.loads(blob)) == s

    def test_records_are_sorted(self):
        rng = random.Random(44)
        s = rand_series(rng, 2, terms=6, max_hbar=2)
        recs = series_to_records(s)
        keys = [(r["hbar"], tuple(r["fiber"]), tuple(r["wedge"])) for r in recs]
        assert keys == sorted(keys)


# token soup for the fuzz: every token of the grammar, near misses, and
# characters it rejects
_TOKENS = ["q1", "q2", "q3", "q0", "i", "I", "0", "1", "2", "32", "33", "/", "+", "-",
           "*", "**", "^", "(", ")", " ", ".", "x", "e", "1.5", "\u00b2", "\n"]


def _soup(n):
    return st.lists(st.sampled_from(_TOKENS), max_size=n).map("".join)


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats(allow_nan=False) | _soup(8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["indices", "poly", "max_degree", "hbar_order", "x"]),
                      inner, max_size=3),
    max_leaves=12,
)
_GAMMA_ENTRY = st.fixed_dictionaries({
    "indices": st.lists(st.integers(0, 5), max_size=4) | _JSON,
    "poly": _soup(10) | _JSON,
})
_MANIFEST = st.fixed_dictionaries({"dim": st.sampled_from([2, 4]) | st.integers(-2, 20) | _JSON},
                                  optional={
    "omega": _JSON,
    "gamma": _JSON | st.lists(_GAMMA_ENTRY, max_size=3),
    "defaults": _JSON | st.dictionaries(st.sampled_from(["max_degree", "hbar_order", "x"]),
                                        st.integers(-2, 10) | _JSON, max_size=2),
}) | _JSON
_FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=600)


class TestFuzz:
    """Only ExprError and ManifestError may escape the two parsers."""

    @_FUZZ
    @given(_soup(16), st.sampled_from([0, 2, 4]))
    def test_parse_poly(self, text, dim):
        try:
            parse_poly(text, dim)
        except (ExprError, ManifestError):
            pass

    @_FUZZ
    @given(_MANIFEST, st.integers(0, 40))
    def test_parse_manifest(self, raw, cut):
        # the whole document, then a prefix of it: most prefixes are not JSON
        text = json.dumps(raw)
        for candidate in (text, text[:cut]):
            try:
                parse_manifest(candidate)
            except (ExprError, ManifestError):
                pass
