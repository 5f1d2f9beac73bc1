import copy
import io
import json
import os
import random
import signal
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import symcont.exactnum
import symcont.specfile

from symcont import (
    SQRT2,
    Affine,
    AnalysisConfig,
    Combined,
    Const,
    FinitePoints,
    IntegerWindow,
    IntervalUnion,
    Monomial,
    NaturalReciprocals,
    OddPrimeReciprocals,
    ParseError,
    Piecewise,
    QuadExt,
    Reciprocal,
    Staircase,
    TruncatedRationals,
    UnionOf,
    classify,
    parse_spec,
)
from symcont.cli import main
from symcont.errors import SymcontError
from symcont.specfile import ParsedSpec, parse_domain, parse_formula, parse_function
from symcont.zoo import build_example

from conftest import qx

PRIME_INDICATOR_SPEC = {
    "domain": {"type": "OddPrimeReciprocals", "maxPrime": 100, "withZero": True},
    "function": {
        "type": "Piecewise",
        "pieces": [
            {
                "region": {
                    "type": "OddPrimeReciprocals",
                    "maxPrime": 100,
                    "withZero": False,
                },
                "formula": {"formula": "Const", "c": 1},
            },
            {
                "region": {"type": "FinitePoints", "points": [0]},
                "formula": {"formula": "Const", "c": 0},
            },
        ],
    },
}


def dumps(obj) -> str:
    return json.dumps(obj)


class TestDomainParsing:
    def test_all_variants(self):
        assert parse_domain(
            {"type": "FinitePoints", "points": [0, "1/2", "1 + 1*sqrt2"]}
        ) == FinitePoints((qx(0), qx(Fraction(1, 2)), SQRT2 + 1))
        assert parse_domain({"type": "IntegerWindow", "lo": -3, "hi": 3}) == (
            IntegerWindow(-3, 3)
        )
        assert parse_domain(
            {"type": "OddPrimeReciprocals", "maxPrime": 50, "withZero": False}
        ) == OddPrimeReciprocals(50, with_zero=False)
        assert parse_domain(
            {"type": "NaturalReciprocals", "maxN": 9, "withZero": True}
        ) == NaturalReciprocals(9, with_zero=True)
        assert parse_domain(
            {
                "type": "TruncatedRationals",
                "maxDenominator": 7,
                "lo": 1,
                "hi": "3/2",
                "adjoinSqrt2": True,
            }
        ) == TruncatedRationals(7, qx(1), qx(Fraction(3, 2)), adjoin_sqrt2=True)
        stair = parse_domain({"type": "Staircase", "variant": "B", "blocks": 4})
        assert stair == Staircase("B", 4)
        union = parse_domain(
            {
                "type": "UnionOf",
                "parts": [
                    {"type": "IntegerWindow", "lo": 0, "hi": 1},
                    {"type": "FinitePoints", "points": ["1/2"]},
                ],
            }
        )
        assert isinstance(union, UnionOf) and len(union.parts) == 2

    def test_interval_union_with_open_sides(self):
        dom = parse_domain(
            {
                "type": "IntervalUnion",
                "pieces": [
                    {"lo": 0, "hi": 1, "hiClosed": False},
                    {"lo": 1, "hi": 2},
                ],
            }
        )
        assert isinstance(dom, IntervalUnion)
        assert not dom.pieces[0].hi_closed
        assert dom.pieces[1].lo_closed

    def test_unknown_type(self):
        with pytest.raises(ParseError):
            parse_domain({"type": "Cantor"})

    def test_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse_domain({"type": "IntegerWindow", "lo": 0, "hi": 1, "step": 2})
        assert "unknown key" in str(err.value)

    def test_missing_key(self):
        with pytest.raises(ParseError) as err:
            parse_domain({"type": "NaturalReciprocals", "maxN": 5})
        assert "missing key" in str(err.value)

    def test_bad_variant(self):
        with pytest.raises(ParseError):
            parse_domain({"type": "Staircase", "variant": "Q", "blocks": 2})

    def test_snake_case_rejected(self):
        with pytest.raises(ParseError):
            parse_domain(
                {"type": "OddPrimeReciprocals", "max_prime": 50, "with_zero": True}
            )


class TestFormulaParsing:
    def test_atoms(self):
        assert parse_formula({"formula": "Const", "c": "2/3"}, "f") == Const(
            qx(Fraction(2, 3))
        )
        assert parse_formula({"formula": "Identity"}, "f").__class__.__name__ == (
            "Identity"
        )
        assert parse_formula({"formula": "Affine", "m": 2, "c": -1}, "f") == Affine(
            qx(2), qx(-1)
        )
        assert isinstance(parse_formula({"formula": "Reciprocal"}, "f"), Reciprocal)
        assert parse_formula({"formula": "Monomial", "n": 3}, "f") == Monomial(3)

    def test_float_rejected_with_hint(self):
        with pytest.raises(ParseError) as err:
            parse_formula({"formula": "Const", "c": 0.5}, "f")
        assert "floats are not exact" in str(err.value)
        assert "3/4" in str(err.value)

    def test_bool_is_not_a_number(self):
        with pytest.raises(ParseError):
            parse_formula({"formula": "Const", "c": True}, "f")

    def test_unknown_formula(self):
        with pytest.raises(ParseError):
            parse_formula({"formula": "Sine"}, "f")


class TestFunctionParsing:
    def test_bare_formula(self):
        assert isinstance(parse_function({"formula": "Reciprocal"}), Reciprocal)

    def test_piecewise(self):
        f = parse_function(PRIME_INDICATOR_SPEC["function"])
        assert isinstance(f, Piecewise) and len(f.pieces) == 2

    def test_combined_scale(self):
        f = parse_function(
            {
                "type": "Combined",
                "op": "scale",
                "alpha": "1/2",
                "operands": [{"formula": "Identity"}],
            }
        )
        assert isinstance(f, Combined) and f.alpha == qx(Fraction(1, 2))

    def test_alpha_only_for_scale(self):
        with pytest.raises(ParseError) as err:
            parse_function(
                {
                    "type": "Combined",
                    "op": "add",
                    "alpha": 1,
                    "operands": [{"formula": "Identity"}, {"formula": "Identity"}],
                }
            )
        assert "only applies to scale" in str(err.value)

    def test_scale_needs_alpha(self):
        with pytest.raises(ParseError):
            parse_function(
                {
                    "type": "Combined",
                    "op": "scale",
                    "operands": [{"formula": "Identity"}],
                }
            )

    def test_unknown_shape(self):
        with pytest.raises(ParseError):
            parse_function({"type": "Product"})


class TestSpecDocuments:
    def test_minimal(self):
        spec = parse_spec(
            dumps(
                {
                    "domain": {"type": "IntegerWindow", "lo": 0, "hi": 3},
                    "function": {"formula": "Identity"},
                }
            )
        )
        assert spec.subset_b is None
        assert spec.config == AnalysisConfig()

    def test_config_overrides(self):
        spec = parse_spec(
            dumps(
                {
                    "domain": {"type": "IntegerWindow", "lo": 0, "hi": 3},
                    "function": {"formula": "Identity"},
                    "config": {
                        "deltaSchedule": ["1/2", "1/8"],
                        "gridExponent": 5,
                        "maxPairs": 777,
                        "enumLimit": 44,
                        "seed": 9,
                        "outputFormat": "json",
                    },
                }
            )
        )
        cfg = spec.config
        assert cfg.delta_schedule == (qx(Fraction(1, 2)), qx(Fraction(1, 8)))
        assert cfg.grid_exponent == 5
        assert cfg.max_pairs == 777
        assert cfg.enum_limit == 44
        assert cfg.seed == 9
        assert cfg.output_format == "json"

    def test_empty_input(self):
        with pytest.raises(ParseError) as err:
            parse_spec("   \n ")
        assert "empty input" in str(err.value)

    def test_syntax_error_reports_position(self):
        with pytest.raises(ParseError) as err:
            parse_spec('{\n  "domain": }')
        msg = str(err.value)
        assert "syntax error at line 2" in msg
        assert "column" in msg

    def test_top_level_unknown_key(self):
        with pytest.raises(ParseError) as err:
            parse_spec(
                dumps(
                    {
                        "domain": {"type": "IntegerWindow", "lo": 0, "hi": 1},
                        "function": {"formula": "Identity"},
                        "notes": "hello",
                    }
                )
            )
        assert "unknown key" in str(err.value)

    def test_subset_must_lie_inside_ambient(self):
        with pytest.raises(ParseError) as err:
            parse_spec(
                dumps(
                    {
                        "domain": {"type": "FinitePoints", "points": [0, "1/2"]},
                        "function": {"formula": "Identity"},
                        "subsetB": {"type": "IntegerWindow", "lo": 0, "hi": 1},
                    }
                )
            )
        assert "point 1 is not a member" in str(err.value)

    def test_subset_must_be_enumerable(self):
        with pytest.raises(ParseError) as err:
            parse_spec(
                dumps(
                    {
                        "domain": {
                            "type": "IntervalUnion",
                            "pieces": [{"lo": 0, "hi": 1}],
                        },
                        "function": {"formula": "Identity"},
                        "subsetB": {
                            "type": "IntervalUnion",
                            "pieces": [{"lo": 0, "hi": 1}],
                        },
                    }
                )
            )
        assert "enumerable" in str(err.value)

    def test_valid_subset(self):
        spec = parse_spec(
            dumps(
                {
                    "domain": {"type": "IntegerWindow", "lo": -5, "hi": 5},
                    "function": {"formula": "Identity"},
                    "subsetB": {"type": "FinitePoints", "points": [0, 1]},
                }
            )
        )
        assert spec.subset_b is not None
        assert spec.subset_b.contains(qx(0))


class TestParsedSpecMatchesCatalog:
    def test_prime_indicator_agrees_with_catalog_entry(self):
        spec = parse_spec(dumps(PRIME_INDICATOR_SPEC))
        cfg = AnalysisConfig(grid_exponent=6, enum_limit=10**4)
        got = classify(spec.domain, spec.function, cfg)
        case = build_example("ex-2.5")[0]
        want = {
            notion: status for notion, (status, _) in case.expected.items()
        }
        # the catalog entry runs at max_prime 1000; the spec document scales
        # the same construction down to 100 and must reach the same verdicts
        for notion, status in want.items():
            assert got[notion].status == status, notion


class TestFractionFreeRequestPath:
    """Spec numbers and the default config are built from integers: the
    former path built about four Fractions per number and 21 QuadExts per
    AnalysisConfig()."""

    def test_rational_points_build_no_fraction(self, monkeypatch):
        built = []

        class CountingFraction(Fraction):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(symcont.exactnum, "Fraction", CountingFraction)
        rng = random.Random(12)
        points = [f"{rng.randint(-10**6, 10**6)}/{rng.randint(1, 999)}" for _ in range(1000)]
        spec = parse_spec(
            dumps(
                {
                    "domain": {"type": "FinitePoints", "points": points},
                    "function": {"formula": "Identity"},
                }
            )
        )
        assert built == []
        want = sorted({Fraction(p) for p in points})
        assert [(x.a, x.b, x.d) for x in spec.domain.points] == [
            (q.numerator, 0, q.denominator) for q in want
        ]

    def test_default_config_builds_no_quadext(self, monkeypatch):
        built = []
        make = symcont.exactnum._make

        def counting_make(a, b, d):
            built.append((a, b, d))
            return make(a, b, d)

        monkeypatch.setattr(symcont.exactnum, "_make", counting_make)
        cfg = AnalysisConfig()
        assert built == []
        assert cfg.delta_schedule == tuple(qx(Fraction(1, 2**j)) for j in range(21))
        assert AnalysisConfig(seed=3).delta_schedule is cfg.delta_schedule


def _restating_spec(points: list[str], consts: tuple[str, str]) -> dict:
    """A FinitePoints spec whose two Piecewise regions restate its points:
    the first half takes consts[0], the rest consts[1]."""
    half = len(points) // 2
    return {
        "domain": {"type": "FinitePoints", "points": points},
        "function": {"type": "Piecewise", "pieces": [
            {"region": {"type": "FinitePoints", "points": points[:half]},
             "formula": {"formula": "Const", "c": consts[0]}},
            {"region": {"type": "FinitePoints", "points": points[half:]},
             "formula": {"formula": "Const", "c": consts[1]}}]},
    }


class TestNumberTable:
    """parse_spec parses each distinct number string of a document once,
    into a table that lives for that call only."""

    @staticmethod
    def _count_parses(monkeypatch) -> list[str]:
        parsed = []
        parse = symcont.specfile.parse_quadext

        def counting(text):
            parsed.append(text)
            return parse(text)

        monkeypatch.setattr(symcont.specfile, "parse_quadext", counting)
        return parsed

    def test_restated_points_parse_once(self, monkeypatch):
        rng = random.Random(5)
        points = [
            f"{rng.randint(-999, 999)}/{rng.randint(1, 99)}"
            + rng.choice(["", " + 1/4096*sqrt2", " - 3/8192*sqrt2"])
            for _ in range(32)
        ]
        points = list(dict.fromkeys(points))
        assert len(points) == 32
        doc = _restating_spec(points, ("1/2", "-1/3"))
        parsed = self._count_parses(monkeypatch)
        spec = parse_spec(dumps(doc))
        assert sorted(parsed) == sorted({*points, "1/2", "-1/3"})
        # the same values as parts parsed each with a fresh table
        assert spec.domain == parse_domain(doc["domain"])
        assert spec.function == parse_function(doc["function"])

    def test_no_table_outlives_a_call(self, monkeypatch):
        text = dumps(_restating_spec(["0", "1/2", "sqrt2", "3/4"], ("1", "2")))
        parsed = self._count_parses(monkeypatch)
        parse_spec(text)
        once = len(parsed)
        parse_spec(text)
        assert once == 6 and len(parsed) == 2 * once

    @pytest.mark.parametrize(
        ("bad", "message"),
        [("x", "not an exact number: 'x'"), ("1/0", "zero denominator in '1/0'")],
    )
    def test_bad_string_reports_alike_wherever_it_first_appears(self, bad, message):
        in_domain = _restating_spec(["0", bad, "1/2", "3"], ("1", "2"))
        in_region = _restating_spec(["0", "5", "1/2", "3"], ("1", "2"))
        in_region["function"]["pieces"][1]["region"]["points"][0] = bad
        for doc in (in_domain, in_region):
            with pytest.raises(ParseError) as err:
                parse_spec(dumps(doc))
            assert str(err.value) == message

    def test_shared_constant_object_reports_alike(self, tmp_path):
        """Two Const pieces spelled alike share one value object, which
        _const_groups groups by identity; the report equals the one for
        equal values spelled apart. The set is a model of a sequence, so
        the family pipeline reads those groups."""
        regions = [[f"1/{n}" for n in range(1, 13) if n % 3 == k] for k in range(3)]
        regions[1].append(0)
        reports = []
        for consts in (("1/2", "1", "1/2"), ("1/2", "1", "2/4")):
            doc = {
                "domain": {"type": "NaturalReciprocals", "maxN": 12, "withZero": True},
                "function": {"type": "Piecewise", "pieces": [
                    {"region": {"type": "FinitePoints", "points": r},
                     "formula": {"formula": "Const", "c": c}}
                    for r, c in zip(regions, consts)]},
            }
            path = tmp_path / f"spec-{len(reports)}.json"
            path.write_text(dumps(doc), encoding="utf-8")
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["analyze", str(path), "--format", "json"]) == 0
            reports.append(out.getvalue())
        assert reports[0] == reports[1]
        assert json.loads(reports[0])["verdicts"]["USC"]["status"] == "refuted"


# ---------------------------------------------------------------------------
# fuzz: mutated spec documents give a ParsedSpec or a SymcontError, and the
# CLI exits 0, 1 or 2 without a traceback, promptly


FUZZ_BASES = (
    PRIME_INDICATOR_SPEC,
    {
        "domain": {"type": "FinitePoints", "points": [0, "1/2", "-3/4", "1 + 1/2*sqrt2"]},
        "function": {"formula": "Affine", "m": "2", "c": "-1/3"},
        "subsetB": {"type": "FinitePoints", "points": [0]},
        "config": {"deltaSchedule": ["1/2", "1/8"], "enumLimit": 40, "seed": 1},
    },
    {
        "domain": {"type": "IntervalUnion", "pieces": [
            {"lo": "1/2", "hi": 1, "hiClosed": False}, {"lo": "sqrt2", "hi": 2}]},
        "function": {"formula": "Reciprocal"},
        "config": {"gridExponent": 4, "maxPairs": 500, "outputFormat": "json"},
    },
    {
        "domain": {"type": "UnionOf", "parts": [
            {"type": "NaturalReciprocals", "maxN": 30, "withZero": True},
            {"type": "TruncatedRationals", "maxDenominator": 5, "lo": 1, "hi": 2,
             "adjoinSqrt2": True}]},
        "function": {"type": "Combined", "op": "add", "operands": [
            {"formula": "Monomial", "n": 2},
            {"type": "Combined", "op": "scale", "alpha": "3/2",
             "operands": [{"formula": "Const", "c": "1 - 1*sqrt2"}]}]},
    },
    {
        "domain": {"type": "IntegerWindow", "lo": -2, "hi": 2},
        "function": {"type": "Piecewise", "pieces": [
            {"region": {"type": "IntegerWindow", "lo": -2, "hi": 0},
             "formula": {"formula": "Identity"}},
            {"region": {"type": "IntegerWindow", "lo": 1, "hi": 2},
             "formula": {"formula": "Const", "c": "sqrt2"}}]},
    },
    {
        "domain": {"type": "Staircase", "variant": "B", "blocks": 3},
        "function": {"formula": "Identity"},
    },
    # sqrt2 among rationals that approach it (convergents p/q), with a Pell
    # unit as a delta: mixed sqrt2 parts and near-ties on the embedded keys
    {
        "domain": {"type": "FinitePoints",
                   "points": [0, "1/2", "1393/985", "sqrt2", "3363/2378", "1 + 1/2*sqrt2", 2]},
        "function": {"type": "Piecewise", "pieces": [
            {"region": {"type": "FinitePoints", "points": ["sqrt2"]},
             "formula": {"formula": "Const", "c": "sqrt2"}},
            {"region": {"type": "FinitePoints",
                        "points": [0, "1/2", "1393/985", "3363/2378", "1 + 1/2*sqrt2", 2]},
             "formula": {"formula": "Const", "c": 1}}]},
        "config": {"deltaSchedule": ["1", "3 - 2*sqrt2", "-7 + 5*sqrt2", "1/985"]},
    },
)

# a JSON integer of more digits than the interpreter converts (4 300 by
# default), put in place of this string after the document is dumped
_LONG_INTEGER = "<long integer>"

_SIGNS = st.sampled_from(["", "-", "+"])
_VALID_NUMBERS = st.one_of(
    st.integers(-3, 60),
    st.builds("{}{}/{}".format, _SIGNS, st.integers(0, 99), st.integers(1, 9)),
    st.builds("{}{} {} {}/{}*sqrt2".format, _SIGNS, st.integers(0, 9), st.sampled_from("+-"),
              st.integers(0, 9), st.integers(1, 9)),
    st.builds("{}{}*sqrt2".format, _SIGNS, st.integers(0, 9)),
    # Pell near-ties: convergents of sqrt2 and units (sqrt2 - 1)**j
    st.sampled_from(["99/70", "239/169", "8119/5741", "3 - 2*sqrt2", "-7 + 5*sqrt2",
                     "17 - 12*sqrt2", "-41 + 29*sqrt2"]),
)
_NUMBER_STRINGS = st.one_of(
    st.sampled_from(["3/4", "-2", "sqrt2", "1 + sqrt2", "1/0", "2 - 1/3*sqrt2", "0.5", "", "x"]),
    st.builds("{}{}/{}".format, _SIGNS, st.integers(0, 999), st.integers(0, 99)),
)
# numbers of more digits than the interpreter converts
_LONG_NUMBERS = st.sampled_from(
    [_LONG_INTEGER, "1/" + "7" * 4400, "9" * 4301 + " - 1/3*sqrt2",
     "1 + 1/" + "3" * 4301 + "*sqrt2"]
)
_KEYS = st.sampled_from(
    ["type", "points", "lo", "hi", "maxPrime", "maxN", "withZero", "pieces", "region",
     "formula", "operands", "op", "alpha", "variant", "blocks", "parts", "c", "m", "n",
     "deltaSchedule", "enumLimit", "gridExponent", "hiClosed", "bogus", "MaxPrime"]
)
_TYPES = st.sampled_from(
    ["FinitePoints", "IntegerWindow", "OddPrimeReciprocals", "NaturalReciprocals",
     "TruncatedRationals", "IntervalUnion", "Staircase", "UnionOf", "Piecewise",
     "Combined", "Const", "Identity", "Affine", "Reciprocal", "Monomial", "Nope"]
)
_SCALARS = st.one_of(
    st.integers(-5, 300),
    st.sampled_from([0, -1, 10**6, 10**6 + 1, 10**10, 2**70]),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.booleans(),
    st.none(),
    _NUMBER_STRINGS,
    _TYPES,
    st.just([]),
    st.just({}),
)


def _paths(node):
    """Every (container, key) location in a JSON tree."""
    out = []
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        out.append((node, key))
        if isinstance(child, (dict, list)):
            out.extend(_paths(child))
    return out


@st.composite
def mutated_specs(draw):
    doc = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 3]))):
        paths = _paths(doc)
        if not paths:
            break
        node, key = draw(st.sampled_from(paths))
        kind = draw(st.sampled_from(
            ["drop", "rename", "replace", "copy", "long"] + ["nest"] * 2 + ["renumber"] * 4
        ))
        numeric = type(node[key]) in (int, str) and key not in ("type", "formula", "op")
        if kind == "renumber":
            if numeric:
                node[key] = draw(_VALID_NUMBERS)
        elif kind == "long":
            if numeric:
                node[key] = draw(_LONG_NUMBERS)
        elif kind == "drop":
            del node[key]
        elif kind == "rename" and isinstance(node, dict):
            node[draw(_KEYS)] = node.pop(key)
        elif kind == "nest" and isinstance(node[key], dict):
            inner = node[key]
            if "formula" in inner or inner.get("type") in ("Piecewise", "Combined"):
                node[key] = draw(st.sampled_from([
                    {"type": "Combined", "op": "sub", "operands": [inner, inner]},
                    {"type": "Combined", "op": "div", "operands": [inner]},
                    {"type": "Piecewise", "pieces": [
                        {"region": {"type": "IntegerWindow", "lo": 0, "hi": 3},
                         "formula": inner}]},
                ]))
            else:
                node[key] = {"type": "UnionOf", "parts": [inner, copy.deepcopy(inner)]}
        elif kind == "copy":
            # a subtree moved where another kind of value belongs
            other_node, other_key = draw(st.sampled_from(paths))
            node[key] = copy.deepcopy(other_node[other_key])
        else:
            node[key] = draw(_SCALARS)
    return doc


class _TooSlow(Exception):
    pass


@contextmanager
def _time_bound(seconds):
    def on_alarm(signum, frame):
        raise _TooSlow(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestSpecFuzz:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(mutated_specs())
    def test_report_or_message(self, doc):
        text = json.dumps(doc).replace(f'"{_LONG_INTEGER}"', "8" * 5000)
        with _time_bound(5):
            try:
                assert isinstance(parse_spec(text), ParsedSpec)
            except SymcontError:
                pass
            with tempfile.TemporaryDirectory() as tmp:
                path = os.path.join(tmp, "spec.json")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    # small resolution flags keep every example quick; the
                    # spec's own config is still parsed and validated
                    code = main(["analyze", path, "--enum-limit", "60",
                                 "--grid-exponent", "4", "--max-pairs", "3000"])
        assert code in (0, 1, 2)
        assert "Traceback" not in err.getvalue()
        if code == 2:
            assert err.getvalue().startswith("error: ")
