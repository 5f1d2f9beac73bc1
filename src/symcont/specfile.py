"""Parsing of declarative analysis spec files.

A spec file is a JSON document:

    {
      "domain":   {"type": "OddPrimeReciprocals", "maxPrime": 1000,
                   "withZero": true},
      "function": {"type": "Piecewise", "pieces": [
                     {"region": {"type": "OddPrimeReciprocals",
                                 "maxPrime": 1000, "withZero": false},
                      "formula": {"formula": "Const", "c": 1}},
                     {"region": {"type": "FinitePoints", "points": [0]},
                      "formula": {"formula": "Const", "c": 0}}]},
      "subsetB":  {"type": "IntegerWindow", "lo": -5, "hi": 5},   # optional
      "config":   {"gridExponent": 10, "seed": 0}                 # optional
    }

Domain objects use the variant names FinitePoints, IntegerWindow,
OddPrimeReciprocals, NaturalReciprocals, TruncatedRationals, IntervalUnion,
Staircase, UnionOf. Function objects are a bare formula ({"formula": ...}),
a Piecewise, or a Combined. Numbers must be integers or exact strings such
as "3/4" or "1 + 1/2*sqrt2"; floats are rejected to keep every certificate
exact. With p, q, r, s unsigned decimal digit strings and surrounding
whitespace ignored, a number string is one of

    [+-]p[/q]                       a rational
    [+-]p[/q]*sqrt2                 a rational multiple of sqrt2
    [+-]p[/q] + r[/s]*sqrt2         both parts, also with "-" for "+"; the
                                    coefficient r[/s] is required, so
                                    "1 + sqrt2" is rejected
    [+-]sqrt2                       sqrt2, optionally signed

with optional whitespace around the operator and the "*" and between a
sign and sqrt2, and no zero denominator (exactnum.parse_quadext). A
document's repeated number strings are parsed once: each call of parse_spec
keeps a table from string to number, so strings spelled alike give one
shared, immutable QuadExt. A number string or JSON integer of more digits
than the interpreter converts between int and str (4 300 by default) is
rejected. Unknown keys are rejected everywhere. A Staircase takes at most
STAIRCASE_BLOCKS_MAX (1 000) blocks, an OddPrimeReciprocals at most
MAX_PRIME_MAX (10**6) as its maxPrime, a Monomial at most
MONOMIAL_DEGREE_MAX (64) as its n, and a deltaSchedule at most
analysis.DELTA_SCHEDULE_MAX (64) entries; larger values exit 2.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

from .analysis import DELTA_SCHEDULE_MAX, AnalysisConfig
from .domains import (
    Domain,
    FinitePoints,
    IntegerWindow,
    IntervalPiece,
    IntervalUnion,
    NaturalReciprocals,
    OddPrimeReciprocals,
    Staircase,
    TruncatedRationals,
    UnionOf,
)
from .errors import ParseError
from .exactnum import QuadExt, parse_quadext
from .functions import (
    Affine,
    Combined,
    Const,
    Formula,
    FuncPiece,
    FuncSpec,
    Identity,
    Monomial,
    Piecewise,
    Reciprocal,
)


# The staircase breakpoints are harmonic sums whose Fractions grow with the
# block count: classify(Staircase("A", b), Identity()) took 0.15 s at
# b = 1000 and 2.4 s at b = 4000 (2-vCPU Xeon, Python 3.11), so a spec asking
# for more blocks exits 2.
STAIRCASE_BLOCKS_MAX = 1000

# OddPrimeReciprocals sieves every integer up to maxPrime into a bytearray of
# that many bytes: 1 MB and 0.05 s at 10**6 (2-vCPU Xeon, Python 3.11), while
# 10**10 would ask for 10 GB, so a spec asking for a larger bound exits 2.
MAX_PRIME_MAX = 10**6

# x**n over points with a sqrt2 part grows by n times their bit length:
# classify(TruncatedRationals(20, 1, 4, adjoin_sqrt2=True), Monomial(n)) took
# 1.4 s at n = 64 and 29 s at n = 1000 (same machine), and 10**5 did not end
# within 20 s, so a spec asking for a higher degree exits 2.
MONOMIAL_DEGREE_MAX = 64


@dataclass
class ParsedSpec:
    domain: Domain
    function: FuncSpec
    subset_b: Domain | None
    config: AnalysisConfig


def _require_keys(obj: dict, where: str, required: set[str], optional: set[str] = frozenset()) -> None:
    missing = required - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing key(s) {sorted(missing)}")
    unknown = obj.keys() - required - optional
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {sorted(unknown)}")


def _number(
    value: object, where: str, numbers: dict[str, QuadExt], index: int | None = None
) -> QuadExt:
    """``value`` as an exact number; a string is parsed once per table
    ``numbers``. An error names it by ``where``, followed by ``[index]`` for
    a list entry; that text is built only on error."""
    if isinstance(value, str):
        q = numbers.get(value)
        if q is None:
            q = numbers[value] = parse_quadext(value)
        return q
    if isinstance(value, int) and not isinstance(value, bool):
        return QuadExt(value)
    if index is not None:
        where = f"{where}[{index}]"
    if isinstance(value, bool):
        raise ParseError(f"{where}: expected a number, got a boolean")
    if isinstance(value, float):
        raise ParseError(
            f"{where}: floats are not exact; write the value as a string "
            'like "3/4" or "1 + 1/2*sqrt2"'
        )
    raise ParseError(f"{where}: expected a number, got {type(value).__name__}")


def _integer(value: object, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer")
    return value


def _flag(value: object, where: str) -> bool:
    if not isinstance(value, bool):
        raise ParseError(f"{where}: expected true or false")
    return value


def _obj(value: object, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    return value


def _list(value: object, where: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list")
    return value


def parse_domain(
    obj: object, where: str = "domain", numbers: dict[str, QuadExt] | None = None
) -> Domain:
    if numbers is None:
        numbers = {}
    d = _obj(obj, where)
    kind = d.get("type")
    if not isinstance(kind, str):
        raise ParseError(f"{where}: needs a 'type' string")
    if kind == "FinitePoints":
        _require_keys(d, where, {"type", "points"})
        pw = f"{where}.points"
        pts = _list(d["points"], pw)
        if not pts:
            raise ParseError(f"{pw}: needs at least one point")
        # from a list: a tuple grown from a generator is resized, and the
        # interpreter keeps the freed ones until a full collection
        return FinitePoints(tuple([_number(p, pw, numbers, i) for i, p in enumerate(pts)]))
    if kind == "IntegerWindow":
        _require_keys(d, where, {"type", "lo", "hi"})
        return IntegerWindow(
            _integer(d["lo"], f"{where}.lo"), _integer(d["hi"], f"{where}.hi")
        )
    if kind == "OddPrimeReciprocals":
        _require_keys(d, where, {"type", "maxPrime", "withZero"})
        max_prime = _integer(d["maxPrime"], f"{where}.maxPrime")
        if max_prime > MAX_PRIME_MAX:
            raise ParseError(f"{where}.maxPrime: at most {MAX_PRIME_MAX}")
        return OddPrimeReciprocals(
            max_prime, with_zero=_flag(d["withZero"], f"{where}.withZero")
        )
    if kind == "NaturalReciprocals":
        _require_keys(d, where, {"type", "maxN", "withZero"})
        return NaturalReciprocals(
            _integer(d["maxN"], f"{where}.maxN"),
            with_zero=_flag(d["withZero"], f"{where}.withZero"),
        )
    if kind == "TruncatedRationals":
        _require_keys(d, where, {"type", "maxDenominator", "lo", "hi", "adjoinSqrt2"})
        return TruncatedRationals(
            _integer(d["maxDenominator"], f"{where}.maxDenominator"),
            _number(d["lo"], f"{where}.lo", numbers),
            _number(d["hi"], f"{where}.hi", numbers),
            adjoin_sqrt2=_flag(d["adjoinSqrt2"], f"{where}.adjoinSqrt2"),
        )
    if kind == "IntervalUnion":
        _require_keys(d, where, {"type", "pieces"})
        pieces = []
        for i, p in enumerate(_list(d["pieces"], f"{where}.pieces")):
            pw = f"{where}.pieces[{i}]"
            po = _obj(p, pw)
            _require_keys(po, pw, {"lo", "hi"}, {"loClosed", "hiClosed"})
            pieces.append(
                IntervalPiece(
                    _number(po["lo"], f"{pw}.lo", numbers),
                    _number(po["hi"], f"{pw}.hi", numbers),
                    lo_closed=_flag(po.get("loClosed", True), f"{pw}.loClosed"),
                    hi_closed=_flag(po.get("hiClosed", True), f"{pw}.hiClosed"),
                )
            )
        return IntervalUnion(tuple(pieces))
    if kind == "Staircase":
        _require_keys(d, where, {"type", "variant", "blocks"})
        variant = d["variant"]
        if variant not in ("A", "B"):
            raise ParseError(f"{where}.variant: expected 'A' or 'B'")
        blocks = _integer(d["blocks"], f"{where}.blocks")
        if blocks > STAIRCASE_BLOCKS_MAX:
            raise ParseError(f"{where}.blocks: at most {STAIRCASE_BLOCKS_MAX} blocks")
        return Staircase(variant, blocks)
    if kind == "UnionOf":
        _require_keys(d, where, {"type", "parts"})
        parts = _list(d["parts"], f"{where}.parts")
        if not parts:
            raise ParseError(f"{where}.parts: needs at least one part")
        return UnionOf(
            tuple(
                parse_domain(p, f"{where}.parts[{i}]", numbers)
                for i, p in enumerate(parts)
            )
        )
    raise ParseError(f"{where}: unknown domain type {kind!r}")


def parse_formula(
    obj: object, where: str, numbers: dict[str, QuadExt] | None = None
) -> Formula:
    if numbers is None:
        numbers = {}
    d = _obj(obj, where)
    kind = d.get("formula")
    if not isinstance(kind, str):
        raise ParseError(f"{where}: needs a 'formula' string")
    if kind == "Const":
        _require_keys(d, where, {"formula", "c"})
        return Const(_number(d["c"], f"{where}.c", numbers))
    if kind == "Identity":
        _require_keys(d, where, {"formula"})
        return Identity()
    if kind == "Affine":
        _require_keys(d, where, {"formula", "m", "c"})
        return Affine(
            _number(d["m"], f"{where}.m", numbers), _number(d["c"], f"{where}.c", numbers)
        )
    if kind == "Reciprocal":
        _require_keys(d, where, {"formula"})
        return Reciprocal()
    if kind == "Monomial":
        _require_keys(d, where, {"formula", "n"})
        degree = _integer(d["n"], f"{where}.n")
        if degree > MONOMIAL_DEGREE_MAX:
            raise ParseError(f"{where}.n: at most {MONOMIAL_DEGREE_MAX}")
        return Monomial(degree)
    raise ParseError(f"{where}: unknown formula {kind!r}")


def parse_function(
    obj: object, where: str = "function", numbers: dict[str, QuadExt] | None = None
) -> FuncSpec:
    if numbers is None:
        numbers = {}
    d = _obj(obj, where)
    if "formula" in d:
        return parse_formula(d, where, numbers)
    kind = d.get("type")
    if kind == "Piecewise":
        _require_keys(d, where, {"type", "pieces"})
        pieces = []
        for i, p in enumerate(_list(d["pieces"], f"{where}.pieces")):
            pw = f"{where}.pieces[{i}]"
            po = _obj(p, pw)
            _require_keys(po, pw, {"region", "formula"})
            pieces.append(
                FuncPiece(
                    parse_domain(po["region"], f"{pw}.region", numbers),
                    parse_formula(po["formula"], f"{pw}.formula", numbers),
                )
            )
        if not pieces:
            raise ParseError(f"{where}.pieces: needs at least one piece")
        return Piecewise(tuple(pieces))
    if kind == "Combined":
        _require_keys(d, where, {"type", "op", "operands"}, {"alpha"})
        op = d["op"]
        if op not in ("scale", "add", "sub", "mul", "div"):
            raise ParseError(f"{where}.op: unknown operation {op!r}")
        operands = tuple(
            parse_function(o, f"{where}.operands[{i}]", numbers)
            for i, o in enumerate(_list(d["operands"], f"{where}.operands"))
        )
        alpha = None
        if op == "scale":
            if "alpha" not in d:
                raise ParseError(f"{where}: scale needs an 'alpha'")
            alpha = _number(d["alpha"], f"{where}.alpha", numbers)
        elif "alpha" in d:
            raise ParseError(f"{where}: 'alpha' only applies to scale")
        return Combined(op, operands, alpha)
    raise ParseError(
        f"{where}: expected a bare formula, a Piecewise, or a Combined"
    )


def parse_config(
    obj: object, where: str = "config", numbers: dict[str, QuadExt] | None = None
) -> AnalysisConfig:
    if numbers is None:
        numbers = {}
    d = _obj(obj, where)
    _require_keys(
        d,
        where,
        set(),
        {"deltaSchedule", "gridExponent", "maxPairs", "enumLimit", "seed", "outputFormat"},
    )
    kwargs: dict = {}
    if "deltaSchedule" in d:
        sw = f"{where}.deltaSchedule"
        sched = _list(d["deltaSchedule"], sw)
        if len(sched) > DELTA_SCHEDULE_MAX:
            raise ParseError(f"{sw}: at most {DELTA_SCHEDULE_MAX} entries")
        kwargs["delta_schedule"] = tuple(_number(v, sw, numbers, i) for i, v in enumerate(sched))
    if "gridExponent" in d:
        kwargs["grid_exponent"] = _integer(d["gridExponent"], f"{where}.gridExponent")
    if "maxPairs" in d:
        kwargs["max_pairs"] = _integer(d["maxPairs"], f"{where}.maxPairs")
    if "enumLimit" in d:
        kwargs["enum_limit"] = _integer(d["enumLimit"], f"{where}.enumLimit")
    if "seed" in d:
        kwargs["seed"] = _integer(d["seed"], f"{where}.seed")
    if "outputFormat" in d:
        fmt = d["outputFormat"]
        if fmt not in ("text", "json"):
            raise ParseError(f"{where}.outputFormat: expected 'text' or 'json'")
        kwargs["output_format"] = fmt
    return AnalysisConfig(**kwargs)


def _validate_subset(ambient: Domain, subset: Domain, enum_limit: int) -> None:
    if not subset.enumerable:
        raise ParseError("subsetB: must be an enumerable set")
    enum = subset.enumerate(enum_limit)
    for p in enum.points:
        if not ambient.contains(p):
            raise ParseError(
                f"subsetB: point {p} is not a member of the ambient domain"
            )


def parse_spec(text: str) -> ParsedSpec:
    """Parse and fully validate a spec document; unknown keys are rejected
    and subsetB membership in the ambient domain is checked point by point.
    Each distinct number string of the document is parsed once, into a
    table that lives for this call only."""
    if not text.strip():
        raise ParseError("empty input")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"syntax error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except ValueError:
        # an integer literal past the interpreter's limit on int/str conversion
        raise ParseError(
            f"an integer exceeds the limit of {sys.get_int_max_str_digits()} digits"
        ) from None
    top = _obj(data, "spec")
    _require_keys(top, "spec", {"domain", "function"}, {"subsetB", "config"})
    numbers: dict[str, QuadExt] = {}
    config = parse_config(top.get("config", {}), "config", numbers)
    domain = parse_domain(top["domain"], "domain", numbers)
    function = parse_function(top["function"], "function", numbers)
    subset_b = None
    if "subsetB" in top:
        subset_b = parse_domain(top["subsetB"], "subsetB", numbers)
        _validate_subset(domain, subset_b, config.enum_limit)
    return ParsedSpec(domain, function, subset_b, config)
