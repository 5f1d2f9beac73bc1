"""Shared test helpers: an independent high-precision numeric oracle, seeded
random generators for domains and piecewise functions, a brute-force
sequential-criterion oracle, and a subprocess CLI runner."""

from __future__ import annotations

import subprocess
import sys
from decimal import Decimal, getcontext
from fractions import Fraction
from pathlib import Path

import pytest

from symcont import (
    Affine,
    Const,
    DomainError,
    FinitePoints,
    FuncPiece,
    Identity,
    IntervalPiece,
    IntervalUnion,
    Monomial,
    Piecewise,
    QuadExt,
    Staircase,
    UnionOf,
    evaluate,
)
from symcont.functions import formula_eval

getcontext().prec = 60
SQRT2_DEC = Decimal(2).sqrt()

REPO_ROOT = Path(__file__).resolve().parent.parent


def qx(a, b=0) -> QuadExt:
    return QuadExt(Fraction(a), Fraction(b))


def dec(x: QuadExt) -> Decimal:
    """50+ digit decimal image of an exact number; the independent oracle for
    order and arithmetic checks."""
    rat = Decimal(x.rat.numerator) / Decimal(x.rat.denominator)
    irr = Decimal(x.irr.numerator) / Decimal(x.irr.denominator)
    return rat + irr * SQRT2_DEC


IRR_CHOICES = (
    Fraction(0),
    Fraction(1, 2),
    Fraction(-1, 2),
    Fraction(1),
    Fraction(-1),
)

MIN_SEP = Fraction(1, 2**15)


def random_quadext(rng, span: int = 4096, max_den: int = 16) -> QuadExt:
    rat = Fraction(rng.randint(-span, span), rng.randint(1, max_den))
    return QuadExt(rat, rng.choice(IRR_CHOICES))


def random_sparse_domain(rng, max_points: int = 40) -> FinitePoints:
    """Random finite set in Q(sqrt2) whose distinct points stay more than
    2^-15 apart (checked exactly)."""
    target = rng.randint(2, max_points)
    kept: list[QuadExt] = []
    attempts = 0
    while len(kept) < target and attempts < 40 * max_points:
        attempts += 1
        cand = random_quadext(rng)
        if all(abs(cand - p) > MIN_SEP for p in kept):
            kept.append(cand)
    return FinitePoints(tuple(kept))


def random_piecewise(rng, domain: FinitePoints) -> Piecewise:
    """Random exact piecewise function: the points are partitioned into a few
    groups, each governed by one small formula."""
    groups = rng.randint(1, min(4, len(domain.points)))
    buckets: list[list[QuadExt]] = [[] for _ in range(groups)]
    for p in domain.points:
        buckets[rng.randrange(groups)].append(p)
    pieces = []
    for bucket in buckets:
        if not bucket:
            continue
        kind = rng.randrange(5)
        if kind == 0:
            formula = Const(random_quadext(rng, span=64, max_den=8))
        elif kind == 1:
            formula = Identity()
        elif kind == 2:
            slope = QuadExt(Fraction(rng.randint(-16, 16), rng.randint(1, 4)))
            formula = Affine(slope, random_quadext(rng, span=64, max_den=8))
        elif kind == 3:
            formula = Monomial(2)
        else:
            formula = Monomial(3)
        pieces.append(FuncPiece(FinitePoints(tuple(bucket)), formula))
    return Piecewise(tuple(pieces))


def _member(region, x) -> bool:
    """Membership by a linear scan of the pieces of interval unions and
    staircases (as unions of them), so no bisection under test decides it."""
    if isinstance(region, IntervalUnion):
        return any(p.contains(x) for p in region.pieces)
    if isinstance(region, Staircase):
        return any(p.contains(x) for p in region.block_pieces())
    if isinstance(region, UnionOf):
        return any(_member(part, x) for part in region.parts)
    return region.contains(x)


def evaluate_by_scan(f: Piecewise, x: QuadExt) -> QuadExt:
    """First match as a plain loop: the first region holding x owns it. The
    oracle for ``evaluate``'s owner index."""
    for fp in f.pieces:
        if _member(fp.region, x):
            return formula_eval(fp.formula, x)
    raise DomainError(f"{x} not covered by any piecewise region")


def rational_value(x: QuadExt) -> Fraction | None:
    """The Fraction behind x when x is rational, else None."""
    return x.rat if x.irr == 0 else None


def ex_3_5_member(degree: int) -> Piecewise:
    """Member N of the example 3.5 sequence: x^N on [0, 1), constant 1 on
    [1, 2]."""
    return Piecewise(
        (
            FuncPiece(
                IntervalUnion((IntervalPiece(qx(0), qx(1), True, False),)),
                Monomial(degree),
            ),
            FuncPiece(IntervalUnion((IntervalPiece(qx(1), qx(2)),)), Const(qx(1))),
        )
    )


def brute_force_usc_status(domain: FinitePoints, f) -> str:
    """Sequential-criterion oracle, independent of the analysis module.

    The uniform symmetric notion fails exactly when valid symmetric pairs
    (midpoint in the set) exist at arbitrarily small scale while their
    oscillation stays above some fixed epsilon. The scales of a finite set
    are bounded below, so the search inspects, for each candidate epsilon,
    whether scales with oscillation >= epsilon accumulate at zero."""
    pts = domain.points
    values = {p: evaluate(f, p) for p in pts}
    entries: list[tuple[QuadExt, QuadExt]] = []
    for i, y in enumerate(pts):
        for x in pts[i + 1 :]:
            mid = (x + y) / 2
            if domain.contains(mid):
                entries.append(((x - y) / 2, abs(values[x] - values[y])))
    positive = sorted({osc for _, osc in entries if osc.sign() > 0})
    for eps in positive:
        # a refuting sequence needs challenges at scales accumulating at 0;
        # the infimum over the (finite) challenge set decides
        inf_scale = min(h for h, osc in entries if osc >= eps)
        if inf_scale.sign() <= 0:
            return "refuted"
    return "proven"


def run_cli(
    *args: str, cwd: Path | None = None, timeout: float | None = None
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "symcont", *args],
        capture_output=True,
        text=True,
        cwd=cwd or REPO_ROOT,
        timeout=timeout,
    )


@pytest.fixture(scope="session")
def report_schema() -> dict:
    import json

    with open(REPO_ROOT / "docs" / "report-schema.json") as fh:
        return json.load(fh)
