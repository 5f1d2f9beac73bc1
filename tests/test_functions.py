import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from symcont import (
    SQRT2,
    Affine,
    Combined,
    ConfigurationError,
    Const,
    DomainError,
    FinitePoints,
    FuncPiece,
    Identity,
    IntegerWindow,
    IntervalPiece,
    IntervalUnion,
    Monomial,
    NaturalReciprocals,
    OddPrimeReciprocals,
    Piecewise,
    QuadExt,
    Reciprocal,
    Staircase,
    TruncatedRationals,
    UnionOf,
    bounded_on,
    describe_function,
    evaluate,
    one_sided_limits,
    scale,
    sup_abs_diff,
)
from symcont import AnalysisConfig
from symcont.analysis import _LiftedNumbers, _probe_points
from symcont.functions import _evaluate_many, formula_eval, formula_limit, tile_formulas
from symcont.zoo import staircase_function

from conftest import _member, dec, evaluate_by_scan, qx, rational_value


def indicator_sqrt2() -> Piecewise:
    # 1 at sqrt2, 0 at every rational point of the carrier
    return Piecewise(
        (
            FuncPiece(FinitePoints.of(SQRT2), Const(1)),
            FuncPiece(
                IntervalUnion(
                    (
                        IntervalPiece(qx(0), SQRT2, True, False),
                        IntervalPiece(SQRT2, qx(2), False, True),
                    )
                ),
                Const(0),
            ),
        )
    )


class TestAtoms:
    def test_reciprocal(self):
        assert evaluate(Reciprocal(), qx(Fraction(1, 5))) == qx(5)
        assert evaluate(Reciprocal(), SQRT2) == SQRT2 / 2

    def test_reciprocal_at_zero(self):
        with pytest.raises(DomainError):
            evaluate(Reciprocal(), qx(0))

    def test_affine(self):
        f = Affine(Fraction(3, 2), -1)
        assert evaluate(f, qx(4)) == qx(5)
        assert evaluate(f, SQRT2) == SQRT2 * Fraction(3, 2) - 1

    def test_monomial(self):
        assert evaluate(Monomial(3), qx(-2)) == qx(-8)
        assert evaluate(Monomial(2), SQRT2) == qx(2)
        with pytest.raises(ConfigurationError):
            Monomial(0)

    def test_identity_const(self):
        assert evaluate(Identity(), SQRT2) == SQRT2
        assert evaluate(Const(Fraction(2, 7)), qx(100)) == qx(Fraction(2, 7))

    def test_limit_diverges_only_for_reciprocal_at_zero(self):
        assert formula_limit(Reciprocal(), qx(0)) is None
        assert formula_limit(Reciprocal(), qx(2)) == qx(Fraction(1, 2))
        assert formula_limit(Monomial(2), qx(0)) == qx(0)


class TestPiecewise:
    def test_first_matching_region_wins(self):
        f = indicator_sqrt2()
        assert evaluate(f, SQRT2) == qx(1)
        assert evaluate(f, qx(1)) == qx(0)
        assert evaluate(f, qx(Fraction(7, 5))) == qx(0)

    def test_uncovered_point(self):
        f = Piecewise((FuncPiece(FinitePoints.of(qx(0)), Const(1)),))
        with pytest.raises(DomainError):
            evaluate(f, qx(1))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            Piecewise(())

    def test_staircase_blocks(self):
        stair = Staircase("A", 4)
        pieces = stair.block_pieces()
        f = Piecewise(
            tuple(
                FuncPiece(IntervalUnion((p,)), Const(2 * i - 1))
                for i, p in enumerate(pieces, start=1)
            )
        )
        # second block starts at 5/2 and carries the value 3
        assert evaluate(f, qx(Fraction(5, 2))) == qx(3)
        assert evaluate(f, qx(1)) == qx(1)


# ---------------------------------------------------------------------------
# the owner index of evaluate against the first-match scan

# few ends, so pieces of different regions often touch or overlap
ENDS = sorted(
    [qx(0), qx(Fraction(1, 2)), qx(1), SQRT2, qx(Fraction(3, 2)), qx(2), qx(3)], key=dec
)
PROBES = sorted(
    set(ENDS)
    | {(a + b) / 2 for a, b in zip(ENDS, ENDS[1:])}
    | {qx(v) for v in (-1, 4, Fraction(1, 3), Fraction(1, 4), Fraction(3, 4), Fraction(5, 2))}
    | {SQRT2 + Fraction(1, 100), SQRT2 - Fraction(1, 100), SQRT2 / 2}
    | {qx(b) for v in "AB" for b in Staircase(v, 3).breakpoints()},
    key=dec,
)


@st.composite
def interval_unions(draw) -> IntervalUnion:
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        # short pieces, so that pieces of different regions touch more
        # often than they overlap
        i = draw(st.integers(0, len(ENDS) - 1))
        j = min(i + draw(st.integers(0, 2)), len(ENDS) - 1)
        if i == j:
            pieces.append(IntervalPiece(ENDS[i], ENDS[i]))
        else:
            pieces.append(IntervalPiece(ENDS[i], ENDS[j], draw(st.booleans()), draw(st.booleans())))
    try:
        return IntervalUnion(tuple(pieces))
    except DomainError:
        # the pieces of one union overlap; keep the first alone
        return IntervalUnion(pieces[:1])


finite_regions = st.lists(st.sampled_from(PROBES), min_size=1, max_size=6).map(
    lambda pts: FinitePoints(tuple(pts))
)
family_regions = st.one_of(
    st.builds(NaturalReciprocals, st.integers(1, 5), st.booleans()),
    st.builds(
        lambda n, i, j, adjoin: TruncatedRationals(n, ENDS[min(i, j)], ENDS[max(i, j)], adjoin),
        st.integers(1, 3),
        st.integers(0, len(ENDS) - 1),
        st.integers(0, len(ENDS) - 1),
        st.booleans(),
    ),
    st.builds(lambda a, b: UnionOf((a, b)), finite_regions, st.builds(NaturalReciprocals, st.integers(1, 4))),
    st.builds(lambda a, b: UnionOf((a, b)), interval_unions(), finite_regions),
    st.builds(Staircase, st.sampled_from("AB"), st.integers(1, 3)),
)
regions = st.one_of(interval_unions(), finite_regions, interval_unions(), family_regions)


@st.composite
def piecewise_specs(draw) -> Piecewise:
    """Mixed regions; region i carries a formula whose value names i."""
    pieces = []
    for i, region in enumerate(draw(st.lists(regions, min_size=1, max_size=6))):
        formula = draw(st.sampled_from((Const(i), Affine(1, 10 * i))))
        pieces.append(FuncPiece(region, formula))
    return Piecewise(tuple(pieces))


def _spec(*regions) -> Piecewise:
    return Piecewise(tuple(FuncPiece(r, Const(i)) for i, r in enumerate(regions)))


def _outcome(fn, f, x):
    try:
        return fn(f, x)
    except DomainError:
        return "uncovered"


class TestOwnerIndex:
    @settings(max_examples=150, deadline=None)
    @given(piecewise_specs())
    # a point where a closed end meets an open one, in two regions
    @example(_spec(IntervalUnion((IntervalPiece(0, 1),)),
                   IntervalUnion((IntervalPiece(1, 2, False, True),))))
    # a point held by two finite regions
    @example(_spec(FinitePoints.of(1, 2), FinitePoints.of(2)))
    # pieces of two regions overlap
    @example(_spec(IntervalUnion((IntervalPiece(0, 2),)), IntervalUnion((IntervalPiece(1, 3),))))
    # a family region after the indexed owner also holds the point
    @example(_spec(FinitePoints.of(0), NaturalReciprocals(3)))
    # a leading family region, then indexed and scanned regions
    @example(_spec(TruncatedRationals(2, 0, 2), FinitePoints.of(SQRT2, 3),
                   IntervalUnion((IntervalPiece(0, 1, False, False), IntervalPiece(1, 1),
                                  IntervalPiece(1, 2, False, True))),
                   UnionOf((FinitePoints.of(-1), NaturalReciprocals(4)))))
    def test_matches_first_match_scan(self, f):
        for x in PROBES:
            expected = _outcome(evaluate_by_scan, f, x)
            assert _outcome(evaluate, f, x) == expected, x
            if x.is_rational():
                assert _outcome(evaluate, f, x.rat) == expected, x
                if x.d == 1:
                    assert _outcome(evaluate, f, x.a) == expected, x

    def test_uncovered_point_message(self):
        f = _spec(FinitePoints.of(0), IntervalUnion((IntervalPiece(1, 2),)))
        for x in (qx(Fraction(5, 2)), Fraction(5, 2), 3, SQRT2 / 2):
            with pytest.raises(DomainError) as direct:
                evaluate(f, x)
            with pytest.raises(DomainError) as scanned:
                evaluate_by_scan(f, x)
            assert str(direct.value) == str(scanned.value) == f"{x} not covered by any piecewise region"


# ---------------------------------------------------------------------------
# _evaluate_many over an ascending listing against the point-by-point loop

# every Domain class, IntegerWindow and OddPrimeReciprocals included
all_regions = st.one_of(
    regions,
    st.builds(IntegerWindow, st.integers(-1, 1), st.integers(1, 4)),
    st.builds(OddPrimeReciprocals, st.integers(1, 7), st.booleans()),
)
listings = st.lists(st.sampled_from(PROBES), unique=True, max_size=len(PROBES)).map(
    lambda xs: sorted(xs, key=dec)
)
# the reciprocal fails at 0, a point many regions hold
formulas = st.sampled_from(
    (Const(7), Const(SQRT2), Identity(), Affine(2, -1), Monomial(2), Reciprocal())
)


@st.composite
def mixed_specs(draw):
    """A piecewise spec over regions that may overlap, so first match
    decides, or a formula, or a Combined of two such specs."""

    def piecewise():
        pieces = [
            FuncPiece(region, draw(formulas))
            for region in draw(st.lists(all_regions, min_size=1, max_size=5))
        ]
        return Piecewise(tuple(pieces))

    kind = draw(st.sampled_from(("piecewise", "formula", "combined")))
    if kind == "formula":
        return draw(formulas)
    if kind == "piecewise":
        return piecewise()
    op = draw(st.sampled_from(("add", "sub", "mul", "div", "scale")))
    if op == "scale":
        return scale(piecewise(), Fraction(-3, 2))
    return Combined(op, (piecewise(), draw(st.one_of(formulas, st.just(piecewise())))))


def _many_outcome(fn):
    """The values, or the type and message of the error raised."""
    try:
        return fn()
    except DomainError as exc:
        return type(exc), str(exc)


def _pointwise(f, xs):
    return [evaluate(f, x) for x in xs]


class TestEvaluateMany:
    @settings(max_examples=300, deadline=None)
    @given(mixed_specs(), listings)
    # a region after the owner also holds the point: first match keeps it
    @example(_spec(TruncatedRationals(2, 0, 2), FinitePoints.of(1, SQRT2),
                   IntervalUnion((IntervalPiece(0, 2),))), PROBES)
    # a leading interval union, then a family region over the same points
    @example(_spec(IntervalUnion((IntervalPiece(0, 1, False, True),)), NaturalReciprocals(4),
                   UnionOf((IntegerWindow(0, 3), OddPrimeReciprocals(5)))), PROBES)
    def test_matches_pointwise(self, f, xs):
        expected = _many_outcome(lambda: _pointwise(f, xs))
        assert _many_outcome(lambda: _evaluate_many(f, xs)) == expected
        assert _many_outcome(lambda: _evaluate_many(f, tuple(xs))) == expected

    @settings(max_examples=200, deadline=None)
    @given(all_regions, listings, st.data())
    def test_members_match_contains(self, region, xs, data):
        keep = data.draw(st.lists(st.booleans(), min_size=len(xs), max_size=len(xs)))
        idx = [k for k, kept in enumerate(keep) if kept]
        assert region.members(xs, idx) == [k for k in idx if region.contains(xs[k])]

    @settings(max_examples=60, deadline=None)
    @given(interval_unions(), mixed_specs(), st.integers(1, 4))
    def test_sampled_points(self, ambient, f, exponent):
        pts, runs, _, _ = _probe_points(ambient, AnalysisConfig(grid_exponent=exponent), for_pairs=False)
        expected = _many_outcome(lambda: _pointwise(f, list(pts)))
        assert _many_outcome(lambda: _evaluate_many(f, pts)) == expected

    def test_sampled_points_are_lifted(self):
        ambient = IntervalUnion((IntervalPiece(0, 1), IntervalPiece(2, 3, False, True)))
        pts, _, _, _ = _probe_points(ambient, AnalysisConfig(grid_exponent=4), for_pairs=False)
        assert isinstance(pts, _LiftedNumbers)
        f = _spec(IntervalUnion((IntervalPiece(0, Fraction(1, 2)),)), ambient)
        assert _evaluate_many(f, pts) == _pointwise(f, list(pts))

    @pytest.mark.parametrize(
        "f, xs, message",
        [
            # an uncovered point after a reciprocal at 0, and the other way round
            (Piecewise((FuncPiece(IntegerWindow(-1, 1), Reciprocal()),)),
             [qx(-1), qx(0), qx(2)], "reciprocal evaluated at 0"),
            (Piecewise((FuncPiece(IntegerWindow(0, 1), Reciprocal()),)),
             [qx(-1), qx(0), qx(2)], "-1 not covered by any piecewise region"),
            # division by zero before an uncovered point, and after one
            (Combined("div", (Piecewise((FuncPiece(IntegerWindow(-1, 1), Identity()),)),
                              Identity())),
             [qx(-1), qx(0), qx(2)], "division by zero in combined spec"),
            (Combined("div", (Piecewise((FuncPiece(IntegerWindow(0, 1), Identity()),)),
                              Identity())),
             [qx(-1), qx(0), qx(2)], "-1 not covered by any piecewise region"),
        ],
    )
    def test_first_failing_point_raises(self, f, xs, message):
        for run in (lambda: _evaluate_many(f, xs), lambda: _pointwise(f, xs)):
            with pytest.raises(DomainError) as err:
                run()
            assert str(err.value) == message

    def test_constant_owner_shares_its_value(self):
        f = _spec(TruncatedRationals(3, 0, 2), FinitePoints.of(SQRT2))
        pts = TruncatedRationals(3, 0, 2, adjoin_sqrt2=True).enumerate(100).points
        vals = _evaluate_many(f, pts)
        assert vals == _pointwise(f, pts)
        assert len({id(v) for v in vals if v == qx(0)}) == 1


class TestCombined:
    def test_scale(self):
        f = scale(Const(2), 3)
        assert evaluate(f, qx(0)) == qx(6)
        assert f.op == "scale" and f.alpha == qx(3)

    def test_sub_self_is_zero(self):
        f = Affine(2, -5)
        diff = Combined("sub", (f, f))
        for x in (qx(0), SQRT2, qx(Fraction(-7, 3))):
            assert evaluate(diff, x) == qx(0)

    def test_add_mul_div(self):
        g = Combined("add", (Identity(), Const(1)))
        assert evaluate(g, qx(2)) == qx(3)
        h = Combined("mul", (Identity(), Identity()))
        assert evaluate(h, SQRT2) == qx(2)
        q = Combined("div", (Const(1), Identity()))
        assert evaluate(q, qx(4)) == qx(Fraction(1, 4))
        with pytest.raises(DomainError):
            evaluate(q, qx(0))

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            Combined("pow", (Identity(),))
        with pytest.raises(ConfigurationError):
            Combined("scale", (Identity(), Identity()), qx(1))
        with pytest.raises(ConfigurationError):
            Combined("scale", (Identity(),))
        with pytest.raises(ConfigurationError):
            Combined("div", (Identity(),))
        with pytest.raises(ConfigurationError):
            Combined("add", (Identity(),))

    @settings(max_examples=50, deadline=None)
    @given(
        st.fractions(min_value=-9, max_value=9, max_denominator=10),
        st.fractions(min_value=-9, max_value=9, max_denominator=10),
        st.fractions(min_value=-9, max_value=9, max_denominator=10),
    )
    def test_pointwise_homomorphism(self, a, b, x):
        fa, fb = Affine(a, 1), Affine(b, -2)
        pt = qx(x)
        la, lb = evaluate(fa, pt), evaluate(fb, pt)
        assert evaluate(Combined("add", (fa, fb)), pt) == la + lb
        assert evaluate(Combined("sub", (fa, fb)), pt) == la - lb
        assert evaluate(Combined("mul", (fa, fb)), pt) == la * lb
        assert evaluate(scale(fa, Fraction(5, 3)), pt) == la * Fraction(5, 3)


class TestOneSidedLimits:
    def test_matching_closure_values(self):
        pieces = (
            IntervalPiece(qx(0), qx(1), True, False),
            IntervalPiece(qx(1), qx(2), True, True),
        )
        f = Piecewise(
            (
                FuncPiece(IntervalUnion((pieces[0],)), Monomial(2)),
                FuncPiece(IntervalUnion((pieces[1],)), Const(1)),
            )
        )
        left, right = one_sided_limits(f, pieces, qx(1))
        assert left.exists and left.value == qx(1)
        assert right.exists and right.value == qx(1)

    def test_jump(self):
        pieces = (
            IntervalPiece(qx(0), qx(1), True, False),
            IntervalPiece(qx(1), qx(2), True, True),
        )
        f = Piecewise(
            (
                FuncPiece(IntervalUnion((pieces[0],)), Const(0)),
                FuncPiece(IntervalUnion((pieces[1],)), Const(5)),
            )
        )
        left, right = one_sided_limits(f, pieces, qx(1))
        assert left.value == qx(0) and right.value == qx(5)

    def test_missing_side(self):
        pieces = (IntervalPiece(qx(0), qx(1)),)
        left, right = one_sided_limits(Identity(), pieces, qx(0))
        assert not left.exists
        assert right.exists and right.value == qx(0)

    def test_divergent_side(self):
        pieces = (IntervalPiece(qx(0), qx(1), False, True),)
        left, right = one_sided_limits(Reciprocal(), pieces, qx(0))
        assert right.exists and right.value is None


class TestBounds:
    def test_reciprocal_on_primes(self):
        d = OddPrimeReciprocals(100, with_zero=False)
        rep = bounded_on(Reciprocal(), d)
        assert rep.value == qx(97)
        assert rep.attained_at == qx(Fraction(1, 97))
        assert not rep.unbounded

    def test_const(self):
        rep = bounded_on(Const(-1), NaturalReciprocals(10, with_zero=True))
        assert rep.value == qx(1)

    def test_analytic_blocks(self):
        stair = Staircase("A", 4)
        rep = bounded_on(Identity(), stair)
        assert rep.method == "analytic"
        assert rep.value == qx(stair.breakpoints()[-1])

    def test_unbounded_near_zero(self):
        dom = IntervalUnion((IntervalPiece(qx(0), qx(1), False, True),))
        rep = bounded_on(Reciprocal(), dom)
        assert rep.unbounded and rep.value is None

    def test_reciprocal_through_zero_rejected(self):
        dom = IntervalUnion((IntervalPiece(qx(-1), qx(1)),))
        with pytest.raises(ConfigurationError):
            bounded_on(Reciprocal(), dom)


class TestSupAbsDiff:
    def test_affine_vs_const(self):
        dom = IntervalUnion((IntervalPiece(qx(0), qx(2)),))
        assert sup_abs_diff(Affine(1, 0), Const(1), dom) == qx(1)

    def test_monomial_tail(self):
        dom = IntervalUnion((IntervalPiece(qx(0), qx(1), True, False),))
        # sup |x^2 - 1| on [0, 1) is attained in the closure at 0
        assert sup_abs_diff(Monomial(2), Const(1), dom) == qx(1)

    def test_identical(self):
        dom = IntervalUnion((IntervalPiece(qx(1), qx(3)),))
        assert sup_abs_diff(Reciprocal(), Reciprocal(), dom) == qx(0)

    def test_unsupported_pair(self):
        dom = IntervalUnion((IntervalPiece(qx(1), qx(3)),))
        with pytest.raises(ConfigurationError):
            sup_abs_diff(Monomial(2), Monomial(3), dom)


class TestTiling:
    def test_bare_formula_covers_all(self):
        pieces = (IntervalPiece(qx(0), qx(1)), IntervalPiece(qx(2), qx(3)))
        tiles = tile_formulas(Identity(), pieces)
        assert [fm for _, fm in tiles] == [Identity(), Identity()]

    def test_piece_listed_twice_takes_the_first_region(self):
        piece = IntervalPiece(qx(0), qx(1))
        f = Piecewise(
            (
                FuncPiece(IntervalUnion((piece,)), Const(0)),
                FuncPiece(IntervalUnion((piece,)), Const(1)),
            )
        )
        assert tile_formulas(f, (piece,)) == [(piece, Const(0))]

    def test_piece_inside_a_listed_piece(self):
        piece = IntervalPiece(qx(1), qx(2), False, True)
        f = _spec(FinitePoints.of(0), IntervalUnion((IntervalPiece(qx(0), qx(3)),)))
        assert tile_formulas(f, (piece, IntervalPiece(qx(0), qx(0)))) == [
            (piece, Const(1)),
            (IntervalPiece(qx(0), qx(0)), Const(0)),
        ]

    def test_unowned_piece(self):
        f = Piecewise((FuncPiece(FinitePoints.of(qx(9)), Const(0)),))
        with pytest.raises(ConfigurationError, match="no piecewise region covers"):
            tile_formulas(f, (IntervalPiece(qx(0), qx(1)),))

    def test_a_point_is_decided_after_a_family_region(self):
        f = _spec(NaturalReciprocals(10, False), IntervalUnion((IntervalPiece(qx(0), qx(1)),)))
        half, zero = IntervalPiece(qx(Fraction(1, 2)), qx(Fraction(1, 2))), IntervalPiece(0, 0)
        assert tile_formulas(f, (half, zero)) == [(half, Const(0)), (zero, Const(1))]


# every piece end and region point of _tiling_case lies on this grid, so
# first match is constant on each grid point and on each open gap between
# neighbours, whose midpoint stands for it
_GRID = sorted({qx(Fraction(k, 2)) for k in range(9)} | {SQRT2}, key=dec)
_GRID_PROBES = sorted(_GRID + [(u + v) / 2 for u, v in zip(_GRID, _GRID[1:])], key=dec)


def _scan_tiles(f, pieces):
    """tile_formulas of a piecewise spec by brute force: each grid probe of
    each piece is given to the regions in order, and the piece is refused
    when its probes take more than one region or none, or when a region
    that is not an interval union or finite points comes at or before its
    owner (unless the piece is one point)."""
    regions = [fp.region for fp in f.pieces]
    size = len(regions)
    blind = next(
        (i for i, r in enumerate(regions) if not isinstance(r, (FinitePoints, IntervalUnion))),
        size,
    )
    out = []
    for piece in pieces:
        got = set()
        for x in _GRID_PROBES:
            if piece.contains(x):
                got.add(next((i for i, r in enumerate(regions) if r.contains(x)), size))
        got = sorted(got)
        if got[-1] == size:
            why = "has points no piecewise region covers"
        elif len(got) > 1:
            why = f"is split between piecewise regions {', '.join(map(str, got))}"
        elif got[0] >= blind and not piece.is_degenerate:
            why = f"comes after piecewise region {blind} ({regions[blind].describe()})"
        else:
            out.append((piece, f.pieces[got[0]].formula))
            continue
        raise ConfigurationError(f"piece {piece.describe()} {why}")
    return out


def _tiling_case(rng):
    """A piecewise spec and pieces to tile over the grid 0, 1/2, ..., 4 and
    sqrt2: interval-union regions, which may list, nest in or overlap each
    other's pieces, finite-points regions, now and then a family region
    whose points 1/3, 1/5 and 1/7 no probe meets, and the listed pieces plus
    some no region lists."""
    ends = _GRID
    cands = [IntervalPiece(x, x) for x in ends]
    for x, y in zip(ends, ends[1:]):
        cands += [IntervalPiece(x, y, lc, hc) for lc in (True, False) for hc in (True, False)]
    regions = []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.1:
            regions.append(OddPrimeReciprocals(7))
            continue
        if rng.random() < 0.3:
            regions.append(FinitePoints(tuple(rng.sample(ends, rng.randint(1, 3)))))
            continue
        chosen = []
        for piece in rng.sample(cands, rng.randint(1, 6)):
            try:
                IntervalUnion(tuple(chosen + [piece]))
            except DomainError:
                continue
            chosen.append(piece)
        regions.append(IntervalUnion(tuple(chosen)))
    f = Piecewise(tuple(FuncPiece(r, Const(k)) for k, r in enumerate(regions)))
    listed = [p for r in regions if isinstance(r, IntervalUnion) for p in r.pieces]
    pool = listed * 3 + [IntervalPiece(x, x) for x in ends] + rng.sample(cands, 3)
    return f, tuple(rng.choice(pool) for _ in range(rng.randint(1, 8)))


class TestTilingOracle:
    def test_matches_region_scan(self):
        rng = random.Random(20261019)
        seen = {"through_points": 0, "split": 0, "unowned": 0, "family": 0, "tiled": 0}
        for _ in range(3000):
            f, pieces = _tiling_case(rng)
            try:
                want = _scan_tiles(f, pieces)
            except ConfigurationError as exc:
                with pytest.raises(ConfigurationError) as got:
                    tile_formulas(f, pieces)
                assert str(got.value).startswith(str(exc))
                kind = "unowned" if "covers" in str(exc) else "split" if "split" in str(exc) else "family"
                seen[kind] += 1
                continue
            assert tile_formulas(f, pieces) == want
            seen["tiled"] += 1
            seen["through_points"] += any(
                isinstance(fp.region, FinitePoints) and fp.formula == fm
                for piece, fm in want
                if piece.is_degenerate
                for fp in f.pieces
            )
        assert min(seen.values()) >= 50, seen


# ---------------------------------------------------------------------------
# tiles against first match on the pieces of interval unions and staircases

_NUDGE = qx(Fraction(1, 8))


@st.composite
def tiling_cases(draw):
    """Pieces of an interval union or a staircase, and a Piecewise whose
    regions list those pieces again, nest them in wider pieces, cut them with
    inner pieces, hold points at, inside and beside them, and now and then
    start with a family region or hold one elsewhere; region i carries a
    formula naming i."""
    if draw(st.booleans()):
        pieces = draw(interval_unions()).pieces
    else:
        pieces = Staircase(draw(st.sampled_from("AB")), draw(st.integers(1, 3))).block_pieces()
    regions = [draw(family_regions)] if draw(st.integers(0, 3)) == 0 else []
    for _ in range(draw(st.integers(1, 4))):
        chosen = draw(st.lists(st.sampled_from(pieces), min_size=1, max_size=3))
        kind = draw(st.sampled_from(("same", "wider", "inner", "points")))
        if kind == "points":
            pts = [x for p in chosen for x in (p.lo, (p.lo + p.hi) / 2, p.hi + _NUDGE)]
            regions.append(FinitePoints(tuple(draw(st.lists(st.sampled_from(pts), min_size=1)))))
            continue
        if kind == "wider":
            chosen = [
                IntervalPiece(p.lo - _NUDGE, p.hi + draw(st.sampled_from((0, _NUDGE))),
                              True, draw(st.booleans()))
                for p in chosen
            ]
        elif kind == "inner":
            chosen = [
                p if p.is_degenerate
                else IntervalPiece(p.lo, (p.lo + p.hi) / 2, draw(st.booleans()), draw(st.booleans()))
                for p in chosen
            ]
        try:
            regions.append(IntervalUnion(tuple(chosen)))
        except DomainError:
            regions.append(IntervalUnion(tuple(chosen[:1])))
    if draw(st.booleans()):
        # a catch-all last region, so that more cases tile
        regions.append(IntervalUnion(pieces))
    if draw(st.integers(0, 3)) == 0:
        regions.insert(draw(st.integers(0, len(regions))), draw(family_regions))
    formulas = [draw(st.sampled_from((Const(i), Affine(1, 10 * i)))) for i in range(len(regions))]
    return pieces, Piecewise(tuple(FuncPiece(r, fm) for r, fm in zip(regions, formulas)))


def _breakpoints(region) -> list[QuadExt]:
    """The piece ends of a region made of ranges, the points of the others."""
    if isinstance(region, IntervalUnion):
        return [e for p in region.pieces for e in (p.lo, p.hi)]
    if isinstance(region, Staircase):
        return [qx(b) for b in region.breakpoints()]
    if isinstance(region, UnionOf):
        return [x for part in region.parts for x in _breakpoints(part)]
    return list(region.enumerate(64).points)


def _piece_probes(piece, cuts) -> list[QuadExt]:
    """The closed ends of the piece, the cuts inside it and the midpoint of
    each gap between them."""
    if piece.is_degenerate:
        return [piece.lo]
    inner = sorted((x for x in cuts if piece.lo < x < piece.hi), key=dec)
    line = [piece.lo, *inner, piece.hi]
    gaps = [(u + v) / 2 for u, v in zip(line, line[1:])]
    return [piece.lo] * piece.lo_closed + inner + gaps + [piece.hi] * piece.hi_closed


class TestTilesFollowFirstMatch:
    @settings(max_examples=200, deadline=None)
    @given(tiling_cases())
    # 9 on the point 5/4 of the first staircase block by first match
    @example((Staircase("A", 2).block_pieces(), Piecewise(
        (FuncPiece(FinitePoints.of(qx(Fraction(5, 4))), Const(9)),)
        + staircase_function(Staircase("A", 2)).pieces
    )))
    # family regions before and after the owner of [0, 1], the first holding 1/2
    @example((
        (IntervalPiece(qx(0), qx(1)),),
        _spec(NaturalReciprocals(10), IntervalUnion((IntervalPiece(qx(0), qx(1)),)),
              NaturalReciprocals(3)),
    ))
    # the point 1/2 of two finite-points regions takes the first one's formula
    @example((
        (IntervalPiece(qx(Fraction(1, 2)), qx(Fraction(1, 2))), IntervalPiece(qx(1), qx(2))),
        _spec(FinitePoints.of(Fraction(1, 2)), FinitePoints.of(Fraction(1, 2)),
              IntervalUnion((IntervalPiece(qx(1), qx(2)),))),
    ))
    def test_tiles_agree_with_evaluate(self, case):
        """A piece is refused exactly when a brute-force scan of its probes
        (closed ends, every region's breakpoints inside it, a point of each
        gap between them) finds more than one owner, or none, or when a
        region other than an interval union or finite points comes at or
        before its owner and the piece is more than a point. Every tile
        agrees with evaluate and with the first-match scan on those probes."""
        pieces, f = case
        regions = [fp.region for fp in f.pieces]
        size = len(regions)
        blind = next(
            (i for i, r in enumerate(regions) if type(r) not in (FinitePoints, IntervalUnion)),
            size,
        )
        cuts = [x for r in regions for x in _breakpoints(r)]
        refused = False
        for piece in pieces:
            got = {
                next((i for i, r in enumerate(regions) if _member(r, x)), size)
                for x in _piece_probes(piece, cuts)
            }
            refused |= (
                len(got) > 1 or size in got or (min(got) >= blind and not piece.is_degenerate)
            )
        try:
            tiles = tile_formulas(f, pieces)
        except ConfigurationError:
            assert refused
            return
        assert not refused
        for piece, fm in tiles:
            for x in _piece_probes(piece, cuts):
                assert formula_eval(fm, x) == evaluate(f, x) == evaluate_by_scan(f, x), (piece, x)


class TestDescriptions:
    def test_readable(self):
        assert describe_function(Reciprocal()) == "1/x"
        assert "piecewise" in describe_function(indicator_sqrt2())
        assert "x^2" in describe_function(Monomial(2))

    def test_rational_value(self):
        assert rational_value(qx(Fraction(3, 4))) == Fraction(3, 4)
        assert rational_value(SQRT2) is None
