import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symcont import (
    SQRT2,
    DomainError,
    FinitePoints,
    InapplicableError,
    IntegerWindow,
    IntervalPiece,
    IntervalUnion,
    NaturalReciprocals,
    OddPrimeReciprocals,
    QuadExt,
    Staircase,
    TruncatedRationals,
    UnionOf,
    merge_interval_components,
    staircase_breakpoints,
)
from symcont import domains
from symcont.analysis import _pairs_from_points
from symcont.domains import SymmetricPair, exact_ceil, exact_floor

from conftest import dec, qx


class TestExactRounding:
    def test_rationals(self):
        assert exact_floor(qx(Fraction(7, 2))) == 3
        assert exact_floor(qx(-Fraction(7, 2))) == -4
        assert exact_ceil(qx(Fraction(7, 2))) == 4
        assert exact_floor(qx(3)) == 3 == exact_ceil(qx(3))

    def test_irrationals(self):
        assert exact_floor(SQRT2) == 1
        assert exact_ceil(SQRT2) == 2
        assert exact_floor(-SQRT2) == -2
        assert exact_ceil(-SQRT2) == -1
        assert exact_floor(SQRT2 * 5) == 7  # 7.07...

    def test_near_integer(self):
        # 99/70 is just above sqrt2; 2 - sqrt2 is 0.585...
        assert exact_floor(qx(2) - SQRT2) == 0
        assert exact_ceil(qx(2) - SQRT2) == 1


class TestFinitePoints:
    def test_sorted_dedup(self):
        d = FinitePoints((qx(3), qx(1), qx(3), SQRT2))
        assert d.points == (qx(1), SQRT2, qx(3))

    def test_contains(self):
        d = FinitePoints.of(qx(0), qx(Fraction(1, 3)), SQRT2)
        assert d.contains(SQRT2)
        assert d.contains(qx(Fraction(1, 3)))
        assert not d.contains(qx(Fraction(1, 2)))

    def test_enumerate_truncation(self):
        d = FinitePoints(tuple(qx(i) for i in range(10)))
        enum = d.enumerate(4)
        assert len(enum.points) == 4 and enum.truncated
        assert not d.enumerate(100).truncated

    def test_min_gap(self):
        d = FinitePoints.of(qx(0), qx(Fraction(1, 8)), qx(1))
        assert d.min_gap(100) == qx(Fraction(1, 8))

    def test_scale_complete(self):
        assert FinitePoints.of(qx(0)).scale_complete


class TestIntegerWindow:
    def test_enumerate(self):
        assert [p.rat for p in IntegerWindow(-2, 2).enumerate(100).points] == [
            -2,
            -1,
            0,
            1,
            2,
        ]

    def test_contains(self):
        w = IntegerWindow(-5, 5)
        assert w.contains(qx(-5)) and w.contains(qx(0))
        assert not w.contains(qx(Fraction(1, 2)))
        assert not w.contains(qx(6))
        assert not w.contains(SQRT2)

    def test_min_gap(self):
        assert IntegerWindow(-100, 100).min_gap(1000) == qx(1)

    def test_bad_window(self):
        with pytest.raises(DomainError):
            IntegerWindow(3, 2)


class TestOddPrimeReciprocals:
    def test_enumeration_oracle(self):
        pts = OddPrimeReciprocals(12, with_zero=True).enumerate(100).points
        assert [p.rat for p in pts] == [
            0,
            Fraction(1, 11),
            Fraction(1, 7),
            Fraction(1, 5),
            Fraction(1, 3),
        ]

    def test_contains(self):
        d = OddPrimeReciprocals(100, with_zero=True)
        assert d.contains(qx(Fraction(1, 7)))
        assert not d.contains(qx(Fraction(1, 14)))
        assert not d.contains(qx(Fraction(1, 9)))
        assert not d.contains(qx(Fraction(2, 7)))
        assert d.contains(qx(0))
        assert not OddPrimeReciprocals(100, with_zero=False).contains(qx(0))

    def test_min_gap_exact(self):
        # points 0 < 1/13 < 1/11 < 1/7 < 1/5 < 1/3: the tightest gap is
        # between 1/13 and 1/11
        assert OddPrimeReciprocals(13, with_zero=True).min_gap(1000) == qx(
            Fraction(2, 143)
        )

    def test_not_scale_complete(self):
        assert not OddPrimeReciprocals(100, with_zero=True).scale_complete


class TestParameterCaches:
    def test_caches_stay_bounded(self):
        # 40 distinct parameters each: a long-lived process keeps at most
        # maxsize sieves and staircase tables
        for n in range(100, 140):
            assert OddPrimeReciprocals(n).contains(qx(Fraction(1, 3)))
            assert Staircase("B", n).contains(qx(0))
        for cache in (
            domains._odd_primes_up_to,
            domains._odd_prime_set,
            domains.staircase_breakpoints,
            domains._staircase_pieces,
            domains._staircase_los,
        ):
            info = cache.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize


class TestNaturalReciprocals:
    def test_points(self):
        pts = NaturalReciprocals(4, with_zero=True).enumerate(100).points
        assert [p.rat for p in pts] == [
            0,
            Fraction(1, 4),
            Fraction(1, 3),
            Fraction(1, 2),
            1,
        ]

    def test_contains(self):
        d = NaturalReciprocals(1000, with_zero=False)
        assert d.contains(qx(Fraction(1, 999)))
        assert not d.contains(qx(0))
        assert not d.contains(qx(Fraction(2, 3)))


def _reciprocal_listing(cls, n, with_zero):
    """The sorted members, from the definitions by trial division."""
    if cls is NaturalReciprocals:
        dens = range(1, n + 1)
    else:
        dens = [p for p in range(3, n + 1) if all(p % d for d in range(2, p))]
    pts = sorted(qx(Fraction(1, q)) for q in dens)
    return ([qx(0)] if with_zero else []) + pts


class TestReciprocalPrefix:
    @pytest.mark.parametrize("cls, n", [(NaturalReciprocals, 9), (OddPrimeReciprocals, 30)])
    @pytest.mark.parametrize("with_zero", [True, False])
    def test_limit_cuts_the_full_listing(self, cls, n, with_zero):
        full = _reciprocal_listing(cls, n, with_zero)
        d = cls(n, with_zero=with_zero)
        for k in range(len(full) + 3):
            en = d.enumerate(k)
            assert list(en.points) == full[:k]
            assert en.truncated == (len(full) > k)

    def test_work_follows_the_limit(self):
        start = time.perf_counter()
        en = NaturalReciprocals(2 * 10**6).enumerate(20)
        assert time.perf_counter() - start < 0.5
        assert en.points[1] == qx(Fraction(1, 2 * 10**6)) and en.truncated


class TestTruncatedRationals:
    def test_farey_count(self):
        d = TruncatedRationals(5, qx(0), qx(1), adjoin_sqrt2=False)
        pts = d.enumerate(100).points
        assert len(pts) == 11
        assert pts[0] == qx(0) and pts[-1] == qx(1)
        assert qx(Fraction(2, 5)) in pts

    def test_contains(self):
        d = TruncatedRationals(5, qx(0), qx(2), adjoin_sqrt2=True)
        assert d.contains(qx(Fraction(3, 5)))
        assert not d.contains(qx(Fraction(1, 6)))
        assert d.contains(SQRT2)
        assert not TruncatedRationals(5, qx(0), qx(2), adjoin_sqrt2=False).contains(
            SQRT2
        )

    def test_sqrt2_sorted_between_rationals(self):
        d = TruncatedRationals(5, qx(0), qx(2), adjoin_sqrt2=True)
        pts = d.enumerate(1000).points
        i = pts.index(SQRT2)
        assert pts[i - 1] < SQRT2 < pts[i + 1]

    @staticmethod
    def sorted_listing(d, limit):
        """The listing as first built: every reduced fraction in range,
        sqrt2 when adjoined, sorted, then cut at limit."""
        pts = [SQRT2] if d.adjoin_sqrt2 and d.lo <= SQRT2 <= d.hi else []
        for q in range(1, d.max_denominator + 1):
            for p in range(exact_ceil(d.lo * q), exact_floor(d.hi * q) + 1):
                if math.gcd(p, q) == 1:
                    pts.append(qx(Fraction(p, q)))
        pts.sort()
        return tuple(pts[:limit]), len(pts) > limit

    @settings(max_examples=300, deadline=None)
    @given(
        ends=st.lists(
            st.tuples(
                st.fractions(min_value=-6, max_value=6, max_denominator=12),
                st.sampled_from((Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(1, 3))),
            ),
            min_size=2,
            max_size=2,
        ),
        n=st.integers(1, 60),
        adjoin=st.booleans(),
        data=st.data(),
    )
    def test_farey_walk_matches_sorted_listing(self, ends, n, adjoin, data):
        """enumerate and count against the sorted listing. N runs to 60, so
        that mu(d) is -1, 0 and 1 among d <= N (as at 30, 4 and 6), and the
        limits fall on either side of count's threshold 8*N."""
        lo, hi = sorted(qx(r, i) for r, i in ends)
        d = TruncatedRationals(n, lo, hi, adjoin_sqrt2=adjoin)
        limit = data.draw(st.sampled_from((0, 1, 2, 3, 7, 40, 8 * n - 1, 8 * n, 8 * n + 1, 10**5)))
        pts, truncated = self.sorted_listing(d, limit)
        en = d.enumerate(limit)
        assert (en.points, en.truncated) == (pts, truncated)
        assert d.count(limit) == (len(pts), truncated)

    def test_work_follows_the_limit(self):
        start = time.perf_counter()
        en = TruncatedRationals(800, 0, 1).enumerate(20)
        assert time.perf_counter() - start < 0.25
        assert en.points[:3] == (qx(0), qx(Fraction(1, 800)), qx(Fraction(1, 799)))
        assert len(en.points) == 20 and en.truncated

    @pytest.mark.parametrize(
        "d, limit, branch, expected",
        [
            (TruncatedRationals(10**6, 0, 1), 5000, "walk", (5000, True)),
            (TruncatedRationals(5000, 0, 10**30), 10**5, "closed", (10**5, True)),
            # 8*N == limit, on a window of width 1/500 about sqrt2
            (
                TruncatedRationals(
                    12500, SQRT2 - qx(Fraction(1, 1000)), SQRT2 + qx(Fraction(1, 1000)), True
                ),
                10**5,
                "closed",
                None,
            ),
        ],
        ids=["walk_large_n", "closed_wide_window", "closed_narrow_sqrt2_window"],
    )
    def test_count_is_prompt_on_either_branch(self, monkeypatch, d, limit, branch, expected):
        """count finishes in under 0.25 s on the branch named, which the
        other branch's method, made to raise, confirms."""
        if expected is None:
            # the fractions the walk lists, and sqrt2
            walked = sum(1 for _ in d._walk(limit)) + 1
            expected = min(walked, limit), walked > limit

        def unused(*args):
            raise AssertionError("wrong branch")

        other = "_reduced_count" if branch == "walk" else "_walk"
        monkeypatch.setattr(TruncatedRationals, other, unused)
        start = time.perf_counter()
        got = d.count(limit)
        assert time.perf_counter() - start < 0.25
        assert got == expected


ENUMERABLE = {
    "finite_points": FinitePoints.of(qx(-1), SQRT2, qx(Fraction(1, 3)), qx(0)),
    "integer_window": IntegerWindow(-3, 4),
    "natural_reciprocals": NaturalReciprocals(9),
    "natural_reciprocals_no_zero": NaturalReciprocals(9, with_zero=False),
    "odd_prime_reciprocals": OddPrimeReciprocals(30),
    "odd_prime_reciprocals_no_zero": OddPrimeReciprocals(30, with_zero=False),
    "truncated_rationals": TruncatedRationals(6, qx(-1), SQRT2),
    "truncated_rationals_sqrt2": TruncatedRationals(6, qx(-1), qx(2), adjoin_sqrt2=True),
    "degenerate_union": IntervalUnion(
        (IntervalPiece(qx(2), qx(2)), IntervalPiece(SQRT2, SQRT2), IntervalPiece(qx(0), qx(0)))
    ),
    "union_of": UnionOf(
        (
            NaturalReciprocals(8),
            FinitePoints.of(SQRT2, qx(Fraction(1, 2)), qx(-2)),
            TruncatedRationals(4, qx(0), qx(1)),
        )
    ),
}


class TestEnumerationContract:
    """enumerate lists strictly ascending members, and enumerate(k) is the
    first k points of the full listing, truncated exactly when more exist."""

    @pytest.mark.parametrize("name", sorted(ENUMERABLE))
    def test_prefix_of_ascending_listing(self, name):
        d = ENUMERABLE[name]
        full = d.enumerate(10**4)
        assert not full.truncated
        pts = full.points
        assert all(a < b for a, b in zip(pts, pts[1:]))
        assert all(d.contains(p) for p in pts)
        for k in range(1, len(pts) + 2):
            en = d.enumerate(k)
            assert en.points == pts[:k]
            assert en.truncated == (len(pts) > k)


_QS = st.fractions(min_value=-3, max_value=3, max_denominator=6)


@st.composite
def enumerable_domains(draw):
    """A domain of every enumerable class: finite sets, integer windows,
    both reciprocal families with and without 0, truncated rationals (with
    sqrt2 adjoined inside, at and beyond either end of [lo, hi]), degenerate
    interval unions and unions of parts."""
    kind = draw(st.sampled_from(
        ("finite", "window", "naturals", "primes", "rationals", "degenerate", "union")
    ))
    if kind == "finite":
        return FinitePoints(tuple(qx(q) for q in draw(st.lists(_QS, max_size=8))))
    if kind == "window":
        lo = draw(st.integers(-5, 5))
        return IntegerWindow(lo, lo + draw(st.integers(0, 9)))
    if kind in ("naturals", "primes"):
        cls = NaturalReciprocals if kind == "naturals" else OddPrimeReciprocals
        return cls(draw(st.integers(1, 30)), with_zero=draw(st.booleans()))
    if kind == "rationals":
        ends = (qx(draw(_QS)), qx(draw(_QS)), SQRT2, SQRT2 - 1, SQRT2 + qx(Fraction(1, 7)))
        lo, hi = sorted(draw(st.lists(st.sampled_from(ends), min_size=2, max_size=2)))
        return TruncatedRationals(draw(st.integers(1, 16)), lo, hi, adjoin_sqrt2=draw(st.booleans()))
    if kind == "degenerate":
        pts = draw(st.lists(_QS, min_size=1, max_size=5, unique=True))
        return IntervalUnion(tuple(IntervalPiece(qx(q), qx(q)) for q in pts))
    return UnionOf((
        NaturalReciprocals(draw(st.integers(1, 9)), with_zero=draw(st.booleans())),
        FinitePoints(tuple(qx(q) for q in draw(st.lists(_QS, max_size=4)))),
        TruncatedRationals(draw(st.integers(1, 4)), qx(0), qx(1), adjoin_sqrt2=True),
    ))


class TestCount:
    """count(limit) is (len(e.points), e.truncated) of e = enumerate(limit):
    in closed form for finite sets, integer windows and both reciprocal
    families, for truncated rationals by Möbius inversion when the limit
    is at least 8*max_denominator and by the integer Farey walk otherwise,
    and by enumerate itself through the base class elsewhere."""

    @settings(max_examples=300, deadline=None)
    @given(enumerable_domains())
    def test_count_matches_enumerate(self, d):
        n = len(d.enumerate(10**4).points)
        for limit in range(n + 3):
            en = d.enumerate(limit)
            assert d.count(limit) == (len(en.points), en.truncated), (d, limit)

    def test_base_fallback_and_closed_forms(self):
        assert "count" not in vars(UnionOf)
        assert NaturalReciprocals(10**12).count(5) == (5, True)
        # 78 497 odd primes up to 10**6, and 0
        assert OddPrimeReciprocals(10**6).count(10**5) == (78498, False)
        assert OddPrimeReciprocals(10**6, with_zero=False).count(78496) == (78496, True)
        assert IntegerWindow(-(10**12), 10**12).count(10**13) == (2 * 10**12 + 1, False)


class TestIntervals:
    def test_piece_contains(self):
        p = IntervalPiece(qx(0), qx(1), lo_closed=False, hi_closed=True)
        assert not p.contains(qx(0))
        assert p.contains(qx(1))
        assert p.contains(qx(Fraction(1, 2)))

    def test_degenerate(self):
        p = IntervalPiece(qx(1), qx(1))
        assert p.contains(qx(1))
        with pytest.raises(DomainError):
            IntervalPiece(qx(1), qx(1), lo_closed=False, hi_closed=True)
        with pytest.raises(DomainError):
            IntervalPiece(qx(2), qx(1))

    def test_union_overlap_rejected(self):
        with pytest.raises(DomainError):
            IntervalUnion(
                (IntervalPiece(qx(0), qx(2)), IntervalPiece(qx(1), qx(3)))
            )
        with pytest.raises(DomainError):
            IntervalUnion(
                (IntervalPiece(qx(0), qx(1)), IntervalPiece(qx(1), qx(2)))
            )

    def test_union_touching_open_ok(self):
        u = IntervalUnion(
            (
                IntervalPiece(qx(0), qx(1), True, False),
                IntervalPiece(qx(1), qx(2), True, True),
            )
        )
        assert u.contains(qx(1))
        assert not u.enumerable

    def test_enumerate_continuum_error(self):
        u = IntervalUnion((IntervalPiece(qx(0), qx(1), False, False),))
        with pytest.raises(InapplicableError):
            u.enumerate(100)

    def test_degenerate_union_enumerable(self):
        u = IntervalUnion(
            (IntervalPiece(qx(0), qx(0)), IntervalPiece(qx(1), qx(1)))
        )
        assert u.enumerable and u.scale_complete
        assert [p for p in u.enumerate(10).points] == [qx(0), qx(1)]

    def test_grid_endpoints(self):
        p = IntervalPiece(qx(0), qx(1), lo_closed=True, hi_closed=False)
        g = p.grid(3)
        assert g[0] == qx(0)
        assert all(x < qx(1) for x in g)
        assert sorted(g) == list(g)


class TestMerge:
    def test_separated(self):
        m = merge_interval_components(
            (IntervalPiece(qx(0), qx(1)), IntervalPiece(qx(2), qx(3)))
        )
        assert len(m.components) == 2
        assert m.gaps == (qx(1),)
        assert m.shared_endpoint_pairs == ()

    def test_touching_open(self):
        m = merge_interval_components(
            (
                IntervalPiece(qx(0), qx(1), False, False),
                IntervalPiece(qx(1), qx(2), False, False),
            )
        )
        assert len(m.components) == 1
        assert m.shared_endpoint_pairs == ((0, 1),)
        assert m.gaps == ()

    def test_idempotent(self):
        first = merge_interval_components(
            (
                IntervalPiece(qx(0), qx(1), False, False),
                IntervalPiece(qx(1), qx(2), False, False),
                IntervalPiece(qx(4), qx(5)),
            )
        )
        again = merge_interval_components(
            tuple(p for comp in first.components for p in comp)
        )
        assert again.components == first.components

    def test_overlap_error(self):
        with pytest.raises(DomainError):
            merge_interval_components(
                (
                    IntervalPiece(qx(0), qx(1), False, False),
                    IntervalPiece(qx(0), qx(1), False, False),
                )
            )

    def test_pairwise_gaps(self):
        """Gaps are taken between neighbouring components only, in order."""
        m = merge_interval_components(
            (
                IntervalPiece(qx(5), qx(6)),
                IntervalPiece(qx(0), qx(1)),
                IntervalPiece(qx(2), qx(3)),
            )
        )
        assert m.gaps == (qx(1), qx(2))

    def test_3000_separated_pieces_are_prompt(self):
        """One gap per neighbouring pair: every pair of components took
        about 7 s here on 2 vCPUs."""
        n = 3000
        pieces = tuple(IntervalPiece(qx(3 * k), qx(3 * k + 1)) for k in range(n))
        start = time.perf_counter()
        m = merge_interval_components(pieces)
        elapsed = time.perf_counter() - start
        assert len(m.components) == n
        assert m.gaps == (qx(2),) * (n - 1)
        assert elapsed < 1.0, elapsed


class TestStaircase:
    def test_variant_a_prefix(self):
        bp = staircase_breakpoints("A", 5)
        expected = [
            Fraction(1),
            Fraction(3, 2),
            Fraction(5, 2),
            Fraction(3),
            Fraction(4),
            Fraction(13, 3),
            Fraction(29, 6),
            Fraction(31, 6),
            Fraction(37, 6),
            Fraction(77, 12),
        ]
        assert list(bp) == expected

    def test_variant_b_prefix(self):
        bp = staircase_breakpoints("B", 4)
        expected = [
            Fraction(0),
            Fraction(1),
            Fraction(3, 2),
            Fraction(11, 6),
            Fraction(25, 12),
            Fraction(137, 60),
            Fraction(49, 20),
            Fraction(363, 140),
        ]
        assert list(bp) == expected

    def test_strictly_increasing(self):
        for variant, blocks in (("A", 40), ("B", 40)):
            bp = staircase_breakpoints(variant, blocks)
            assert all(a < b for a, b in zip(bp, bp[1:]))

    def test_variant_a_identities(self):
        bp = staircase_breakpoints("A", 60)
        for k in range(1, 25):
            # facing pair across the 1/k gap (0-based indices)
            assert bp[4 * k - 2] - bp[4 * k - 3] == Fraction(1, k)
            # unit gap after each even block
            assert bp[4 * k] - bp[4 * k - 1] == 1

    def test_variant_b_widths_and_gaps(self):
        stair = Staircase("B", 30)
        for n, piece in enumerate(stair.block_pieces(), start=1):
            assert piece.hi - piece.lo == Fraction(1, 2 * n - 1)
        for n, gap in enumerate(stair.gaps(), start=1):
            assert gap == Fraction(1, 2 * n)

    def test_contains_matches_linear_scan(self):
        stair = Staircase("A", 25)
        pieces = stair.block_pieces()
        rng = random.Random(3)
        lo = pieces[0].lo.rat
        hi = pieces[-1].hi.rat
        for _ in range(300):
            x = qx(
                Fraction(
                    rng.randint(int(lo * 840) - 5, int(hi * 840) + 5), 840
                )
            )
            assert stair.contains(x) == any(p.contains(x) for p in pieces)

    def test_endpoints_and_gaps(self):
        stair = Staircase("B", 5)
        bp = staircase_breakpoints("B", 5)
        assert stair.contains(qx(bp[0])) and stair.contains(qx(bp[1]))
        mid_gap = qx((bp[1] + bp[2]) / 2)
        assert not stair.contains(mid_gap)

    def test_build_staircase(self):
        built = Staircase("A", 3)
        assert built.breakpoints() == staircase_breakpoints("A", 3)

    def test_not_enumerable(self):
        assert not Staircase("A", 3).enumerable

    def test_bad_variant(self):
        with pytest.raises(DomainError):
            staircase_breakpoints("C", 3)


class TestUnionOf:
    def test_membership_or(self):
        u = UnionOf((IntegerWindow(-2, 2), FinitePoints.of(qx(Fraction(1, 2)))))
        assert u.contains(qx(1))
        assert u.contains(qx(Fraction(1, 2)))
        assert not u.contains(qx(Fraction(1, 3)))

    def test_enumerate_merges_sorted(self):
        u = UnionOf((FinitePoints.of(qx(3)), IntegerWindow(0, 2)))
        pts = u.enumerate(100).points
        assert list(pts) == [qx(0), qx(1), qx(2), qx(3)]

    def test_enumerable_flags(self):
        cont = IntervalUnion((IntervalPiece(qx(0), qx(1)),))
        assert not UnionOf((IntegerWindow(0, 1), cont)).enumerable


def survey_pairs(ambient, *, centers=None, delta_max=None, max_pairs, enum_limit):
    """The pair survey over the enumerated ambient set, midpoints tested
    against `centers` (the ambient itself by default), f the identity."""
    en = ambient.enumerate(enum_limit)
    center_dom = ambient if centers is None else centers
    schedule = () if delta_max is None else (delta_max,)
    return _pairs_from_points(
        en.points, en.points, center_dom, schedule, max_pairs, en.truncated
    )


class TestSymmetricPairs:
    def test_pair_invariants(self):
        p = SymmetricPair(qx(Fraction(1, 2)), qx(Fraction(1, 6)))
        assert p.center == (p.x + p.y) / 2
        assert p.h == (p.x - p.y) / 2
        assert p.x > p.y

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            SymmetricPair(qx(1), qx(1))

    def test_prime_reciprocals_no_pairs(self):
        d = OddPrimeReciprocals(200, with_zero=True)
        survey = survey_pairs(d, max_pairs=10**6, enum_limit=10**4)
        assert survey.pairs == []
        assert not survey.truncated

    def test_natural_reciprocals_pair(self):
        d = NaturalReciprocals(10, with_zero=True)
        survey = survey_pairs(d, max_pairs=10**6, enum_limit=10**4)
        found = {(p.x, p.y) for p in survey.pairs}
        assert (qx(Fraction(1, 4)), qx(0)) in found
        target = next(
            p for p in survey.pairs if (p.x, p.y) == (qx(Fraction(1, 4)), qx(0))
        )
        assert target.center == qx(Fraction(1, 8))

    def test_integer_window_below_half(self):
        d = IntegerWindow(-3, 3)
        survey = survey_pairs(
            d, delta_max=qx(Fraction(1, 2)), max_pairs=10**6, enum_limit=100
        )
        assert survey.pairs == []

    def test_restricted_centers(self):
        d = NaturalReciprocals(10, with_zero=True)
        centers = FinitePoints.of(qx(Fraction(1, 8)))
        survey = survey_pairs(
            d, centers=centers, max_pairs=10**6, enum_limit=10**4
        )
        assert all(p.center == qx(Fraction(1, 8)) for p in survey.pairs)
        assert survey.pairs

    def test_ordering_deterministic(self):
        d = NaturalReciprocals(12, with_zero=True)
        survey = survey_pairs(d, max_pairs=10**6, enum_limit=10**4)
        keys = [p.sort_key() for p in survey.pairs]
        assert keys == sorted(keys)

    def test_max_pairs_truncates(self):
        d = NaturalReciprocals(40, with_zero=True)
        survey = survey_pairs(d, max_pairs=3, enum_limit=10**4)
        assert survey.truncated and len(survey.pairs) <= 3


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-8, max_value=8, max_denominator=16),
        min_size=1,
        max_size=12,
    )
)
def test_contains_iff_enumerated(fracs):
    d = FinitePoints(tuple(qx(f) for f in fracs))
    pts = d.enumerate(100).points
    for p in pts:
        assert d.contains(p)
    probe = qx(Fraction(17, 23))
    assert d.contains(probe) == (probe in pts)


# ---------------------------------------------------------------------------
# locating a point among sorted disjoint pieces, and keyed finite sets


def _piece(lo, hi, lo_closed=True, hi_closed=True) -> IntervalPiece:
    return IntervalPiece(as_q(lo), as_q(hi), lo_closed, hi_closed)


def as_q(v) -> QuadExt:
    return v if isinstance(v, QuadExt) else qx(v)


# each case lists pieces that are disjoint but may touch
LOCATE_CASES = {
    "closed_then_open": (_piece(0, 1), _piece(1, 2, False, True)),
    "open_point_open": (
        _piece(0, 1, False, False),
        _piece(1, 1),
        _piece(1, 2, False, True),
    ),
    "open_ends": (_piece(0, 1, False, False), _piece(2, 3, False, False)),
    "closed_ends_with_gaps": (_piece(-3, -2), _piece(0, 0), _piece(5, 7)),
    "sqrt2_shifted": (
        _piece(SQRT2 - 1, SQRT2, True, False),
        _piece(SQRT2, SQRT2),
        _piece(SQRT2, SQRT2 + 1, False, True),
        _piece(SQRT2 + 2, SQRT2 + 3, False, False),
    ),
}


def _locate_probes(pieces) -> list[QuadExt]:
    """Every end, a point inside each piece, a point in each gap and points
    outside on both sides."""
    ends = sorted({e for p in pieces for e in (p.lo, p.hi)})
    out = list(ends)
    out += [(a + b) / 2 for a, b in zip(ends, ends[1:])]
    out += [ends[0] - 1, ends[-1] + 1, ends[0] - Fraction(1, 10**9)]
    return out


class TestLocatePiece:
    @pytest.mark.parametrize("name", sorted(LOCATE_CASES))
    def test_matches_linear_scan(self, name):
        pieces = tuple(sorted(LOCATE_CASES[name], key=lambda p: (p.lo, p.hi)))
        los = [p.lo for p in pieces]
        union = IntervalUnion(pieces)
        for x in _locate_probes(pieces):
            holders = [i for i, p in enumerate(pieces) if p.contains(x)]
            assert len(holders) <= 1
            assert domains.locate_piece(los, pieces, x) == (holders[0] if holders else -1)
            assert union.contains(x) == bool(holders)

    def test_touching_ends(self):
        pieces = LOCATE_CASES["closed_then_open"]
        assert domains.locate_piece([p.lo for p in pieces], pieces, qx(1)) == 0
        pieces = LOCATE_CASES["open_point_open"]
        assert domains.locate_piece([p.lo for p in pieces], pieces, qx(1)) == 1

    def test_staircase_matches_linear_scan_at_ends(self):
        stair = Staircase("B", 12)
        pieces = stair.block_pieces()
        for x in _locate_probes(pieces):
            assert stair.contains(x) == any(p.contains(x) for p in pieces)


@pytest.fixture
def lt_calls(monkeypatch):
    """Counts QuadExt.__lt__ calls while the test runs."""
    calls = [0]
    original = QuadExt.__lt__

    def counting(self, other):
        calls[0] += 1
        return original(self, other)

    monkeypatch.setattr(QuadExt, "__lt__", counting)
    return calls


class TestKeyedPointSets:
    def test_sorted_points_dedups_by_coordinates(self):
        pts = [qx(Fraction(1, 2)), Fraction(1, 2), 0, qx(0), SQRT2, qx(0, 1), -1]
        assert domains.sorted_points(pts) == (qx(-1), qx(0), qx(Fraction(1, 2)), SQRT2)

    def test_union_enumerate_dedups_and_sorts(self):
        u = UnionOf((NaturalReciprocals(4), FinitePoints.of(qx(Fraction(1, 2)), SQRT2, -1)))
        assert u.enumerate(10).points == tuple(
            qx(v) for v in (-1, 0, Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), 1)
        ) + (SQRT2,)

    def test_build_and_contains_make_no_lt_call(self, lt_calls):
        # distinct floors of x * 2**64: every pair is ordered by its key's int
        raw = [qx(Fraction(k, 7), Fraction(k % 3 - 1, 5)) for k in range(-40, 40)]
        d = FinitePoints(tuple(reversed(raw)))
        assert lt_calls[0] == 0
        assert list(d.points) == sorted(raw, key=dec)
        assert all(d.contains(x) for x in raw)
        assert not d.contains(qx(Fraction(1, 11)))
        assert lt_calls[0] == 0

    def test_contains_takes_ints_and_fractions(self):
        d = FinitePoints.of(qx(2), qx(Fraction(1, 3)))
        assert d.contains(2) and d.contains(Fraction(1, 3))
        assert not d.contains(3) and not d.contains(Fraction(2, 3))


def test_staircase_function_locates_each_point_in_two_piece_tests(monkeypatch):
    from symcont import evaluate
    from symcont.zoo import staircase_function

    stair = Staircase("A", 25)
    f = staircase_function(stair)
    pieces = stair.block_pieces()
    pts = _locate_probes(pieces)
    pts = [x for x in pts if stair.contains(x)]
    calls = [0]
    original = IntervalPiece.contains

    def counting(self, x):
        calls[0] += 1
        return original(self, x)

    monkeypatch.setattr(IntervalPiece, "contains", counting)
    for i, x in enumerate(pts):
        calls[0] = 0
        owner = next(k for k, p in enumerate(pieces) if original(p, x))
        assert evaluate(f, x) == 2 * owner + 1
        assert calls[0] <= 2, (i, x, calls[0])
