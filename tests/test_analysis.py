import contextlib
import hashlib
import itertools
import math
import operator
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from symcont import (
    SQRT2,
    Affine,
    AnalysisConfig,
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
    RefutingSequence,
    Staircase,
    TruncatedRationals,
    UnionOf,
    apply_implications,
    check_consistency,
    check_wrt_subset,
    classify,
    evaluate,
    merge_interval_components,
    modulus_profile,
    parse_quadext,
    sym_oscillation,
    uc_oscillation,
    uniform_limit_transfer,
    verify_refuting_sequence,
    verify_witness,
)
from symcont import analysis, exactnum, functions
from symcont.analysis import (
    NOTIONS,
    Verdict,
    _ordered,
    _pairs_from_points,
    _probe_points,
    _sc_family,
    _sup_rows,
    _uc_rows,
    _window_scan_exact,
)
from symcont.domains import SymmetricPair
from symcont.exactnum import format_quadext
from symcont.functions import _evaluate_many, is_piecewise_constant, tile_formulas
from symcont.report import dump_json
from symcont.zoo import build_example, indicator_with_zero, staircase_function

from conftest import (
    brute_force_usc_status,
    ex_3_5_member,
    qx,
    random_piecewise,
    random_sparse_domain,
)

FAST = AnalysisConfig(grid_exponent=6, enum_limit=10**4)


def nr_indicator(max_n: int):
    ambient = NaturalReciprocals(max_n, with_zero=True)
    f = indicator_with_zero(NaturalReciprocals(max_n, with_zero=False))
    return ambient, f


class TestConfig:
    def test_defaults_valid(self):
        cfg = AnalysisConfig()
        assert cfg.delta_schedule[0] == qx(1)
        assert cfg.delta_schedule[-1] == qx(Fraction(1, 2**20))

    def test_schedule_must_decrease(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(delta_schedule=(qx(1), qx(1)))
        with pytest.raises(ConfigurationError):
            AnalysisConfig(delta_schedule=())
        with pytest.raises(ConfigurationError):
            AnalysisConfig(delta_schedule=(qx(1), qx(0)))

    def test_other_knobs(self):
        with pytest.raises(ConfigurationError):
            AnalysisConfig(grid_exponent=0)
        with pytest.raises(ConfigurationError):
            AnalysisConfig(max_pairs=-1)
        with pytest.raises(ConfigurationError):
            AnalysisConfig(enum_limit=0)
        with pytest.raises(ConfigurationError):
            AnalysisConfig(output_format="yaml")

    def test_grid_exponent_capped(self):
        # validation alone: no grid is built for either value
        assert AnalysisConfig(grid_exponent=16).grid_exponent == 16
        with pytest.raises(ConfigurationError, match="at most 16"):
            AnalysisConfig(grid_exponent=17)

    def test_probe_points_capped(self):
        # 8 unit pieces at exponent 14 would build 8 * (2**14 + 1) = 131 080 points
        union = IntervalUnion(
            tuple(IntervalPiece(qx(2 * k), qx(2 * k + 1)) for k in range(8))
        )
        config = AnalysisConfig(grid_exponent=14, max_pairs=1000)
        start = time.perf_counter()
        with pytest.raises(ConfigurationError, match="131080 points exceeds the limit"):
            modulus_profile(union, Identity(), config, "uc")
        assert time.perf_counter() - start < 0.25
        # the usc survey samples at its own capped exponent, 8 * (2**7 + 1) points
        assert modulus_profile(union, Identity(), config, "usc").points == 8 * 129

    def test_schedule_coercion(self):
        cfg = AnalysisConfig(delta_schedule=(Fraction(1, 2), Fraction(1, 4)))
        assert cfg.delta_schedule == (qx(Fraction(1, 2)), qx(Fraction(1, 4)))


class TestDiscreteClassify:
    def test_all_proven_on_finite_set(self):
        dom = FinitePoints.of(qx(0), qx(1), SQRT2)
        verdicts = classify(dom, Const(0), FAST)
        for notion in NOTIONS:
            v = verdicts[notion]
            assert v.status == "proven"
            assert v.method == "uniformly_discrete"
            assert v.scope == "full"
            assert v.certificate["kind"] == "uniformly_discrete"

    def test_gap_recorded(self):
        dom = IntegerWindow(0, 5)
        v = classify(dom, Const(0), FAST)["UC"]
        assert parse_quadext(v.certificate["gap"]) == qx(1)

    def test_single_point_vacuous(self):
        v = classify(FinitePoints.of(qx(7)), Const(3), FAST)["C"]
        assert v.status == "proven" and v.certificate["gap"] is None

    def test_truncated_listing_enumerated_once(self, monkeypatch):
        """A listing cut at enum_limit goes on to the family pipeline,
        which reads it instead of listing the set again."""
        calls = []
        enumerate_window = IntegerWindow.enumerate

        def counted(self, limit):
            calls.append(limit)
            return enumerate_window(self, limit)

        monkeypatch.setattr(IntegerWindow, "enumerate", counted)
        config = AnalysisConfig(enum_limit=2000)
        verdicts = classify(IntegerWindow(0, 10**6), Identity(), config)
        assert calls == [2000]
        assert verdicts["UC"].resolution["enumeration_truncated"]


class TestFamilyPipeline:
    def test_indicator_usc_refuted(self):
        ambient, f = nr_indicator(60)
        verdicts = classify(ambient, f, FAST)
        usc = verdicts["USC"]
        assert (usc.status, usc.method) == ("refuted", "flat_modulus")
        assert usc.scope == "truncation"
        w = usc.witness
        x, y = parse_quadext(w["x"]), parse_quadext(w["y"])
        assert ambient.contains((x + y) / 2)
        assert parse_quadext(w["osc"]) == qx(1)

    def test_indicator_c_refuted_at_zero(self):
        ambient, f = nr_indicator(60)
        v = classify(ambient, f, FAST)["C"]
        assert (v.status, v.method) == ("refuted", "flat_modulus")
        assert parse_quadext(v.witness["anchor"]) == qx(0)

    def test_indicator_sc_no_violation(self):
        # mirrored pairs around any 1/n eventually vanish, and around 0 the
        # mirrored partner leaves the set, so no flat symmetric anchor exists
        ambient, f = nr_indicator(60)
        v = classify(ambient, f, FAST)["SC"]
        assert v.status == "no_violation"

    def test_every_proven_verdict_has_certificate(self):
        ambient, f = nr_indicator(40)
        for v in classify(ambient, f, FAST).values():
            if v.status == "proven":
                assert v.certificate is not None

    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the flat rule reads one mirror pair at both ends "
        "of an anchor's window as a flat modulus",
    )
    def test_affine_on_truncated_eighths_refutes_nothing(self):
        """An affine f is Lipschitz, so no notion may be refuted. On the 20
        least of the eighths 0..3 SC is refuted at anchor 1/8, whose one
        listed mirror pair gives the same sup at its largest and smallest
        effective delta, and the implications then refute C, UC and USC."""
        ambient = FinitePoints(tuple(qx(Fraction(k, 8)) for k in range(25)))
        verdicts = classify(ambient, Affine(2, 1), AnalysisConfig(enum_limit=20))
        assert [n for n, v in verdicts.items() if v.status == "refuted"] == []


    def test_lift_bounded_on_long_reciprocal_listing(self):
        """The 5 000 least reciprocals of NaturalReciprocals(10**4) have a
        common denominator of about 14 000 bits; past LIFT_BITS_MAX the
        family scans keep exact keys, where integer keys of that many bits
        each peaked at about 50 MB."""
        schedule = (qx(1), qx(Fraction(1, 2**20)))
        config = AnalysisConfig(enum_limit=5000, delta_schedule=schedule)
        tracemalloc.start()
        try:
            verdicts = classify(NaturalReciprocals(10**4), Identity(), config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6, peak
        assert {v.status for v in verdicts.values()} == {"no_violation"}


@st.composite
def component_unions(draw):
    """An interval union of one to eight pieces in ascending order, with
    rational or sqrt2 ends: each piece is degenerate or not, open or closed
    at each end, and either touches the one before (sharing an end that at
    most one of them holds) or leaves a gap."""
    lo = QuadExt(draw(_RATS), draw(st.sampled_from(_IRRS)))
    pieces = []
    for _ in range(draw(st.integers(1, 8))):
        length = draw(st.sampled_from((qx(0), qx(Fraction(1, 4)), qx(1), SQRT2 / 2)))
        lo_closed = draw(st.booleans()) or length == 0
        hi_closed = draw(st.booleans()) or length == 0
        if pieces:
            prev = pieces[-1]
            touch = draw(st.booleans()) and not (prev.hi_closed and lo_closed)
            gaps = (qx(Fraction(1, 8)), qx(1), qx(3), SQRT2 / 4, SQRT2)
            lo = prev.hi if touch else prev.hi + draw(st.sampled_from(gaps))
        pieces.append(IntervalPiece(lo, lo + length, lo_closed, hi_closed))
    return IntervalUnion(tuple(pieces))


class TestIntervalPipeline:
    def test_reciprocal_on_open_interval(self):
        dom = IntervalUnion((IntervalPiece(qx(0), qx(3), False, True),))
        verdicts = classify(dom, Reciprocal(), FAST)
        assert verdicts["C"].status == "proven"
        assert verdicts["C"].method == "interval_decision"
        uc = verdicts["UC"]
        assert (uc.status, uc.method) == ("refuted", "interval_decision")
        assert uc.scope == "full"
        w = uc.witness
        assert w["kind"] == "pair_family"
        first = w["terms"][0]
        assert parse_quadext(first["x"]) == qx(3)
        assert parse_quadext(first["y"]) == qx(1)
        assert parse_quadext(first["osc"]) == qx(Fraction(2, 3))
        m = 4
        term = w["terms"][m - 1]
        assert parse_quadext(term["osc"]) == qx(Fraction(2 * m, 3))

    def test_jump_refutes_uc_and_usc(self):
        dom = IntervalUnion(
            (
                IntervalPiece(qx(0), qx(1), True, False),
                IntervalPiece(qx(1), qx(2), True, True),
            )
        )
        f = Piecewise(
            (
                FuncPiece(IntervalUnion((dom.pieces[0],)), Const(0)),
                FuncPiece(IntervalUnion((dom.pieces[1],)), Const(1)),
            )
        )
        verdicts = classify(dom, f, FAST)
        assert verdicts["C"].status == "refuted"
        assert verdicts["UC"].status == "refuted"
        assert verdicts["SC"].status == "refuted"
        assert verdicts["USC"].status == "refuted"
        for notion in NOTIONS:
            assert verdicts[notion].scope == "full"

    @pytest.mark.parametrize("far_jump, ladders", [(False, 2), (True, 3)])
    def test_sc_reuses_the_uc_jump_ladder(self, monkeypatch, far_jump, ladders):
        """When SC's first bad junction is UC's jump junction, SC copies UC's
        mirror ladder there instead of building it again; a jump at a
        junction outside the domain comes first for UC only."""
        pieces = [
            IntervalPiece(qx(0), qx(1)),
            IntervalPiece(qx(1), qx(2), False, True),
            IntervalPiece(qx(2), qx(3), False, True),
        ]
        if far_jump:
            pieces[0] = IntervalPiece(qx(0), qx(1), True, False)
        dom = IntervalUnion(tuple(pieces))
        f = Piecewise(
            tuple(
                FuncPiece(IntervalUnion((p,)), Const(v))
                for p, v in zip(pieces, (2 if far_jump else 0, 0, 1))
            )
        )
        built = []
        ladder = analysis._ladder

        def counted(*args):
            built.append(args)
            return ladder(*args)

        monkeypatch.setattr(analysis, "_ladder", counted)
        verdicts = analysis._interval_classify(dom, f, FAST)
        assert len(built) == ladders
        uc, sc = verdicts["UC"].witness, verdicts["SC"].witness
        c = qx(2)
        assert sc["anchor"] == format_quadext(c)
        assert sc["terms"] == ladder(f, lambda m: (c + 1 / qx(m + 1), c - 1 / qx(m + 1)))
        assert (sc["terms"] == uc["terms"]) != far_jump
        assert sc["terms"] is not uc["terms"]
        assert all(s is not u for s, u in zip(sc["terms"], uc["terms"]))

    def test_affine_everywhere_uc(self):
        dom = IntervalUnion((IntervalPiece(qx(-2), qx(2)),))
        verdicts = classify(dom, Const(5), FAST)
        for notion in NOTIONS:
            assert verdicts[notion].status == "proven"
            assert verdicts[notion].scope == "full"

    @settings(max_examples=150, deadline=None)
    @given(component_unions())
    def test_min_component_gap_is_the_least_merged_gap(self, ambient):
        verdicts = analysis._interval_classify(ambient, Identity(), FAST)
        gaps = merge_interval_components(ambient.pieces).gaps
        want = format_quadext(min(gaps)) if gaps else None
        assert verdicts["C"].certificate["min_component_gap"] == want

    @settings(max_examples=200, deadline=None)
    @given(component_unions())
    def test_junction_membership_read_from_the_facing_pieces(self, ambient):
        """A junction is a member exactly when one of its facing pieces holds
        it, a degenerate piece at the junction being one of them."""
        tiles = tile_formulas(Identity(), ambient.pieces)
        junctions = analysis._collect_junctions(ambient, Identity(), tiles)
        touching = {p.hi for p, q in itertools.pairwise(ambient.pieces) if p.hi == q.lo}
        assert [j.c for j in junctions] == sorted(touching)
        for j in junctions:
            assert j.in_domain == ambient.contains(j.c)

    def test_3000_separated_pieces_are_prompt(self):
        """The smallest gap comes from neighbouring pieces: taking it over
        every pair of components took about 8 s on 2 vCPUs."""
        n = 3000
        ambient = IntervalUnion(tuple(IntervalPiece(qx(2 * k), qx(2 * k + 1)) for k in range(n)))
        start = time.perf_counter()
        verdicts = classify(ambient, Identity(), AnalysisConfig())
        elapsed = time.perf_counter() - start
        assert all(v.status == "proven" for v in verdicts.values())
        assert verdicts["UC"].certificate["min_component_gap"] == "1"
        assert elapsed < 1, elapsed


class TestOneTiling:
    """Each analytic pipeline tiles its domain once, whatever its junction or
    block count; a staircase values each block endpoint once, by its tile."""

    @staticmethod
    def counting(monkeypatch):
        counts = Counter()

        def counted(name, original):
            def wrapper(f, xs):
                counts[name] += 1
                counts[name + "_points"] += 1 if isinstance(xs, QuadExt) else len(xs)
                return original(f, xs)

            return wrapper

        for name, key in (
            ("tile_formulas", "tile"),
            ("_evaluate_many", "many"),
            ("evaluate", "evaluate"),
            ("formula_eval", "value"),
        ):
            monkeypatch.setattr(analysis, name, counted(key, getattr(analysis, name)))

        def refused(*args):
            raise AssertionError("one_sided_limits tiles the pieces again")

        monkeypatch.setattr(functions, "one_sided_limits", refused)
        return counts

    @pytest.mark.parametrize("n", [1, 2, 9, 120])
    def test_interval_union_tiled_once(self, monkeypatch, n):
        pieces = tuple(IntervalPiece(qx(k), qx(k + 1), True, k == n - 1) for k in range(n))
        f = Piecewise(tuple(FuncPiece(IntervalUnion((p,)), Const(3)) for p in pieces))
        counts = self.counting(monkeypatch)
        verdicts = analysis._interval_classify(IntervalUnion(pieces), f, FAST)
        assert counts["tile"] == 1
        assert len(verdicts["UC"].certificate["junctions"]) == n - 1
        assert "one_sided_limits" not in vars(analysis)

    @pytest.mark.parametrize("n", [1, 2, 9, 120])
    def test_staircase_tiled_and_valued_once(self, monkeypatch, n):
        stair = Staircase("A", n)
        counts = self.counting(monkeypatch)
        analysis._staircase_classify(stair, staircase_function(stair), FAST)
        assert counts["tile"] == 1
        # a lone block faces no other block, so none of its ends is valued
        assert counts["value"] == (2 * n if n > 1 else 0)
        assert counts["many"] == counts["evaluate"] == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 40])
    def test_reciprocal_on_staircase_b_raises(self, n):
        # the first block of variant B is [0, 1]
        with pytest.raises(DomainError, match="^reciprocal evaluated at 0$"):
            classify(Staircase("B", n), Reciprocal(), FAST)


class TestFirstMatchTiles:
    """The interval and staircase pipelines tile by first match: a piece an
    earlier region meets is refused instead of proven continuous, and a
    piece listed twice, or inside a wider listed piece, classifies as when
    it is listed once."""

    @pytest.mark.parametrize(
        "case, match",
        [
            ("point", r"piece \(0, 1\) is split between piecewise regions 0, 1"),
            ("inner_piece", r"piece \[0, 1\] is split between piecewise regions 0, 1"),
            ("family", r"piece \[0, 1\] comes after piecewise region 0 \(.*\), which is neither"),
            ("staircase", r"piece \[1, 3/2\] is split between piecewise regions 0, 1"),
        ],
    )
    def test_an_earlier_region_meeting_a_piece_is_refused(self, case, match):
        half = qx(Fraction(1, 2))
        if case == "staircase":
            ambient = Staircase("A", 2)
            spike = FuncPiece(FinitePoints.of(qx(Fraction(5, 4))), Const(9))
            f = Piecewise((spike,) + staircase_function(ambient).pieces)
            # 9 inside the first block [1, 3/2], whose other points take 1
            assert evaluate(f, qx(Fraction(5, 4))) == qx(9)
        else:
            piece = IntervalPiece(qx(0), qx(1), case != "point", case != "point")
            lead = {
                "point": FinitePoints.of(half),
                "inner_piece": IntervalUnion((IntervalPiece(half / 2, 3 * half / 2),)),
                "family": NaturalReciprocals(10),
            }[case]
            ambient = IntervalUnion((piece,))
            f = Piecewise((FuncPiece(lead, Const(5)), FuncPiece(ambient, Identity())))
            assert evaluate(f, half) == qx(5)
        with pytest.raises(ConfigurationError, match=match):
            classify(ambient, f, FAST)

    @pytest.mark.parametrize("case", ["listed_twice", "nested"])
    def test_same_verdicts_as_listed_once(self, case):
        left, right = IntervalPiece(qx(0), qx(1)), IntervalPiece(qx(1), qx(2), False, True)
        ambient = IntervalUnion((left, right))
        seven = FuncPiece(IntervalUnion((right,)), Const(7))
        once = Piecewise((seven, FuncPiece(IntervalUnion((left,)), Identity())))
        if case == "listed_twice":
            f = Piecewise((seven, FuncPiece(ambient, Identity())))
        else:
            wider = IntervalPiece(qx(1), qx(3), False, True)
            f = Piecewise((FuncPiece(IntervalUnion((wider,)), Const(7)), once.pieces[1]))
        verdicts = [classify(ambient, g, FAST) for g in (f, once)]
        documents = [dump_json({n: v.to_json() for n, v in vs.items()}) for vs in verdicts]
        assert documents[0] == documents[1]
        assert verdicts[0]["C"].status == "refuted"


# sha256 of the dump_json document of the _staircase_classify verdicts for
# staircase_function at the default config
_STAIRCASE_PINS = [
    ("A", 1, "53f5b8336515642f8ba18df6ba2648d59b89fce3db74e9688e988c9794aef13e"),
    ("A", 2, "394b91b3f612816a00280dc3e57b07b93a432d97f0837bc3af2df86a65efbfeb"),
    ("A", 9, "5959735276c8cf987555fd2c87c495d5971678604fadbdeae63f69196311dfcb"),
    ("A", 25, "aa57afc6aa673dc8aa3aca0eb2834106c4e9ec71c5bcd73b207b3cb2bb83820b"),
    ("A", 1000, "a0891e55d6f27aad316f2ce859ddfff00d10a3393db4f5e74f4c00b1a81f4ecb"),
    ("B", 1, "161721cbd08f57c00cdbd29031afd52d4466e61ef3d588669481dfaec895993c"),
    ("B", 2, "ae2aca7ac200c1241459ac3db1259df64a4bdb8b8d5873dec167a1dae8586f63"),
    ("B", 9, "a09f998aaca01374d0a672eca66d9c57dbc233e940d10b064491cb2ff38759f0"),
    ("B", 25, "7402b7a67b70d5a73213f2953c61dae26ccd889073a0622a22c0682248668360"),
    ("B", 1000, "387dece6f311ba414ebd0fb36d7957ea2e52793586b70e23a8b410af7cd5df0a"),
]


def _staircase_document(stair, f):
    verdicts = analysis._staircase_classify(stair, f, AnalysisConfig())
    return dump_json({notion: v.to_json() for notion, v in verdicts.items()})


class TestStaircaseKeys:
    """The staircase pipeline compares on keys of the block ends and of their
    values, and decides each candidate midpoint by the facing blocks."""

    @pytest.mark.parametrize("variant, blocks, digest", _STAIRCASE_PINS)
    def test_verdicts_pinned_on_integer_and_exact_keys(self, variant, blocks, digest):
        stair = Staircase(variant, blocks)
        f = staircase_function(stair)
        for ctx in (contextlib.nullcontext(), _exact_only()):
            with ctx:
                document = _staircase_document(stair, f)
            assert hashlib.sha256(document.encode()).hexdigest() == digest

    @pytest.mark.parametrize("variant", "AB")
    @pytest.mark.parametrize("blocks", [2, 9, 25])
    @pytest.mark.parametrize("f", [Identity(), Monomial(2), Affine(SQRT2, 1)])
    def test_embedded_and_lifted_values_match_exact(self, variant, blocks, f):
        stair = Staircase(variant, blocks)
        with _exact_only():
            exact = _staircase_document(stair, f)
        assert _staircase_document(stair, f) == exact

    @pytest.mark.parametrize("variant", "AB")
    @pytest.mark.parametrize("blocks", [1, 2, 25, 200])
    def test_no_membership_test_or_gap_list(self, monkeypatch, variant, blocks):
        """The 4*(blocks - 1) candidate midpoints are decided from the keys
        of the facing blocks' ends, and the smallest gap is read from the
        ends."""
        calls = Counter()
        for name in ("contains", "gaps"):

            def counted(self, *args, _name=name, _orig=getattr(Staircase, name)):
                calls[_name] += 1
                return _orig(self, *args)

            monkeypatch.setattr(Staircase, name, counted)
        stair = Staircase(variant, blocks)
        verdicts = analysis._staircase_classify(stair, staircase_function(stair), FAST)
        assert verdicts["USC"].resolution["pairs_checked"] == 4 * (blocks - 1)
        assert calls == Counter()

    @pytest.mark.parametrize("variant", "AB")
    def test_ends_valued_from_tiles(self, monkeypatch, variant):
        """Each block end is valued by its block's tile formula, so no
        listing is valued and the owner index is asked for no point."""
        calls = Counter()
        for owner, name in ((analysis, "_evaluate_many"), (functions._OwnerIndex, "owners"),
                            (functions._OwnerIndex, "owner")):

            def counted(*args, _name=name, _orig=getattr(owner, name)):
                calls[_name] += 1
                return _orig(*args)

            monkeypatch.setattr(owner, name, counted)
        stair = Staircase(variant, 1000)
        analysis._staircase_classify(stair, staircase_function(stair), FAST)
        assert calls == Counter()

    def test_b_1000_is_prompt(self):
        """It took about 0.45 s on 2 vCPUs, most of it in Staircase.contains
        on 1 400-2 900-bit breakpoints."""
        stair = Staircase("B", 1000)
        f = staircase_function(stair)
        times = []
        for _ in range(3):
            start = time.perf_counter()
            analysis._staircase_classify(stair, f, AnalysisConfig())
            times.append(time.perf_counter() - start)
        assert min(times) < 0.3, times


class TestImplications:
    @staticmethod
    def base(status: str, notion: str) -> Verdict:
        method = "interval_decision" if status != "no_violation" else "flat_modulus"
        cert = {"kind": "interval_decision"} if status == "proven" else None
        return Verdict(notion, status, method, "full", certificate=cert)

    def test_uc_propagates(self):
        verdicts = {
            "C": self.base("no_violation", "C"),
            "UC": self.base("proven", "UC"),
            "SC": self.base("no_violation", "SC"),
            "USC": self.base("no_violation", "USC"),
        }
        apply_implications(verdicts)
        for notion in ("C", "SC", "USC"):
            assert verdicts[notion].status == "proven"
            assert verdicts[notion].method == "implication"
            assert verdicts[notion].certificate["kind"] == "implication"

    def test_proven_not_downgraded(self):
        verdicts = {
            "C": self.base("proven", "C"),
            "UC": self.base("proven", "UC"),
            "SC": self.base("proven", "SC"),
            "USC": self.base("proven", "USC"),
        }
        apply_implications(verdicts)
        assert verdicts["C"].method == "interval_decision"

    def test_consistency_flags_contradiction(self):
        verdicts = {
            "C": self.base("refuted", "C"),
            "UC": self.base("proven", "UC"),
            "SC": self.base("no_violation", "SC"),
            "USC": self.base("no_violation", "USC"),
        }
        problems = check_consistency(verdicts)
        assert problems

    def test_consistency_clean(self):
        ambient, f = nr_indicator(40)
        assert check_consistency(classify(ambient, f, FAST)) == []


class TestSubsetAnchors:
    def test_restricted_centers_refuted(self):
        case = next(c for c in build_example("ex-3.7") if c.subset_b is not None)
        v = check_wrt_subset(case.ambient, case.f, case.subset_b, FAST)
        assert v.notion == "USC_wrt_B"
        assert v.status == "refuted"
        w = v.witness
        x, y = parse_quadext(w["x"]), parse_quadext(w["y"])
        assert (x + y) / 2 == qx(0)

    def test_subset_equal_to_ambient(self):
        dom = FinitePoints.of(qx(0), qx(1))
        v = check_wrt_subset(dom, Const(0), dom, FAST)
        assert v.notion == "USC_wrt_B" and v.status == "proven"

    def test_subset_outside_ambient(self):
        dom = FinitePoints.of(qx(0), qx(1))
        with pytest.raises(DomainError):
            check_wrt_subset(dom, Const(0), FinitePoints.of(qx(2)), FAST)

    def test_continuum_rejected(self):
        dom = IntervalUnion((IntervalPiece(qx(0), qx(1)),))
        with pytest.raises(ConfigurationError):
            check_wrt_subset(dom, Const(0), FinitePoints.of(qx(0)), FAST)


class TestRefutingSequences:
    def setup_method(self):
        self.ambient, self.f = nr_indicator(100)

    def seq(self, **kw):
        base = dict(
            kind="usc",
            epsilon=qx(1),
            term=lambda n: (qx(Fraction(1, n)), qx(0)),
            claimed=lambda n: qx(1),
            n_max=50,
        )
        base.update(kw)
        return RefutingSequence(**base)

    def test_valid_sequence(self):
        rep = verify_refuting_sequence(self.ambient, self.f, self.seq(), 30)
        assert rep.ok and rep.terms_checked == 30 and rep.failure is None

    def test_n_max_caps_terms(self):
        rep = verify_refuting_sequence(self.ambient, self.f, self.seq(), 80)
        assert rep.ok and rep.terms_checked == 50

    def test_wrong_claim(self):
        rep = verify_refuting_sequence(
            self.ambient, self.f, self.seq(claimed=lambda n: qx(2)), 10
        )
        assert not rep.ok and "differs from the claim" in rep.failure

    def test_term_outside_domain(self):
        bad = self.seq(term=lambda n: (qx(Fraction(1, 1000 + n)), qx(0)))
        rep = verify_refuting_sequence(self.ambient, self.f, bad, 10)
        assert not rep.ok and "leaves the domain" in rep.failure

    def test_epsilon_violated(self):
        rep = verify_refuting_sequence(
            self.ambient, self.f, self.seq(epsilon=qx(2), claimed=lambda n: qx(1)), 10
        )
        assert not rep.ok and "below epsilon" in rep.failure

    def test_midpoint_must_stay_inside(self):
        # pairs (1/n, 1/(n+1)) have midpoints strictly between reciprocals
        bad = RefutingSequence(
            "usc",
            qx(0),
            lambda n: (qx(Fraction(1, n)), qx(Fraction(1, n + 1))),
            lambda n: qx(0),
            n_max=30,
        )
        rep = verify_refuting_sequence(self.ambient, self.f, bad, 10)
        assert not rep.ok and "midpoint leaves the domain" in rep.failure

    def test_scale_must_shrink(self):
        bad = self.seq(
            term=lambda n: (qx(Fraction(1, 2)), qx(0)), claimed=lambda n: qx(1)
        )
        rep = verify_refuting_sequence(self.ambient, self.f, bad, 10)
        assert not rep.ok and "shrink" in rep.failure

    def test_anchor_kinds(self):
        good_c = RefutingSequence(
            "c",
            qx(1),
            lambda n: (qx(Fraction(1, 2 * n)), qx(0)),
            lambda n: qx(1),
            anchor=qx(0),
            n_max=40,
        )
        assert verify_refuting_sequence(self.ambient, self.f, good_c, 20).ok
        drifting = RefutingSequence(
            "c",
            qx(0),
            lambda n: (qx(Fraction(1, n + 1)), qx(Fraction(1, n))),
            lambda n: qx(0),
            anchor=qx(0),
            n_max=40,
        )
        rep = verify_refuting_sequence(self.ambient, self.f, drifting, 10)
        assert not rep.ok and "anchor" in rep.failure

    def test_mirror_kind(self):
        dom = IntegerWindow(-10, 10)
        seq = RefutingSequence(
            "sc",
            qx(0),
            lambda n: (qx(n), qx(-n)),
            lambda n: qx(0),
            anchor=qx(0),
            n_max=9,
        )
        # scales grow with n, so the strict-shrink check trips at term 2
        rep = verify_refuting_sequence(dom, Const(0), seq, 9)
        assert not rep.ok and rep.terms_checked == 1

    def test_membership_is_decided_before_any_value(self):
        """f would raise at x, which lies in the domain, but y does not: the
        term leaves the domain and f is never valued, with a fresh table and
        with one that already holds x's membership."""
        dom = NaturalReciprocals(10, with_zero=True)
        seq = RefutingSequence("uc", qx(1), lambda n: (qx(0), qx(5)), lambda n: qx(1))
        points = {}
        for table in (None, points, points):
            rep = verify_refuting_sequence(dom, Reciprocal(), seq, 3, points=table)
            assert (rep.ok, rep.terms_checked) == (False, 0)
            assert rep.failure == "term 1 leaves the domain"
        assert points == {(0, 0, 1): [True, None], (5, 0, 1): [False, None]}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            RefutingSequence("weird", qx(1), lambda n: (qx(n), qx(0)), lambda n: qx(1))


class TestWitnessVerification:
    def test_clean_witnesses(self):
        ambient, f = nr_indicator(60)
        for v in classify(ambient, f, FAST).values():
            assert verify_witness(ambient, f, v) == []

    def test_corrupted_pair_osc(self):
        ambient, f = nr_indicator(60)
        v = classify(ambient, f, FAST)["USC"]
        v.witness["osc"] = "5"
        assert any("mismatch" in p for p in verify_witness(ambient, f, v))

    def test_pair_outside_domain(self):
        ambient, f = nr_indicator(60)
        v = classify(ambient, f, FAST)["USC"]
        v.witness["x"] = "17"
        assert any("leaves the domain" in p for p in verify_witness(ambient, f, v))

    def test_corrupted_family_term(self):
        dom = IntervalUnion((IntervalPiece(qx(0), qx(3), False, True),))
        v = classify(dom, Reciprocal(), FAST)["UC"]
        assert v.witness["kind"] == "pair_family"
        v.witness["terms"][2]["osc"] = "0"
        assert any("mismatch" in p for p in verify_witness(dom, Reciprocal(), v))

    def test_no_witness_is_fine(self):
        dom = FinitePoints.of(qx(0), qx(1))
        v = classify(dom, Const(0), FAST)["C"]
        assert verify_witness(dom, Const(0), v) == []

    def test_pair_witness_without_points(self):
        ambient, f = nr_indicator(60)
        v = classify(ambient, f, FAST)["USC"]
        del v.witness["x"], v.witness["y"]
        assert verify_witness(ambient, f, v) == ["witness pair missing"]


class TestCrossRegionUcWitness:
    def test_flat_refutation_names_the_pair(self):
        """Points valued 0 and 1 whose cross gaps shrink with n refute UC by
        the window scan; the reciprocal part keeps the union off the
        uniformly discrete pipeline."""
        zeros, ones = [], []
        for n in range(2, 9):
            for k in range(3):
                a = qx(10 + Fraction(1, n) + Fraction(k, n**5))
                zeros.append(a)
                ones.append(a + qx(Fraction(1, n**3)))
        low, high = FinitePoints.of(*zeros), FinitePoints.of(*ones)
        tail = NaturalReciprocals(1, with_zero=False)
        ambient = UnionOf((low, high, tail))
        f = Piecewise(
            (
                FuncPiece(low, Const(0)),
                FuncPiece(high, Const(1)),
                FuncPiece(tail, Const(0)),
            )
        )
        v = classify(ambient, f, AnalysisConfig())["UC"]
        assert (v.status, v.method) == ("refuted", "flat_modulus")
        assert list(v.witness) == ["kind", "x", "y", "osc", "profile"]
        x, y = parse_quadext(v.witness["x"]), parse_quadext(v.witness["y"])
        assert high.contains(x) and low.contains(y)
        # the closest cross pair: the value-1 point of n = 8, k = 0 against
        # the value-0 point of n = 8, k = 2
        assert x - y == qx(Fraction(1, 8**3) - Fraction(2, 8**5))
        assert v.witness["osc"] == "1"
        assert verify_witness(ambient, f, v) == []


class TestPiecewiseConstantFamily:
    @staticmethod
    def even_odd(n):
        """{1/k : 1 <= k <= n} with f(1/k) = 1 for even k and 0 for odd k (a
        catch-all region listing every point, so evaluating f calls no
        contains of the ambient set), listed in full; with n = 800 there are
        160 000 pairs across the two values."""
        ambient = NaturalReciprocals(n, with_zero=False)
        pts = ambient.enumerate(n).points
        even = FinitePoints(tuple(p for p in pts if p.rat.denominator % 2 == 0))
        f = Piecewise((FuncPiece(even, Const(1)), FuncPiece(FinitePoints(pts), Const(0))))
        return ambient, f, pts

    def test_uc_window_scan_on_many_cross_pairs(self):
        """UC on a piecewise-constant f runs the one window scan per delta,
        whose work grows with the points, not with the cross pairs."""
        _, f, pts = self.even_odd(800)
        vals = [evaluate(f, p) for p in pts]
        c_open = Verdict("C", "no_violation", "flat_modulus", "truncation")
        start = time.perf_counter()
        v = analysis._uc_family(
            analysis._family_keys(pts, vals, AnalysisConfig().delta_schedule),
            AnalysisConfig(),
            False,
            True,
            c_open,
        )
        elapsed = time.perf_counter() - start
        assert (v.status, v.method) == ("refuted", "flat_modulus")
        assert (v.witness["x"], v.witness["y"], v.witness["osc"]) == ("1/799", "1/800", "1")
        assert elapsed < 0.5, elapsed

    def test_usc_cross_pairs_looked_up_among_listed_keys(self):
        """The cross-pair sweep finds each midpoint among the doubled listed
        keys; with 160 000 cross pairs it took 0.33-0.52 s on 2 vCPUs when
        each midpoint went through the ambient set's contains."""
        _, f, pts = self.even_odd(800)
        vals = [evaluate(f, p) for p in pts]
        groups = [
            [k for k, v in enumerate(vals) if v == 1],
            [k for k, v in enumerate(vals) if v == 0],
        ]
        start = time.perf_counter()
        v = analysis._usc_family(
            analysis._family_keys(pts, vals, AnalysisConfig().delta_schedule),
            AnalysisConfig(),
            False,
            groups,
        )
        elapsed = time.perf_counter() - start
        assert (v.status, v.method) == ("refuted", "flat_modulus")
        assert (v.witness["x"], v.witness["y"], v.witness["midpoint"]) == (
            "1/741",
            "1/780",
            "1/760",
        )
        assert v.witness["osc"] == "1"
        assert v.witness["profile"][0]["challenges"] == 324
        assert elapsed < 0.2, elapsed

    def test_value_groups_call_no_contains(self, monkeypatch):
        """The family pipeline groups the points by their evaluated values and
        answers every midpoint from the listing: it calls the regions'
        contains only as one evaluation of each listed point does, and the
        ambient set's contains never."""
        calls = Counter()
        for cls in (FinitePoints, NaturalReciprocals):
            original = cls.contains

            def counted(self, x, _orig=original):
                calls[self] += 1
                return _orig(self, x)

            monkeypatch.setattr(cls, "contains", counted)
        ambient, f, pts = self.even_odd(40)
        # listed in full, the set takes the midpoint-free walk as well
        for limit in (30, 40):
            calls.clear()
            for p in pts[:limit]:
                evaluate(f, p)
            evaluation = Counter(calls)
            calls.clear()
            verdicts = analysis._family_classify(ambient, f, AnalysisConfig(enum_limit=limit))
            assert verdicts["USC"].status == "refuted"
            assert calls == evaluation
            assert calls[ambient] == 0


def _steps(*parts):
    """A piecewise-constant f: the value c on the points of each (points, c)."""
    return Piecewise(tuple(FuncPiece(FinitePoints.of(*pts), Const(c)) for pts, c in parts))


_RECIPS = [Fraction(1, k) for k in range(1, 41)]
_SIGNED = [Fraction(s, k) for k in range(1, 11) for s in (1, -1)] + [0]
_TWO_SCALES = [0, Fraction(1, 2), 1, 10, Fraction(81, 8), Fraction(41, 4)]
_MIDPOINT_FREE = (
    "no pair of domain points has its midpoint in the domain, so no symmetric "
    "challenge exists at any scale"
)
_FLAT_CROSS = (
    "valid symmetric pairs with the same positive oscillation exist at every "
    "effective delta down to the model floor"
)
_FLAT_MIRROR = (
    "oscillation stays at the same positive level at every effective delta "
    "down to the model floor"
)

# (points, f, config, (status, method, resolution pairs_checked,
# certificate pairs_checked, note))
_USC_OUTCOMES = {
    "midpoint_free": (
        [0, 1, 3], Identity(), {}, ("proven", "midpoint_free", 3, 3, _MIDPOINT_FREE)
    ),
    "midpoint_free_constant": (
        [0, 1, 3],
        _steps(([0, 1], 1), ([3], 0)),
        {},
        ("proven", "midpoint_free", 3, 3, _MIDPOINT_FREE),
    ),
    "pair_budget": (
        [Fraction(1, k) for k in range(1, 51)],
        Identity(),
        {"enum_limit": 10},
        ("no_violation", "flat_modulus", None, None,
         "pair budget too small for a symmetric sweep at this resolution"),
    ),
    "cross_pair_budget": (
        range(10),
        _steps((range(0, 10, 2), 1), (range(1, 10, 2), 0)),
        {"max_pairs": 10},
        ("no_violation", "flat_modulus", 25, None,
         "cross-region pair count exceeds the pair budget"),
    ),
    "truncated_without_cross_pair": (
        [0, 1, 3, 7, 20],
        _steps(([0, 3], 1), ([1, 7, 20], 0)),
        {"enum_limit": 4},
        ("no_violation", "flat_modulus", 4, None,
         "no valid cross-region pair found, but the enumeration was truncated"),
    ),
    "zero_constant": (
        [0, 1, 2, 5],
        _steps(([0, 1, 2], 1), ([5], 0)),
        {},
        ("proven", "exhaustive_enumeration", 3, 3,
         "pairs within one constant region oscillate by exactly zero, and every "
         "cross-region pair has its midpoint outside the domain, so the "
         "symmetric modulus vanishes identically"),
    ),
    "zero_non_constant": (
        [-1, 0, 1],
        Monomial(2),
        {},
        ("proven", "exhaustive_enumeration", None, 1,
         "every valid pair oscillates by exactly zero"),
    ),
    "flat_constant": (
        _RECIPS,
        _steps(([p for p in _RECIPS if p.denominator % 2 == 0], 1),
               ([p for p in _RECIPS if p.denominator % 2], 0)),
        {},
        ("refuted", "flat_modulus", 400, None, _FLAT_CROSS),
    ),
    "flat_non_constant": (
        _SIGNED + [100],
        Piecewise((
            FuncPiece(FinitePoints.of(100), Identity()),
            FuncPiece(FinitePoints.of(*(p for p in _SIGNED if p > 0)), Const(1)),
            FuncPiece(FinitePoints.of(*(p for p in _SIGNED if p <= 0)), Const(0)),
        )),
        {},
        ("refuted", "flat_modulus", None, None, _FLAT_MIRROR),
    ),
    "decay_constant": (
        _TWO_SCALES,
        _steps(([0, Fraction(1, 2), 10, Fraction(81, 8)], 0), ([1], 3),
               ([Fraction(41, 4)], 1)),
        {},
        ("no_violation", "flat_modulus", 9, None,
         "cross-region symmetric oscillation decays at this resolution"),
    ),
    "decay_non_constant": (
        _TWO_SCALES,
        Identity(),
        {},
        ("no_violation", "flat_modulus", None, None,
         "oscillation decays (or the probe was truncated) at this resolution"),
    ),
}


@pytest.mark.parametrize("case", _USC_OUTCOMES)
def test_usc_family_outcomes(case):
    """Each way _usc_family decides a listing: the midpoint-free walk, the
    two budget skips, and the zero, flat and decay rows of the cross-group
    sweep (piecewise-constant f) and of the mirror sweep (any other f)."""
    points, f, knobs, want = _USC_OUTCOMES[case]
    config = AnalysisConfig(**knobs)
    en = FinitePoints.of(*points).enumerate(config.enum_limit)
    vals = _evaluate_many(f, en.points)
    groups = analysis._const_groups(f, vals)
    fk = analysis._family_keys(en.points, vals, config.delta_schedule, groups)
    v = analysis._usc_family(fk, config, en.truncated, groups)
    got = (
        v.status,
        v.method,
        v.resolution.get("pairs_checked"),
        (v.certificate or {}).get("pairs_checked"),
        *v.notes,
    )
    assert got == want


class TestOscillationScans:
    def brute_uc(self, pts, vals, delta):
        best = None
        wit_count = 0
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if pts[j] - pts[i] < delta:
                    wit_count += 1
                    osc = abs(vals[j] - vals[i])
                    if best is None or osc > best:
                        best = osc
        return best, wit_count

    def brute_sym(self, domain, pts, vals, delta):
        """(sup, count, witness) over the valid pairs below delta; the witness
        is the earliest pair in (h, x, y) order that reaches the sup."""
        val_of = dict(zip(pts, vals))
        valid = sorted(
            ((pts[j] - pts[i]) / 2, pts[j], pts[i])
            for i in range(len(pts))
            for j in range(i + 1, len(pts))
            if (pts[j] - pts[i]) / 2 < delta
            and domain.contains((pts[j] + pts[i]) / 2)
        )
        oscs = [abs(val_of[x] - val_of[y]) for _, x, y in valid]
        best = max(oscs, default=None)
        wit = next(((x, y) for (_, x, y), o in zip(valid, oscs) if o == best), None)
        return best, len(valid), wit

    def test_uc_scan_matches_brute_force(self):
        from symcont import evaluate

        rng = random.Random(11)
        for _ in range(12):
            dom = random_sparse_domain(rng, max_points=18)
            f = random_piecewise(rng, dom)
            pts = list(dom.enumerate(100).points)
            vals = [evaluate(f, p) for p in pts]
            for delta in (qx(4), qx(1), qx(Fraction(1, 8))):
                res = uc_oscillation(dom, f, delta, FAST)
                expect, _ = self.brute_uc(pts, vals, delta)
                assert res.value == expect

    def test_zero_row_names_two_points(self):
        """A row whose sup is 0 names two distinct points closer than its
        delta, on the integer scan and on the exact one."""
        config = AnalysisConfig(delta_schedule=(qx(1),))
        ambient = NaturalReciprocals(5)
        lifted = modulus_profile(ambient, Const(1), config, "uc").rows[0][1]
        with _exact_only():
            exact = modulus_profile(ambient, Const(1), config, "uc").rows[0][1]
        for res in (lifted, exact):
            assert (res.value, res.witness) == (qx(0), (qx(Fraction(1, 5)), qx(0)))

    def test_sym_scan_matches_brute_force(self):
        rng = random.Random(23)
        from symcont import evaluate

        for _ in range(12):
            dom = random_sparse_domain(rng, max_points=18)
            f = random_piecewise(rng, dom)
            pts = list(dom.enumerate(100).points)
            vals = [evaluate(f, p) for p in pts]
            for delta in (qx(4), qx(Fraction(1, 2))):
                res = sym_oscillation(dom, f, delta, FAST)
                expect, count, wit = self.brute_sym(dom, pts, vals, delta)
                assert res.value == expect
                assert res.challenges == count
                assert res.witness == wit
            prof = modulus_profile(dom, f, FAST, "usc")
            for delta, res in prof.rows:
                expect, count, wit = self.brute_sym(dom, pts, vals, delta)
                assert (res.value, res.challenges, res.witness) == (expect, count, wit)

    def test_restricted_centers(self):
        dom = NaturalReciprocals(12, with_zero=True)
        centers = FinitePoints.of(qx(Fraction(1, 8)))
        res = sym_oscillation(dom, Const(0), qx(1), FAST, centers=centers)
        assert res.challenges > 0 and res.value == qx(0)


class TestModulusProfile:
    def test_rows_follow_schedule(self):
        ambient, f = nr_indicator(40)
        prof = modulus_profile(ambient, f, FAST, "usc")
        assert [d for d, _ in prof.rows] == list(FAST.delta_schedule)

    def test_monotone_in_delta(self):
        ambient, f = nr_indicator(40)
        for notion in ("uc", "usc"):
            prof = modulus_profile(ambient, f, FAST, notion)
            seen_none = False
            prev = None
            for _, res in prof.rows:
                if res.value is None:
                    seen_none = True
                    continue
                assert not seen_none, "a value reappeared after a None row"
                if prev is not None:
                    assert res.value <= prev
                prev = res.value

    def test_sym_bounded_by_uc_at_double(self):
        rng = random.Random(5)
        for _ in range(10):
            dom = random_sparse_domain(rng, max_points=16)
            f = random_piecewise(rng, dom)
            for delta in (qx(2), qx(Fraction(1, 2)), qx(Fraction(1, 16))):
                sym = sym_oscillation(dom, f, delta, FAST)
                uc = uc_oscillation(dom, f, 2 * delta, FAST)
                if sym.value is not None:
                    assert uc.value is not None
                    assert sym.value <= uc.value

    def test_bad_notion(self):
        with pytest.raises(ConfigurationError):
            modulus_profile(FinitePoints.of(qx(0)), Const(0), FAST, "sc")

    def test_json_shape(self):
        ambient, f = nr_indicator(20)
        data = modulus_profile(ambient, f, FAST, "uc").to_json()
        assert data["notion"] == "uc"
        assert len(data["rows"]) == len(FAST.delta_schedule)
        assert {"delta", "omega", "challenges", "witness"} <= set(data["rows"][0])


class TestUscOracleAgreement:
    def test_classify_matches_sequential_oracle(self):
        rng = random.Random(99)
        for _ in range(20):
            dom = random_sparse_domain(rng, max_points=14)
            f = random_piecewise(rng, dom)
            got = classify(dom, f, FAST)["USC"].status
            want = brute_force_usc_status(dom, f)
            assert got == want == "proven"


class TestUniformLimitTransfer:
    def build_limit(self):
        lo_piece = IntervalPiece(qx(0), qx(1), True, False)
        hi_piece = IntervalPiece(qx(1), qx(2), True, True)
        dom = IntervalUnion((lo_piece, hi_piece))
        limit = Piecewise(
            (
                FuncPiece(IntervalUnion((lo_piece,)), Const(0)),
                FuncPiece(IntervalUnion((hi_piece,)), Const(1)),
            )
        )
        return dom, limit

    def test_stagnant_distance_blocks_transfer(self):
        dom, limit = self.build_limit()
        members = [(n, ex_3_5_member(n)) for n in (2, 6, 12)]
        rep = uniform_limit_transfer(dom, members, limit, FAST)
        assert [v for _, v in rep.sup_dists] == [qx(1), qx(1), qx(1)]
        assert all(s == "proven" for _, s in rep.member_uc_status)
        assert rep.stagnant
        assert rep.inequality_ok
        assert rep.notes

    def test_honest_convergence(self):
        dom = IntervalUnion((IntervalPiece(qx(0), qx(1)),))
        members = [(n, Const(Fraction(1, n))) for n in (2, 4, 64)]
        rep = uniform_limit_transfer(dom, members, Const(0), FAST)
        assert rep.sup_dists[-1][1] == qx(Fraction(1, 64))
        assert not rep.stagnant
        assert rep.inequality_ok


# -- integer probe paths against their exact counterparts ----------------------

_RATS = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_IRRS = (Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(2, 3))


@st.composite
def exact_sets(draw, min_size=0, max_size=12, distinct=True):
    """Exact numbers, all rational, all sharing one nonzero sqrt2 part, or
    with mixed sqrt2 parts: distinct and ascending, or else in drawn order
    with repeats allowed."""
    kind = draw(st.sampled_from(("rational", "shared", "mixed")))
    rats = draw(st.lists(_RATS, min_size=min_size, max_size=max_size, unique=distinct))
    if kind == "rational":
        irrs = [Fraction(0)] * len(rats)
    elif kind == "shared":
        irrs = [draw(st.sampled_from(_IRRS[1:]))] * len(rats)
    else:
        n = len(rats)
        irrs = draw(st.lists(st.sampled_from(_IRRS), min_size=n, max_size=n))
    out = [QuadExt(r, i) for r, i in zip(rats, irrs)]
    return sorted(set(out)) if distinct else out


# values from a small pool in three sqrt2 classes, so oscillations tie
_MIXED_VALUES = tuple(
    QuadExt(r, i)
    for r in (Fraction(0), Fraction(1), Fraction(-1, 2))
    for i in (Fraction(0), Fraction(1), Fraction(1, 3))
)


@st.composite
def survey_cases(draw):
    """Points (rational, sharing one sqrt2 part or mixed), values, centers
    (picked midpoints, none, or an interval union from center_unions), a
    schedule whose first delta caps the widths, and a pair budget that
    often ends inside a row."""
    pts = draw(exact_sets())
    vals = draw(st.lists(st.sampled_from(_MIXED_VALUES), min_size=len(pts), max_size=len(pts)))
    pairs = [(j, i) for j in range(len(pts)) for i in range(j)]
    picks = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    centers = FinitePoints(
        tuple((pts[j] + pts[i]) / 2 for (j, i), keep in zip(pairs, picks) if keep)
        + (qx(0),)
    )
    kind = draw(st.sampled_from(("points", "none", "union")))
    if kind == "none":
        # no centers: the midpoints that count are the listed points
        centers = None
    elif kind == "union" and len(pts) >= 2:
        centers = draw(center_unions(pts))
    cap_kind = draw(st.sampled_from(("none", "pair", "rational", "sqrt2")))
    if cap_kind == "pair" and pairs:
        # a cap equal to a surveyed width tests the strict inequality
        j, i = draw(st.sampled_from(pairs))
        delta_max = (pts[j] - pts[i]) / 2
    elif cap_kind == "rational":
        delta_max = qx(draw(st.fractions(min_value=Fraction(1, 16), max_value=4)))
    elif cap_kind == "sqrt2":
        delta_max = SQRT2 / draw(st.integers(1, 16))
    else:
        delta_max = None
    schedule = () if delta_max is None else (delta_max, delta_max / 3)
    max_pairs = draw(st.sampled_from((10**6, 0, 1, 3, 7)) | st.integers(0, len(pairs)))
    return pts, vals, centers, schedule, max_pairs


# twelfths in [-4, 4]: denominators 1, 2, 3, 4, 6 and 12, cheap to draw
_TWELFTHS = st.integers(-48, 48).map(lambda n: Fraction(n, 12))


@st.composite
def center_unions(draw, pts):
    """An interval union of centers: pieces with every closure, touching or
    apart, some degenerate, whose ends are midpoints of the points (so a
    midpoint lands on an open or a closed end) or drawn numbers with any
    sqrt2 part (so the integer bounds are irrational)."""
    mids = [(x + y) / 2 for k, y in enumerate(pts) for x in pts[k + 1 :]]
    ends = set()
    for _ in range(draw(st.integers(2, 8))):
        if draw(st.booleans()):
            ends.add(mids[draw(st.integers(0, len(mids) - 1))])
        else:
            ends.add(QuadExt(draw(_TWELFTHS), draw(st.sampled_from(_IRRS))))
    ends = sorted(ends)
    pieces = []
    k = 0
    while k + 1 < len(ends):
        lo, hi = ends[k], ends[k + 1]
        touching = bool(pieces) and pieces[-1].hi == lo and pieces[-1].hi_closed
        if draw(st.integers(0, 3)) == 0 and not touching:
            pieces.append(IntervalPiece(lo, lo))
        else:
            lo_closed = draw(st.booleans()) and not touching
            pieces.append(IntervalPiece(lo, hi, lo_closed, draw(st.booleans())))
        # a step of 1 starts the next piece where this one ends
        k += draw(st.integers(1, 2))
    if not pieces:
        pieces.append(IntervalPiece(ends[0], ends[0]))
    return IntervalUnion(tuple(pieces))


@st.composite
def union_center_cases(draw):
    """Points sharing one sqrt2 part c*sqrt2 (c = 0 for rational points),
    or now and then with mixed sqrt2 parts, values sharing one, an interval
    union of centers (center_unions) and a pair budget, which may end
    inside a row."""
    c = draw(st.sampled_from(_IRRS))
    rats = draw(st.lists(_TWELFTHS, min_size=2, max_size=12, unique=True))
    irrs = [c] * len(rats)
    if draw(st.integers(0, 3)) == 0:
        irrs = draw(st.lists(st.sampled_from(_IRRS), min_size=len(rats), max_size=len(rats)))
    pts = sorted({QuadExt(r, i) for r, i in zip(rats, irrs)})
    v_irr = draw(st.sampled_from(_IRRS))
    v_rats = draw(st.lists(_TWELFTHS, min_size=len(pts), max_size=len(pts)))
    vals = [QuadExt(r, v_irr) for r in v_rats]
    n_pairs = len(pts) * (len(pts) - 1) // 2
    max_pairs = draw(st.just(10**6) | st.integers(0, n_pairs))
    return pts, vals, draw(center_unions(pts)), max_pairs


@st.composite
def mixed_sqrt2_cases(draw):
    """Points in two to four sqrt2 classes, values in several (with equal
    oscillations), a schedule whose deltas include pair distances, half
    distances (ties with a survey half-width) and numbers just above them,
    survey centers that are the listing itself or an interval union with
    open and closed ends at midpoints, and f constant or zero-slope affine
    on each point."""
    classes = draw(
        st.lists(st.sampled_from(_IRRS + (Fraction(5, 7),)), min_size=2, max_size=4, unique=True)
    )
    rats = draw(st.lists(_TWELFTHS, min_size=2, max_size=10, unique=True))
    # the first two points take two different classes, so the set mixes them
    irrs = classes[:2] + draw(
        st.lists(st.sampled_from(classes), min_size=len(rats) - 2, max_size=len(rats) - 2)
    )
    pts = sorted(QuadExt(r, i) for r, i in zip(rats, irrs))
    vals = draw(st.lists(st.sampled_from(_MIXED_VALUES), min_size=len(pts), max_size=len(pts)))
    dists = sorted({x - y for k, y in enumerate(pts) for x in pts[k + 1 :]})
    deltas = {qx(9), SQRT2 / draw(st.integers(2, 40))}
    for d in draw(st.lists(st.sampled_from(dists), min_size=1, max_size=4)):
        deltas.update((d, d / 2, d + SQRT2 / 10**6))
    if draw(st.booleans()):
        # the largest delta at a pair distance: the scans stop there
        top = draw(st.sampled_from(dists))
        deltas = {d for d in deltas if d < top} | {top}
    schedule = tuple(sorted(deltas, reverse=True))
    centers = draw(center_unions(pts)) if draw(st.booleans()) else None
    formula = draw(st.sampled_from((Const, lambda v: Affine(0, v))))
    return pts, vals, schedule, centers, formula


# eighths in [-2, 2]: dense enough that many points have listed mirrors
_EIGHTHS = st.integers(-16, 16).map(lambda n: Fraction(n, 8))
_VALUE_POOL = (Fraction(0), Fraction(1), Fraction(2), Fraction(-1, 2))


@st.composite
def family_cases(draw):
    """A finite ambient set listed up to enum_limit (maybe truncated), f
    constant, zero-slope affine or the identity on up to three regions (or
    on overlapping regions before a catch-all on the whole set), a subset of
    anchors (some maybe past the listing), and a schedule whose
    deltas include point distances (ties with a gap or, as the largest
    delta, with the scan stop), just above them and irrational ones. Points
    are rational, share one sqrt2 part or mix them; values likewise."""
    kind = draw(st.sampled_from(("rational", "shared", "mixed")))
    rats = draw(st.lists(_EIGHTHS, min_size=1, max_size=14, unique=True))
    n = len(rats)
    if kind == "mixed":
        irrs = draw(st.lists(st.sampled_from(_IRRS), min_size=n, max_size=n))
    elif kind == "shared":
        irrs = [draw(st.sampled_from(_IRRS[1:]))] * n
    else:
        irrs = [Fraction(0)] * n
    pts = sorted({QuadExt(r, i) for r, i in zip(rats, irrs)})
    ambient = FinitePoints(tuple(pts))
    formula = draw(st.sampled_from(("const", "affine", "identity")))
    v_kind = draw(st.sampled_from(("rational", "shared", "mixed")))
    v_irr = draw(st.sampled_from(_IRRS[1:])) if v_kind == "shared" else Fraction(0)
    groups = draw(st.lists(st.integers(0, 2), min_size=len(pts), max_size=len(pts)))
    regions = [
        FinitePoints(tuple(p for p, h in zip(pts, groups) if h == g))
        for g in sorted(set(groups))
    ]
    if draw(st.booleans()):
        # the last region is the whole ambient set; the ones before it may
        # overlap, so the first region listing a point decides its value
        subset = st.lists(st.sampled_from(pts), min_size=1, unique=True)
        overlapping = draw(st.integers(0, 2))
        regions = [FinitePoints(tuple(draw(subset))) for _ in range(overlapping)]
        regions.append(ambient)
    pieces = []
    for region in regions:
        value = QuadExt(draw(st.sampled_from(_VALUE_POOL)), v_irr)
        if v_kind == "mixed" and draw(st.booleans()):
            value = value + SQRT2
        fm = Const(value) if formula == "const" else Affine(0, value)
        pieces.append(FuncPiece(region, fm))
    f = Identity() if formula == "identity" else Piecewise(tuple(pieces))
    # the whole set half the time: the complete-listing rules need it
    limit = len(pts) if draw(st.booleans()) else draw(st.integers(1, len(pts)))
    anchors = draw(st.lists(st.sampled_from(pts), min_size=1, max_size=4))
    dists = sorted({x - y for k, y in enumerate(pts) for x in pts[k + 1 :]})
    deltas = {qx(4), qx(Fraction(1, 3)), SQRT2 / draw(st.integers(2, 40))}
    if dists:
        # a sparse schedule leaves some anchors without a window; a dense
        # one puts an edge just above every gap, so each side's gap matters
        dense = draw(st.booleans())
        for d in dists if dense else draw(st.lists(st.sampled_from(dists), max_size=5)):
            deltas.update((d, d / 2, d + SQRT2 / 10**6))
        if draw(st.booleans()):
            # the largest delta equal to a distance: the outward scan stops there
            top = draw(st.sampled_from(dists))
            deltas = {d for d in deltas if d < top} | {top}
    config = AnalysisConfig(
        delta_schedule=tuple(sorted(deltas, reverse=True)),
        enum_limit=limit,
        max_pairs=draw(st.sampled_from((10**6, 4, 30, 80))),
    )
    return ambient, f, FinitePoints(tuple(anchors)), config


_8TH, _HALF = Fraction(1, 8), Fraction(1, 2)


def _family_example(points, values, schedule, formula=lambda v: Affine(0, v)):
    """A family case with one piece per point, zero-slope affine unless
    another formula is given, anchored at the first point."""
    pts = tuple(qx(p) for p in points)
    f = Piecewise(
        tuple(FuncPiece(FinitePoints.of(p), formula(v)) for p, v in zip(pts, values))
    )
    config = AnalysisConfig(delta_schedule=tuple(schedule))
    return FinitePoints(pts), f, FinitePoints(pts[:1]), config


def _sc(pts, vals, config, truncated):
    """The SC family scan run on its own, on the keys the pipeline gives it."""
    fk = analysis._family_keys(pts, vals, config.delta_schedule)
    windows = analysis._anchor_windows(fk.keys, fk.thr)
    return _sc_family(fk, windows, config, truncated)


def _family_verdicts(ambient, f, subset, config):
    """The JSON of the C, UC, SC, subset-anchored and USC verdicts of the
    family pipeline (C, UC and USC with the value groups of a
    piecewise-constant f)."""
    en = ambient.enumerate(config.enum_limit)
    vals = [evaluate(f, p) for p in en.points]
    verdicts = analysis._family_classify(ambient, f, config)
    sc = _sc(en.points, vals, config, en.truncated)
    wrt = check_wrt_subset(ambient, f, subset, config)
    return [v.to_json() for v in (verdicts["C"], verdicts["UC"], sc, wrt, verdicts["USC"])]


def _brute_window(pts, idx, schedule):
    """(largest, smallest) schedule delta above the distance from pts[idx]
    to the nearest other point, or None when fewer than two are."""
    near = [abs(p - pts[idx]) for k, p in enumerate(pts) if k != idx]
    eff = [d for d in schedule if near and d > min(near)]
    return (eff[0], eff[-1]) if len(eff) >= 2 else None


def _brute_rows(entries, schedule):
    """Profile rows over (scale, osc) entries: the sup and count below each delta."""
    rows = []
    for d in schedule:
        below = [o for h, o, *_ in entries if h < d]
        rows.append(
            {
                "delta": format_quadext(d),
                "omega": format_quadext(max(below)) if below else None,
                "challenges": len(below),
            }
        )
    return rows


def _brute_c(pts, vals, schedule):
    """Flat anchors (anchor, jump) by an all-pairs scan, and the witness
    anchor's profile rows."""
    flat = []
    for idx, a in enumerate(pts):
        window = _brute_window(pts, idx, schedule)
        if window is None:
            continue
        near = [(abs(p - a), abs(v - vals[idx])) for p, v in zip(pts, vals) if p != a]
        m_big = max((o for d, o in near if d < window[0]), default=qx(0))
        m_small = max((o for d, o in near if d < window[1]), default=qx(0))
        if m_small == m_big and m_big > 0:
            flat.append((a, m_big))
    if not flat:
        return flat, None
    jump = max(j for _, j in flat)
    anchor = min(a for a, j in flat if j == jump)
    va = vals[pts.index(anchor)]
    entries = [(abs(p - anchor), abs(v - va)) for p, v in zip(pts, vals) if p != anchor]
    return flat, _brute_rows(entries, schedule)


def _brute_sc(ambient, pts, vals, schedule):
    """Flat anchors (anchor, jump) over mirror pairs found by contains."""
    val_of = dict(zip(pts, vals))
    flat = []
    for idx, a in enumerate(pts):
        window = _brute_window(pts, idx, schedule)
        if window is None:
            continue
        mirrors = [
            (x - a, abs(val_of[x] - val_of[2 * a - x]))
            for x in pts
            if a < x < a + window[0] and pts[0] <= 2 * a - x and ambient.contains(2 * a - x)
        ]
        if not mirrors:
            continue
        m_big = max(o for _, o in mirrors)
        m_small = max((o for h, o in mirrors if h < window[1]), default=None)
        if m_small == m_big and m_big > 0:
            flat.append((a, m_big))
    return flat


def _brute_wrt(ambient, pts, vals, anchors, max_pairs):
    """Mirror entries (h, osc, x, y) around each anchor found by contains, the
    mirrors checked and whether the pair budget ran out."""
    val_of = dict(zip(pts, vals))
    entries, checked = [], 0
    for b in anchors:
        for x in (p for p in pts if p > b):
            y = 2 * b - x
            if y < pts[0]:
                break
            checked += 1
            if checked > max_pairs:
                return entries, checked, True
            if ambient.contains(y):
                entries.append((x - b, abs(val_of[x] - val_of[y]), x, y))
    return sorted(entries), checked, False


@contextlib.contextmanager
def _exact_only():
    """Route every lift to the exact keys, as for a listing whose L passes
    LIFT_BITS_MAX bits."""
    with mock.patch.object(analysis, "_lift_rationals", return_value=None):
        with mock.patch.object(analysis, "_embed", return_value=None):
            yield


def _sign(x) -> int:
    return (x > 0) - (x < 0)


def _assert_signs_kept(xs, keys, deltas=(), thr=()):
    """Every difference of keys, alone and less each threshold key, has the
    sign of the difference of the numbers (less the delta)."""
    for x, kx in zip(xs, keys):
        for y, ky in zip(xs, keys):
            assert _sign(ky - kx) == (y - x).sign(), (x, y)
            for d, t in zip(deltas, thr):
                assert _sign(ky - kx - t) == (y - x - d).sign(), (x, y, d)


def _check_embedded_against_exact(pts, vals, schedule, centers, formula):
    """On points and values with mixed sqrt2 parts every key is an integer
    that keeps the signs the scans read, and the family verdicts, the uc
    rows, the survey and its sup rows equal those on exact keys. f takes
    formula(v) on each point."""
    fk = analysis._family_keys(pts, vals, schedule)
    assert all(type(k) is int for k in [*fk.keys, *fk.vkeys, *fk.thr])
    _assert_signs_kept(pts, fk.keys, schedule, fk.thr)
    _assert_signs_kept(vals, fk.vkeys)
    # the survey's keys: the points and the key of 2*delta per delta
    widths = [2 * d for d in schedule]
    keys, cuts = analysis._keys(pts, widths)
    _assert_signs_kept(pts, keys, widths, cuts)
    survey = _pairs_from_points(pts, vals, centers, schedule, 10**6)
    assert all(type(k) is int for e in survey.entries for k in e[:2])
    ambient, anchors = FinitePoints(tuple(pts)), FinitePoints(tuple(pts[:1]))
    f = Piecewise(tuple(FuncPiece(FinitePoints.of(p), formula(v)) for p, v in zip(pts, vals)))
    config = AnalysisConfig(delta_schedule=schedule)
    verdicts = _family_verdicts(ambient, f, anchors, config)
    with _exact_only():
        exact_fk = analysis._family_keys(pts, vals, schedule)
        exact = _pairs_from_points(pts, vals, centers, schedule, 10**6)
        exact_verdicts = _family_verdicts(ambient, f, anchors, config)
    assert isinstance(exact_fk.keys[0], QuadExt)
    assert _uc_rows(fk, False) == _uc_rows(exact_fk, False)
    got = (_survey_view(survey), _survey_rows(survey, vals, schedule))
    assert got == (_survey_view(exact), _survey_rows(exact, vals, schedule))
    assert verdicts == exact_verdicts


def _sqrt2_convergents(q_max):
    """The convergents p/q of sqrt2 with q <= q_max: 1, 3/2, 7/5, 17/12, ..."""
    out, p, q = [], 1, 1
    while q <= q_max:
        out.append(Fraction(p, q))
        p, q = p + 2 * q, p + q
    return out


def _ex28(max_denominator):
    """ex-2.8: Q in [0, 2] with sqrt2 adjoined, f = 1 on the rationals and
    sqrt2 at sqrt2."""
    ambient = TruncatedRationals(max_denominator, qx(0), qx(2), adjoin_sqrt2=True)
    rationals = TruncatedRationals(max_denominator, qx(0), qx(2), adjoin_sqrt2=False)
    f = Piecewise(
        (FuncPiece(rationals, Const(qx(1))), FuncPiece(FinitePoints.of(SQRT2), Const(SQRT2)))
    )
    return ambient, f


def _survey_view(survey):
    """What a survey found, the same on every kind of key: its candidate
    count, whether the budget cut it and the positions (j, i) of its pairs
    in order."""
    return survey.candidates_checked, survey.truncated, _pair_positions(survey)


def _pair_positions(survey):
    """The positions (j, i) of a survey's pairs, in the order of its entries."""
    return [(j, i) for *_, j, i in survey.entries]


def _survey_rows(survey, vals, schedule):
    """The sup rows of a survey's entries, as modulus_profile reads them."""
    lift = (survey.cuts, survey.points, vals)
    return _sup_rows(survey.entries, schedule, survey.truncated, lift)


def _brute_survey(pts, member, schedule, max_pairs):
    """_survey_view by brute force: the candidates below the width cap, x
    ascending and y descending from its neighbour, the first max_pairs of
    them tested by member.contains on their exact midpoint, the pairs
    found in sort_key order."""
    cands = [
        (j, i)
        for j in range(len(pts))
        for i in range(j - 1, -1, -1)
        if not schedule or pts[j] - pts[i] < 2 * schedule[0]
    ]
    found = [(j, i) for j, i in cands[:max_pairs] if member.contains((pts[j] + pts[i]) / 2)]
    found.sort(key=lambda p: SymmetricPair(pts[p[0]], pts[p[1]]).sort_key())
    return min(len(cands), max_pairs + 1), len(cands) > max_pairs, found


def _check_survey(pts, vals, centers, schedule, max_pairs):
    """The survey on integer keys against the one on exact keys and the
    brute force over every candidate's exact midpoint, and its sup rows
    against those of the exact entries (h, osc, j, i) of its pairs."""
    got = _pairs_from_points(pts, vals, centers, schedule, max_pairs)
    with _exact_only():
        exact = _pairs_from_points(pts, vals, centers, schedule, max_pairs)
    assert all(isinstance(k, QuadExt) for e in exact.entries for k in e[:2])
    member = FinitePoints(tuple(pts)) if centers is None else centers
    want = _brute_survey(pts, member, schedule, max_pairs)
    assert _survey_view(got) == _survey_view(exact) == want
    index = _pair_positions(got)
    assert [(p.x, p.y) for p in got.pairs] == [(pts[j], pts[i]) for j, i in index]
    plain = [((pts[j] - pts[i]) / 2, abs(vals[j] - vals[i]), j, i) for j, i in index]
    rows = _survey_rows(got, vals, schedule)
    plain_rows = _sup_rows(plain, schedule, got.truncated, (schedule, pts, vals))
    assert rows == _survey_rows(exact, vals, schedule) == plain_rows
    return got


_H, _R2 = Fraction(1, 2), SQRT2
# (points, pieces (lo, hi, lo_closed, hi_closed)) for the convex-run survey
_UNION_RUN_CASES = {
    # a shared end held by one side makes one run: (1/2, 3/2) has midpoint 1
    "touch_held_left": ([0, _H, 1, 3 * _H, 2], [(0, 1), (1, 2, False, True)]),
    "touch_held_right": ([0, _H, 1, 3 * _H, 2], [(0, 1, True, False), (1, 2)]),
    # with both sides open the shared end is a hole
    "touch_hole": (
        [Fraction(1, 4), _H, 3 * _H, Fraction(7, 4)],
        [(0, 1, False, False), (1, 2, False, False)],
    ),
    # a degenerate piece fills the hole, and the three make one run
    "chain_through_point": (
        [Fraction(1, 4), _H, 1, 3 * _H, Fraction(7, 4)],
        [(0, 1, False, False), (1, 1), (1, 2, False, False)],
    ),
    # points before, between and after the pieces, two of them in one gap
    "outside": (
        [-1, -_H, _H, 3 * _H, 2, 5 * _H, 7 * _H, 9 * _H, 5],
        [(0, 1), (3, 4)],
    ),
    # pairs across runs whose midpoint is in the middle piece or in a gap
    "three_pieces": (
        [0, _H, 1, 5 * _H, 7 * _H, 4, 9 * _H, 5],
        [(0, 1), (2, 3, False, True), (4, 5)],
    ),
    "three_pieces_sqrt2": (
        [x + _R2 for x in (0, _H, 1, 5 * _H, 7 * _H, 4, 9 * _H, 5)],
        [(lo + _R2, hi + _R2, *c) for lo, hi, *c in [(0, 1), (2, 3, False, True), (4, 5)]],
    ),
    # rational points, ends with a sqrt2 part
    "mixed_ends": (
        [0, Fraction(1, 4), _H, 1, 3 * _H, 2, 5 * _H],
        [(0, _R2 / 2), (_R2 / 2, 1, False, False), (1 + _R2 / 2, 2 * _R2)],
    ),
    # points with different sqrt2 parts: embedded keys, exact midpoints
    "mixed_points": (
        [0, _R2 / 4, _H, _R2 / 2, 1, 1 + _R2 / 4, 2, 1 + _R2],
        [(0, 1, True, False), (1, 2, False, True), (_R2 + 1, _R2 + 2)],
    ),
}


class TestIntegerPaths:
    @settings(max_examples=200, deadline=None)
    @given(survey_cases())
    def test_survey_lifted_matches_exact(self, case):
        _check_survey(*case)

    @settings(max_examples=200, deadline=None)
    @given(union_center_cases(), st.data())
    def test_union_membership_and_sup_rows_match_exact(self, case, data):
        """_check_survey on interval unions of centers, with deltas at
        surveyed half-widths; points sharing one sqrt2 part take integer
        keys and integer midpoint ranges."""
        pts, vals, centers, max_pairs = case
        widths = [x - y for k, y in enumerate(pts) for x in pts[k + 1 :]]
        pick = st.integers(0, len(widths) - 1)
        # surveyed half-widths (h < delta is strict there), just above them,
        # and unrelated rational and sqrt2 scales; the largest delta, which
        # caps the widths, is at a surveyed half-width half the time
        deltas = {qx(Fraction(1, 3)), SQRT2 / 7, qx(9)}
        for k in data.draw(st.lists(pick, min_size=1, max_size=3)):
            deltas.update((widths[k] / 2, widths[k] / 2 + SQRT2 / 10**6))
        if data.draw(st.booleans()):
            top = widths[data.draw(pick)] / 2
            deltas = {d for d in deltas if d < top} | {top}
        schedule = tuple(sorted(deltas, reverse=True))
        got = _check_survey(pts, vals, centers, schedule, max_pairs)
        assert all(type(k) is int for e in got.entries for k in e[:2])

    @pytest.mark.parametrize("max_pairs", [10**6, 4, 7])
    @pytest.mark.parametrize("schedule", [(), (qx(Fraction(3, 2)), qx(Fraction(1, 4)))])
    @pytest.mark.parametrize("case", sorted(_UNION_RUN_CASES))
    def test_union_runs_match_brute_force(self, case, schedule, max_pairs):
        """Hand-made unions for the convex runs: touching pieces, points
        outside every piece, midpoints of pairs across runs in a third
        piece or in a gap, sqrt2-shifted and mixed-sqrt2 ends and points.
        Without a width cap, budgets 4 and 7 end inside the rows of x = the
        fourth and the fifth point."""
        pts, pieces = _UNION_RUN_CASES[case]
        pts = sorted(exactnum.as_quadext(p) for p in pts)
        vals = [qx(Fraction(k * k % 5, 2)) for k in range(len(pts))]
        centers = IntervalUnion(tuple(IntervalPiece(*p) for p in pieces))
        _check_survey(pts, vals, centers, schedule, max_pairs)

    @settings(max_examples=150, deadline=None)
    @given(mixed_sqrt2_cases())
    def test_mixed_sqrt2_keys_match_exact(self, case):
        _check_embedded_against_exact(*case)

    def test_pell_battery(self):
        """Pell near-ties. Each convergent p/q of sqrt2 with q up to 10**6
        next to sqrt2, with a delta at their distance: p/q - sqrt2 is about
        1/q**2, while its key's coefficients are about q. And the pair
        (0, 1/2) against the thresholds 1/2 -+ u with u = (sqrt2 - 1)**j: the
        distance less the threshold is +-u, a unit whose coefficients grow
        as (1 + sqrt2)**j although the points' stay below 2, so only a key
        size bound that counts the thresholds keeps its sign (floor(sqrt2*2**P)
        errs to the side of u for odd j)."""
        for c in _sqrt2_convergents(10**6):
            pts = sorted({qx(0), qx(c), SQRT2, qx(2)})
            schedule = (qx(1), qx(Fraction(1, 2)), abs(SQRT2 - qx(c)))
            ex28 = [SQRT2 if p == SQRT2 else qx(1) for p in pts]
            _check_embedded_against_exact(pts, ex28, schedule, None, Const)
            _check_embedded_against_exact(pts, pts, schedule, None, lambda v: Affine(0, v))
        half, unit = qx(Fraction(1, 2)), SQRT2 - 1
        pts = [qx(0), half, SQRT2]
        u = qx(1)
        for _ in range(16):
            u = u * unit
            schedule = (qx(1), half + u, half - u)
            _check_embedded_against_exact(pts, [qx(1), qx(1), SQRT2], schedule, None, Const)
            _check_embedded_against_exact(pts, pts, schedule, None, lambda v: Affine(0, v))

    def test_ex28_listing_takes_integer_keys(self):
        """ex-2.8 mixes the rationals of [0, 2] with sqrt2; its family keys,
        value keys and thresholds are integers of the embedding."""
        ambient, f = _ex28(40)
        config = AnalysisConfig()
        pts = ambient.enumerate(config.enum_limit).points
        vals = [evaluate(f, p) for p in pts]
        fk = analysis._family_keys(pts, vals, config.delta_schedule)
        assert SQRT2 in pts and len(pts) > 900
        assert all(type(k) is int for k in [*fk.keys, *fk.vkeys, *fk.thr])

    def test_ex28_usc_profile_calls_no_ambient_contains(self, monkeypatch):
        """The ex-2.8 survey answers every candidate midpoint from the
        listing: 10**4 candidates, no contains call on the ambient set."""
        ambient, f = _ex28(40)
        calls = Counter()
        original = TruncatedRationals.contains

        def counted(self, x):
            calls[self is ambient] += 1
            return original(self, x)

        monkeypatch.setattr(TruncatedRationals, "contains", counted)
        prof = modulus_profile(ambient, f, AnalysisConfig(max_pairs=10**4), "usc")
        assert prof.truncated and prof.rows[0][1].challenges > 0
        assert calls[True] == 0

    def test_ex28_classify_values_its_listing_in_one_batch(self, monkeypatch):
        """Classifying ex-2.8 values its listing by _evaluate_many: inside the
        family pipeline no TruncatedRationals.contains and no evaluate call
        is made."""
        ambient, f = _ex28(40)
        calls = Counter()
        inside = []

        def counted(name, original):
            def run(*args):
                calls[name, bool(inside)] += 1
                return original(*args)

            return run

        family = analysis._family_classify

        def family_pipeline(*args):
            inside.append(True)
            try:
                return family(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(
            TruncatedRationals, "contains", counted("contains", TruncatedRationals.contains)
        )
        for module in (analysis, functions):
            monkeypatch.setattr(module, "evaluate", counted("evaluate", functions.evaluate))
        monkeypatch.setattr(
            analysis, "_family_classify", counted("family", family_pipeline)
        )
        verdicts = classify(ambient, f, AnalysisConfig())
        assert calls["family", False] == 1
        assert calls["contains", True] == calls["evaluate", True] == 0
        assert verdicts["C"].status == "refuted"

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_uc_rows_match_exact_window_scan(self, data):
        pts = data.draw(exact_sets(min_size=1))
        vals = data.draw(exact_sets(len(pts), len(pts), distinct=False))
        widths = [x - y for k, y in enumerate(pts) for x in pts[k + 1 :]]
        deltas = {qx(Fraction(1, 3)), SQRT2 / 5, qx(8)}
        if widths:
            deltas.update(data.draw(st.lists(st.sampled_from(widths), max_size=4)))
            # the smallest width, at which no row has a pair, and deltas
            # just below and just above it
            gap = min(widths)
            eps = data.draw(st.sampled_from((qx(Fraction(1, 10**9)), SQRT2 / 10**9, gap / 10**6)))
            deltas.update((gap, gap + eps, gap - eps if gap > eps else gap / 2))
        schedule = tuple(sorted(deltas, reverse=True))
        rows = _uc_rows(analysis._family_keys(pts, vals, schedule), False)
        with _exact_only():
            assert _uc_rows(analysis._family_keys(pts, vals, schedule), False) == rows
        for delta, res in rows:
            best, idx, count = _window_scan_exact(pts, vals, delta)
            wit = None if idx is None else _ordered(pts[idx[0]], pts[idx[1]])
            assert (res.value, res.witness, res.challenges) == (best, wit, count)

    def test_uc_rows_scan_only_above_smallest_gap(self, monkeypatch):
        """On a listing with the default schedule, a delta whose key is at
        or below the smallest gap between listed keys gets its empty row
        without a window scan."""
        pts = NaturalReciprocals(60).enumerate(AnalysisConfig().enum_limit).points
        vals = [evaluate(Identity(), p) for p in pts]
        fk = analysis._family_keys(pts, vals, AnalysisConfig().delta_schedule)
        gap = min(b - a for a, b in itertools.pairwise(fk.keys))
        scanned = []
        scan = analysis._window_scan_int

        def counted(keys, vkeys, thr):
            scanned.append(thr)
            return scan(keys, vkeys, thr)

        monkeypatch.setattr(analysis, "_window_scan_int", counted)
        rows = _uc_rows(fk, False)
        assert scanned == [t for t in fk.thr if t > gap]
        assert 0 < len(scanned) < len(fk.thr)
        for (_, res), t in zip(rows, fk.thr):
            assert (res.challenges > 0) == (t > gap)

    @settings(max_examples=150, deadline=None)
    @given(family_cases())
    def test_const_groups_key_each_value_once(self, case):
        """The value groups of a piecewise-constant f, formed on its Const
        objects, are those formed on the values, and keying one value per
        group gives every position the key _keys gives it among all values,
        on integer and on exact keys."""
        ambient, f, _, config = case
        pts = ambient.enumerate(config.enum_limit).points
        vals = functions._evaluate_many(f, pts)
        groups = analysis._const_groups(f, vals)
        if not is_piecewise_constant(f):
            assert groups is None
            return
        assert groups == list(analysis._positions(vals).values())
        for ctx in (contextlib.nullcontext(), _exact_only()):
            with ctx:
                want = analysis._family_keys(pts, vals, config.delta_schedule)
                got = analysis._family_keys(pts, vals, config.delta_schedule, groups)
            assert got.vkeys == list(want.vkeys)
            assert [type(k) for k in got.vkeys] == [type(k) for k in want.vkeys]

    def test_ex28_keys_two_values(self, monkeypatch):
        """ex-2.8 lists 982 points and f takes two values there, so the
        family pipeline and a uc profile key the points and then two values."""
        ambient, f = _ex28(40)
        n = len(ambient.enumerate(AnalysisConfig().enum_limit).points)
        keyed = []
        keys = analysis._keys

        def counted(xs, deltas=()):
            keyed.append(len(xs))
            return keys(xs, deltas)

        monkeypatch.setattr(analysis, "_keys", counted)
        classify(ambient, f, AnalysisConfig())
        assert keyed == [n, 2]
        keyed.clear()
        modulus_profile(ambient, f, AnalysisConfig(), "uc")
        assert keyed == [n, 2]

    @settings(max_examples=300, deadline=None)
    @given(family_cases())
    # a distance just below an irrational delta: ceil, not floor, of L*delta
    @example(_family_example((0, _8TH, _HALF), (0, 1, 2), (1, _HALF + SQRT2 / 10**6)))
    # a gap equal to a delta, which is then not effective
    @example(_family_example((0, _8TH, _HALF), (0, 2, 1), (1, _HALF, _8TH)))
    # a left gap below the right one
    @example(_family_example((0, _8TH, 1), (2, 0, 1), (2, _HALF)))
    # a point at exactly the largest delta, which the scan must not reach
    @example(_family_example((0, _8TH, 1), (0, 1, 2), (1, _HALF)))
    # SC: a mirror pair around 1 at exactly the largest delta, which the
    # scan must not reach, would hide the flat unit jump of the pair at 1/8
    @example(
        _family_example((0, 7 * _8TH, 1, 9 * _8TH, 2), (0, 0, 0, 1, 2), (1, _HALF, _HALF / 2))
    )
    # pairs of one value closer than any pair of two values: UC on this
    # piecewise-constant f reads only the rows with a positive sup
    @example(
        _family_example((0, _8TH, 1, 1 + _8TH), (0, 0, 1, 1), (4, 2, _HALF / 2), Const)
    )
    # USC: mirror pairs around 1/4 and 1/2 whose oscillation decays, then one
    # that stays flat, then only zero oscillations
    @example(_family_example((0, _8TH, _8TH * 2, _HALF, 1), (0, 1, 2, 4, 8), (2, _HALF, _8TH)))
    @example(_family_example((0, _8TH * 2, _HALF, 1), (0, 1, 0, 1), (2, _HALF, _8TH)))
    @example(_family_example((0, _8TH * 2, _HALF, 1), (3, 3, 3, 3), (2, _HALF, _8TH)))
    def test_family_scans_match_exact_and_brute_force(self, case):
        ambient, f, subset, config = case
        got = _family_verdicts(*case)
        with _exact_only():
            assert got == _family_verdicts(*case)
        c, uc, sc, wrt, usc = got
        schedule = config.delta_schedule
        en = ambient.enumerate(config.enum_limit)
        pts, n = list(en.points), len(en.points)
        vals = [evaluate(f, p) for p in pts]

        if not is_piecewise_constant(f) and n * n > config.max_pairs:
            assert c["status"] == "no_violation"
        else:
            flat, rows = _brute_c(pts, vals, schedule)
            assert c["status"] == ("refuted" if flat else "no_violation")
            if flat:
                jump = max(j for _, j in flat)
                anchor = min(a for a, j in flat if j == jump)
                assert c["witness"] == {
                    "kind": "anchor",
                    "anchor": format_quadext(anchor),
                    "jump": format_quadext(jump),
                    "flat_anchor_count": len(flat),
                    "profile": rows,
                }

        if c["status"] != "refuted":
            pairs = [
                (x - y, abs(vals[j] - vals[i]))
                for i, y in enumerate(pts)
                for j, x in enumerate(pts[i + 1 :], i + 1)
            ]
            rows = _brute_rows(pairs, schedule)
            # for a piecewise-constant f only the rows with a pair of two
            # values (a positive sup) are scales at which a jump can show
            shown = [
                r
                for r in rows
                if r["challenges"] and not (is_piecewise_constant(f) and r["omega"] == "0")
            ]
            flat = len(shown) >= 2 and shown[0]["omega"] == shown[-1]["omega"] != "0"
            assert (uc["status"] == "refuted") == flat
            if flat:
                assert uc["witness"]["osc"] == shown[-1]["omega"]
                assert uc["witness"]["profile"] == rows

        if n * (n - 1) // 2 <= config.max_pairs:
            flat = _brute_sc(ambient, pts, vals, schedule)
            assert sc["status"] == ("refuted" if flat else "no_violation")
            if flat:
                jump = max(j for _, j in flat)
                assert sc["witness"]["anchor"] == format_quadext(
                    min(a for a, j in flat if j == jump)
                )
                assert sc["witness"]["flat_anchor_count"] == len(flat)

        # USC: every listed pair whose midpoint the ambient set contains
        sym = sorted(
            ((x - y) / 2, abs(vals[j] - vals[i]), x, y)
            for i, y in enumerate(pts)
            for j, x in enumerate(pts[i + 1 :], i + 1)
            if ambient.contains((x + y) / 2)
        )
        all_pairs = n * (n - 1) // 2
        cross_total = sum(vals[i] != vals[j] for i in range(n) for j in range(i))
        if not en.truncated and 0 < all_pairs <= config.max_pairs and not sym:
            assert (usc["status"], usc["method"]) == ("proven", "midpoint_free")
            assert usc["certificate"]["pairs_checked"] == all_pairs
        elif is_piecewise_constant(f) and cross_total > config.max_pairs:
            assert usc["status"] == "no_violation"
            assert usc["notes"] == ["cross-region pair count exceeds the pair budget"]
        elif not is_piecewise_constant(f) and (
            en.truncated or not 0 < all_pairs <= config.max_pairs
        ):
            # no complete mirror walk within the pair budget
            assert usc["status"] == "no_violation"
        else:
            if is_piecewise_constant(f):
                # pairs of one value oscillate by zero and are not listed
                sym = [e for e in sym if e[1] != 0]
            rows = _brute_rows(sym, schedule)
            effective = [r for r in rows if r["challenges"]]
            if len(effective) >= 2 and effective[0]["omega"] == effective[-1]["omega"] != "0":
                assert usc["status"] == "refuted"
                assert usc["witness"]["profile"] == rows
                sup = parse_quadext(effective[-1]["omega"])
                bottom = parse_quadext(effective[-1]["delta"])
                x, y = next((x, y) for h, o, x, y in sym if h < bottom and o == sup)
                assert (usc["witness"]["x"], usc["witness"]["y"]) == (
                    format_quadext(x),
                    format_quadext(y),
                )
            elif not en.truncated and all(o == 0 for _, o, *_ in sym):
                assert (usc["status"], usc["method"]) == ("proven", "exhaustive_enumeration")
            else:
                assert usc["status"] == "no_violation"

        if subset == ambient:
            return
        b_en = subset.enumerate(config.enum_limit)
        entries, checked, over = _brute_wrt(ambient, pts, vals, b_en.points, config.max_pairs)
        truncated = en.truncated or b_en.truncated or over
        assert wrt["resolution"]["pairs_checked"] == checked
        rows = _brute_rows(entries, schedule)
        effective = [r for r in rows if r["challenges"]]
        if len(effective) >= 2 and effective[0]["omega"] == effective[-1]["omega"] != "0":
            assert wrt["status"] == "refuted"
            assert wrt["witness"]["profile"] == rows
            sup = parse_quadext(effective[-1]["omega"])
            bottom = parse_quadext(effective[-1]["delta"])
            x, y = next((x, y) for h, o, x, y in entries if h < bottom and o == sup)
            assert (wrt["witness"]["x"], wrt["witness"]["y"]) == (
                format_quadext(x),
                format_quadext(y),
            )
        elif not truncated and not entries:
            assert (wrt["status"], wrt["method"]) == ("proven", "midpoint_free")
        elif not truncated and all(o == 0 for _, o, *_ in entries):
            assert (wrt["status"], wrt["method"]) == ("proven", "exhaustive_enumeration")
        else:
            assert wrt["status"] == "no_violation"

    def test_family_mirror_scans_call_no_contains(self, monkeypatch):
        """On lifted points the mirror walks look mirrors up among the listed
        points: _sc_family calls no contains, and check_wrt_subset calls it
        only to check that each anchor lies in the ambient set."""
        calls = Counter()
        for cls in (FinitePoints, NaturalReciprocals, UnionOf):
            original = cls.contains

            def counted(self, x, _orig=original):
                calls[type(self).__name__] += 1
                return _orig(self, x)

            monkeypatch.setattr(cls, "contains", counted)
        shifted = FinitePoints(tuple(SQRT2 + qx(Fraction(k, 8)) for k in range(-12, 13)))
        for ambient in (NaturalReciprocals(40), shifted):
            pts = ambient.enumerate(100).points
            vals = [evaluate(Affine(2, 1), p) for p in pts]
            calls.clear()
            _sc(pts, vals, FAST, False)
            assert calls == Counter()
            anchors = FinitePoints(pts[3:9])
            w = check_wrt_subset(ambient, Affine(2, 1), anchors, FAST)
            assert w.resolution["pairs_checked"] > 0
            assert sum(calls.values()) == len(anchors.points)

    @staticmethod
    def sorted_set_grid(piece, exponent):
        """The grid as first built: every point by exact arithmetic, then
        sorted and deduplicated."""
        if piece.is_degenerate:
            return [piece.lo]
        n = 2**exponent
        step = piece.length / n
        pts = [piece.lo + step * i for i in range(n + 1)]
        if not piece.lo_closed:
            pts = pts[1:] + [piece.lo + piece.length / 2**m for m in range(1, 11)]
        if not piece.hi_closed:
            pts = [p for p in pts if p != piece.hi]
            pts += [piece.hi - piece.length / 2**m for m in range(1, 11)]
        return sorted(set(pts))

    @settings(max_examples=4, deadline=None)
    @given(
        lo=_RATS,
        lo_irr=st.sampled_from(_IRRS),
        length=st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=12),
        length_irr=st.sampled_from((Fraction(0), Fraction(1, 2))),
    )
    def test_grid_matches_sorted_set_construction(self, lo, lo_irr, length, length_irr):
        lo = QuadExt(lo, lo_irr)
        hi = lo + QuadExt(length, length_irr)
        for e in range(1, 13):
            for lo_closed in (True, False):
                for hi_closed in (True, False):
                    piece = IntervalPiece(lo, hi, lo_closed, hi_closed)
                    grid = piece.grid(e)
                    assert grid == self.sorted_set_grid(piece, e), (piece, e)

    def test_grid_run_is_the_equispaced_run(self):
        """The middle part of grid_indices, the grid run, holds the k that
        step by n/2**e; every k outside it is an open-end approach point."""
        assert IntervalPiece(qx(1), qx(1)).grid_indices(5) == (((), range(1), ()), 1)
        for e in range(0, 13):
            for lo_closed in (True, False):
                for hi_closed in (True, False):
                    piece = IntervalPiece(qx(0), qx(1), lo_closed, hi_closed)
                    (low, run, high), n = piece.grid_indices(e)
                    ks = [*low, *run, *high]
                    g = n >> e
                    assert list(run) == [k for k in ks if k % g == 0], (e, lo_closed, hi_closed)
                    assert all(k % g for k in [*low, *high])


def _whole_listing_profile(ambient, f, config, centers=None):
    """The usc profile surveyed over every listed point and value, with the
    sup rows rebuilt from the whole listing: the oracle of the prefix
    survey of modulus_profile."""
    en = ambient.enumerate(config.enum_limit)
    pts, schedule = en.points, config.delta_schedule
    vals = functions._evaluate_many(f, pts)
    survey = _pairs_from_points(pts, vals, centers, schedule, config.max_pairs, en.truncated)
    rows = _sup_rows(survey.entries, schedule, survey.truncated, (survey.cuts, pts, vals))
    return analysis.ModulusProfile("usc", rows, len(pts), False, survey.truncated)


def _count_probe_work(monkeypatch):
    """Record, inside analysis, the points of every survey and the numbers
    of every batch of values and of keys."""
    seen = {"surveyed": [], "valued": [], "keyed": []}
    survey, values, keys = analysis._pairs_from_points, analysis._evaluate_many, analysis._keys

    def counted_survey(pts, *args):
        seen["surveyed"].append(len(pts))
        return survey(pts, *args)

    def counted_values(f, xs):
        seen["valued"].append(len(xs))
        return values(f, xs)

    def counted_keys(xs, deltas=()):
        seen["keyed"].append(len(xs))
        return keys(xs, deltas)

    monkeypatch.setattr(analysis, "_pairs_from_points", counted_survey)
    monkeypatch.setattr(analysis, "_evaluate_many", counted_values)
    monkeypatch.setattr(analysis, "_keys", counted_keys)
    return seen


_PREFIX_LISTINGS = {
    "finite": FinitePoints(
        tuple(
            sorted({qx(Fraction(k, 7)) for k in range(-40, 41)} | {SQRT2 / k for k in range(1, 12)})
        )
    ),
    "integers": IntegerWindow(-60, 60),
    "odd_primes": OddPrimeReciprocals(400),
    "naturals": NaturalReciprocals(150),
    "rationals_sqrt2": TruncatedRationals(12, qx(0), qx(2), adjoin_sqrt2=True),
    "union": UnionOf(
        (
            IntegerWindow(-5, 5),
            NaturalReciprocals(40),
            FinitePoints.of(SQRT2, SQRT2 / 2, 3 - SQRT2),
        )
    ),
}


def _prefix_centers(pts):
    """An interval union over the listing: two pieces meeting at a listed
    point that neither holds, and a piece with sqrt2 ends."""
    n = len(pts)
    a, b, c = pts[n // 8], pts[n // 3], pts[n // 2]
    return IntervalUnion(
        (
            IntervalPiece(a, b, True, False),
            IntervalPiece(b, c, False, True),
            IntervalPiece(c + SQRT2 / 64, c + SQRT2 / 16),
        )
    )


class TestPrefixSurvey:
    """A usc profile on a listing values and keys only the prefix its survey
    reaches; it must equal the profile surveyed over the whole listing."""

    @pytest.mark.parametrize("name", sorted(_PREFIX_LISTINGS))
    def test_matches_whole_listing_survey(self, monkeypatch, name):
        ambient = _PREFIX_LISTINGS[name]
        pts = ambient.enumerate(FAST.enum_limit).points
        n = len(pts)
        # 0, 1, one below, at and above m(m - 1)/2 for m = 5 and 12, past n**2
        budgets = [0, 1, *(t + d for t in (10, 66) for d in (-1, 0, 1)), 10**9]
        # width caps 2, 1/16 and 2**-19, the last below every gap of most listings
        schedules = (
            FAST.delta_schedule,
            (qx(Fraction(1, 32)), qx(Fraction(1, 256))),
            (qx(Fraction(1, 2**20)),),
        )
        seen = _count_probe_work(monkeypatch)
        rounds = []
        for f, centers, schedule, max_pairs in itertools.product(
            (Identity(), Affine(SQRT2, 1)), (None, _prefix_centers(pts)), schedules, budgets
        ):
            config = replace(FAST, delta_schedule=schedule, max_pairs=max_pairs)
            seen["surveyed"].clear()
            got = modulus_profile(ambient, f, config, "usc", centers=centers)
            assert got == _whole_listing_profile(ambient, f, config, centers), (f, centers, config)
            assert got.points == n
            rounds.append(list(seen["surveyed"]))
        # some survey cut a prefix short of the listing, some prefix did not
        # cut and the whole listing was surveyed, and none took three rounds
        assert any(r == [r[0]] and r[0] < n for r in rounds)
        assert any(len(r) == 2 and r[0] < r[1] == n for r in rounds)
        assert max(map(len, rounds)) <= 2

    def test_ex28_values_only_the_surveyed_prefix(self, monkeypatch):
        """ex-2.8 at max_pairs 800: 41 points hold more than 800 candidates
        and the survey cuts inside them, so 41 of the 982 listed points are
        valued and keyed, and the profile still counts 982."""
        ambient, f = _ex28(40)
        config = AnalysisConfig(max_pairs=800)
        seen = _count_probe_work(monkeypatch)
        prof = modulus_profile(ambient, f, config, "usc")
        assert prof.points == 982 and prof.truncated
        assert seen["surveyed"] == [41]
        assert sum(seen["valued"]) <= 64 and max(seen["keyed"]) <= 64
        assert prof == _whole_listing_profile(ambient, f, config)

    def test_listing_without_candidates_grows_to_the_whole_listing(self, monkeypatch):
        """Every gap of the integers is at least the width cap 2*delta = 1,
        so the first prefix does not cut: the whole listing is surveyed in
        a second round and each point is valued once."""
        ambient = IntegerWindow(0, 500)
        config = AnalysisConfig(delta_schedule=(qx(Fraction(1, 2)),), max_pairs=0)
        seen = _count_probe_work(monkeypatch)
        prof = modulus_profile(ambient, Identity(), config, "usc")
        assert seen["surveyed"] == [2, 501]
        assert seen["valued"] == [2, 499]
        assert prof.points == 501 and not prof.truncated
        assert prof.rows[0][1].challenges == 0
        assert prof == _whole_listing_profile(ambient, Identity(), config)

    def test_f_is_not_valued_past_the_surveyed_prefix(self):
        """1/x fails only at 0, the last of the 101 listed integers. At
        max_pairs 100 every pair is a candidate and the survey cuts inside
        the first 15 points, so the usc profile and sym_oscillation value f
        on those alone and raise nothing; at the default max_pairs the
        prefix holds the whole listing and 0 raises, as it does for the uc
        profile at any max_pairs."""
        ambient, f, delta = IntegerWindow(-100, 0), Reciprocal(), qx(1000)
        cut = AnalysisConfig(delta_schedule=(delta,), max_pairs=100)
        prof = modulus_profile(ambient, f, cut, "usc")
        assert prof.points == 101 and prof.truncated
        assert prof.rows[0][1] == sym_oscillation(ambient, f, delta, cut)
        assert max(prof.rows[0][1].witness) <= -86
        with pytest.raises(DomainError):
            modulus_profile(ambient, f, replace(cut, max_pairs=10**6), "usc")
        with pytest.raises(DomainError):
            modulus_profile(ambient, f, cut, "uc")


def _pointwise_uc_rows(ambient, f, config):
    """uc rows on the points of every piece's grid, each valued by evaluate
    and lifted as a listing is."""
    pieces = analysis._analytic_pieces(ambient)
    pts = tuple(x for piece in pieces for x in piece.grid(config.grid_exponent))
    vals = [evaluate(f, p) for p in pts]
    return _uc_rows(analysis._family_keys(pts, vals, config.delta_schedule), False)


class TestTileValues:
    CONFIG = AnalysisConfig(
        delta_schedule=(qx(1), qx(Fraction(1, 4)), qx(Fraction(1, 32))), grid_exponent=5
    )
    UNIT = IntervalUnion((IntervalPiece(qx(0), qx(1)),))

    def spike(self):
        """5 at x = 1/2 by first match, the identity elsewhere on [0, 1]."""
        return Piecewise(
            (
                FuncPiece(FinitePoints.of(qx(Fraction(1, 2))), Const(5)),
                FuncPiece(self.UNIT, Identity()),
            )
        )

    def test_finite_points_region_wins_first_match(self):
        prof = modulus_profile(self.UNIT, self.spike(), self.CONFIG, "uc")
        assert prof.rows == _pointwise_uc_rows(self.UNIT, self.spike(), self.CONFIG)
        assert prof.rows[0][1].value == qx(5)

    def test_combined_spec(self):
        f = Combined("add", (Identity(), self.spike()))
        prof = modulus_profile(self.UNIT, f, self.CONFIG, "uc")
        assert prof.rows == _pointwise_uc_rows(self.UNIT, f, self.CONFIG)
        assert prof.rows[0][1].value == qx(Fraction(11, 2))

    def test_foreign_piece_region(self):
        half = IntervalUnion((IntervalPiece(qx(0), qx(Fraction(1, 2))),))
        f = Piecewise((FuncPiece(half, Const(3)), FuncPiece(self.UNIT, Identity())))
        prof = modulus_profile(self.UNIT, f, self.CONFIG, "uc")
        assert prof.rows == _pointwise_uc_rows(self.UNIT, f, self.CONFIG)

    def test_piece_listed_twice_takes_first_region(self):
        right = IntervalPiece(qx(2), qx(3))
        ambient = IntervalUnion((IntervalPiece(qx(0), qx(1)), right))
        f = Piecewise(
            (FuncPiece(IntervalUnion((right,)), Const(7)), FuncPiece(ambient, Identity()))
        )
        prof = modulus_profile(ambient, f, self.CONFIG, "uc")
        assert prof.rows == _pointwise_uc_rows(ambient, f, self.CONFIG)

    @staticmethod
    def three_pieces(shift):
        return (
            IntervalPiece(qx(0) + shift, qx(1) + shift),
            IntervalPiece(qx(1) + shift, qx(2) + shift, False, True),
            IntervalPiece(qx(3) + shift, qx(Fraction(7, 2)) + shift),
        )

    @pytest.mark.parametrize(
        "case, lifted",
        [
            ("two_pieces_one_region", True),
            ("reversed_regions", True),
            ("unlisted_piece", True),
            ("sqrt2_shifted", True),
        ],
    )
    def test_owner_of_each_piece(self, case, lifted):
        """Each run takes the formula of the one region owning its piece,
        whatever the order of the regions or how many pieces one lists, also
        when a wider region piece holds it."""
        shift = SQRT2 if case == "sqrt2_shifted" else qx(0)
        a, b, c = self.three_pieces(shift)
        ambient = IntervalUnion((a, b, c))
        regions = {
            "two_pieces_one_region": ((a, c), (b,)),
            "reversed_regions": ((c,), (b,), (a,)),
            # b's points are covered by a region piece that is not b
            "unlisted_piece": ((a,), (IntervalPiece(b.lo, c.hi, False, True),)),
            "sqrt2_shifted": ((a, c), (b,)),
        }[case]
        # 3(x - shift) - 1, rational on the shifted pieces too
        formulas = (Affine(qx(3), qx(-1) - 3 * shift), Const(2), Identity())
        f = Piecewise(
            tuple(FuncPiece(IntervalUnion(r), fm) for r, fm in zip(regions, formulas))
        )
        pts, runs, _, _ = _probe_points(ambient, self.CONFIG, for_pairs=False)
        vals = analysis._probe_values(f, pts, runs)
        assert isinstance(vals, analysis._LiftedNumbers) == lifted
        prof = modulus_profile(ambient, f, self.CONFIG, "uc")
        assert prof.rows == _pointwise_uc_rows(ambient, f, self.CONFIG)

    def test_piece_listed_again_keeps_the_first_owner(self):
        """A piece that later regions list again keeps the first region's
        tag, so the probe stays lifted; a piece that an earlier region's
        piece cuts in two is refused."""
        a, b, c = self.three_pieces(qx(0))
        ambient = IntervalUnion((a, b, c))
        f = Piecewise(
            (
                FuncPiece(IntervalUnion((c,)), Const(7)),
                FuncPiece(IntervalUnion((a, c)), Affine(qx(3), qx(-1))),
                FuncPiece(IntervalUnion((b, c)), Identity()),
            )
        )
        assert f._owners.tile_owners(ambient.pieces) == (1, 2, 0)
        pts, runs, _, _ = _probe_points(ambient, self.CONFIG, for_pairs=False)
        vals = analysis._probe_values(f, pts, runs)
        assert isinstance(vals, analysis._LiftedNumbers)
        first = [next(fp.formula for fp in f.pieces if fp.region.contains(p)) for p in pts]
        assert list(vals) == [evaluate(fm, p) for fm, p in zip(first, pts)]
        assert [evaluate(f, p) for p in pts] == list(vals)
        half = IntervalPiece(c.lo, (c.lo + c.hi) / 2)
        g = Piecewise((FuncPiece(IntervalUnion((half,)), Const(7)), f.pieces[1], f.pieces[2]))
        with pytest.raises(ConfigurationError, match="split between piecewise regions 0, 1"):
            g._owners.tile_owners(ambient.pieces)

    def test_uncovered_piece_raises(self):
        a, b, c = self.three_pieces(qx(0))
        f = Piecewise(
            (FuncPiece(IntervalUnion((a,)), Const(7)), FuncPiece(IntervalUnion((c,)), Identity()))
        )
        for notion in ("uc", "usc"):
            with pytest.raises(DomainError, match="not covered"):
                modulus_profile(IntervalUnion((a, b, c)), f, self.CONFIG, notion)

    @pytest.mark.parametrize(
        "notion, config, bound",
        [
            ("uc", AnalysisConfig(grid_exponent=3), 1.5),
            ("usc", AnalysisConfig(grid_exponent=3, max_pairs=20000), 0.5),
        ],
        ids=["uc", "usc"],
    )
    def test_3000_glued_pieces_are_prompt(self, notion, config, bound):
        """The owner of each of 3 000 pieces comes from the owner index:
        scanning every region for every piece took about 3 s for either
        profile on 2 vCPUs."""
        n = 3000
        pieces = tuple(IntervalPiece(qx(k), qx(k + 1), True, k == n - 1) for k in range(n))
        f = Piecewise(
            tuple(
                FuncPiece(IntervalUnion((p,)), Affine(qx((-1) ** k), qx(0)))
                for k, p in enumerate(pieces)
            )
        )
        start = time.perf_counter()
        prof = modulus_profile(IntervalUnion(pieces), f, config, notion)
        elapsed = time.perf_counter() - start
        assert len(prof.rows) == len(config.delta_schedule)
        assert elapsed < bound, elapsed


class TestProbeCounts:
    """The sampled probe hashes no exact number, and its usc survey tests
    interval-union membership on integers and builds no pair object."""

    @staticmethod
    def two_piece_case(shift):
        left = IntervalPiece(qx(0) + shift, qx(1) + shift)
        right = IntervalPiece(qx(Fraction(3, 2)) + shift, qx(Fraction(5, 2)) + shift, False)
        ambient = IntervalUnion((left, right))
        # f = 3(x - shift) - 1 on the right piece, 2 on the left
        f = Piecewise(
            (
                FuncPiece(IntervalUnion((left,)), Const(2)),
                FuncPiece(IntervalUnion((right,)), Affine(qx(3), qx(-1) - 3 * shift)),
            )
        )
        return ambient, f

    def counting(self, monkeypatch):
        counts = Counter()
        for cls, name in (
            (QuadExt, "__hash__"),
            (IntervalUnion, "contains"),
            (IntervalPiece, "contains"),
            (SymmetricPair, "__post_init__"),
        ):
            original = getattr(cls, name)

            def counted(self, *args, _orig=original, _key=f"{cls.__name__}.{name}"):
                counts[_key] += 1
                return _orig(self, *args)

            monkeypatch.setattr(cls, name, counted)
        survey = analysis._pairs_from_points

        def counted_survey(*args, **kwargs):
            out = survey(*args, **kwargs)
            counts["candidates"] += out.candidates_checked
            return out

        monkeypatch.setattr(analysis, "_pairs_from_points", counted_survey)
        return counts

    @pytest.mark.parametrize("shift", [qx(0), SQRT2 - 1], ids=["rational", "sqrt2"])
    def test_uc_and_usc_counts(self, monkeypatch, shift):
        ambient, f = self.two_piece_case(shift)
        config = AnalysisConfig(grid_exponent=6)
        counts = self.counting(monkeypatch)
        uc = modulus_profile(ambient, f, config, "uc")
        assert counts == Counter()
        usc = modulus_profile(ambient, f, config, "usc")
        assert counts["QuadExt.__hash__"] == 0
        assert counts["candidates"] > 0
        assert counts["IntervalUnion.contains"] == counts["IntervalPiece.contains"] == 0
        assert counts["SymmetricPair.__post_init__"] == 0
        monkeypatch.undo()
        # the counted profiles are the ones pointwise evaluation gives
        assert uc.rows == _pointwise_uc_rows(ambient, f, config)
        pointwise = lambda f, pts, runs: [evaluate(f, p) for p in pts]  # noqa: E731
        with mock.patch.object(analysis, "_probe_values", pointwise):
            assert modulus_profile(ambient, f, config, "usc") == usc

    @pytest.mark.parametrize("shift", [qx(0), SQRT2 - 1], ids=["rational", "sqrt2"])
    def test_affine_uc_profile_builds_no_grid_point(self, monkeypatch, shift):
        """A uc profile on a union of constant and affine pieces takes its
        point and value keys from the grid indices: no formula is evaluated,
        and the exact numbers built grow with the rows, not with the grid."""
        ambient, f = self.two_piece_case(shift)
        config = AnalysisConfig(grid_exponent=9)
        counts = Counter()
        make = exactnum._make

        def counted_make(*args):
            counts["QuadExt"] += 1
            return make(*args)

        def counted_eval(fm, x, _orig=functions.formula_eval):
            counts["formula_eval"] += 1
            return _orig(fm, x)

        monkeypatch.setattr(exactnum, "_make", counted_make)
        monkeypatch.setattr(functions, "formula_eval", counted_eval)
        prof = modulus_profile(ambient, f, config, "uc")
        monkeypatch.undo()
        rows = len(config.delta_schedule)
        assert prof.points > 1000
        assert counts["formula_eval"] == 0
        # per row: the sup, the witness pair and the threshold ceil(L*delta)
        assert 0 < counts["QuadExt"] <= 6 * rows + 12, counts
        assert prof.rows == _pointwise_uc_rows(ambient, f, config)


@st.composite
def sampled_unions(draw):
    """An interval union of one to three pieces, a function on it and a
    config, for the sampled probe. Piece ends are rational, share one sqrt2
    part, or carry mixed sqrt2 parts; lengths are rational, zero (a
    degenerate piece) or irrational; ends are open or closed; pieces leave
    gaps or touch. Each piece is owned by a Const (rational or sqrt2
    value), Identity or Affine with a rational slope, which take the index
    path, or by an Affine with an irrational slope or a Monomial, which
    fall back to evaluation; f is one bare formula or one region per piece."""
    kind = draw(st.sampled_from(("rational", "shared", "mixed")))
    shift = Fraction(0) if kind == "rational" else draw(st.sampled_from(_IRRS[1:]))
    lo = QuadExt(draw(_RATS), shift)
    pieces = []
    for k in range(draw(st.integers(1, 3))):
        lo_closed = draw(st.booleans())
        if k:
            prev = pieces[-1]
            if draw(st.booleans()) and not prev.is_degenerate:
                # touching: the shared end belongs to one side at most
                lo, lo_closed = prev.hi, lo_closed and not prev.hi_closed
            else:
                gap = QuadExt(draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), 1))))
                if kind == "mixed":
                    gap += QuadExt(0, draw(st.sampled_from(_IRRS))) / 8
                lo = prev.hi + gap
        length = draw(st.sampled_from((0, Fraction(1, 4), Fraction(1, 2), 1, SQRT2 / 2)))
        if length == 0 and not lo_closed:
            length = Fraction(1, 2)
        hi_closed = draw(st.booleans()) or length == 0
        pieces.append(IntervalPiece(lo, lo + length, lo_closed, hi_closed))
    value = st.builds(QuadExt, _RATS, st.sampled_from(_IRRS))
    formulas = st.one_of(
        st.builds(Const, value),
        st.just(Identity()),
        st.builds(Affine, st.builds(QuadExt, _RATS), value),
        st.builds(Affine, st.just(SQRT2), value),
        st.just(Monomial(2)),
    )
    if draw(st.booleans()):
        f = draw(formulas)
    else:
        f = Piecewise(
            tuple(FuncPiece(IntervalUnion((p,)), draw(formulas)) for p in pieces)
        )
    deltas = draw(
        st.lists(
            st.sampled_from(
                (qx(2), qx(1), SQRT2 / 2, qx(Fraction(1, 2)), qx(Fraction(1, 8)),
                 SQRT2 / 16, qx(Fraction(1, 64)))
            ),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    config = AnalysisConfig(
        delta_schedule=tuple(sorted(deltas, reverse=True)),
        grid_exponent=draw(st.integers(1, 4)),
    )
    return IntervalUnion(tuple(pieces)), f, config


class TestIndexProbe:
    """The sampled probe's keys from the grid indices against the grid
    points and against values found by evaluate at every point."""

    @settings(max_examples=150, deadline=None)
    @given(sampled_unions())
    def test_profiles_match_pointwise(self, case):
        ambient, f, config = case
        pts = _probe_points(ambient, config, for_pairs=False)[0]
        grid = tuple(x for p in ambient.pieces for x in p.grid(config.grid_exponent))
        assert tuple(pts) == grid
        shared = len({p.lo.irr for p in ambient.pieces}) == 1
        rational = all(p.length.is_rational() for p in ambient.pieces)
        lifted = shared and rational and not ambient.enumerable
        assert isinstance(pts, analysis._LiftedNumbers) == lifted
        assert modulus_profile(ambient, f, config, "uc").rows == _pointwise_uc_rows(
            ambient, f, config
        )
        usc = modulus_profile(ambient, f, config, "usc")
        pointwise = lambda f, pts, runs: [evaluate(f, p) for p in pts]  # noqa: E731
        with mock.patch.object(analysis, "_probe_values", pointwise):
            assert modulus_profile(ambient, f, config, "usc") == usc


@contextlib.contextmanager
def _whole_probe():
    """Scan and survey every probe point: no equispaced stretch is thinned."""
    with mock.patch.object(analysis, "_thin", return_value=None):
        yield


@st.composite
def stretch_cases(draw):
    """A sampled union from sampled_unions() at grid exponents 3-10, with a
    max_pairs that may cut the usc survey and deltas either all at most
    1/64, whose reach leaves most of a stretch out, or up to 2, past a
    whole stretch."""
    ambient, f, config = draw(sampled_unions())
    small = (qx(Fraction(1, 64)), SQRT2 / 128, qx(Fraction(3, 512)), qx(Fraction(1, 4096)))
    large = (qx(2), qx(1), SQRT2 / 2, qx(Fraction(1, 8)), SQRT2 / 16)
    pool = small if draw(st.booleans()) else large + small
    deltas = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3, unique=True))
    config = replace(
        config,
        delta_schedule=tuple(sorted(deltas, reverse=True)),
        grid_exponent=draw(st.integers(3, 10)),
        max_pairs=draw(st.sampled_from((10**6, 10**6, 3000, 300, 20))),
    )
    return ambient, f, config


class TestStretchSkip:
    """Scanning only the ends of each equispaced stretch of a sampled probe
    (_thin) gives the profile of the whole probe: the same rows, witnesses
    and challenge counts."""

    @settings(max_examples=200, deadline=None)
    @given(stretch_cases())
    def test_thinned_profiles_match_whole_probe(self, case):
        ambient, f, config = case
        for notion in ("uc", "usc"):
            got = modulus_profile(ambient, f, config, notion).to_json()
            with _whole_probe():
                assert got == modulus_profile(ambient, f, config, notion).to_json(), notion

    def test_scans_only_the_stretch_ends(self):
        """On two affine pieces at exponent 9 (7 for usc) the uc scan and the
        usc survey each see a few dozen of the probe's points."""
        left = IntervalPiece(qx(0), qx(1), True, True)
        right = IntervalPiece(qx(1), qx(Fraction(3, 2)), False, True)
        f = Piecewise((
            FuncPiece(IntervalUnion((left,)), Affine(qx(3), qx(1))),
            FuncPiece(IntervalUnion((right,)), Const(qx(-2))),
        ))
        ambient = IntervalUnion((left, right))
        config = AnalysisConfig(
            grid_exponent=9, delta_schedule=(qx(Fraction(1, 64)), qx(Fraction(1, 256)))
        )
        seen = []
        scan, survey = analysis._window_scan_int, analysis._pairs_from_points

        def counted_scan(keys, vals, thr):
            seen.append(len(keys))
            return scan(keys, vals, thr)

        def counted_survey(pts, *args):
            seen.append(len(pts))
            return survey(pts, *args)

        for notion in ("uc", "usc"):
            seen.clear()
            with mock.patch.object(analysis, "_window_scan_int", counted_scan), \
                    mock.patch.object(analysis, "_pairs_from_points", counted_survey):
                got = modulus_profile(ambient, f, config, notion)
            assert seen and max(seen) <= 60, (notion, seen)
            with _whole_probe():
                whole = modulus_profile(ambient, f, config, notion)
            assert got.to_json() == whole.to_json()
            # more challenges than the scanned points can form among themselves
            assert got.rows[0][1].challenges > max(seen) ** 2 / 2, (notion, got.rows)


def _set_grid_indices(piece, exponent):
    """IntervalPiece.grid_indices as first built: a set of every k, sorted."""
    if piece.is_degenerate:
        return [0], 1
    top = max(exponent, 10)
    n = 2**top
    ks = set(range(0, n + 1, 2 ** (top - exponent)))
    if not piece.lo_closed:
        ks.discard(0)
        ks.update(2 ** (top - m) for m in range(1, 11))
    if not piece.hi_closed:
        ks.discard(n)
        ks.update(n - 2 ** (top - m) for m in range(1, 11))
    return sorted(ks), n


def _list_index_keys(runs):
    """analysis._index_keys as first built, on (v0, dv, ks) runs with ks a
    list: every key V0 + D*k in one list, and L and the sqrt2 coefficient;
    None when the v0 do not share one sqrt2 part."""
    v = runs[0][0]
    if any(x.b * v.d != v.b * x.d for x, _, _ in runs):
        return None
    den = math.lcm(*(x.d for x, _, _ in runs), *(dv.denominator for _, dv, _ in runs))
    keys = []
    for x, dv, ks in runs:
        x0, step = x.a * (den // x.d), dv.numerator * (den // dv.denominator)
        keys += [x0 + step * k for k in ks]
    return keys, den, Fraction(v.b, v.d)


@st.composite
def index_pieces(draw):
    """One to three sorted disjoint pieces with rational lengths (zero for
    a degenerate piece), every end closed or open, the ends rational or
    all shifted by one sqrt2 part, an exponent 0-14, and per piece a
    rational slope (zero for a constant) and one intercept sqrt2 part,
    shared or not."""
    shift = draw(st.sampled_from(_IRRS))
    lo = QuadExt(draw(_RATS), shift)
    pieces = []
    for _ in range(draw(st.integers(1, 3))):
        length = draw(st.sampled_from((0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(7, 4))))
        ends = (True, True) if length == 0 else (draw(st.booleans()), draw(st.booleans()))
        pieces.append(IntervalPiece(lo, lo + length, *ends))
        lo = lo + length + draw(st.sampled_from((Fraction(1, 8), 1)))
    slopes = [draw(st.sampled_from((0, 1, -3, Fraction(5, 2)))) for _ in pieces]
    irr = draw(st.sampled_from(((0,) * len(pieces), (1,) * len(pieces), (0, 1, 0)[: len(pieces)])))
    return pieces, draw(st.integers(0, 14)), slopes, irr


class TestIndexRuns:
    """Grid indices given as parts and the keys read from them by position
    (_IndexKeys) against the set-and-sort indices and the whole key list
    they were first built as."""

    @settings(max_examples=150, deadline=None)
    @given(index_pieces(), st.data())
    def test_indices_and_keys_match_whole_lists(self, case, data):
        pieces, e, slopes, irr = case
        point_runs, value_runs, old_points, old_values = [], [], [], []
        for piece, slope, c in zip(pieces, slopes, irr):
            parts, n = piece.grid_indices(e)
            ks, old_n = _set_grid_indices(piece, e)
            assert [k for part in parts for k in part] == ks and n == old_n
            assert len(piece.grid(e)) == len(ks)
            step = Fraction(piece.length.a, piece.length.d * n)
            v0 = QuadExt(slope) * piece.lo + QuadExt(1, c)
            point_runs.append((piece.lo, step, parts))
            old_points.append((piece.lo, step, ks))
            value_runs.append((v0, slope * step, parts))
            old_values.append((v0, slope * step, ks))
        grid = [x for piece in pieces for x in piece.grid(e)]
        for runs, old in ((point_runs, old_points), (value_runs, old_values)):
            got, want = analysis._index_keys(runs), _list_index_keys(old)
            if want is None:
                assert got is None
                continue
            keys = got.keys
            size = len(want[0])
            assert (len(keys), got.den, got.shift) == (size, *want[1:])
            assert [keys[p] for p in range(size)] == want[0]
            assert [keys[-p] for p in range(1, size + 1)] == want[0][::-1]
            for p in (size, -size - 1):
                with pytest.raises(IndexError):
                    keys[p]
            cuts = sorted(data.draw(st.lists(st.integers(0, size), max_size=6)))
            spans = [range(a, b) for a, b in zip([0, *cuts], [*cuts, size])][::2]
            assert keys.take(spans) == [want[0][p] for span in spans for p in span]
            assert keys.whole == want[0]
            if runs is point_runs:
                assert keys.gap() == min(map(operator.sub, want[0][1:], want[0]), default=None)
                assert list(got) == [got[p] for p in range(size)] == grid


class TestBuildOnlyWhatIsRead:
    """Read-count guards: a thinned sampled profile builds no whole key
    list, and a listed usc profile whose survey cuts in its first prefix
    lists no point past it."""

    def test_thinned_profiles_build_no_whole_key_list(self, monkeypatch):
        """A moduli-style glued union (a constant piece, then an affine one
        continuing it) at exponent 9: the uc sweep at 1/256 and the usc
        profile from 1/64 to 1/1024 read only kept positions and
        witnesses."""
        left = IntervalPiece(qx(Fraction(-5, 2)), qx(-2))
        right = IntervalPiece(qx(-2), qx(-1), False, True)
        f = Piecewise((
            FuncPiece(IntervalUnion((left,)), Const(qx(Fraction(4, 3)))),
            FuncPiece(IntervalUnion((right,)), Affine(qx(-3), qx(-6) + qx(Fraction(4, 3)))),
        ))
        ambient = IntervalUnion((left, right))
        config = AnalysisConfig(grid_exponent=9)
        schedule = tuple(qx(Fraction(1, 2**j)) for j in range(6, 11))
        with _whole_probe():
            uc = uc_oscillation(ambient, f, qx(Fraction(1, 256)), config)
            usc = modulus_profile(ambient, f, replace(config, delta_schedule=schedule), "usc")

        def unread(self):
            raise AssertionError("whole key list built")

        monkeypatch.setattr(analysis._IndexKeys, "whole", property(unread))
        assert uc_oscillation(ambient, f, qx(Fraction(1, 256)), config) == uc
        assert modulus_profile(ambient, f, replace(config, delta_schedule=schedule), "usc") == usc
        assert uc.challenges > 0 and usc.rows[0][1].challenges > 0

    @pytest.mark.parametrize("case", ["naturals", "primes", "ex28"])
    def test_cut_listing_is_counted_not_listed(self, monkeypatch, case):
        """NaturalReciprocals(10**5) and OddPrimeReciprocals(10**6) at
        max_pairs 3000 and ex-2.8 at 800: the first prefix cuts, so no
        listing at enum_limit is made, and the profile, its point count and
        its truncation are those of the whole listing."""
        if case == "naturals":
            ambient, f, config = NaturalReciprocals(10**5), Identity(), AnalysisConfig(max_pairs=3000)
        elif case == "primes":
            ambient, f, config = OddPrimeReciprocals(10**6), Identity(), AnalysisConfig(max_pairs=3000)
        else:
            (ambient, f), config = _ex28(40), AnalysisConfig(max_pairs=800)
        limits = []
        listing = type(ambient).enumerate

        def recorded(self, limit):
            limits.append(limit)
            return listing(self, limit)

        monkeypatch.setattr(type(ambient), "enumerate", recorded)
        prof = modulus_profile(ambient, f, config, "usc")
        assert limits and max(limits) < config.enum_limit
        monkeypatch.undo()
        assert prof == _whole_listing_profile(ambient, f, config)

    def test_ex28_walks_only_its_prefix(self, monkeypatch):
        """ex-2.8 at max_pairs 800 counts its listing of 982 points in
        closed form, so the Farey walk takes no more steps than listing the
        surveyed prefix of head points needs: head + 1."""
        (ambient, f), config = _ex28(40), AnalysisConfig(max_pairs=800)
        head = (math.isqrt(8 * config.max_pairs + 1) + 1) // 2 + 1
        steps = 0
        walk = TruncatedRationals._walk

        def counted(self, limit):
            nonlocal steps
            for term in walk(self, limit):
                steps += 1
                yield term

        monkeypatch.setattr(TruncatedRationals, "_walk", counted)
        prof = modulus_profile(ambient, f, config, "usc")
        assert 0 < steps <= head + 1
        assert ambient.count(config.enum_limit) == (982, False)
        monkeypatch.undo()
        assert prof == _whole_listing_profile(ambient, f, config)


def _moved_piece(p, a, s):
    """The image of an interval piece under x -> a*x + s, a = 1 or -1."""
    if a == 1:
        return IntervalPiece(p.lo + s, p.hi + s, p.lo_closed, p.hi_closed)
    return IntervalPiece(s - p.hi, s - p.lo, p.hi_closed, p.lo_closed)


def _moved_formula(fm, a, s):
    """fm composed with the inverse of x -> a*x + s: y -> fm(a*(y - s))."""
    if isinstance(fm, Const):
        return fm
    if isinstance(fm, Identity):
        return Affine(qx(a), -a * s)
    if isinstance(fm, Affine):
        return Affine(a * fm.slope, fm.intercept - a * fm.slope * s)
    # an even monomial is unchanged by the reflection x -> -x
    assert isinstance(fm, Monomial) and fm.degree % 2 == 0 and a == -1 and s == 0
    return fm


def _moved_case(ambient, f, a, s):
    """The union and f moved by x -> a*x + s, f composed with the inverse map."""
    moved = IntervalUnion(tuple(_moved_piece(p, a, s) for p in ambient.pieces))
    if isinstance(f, Piecewise):
        g = Piecewise(
            tuple(
                FuncPiece(
                    IntervalUnion(tuple(_moved_piece(p, a, s) for p in fp.region.pieces)),
                    _moved_formula(fp.formula, a, s),
                )
                for fp in f.pieces
            )
        )
    else:
        g = _moved_formula(f, a, s)
    return moved, g


def _formulas(f):
    return [fp.formula for fp in f.pieces] if isinstance(f, Piecewise) else [f]


class TestSampledProfileIsometries:
    """The sampled usc and uc profiles are unchanged by the isometries of
    the line: a shift by s in Q(sqrt2) and the reflection x -> -x, applied
    to the union, with f composed with the inverse map. The probe grid moves
    with its pieces, so the profile is the same whether the moved union takes
    integer keys, embedded keys or exact numbers; on a coin flip the moved
    profile runs on exact numbers (_exact_only)."""

    @settings(max_examples=80, deadline=None)
    @given(
        sampled_unions(), st.builds(QuadExt, _TWELFTHS, st.sampled_from(_IRRS)), st.booleans()
    )
    def test_shift_moves_witnesses(self, case, s, exact):
        ambient, f, config = case
        assume(not any(isinstance(fm, Monomial) for fm in _formulas(f)))
        moved, g = _moved_case(ambient, f, 1, s)
        for notion in ("usc", "uc"):
            rows = modulus_profile(ambient, f, config, notion).rows
            with _exact_only() if exact else contextlib.nullcontext():
                got = modulus_profile(moved, g, config, notion).rows
            assert [(d, r.value, r.challenges) for d, r in got] == [
                (d, r.value, r.challenges) for d, r in rows
            ]
            assert [r.witness for _, r in got] == [
                None if r.witness is None else (r.witness[0] + s, r.witness[1] + s)
                for _, r in rows
            ]

    @settings(max_examples=80, deadline=None)
    @given(sampled_unions(), st.booleans())
    def test_reflection_keeps_omega_and_challenges(self, case, exact):
        ambient, f, config = case
        assume(
            all(not isinstance(fm, Monomial) or fm.degree % 2 == 0 for fm in _formulas(f))
        )
        moved, g = _moved_case(ambient, f, -1, qx(0))
        for notion in ("usc", "uc"):
            profile = modulus_profile(ambient, f, config, notion)
            with _exact_only() if exact else contextlib.nullcontext():
                got = modulus_profile(moved, g, config, notion)
            assert not profile.truncated and not got.truncated
            assert [(d, r.value, r.challenges) for d, r in got.rows] == [
                (d, r.value, r.challenges) for d, r in profile.rows
            ]
