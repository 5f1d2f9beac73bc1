"""Exact verdict JSON for decision branches the catalog and the other tests
do not reach: family sweeps that only run when an earlier rule stays silent,
a staircase whose cross-block oscillation decays, junctions whose owned value
breaks away from matching limits, and reciprocal pieces ending at 0 from
either side, and the subset-anchored scan when it proves the notion or runs
out of its pair budget. Family scans are pinned on a sqrt2-shifted set,
on points with mixed sqrt2 parts, under a schedule with irrational deltas,
with three constant regions, with overlapping regions that repeat a
value (first match decides) and, for the subset-anchored scan, on a
truncated enumeration. Sampled usc profiles pin the survey's membership
test at open, touching and irrational piece ends, on sqrt2-shifted grids,
and with values whose sqrt2 parts differ. Sampled uc profiles, with their
witnesses, pin the keys taken from the grid indices and the cases that
build every point: pieces of irrational length, and owners whose values
are not integer keys (a monomial, an irrational slope, mixed sqrt2 parts),
under a schedule with irrational deltas.

Each case pins the sha256 of the JSON of all four verdicts (of the one
subset-anchored verdict, of the one profile), so any change to a witness, a
certificate, a resolution entry or a note shows here."""

import hashlib
import json
from fractions import Fraction

import pytest

from symcont import (
    SQRT2,
    Affine,
    AnalysisConfig,
    Const,
    FinitePoints,
    FuncPiece,
    Identity,
    IntervalPiece,
    IntervalUnion,
    Monomial,
    NaturalReciprocals,
    Piecewise,
    Reciprocal,
    Staircase,
    TruncatedRationals,
    check_wrt_subset,
    classify,
    evaluate,
    modulus_profile,
)
from symcont.analysis import NOTIONS, _family_keys, _uc_rows

from conftest import qx


def _alternating(**config):
    """Values 1 and 0 on alternate points of {1/n : n <= 30} and 0, given by
    zero-slope affine pieces so no piecewise-constant reduction applies."""
    nr = NaturalReciprocals(30)
    pts = nr.enumerate(100).points
    odd = FinitePoints(pts[1::2])
    even = FinitePoints(pts[::2])
    f = Piecewise(
        (FuncPiece(odd, Affine(0, 1)), FuncPiece(even, Affine(0, 0)))
    )
    return nr, f, AnalysisConfig(**config)


def _indicator_of_one(**config):
    nr = NaturalReciprocals(30)
    f = Piecewise(
        (FuncPiece(FinitePoints((qx(1),)), Const(1)), FuncPiece(nr, Const(0)))
    )
    return nr, f, AnalysisConfig(**config)


def _positive_rationals_indicator():
    ambient = TruncatedRationals(12, -1, 1)
    f = Piecewise(
        (
            FuncPiece(TruncatedRationals(12, 0, 1), Const(1)),
            FuncPiece(ambient, Const(0)),
        )
    )
    return ambient, f, AnalysisConfig()


def _alternate(points):
    """Values 1 and 0 on alternate points, by zero-slope affine pieces."""
    return Piecewise(
        (
            FuncPiece(FinitePoints(points[1::2]), Affine(0, 1)),
            FuncPiece(FinitePoints(points[::2]), Affine(0, 0)),
        )
    )


def _shifted_alternating():
    """{sqrt2 + 1/n : n <= 30} and sqrt2 listed up to enum_limit 25, so the
    finite set goes through the family pipeline on lifted points with a
    nonzero sqrt2 part; C is refuted at the generic branch's anchor sqrt2."""
    pts = tuple(SQRT2 + p for p in NaturalReciprocals(30).enumerate(100).points)
    return FinitePoints(pts), _alternate(pts), AnalysisConfig(enum_limit=25)


def _mixed_sqrt2_indicator():
    """The indicator of [0, 3/2] on rationals of denominator <= 12 in
    [-1, 3/2] together with sqrt2, so the points keep exact keys."""
    ambient = TruncatedRationals(12, -1, Fraction(3, 2), adjoin_sqrt2=True)
    upper = TruncatedRationals(12, 0, Fraction(3, 2), adjoin_sqrt2=True)
    f = Piecewise((FuncPiece(upper, Const(1)), FuncPiece(ambient, Const(0))))
    return ambient, f, AnalysisConfig()


def _irrational_schedule():
    """1/2**j interleaved with sqrt2/2**(j + 1): thresholds of irrational
    deltas over the lifted points are exact ceilings."""
    schedule = []
    for j in range(8):
        schedule += [qx(Fraction(1, 2**j)), SQRT2 / 2 ** (j + 1)]
    nr = NaturalReciprocals(30)
    f = _alternate(nr.enumerate(100).points)
    return nr, f, AnalysisConfig(delta_schedule=tuple(schedule))


def _three_constant_regions():
    """Values 1, 2 and 0 on every third point of {1/n : n <= 30} and 0."""
    nr = NaturalReciprocals(30)
    pts = nr.enumerate(100).points
    f = Piecewise(
        (
            FuncPiece(FinitePoints(pts[1::3]), Const(1)),
            FuncPiece(FinitePoints(pts[2::3]), Const(2)),
            FuncPiece(nr, Const(0)),
        )
    )
    return nr, f, AnalysisConfig()


def _overlapping_regions(**config):
    """1 on rationals of denominator <= 12 in [0, 1], 0 on those in
    [-3/4, 1/2] and 1 again on the whole ambient set [-1, 1] as a catch-all:
    the first matching region decides [0, 1/2], and two regions share the
    value 1."""
    ambient = TruncatedRationals(12, -1, 1)
    f = Piecewise(
        (
            FuncPiece(TruncatedRationals(12, 0, 1), Const(1)),
            FuncPiece(TruncatedRationals(12, Fraction(-3, 4), Fraction(1, 2)), Const(0)),
            FuncPiece(ambient, Const(1)),
        )
    )
    return ambient, f, AnalysisConfig(**config)


def _shifted_indicator_truncated():
    """The indicator of x > sqrt2 on sqrt2 + (rationals of denominator <= 8
    in [-1, 1]), listed up to enum_limit 30 (up to sqrt2 + 1/3), anchored at
    sqrt2, sqrt2 + 1/6 and sqrt2 + 7/8, which lies past the listing."""
    pts = tuple(SQRT2 + p for p in TruncatedRationals(8, -1, 1).enumerate(100).points)
    ambient = FinitePoints(pts)
    f = Piecewise(
        (
            FuncPiece(FinitePoints(tuple(p for p in pts if p > SQRT2)), Const(1)),
            FuncPiece(ambient, Const(0)),
        )
    )
    anchors = (SQRT2, SQRT2 + qx(Fraction(1, 6)), SQRT2 + qx(Fraction(7, 8)))
    return ambient, f, FinitePoints(anchors), AnalysisConfig(enum_limit=30)


def _union(*pieces):
    return IntervalUnion(tuple(pieces))


def _owned_value_junction(right_side: bool):
    """x on [0, 1) (and on (1, 2] when right_side), 5 at the point 1."""
    left = IntervalPiece(qx(0), qx(1), True, False)
    point = IntervalPiece(qx(1), qx(1))
    right = IntervalPiece(qx(1), qx(2), False, True)
    pieces = (left, point, right) if right_side else (left, point)
    funcs = [FuncPiece(_union(left), Identity()), FuncPiece(_union(point), Const(5))]
    if right_side:
        funcs.append(FuncPiece(_union(right), Identity()))
    return IntervalUnion(pieces), Piecewise(tuple(funcs)), AnalysisConfig()


def _reciprocal_on(lo, hi, lo_closed, hi_closed):
    piece = IntervalPiece(qx(lo), qx(hi), lo_closed, hi_closed)
    return _union(piece), Reciprocal(), AnalysisConfig()


# name -> (inputs, notion the case is about, (status, method) of that notion,
# sha256 of the JSON of all four verdicts)
CASES = {
    "sc_flat_anchor": (
        _positive_rationals_indicator,
        "SC",
        ("refuted", "flat_modulus"),
        "4fd8b2b7c7ea251876464abecf75ad1cc58a32d2285c7fa309c734f096d8548b",
    ),
    "usc_pair_sweep_refuted": (
        _alternating,
        "USC",
        ("refuted", "flat_modulus"),
        "73281dd05aac1dc8865ca6b4c4be81bbeb781ffd6e7ca14a3e7d0d86aaf3c1db",
    ),
    "usc_pair_sweep_decays": (
        lambda: (NaturalReciprocals(30, with_zero=False), Identity(), AnalysisConfig()),
        "USC",
        ("no_violation", "flat_modulus"),
        "44224e8a6eb329a33165594d017f703578049c2c5087949be81c30c01a31641b",
    ),
    "uc_window_sweep_refuted": (
        lambda: _alternating(max_pairs=100),
        "UC",
        ("refuted", "flat_modulus"),
        "0af22b08daf990107aedde7742c8051e26eb29075124f040e41ef4ec4e27a9cb",
    ),
    "uc_window_sweep_all_zero": (
        lambda: (NaturalReciprocals(30), Affine(0, 1), AnalysisConfig()),
        "UC",
        ("proven", "exhaustive_enumeration"),
        "e1af378351e74eef028bec2bba5dce3d56fbd84d3129c49e7b450fb2d85fbb9a",
    ),
    "uc_single_region": (
        lambda: (NaturalReciprocals(30), Const(2), AnalysisConfig()),
        "UC",
        ("proven", "exhaustive_enumeration"),
        "1f7c7f51ed72508334a3b326d54aa3a0dfe23ebc8583a38bb0aa56b5f3c8e903",
    ),
    "uc_cross_region_decays": (
        _indicator_of_one,
        "UC",
        ("no_violation", "flat_modulus"),
        "6bc1f92cf887c22abe09898fa3a718dd9f15ead31c609c7b3cf7ef364b884ad5",
    ),
    "cross_region_over_budget": (
        lambda: _indicator_of_one(max_pairs=10),
        "USC",
        ("no_violation", "flat_modulus"),
        "1daa953addf3771659100f8f0d82782ec44187979707bf7a316296b65b1a9b1d",
    ),
    "cross_region_none_listed": (
        lambda: _indicator_of_one(enum_limit=5),
        "USC",
        ("no_violation", "flat_modulus"),
        "063ef6f8498a4d2be5d945f4e64e087c8f3191eab8a61ae895546da98f72db20",
    ),
    "staircase_cross_block_decays": (
        lambda: (Staircase("B", 6), Identity(), AnalysisConfig()),
        "USC",
        ("no_violation", "flat_modulus"),
        "b1d35f371bb9e816a484e9ff1c1bad5c40e84bd08f53134156aeebdfde4c2f42",
    ),
    "junction_owned_value_right_piece": (
        lambda: _owned_value_junction(right_side=True),
        "USC",
        ("refuted", "interval_decision"),
        "2d4197eea54399513c6428e984a895ef746e22f6922ae3c54915109f4714e1b8",
    ),
    "junction_owned_value_left_piece": (
        lambda: _owned_value_junction(right_side=False),
        "UC",
        ("refuted", "interval_decision"),
        "f00f29cb8b435c5461614929ed3c8972175fdef7f99bd401f7cbce9fd9e874d3",
    ),
    "reciprocal_open_end_above_zero": (
        lambda: _reciprocal_on(0, 5, False, True),
        "UC",
        ("refuted", "interval_decision"),
        "e48c7178be84e68a5626cee7f78f0f3b45427667860d1259201b7ce9661359fe",
    ),
    "reciprocal_open_end_below_zero_closed": (
        lambda: _reciprocal_on(-5, 0, True, False),
        "UC",
        ("refuted", "interval_decision"),
        "7df653a063c47cfd7bd5aef2abd20d846be600b4bb883c6a5b41295d37654472",
    ),
    "c_generic_flat_anchor_sqrt2_shifted": (
        _shifted_alternating,
        "C",
        ("refuted", "flat_modulus"),
        "ff6dcdf3c46f7db595208f7c02500831054277fd13bf92cbdc1cd5b029abcb2d",
    ),
    "sc_flat_anchor_mixed_sqrt2_points": (
        _mixed_sqrt2_indicator,
        "SC",
        ("refuted", "flat_modulus"),
        "bbc94ee4d3363db8b05d7659a0944bdfb316b80d494508b6f78da1ce77496bf3",
    ),
    "irrational_schedule_deltas": (
        _irrational_schedule,
        "C",
        ("refuted", "flat_modulus"),
        "d255efe1d216e3a4994bc729de749c171f8fca16d62a8b86740b65b3e7c0a311",
    ),
    "c_three_constant_regions": (
        _three_constant_regions,
        "C",
        ("refuted", "flat_modulus"),
        "4a84b790c41f8b5c8df246546f7071ea5c8805e686c4234fa04a0c7d67cd9382",
    ),
    "overlapping_regions_repeated_value": (
        _overlapping_regions,
        "USC",
        ("refuted", "flat_modulus"),
        "8fc3f27fa866d4555cfa95180afda890636723e164c1fe34d0685f0bba08a7a0",
    ),
    "overlapping_regions_repeated_value_truncated": (
        lambda: _overlapping_regions(enum_limit=20),
        "USC",
        ("refuted", "flat_modulus"),
        "2bf39bd9d3062d314dd01ed44a2889853d2eb5fd55d38b82c69b99734b850c7f",
    ),
    "reciprocal_open_end_below_zero_open": (
        lambda: _reciprocal_on(Fraction(-1, 2), 0, False, False),
        "UC",
        ("refuted", "interval_decision"),
        "148b0056322b4f04fc0d81ca1f569fb2d53d6c4406628df1215635665082f9d5",
    ),
}


def _verdicts_json(build) -> str:
    ambient, f, config = build()
    verdicts = classify(ambient, f, config)
    return json.dumps({n: verdicts[n].to_json() for n in NOTIONS}, indent=1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_verdict_json_pinned(name):
    build, notion, expected, digest = CASES[name]
    text = _verdicts_json(build)
    got = json.loads(text)[notion]
    assert (got["status"], got["method"]) == expected
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


@pytest.mark.parametrize(
    "name",
    (
        "uc_single_region",
        "uc_cross_region_decays",
        "cross_region_over_budget",
        "cross_region_none_listed",
    ),
)
def test_piecewise_constant_uc_rows_match_all_pairs(name):
    """UC on these piecewise-constant cases reads the window scan's rows:
    each row's sup, pair count and witness against every listed pair."""
    ambient, f, config = CASES[name][0]()
    en = ambient.enumerate(config.enum_limit)
    pts = en.points
    vals = [evaluate(f, p) for p in pts]
    pairs = [
        (x, y, abs(vals[j] - vals[i]))
        for i, y in enumerate(pts)
        for j, x in enumerate(pts[i + 1 :], i + 1)
    ]
    rows = _uc_rows(_family_keys(pts, vals, config.delta_schedule), en.truncated)
    for delta, res in rows:
        below = [(x, y, o) for x, y, o in pairs if x - y < delta]
        assert res.challenges == len(below)
        if below:
            assert res.value == max(o for *_, o in below)
            # only a positive sup's pair can reach a verdict, as a flat witness
            if res.value.sign() > 0:
                assert (*res.witness, res.value) in below
        else:
            assert res.value is res.witness is None


# name -> (ambient, function, subset, config, (status, method, scope),
# pairs_checked, sha256 of the JSON of the subset-anchored verdict)
WRT_SUBSET_CASES = {
    "midpoint_free_full_scope": (
        lambda: (
            FinitePoints.of(qx(0), qx(1), qx(3)),
            Identity(),
            FinitePoints.of(qx(3)),
            AnalysisConfig(),
        ),
        ("proven", "midpoint_free", "full"),
        0,
        "6614c4297cb8943a9d5a822d75dd7df1bd7e207af9e2dd56559ccbacc47ea4e3",
    ),
    "mirror_scan_over_budget": (
        lambda: (
            NaturalReciprocals(30),
            Identity(),
            FinitePoints.of(qx(Fraction(1, 8))),
            AnalysisConfig(max_pairs=3),
        ),
        ("no_violation", "flat_modulus", "truncation"),
        4,
        "a7f647153b538c1a33132596f9772e1571b24daa5506dace6d14d6c68b30d13b",
    ),
    "truncated_enumeration_sqrt2_shifted": (
        _shifted_indicator_truncated,
        ("refuted", "flat_modulus", "truncation"),
        11,
        "705c5297c1f57c444dd6b69c3b18958b6890105a835ff87a7a2f783cbcd040bc",
    ),
}


@pytest.mark.parametrize("name", sorted(WRT_SUBSET_CASES))
def test_wrt_subset_json_pinned(name):
    build, expected, pairs_checked, digest = WRT_SUBSET_CASES[name]
    v = check_wrt_subset(*build())
    text = json.dumps(v.to_json(), indent=1)
    assert (v.status, v.method, v.scope) == expected
    assert v.resolution["pairs_checked"] == pairs_checked
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def _piecewise(*parts):
    """f given piece by piece as (piece, formula) on a union of the pieces."""
    return Piecewise(tuple(FuncPiece(_union(p), fm) for p, fm in parts))


def _open_ends():
    """(0, 1) and (1, 2]: midpoints land on the open ends 0 and 1 from
    points on either side."""
    left = IntervalPiece(qx(0), qx(1), False, False)
    right = IntervalPiece(qx(1), qx(2), False, True)
    return _union(left, right), _piecewise((left, Const(0)), (right, Identity())), None


def _sqrt2_shifted():
    s = SQRT2
    left = IntervalPiece(s, s + 1, True, False)
    right = IntervalPiece(s + qx(Fraction(3, 2)), s + qx(Fraction(5, 2)), False, True)
    f = _piecewise((left, Const(2)), (right, Affine(qx(3), qx(-1) - 3 * s)))
    return _union(left, right), f, None


def _irrational_centers():
    """A rational grid on [0, 2] whose midpoints are tested against pieces
    with sqrt2 ends, open and closed."""
    centers = _union(
        IntervalPiece(SQRT2 / 2, qx(1), False, True),
        IntervalPiece(SQRT2, qx(2) * SQRT2 - 1, True, False),
    )
    return _union(IntervalPiece(qx(0), qx(2))), Identity(), centers


def _touching_pieces():
    """[0, 1) and [1, 2]: the midpoint 1 belongs to the right piece only."""
    left = IntervalPiece(qx(0), qx(1), True, False)
    right = IntervalPiece(qx(1), qx(2))
    return _union(left, right), _piecewise((left, Const(0)), (right, Const(1))), None


def _mixed_sqrt2_values():
    """Rational points whose values sqrt2 and x share no sqrt2 part."""
    left = IntervalPiece(qx(0), qx(1), True, False)
    right = IntervalPiece(qx(Fraction(3, 2)), qx(3))
    f = _piecewise((left, Const(SQRT2)), (right, Identity()))
    return _union(left, right), f, None


# name -> (ambient, function, centers or None), sha256 of the usc profile JSON
USC_PROFILE_CASES = {
    "open_low_and_high_ends": (
        _open_ends,
        "bcc4f329ba1015ab97250d168377b0e996a92d0267134dcbffa31e67a67ce68b",
    ),
    "sqrt2_shifted_union": (
        _sqrt2_shifted,
        "b4bfda7f523e3e19d1113af33a998ab6a195d60ab7db3f3ba9aadee242d45fe1",
    ),
    "irrational_center_ends": (
        _irrational_centers,
        "37e329ffd0e64aadd7c777048d9b330955037aac8113c85a6c5921b87b7c8704",
    ),
    "touching_open_closed_ends": (
        _touching_pieces,
        "c4efc5afa56d9b206605b67d34096eddbaa40a9306c100b8971f478d101da9b3",
    ),
    "mixed_sqrt2_values": (
        _mixed_sqrt2_values,
        "64e599f498828b171e6021624d342c05d83dabdf38a8e652db3813b043d025bf",
    ),
}


@pytest.mark.parametrize("name", sorted(USC_PROFILE_CASES))
def test_usc_profile_json_pinned(name):
    build, digest = USC_PROFILE_CASES[name]
    ambient, f, centers = build()
    profile = modulus_profile(
        ambient, f, AnalysisConfig(grid_exponent=5), "usc", centers=centers
    )
    assert profile.sampled and any(res.challenges for _, res in profile.rows)
    text = json.dumps(profile.to_json(), indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


def _irrational_length():
    """[0, sqrt2) and [3/2 + sqrt2, 3 + sqrt2]: the grid points of the first
    piece carry mixed sqrt2 parts."""
    left = IntervalPiece(qx(0), SQRT2, True, False)
    right = IntervalPiece(SQRT2 + qx(Fraction(3, 2)), qx(3) + SQRT2)
    f = _piecewise((left, Affine(qx(2), qx(1))), (right, Const(1)))
    return _union(left, right), f, None


def _fallback_owners():
    """Rational pieces owned by x**2, by sqrt2*x and by a constant."""
    left = IntervalPiece(qx(0), qx(1), True, False)
    mid = IntervalPiece(qx(1), qx(2))
    right = IntervalPiece(qx(Fraction(5, 2)), qx(3), False, True)
    f = _piecewise(
        (left, Monomial(2)), (mid, Affine(SQRT2, qx(0))), (right, Const(qx(Fraction(1, 3))))
    )
    return _union(left, mid, right), f, None


# name -> (ambient, function, None), sha256 of the uc profile JSON
UC_PROFILE_CASES = {
    "open_low_and_high_ends": (
        _open_ends,
        "1e49fd9dda490e3b8a54b1ed2aaf2b2e1f64c20b4bf7c23d994e65cd5f2c8670",
    ),
    "sqrt2_shifted_union": (
        _sqrt2_shifted,
        "144aeea41720267ecd52672c68e38f901d4f9c921cf63fa916825de67dcd26f7",
    ),
    "touching_open_closed_ends": (
        _touching_pieces,
        "8544f0553ff33fb672405c870216ef4cd76b589b1c45ca2a6656409fa20f2010",
    ),
    "mixed_sqrt2_values": (
        _mixed_sqrt2_values,
        "2ad2caa4583212b570de016934378b5e8588db59997d51147efbd5f10f8e307a",
    ),
    "irrational_length": (
        _irrational_length,
        "2c2ea520ce7d0a6c15d1329bc9c090dc40b1ba5c14c0ae7fc127950115ca2890",
    ),
    "fallback_owners": (
        _fallback_owners,
        "76f49b20d413d73b1ac6c97503e147e41d747d46636d2800d335491d2173154c",
    ),
}

# rational and irrational deltas, decreasing
UC_PROFILE_SCHEDULE = (
    qx(1),
    SQRT2 / 2,
    qx(Fraction(1, 2)),
    SQRT2 / 8,
    qx(Fraction(1, 8)),
    qx(Fraction(1, 32)),
    SQRT2 / 64,
    qx(Fraction(1, 256)),
)


@pytest.mark.parametrize("name", sorted(UC_PROFILE_CASES))
def test_uc_profile_json_pinned(name):
    build, digest = UC_PROFILE_CASES[name]
    ambient, f, _ = build()
    config = AnalysisConfig(delta_schedule=UC_PROFILE_SCHEDULE, grid_exponent=5)
    profile = modulus_profile(ambient, f, config, "uc")
    assert profile.sampled and all(res.witness for _, res in profile.rows)
    text = json.dumps(profile.to_json(), indent=1)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text
