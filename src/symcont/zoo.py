"""Catalog of worked models separating the four continuity notions.

Each entry builds one or more concrete (domain, function) cases, classifies
them, re-verifies the exact refuting sequences attached to the case, and
compares everything against the expected outcome recorded here. Entries whose
domain is a finite snapshot of an infinite family carry `family_scope`: their
verified sequences extend past any truncation, so they override a clean
model-scope verdict with a `sequence` refutation.

The registry keys (ex-2.4, ex-2.5, ...) are stable public identifiers used by
the command line and the reports.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .analysis import (
    AnalysisConfig,
    RefutingSequence,
    Verdict,
    check_consistency,
    check_wrt_subset,
    classify,
    verify_refuting_sequence,
)
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
    _odd_primes_up_to,
    staircase_breakpoints,
)
from .errors import ConfigurationError
from .exactnum import ONE, SQRT2, ZERO, QuadExt, _make, _reduced, format_quadext
from .functions import (
    Affine,
    Combined,
    Const,
    FuncPiece,
    FuncSpec,
    Identity,
    Piecewise,
    Reciprocal,
    describe_function,
)


@dataclass(frozen=True)
class Budget:
    """Model sizes for the catalog; the defaults match the published scales."""

    finite_n: int = 100
    sequence_terms: int = 50
    staircase_blocks: int = 100
    max_prime: int = 1000
    max_n: int = 1000
    max_denominator: int = 200

    @staticmethod
    def small() -> "Budget":
        return Budget(
            finite_n=20,
            sequence_terms=10,
            staircase_blocks=12,
            max_prime=100,
            max_n=100,
            max_denominator=50,
        )


@dataclass
class ExampleCase:
    name: str
    ambient: Domain
    f: FuncSpec
    expected: dict[str, tuple[str, str]]
    sequences: list[RefutingSequence] = field(default_factory=list)
    subset_b: Domain | None = None
    expected_wrt_b: tuple[str, str] | None = None
    family_scope: bool = False
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class PaperExample:
    example_id: str
    title: str
    summary: str
    build: Callable[[Budget], list[ExampleCase]]


_KIND_NOTION = {"usc": "USC", "uc": "UC", "c": "C", "sc": "SC"}


# ---------------------------------------------------------------------------
# shared constructions


def indicator_with_zero(member_domain: Domain) -> Piecewise:
    """1 on the member set, 0 at the adjoined point 0."""
    return Piecewise(
        (
            FuncPiece(member_domain, Const(QuadExt.of(1))),
            FuncPiece(FinitePoints.of(QuadExt.of(0)), Const(QuadExt.of(0))),
        )
    )


def staircase_function(stair: Staircase) -> Piecewise:
    """The step function used on staircases: increasing odd values on variant
    A blocks, alternating +1/-1 on variant B blocks."""
    pieces = []
    for i, block in enumerate(stair.block_pieces(), start=1):
        if stair.variant == "A":
            value = QuadExt.of(2 * i - 1)
        else:
            value = QuadExt.of(1 if i % 2 == 1 else -1)
        pieces.append(FuncPiece(IntervalUnion((block,)), Const(value)))
    return Piecewise(tuple(pieces))


def step_lattice_function(
    lo: int, hi: int, seed: int, segments: int
) -> Piecewise:
    """Reproducible random step function on the integers of [lo, hi]: a seeded
    generator picks the segment cuts and one rational value per segment."""
    if segments < 1 or hi - lo < segments:
        raise ConfigurationError("window too small for the requested segments")
    rng = random.Random(seed)
    cuts = sorted(rng.sample(range(lo + 1, hi + 1), segments - 1))
    bounds = [lo] + cuts + [hi + 1]
    pieces = []
    for i in range(segments):
        region = IntervalUnion(
            (
                IntervalPiece(
                    QuadExt.of(bounds[i]),
                    QuadExt.of(bounds[i + 1]),
                    lo_closed=True,
                    hi_closed=False,
                ),
            )
        )
        value = QuadExt.of(Fraction(rng.randrange(-12, 13), rng.randrange(1, 8)))
        pieces.append(FuncPiece(region, Const(value)))
    return Piecewise(tuple(pieces))


def _interval(lo, hi, lo_closed=True, hi_closed=True) -> IntervalPiece:
    return IntervalPiece(QuadExt.of(lo), QuadExt.of(hi), lo_closed, hi_closed)


_TWO = _make(2, 0, 1)


def _mirror_around_one(n: int) -> tuple[QuadExt, QuadExt]:
    """The pair 1 + 1/(n+1), 1 - 1/(n+1)."""
    return _make(n + 2, 0, n + 1), _make(n, 0, n + 1)


# ---------------------------------------------------------------------------
# entry builders


def _build_2_4(budget: Budget) -> list[ExampleCase]:
    ambient = IntervalUnion((_interval(0, 3, False, True),))
    f = Reciprocal()

    def pair(n: int) -> tuple[QuadExt, QuadExt]:
        return _reduced(3, 0, n), _make(1, 0, n)

    def osc(n: int) -> QuadExt:
        return _reduced(2 * n, 0, 3)

    two_thirds = _make(2, 0, 3)
    seqs = [
        RefutingSequence(
            "usc",
            two_thirds,
            pair,
            osc,
            label="pairs (3/n, 1/n) with midpoint 2/n inside the interval",
        ),
        RefutingSequence(
            "uc",
            two_thirds,
            pair,
            osc,
            label="the same pairs read as plain distance challenges",
        ),
    ]
    return [
        ExampleCase(
            name="main",
            ambient=ambient,
            f=f,
            expected={
                "C": ("proven", "interval_decision"),
                "UC": ("refuted", "interval_decision"),
                "SC": ("proven", "implication"),
                "USC": ("refuted", "interval_decision"),
            },
            sequences=seqs,
        )
    ]


def _build_2_5(budget: Budget) -> list[ExampleCase]:
    ambient = OddPrimeReciprocals(budget.max_prime, with_zero=True)
    f = indicator_with_zero(OddPrimeReciprocals(budget.max_prime, with_zero=False))
    primes = _odd_primes_up_to(budget.max_prime)
    seqs = [
        RefutingSequence(
            "c",
            ONE,
            lambda n: (_make(1, 0, primes[n - 1]), ZERO),
            lambda n: ONE,
            anchor=ZERO,
            n_max=len(primes),
            label="prime reciprocals sliding into the anchor 0 with unit jump",
        )
    ]
    return [
        ExampleCase(
            name="main",
            ambient=ambient,
            f=f,
            expected={
                "C": ("refuted", "flat_modulus"),
                "UC": ("refuted", "implication"),
                "SC": ("proven", "implication"),
                "USC": ("proven", "midpoint_free"),
            },
            sequences=seqs,
            params={"max_prime": budget.max_prime},
        )
    ]


def _build_2_7(budget: Budget) -> list[ExampleCase]:
    ambient = NaturalReciprocals(budget.max_n, with_zero=True)
    f = indicator_with_zero(NaturalReciprocals(budget.max_n, with_zero=False))
    seqs = [
        RefutingSequence(
            "usc",
            ONE,
            lambda n: (_make(1, 0, n), ZERO),
            lambda n: ONE,
            n_max=budget.max_n // 2,
            label="pairs (1/n, 0) whose midpoints 1/(2n) stay in the set",
        ),
        RefutingSequence(
            "c",
            ONE,
            lambda n: (_make(1, 0, n), ZERO),
            lambda n: ONE,
            anchor=ZERO,
            n_max=budget.max_n,
            label="reciprocals sliding into the anchor 0 with unit jump",
        ),
    ]
    return [
        ExampleCase(
            name="main",
            ambient=ambient,
            f=f,
            expected={
                "C": ("refuted", "flat_modulus"),
                "UC": ("refuted", "implication"),
                "SC": ("no_violation", "flat_modulus"),
                "USC": ("refuted", "flat_modulus"),
            },
            sequences=seqs,
            params={"max_n": budget.max_n},
        )
    ]


# (p, q) of the continued-fraction approximants p/q of sqrt2, in lowest terms
_SQRT2_CONVERGENTS = ((7, 5), (17, 12), (41, 29), (99, 70), (239, 169))


def _build_2_8(budget: Budget) -> list[ExampleCase]:
    ambient = TruncatedRationals(
        budget.max_denominator, QuadExt.of(0), QuadExt.of(2), adjoin_sqrt2=True
    )
    rationals = TruncatedRationals(
        budget.max_denominator, QuadExt.of(0), QuadExt.of(2), adjoin_sqrt2=False
    )
    f = Piecewise(
        (
            FuncPiece(rationals, Const(QuadExt.of(1))),
            FuncPiece(FinitePoints.of(SQRT2), Const(SQRT2)),
        )
    )
    conv = [_make(p, 0, q) for p, q in _SQRT2_CONVERGENTS if q <= budget.max_denominator]
    jump = SQRT2 - 1
    seqs = [
        RefutingSequence(
            "c",
            jump,
            lambda n: (conv[n - 1], SQRT2),
            lambda n: jump,
            anchor=SQRT2,
            n_max=len(conv),
            label="continued-fraction approximants closing in on sqrt2 while "
            "the value stays a jump away",
        )
    ]
    return [
        ExampleCase(
            name="main",
            ambient=ambient,
            f=f,
            expected={
                "C": ("refuted", "flat_modulus"),
                "UC": ("refuted", "implication"),
                "SC": ("proven", "implication"),
                "USC": ("proven", "exhaustive_enumeration"),
            },
            sequences=seqs,
            params={"max_denominator": budget.max_denominator},
        )
    ]


def _build_3_2(budget: Budget) -> list[ExampleCase]:
    n_cap = budget.finite_n
    pts = []
    for n in range(1, n_cap + 1):
        # n, n + 1/(2n) and n + 1/n, each numerator prime to its denominator
        pts.append(_make(n, 0, 1))
        pts.append(_make(2 * n * n + 1, 0, 2 * n))
        pts.append(_make(n * n + 1, 0, n))
    ambient = FinitePoints(tuple(pts))
    f = Combined("mul", (Identity(), Identity()))

    def pair(n: int) -> tuple[QuadExt, QuadExt]:
        return _make(n * n + 1, 0, n), _make(n, 0, 1)

    def osc(n: int) -> QuadExt:
        return _make(2 * n * n + 1, 0, n * n)

    seqs = [
        RefutingSequence(
            "usc",
            _TWO,
            pair,
            osc,
            n_max=n_cap,
            label="pairs (n + 1/n, n) with midpoints n + 1/(2n) in the set",
        ),
        RefutingSequence(
            "uc",
            _TWO,
            pair,
            osc,
            n_max=n_cap,
            label="the same pairs read as plain distance challenges",
        ),
    ]
    return [
        ExampleCase(
            name="main",
            ambient=ambient,
            f=f,
            expected={
                "C": ("proven", "uniformly_discrete"),
                "UC": ("refuted", "sequence"),
                "SC": ("proven", "uniformly_discrete"),
                "USC": ("refuted", "sequence"),
            },
            sequences=seqs,
            family_scope=True,
            params={"finite_n": n_cap},
        )
    ]


def _build_3_3(budget: Budget) -> list[ExampleCase]:
    ambient = OddPrimeReciprocals(budget.max_prime, with_zero=True)
    f = Piecewise(
        (
            FuncPiece(
                OddPrimeReciprocals(budget.max_prime, with_zero=False), Reciprocal()
            ),
            FuncPiece(FinitePoints.of(QuadExt.of(0)), Const(QuadExt.of(0))),
        )
    )
    primes = _odd_primes_up_to(budget.max_prime)
    seqs = [
        RefutingSequence(
            "c",
            _make(3, 0, 1),
            lambda n: (_make(1, 0, primes[n - 1]), ZERO),
            lambda n: _make(primes[n - 1], 0, 1),
            anchor=ZERO,
            n_max=len(primes),
            label="values p at 1/p explode while the points slide into 0",
        )
    ]
    return [
        ExampleCase(
            name="main",
            ambient=ambient,
            f=f,
            expected={
                "C": ("refuted", "flat_modulus"),
                "UC": ("refuted", "implication"),
                "SC": ("proven", "implication"),
                "USC": ("proven", "midpoint_free"),
            },
            sequences=seqs,
            params={"max_prime": budget.max_prime},
        )
    ]


def _build_3_5(budget: Budget) -> list[ExampleCase]:
    ambient = IntervalUnion(
        (_interval(0, 1, True, False), _interval(1, 2, True, True))
    )
    f = Piecewise(
        (
            FuncPiece(
                IntervalUnion((_interval(0, 1, True, False),)), Const(QuadExt.of(0))
            ),
            FuncPiece(
                IntervalUnion((_interval(1, 2, True, True),)), Const(QuadExt.of(1))
            ),
        )
    )

    seqs = [
        RefutingSequence(
            "sc",
            ONE,
            _mirror_around_one,
            lambda n: ONE,
            anchor=ONE,
            label="mirror pairs around 1 keep the unit jump",
        ),
        RefutingSequence(
            "uc",
            ONE,
            _mirror_around_one,
            lambda n: ONE,
            label="the same pairs at shrinking distance",
        ),
    ]
    return [
        ExampleCase(
            name="main",
            ambient=ambient,
            f=f,
            expected={
                "C": ("refuted", "interval_decision"),
                "UC": ("refuted", "interval_decision"),
                "SC": ("refuted", "interval_decision"),
                "USC": ("refuted", "interval_decision"),
            },
            sequences=seqs,
        )
    ]


def _build_3_6(budget: Budget) -> list[ExampleCase]:
    half = budget.max_n
    seed = 0
    segments = 12
    ambient = IntegerWindow(-half, half)
    f = step_lattice_function(-half, half, seed, segments)
    expected = {
        notion: ("proven", "uniformly_discrete") for notion in ("C", "UC", "SC", "USC")
    }
    return [
        ExampleCase(
            name="main",
            ambient=ambient,
            f=f,
            expected=expected,
            params={"seed": seed, "segments": segments, "half_width": half},
        )
    ]


def _build_3_7(budget: Budget) -> list[ExampleCase]:
    recips = []
    for n in range(1, budget.max_n + 1):
        recips.append(_make(1, 0, n))
        recips.append(_make(-1, 0, n))
    anchors = IntegerWindow(-5, 5)
    ambient = UnionOf((FinitePoints(tuple(recips)), anchors))
    f = Piecewise(
        (
            FuncPiece(FinitePoints.of(QuadExt.of(0)), Const(QuadExt.of(0))),
            FuncPiece(ambient, Reciprocal()),
        )
    )
    proven = {
        notion: ("proven", "uniformly_discrete") for notion in ("C", "UC", "SC", "USC")
    }
    seqs = [
        RefutingSequence(
            "wrt_b",
            _TWO,
            lambda n: (_make(1, 0, n), _make(-1, 0, n)),
            lambda n: _make(2 * n, 0, 1),
            n_max=budget.max_n,
            label="pairs (1/n, -1/n) centered at the anchor 0",
        )
    ]
    restricted_f = Piecewise(
        (
            FuncPiece(FinitePoints.of(QuadExt.of(0)), Const(QuadExt.of(0))),
            FuncPiece(anchors, Reciprocal()),
        )
    )
    return [
        ExampleCase(
            name="ambient",
            ambient=ambient,
            f=f,
            expected=dict(proven),
            sequences=seqs,
            subset_b=anchors,
            expected_wrt_b=("refuted", "flat_modulus"),
            params={"max_n": budget.max_n},
        ),
        ExampleCase(
            name="restricted-to-anchors",
            ambient=anchors,
            f=restricted_f,
            expected=dict(proven),
        ),
    ]


def _build_3_8(budget: Budget) -> list[ExampleCase]:
    blocks = budget.staircase_blocks
    stair = Staircase("A", blocks)
    f = staircase_function(stair)
    bp = [e for p in stair.block_pieces() for e in (p.lo, p.hi)]
    seqs = [
        RefutingSequence(
            "uc",
            _TWO,
            lambda k: (bp[4 * k - 2], bp[4 * k - 3]),
            lambda k: _TWO,
            n_max=blocks // 2,
            label="facing endpoints across the 1/k gaps jump by 2",
        )
    ]
    return [
        ExampleCase(
            name="main",
            ambient=stair,
            f=f,
            expected={
                "C": ("proven", "interval_decision"),
                "UC": ("refuted", "structural_chain"),
                "SC": ("proven", "implication"),
                "USC": ("no_violation", "flat_modulus"),
            },
            sequences=seqs,
            params={"blocks": blocks},
        )
    ]


def _build_3_9(budget: Budget) -> list[ExampleCase]:
    blocks = budget.staircase_blocks
    stair = Staircase("B", blocks)
    f = staircase_function(stair)
    bp = [e for p in stair.block_pieces() for e in (p.lo, p.hi)]
    seqs = [
        RefutingSequence(
            "usc",
            _TWO,
            lambda n: (bp[2 * n], bp[2 * n - 2]),
            lambda n: _TWO,
            n_max=blocks - 1,
            label="block starts two apart: the midpoint falls back inside "
            "the block between them",
        ),
        RefutingSequence(
            "uc",
            _TWO,
            lambda n: (bp[2 * n], bp[2 * n - 1]),
            lambda n: _TWO,
            n_max=blocks - 1,
            label="facing endpoints across the 1/(2n) gaps jump by 2",
        ),
    ]
    return [
        ExampleCase(
            name="main",
            ambient=stair,
            f=f,
            expected={
                "C": ("proven", "interval_decision"),
                "UC": ("refuted", "structural_chain"),
                "SC": ("proven", "implication"),
                "USC": ("refuted", "flat_modulus"),
            },
            sequences=seqs,
            params={"blocks": blocks},
        )
    ]


def _build_4_3(budget: Budget) -> list[ExampleCase]:
    sep_ambient = IntervalUnion((_interval(0, 1), _interval(2, 3)))
    sep_f = Piecewise(
        (
            FuncPiece(
                IntervalUnion((_interval(0, 1),)),
                Affine(QuadExt.of(1), QuadExt.of(0)),
            ),
            FuncPiece(
                IntervalUnion((_interval(2, 3),)),
                Affine(QuadExt.of(1), QuadExt.of(-2)),
            ),
        )
    )
    touch_ambient = IntervalUnion(
        (_interval(0, 1, False, False), _interval(1, 2, False, False))
    )
    touch_f = Piecewise(
        (
            FuncPiece(
                IntervalUnion((_interval(0, 1, False, False),)), Const(QuadExt.of(1))
            ),
            FuncPiece(
                IntervalUnion((_interval(1, 2, False, False),)), Const(QuadExt.of(2))
            ),
        )
    )

    def sym_straddle(n: int) -> tuple[QuadExt, QuadExt]:
        # 1 + 1/(n+4) and 1 - 3/(n+4); n + 1 and n + 4 share a factor 3 or none
        return _make(n + 5, 0, n + 4), _reduced(n + 1, 0, n + 4)

    touch_seqs = [
        RefutingSequence(
            "uc",
            ONE,
            _mirror_around_one,
            lambda n: ONE,
            label="pairs straddling the touching point at shrinking distance",
        ),
        RefutingSequence(
            "usc",
            ONE,
            sym_straddle,
            lambda n: ONE,
            label="straddling pairs whose midpoints stay inside the left piece",
        ),
    ]
    return [
        ExampleCase(
            name="f-separated",
            ambient=sep_ambient,
            f=sep_f,
            expected={
                "C": ("proven", "interval_decision"),
                "UC": ("proven", "interval_decision"),
                "SC": ("proven", "implication"),
                "USC": ("proven", "interval_decision"),
            },
        ),
        ExampleCase(
            name="g-touching",
            ambient=touch_ambient,
            f=touch_f,
            expected={
                "C": ("proven", "interval_decision"),
                "UC": ("refuted", "interval_decision"),
                "SC": ("proven", "implication"),
                "USC": ("refuted", "interval_decision"),
            },
            sequences=touch_seqs,
        ),
    ]


_REGISTRY: dict[str, PaperExample] = {}


def _register(example_id: str, title: str, summary: str, build) -> None:
    _REGISTRY[example_id] = PaperExample(example_id, title, summary, build)


_register(
    "ex-2.4",
    "Reciprocal on a half-open interval",
    "1/x on (0, 3] is continuous at every point but has no uniform modulus: "
    "pairs sliding into the open end oscillate without bound, and their "
    "midpoints stay inside the interval, so the uniform symmetric notion "
    "fails the same way.",
    _build_2_4,
)
_register(
    "ex-2.5",
    "Indicator of odd-prime reciprocals",
    "On {0} union {1/p : p an odd prime} the indicator of the reciprocals "
    "jumps at 0, yet no symmetric pair of set points has its midpoint back "
    "in the set, so the uniform symmetric notion holds vacuously.",
    _build_2_5,
)
_register(
    "ex-2.7",
    "Indicator on reciprocals of naturals",
    "Replacing primes by all naturals restores midpoints: (1/n, 0) is "
    "centered at 1/(2n), so the same kind of indicator now fails the "
    "uniform symmetric notion at a flat unit oscillation.",
    _build_2_7,
)
_register(
    "ex-2.8",
    "Bounded-denominator rationals with sqrt2 adjoined",
    "The function is 1 on the rationals and sqrt2 at sqrt2. Continuity "
    "fails at sqrt2 along its rational approximants, but any symmetric pair "
    "mixing a rational with sqrt2 needs a midpoint with an irrational part "
    "of one half, which the set never contains: the uniform symmetric "
    "notion holds by exhaustion.",
    _build_2_8,
)
_register(
    "ex-3.2",
    "Square function on sparse triples",
    "On the set {n, n + 1/(2n), n + 1/n} the square function is continuous "
    "(every finite model is uniformly discrete), yet the family pairs "
    "(n + 1/n, n) are centered at n + 1/(2n) and oscillate by more than 2 "
    "forever, refuting both uniform notions beyond any truncation.",
    _build_3_2,
)
_register(
    "ex-3.3",
    "Unbounded reciprocal on prime reciprocals",
    "f(1/p) = p and f(0) = 0 is unbounded and discontinuous at 0, yet the "
    "set is midpoint-free, so the uniform symmetric notion still holds: "
    "uniform symmetric continuity does not imply boundedness here.",
    _build_3_3,
)
_register(
    "ex-3.5",
    "Jump limit of flattening monomials",
    "x^N on [0, 1) with a constant tail on [1, 2] converges pointwise to a "
    "step with a jump at 1; the limit fails all four notions, every member "
    "is uniformly continuous, and the sup distance to the limit stays at 1, "
    "so no uniform transfer of moduli is available.",
    _build_3_5,
)
_register(
    "ex-3.6",
    "Seeded step lattice on integers",
    "A reproducible random step function on the integers of a window: the "
    "unit gap isolates every point, so all four notions hold regardless of "
    "the values drawn.",
    _build_3_6,
)
_register(
    "ex-3.7",
    "Reciprocal against integer anchors",
    "The ambient set (reciprocals of naturals, their negatives, and a small "
    "integer window) is uniformly discrete, so every plain notion holds. "
    "Restricting the symmetric centers to the integers pairs 1/n with -1/n "
    "through the anchor 0, where the odd reciprocal oscillates by 2n: the "
    "anchored uniform symmetric notion fails at a flat modulus.",
    _build_3_7,
)
_register(
    "ex-3.8",
    "Staircase with midpoints caught in gaps",
    "Closed blocks with strictly shrinking gaps and steps of size 2: facing "
    "endpoints refute uniform continuity along the gap chain, but every "
    "candidate cross-block midpoint lands inside a gap, so the uniform "
    "symmetric notion shows no violation at any resolution.",
    _build_3_8,
)
_register(
    "ex-3.9",
    "Staircase with midpoints inside blocks",
    "Harmonic block widths with gaps shorter than the preceding block: "
    "block starts two apart are centered back inside the block between "
    "them, so the alternating step now fails the uniform symmetric notion "
    "at a flat oscillation of 2.",
    _build_3_9,
)
_register(
    "ex-4.3",
    "Affine pieces: separated versus touching closures",
    "Two closed intervals with a positive gap keep every notion even with a "
    "value jump across the gap; two open intervals whose closures touch at "
    "a point with a jump lose both uniform notions to pairs straddling the "
    "touching point.",
    _build_4_3,
)


def list_ids() -> list[str]:
    return list(_REGISTRY)


def get_example(example_id: str) -> PaperExample:
    if example_id not in _REGISTRY:
        raise ConfigurationError(f"unknown example id {example_id!r}")
    return _REGISTRY[example_id]


def build_example(example_id: str, budget: Budget | None = None) -> list[ExampleCase]:
    return get_example(example_id).build(budget or Budget())


# ---------------------------------------------------------------------------
# running and reporting


@dataclass
class CaseReport:
    example_id: str
    case: str
    domain: str
    function: str
    params: dict
    verdicts: dict[str, Verdict]
    wrt_b: Verdict | None
    sequence_reports: list[dict]
    consistency: list[str]
    mismatches: list[str]

    @property
    def ok(self) -> bool:
        return not self.mismatches and not self.consistency

    def to_json(self) -> dict:
        return {
            "example": self.example_id,
            "case": self.case,
            "domain": self.domain,
            "function": self.function,
            "params": dict(self.params),
            "verdicts": {k: v.to_json() for k, v in self.verdicts.items()},
            "wrt_b": None if self.wrt_b is None else self.wrt_b.to_json(),
            "sequences": list(self.sequence_reports),
            "consistency": list(self.consistency),
            "mismatches": list(self.mismatches),
            "ok": self.ok,
        }


@dataclass
class ZooReport:
    cases: list[CaseReport]
    relations: list[dict]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.cases) and all(
            r["confirmed"] for r in self.relations
        )

    def to_json(self) -> dict:
        return {
            "cases": [c.to_json() for c in self.cases],
            "relations": list(self.relations),
            "ok": self.ok,
        }


def _sequence_witness(seq: RefutingSequence, checked: int) -> dict:
    terms = []
    for n_i in range(1, min(5, checked) + 1):
        x, y = seq.term(n_i)
        terms.append(
            {
                "x": format_quadext(x),
                "y": format_quadext(y),
                "osc": format_quadext(seq.claimed(n_i)),
            }
        )
    return {
        "kind": "sequence",
        "label": seq.label,
        "epsilon": format_quadext(seq.epsilon),
        "terms_verified": checked,
        "terms": terms,
    }


def run_case(
    example_id: str,
    case: ExampleCase,
    config: AnalysisConfig,
    budget: Budget,
) -> CaseReport:
    """Classify one case and re-check its refuting sequences exactly, on one
    point table kept for this call only (see verify_refuting_sequence)."""
    verdicts = classify(case.ambient, case.f, config)
    seq_reports = []
    points: dict = {}
    for seq in case.sequences:
        n_check = min(budget.sequence_terms, config.max_pairs)
        if seq.n_max is not None:
            n_check = min(n_check, seq.n_max)
        centers = case.subset_b if seq.kind == "wrt_b" else None
        rep = verify_refuting_sequence(case.ambient, case.f, seq, n_check, centers, points=points)
        overrode = False
        if (
            case.family_scope
            and rep.ok
            and rep.terms_checked > 0
            and seq.kind in _KIND_NOTION
        ):
            notion = _KIND_NOTION[seq.kind]
            base = verdicts[notion]
            if base.status != "refuted":
                verdicts[notion] = Verdict(
                    notion,
                    "refuted",
                    "sequence",
                    "truncation",
                    witness=_sequence_witness(seq, rep.terms_checked),
                    resolution=dict(base.resolution),
                    notes=[
                        f"the finite model alone is {base.status} by "
                        f"{base.method}; the verified family sequence refutes "
                        "the notion beyond any truncation"
                    ],
                )
                overrode = True
        seq_reports.append(
            {
                "kind": seq.kind,
                "label": seq.label,
                "ok": rep.ok,
                "terms_checked": rep.terms_checked,
                "failure": rep.failure,
                "overrode_model_verdict": overrode,
            }
        )
    wrt_b = None
    if case.subset_b is not None and case.expected_wrt_b is not None:
        wrt_b = check_wrt_subset(case.ambient, case.f, case.subset_b, config)
    consistency = check_consistency(verdicts)
    mismatches = []
    for notion, (status, method) in case.expected.items():
        v = verdicts[notion]
        if (v.status, v.method) != (status, method):
            mismatches.append(
                f"{notion}: expected {status}/{method}, got {v.status}/{v.method}"
            )
    if case.expected_wrt_b is not None and wrt_b is not None:
        if (wrt_b.status, wrt_b.method) != case.expected_wrt_b:
            mismatches.append(
                f"USC_wrt_B: expected {case.expected_wrt_b[0]}/"
                f"{case.expected_wrt_b[1]}, got {wrt_b.status}/{wrt_b.method}"
            )
    for sr in seq_reports:
        if not sr["ok"]:
            mismatches.append(
                f"sequence ({sr['kind']}) failed: {sr['failure']}"
            )
    return CaseReport(
        example_id=example_id,
        case=case.name,
        domain=case.ambient.describe(),
        function=describe_function(case.f),
        params=case.params,
        verdicts=verdicts,
        wrt_b=wrt_b,
        sequence_reports=seq_reports,
        consistency=consistency,
        mismatches=mismatches,
    )


def run_example(
    example_id: str,
    config: AnalysisConfig | None = None,
    budget: Budget | None = None,
) -> list[CaseReport]:
    config = config or AnalysisConfig()
    budget = budget or Budget()
    return [
        run_case(example_id, case, config, budget)
        for case in build_example(example_id, budget)
    ]


_RELATIONS = (
    (
        "uc-implies-c-strict",
        "uniform continuity implies pointwise continuity, and not conversely",
        (
            ("ex-2.4", "main", "C", "proven"),
            ("ex-2.4", "main", "UC", "refuted"),
        ),
    ),
    (
        "c-implies-sc-strict",
        "pointwise continuity implies symmetric continuity, and not conversely",
        (
            ("ex-2.5", "main", "SC", "proven"),
            ("ex-2.5", "main", "C", "refuted"),
        ),
    ),
    (
        "usc-implies-sc-strict",
        "uniform symmetric continuity implies symmetric continuity, and not "
        "conversely",
        (
            ("ex-2.4", "main", "SC", "proven"),
            ("ex-2.4", "main", "USC", "refuted"),
        ),
    ),
    (
        "uc-implies-usc-strict",
        "uniform continuity implies uniform symmetric continuity, and not "
        "conversely",
        (
            ("ex-2.5", "main", "USC", "proven"),
            ("ex-2.5", "main", "UC", "refuted"),
        ),
    ),
    (
        "c-usc-incomparable",
        "pointwise continuity and uniform symmetric continuity do not imply "
        "each other",
        (
            ("ex-2.4", "main", "C", "proven"),
            ("ex-2.4", "main", "USC", "refuted"),
            ("ex-2.5", "main", "USC", "proven"),
            ("ex-2.5", "main", "C", "refuted"),
        ),
    ),
)


def run_all(
    config: AnalysisConfig | None = None, budget: Budget | None = None
) -> ZooReport:
    config = config or AnalysisConfig()
    budget = budget or Budget()
    cases: list[CaseReport] = []
    for example_id in list_ids():
        cases.extend(run_example(example_id, config, budget))
    index = {(c.example_id, c.case): c for c in cases}
    relations = []
    for rel_id, statement, requirements in _RELATIONS:
        checks = []
        confirmed = True
        for ex_id, case_name, notion, required in requirements:
            verdict = index[(ex_id, case_name)].verdicts[notion]
            holds = verdict.status == required
            confirmed = confirmed and holds
            checks.append(
                {
                    "example": ex_id,
                    "case": case_name,
                    "notion": notion,
                    "required": required,
                    "actual": verdict.status,
                    "holds": holds,
                }
            )
        relations.append(
            {
                "relation": rel_id,
                "statement": statement,
                "checks": checks,
                "confirmed": confirmed,
            }
        )
    return ZooReport(cases, relations)


# ---------------------------------------------------------------------------
# standalone arithmetic verifiers


def midpoint_exclusion_primes(max_prime: int) -> dict:
    """Exhaustively confirm that the odd-prime-reciprocal set (with 0) is
    midpoint-free: no pair of distinct points has its midpoint in the set."""
    primes = _odd_primes_up_to(max_prime)
    prime_set = frozenset(primes)
    violations: list[str] = []
    pairs = 0
    for i, p in enumerate(primes):
        for q in primes[i + 1 :]:
            pairs += 1
            mid = Fraction(p + q, 2 * p * q)
            if mid.numerator == 1 and mid.denominator in prime_set:
                violations.append(f"1/{p}, 1/{q}")
        pairs += 1
        mid = Fraction(1, 2 * p)
        if mid.numerator == 1 and mid.denominator in prime_set:
            violations.append(f"1/{p}, 0")
    return {
        "max_prime": max_prime,
        "points": len(primes) + 1,
        "pairs_checked": pairs,
        "violations": violations,
        "midpoint_free": not violations,
    }


def midpoint_contrast_naturals(max_n: int) -> dict:
    """For every n, the pair (1/n, 1/(n(2n-1))) is centered at 1/(2n-1), a
    point of the natural-reciprocal family: the midpoint exclusion that
    protects the prime model fails as soon as all naturals are allowed."""
    confirmed = 0
    failures: list[int] = []
    for n in range(1, max_n + 1):
        x = Fraction(1, n)
        y = Fraction(1, n * (2 * n - 1))
        mid = (x + y) / 2
        if mid == Fraction(1, 2 * n - 1) and mid.numerator == 1:
            confirmed += 1
        else:
            failures.append(n)
    return {
        "max_n": max_n,
        "confirmed": confirmed,
        "failures": failures,
        "all_in_family": not failures,
    }


def verify_staircase_proof(variant: str, blocks: int, k_max: int) -> dict:
    """Exact structural facts behind the staircase verdicts.

    Variant A (1-based breakpoints a_1..a_{2*blocks}): for k <= k_max, the
    gap after each even block is exactly 1 (a_{4k+1} - a_{4k} = 1); skip-pair
    midpoints fall strictly inside gaps; the facing pair (a_{4k-2}, a_{4k-1})
    sits at distance exactly 1/k and the step values jump by exactly 2.

    Variant B: the pair of block starts (a_{2n-1}, a_{2n+1}) is centered
    strictly inside block n, at distance (1/(2n-1) + 1/(2n))/2, and the
    alternating step jumps by exactly 2; checked for n <= k_max.
    """
    if variant not in ("A", "B"):
        raise ConfigurationError(f"unknown staircase variant {variant!r}")
    bp = staircase_breakpoints(variant, blocks)
    report: dict = {"variant": variant, "blocks": blocks, "k_max": k_max}
    if variant == "A":
        if 4 * k_max > len(bp) - 1:
            raise ConfigurationError(
                f"variant A with {blocks} blocks supports k_max <= "
                f"{(len(bp) - 1) // 4}"
            )
        unit_gaps = all(bp[4 * k] - bp[4 * k - 1] == 1 for k in range(1, k_max + 1))
        midpoints_in_gaps = all(
            (bp[4 * k - 4] + bp[4 * k - 2]) / 2 > bp[4 * k - 3]
            and (bp[4 * k - 3] + bp[4 * k - 1]) / 2 < bp[4 * k - 2]
            for k in range(1, k_max + 1)
        )
        chain_ok = True
        for k in range(1, k_max + 1):
            dist = bp[4 * k - 2] - bp[4 * k - 3]
            v_left = 2 * (2 * k - 1) - 1
            v_right = 2 * (2 * k) - 1
            if dist != Fraction(1, k) or abs(v_right - v_left) != 2:
                chain_ok = False
                break
        report.update(
            {
                "unit_gaps": unit_gaps,
                "skip_midpoints_in_gaps": midpoints_in_gaps,
                "chain_ok": chain_ok,
                "all_ok": unit_gaps and midpoints_in_gaps and chain_ok,
            }
        )
    elif variant == "B":
        if k_max > blocks - 1:
            raise ConfigurationError(
                f"variant B with {blocks} blocks supports k_max <= {blocks - 1}"
            )
        midpoints_ok = True
        osc_ok = True
        prev_h = None
        shrinking = True
        for n in range(1, k_max + 1):
            x, y = bp[2 * n], bp[2 * n - 2]
            mid = (x + y) / 2
            if not (bp[2 * n - 2] < mid < bp[2 * n - 1]):
                midpoints_ok = False
                break
            v_n = 1 if n % 2 == 1 else -1
            v_next = 1 if (n + 1) % 2 == 1 else -1
            if abs(v_next - v_n) != 2:
                osc_ok = False
                break
            h = (x - y) / 2
            if prev_h is not None and not h < prev_h:
                shrinking = False
                break
            prev_h = h
        report.update(
            {
                "midpoints_inside_blocks": midpoints_ok,
                "osc_exactly_two": osc_ok,
                "scales_shrinking": shrinking,
                "all_ok": midpoints_ok and osc_ok and shrinking,
            }
        )
    return report
