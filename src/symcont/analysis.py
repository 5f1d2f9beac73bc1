"""Exact classification of continuity notions on representable domains.

Four notions are decided for a function f on a domain A:

* C    pointwise continuity on A,
* UC   uniform continuity on A,
* SC   symmetric continuity on A (f(a+h) - f(a-h) -> 0 at every a in A over
       mirror pairs that stay inside A), and
* USC  uniform symmetric continuity on A (one delta serves every valid
       symmetric pair).

Verdicts are `proven`, `refuted`, or `no_violation` (nothing found at the
probed resolution). Proofs carry certificates; refutations carry exact
witnesses. Domains that are finite truncations of infinite families get
`truncation` scope: every reported pair is a real member of the set, but the
verdict extrapolates the observed non-decay pattern past the model floor.

The refutation engine is a flat-modulus rule: compute the relevant oscillation
sup at every schedule delta at which challenges exist, and refute only when
that sup is the same positive value at the largest and the smallest effective
delta (the sup is monotone in delta, so this means it never decays before the
challenges run out). Decaying moduli never refute; empty challenge sets prove
vacuously; everything else stays `no_violation`.
"""

from __future__ import annotations

import bisect
import itertools
from collections import deque
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from operator import itemgetter, sub
from typing import Callable, Iterable, Iterator, Sequence

from .domains import (
    Domain,
    Enumeration,
    IntervalPiece,
    IntervalUnion,
    Staircase,
    SymmetricPair,
    _IndexKeys,
    exact_ceil,
    exact_floor,
)
from .errors import ConfigurationError, DomainError
from .exactnum import QuadExt, _make, _reduced, as_quadext, format_quadext
from .functions import (
    Affine,
    Const,
    Formula,
    FuncSpec,
    Identity,
    Monomial,
    Reciprocal,
    SideLimit,
    _analytic_pieces,
    _as_affine,
    _evaluate_many,
    _side_limit,
    _side_tiles,
    describe_function,
    evaluate,
    formula_eval,
    is_piecewise_constant,
    sup_abs_diff,
    tile_formulas,
)

NOTIONS = ("C", "UC", "SC", "USC")

# pair surveys on sampled continua cap the grid to keep pair counts sane
_SYM_SAMPLE_EXPONENT_CAP = 7

# largest accepted grid exponent: a sampled sweep builds 2**grid_exponent + 1
# points per interval piece, so this bounds one piece's grid at 65 537 points
GRID_EXPONENT_MAX = 16

# largest sampled probe, in points over all interval pieces: one full grid at
# GRID_EXPONENT_MAX fits, while many pieces at a large exponent exit 2 before
# any point is built instead of growing with the piece count
PROBE_POINTS_MAX = 100_000

# largest common denominator L, in bits, over which numbers are lifted to
# integer keys: each key holds about as many bits as L, and the L of a
# listing of reciprocals grows with the listing, so past this the exact
# numbers serve as keys instead
LIFT_BITS_MAX = 4096


# longest delta schedule a spec file or --delta-schedule may ask for: each
# entry is one more profile row and window scan, and classify on 27 000
# listed rationals took 0.5 s at 64 entries and 18 s at 1 024 (2-vCPU Xeon,
# Python 3.11). Library callers may pass longer schedules.
DELTA_SCHEDULE_MAX = 64


def _checked_schedule(entries: Iterable) -> tuple[QuadExt, ...]:
    sched = tuple(as_quadext(d) for d in entries)
    if not sched:
        raise ConfigurationError("delta schedule must not be empty")
    for d in sched:
        if d.sign() <= 0:
            raise ConfigurationError("delta schedule entries must be positive")
    for a, b in zip(sched, sched[1:]):
        if not b < a:
            raise ConfigurationError("delta schedule must strictly decrease")
    return sched


# 1, 1/2, ..., 1/2**20, built and checked once and shared by every config
# that does not set its own schedule
_DEFAULT_DELTA_SCHEDULE = _checked_schedule(_make(1, 0, 1 << j) for j in range(21))


def default_delta_schedule() -> tuple[QuadExt, ...]:
    return _DEFAULT_DELTA_SCHEDULE


@dataclass(frozen=True)
class AnalysisConfig:
    delta_schedule: tuple[QuadExt, ...] = field(default_factory=default_delta_schedule)
    grid_exponent: int = 10
    max_pairs: int = 1_000_000
    enum_limit: int = 100_000
    seed: int = 0
    output_format: str = "text"

    def __post_init__(self) -> None:
        if self.delta_schedule is not _DEFAULT_DELTA_SCHEDULE:
            object.__setattr__(
                self, "delta_schedule", _checked_schedule(self.delta_schedule)
            )
        if self.grid_exponent < 1:
            raise ConfigurationError("grid exponent must be at least 1")
        if self.grid_exponent > GRID_EXPONENT_MAX:
            raise ConfigurationError(
                f"grid exponent must be at most {GRID_EXPONENT_MAX}"
            )
        if self.max_pairs < 0:
            raise ConfigurationError("max_pairs must be nonnegative")
        if self.enum_limit < 1:
            raise ConfigurationError("enum_limit must be at least 1")
        if self.output_format not in ("text", "json"):
            raise ConfigurationError("output format must be text or json")


@dataclass
class Verdict:
    notion: str
    status: str  # proven | refuted | no_violation
    method: str
    scope: str  # full | truncation
    certificate: dict | None = None
    witness: dict | None = None
    resolution: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "notion": self.notion,
            "status": self.status,
            "method": self.method,
            "scope": self.scope,
            "certificate": self.certificate,
            "witness": self.witness,
            "resolution": self.resolution,
            "notes": list(self.notes),
        }


@dataclass
class OscillationResult:
    value: QuadExt | None  # None when no challenge exists below delta
    witness: tuple[QuadExt, QuadExt] | None
    challenges: int
    truncated: bool


@dataclass
class ModulusProfile:
    notion: str
    rows: list[tuple[QuadExt, OscillationResult]]
    points: int
    sampled: bool
    truncated: bool

    def to_json(self) -> dict:
        return {
            "notion": self.notion,
            "points": self.points,
            "sampled": self.sampled,
            "truncated": self.truncated,
            "rows": _profile_rows_json(self.rows, with_witness=True),
        }


def _fmt(x: QuadExt | None) -> str | None:
    return None if x is None else format_quadext(x)


def _pair_json(x: QuadExt, y: QuadExt, osc: QuadExt | None = None) -> dict:
    out = {
        "x": format_quadext(x),
        "y": format_quadext(y),
        "h": format_quadext((x - y) / 2),
        "midpoint": format_quadext((x + y) / 2),
    }
    if osc is not None:
        out["osc"] = format_quadext(osc)
    return out


def _resolution(
    config: AnalysisConfig,
    *,
    points: int | None = None,
    enumeration_truncated: bool | None = None,
    pairs_checked: int | None = None,
) -> dict:
    out = {
        "delta_max": format_quadext(config.delta_schedule[0]),
        "delta_min": format_quadext(config.delta_schedule[-1]),
        "delta_count": len(config.delta_schedule),
        "grid_exponent": config.grid_exponent,
        "enum_limit": config.enum_limit,
        "max_pairs": config.max_pairs,
    }
    if points is not None:
        out["points"] = points
    if enumeration_truncated is not None:
        out["enumeration_truncated"] = enumeration_truncated
    if pairs_checked is not None:
        out["pairs_checked"] = pairs_checked
    return out


def _open_verdict(notion: str, res: dict, note: str) -> Verdict:
    """A flat-modulus search that neither refuted nor proved the notion at
    this resolution."""
    return Verdict(
        notion, "no_violation", "flat_modulus", "truncation", resolution=res, notes=[note]
    )


def _flat_verdict(notion: str, res: dict, witness: dict, note: str) -> Verdict:
    """A flat-modulus refutation: the oscillation never decays in the model."""
    return Verdict(
        notion,
        "refuted",
        "flat_modulus",
        "truncation",
        witness=witness,
        resolution=res,
        notes=[note],
    )


def _zero_verdict(notion: str, res: dict, pairs_checked: int, note: str) -> Verdict:
    """Every listed pair oscillates by exactly zero."""
    return Verdict(
        notion,
        "proven",
        "exhaustive_enumeration",
        "truncation",
        certificate={
            "kind": "exhaustive_enumeration",
            "pairs_checked": pairs_checked,
            "max_osc": "0",
        },
        resolution=res,
        notes=[note],
    )


def _midpoint_free_verdict(
    notion: str, res: dict, pairs_checked: int, note: str
) -> Verdict:
    """No challenge exists at any scale."""
    return Verdict(
        notion,
        "proven",
        "midpoint_free",
        "truncation",
        certificate={"kind": "midpoint_free", "pairs_checked": pairs_checked},
        resolution=res,
        notes=[note],
    )


def _probe_points(
    domain: Domain, config: AnalysisConfig, *, for_pairs: bool
) -> tuple[
    Sequence[QuadExt], list[tuple[IntervalPiece, tuple, int]] | None, int, bool
]:
    """(points, runs, size, enumeration_truncated), points ascending, size
    the number of points the probe holds.

    An enumerable domain is listed and has no runs (None). For pairs (a usc
    survey) only the prefix of the listing that a survey can reach is
    listed: the fewest points with more than max_pairs candidates. size and
    the truncation flag then come from Domain.count, which builds no point.
    A continuum is sampled: runs holds (piece, parts, n) for each analytic
    piece, whose grid is lo + (length/n)*k over the integers k of the parts
    (IntervalPiece.grid_indices). The pieces are sorted and pairwise
    disjoint (two pieces sharing an endpoint leave it open on one side), so
    the runs concatenate into the sorted points. When the pieces share one
    sqrt2 part and have rational lengths, the points are the integer keys
    X_lo + k*S of _index_keys, each computed only when its position is
    read; their stretches hold each piece's equispaced run, the middle
    part, of three points or more. Otherwise each piece's grid is built.
    A probe of more than PROBE_POINTS_MAX points raises ConfigurationError."""
    if domain.enumerable:
        limit = config.enum_limit
        if for_pairs:
            size, truncated = domain.count(limit)
            head = (isqrt(8 * config.max_pairs + 1) + 1) // 2 + 1
            return domain.enumerate(min(head, limit)).points, None, size, truncated
        en = domain.enumerate(limit)
        return en.points, None, len(en.points), en.truncated
    exponent = config.grid_exponent
    if for_pairs:
        exponent = min(exponent, _SYM_SAMPLE_EXPONENT_CAP)
    pieces = _analytic_pieces(domain)
    runs = [(piece, *piece.grid_indices(exponent)) for piece in pieces]
    size = sum(len(ks) for _, parts, _ in runs for ks in parts)
    if size > PROBE_POINTS_MAX:
        raise ConfigurationError(
            f"sampled probe of {size} points exceeds the limit of "
            f"{PROBE_POINTS_MAX}: lower the grid exponent or the piece count"
        )
    pts = None
    if all(p.length.is_rational() for p in pieces):
        pts = _index_keys(
            [(p.lo, Fraction(p.length.a, p.length.d * n), parts) for p, parts, n in runs]
        )
    if pts is None:
        pts = tuple(itertools.chain.from_iterable(p.grid(exponent) for p in pieces))
    else:
        at = 0
        for _, (low, run, high), _ in runs:
            if len(run) >= 3:
                pts.stretches.append((at + len(low), at + len(low) + len(run)))
            at += len(low) + len(run) + len(high)
    return pts, runs, size, False


def _probe_values(
    f: FuncSpec,
    pts: Sequence[QuadExt],
    runs: list[tuple[IntervalPiece, tuple, int]] | None,
) -> Sequence[QuadExt]:
    """f at every probe point.

    When the points of a sampled probe are integer keys (_LiftedNumbers)
    and one formula owns each piece by first match (tile_formulas, which
    asks _OwnerIndex.tile_owners), each run is valued with the formula
    owning its piece. When every owner is affine (Const, Identity or Affine)
    with a rational change slope*step per grid step, the values are integer
    keys too: f(lo) + (slope*step)*k over the run's k, by _index_keys, and
    neither a point nor a value is built until it is read. Such values also
    record the points' equispaced stretches: on each piece's run between its
    open-end refinements both keys then step by one constant, which lets
    _uc_rows and the usc survey scan only the ends of the run (_thin). Every
    other probe is valued by _evaluate_many and has no stretches."""
    owners = None
    if isinstance(pts, _LiftedNumbers):
        try:
            owners = [fm for _, fm in tile_formulas(f, tuple(p for p, _, _ in runs))]
        except ConfigurationError:
            pass
    if owners is not None:
        progressions = []
        for (piece, parts, n), fm in zip(runs, owners):
            aff = _as_affine(fm)
            dv = None if aff is None else aff.slope * piece.length / n
            if dv is None or not dv.is_rational():
                break
            progressions.append((aff.slope * piece.lo + aff.intercept, dv.rat, parts))
        else:
            vals = _index_keys(progressions)
            if vals is not None:
                vals.stretches = pts.stretches
                return vals
    return _evaluate_many(f, pts)


def _thin(
    stretches: Sequence[tuple[int, int]], keys: Sequence[int], reach: int
) -> tuple[list[range], list[tuple[int, int, int]]] | None:
    """The probe positions a scan or survey at the reach key R needs (a pair
    is within reach when its key distance is below R), as ascending ranges,
    and (S, m, K) per thinned stretch; None when no stretch thins.

    In a stretch whose keys step by S and whose values step by one
    constant, a pair d positions apart has width d*S and the same
    oscillation wherever it lies, and it is within reach when
    d <= m = (R - 1)//S. When K = L - 2(m + 1) >= max(m, 1) of the L
    points lie between the first and the last m + 1, those K are dropped:
    every pair they take part in repeats the (width, oscillation) of a pair
    of the first m + 1 points, found earlier, and a pair reaching across
    either end of the stretch has its stretch point among the m + 1 kept
    there."""
    spans, thinned, at = [], [], 0
    for a, b in stretches:
        step = keys[a + 1] - keys[a]
        m = (reach - 1) // step
        k = b - a - 2 * (m + 1)
        if k >= max(m, 1):
            spans.append(range(at, a + m + 1))
            at = b - m - 1
            thinned.append((step, m, k))
    if not thinned:
        return None
    spans.append(range(at, len(keys)))
    return spans, thinned


def _skipped_pairs(thinned: Sequence[tuple[int, int, int]], cut: int) -> int:
    """The pairs of key distance below cut that _thin dropped: per stretch,
    K*m_c + m_c*(m_c + 1)/2 with m_c = min(m, (cut - 1)//S)."""
    total = 0
    for step, m, k in thinned:
        mc = min(m, (cut - 1) // step)
        total += k * mc + mc * (mc + 1) // 2
    return total


@dataclass
class _Survey:
    candidates_checked: int
    truncated: bool
    # (W, O, j, i) per surveyed pair x = points[j] > y = points[i]: the key
    # of the width 2h and the key of the oscillation |f(x) - f(y)|, in
    # sort_key order (W, then j)
    entries: list[tuple]
    points: Sequence[QuadExt]
    # the key of 2*delta for each schedule delta, read against W
    cuts: list

    @cached_property
    def pairs(self) -> list[SymmetricPair]:
        return [SymmetricPair(self.points[j], self.points[i]) for *_, j, i in self.entries]


def _sum_ranges(
    pieces: Sequence[IntervalPiece], den: int, c: Fraction
) -> tuple[list[int], list[int]]:
    """Per piece, the least and greatest integer S with S/(2L) + c*sqrt2 in
    the piece (empty ranges dropped), ascending: for a real bound
    r = 2L*(end - c*sqrt2), S >= r is S >= ceil(r), S > r is S >= floor(r) + 1,
    S <= r is S <= floor(r) and S < r is S <= ceil(r) - 1."""
    shift = QuadExt(0, c)
    los, his = [], []
    for p in pieces:
        lo = 2 * den * (p.lo - shift)
        hi = 2 * den * (p.hi - shift)
        s_lo = exact_ceil(lo) if p.lo_closed else exact_floor(lo) + 1
        s_hi = exact_floor(hi) if p.hi_closed else exact_ceil(hi) - 1
        if s_lo <= s_hi:
            los.append(s_lo)
            his.append(s_hi)
    return los, his


def _convex_runs(pieces: Sequence[IntervalPiece]) -> list[IntervalPiece]:
    """The maximal intervals of a union of sorted disjoint pieces: a chain
    of pieces, each meeting the next at an endpoint that one of the two
    holds, is one interval. Two pieces that meet at an endpoint neither
    holds leave a hole there and are two runs."""
    runs: list[IntervalPiece] = []
    for p in pieces:
        last = runs[-1] if runs else None
        if last is not None and last.hi == p.lo and (last.hi_closed or p.lo_closed):
            runs[-1] = IntervalPiece(last.lo, p.hi, last.lo_closed, p.hi_closed)
        else:
            runs.append(p)
    return runs


def _pairs_from_points(
    pts: Sequence[QuadExt],
    vals: Sequence[QuadExt],
    centers: Domain | None,
    schedule: tuple[QuadExt, ...],
    max_pairs: int,
    already_truncated: bool = False,
) -> _Survey:
    """The challenge entries of the pairs x > y of the sorted points whose
    midpoint lies in centers and whose width is below 2*schedule[0] (any
    width for an empty schedule), vals holding f at each point. Candidates
    run x ascending and, for each x, y descending from its neighbour; the
    scan stops after max_pairs of them, marking the survey truncated.

    One loop serves every kind of key of _keys, which also gives the key of
    2*delta for each schedule delta (the first is the width cap). Each pair
    found becomes its entry (X_j - X_i, |V_j - V_i|, j, i) in the loop, x
    ascending, so one stable sort by the width key puts the entries in
    sort_key order. Midpoints are decided inline:

    * interval-union centers: the pieces form convex runs (_convex_runs),
      and the points of one run are consecutive. A pair inside one run has
      its midpoint in that run and takes no test; only pairs across runs,
      or with a point outside every run, are tested.
    * such a test on points X_k/L + c*sqrt2 (_lift_rationals): the midpoint
      (X_i + X_j)/(2L) + c*sqrt2 lies in a run exactly when S = X_i + X_j
      lies in that run's range from _sum_ranges, each end being compared
      with 2L*(end - c*sqrt2), whose floor and ceiling are exact. The ranges
      ascend and are disjoint, so S is inside exactly when an odd number of
      the bounds lo, hi + 1 are at or below it; a point X_k lies in the run
      whose range holds 2*X_k. On other points the test builds the midpoint
      and asks centers.
    * centers None: the points are the listing of the set whose members
      count as midpoints. An enumeration lists the least points of its set
      in ascending order, so a member between two listed points is listed,
      and a midpoint is a member exactly when X_i + X_j is a doubled listed
      key (as in _usc_family and _mirror_walk).

    Any other centers get the midpoint of each pair and their own contains."""
    keys, cuts = _keys(pts, [2 * d for d in schedule])
    keys, vk = _whole(keys), _whole(_keys(vals)[0])
    n = len(keys)
    cap = cuts[0] if cuts else None
    # the first position of each point's run; a point outside every run, or
    # any point when there are no runs, is its own start
    start = list(range(n))
    doubled = bounds = None
    if centers is None:
        doubled = {2 * k for k in keys}
    elif isinstance(centers, IntervalUnion):
        runs = _convex_runs(centers.pieces)
        lifted = _lift_rationals(pts)
        if lifted is not None:
            los, his = _sum_ranges(runs, lifted[1], lifted[2])
            bounds = [b for lo, hi in zip(los, his) for b in (lo, hi + 1)]
            # X in a run when 2X is in its range: ceil(lo/2) <= X <= floor(hi/2)
            spans = [
                (bisect.bisect_left(keys, (lo + 1) // 2), bisect.bisect_right(keys, hi // 2))
                for lo, hi in zip(los, his)
            ]
        else:
            spans = [run.span(pts) for run in runs]
        for a, b in spans:
            start[a:b] = [a] * (b - a)

    entries: list[tuple] = []
    checked = 0
    left = 0
    for j in range(1, n):
        x, v = keys[j], vk[j]
        if cap is not None:
            while x - keys[left] >= cap:
                left += 1
        lo = left
        cut = j - lo > max_pairs - checked
        if cut:
            lo = j - (max_pairs - checked)
        # y from lo up to j - 1; those in x's run need no test
        a = start[j] if start[j] > lo else lo
        entries += [(x - keys[i], abs(v - vk[i]), j, i) for i in range(a, j)]
        if lo < a:
            if doubled is not None:
                hits = [i for i in range(lo, a) if x + keys[i] in doubled]
            elif bounds is not None:
                hits = [i for i in range(lo, a) if bisect.bisect_right(bounds, x + keys[i]) & 1]
            else:
                px = pts[j]
                hits = [i for i in range(lo, a) if centers.contains((pts[i] + px) / 2)]
            entries += [(x - keys[i], abs(v - vk[i]), j, i) for i in hits]
        if cut:
            checked = max_pairs + 1
            break
        checked += j - lo
    entries.sort(key=itemgetter(0))
    truncated = already_truncated or checked > max_pairs
    return _Survey(checked, truncated, entries, pts, cuts)


# ---------------------------------------------------------------------------
# oscillation computations


def sym_oscillation(
    ambient: Domain,
    f: FuncSpec,
    delta: QuadExt,
    config: AnalysisConfig | None = None,
    *,
    centers: Domain | None = None,
) -> OscillationResult:
    """sup |f(x) - f(y)| over pairs x > y in A with midpoint in `centers`
    (A itself by default) and half-distance strictly below delta. Like the
    usc modulus_profile, it values f only on the prefix its survey reaches."""
    config = replace(config or AnalysisConfig(), delta_schedule=(delta,))
    return modulus_profile(ambient, f, config, "usc", centers=centers).rows[0][1]


class _LiftedNumbers(Sequence):
    """The numbers X_k/L + c*sqrt2 of integer keys X_k over one denominator
    L and one sqrt2 coefficient c, each built only when it is read. A
    sampled probe gives its points and values this way, their keys held as
    index runs (_IndexKeys) that compute a key only when its position is
    read, and _lift_rationals hands the keys back without looking at any
    number."""

    def __init__(self, keys: Sequence[int], den: int, shift: Fraction) -> None:
        self.keys, self.den, self.shift = keys, den, shift
        # positions [a, b) of runs of at least three keys stepping by one
        # constant: a sampled probe's equispaced grid runs (the middle part
        # of IntervalPiece.grid_indices), which its values keep when affine
        self.stretches: list[tuple[int, int]] = []

    def __len__(self) -> int:
        return len(self.keys)

    def __getitem__(self, k: int) -> QuadExt:
        return self._number(self.keys[k])

    def __iter__(self) -> Iterator[QuadExt]:
        # reading every number reads every key
        return map(self._number, _whole(self.keys))

    def _number(self, key: int) -> QuadExt:
        # X/L + c*sqrt2 over the one denominator L*c.den
        c = self.shift
        return _reduced(key * c.denominator, c.numerator * self.den, self.den * c.denominator)


def _whole(keys: Sequence) -> Sequence:
    """keys for a scan that reads every one: index keys built once as a
    list (_IndexKeys.whole), any other keys as they are."""
    return keys.whole if isinstance(keys, _IndexKeys) else keys


def _lift_rationals(
    xs: Sequence[QuadExt],
) -> tuple[list[int], int, Fraction] | None:
    """Integers X_k, a common denominator L and one sqrt2 coefficient c with
    xs[k] = X_k/L + c*sqrt2, or None when the numbers do not share one sqrt2
    part or L passes LIFT_BITS_MAX bits. L is the lcm of the denominators.
    The shared offset c*sqrt2 drops out of every difference (X_j - X_i)/L,
    so widths, window thresholds and oscillations run on integers for
    rational sets and for sqrt2-shifted ones alike; a midpoint is
    (X_i + X_j)/(2L) + c*sqrt2. Numbers given by their keys
    (_LiftedNumbers) are their own lift."""
    if isinstance(xs, _LiftedNumbers):
        return xs.keys, xs.den, xs.shift
    if not xs:
        return [], 1, Fraction(0)
    b0, d0 = xs[0].b, xs[0].d
    for x in xs:
        if x.b * d0 != b0 * x.d:
            return None
    den = 1
    for x in xs:
        if den % x.d:
            den = lcm(den, x.d)
            if den.bit_length() > LIFT_BITS_MAX:
                return None
    return [x.a * (den // x.d) for x in xs], den, Fraction(b0, d0)


def _embed(
    xs: Sequence[QuadExt], terms: Sequence[QuadExt] = ()
) -> tuple[list[int], list[int]] | None:
    """Integer keys phi(x) of any numbers of Q(sqrt2), and of the terms
    (the distance thresholds), that keep the exact sign of every comparison
    the scans make, or None when L passes LIFT_BITS_MAX bits.

    Write x = (A + B*sqrt2)/L with L the lcm of the denominators of the
    numbers and the terms, so a threshold delta is embedded exactly, not
    rounded. Then phi(x) = A*2**P + B*s with s = isqrt(2 << 2*P), that is
    floor(sqrt2*2**P), and phi is additive. Let H bound |A| and |B| over
    the numbers and the terms. Every comparison of a scan is the sign of a
    combination z = sum c_i*t_i of them with sum |c_i| <= 4: a window edge
    x_r - x_l - T, an oscillation order (v_a - v_b) - (v_c - v_d), a mirror
    2a - x - y, a midpoint x_i + x_j - 2x_m. So L*z = a + b*sqrt2 with
    |a|, |b| <= 4H. If z != 0, a**2 - 2b**2 is a nonzero integer, hence
    |a + b*sqrt2| >= 1/|a - b*sqrt2| >= 1/((1 + sqrt2)*4H), while
    phi(z) = 2**P*(a + b*sqrt2) - b*e with 0 <= e < 1, an error below
    |b| <= 4H. With P = 2*H.bit_length() + 6, 2**P >= 64*H**2 exceeds
    (1 + sqrt2)*16*H**2, so |2**P*(a + b*sqrt2)| > 4H: phi(z) has the sign
    of z, and is 0 only at z = 0. Equal numbers thus have equal keys, and
    the keys serve as dictionary keys for mirrors and midpoints too."""
    den = 1
    for x in itertools.chain(xs, terms):
        if den % x.d:
            den = lcm(den, x.d)
            if den.bit_length() > LIFT_BITS_MAX:
                return None
    rats, irrs = [], []
    for x in itertools.chain(xs, terms):
        m = den // x.d
        rats.append(x.a * m)
        irrs.append(x.b * m)
    h = max(
        max(rats, default=0), -min(rats, default=0), max(irrs, default=0), -min(irrs, default=0)
    )
    p = 2 * h.bit_length() + 6
    s = isqrt(2 << 2 * p)
    keys = [(a << p) + b * s if b else a << p for a, b in zip(rats, irrs)]
    return keys[: len(xs)], keys[len(xs) :]


def _keys(xs: Sequence[QuadExt], deltas: Sequence[QuadExt] = ()) -> tuple[Sequence, list]:
    """Keys of the numbers xs, and the key of each delta as a distance
    threshold: a difference of keys is below the key of delta exactly when
    the difference of the numbers is below delta. Keys keep the order and
    the equalities of the numbers, so one scan serves every kind:

    * numbers sharing one sqrt2 part: the integers X_k of _lift_rationals,
      a distance being (X_j - X_i)/L, with the threshold ceil(L*delta) (an
      integer distance is below L*delta exactly when below its ceiling),
      by integer division for a rational delta;
    * any other numbers: the integers of _embed, with delta embedded too;
    * when L passes LIFT_BITS_MAX bits: the numbers and the deltas."""
    lifted = _lift_rationals(xs)
    if lifted is not None:
        keys, den, _ = lifted
        return keys, [exact_ceil(den * d) if d.b else -(-den * d.a // d.d) for d in deltas]
    embedded = _embed(xs, deltas)
    if embedded is not None:
        return embedded
    # numbers given by their keys are built once here for the exact scans
    return tuple(xs), list(deltas)


def _index_keys(
    runs: Sequence[tuple[QuadExt, Fraction, Sequence[Sequence[int]]]],
) -> _LiftedNumbers | None:
    """The numbers v0 + dv*k of every run (v0, dv, parts), for k over the
    index parts in turn, as integer keys V0 + D*k over one L (V0 =
    L*rat(v0), D = L*dv) held per part (_IndexKeys), an equispaced part's
    as a range computed when read; or None when the v0 do not share one
    sqrt2 part or L passes LIFT_BITS_MAX bits. A grid point lo + step*k
    and an affine value f(lo) + (slope*step)*k are both such runs."""
    v = runs[0][0]
    if any(x.b * v.d != v.b * x.d for x, _, _ in runs):
        return None
    den = lcm(*(x.d for x, _, _ in runs), *(dv.denominator for _, dv, _ in runs))
    if den.bit_length() > LIFT_BITS_MAX:
        return None
    held, at = [], 0
    for x, dv, parts in runs:
        x0, step = x.a * (den // x.d), dv.numerator * (den // dv.denominator)
        for ks in parts:
            if not ks:
                continue
            if not step:
                keys = [x0] * len(ks)
            elif isinstance(ks, range):
                # x0 + step*k over a range of k is itself a range
                keys = range(x0 + step * ks.start, x0 + step * ks.stop, step * ks.step)
            else:
                keys = [x0 + step * k for k in ks]
            held.append((at, keys))
            at += len(keys)
    return _LiftedNumbers(_IndexKeys(held, at), den, Fraction(v.b, v.d))


def _window_scan(
    keys: Sequence, vals: Sequence, width: object
) -> tuple[object | None, tuple[int, int] | None, int]:
    """Max oscillation of vals over index pairs with keys[j] - keys[i] < width
    (keys ascending), by one pass with monotone deques of the window's max and
    min; works alike on ints and on exact numbers. Both deques of a window of
    equal values hold only its newest point, named with the one before it."""
    maxd: deque[int] = deque()
    mind: deque[int] = deque()
    left = 0
    best = None
    best_idx = None
    pairs = 0
    for r in range(len(keys)):
        while left < r and keys[r] - keys[left] >= width:
            if maxd and maxd[0] == left:
                maxd.popleft()
            if mind and mind[0] == left:
                mind.popleft()
            left += 1
        while maxd and vals[maxd[-1]] <= vals[r]:
            maxd.pop()
        maxd.append(r)
        while mind and vals[mind[-1]] >= vals[r]:
            mind.pop()
        mind.append(r)
        if r > left:
            pairs += r - left
            osc = vals[maxd[0]] - vals[mind[0]]
            if best is None or osc > best:
                best = osc
                best_idx = (maxd[0], mind[0]) if osc != 0 else (r, r - 1)
    return best, best_idx, pairs


def _window_scan_int(
    xi: Sequence[int], vi: Sequence[int], thr: int
) -> tuple[int | None, tuple[int, int] | None, int]:
    """_window_scan on integer keys: pairs with x_j - x_i < thr, the key of
    a delta from _keys."""
    return _window_scan(xi, vi, thr)


def _window_scan_exact(
    xs: Sequence[QuadExt], vs: Sequence[QuadExt], delta: QuadExt
) -> tuple[QuadExt | None, tuple[int, int] | None, int]:
    """_window_scan on exact numbers: pairs with x_j - x_i < delta."""
    return _window_scan(xs, vs, delta)


def _uc_rows(fk: _FamilyKeys, truncated: bool) -> list[tuple[QuadExt, OscillationResult]]:
    """Oscillation sup over pairs with |x - y| below each schedule delta, by
    one window scan per delta over the keys of fk (_family_keys) at the key
    of delta. Only each row's sup, rebuilt from the values of its witness
    pair, and that pair become exact numbers; the points ascend, so the
    later position is x > y.

    No pair is closer than the smallest gap between neighbouring keys (read
    from the runs of index keys), so a delta whose key is at or below it
    gets the empty row without a scan.
    The comparison is exact on every kind of key: a ceiling threshold and
    a lifted gap are integers, an embedded gap less a threshold is a
    combination of three terms (whose sign _embed keeps), and exact keys
    are the numbers.

    On a sampled probe with equispaced stretches (_probe_values), each row
    scans only the positions _thin keeps at its threshold and adds the
    pairs it dropped. A dropped window repeats the oscillation of a kept
    one found earlier, and the scan replaces its best only on a strictly
    larger one, so the sup and its witness are those of the whole probe."""
    keys, vkeys = fk.keys, fk.vkeys
    if isinstance(keys, _IndexKeys):
        gap = keys.gap()
    else:
        gap = min(map(sub, keys[1:], keys), default=None)
    # stretches are read on the index keys themselves, not on exact keys
    stretches = ()
    if isinstance(fk.vals, _LiftedNumbers) and fk.vals.stretches and keys is fk.pts.keys:
        stretches = fk.vals.stretches
    rows = []
    for delta, thr in zip(fk.schedule, fk.thr):
        if gap is None or thr <= gap:
            rows.append((delta, OscillationResult(None, None, 0, truncated)))
            continue
        scan = _window_scan_exact if isinstance(thr, QuadExt) else _window_scan_int
        thin = _thin(stretches, keys, thr)
        if thin is None:
            _, idx, pairs = scan(_whole(keys), _whole(vkeys), thr)
        else:
            spans, thinned = thin
            _, idx, pairs = scan(keys.take(spans), vkeys.take(spans), thr)
            pairs += _skipped_pairs(thinned, thr)
            if idx is not None:
                kept = list(itertools.chain.from_iterable(spans))
                idx = (kept[idx[0]], kept[idx[1]])
        value = wit = None
        if idx is not None:
            j, i = max(idx), min(idx)
            value, wit = abs(fk.vals[j] - fk.vals[i]), (fk.pts[j], fk.pts[i])
        rows.append((delta, OscillationResult(value, wit, pairs, truncated)))
    return rows


def uc_oscillation(
    ambient: Domain,
    f: FuncSpec,
    delta: QuadExt,
    config: AnalysisConfig | None = None,
) -> OscillationResult:
    """sup |f(x) - f(y)| over pairs in A with |x - y| strictly below delta."""
    config = replace(config or AnalysisConfig(), delta_schedule=(delta,))
    return modulus_profile(ambient, f, config, "uc").rows[0][1]


def modulus_profile(
    ambient: Domain,
    f: FuncSpec,
    config: AnalysisConfig | None = None,
    notion: str = "usc",
    *,
    centers: Domain | None = None,
) -> ModulusProfile:
    """Oscillation sup at every schedule delta, computed in one pass.

    A usc profile on a listing counts it (Domain.count) but lists, values
    and keys only the prefix its survey reaches (the fewest points with
    more than max_pairs candidates, or the whole listing if their survey
    does not cut): rows are exact, and f is not evaluated past that prefix,
    so a point there where f fails raises nothing.

    A sampled probe holds its point keys, and affine value keys, as index
    runs read on demand (_index_keys). Its values then have equispaced
    stretches (_probe_values). The uc scan at each delta, and the usc
    survey of midpoints in the ambient union at the reach of the largest
    delta, then read only the ends of each stretch that _thin keeps, and
    every row adds the pairs dropped below its delta: rows, witnesses and
    counts are those of the whole probe. A scan or survey that reads every
    point builds every key once. A survey whose whole candidate count
    passes max_pairs runs on every point, as where it stops depends on each
    candidate."""
    config = config or AnalysisConfig()
    if notion not in ("uc", "usc"):
        raise ConfigurationError("modulus profile notion must be 'uc' or 'usc'")
    pts, runs, size, en_trunc = _probe_points(ambient, config, for_pairs=notion == "usc")
    sampled = runs is not None
    schedule, cap = config.delta_schedule, config.max_pairs
    if notion == "uc":
        vals = _probe_values(f, pts, runs)
        # grouping a sampled probe's values by object would build every value
        groups = None if sampled else _const_groups(f, vals)
        rows = _uc_rows(_family_keys(pts, vals, schedule, groups), en_trunc)
        return ModulusProfile(notion, rows, size, sampled, en_trunc)
    if centers is None and sampled:
        centers = ambient
    vals = _probe_values(f, pts, runs)
    # a stretch lies in one piece of the ambient union, so every midpoint of
    # a pair inside it is a center
    rows = None
    if centers is ambient:
        rows = _thinned_usc_rows(pts, vals, centers, schedule, cap)
    if rows is not None:
        return ModulusProfile(notion, rows, size, sampled, False)
    # no centers: the midpoints are answered from the listed prefix
    survey = _pairs_from_points(pts, vals, centers, schedule, cap, en_trunc)
    if survey.candidates_checked <= cap and len(pts) < size:
        # the prefix survey did not cut: survey the whole listing, of which
        # the prefix is the start
        head, pts = pts, ambient.enumerate(config.enum_limit).points
        vals = vals + _evaluate_many(f, pts[len(head) :])
        survey = _pairs_from_points(pts, vals, centers, schedule, cap, en_trunc)
    rows = _sup_rows(survey.entries, schedule, survey.truncated, (survey.cuts, pts, vals))
    return ModulusProfile(notion, rows, size, sampled, survey.truncated)


def _thinned_usc_rows(
    pts: Sequence[QuadExt],
    vals: Sequence[QuadExt],
    centers: Domain,
    schedule: tuple[QuadExt, ...],
    max_pairs: int,
) -> list[tuple[QuadExt, OscillationResult]] | None:
    """The usc rows of a sampled probe from a survey of the positions _thin
    keeps at the reach of 2*schedule[0], each row adding the pairs dropped
    below its delta; centers hold the midpoint of every pair inside a
    stretch. Each dropped pair is a candidate too, so the survey may read
    only what is left of max_pairs. None when there is nothing to thin, or
    when the survey of every point would stop at max_pairs."""
    if not (isinstance(vals, _LiftedNumbers) and vals.stretches and schedule):
        return None
    keys, cuts = _keys(pts, [2 * d for d in schedule])
    thin = _thin(vals.stretches, keys, cuts[0]) if keys is pts.keys else None
    if thin is None:
        return None
    spans, thinned = thin
    skipped = [_skipped_pairs(thinned, c) for c in cuts]
    if skipped[0] > max_pairs:
        return None
    sub_pts = _LiftedNumbers(keys.take(spans), pts.den, pts.shift)
    sub_vals = _LiftedNumbers(vals.keys.take(spans), vals.den, vals.shift)
    left = max_pairs - skipped[0]
    survey = _pairs_from_points(sub_pts, sub_vals, centers, schedule, left)
    if survey.truncated:
        return None
    rows = _sup_rows(survey.entries, schedule, False, (survey.cuts, sub_pts, sub_vals))
    return [(d, replace(r, challenges=r.challenges + n)) for (d, r), n in zip(rows, skipped)]


# ---------------------------------------------------------------------------
# flat-modulus helpers


def _sup_rows(
    entries: Sequence[tuple],
    schedule: tuple[QuadExt, ...],
    truncated: bool,
    lift: tuple[Sequence, Sequence[QuadExt], Sequence[QuadExt]],
) -> list[tuple[QuadExt, OscillationResult]]:
    """Oscillation sup at every schedule delta over challenge entries
    (S, O, j, i) sorted by S ascending, each the keys of the pair
    (points[j], points[i]) for lift = (cuts, points, values): S is below
    cuts[k] exactly when the pair's scale is below schedule[k], and O orders
    the oscillations as the numbers do. Each row counts the entries with
    scale below delta and names the pair of the earliest entry that reaches
    their sup, rebuilt as |values[j] - values[i]| from its positions, on any
    kind of key."""
    rows = []
    best = wit = None
    i = 0
    cuts, points, values = lift
    for delta, cut in zip(reversed(schedule), reversed(cuts)):
        end = bisect.bisect_left(entries, cut, i, key=lambda e: e[0])
        for k in range(i, end):
            if best is None or entries[k][1] > best:
                best, wit = entries[k][1], entries[k][2:]
        i = end
        value = pair = None
        if wit is not None:
            value = abs(values[wit[0]] - values[wit[1]])
            pair = (points[wit[0]], points[wit[1]])
        rows.append((delta, OscillationResult(value, pair, i, truncated)))
    rows.reverse()
    return rows


def _flat(top, bottom) -> bool:
    """The flat rule: the sup at the smallest effective delta equals the
    positive sup at the largest."""
    return bottom == top and top > 0


def _flat_row(rows: list[tuple[QuadExt, OscillationResult]]) -> OscillationResult | None:
    """The row at the smallest effective delta (one with challenges) when the
    modulus is flat (_flat). The sup is monotone in delta, so it never
    decayed in between; at least two effective deltas are needed."""
    effective = [res for _, res in rows if res.challenges]
    if len(effective) >= 2 and _flat(effective[0].value, effective[-1].value):
        return effective[-1]
    return None


def _profile_rows_json(
    rows: list[tuple[QuadExt, OscillationResult]], with_witness: bool = False
) -> list[dict]:
    out = []
    for delta, res in rows:
        row = {
            "delta": format_quadext(delta),
            "omega": _fmt(res.value),
            "challenges": res.challenges,
        }
        if with_witness:
            row["witness"] = (
                None if res.witness is None else [format_quadext(w) for w in res.witness]
            )
        out.append(row)
    return out


# ---------------------------------------------------------------------------
# classification pipelines


def _category(ambient: Domain) -> str:
    if isinstance(ambient, Staircase):
        return "staircase"
    if isinstance(ambient, IntervalUnion) and not ambient.enumerable:
        return "interval"
    if ambient.enumerable:
        return "discrete" if ambient.scale_complete else "family"
    raise ConfigurationError(
        f"unsupported ambient domain {ambient.describe()}: unions mixing "
        "interval parts with point sets are not handled"
    )


def classify(
    ambient: Domain, f: FuncSpec, config: AnalysisConfig | None = None
) -> dict[str, Verdict]:
    """Decide C, UC, SC, and USC for f on the ambient domain."""
    config = config or AnalysisConfig()
    cat = _category(ambient)
    if cat == "interval":
        verdicts = _interval_classify(ambient, f, config)
    elif cat == "staircase":
        verdicts = _staircase_classify(ambient, f, config)
    elif cat == "discrete":
        verdicts = _discrete_classify(ambient, f, config)
    else:
        verdicts = _family_classify(ambient, f, config)
    apply_implications(verdicts)
    return verdicts


def _discrete_classify(
    ambient: Domain, f: FuncSpec, config: AnalysisConfig
) -> dict[str, Verdict]:
    en = ambient.enumerate(config.enum_limit)
    if en.truncated:
        verdicts = _family_classify(ambient, f, config, en)
        for v in verdicts.values():
            v.notes.append(
                "enumeration hit enum_limit, so the isolation argument is "
                "unavailable; treated as a resolution-limited model"
            )
        return verdicts
    # the smallest adjacent difference, as Domain.min_gap finds it, from the
    # enumeration at hand
    pts = en.points
    gap = min((b - a for a, b in itertools.pairwise(pts)), default=None)
    cert = {
        "kind": "uniformly_discrete",
        "gap": _fmt(gap) if gap is not None else None,
    }
    res = _resolution(config, points=len(pts), enumeration_truncated=False)
    note = (
        "every point is isolated by the minimum gap, so any function on the "
        "set satisfies all four notions"
        if gap is not None
        else "a domain with fewer than two points satisfies all four notions "
        "vacuously"
    )
    return {
        notion: Verdict(
            notion,
            "proven",
            "uniformly_discrete",
            "full",
            certificate=dict(cert),
            resolution=dict(res),
            notes=[note],
        )
        for notion in NOTIONS
    }


# -- family (resolution-limited enumerable) pipeline ------------------------


@dataclass
class _FamilyKeys:
    """A family's listed points, or a sampled probe's points, and their
    values, with the keys of both and the key of each schedule delta as a
    distance threshold, made once by _family_keys for every scan."""

    pts: Sequence[QuadExt]
    vals: Sequence[QuadExt]
    keys: Sequence
    vkeys: Sequence
    schedule: tuple[QuadExt, ...]
    thr: list

    @cached_property
    def pos(self) -> dict:
        """Each point key's position, for finding mirrors among the listed points."""
        return {k: i for i, k in enumerate(self.keys)}

    def sup_rows(self, entries: Sequence[tuple]) -> list[tuple[QuadExt, OscillationResult]]:
        """_sup_rows over key entries (h, osc, j, i) whose scale h is a
        distance of point keys."""
        return _sup_rows(entries, self.schedule, False, (self.thr, self.pts, self.vals))


def _family_keys(
    pts: Sequence[QuadExt],
    vals: Sequence[QuadExt],
    schedule: tuple[QuadExt, ...],
    groups: list[list[int]] | None = None,
) -> _FamilyKeys:
    """The points and values with their keys and the key of every schedule
    delta (_keys, the values keyed on their own). A difference of point keys
    is below the key of delta exactly when the distance is below delta, and
    value keys order and equate as the values do, so one scan serves every
    kind of key; a reported number is rebuilt from the positions of the
    pair that realizes it.

    Given groups, the positions of each distinct value, one value per group
    is keyed and its key shared by the group. _keys takes L and H over the
    same numbers either way, so the keys are the same integers."""
    keys, thr = _keys(pts, schedule)
    if groups is None:
        vkeys = _keys(vals)[0]
    else:
        vkeys = [None] * len(vals)
        for idx, key in zip(groups, _keys([vals[idx[0]] for idx in groups])[0]):
            for k in idx:
                vkeys[k] = key
    return _FamilyKeys(pts, vals, keys, vkeys, schedule, thr)


def _positions(xs: Iterable) -> dict:
    """The positions of each distinct item of xs, by first occurrence."""
    out: dict = {}
    for k, x in enumerate(xs):
        out.setdefault(x, []).append(k)
    return out


def _const_groups(f: FuncSpec, vals: Sequence[QuadExt]) -> list[list[int]] | None:
    """The positions of each distinct value, in the order of first
    occurrence, for a piecewise-constant f; None otherwise. Such an f gives
    each point the value object of its piece's Const, so the positions are
    grouped by object, which hashes no number, and the objects with equal
    values are merged."""
    if not is_piecewise_constant(f):
        return None
    by_value: dict[QuadExt, list[list[int]]] = {}
    for idx in _positions(map(id, vals)).values():
        by_value.setdefault(vals[idx[0]], []).append(idx)
    return [
        idx[0] if len(idx) == 1 else sorted(itertools.chain.from_iterable(idx))
        for idx in by_value.values()
    ]


def _anchor_windows(keys: Sequence, thr: list) -> list[int | None]:
    """Per anchor, the index of its smallest effective delta among the
    thresholds thr (the keys of the schedule deltas, descending), or None
    when it has fewer than two.

    A delta is effective at an anchor when it exceeds the distance to the
    anchor's nearest neighbor (the scale below which the model cannot show
    any challenger at all). The schedule decreases, so the effective deltas
    are a prefix and the window always starts at schedule[0]. Each anchor
    counts the thresholds above its gap by bisection."""
    if len(keys) < 2:
        return [None] * len(keys)
    neg = [-t for t in thr]  # ascending
    gaps = [b - a for a, b in itertools.pairwise(keys)]
    windows: list[int | None] = []
    # the gap to the nearer neighbor; an end point has one neighbor
    for gap in map(min, [gaps[0]] + gaps, gaps + [gaps[-1]]):
        count = bisect.bisect_left(neg, -gap)
        windows.append(count - 1 if count >= 2 else None)
    return windows


def _anchor_witness(flat: list[tuple[QuadExt, QuadExt]]) -> tuple[QuadExt, dict]:
    """The smallest anchor with the largest jump among the (anchor, jump)
    pairs of flat anchors, and its witness."""
    jump = max(j for _, j in flat)
    anchor = min(a for a, j in flat if j == jump)
    return anchor, {
        "kind": "anchor",
        "anchor": format_quadext(anchor),
        "jump": format_quadext(jump),
        "flat_anchor_count": len(flat),
    }


def _per_point_c(
    fk: _FamilyKeys,
    windows: list[int | None],
    config: AnalysisConfig,
    en_truncated: bool,
    groups: list[list[int]] | None,
) -> Verdict:
    """Per-anchor scan of |f(x) - f(a)| over the points x near each anchor a,
    on the keys of _family_keys. A piecewise-constant f, given as the point
    positions of each value group, only needs the nearest point of each other
    value group, found by bisection in that group's keys; any other f scans
    outward from the anchor and stops at the first point at distance at
    least the largest delta (the keys ascend)."""
    pts = fk.pts
    n = len(pts)
    res = _resolution(config, points=n, enumeration_truncated=en_truncated)
    if groups is None and n * n > config.max_pairs:
        return _open_verdict(
            "C",
            res,
            "per-point scan skipped: the pair budget cannot cover this many "
            "points for a non-constant piecewise function",
        )

    keys, vkeys, vals, thr = fk.keys, fk.vkeys, fk.vals, fk.thr
    if groups is not None:
        group_keys = [([keys[k] for k in idx], vkeys[idx[0]], idx[0]) for idx in groups]
    big = thr[0]
    flat: list[tuple[QuadExt, QuadExt]] = []  # (anchor, jump)
    for idx, w in enumerate(windows):
        if w is None:
            continue
        small = thr[w]
        a, va = keys[idx], vkeys[idx]
        # at, the position realizing m_big, is set once m_big is positive
        m_big = m_small = 0
        if groups is not None:
            for gk, gv, g0 in group_keys:
                # a's own group is the one with value f(a), so a is in no
                # group scanned here; a missing neighbor counts as out of reach
                if gv == va:
                    continue
                i = bisect.bisect_left(gk, a)
                left = a - gk[i - 1] if i else big
                right = gk[i] - a if i < len(gk) else big
                dist, osc = left if left < right else right, abs(gv - va)
                if dist < big and osc > m_big:
                    m_big, at = osc, g0
                if dist < small and osc > m_small:
                    m_small = osc
        else:
            for side in (range(idx - 1, -1, -1), range(idx + 1, n)):
                for k in side:
                    dist = abs(keys[k] - a)
                    if not dist < big:
                        break
                    osc = abs(vkeys[k] - va)
                    if osc > m_big:
                        m_big, at = osc, k
                    if dist < small and osc > m_small:
                        m_small = osc
        if _flat(m_big, m_small):
            flat.append((pts[idx], abs(vals[at] - vals[idx])))

    if flat:
        anchor, witness = _anchor_witness(flat)
        idx = bisect.bisect_left(pts, anchor)
        a, va = keys[idx], vkeys[idx]
        entries = sorted(
            (abs(x - a), abs(v - va), k, idx)
            for k, (x, v) in enumerate(zip(keys, vkeys))
            if k != idx
        )
        rows = fk.sup_rows(entries)
        witness["profile"] = _profile_rows_json(rows)
        return _flat_verdict(
            "C",
            res,
            witness,
            "the pointwise oscillation at the witness anchor stays at the "
            "same positive jump at every effective delta down to the model "
            "floor",
        )
    return _open_verdict(
        "C", res, "every pointwise oscillation decays before its challenges run out"
    )


def _usc_family(
    fk: _FamilyKeys,
    config: AnalysisConfig,
    en_truncated: bool,
    groups: list[list[int]] | None,
) -> Verdict:
    n = len(fk.pts)
    res = _resolution(config, points=n, enumeration_truncated=en_truncated)
    all_pairs = n * (n - 1) // 2

    # rule: on a complete listing, a pair's midpoint is a member exactly when
    # it is listed, so a mirror walk around every listed point that finds no
    # listed mirror proves the notion vacuously (no challenge can ever form
    # below any delta); the piecewise-constant sweep lists its own pairs, so
    # for it the walk stops at the first listed mirror
    entries = None
    if not en_truncated and 0 < all_pairs <= config.max_pairs:
        if groups is None:
            # all_pairs <= max_pairs bounds the walk, so it is never cut
            entries = _mirror_entries(fk, fk.keys, config.max_pairs)[0]
            found = bool(entries)
        else:
            found = any(
                i is not None
                for k, a in enumerate(fk.keys)
                for _, _, i in _mirror_walk(fk.keys, k + 1, a, fk.pos)
            )
        if not found:
            return _midpoint_free_verdict(
                "USC",
                {**res, "pairs_checked": all_pairs},
                all_pairs,
                "no pair of domain points has its midpoint in the domain, so "
                "no symmetric challenge exists at any scale",
            )

    if groups is None:
        if entries is None:
            return _open_verdict(
                "USC", res, "pair budget too small for a symmetric sweep at this resolution"
            )
        return _sweep_verdict("USC", entries, fk, res, False)

    # pairs inside one value group oscillate by exactly zero, so only pairs
    # across groups are swept: the effective deltas are the scales of those
    cross = list(itertools.combinations(groups, 2))
    total = sum(len(g) * len(h) for g, h in cross)
    res["pairs_checked"] = total
    if total > config.max_pairs:
        return _open_verdict("USC", res, "cross-region pair count exceeds the pair budget")
    keys, vkeys = fk.keys, fk.vkeys
    # a member between two listed points is listed, so a pair's midpoint is a
    # member exactly when the sum of their keys is a doubled listed key
    doubled = {2 * a: m for m, a in enumerate(keys)}
    entries = []
    for g, other in cross:
        osc = abs(vkeys[g[0]] - vkeys[other[0]])
        for i in g:
            for j in other:
                m = doubled.get(keys[i] + keys[j])
                if m is not None:
                    # the points ascend, so the later position is x > y
                    entries.append((abs(keys[i] - keys[m]), osc, max(i, j), min(i, j)))
    entries.sort()
    if not entries:
        if en_truncated:
            return _open_verdict(
                "USC",
                res,
                "no valid cross-region pair found, but the enumeration was truncated",
            )
        return _zero_verdict(
            "USC",
            res,
            total,
            "pairs within one constant region oscillate by exactly zero, and "
            "every cross-region pair has its midpoint outside the domain, so "
            "the symmetric modulus vanishes identically",
        )
    rows = fk.sup_rows(entries)
    flat = _flat_row(rows)
    if flat is not None:
        return _flat_verdict(
            "USC",
            res,
            {
                "kind": "pair",
                **_pair_json(*flat.witness, flat.value),
                "profile": _profile_rows_json(rows),
            },
            "valid symmetric pairs with the same positive oscillation exist "
            "at every effective delta down to the model floor",
        )
    return _open_verdict(
        "USC", res, "cross-region symmetric oscillation decays at this resolution"
    )


def _sweep_verdict(
    notion: str,
    entries: list[tuple],
    fk: _FamilyKeys,
    res: dict,
    truncated: bool,
) -> Verdict:
    """Flat-modulus verdict over the key entries of _mirror_entries;
    truncated when the listing or the mirror walk was."""
    rows = fk.sup_rows(entries)
    flat = _flat_row(rows)
    if flat is not None:
        witness = {
            "kind": "pair",
            "profile": _profile_rows_json(rows),
            **_pair_json(*flat.witness, flat.value),
        }
        return _flat_verdict(
            notion,
            res,
            witness,
            "oscillation stays at the same positive level at every effective "
            "delta down to the model floor",
        )
    if not truncated:
        if not entries:
            return _midpoint_free_verdict(
                notion, res, 0, "no valid challenge exists at any scale"
            )
        if all(e[1] == 0 for e in entries):
            return _zero_verdict(
                notion, res, len(entries), "every valid pair oscillates by exactly zero"
            )
    return _open_verdict(
        notion, res, "oscillation decays (or the probe was truncated) at this resolution"
    )


def _uc_family(
    fk: _FamilyKeys,
    config: AnalysisConfig,
    en_truncated: bool,
    piecewise_constant: bool,
    c_verdict: Verdict,
) -> Verdict:
    n = len(fk.pts)
    res = _resolution(config, points=n, enumeration_truncated=en_truncated)
    if c_verdict.status == "refuted":
        return Verdict(
            "UC",
            "refuted",
            "implication",
            c_verdict.scope,
            certificate={
                "kind": "implication",
                "source": "not C",
                "rule": "uc_implies_c",
            },
            resolution=res,
            notes=[
                "a function that fails pointwise continuity cannot be "
                "uniformly continuous"
            ],
        )
    # sliding windows, one linear pass per delta
    rows = _uc_rows(fk, en_truncated)
    if piecewise_constant:
        # pairs of one value oscillate by zero at every scale, so the deltas
        # at which the model can show a jump are those with a pair of two
        # values below them: the rows with a positive sup
        flat = _flat_row([r for r in rows if r[1].challenges and r[1].value.sign() > 0])
    else:
        flat = _flat_row(rows)
    if flat is not None:
        # the flat row's pair, with no midpoint, which UC does not constrain
        wx, wy = flat.witness
        witness = {
            "kind": "pair",
            "x": format_quadext(wx),
            "y": format_quadext(wy),
            "osc": format_quadext(flat.value),
            "profile": _profile_rows_json(rows),
        }
        return _flat_verdict(
            "UC",
            res,
            witness,
            "pair oscillation stays at the same positive level at every "
            "effective delta down to the model floor",
        )
    effective = [r for _, r in rows if r.challenges]
    if effective and all(r.value.sign() == 0 for r in effective) and not en_truncated:
        return _zero_verdict(
            "UC",
            res,
            max(r.challenges for r in effective),
            "every pair below the largest delta oscillates by zero",
        )
    return _open_verdict("UC", res, "pair oscillation decays at this resolution")


def _mirror_walk(
    keys: Sequence, start: int, a, pos: dict
) -> Iterator[tuple[object, int, int | None]]:
    """(h, k, i) for the sorted keys x = keys[k], k = start, start + 1, ...
    with h = x - a, the mirror y = a - h and i its position in keys (None
    when y is not listed), until a mirror falls below the lowest key.

    The listed points lie in the ambient set, so a listed mirror is a member.
    An enumeration lists the least points of its set in ascending order, so
    a member between the lowest listed point and a listed x is listed too:
    the lookup decides membership without calling contains."""
    lo = keys[0]
    for k in range(start, len(keys)):
        h = keys[k] - a
        y = a - h
        if y < lo:
            return
        yield h, k, pos.get(y)


def _mirror_entries(
    fk: _FamilyKeys, anchors: Sequence, max_pairs: int
) -> tuple[list[tuple], int, bool]:
    """The key entries (h, osc, k, i) of the listed mirror pairs around each
    anchor key, sorted, with the mirrors checked and whether the walk stopped
    after max_pairs of them. h is the half-width key keys[k] - b, osc the
    value key distance, and k, i the positions of x and its mirror y."""
    keys, vkeys = fk.keys, fk.vkeys
    walks = (_mirror_walk(keys, bisect.bisect_right(keys, b), b, fk.pos) for b in anchors)
    entries: list[tuple] = []
    checked = 0
    for h, k, i in itertools.chain.from_iterable(walks):
        checked += 1
        if checked > max_pairs:
            break
        if i is not None:
            entries.append((h, abs(vkeys[k] - vkeys[i]), k, i))
    entries.sort()
    return entries, checked, checked > max_pairs


def _sc_family(
    fk: _FamilyKeys,
    windows: list[int | None],
    config: AnalysisConfig,
    en_truncated: bool,
) -> Verdict:
    """Per-anchor mirror scan on the keys of _family_keys: the mirrored
    oscillation must be the same positive value across the anchor's whole
    effective delta window to refute."""
    pts = fk.pts
    n = len(pts)
    res = _resolution(config, points=n, enumeration_truncated=en_truncated)
    if n * (n - 1) // 2 > config.max_pairs:
        return _open_verdict("SC", res, "pair budget too small for a per-anchor mirror scan")
    keys, vkeys, vals, thr = fk.keys, fk.vkeys, fk.vals, fk.thr
    big = thr[0]
    flat: list[tuple[QuadExt, QuadExt]] = []
    for idx, w in enumerate(windows):
        if w is None:
            continue
        small = thr[w]
        m_big = m_small = 0
        for h, k, i in _mirror_walk(keys, idx + 1, keys[idx], fk.pos):
            if not h < big:
                break
            if i is None:
                continue
            osc = abs(vkeys[k] - vkeys[i])
            if osc > m_big:
                m_big, at = osc, (k, i)
            if h < small and osc > m_small:
                m_small = osc
        if _flat(m_big, m_small):
            flat.append((pts[idx], abs(vals[at[0]] - vals[at[1]])))
    if flat:
        return _flat_verdict(
            "SC",
            res,
            _anchor_witness(flat)[1],
            "mirror pairs around the witness anchor keep the same positive "
            "oscillation across the whole effective delta window",
        )
    return _open_verdict(
        "SC", res, "every per-anchor mirror oscillation decays at this resolution"
    )


def _family_classify(
    ambient: Domain, f: FuncSpec, config: AnalysisConfig, en: Enumeration | None = None
) -> dict[str, Verdict]:
    """The family pipeline on the listing en of the ambient set (listed here
    when not given)."""
    if en is None:
        en = ambient.enumerate(config.enum_limit)
    pts = en.points
    vals = _evaluate_many(f, pts)
    # positions by value for a piecewise-constant f: pairs inside one group
    # oscillate by zero
    groups = _const_groups(f, vals)
    fk = _family_keys(pts, vals, config.delta_schedule, groups)
    windows = _anchor_windows(fk.keys, fk.thr)
    c_v = _per_point_c(fk, windows, config, en.truncated, groups)
    usc_v = _usc_family(fk, config, en.truncated, groups)
    uc_v = _uc_family(fk, config, en.truncated, groups is not None, c_v)
    if usc_v.status == "proven":
        sc_v = _open_verdict(
            "SC",
            _resolution(config, points=len(pts), enumeration_truncated=en.truncated),
            "scan skipped; an implication settles this notion",
        )
    else:
        sc_v = _sc_family(fk, windows, config, en.truncated)
    return {"C": c_v, "UC": uc_v, "SC": sc_v, "USC": usc_v}


# -- interval-union pipeline -------------------------------------------------


_LADDER_TERMS = 8


def _leaf_lipschitz(piece: IntervalPiece, fm: Formula) -> QuadExt | None:
    if isinstance(fm, Const):
        return QuadExt.of(0)
    if isinstance(fm, Identity):
        return QuadExt.of(1)
    if isinstance(fm, Affine):
        return abs(fm.slope)
    if isinstance(fm, Monomial):
        m = max(abs(piece.lo), abs(piece.hi))
        out = QuadExt.of(fm.degree)
        for _ in range(fm.degree - 1):
            out = out * m
        return out
    if isinstance(fm, Reciprocal):
        if piece.lo > 0:
            return 1 / (piece.lo * piece.lo)
        if piece.hi < 0:
            return 1 / (piece.hi * piece.hi)
        return None
    return None


def _leaf_uc_failure(piece: IntervalPiece, fm: Formula) -> dict | None:
    """Witness ladder when the formula is not uniformly continuous on the
    piece (only a reciprocal running into 0 can fail)."""
    if not isinstance(fm, Reciprocal) or piece.is_degenerate:
        return None
    if piece.lo == 0:
        end, closed, sgn = piece.hi, piece.hi_closed, 1
    elif piece.hi == 0:
        end, closed, sgn = piece.lo, piece.lo_closed, -1
    else:
        return None
    s = sgn * min(QuadExt.of(3), abs(end)) if closed else end * Fraction(3, 4)
    return {
        "kind": "pair_family",
        "description": "pairs sliding into the open end at 0 with "
        "shrinking distance and growing oscillation",
        "piece": piece.describe(),
        "terms": _ladder(fm, lambda m: _ordered(s / m, s / (3 * m))),
    }


@dataclass
class _Junction:
    c: QuadExt
    in_domain: bool
    owned: QuadExt | None
    left: SideLimit
    right: SideLimit
    left_piece: IntervalPiece | None
    right_piece: IntervalPiece | None

    def to_json(self) -> dict:
        return {
            "at": format_quadext(self.c),
            "in_domain": self.in_domain,
            "value": _fmt(self.owned),
            "left_limit": "missing"
            if not self.left.exists
            else ("diverges" if self.left.value is None else format_quadext(self.left.value)),
            "right_limit": "missing"
            if not self.right.exists
            else ("diverges" if self.right.value is None else format_quadext(self.right.value)),
        }


def _collect_junctions(
    ambient: IntervalUnion, f: FuncSpec, tiles: list[tuple[IntervalPiece, Formula]]
) -> list[_Junction]:
    """The points where one piece of the ambient ends and the next starts,
    ascending, with the facing pieces and their limits read from the tiles.
    The pieces are sorted and disjoint, so c is a member exactly when one of
    the first two pieces meeting there holds it (a degenerate one does)."""
    ends, starts = _side_tiles(tiles)
    out: list[_Junction] = []
    for prev, nxt in itertools.pairwise(ambient.pieces):
        c = nxt.lo
        # the pieces ascend, so a junction seen twice is seen twice in a row
        if prev.hi != c or (out and out[-1].c == c):
            continue
        left, right = ends.get(c), starts.get(c)
        in_dom = prev.hi_closed or nxt.lo_closed
        owned = evaluate(f, c) if in_dom else None
        out.append(
            _Junction(
                c,
                in_dom,
                owned,
                _side_limit(left, c),
                _side_limit(right, c),
                None if left is None else left[0],
                None if right is None else right[0],
            )
        )
    return out


def _junction_c_failure(j: _Junction) -> tuple[SideLimit, IntervalPiece, int] | None:
    """(limit, piece, sign of the side) of the first side, left before
    right, whose limit misses the value owned at a junction in the domain,
    or None when the junction keeps f continuous."""
    if j.in_domain:
        for side, piece, sgn in ((j.left, j.left_piece, -1), (j.right, j.right_piece, 1)):
            if side.exists and (side.value is None or side.value != j.owned):
                return side, piece, sgn
    return None


def _junction_sc_ok(j: _Junction) -> bool:
    if not j.in_domain:
        return True
    if not (j.left.exists and j.right.exists):
        return True
    if j.left.value is None or j.right.value is None:
        return False
    return j.left.value == j.right.value


def _junction_uc_ok(j: _Junction) -> bool:
    vals = [s.value for s in (j.left, j.right) if s.exists]
    if any(v is None for v in vals):
        return False
    if len(vals) == 2 and vals[0] != vals[1]:
        return False
    if j.in_domain and vals and vals[0] != j.owned:
        return False
    return True


def _ladder(
    f: FuncSpec,
    make_pair: Callable[[int], tuple[QuadExt, QuadExt]],
) -> list[dict]:
    terms = []
    for n_i in range(1, _LADDER_TERMS + 1):
        x, y = make_pair(n_i)
        terms.append(_pair_json(x, y, abs(evaluate(f, x) - evaluate(f, y))))
    return terms


# per notion: the step s/(m + k) of the m-th pair, the factor of the step on
# the far side of a jump, the factor for a pair pinned at the junction point,
# the two ladder descriptions, and the notes of a verdict refuted by a leaf,
# refuted at a junction and proven; the symmetric pairs keep their midpoints
# inside a piece next to the junction
_JUNCTION_LADDERS = {
    "UC": (
        1,
        1,
        1,
        "pairs straddling the junction at shrinking distance keep "
        "oscillating by the jump",
        "pairs pinned at the junction point itself keep oscillating by the "
        "gap between the value and the limit",
        (
            "a piece formula is not uniformly continuous on its piece",
            "a junction breaks the uniform modulus",
            "every piece formula is uniformly continuous, junction limits "
            "agree with owned values, and distinct components are "
            "separated by a positive gap",
        ),
    ),
    "USC": (
        4,
        3,
        2,
        "symmetric pairs with midpoint inside the left piece straddle the "
        "junction and keep oscillating by the jump",
        "symmetric pairs with one endpoint pinned at the junction point "
        "(midpoint inside the adjacent piece) keep oscillating by the gap "
        "between the value and the limit",
        (
            "the divergent-piece pair family is symmetric-valid: each "
            "midpoint lies inside the piece",
            "the junction pair family uses midpoints inside the domain",
            "on interval unions the uniform symmetric modulus and the "
            "uniform modulus stand or fall together",
        ),
    ),
}


def _junction_witness(j: _Junction, f: FuncSpec, notion: str) -> dict:
    """Pair ladder at a junction that breaks the uniform (symmetric) modulus.

    A divergent one-sided limit never reaches here: it comes only from a
    reciprocal piece ending at 0, which _leaf_uc_failure reports first."""
    k, far, pinned, jump_text, pinned_text, _ = _JUNCTION_LADDERS[notion]
    c = j.c
    if j.left.exists and j.right.exists and j.left.value != j.right.value:
        s = min(QuadExt.of(1), j.left_piece.length, j.right_piece.length)
        terms = _ladder(f, lambda m: (c + s / (m + k), c - far * (s / (m + k))))
        description = jump_text
    else:
        # the owned value disagrees with the matching limits
        sgn, piece = (1, j.right_piece) if j.right.exists else (-1, j.left_piece)
        s = min(QuadExt.of(1), piece.length)
        terms = _ladder(f, lambda m: _ordered(c + sgn * pinned * (s / (m + k)), c))
        description = pinned_text
    return {
        "kind": "pair_family",
        "description": description,
        "at": format_quadext(c),
        "terms": terms,
    }


def _ordered(a: QuadExt, b: QuadExt) -> tuple[QuadExt, QuadExt]:
    return (a, b) if a > b else (b, a)


def _interval_classify(
    ambient: IntervalUnion, f: FuncSpec, config: AnalysisConfig
) -> dict[str, Verdict]:
    pieces = ambient.pieces
    tiles = tile_formulas(f, pieces)
    for piece, fm in tiles:
        if isinstance(fm, Reciprocal) and piece.contains(QuadExt.of(0)):
            raise ConfigurationError(
                f"reciprocal piece {piece.describe()} contains 0"
            )
    junctions = _collect_junctions(ambient, f, tiles)
    # the pieces are sorted and disjoint: the nearest components hold two
    # neighbouring pieces that share no endpoint
    gaps = [q.lo - p.hi for p, q in itertools.pairwise(pieces) if q.lo != p.hi]
    min_gap = min(gaps, default=None)

    leaf_reports = []
    leaf_failure: dict | None = None
    for piece, fm in tiles:
        fail = _leaf_uc_failure(piece, fm)
        lip = _leaf_lipschitz(piece, fm)
        leaf_reports.append(
            {
                "piece": piece.describe(),
                "formula": describe_function(fm),
                "uniformly_continuous": fail is None,
                "lipschitz_bound": _fmt(lip),
            }
        )
        if leaf_failure is None:
            leaf_failure = fail

    cert_base = {
        "kind": "interval_decision",
        "leaves": leaf_reports,
        "junctions": [j.to_json() for j in junctions],
        "min_component_gap": _fmt(min_gap),
    }
    res = _resolution(config)

    def verdict(notion, status, *, certificate=None, witness=None, notes=()):
        return Verdict(
            notion,
            status,
            "interval_decision",
            "full",
            certificate=certificate,
            witness=witness,
            resolution=dict(res),
            notes=list(notes),
        )

    # C
    c_fail = next(
        ((j, fail) for j in junctions if (fail := _junction_c_failure(j)) is not None),
        None,
    )
    if c_fail is not None:
        j, (side, piece, sgn) = c_fail
        s = min(QuadExt.of(1), piece.length)
        terms = []
        for m in range(1, _LADDER_TERMS + 1):
            x = j.c + sgn * s / (m + 1)
            terms.append(
                {
                    "x": format_quadext(x),
                    "osc": format_quadext(abs(evaluate(f, x) - j.owned)),
                }
            )
        c_v = verdict(
            "C",
            "refuted",
            witness={
                "kind": "approach",
                "anchor": format_quadext(j.c),
                "value": _fmt(j.owned),
                "limit": "diverges" if side.value is None else _fmt(side.value),
                "terms": terms,
            },
            notes=[
                "points arbitrarily close to the junction keep their values "
                "away from the value owned at the junction"
            ],
        )
    else:
        c_v = verdict(
            "C",
            "proven",
            certificate=dict(cert_base),
            notes=[
                "each formula is continuous on its piece and every junction "
                "point in the domain matches its one-sided limits"
            ],
        )

    # UC, and USC with it: on interval unions a uniform symmetric modulus
    # forces a uniform modulus across junctions and inside pieces, and
    # conversely, so one leaf or junction decides both
    bad_junction = next((j for j in junctions if not _junction_uc_ok(j)), None)
    uniform = {}
    for notion in ("UC", "USC"):
        leaf_note, junction_note, proven_note = _JUNCTION_LADDERS[notion][-1]
        if leaf_failure is not None:
            uniform[notion] = verdict(
                notion, "refuted", witness=leaf_failure, notes=[leaf_note]
            )
        elif bad_junction is not None:
            uniform[notion] = verdict(
                notion,
                "refuted",
                witness=_junction_witness(bad_junction, f, notion),
                notes=[junction_note],
            )
        else:
            uniform[notion] = verdict(
                notion, "proven", certificate=dict(cert_base), notes=[proven_note]
            )

    # SC
    bad_sc = [j for j in junctions if not _junction_sc_ok(j)]
    if bad_sc:
        j = bad_sc[0]
        if leaf_failure is None and j is bad_junction:
            # two finite limits differ: UC's jump ladder holds these pairs
            terms = [dict(t) for t in uniform["UC"].witness["terms"]]
        else:
            s = min(QuadExt.of(1), j.left_piece.length, j.right_piece.length)
            terms = _ladder(f, lambda m: (j.c + s / (m + 1), j.c - s / (m + 1)))
        sc_v = verdict(
            "SC",
            "refuted",
            witness={
                "kind": "pair_family",
                "description": "mirror pairs around the junction point keep "
                "oscillating by the jump between one-sided limits",
                "anchor": format_quadext(j.c),
                "terms": terms,
            },
            notes=[
                "the junction point lies in the domain and its one-sided "
                "limits disagree, so mirrored differences cannot decay"
            ],
        )
    elif c_v.status == "proven":
        sc_v = Verdict(
            "SC",
            "proven",
            "implication",
            "full",
            certificate={
                "kind": "implication",
                "source": "C",
                "rule": "c_implies_sc",
            },
            resolution=dict(res),
            notes=["pointwise continuity forces symmetric continuity"],
        )
    else:
        sc_v = verdict(
            "SC",
            "proven",
            certificate=dict(cert_base),
            notes=[
                "one-sided limits agree at every junction point of the "
                "domain, and mirrored differences inside a piece decay with "
                "the piece modulus; the owned value at a junction never "
                "enters a mirrored difference"
            ],
        )

    return {"C": c_v, "UC": uniform["UC"], "SC": sc_v, "USC": uniform["USC"]}


# -- staircase pipeline ------------------------------------------------------


def _staircase_classify(
    ambient: Staircase, f: FuncSpec, config: AnalysisConfig
) -> dict[str, Verdict]:
    """C, UC, SC and USC on a staircase, from its block ends.

    The ends ascend, block i running from ends[2i] to ends[2i + 1]. The ends
    and their values are keyed once (_keys, with the key of 2*delta for each
    schedule delta); every comparison runs on the keys K, and a reported
    gap, oscillation or pair is rebuilt from its positions. UC walks the
    chain of strictly shrinking gaps between facing ends. A USC candidate
    joins an end u in {k, k + 1} of one block to an end w in {k + 2, k + 3}
    of the next. Its midpoint lies in [ends[k], ends[k + 3]], which holds
    only these two blocks, so it is a member unless it falls in the open gap
    between them: 2*K[k + 1] < K[u] + K[w] < 2*K[k + 2]."""
    blocks = ambient.block_pieces()
    tiles = tile_formulas(f, blocks)
    # f must be defined on every block, a lone block's too, whose ends are
    # never valued
    for piece, fm in tiles:
        if isinstance(fm, Reciprocal) and piece.contains(QuadExt.of(0)):
            raise DomainError("reciprocal evaluated at 0")
    res = _resolution(config, points=2 * len(blocks))
    schedule = config.delta_schedule
    # each end valued once, by its block's tile formula; a lone block faces
    # no other, so none is valued
    ends = [e for b in blocks for e in (b.lo, b.hi)]
    vals = [formula_eval(fm, e) for b, fm in tiles if len(tiles) > 1 for e in (b.lo, b.hi)]
    keys, cuts = _keys(ends, [2 * d for d in schedule])
    vk = _keys(vals)[0]

    def across(l: int, r: int) -> tuple[QuadExt, QuadExt]:
        return ends[r] - ends[l], abs(vals[r] - vals[l])

    # cross-gap records: (gap key, oscillation key, positions of the left
    # block's end and the right block's start)
    records = [
        (keys[k + 1] - keys[k], abs(vk[k + 1] - vk[k]), k, k + 1)
        for k in range(1, len(ends) - 1, 2)
    ]
    min_gap = across(*min(records)[2:])[0] if records else None

    c_v = Verdict(
        "C",
        "proven",
        "interval_decision",
        "truncation",
        certificate={
            "kind": "interval_decision",
            "leaves": [
                {"piece": p.describe(), "formula": describe_function(fm)}
                for p, fm in tiles[:4]
            ],
            "blocks": len(blocks),
            "min_present_gap": _fmt(min_gap),
        },
        resolution=dict(res),
        notes=[
            "each block is closed, each formula is continuous on its block, "
            "and at this resolution every block is separated from the next "
            "by a positive gap"
        ],
    )

    chain: list[tuple] = []
    for rec in records:
        if not chain or rec[0] < chain[-1][0]:
            chain.append(rec)
    oscs = [rec[1] for rec in chain]
    if len(chain) >= 2 and 0 < oscs[-1] == max(oscs):
        sample = [across(l, r) + (l, r) for *_, l, r in chain[:3] + chain[-3:]]
        uc_v = Verdict(
            "UC",
            "refuted",
            "structural_chain",
            "truncation",
            witness={
                "kind": "chain",
                "terminal_gap": format_quadext(sample[-1][0]),
                "terminal_osc": format_quadext(sample[-1][1]),
                "records": [
                    {
                        "gap": format_quadext(g),
                        "osc": format_quadext(o),
                        "pair": [format_quadext(ends[r]), format_quadext(ends[l])],
                    }
                    for g, o, l, r in sample
                ],
            },
            resolution=dict(res),
            notes=[
                "facing block endpoints across strictly shrinking gaps keep "
                "the same maximal oscillation, so no uniform modulus survives "
                "the gap decay"
            ],
        )
    else:
        uc_v = Verdict(
            "UC",
            "no_violation",
            "structural_chain",
            "truncation",
            resolution=dict(res),
            notes=[
                "cross-gap oscillations decay along the shrinking-gap chain "
                "at this resolution"
            ],
        )

    # USC: (width key, oscillation key, w, u) per candidate pair of facing
    # blocks whose midpoint is a member
    entries = []
    for k in range(0, len(ends) - 2, 2):
        gap_lo, gap_hi = 2 * keys[k + 1], 2 * keys[k + 2]
        for u in (k, k + 1):
            for w in (k + 2, k + 3):
                if not gap_lo < keys[u] + keys[w] < gap_hi:
                    entries.append((keys[w] - keys[u], abs(vk[w] - vk[u]), w, u))
    entries.sort()
    res_usc = {**res, "pairs_checked": 4 * (len(blocks) - 1)}
    rows = _sup_rows(entries, schedule, False, (cuts, ends, vals))
    flat = _flat_row(rows)
    if not entries:
        usc_v = _open_verdict(
            "USC",
            res_usc,
            "every candidate cross-block midpoint falls inside an open gap, "
            "so no symmetric challenge crosses a gap at this resolution",
        )
    elif flat is not None:
        usc_v = _flat_verdict(
            "USC",
            res_usc,
            {
                "kind": "pair",
                **_pair_json(*flat.witness, flat.value),
                "profile": _profile_rows_json(rows),
            },
            "cross-block symmetric pairs with midpoints inside blocks keep "
            "the same positive oscillation at every effective delta",
        )
    else:
        usc_v = _open_verdict(
            "USC", res_usc, "valid cross-block oscillation decays at this resolution"
        )

    sc_v = _open_verdict(
        "SC", dict(res), "settled by implication from pointwise continuity"
    )
    return {"C": c_v, "UC": uc_v, "SC": sc_v, "USC": usc_v}


# -- implications ------------------------------------------------------------


_IMPLICATIONS = (
    ("UC", "C", "uc_implies_c"),
    ("UC", "USC", "uc_implies_usc"),
    ("C", "SC", "c_implies_sc"),
    ("USC", "SC", "usc_implies_sc"),
)


def apply_implications(verdicts: dict[str, Verdict]) -> None:
    """Fill unsettled notions from settled ones along the implication order."""
    changed = True
    while changed:
        changed = False
        for prem, conc, rule in _IMPLICATIONS:
            p, q = verdicts[prem], verdicts[conc]
            if p.status == "proven" and q.status == "no_violation":
                q.status = "proven"
                q.method = "implication"
                q.scope = p.scope
                q.certificate = {"kind": "implication", "source": prem, "rule": rule}
                q.notes.append(f"follows because {prem} holds")
                changed = True
            if q.status == "refuted" and p.status == "no_violation":
                p.status = "refuted"
                p.method = "implication"
                p.scope = q.scope
                p.certificate = {
                    "kind": "implication",
                    "source": f"not {conc}",
                    "rule": rule,
                }
                p.notes.append(f"fails because {conc} fails")
                changed = True


def check_consistency(verdicts: dict[str, Verdict]) -> list[str]:
    issues = []
    for prem, conc, rule in _IMPLICATIONS:
        p, q = verdicts.get(prem), verdicts.get(conc)
        if p is None or q is None:
            continue
        if p.status == "proven" and q.status == "refuted":
            issues.append(
                f"implication {rule} violated: {prem} proven but {conc} refuted"
            )
    return issues


# -- subset-anchored uniform symmetric continuity ----------------------------


def check_wrt_subset(
    ambient: Domain,
    f: FuncSpec,
    subset: Domain,
    config: AnalysisConfig | None = None,
) -> Verdict:
    """Uniform symmetric continuity with anchors restricted to a subset:
    challenges are pairs (b+h, b-h) inside the ambient set centered at points
    of the subset."""
    config = config or AnalysisConfig()
    if subset == ambient:
        v = classify(ambient, f, config)["USC"]
        v.notion = "USC_wrt_B"
        v.notes.append("subset equals the ambient set; this is plain USC")
        return v
    if not (ambient.enumerable and subset.enumerable):
        raise ConfigurationError(
            "subset-anchored analysis needs enumerable ambient and subset"
        )
    en_a = ambient.enumerate(config.enum_limit)
    en_b = subset.enumerate(config.enum_limit)
    for b in en_b.points:
        if not ambient.contains(b):
            raise DomainError(
                f"subset point {format_quadext(b)} lies outside the ambient set"
            )
    pts = en_a.points
    n = len(pts)
    # the anchors lift with the points, so every mirror is a key
    both = _family_keys(
        pts + en_b.points, _evaluate_many(f, pts), config.delta_schedule
    )
    fk = replace(both, pts=pts, keys=both.keys[:n])
    entries, checked, cut = _mirror_entries(fk, both.keys[n:], config.max_pairs)
    truncated = en_a.truncated or en_b.truncated or cut
    res = _resolution(
        config, points=n, enumeration_truncated=truncated, pairs_checked=checked
    )
    v = _sweep_verdict("USC_wrt_B", entries, fk, res, truncated)
    if v.status == "proven" and v.method == "midpoint_free":
        v.notes = ["no symmetric challenge is centered on the subset at any scale"]
        v.certificate["pairs_checked"] = checked
        if ambient.scale_complete and subset.scale_complete and not truncated:
            v.scope = "full"
    return v


# -- refuting sequences and witness re-verification ---------------------------


@dataclass
class RefutingSequence:
    """A parametric family of pairs claimed to refute one notion.

    kind 'usc' needs midpoints inside the ambient set, 'wrt_b' inside the
    centers set, 'sc' mirrors around a fixed anchor, 'c' pins one endpoint at
    the anchor, and 'uc' only needs shrinking distance.
    """

    kind: str
    epsilon: QuadExt
    term: Callable[[int], tuple[QuadExt, QuadExt]]
    claimed: Callable[[int], QuadExt]
    anchor: QuadExt | None = None
    n_max: int | None = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("usc", "uc", "c", "sc", "wrt_b"):
            raise ConfigurationError(f"unknown sequence kind {self.kind!r}")
        object.__setattr__(self, "epsilon", as_quadext(self.epsilon))
        if self.anchor is not None:
            object.__setattr__(self, "anchor", as_quadext(self.anchor))


@dataclass
class SequenceReport:
    ok: bool
    terms_checked: int
    failure: str | None = None

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "terms_checked": self.terms_checked,
            "failure": self.failure,
        }


def verify_refuting_sequence(
    ambient: Domain,
    f: FuncSpec,
    seq: RefutingSequence,
    n_check: int,
    centers: Domain | None = None,
    *,
    points: dict | None = None,
) -> SequenceReport:
    """Re-derive every claim of the sequence exactly: membership, midpoint
    placement, strictly shrinking scale, and the exact oscillation values.

    points maps a point's (a, b, d) to [its membership in ambient, f there or
    None until asked]: sequences on one ambient and f may share it, so each
    point is tested and valued once, both memberships of a term first."""
    table = {} if points is None else points

    def entry(x: QuadExt) -> list:
        if (e := table.get(key := (x.a, x.b, x.d))) is None:
            e = table[key] = [ambient.contains(x), None]
        return e

    kind, anchor, eps = seq.kind, seq.anchor, seq.epsilon
    twice = None if anchor is None else 2 * anchor
    prev_scale: QuadExt | None = None
    limit = n_check if seq.n_max is None else min(n_check, seq.n_max)
    for n_i in range(1, limit + 1):
        x, y = map(as_quadext, seq.term(n_i))
        if not (ex := entry(x))[0] or not (ey := entry(y))[0]:
            return SequenceReport(False, n_i - 1, f"term {n_i} leaves the domain")
        for e, p in ((ex, x), (ey, y)):
            if e[1] is None:
                e[1] = evaluate(f, p)
        osc = abs(ex[1] - ey[1])
        if osc != as_quadext(seq.claimed(n_i)):
            return SequenceReport(
                False, n_i - 1, f"term {n_i} oscillation differs from the claim"
            )
        if osc < eps:
            return SequenceReport(
                False, n_i - 1, f"term {n_i} oscillates below epsilon"
            )
        if kind == "c":
            if anchor is None or y != anchor:
                return SequenceReport(
                    False, n_i - 1, f"term {n_i} does not pin the anchor"
                )
            scale = abs(x - anchor)
        elif kind == "sc":
            if twice is None or x + y != twice:
                return SequenceReport(
                    False, n_i - 1, f"term {n_i} is not mirrored around the anchor"
                )
            scale = (x - y) / 2 if x > y else (y - x) / 2
        elif kind == "usc":
            if not entry((x + y) / 2)[0]:
                return SequenceReport(
                    False, n_i - 1, f"term {n_i} midpoint leaves the domain"
                )
            scale = abs(x - y) / 2
        elif kind == "wrt_b":
            if centers is None or not centers.contains((x + y) / 2):
                return SequenceReport(
                    False, n_i - 1, f"term {n_i} midpoint leaves the center set"
                )
            scale = abs(x - y) / 2
        else:  # uc
            scale = abs(x - y)
        if scale.sign() <= 0:
            return SequenceReport(False, n_i - 1, f"term {n_i} has zero scale")
        if prev_scale is not None and not scale < prev_scale:
            return SequenceReport(
                False, n_i - 1, f"term {n_i} scale fails to shrink strictly"
            )
        prev_scale = scale
    return SequenceReport(True, limit)


def verify_witness(
    ambient: Domain, f: FuncSpec, verdict: Verdict, centers: Domain | None = None
) -> list[str]:
    """Re-check the exact content of a stored witness. Returns problems."""
    from .exactnum import parse_quadext

    w = verdict.witness
    issues: list[str] = []
    if w is None:
        return issues
    kind = w.get("kind")
    if kind == "pair" and not ("x" in w and "y" in w):
        issues.append("witness pair missing")
    elif kind == "pair":
        x, y = parse_quadext(w["x"]), parse_quadext(w["y"])
        if not (ambient.contains(x) and ambient.contains(y)):
            issues.append("witness pair leaves the domain")
        else:
            osc = abs(evaluate(f, x) - evaluate(f, y))
            if "osc" in w and osc != parse_quadext(w["osc"]):
                issues.append("witness pair oscillation mismatch")
            if verdict.notion in ("USC", "USC_wrt_B"):
                cent = centers if centers is not None else ambient
                if not cent.contains((x + y) / 2):
                    issues.append("witness midpoint leaves the center set")
    elif kind in ("pair_family", "sequence"):
        for t in w.get("terms", []):
            x, y = parse_quadext(t["x"]), parse_quadext(t["y"])
            if not (ambient.contains(x) and ambient.contains(y)):
                issues.append("family term leaves the domain")
                break
            osc = abs(evaluate(f, x) - evaluate(f, y))
            if "osc" in t and osc != parse_quadext(t["osc"]):
                issues.append("family term oscillation mismatch")
                break
    elif kind == "anchor":
        a = parse_quadext(w["anchor"])
        if not ambient.contains(a):
            issues.append("witness anchor leaves the domain")
    elif kind == "approach":
        a = parse_quadext(w["anchor"])
        if not ambient.contains(a):
            issues.append("witness anchor leaves the domain")
        else:
            fa = evaluate(f, a)
            for t in w.get("terms", []):
                x = parse_quadext(t["x"])
                if not ambient.contains(x):
                    issues.append("approach term leaves the domain")
                    break
                if abs(evaluate(f, x) - fa) != parse_quadext(t["osc"]):
                    issues.append("approach term oscillation mismatch")
                    break
    elif kind == "chain":
        for rec in w.get("records", []):
            r, l = parse_quadext(rec["pair"][0]), parse_quadext(rec["pair"][1])
            if not (ambient.contains(r) and ambient.contains(l)):
                issues.append("chain record pair leaves the domain")
                break
            if abs(evaluate(f, r) - evaluate(f, l)) != parse_quadext(rec["osc"]):
                issues.append("chain record oscillation mismatch")
                break
    return issues


# -- uniform limits -----------------------------------------------------------


@dataclass
class TransferReport:
    sup_dists: list[tuple[int, QuadExt]]
    member_uc_status: list[tuple[int, str]]
    inequality_rows: int
    inequality_ok: bool
    stagnant: bool
    notes: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "sup_dists": [
                {"index": i, "sup_dist": format_quadext(v)} for i, v in self.sup_dists
            ],
            "member_uc_status": [
                {"index": i, "uc": s} for i, s in self.member_uc_status
            ],
            "inequality_rows": self.inequality_rows,
            "inequality_ok": self.inequality_ok,
            "stagnant": self.stagnant,
            "notes": list(self.notes),
        }


def uniform_limit_transfer(
    domain: Domain,
    members: Sequence[tuple[int, FuncSpec]],
    limit_f: FuncSpec,
    config: AnalysisConfig | None = None,
) -> TransferReport:
    """Exact transfer analysis between a function sequence and its candidate
    limit: sup distances, member classifications, and the sampled-moduli
    inequality omega_sym[limit](delta) <= omega_sym[member](delta) +
    2 * sup_dist, checked exactly on the shared probe set."""
    config = config or AnalysisConfig()
    sup_dists = []
    member_status = []
    for idx, fm in members:
        sup_dists.append((idx, sup_abs_diff(fm, limit_f, domain)))
        member_status.append((idx, classify(domain, fm, config)["UC"].status))
    last_idx, last_fm = members[-1]
    prof_limit = modulus_profile(domain, limit_f, config, "usc")
    prof_member = modulus_profile(domain, last_fm, config, "usc")
    last_sup = sup_dists[-1][1]
    ok = True
    rows = 0
    for (d1, r1), (d2, r2) in zip(prof_limit.rows, prof_member.rows):
        if r1.value is None:
            continue
        rows += 1
        bound = (r2.value if r2.value is not None else QuadExt.of(0)) + 2 * last_sup
        if r1.value > bound:
            ok = False
    stagnant = last_sup > QuadExt.of(Fraction(1, 2))
    notes = []
    if stagnant:
        notes.append(
            "the sup distance to the limit does not fall below 1/2 even at "
            "the largest index, so the transfer bound never forces the "
            "limit's symmetric modulus down"
        )
    return TransferReport(sup_dists, member_status, rows, ok, stagnant, notes)
