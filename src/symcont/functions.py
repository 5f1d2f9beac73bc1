"""Exactly evaluable functions on domains.

A function spec is one of:

* a bare formula (constant, identity, affine, reciprocal, monomial), applied
  wherever the function is evaluated,
* a piecewise spec mapping regions (domains) to formulas; the first region
  containing a point owns it, in ``evaluate``, ``_evaluate_many`` and
  ``tile_formulas`` alike (found through an owner index, see
  ``_OwnerIndex``), or
* a combination (scale, add, sub, mul, div) of other specs.

The interval and staircase pipelines give each piece of their domain one
formula (``tile_formulas``). A piece that no one region owns whole, or one
wider than a point that comes after a region other than ``FinitePoints`` or
``IntervalUnion``, raises ConfigurationError, and ``symcont analyze`` exits 2.

Everything evaluates inside Q(sqrt 2); no floats are involved. ``evaluate``
takes one point; ``_evaluate_many`` takes an ascending listing and finds
each region's points in one batch (``Domain.members``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .domains import Domain, FinitePoints, IntervalPiece, IntervalUnion, locate_piece, pieces_overlap
from .domains import sorted_points
from .errors import ConfigurationError, DomainError, SymcontError
from .exactnum import ONE, QuadExt, as_quadext


class Formula:
    """Base of the closed-form atoms."""


@dataclass(frozen=True)
class Const(Formula):
    value: QuadExt

    def __post_init__(self) -> None:
        object.__setattr__(self, "value", as_quadext(self.value))


@dataclass(frozen=True)
class Identity(Formula):
    pass


@dataclass(frozen=True)
class Affine(Formula):
    slope: QuadExt
    intercept: QuadExt

    def __post_init__(self) -> None:
        object.__setattr__(self, "slope", as_quadext(self.slope))
        object.__setattr__(self, "intercept", as_quadext(self.intercept))


@dataclass(frozen=True)
class Reciprocal(Formula):
    pass


@dataclass(frozen=True)
class Monomial(Formula):
    degree: int

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ConfigurationError("monomial degree must be at least 1")


def _qpow(x: QuadExt, n: int) -> QuadExt:
    out = ONE
    base = x
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


def formula_eval(fm: Formula, x: QuadExt) -> QuadExt:
    if isinstance(fm, Const):
        return fm.value
    if isinstance(fm, Identity):
        return x
    if isinstance(fm, Affine):
        return fm.slope * x + fm.intercept
    if isinstance(fm, Reciprocal):
        if x == 0:
            raise DomainError("reciprocal evaluated at 0")
        return ONE / x
    if isinstance(fm, Monomial):
        return _qpow(x, fm.degree)
    raise ConfigurationError(f"unknown formula {fm!r}")


def formula_limit(fm: Formula, c: QuadExt) -> QuadExt | None:
    """Limit of the formula at c along its own continuous extension.

    Returns None exactly when the limit diverges (reciprocal at 0); all other
    atoms extend continuously to any point.
    """
    if isinstance(fm, Reciprocal) and c == 0:
        return None
    return formula_eval(fm, c)


def formula_describe(fm: Formula) -> str:
    if isinstance(fm, Const):
        return str(fm.value)
    if isinstance(fm, Identity):
        return "x"
    if isinstance(fm, Affine):
        return f"{fm.slope}*x + {fm.intercept}"
    if isinstance(fm, Reciprocal):
        return "1/x"
    if isinstance(fm, Monomial):
        return f"x^{fm.degree}"
    return repr(fm)


@dataclass(frozen=True)
class FuncPiece:
    region: Domain
    formula: Formula


@dataclass(frozen=True)
class Piecewise:
    pieces: tuple[FuncPiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise ConfigurationError("piecewise spec needs at least one piece")

    @cached_property
    def _owners(self) -> _OwnerIndex:
        return _OwnerIndex(self.pieces)


class _OwnerIndex:
    """The owner of a point among the regions of a piecewise spec: the first
    region that contains it, found by exact keys instead of one ``contains``
    per region.

    * Regions whose type is exactly ``FinitePoints`` go into one map from a
      point's coordinates ``(a, b, d)`` to the first such region holding it.
    * Regions whose type is exactly ``IntervalUnion`` give their pieces,
      sorted by low end and tagged with the region, located by
      ``locate_piece``. A piece listed again by a later region keeps the
      first region's tag. When pieces of different regions overlap, those
      regions are scanned instead, until the rest are disjoint.
    * Every other region is scanned with ``contains``, in order: the ones
      listed before the first indexed region (``lead``) by ``evaluate``
      before it asks the index, the others (``rest``) only while their index
      is below the owner the index found.

    ``owners`` answers the same question for a whole ascending listing, with
    ``Domain.members`` in place of ``contains`` and a bisection of the listing
    per indexed piece in place of ``locate_piece``; ``tile_owners`` for pieces.

    It holds regions and pieces, never a bound method, so it calls whatever
    ``contains`` the classes carry at the time of the call.
    """

    __slots__ = ("size", "regions", "lead", "finite", "los", "pieces", "tags", "rest")

    def __init__(self, func_pieces: tuple[FuncPiece, ...]) -> None:
        self.regions = regions = [fp.region for fp in func_pieces]
        self.size = len(regions)
        self.finite: dict[tuple[int, int, int], int] = {}
        for i, region in enumerate(regions):
            if type(region) is FinitePoints:
                for x in region.points:
                    self.finite.setdefault((x.a, x.b, x.d), i)
        spans = sorted(
            (
                (p, i)
                for i, region in enumerate(regions)
                if type(region) is IntervalUnion
                for p in region.pieces
            ),
            key=lambda t: (t[0].lo, t[0].hi),
        )
        while True:
            # pieces of one region are disjoint, so a clash is between regions;
            # a piece listed again is no clash, its first region owns it
            clash = {
                r for (p, i), (q, j) in itertools.pairwise(spans)
                if pieces_overlap(p, q) and p != q for r in (i, j)
            }
            if not clash:
                break
            spans = [t for t in spans if t[1] not in clash]
        indexed = {i for i, region in enumerate(regions) if type(region) is FinitePoints}
        indexed.update(i for _, i in spans)
        # the stable sort puts the first region's copy first
        spans = [t for k, t in enumerate(spans) if not (k and t[0] == spans[k - 1][0])]
        self.los = tuple(p.lo for p, _ in spans)
        self.pieces = tuple(p for p, _ in spans)
        self.tags = tuple(i for _, i in spans)
        first = min(indexed, default=self.size)
        self.lead = func_pieces[:first]
        self.rest = tuple(
            (i, r) for i, r in enumerate(regions) if i > first and i not in indexed
        )

    def owner(self, x: QuadExt) -> int:
        """Index of the first region past the lead that contains x, or the
        region count when none does."""
        best = self.finite.get((x.a, x.b, x.d), self.size)
        if self.los:
            j = locate_piece(self.los, self.pieces, x)
            if j >= 0 and self.tags[j] < best:
                best = self.tags[j]
        for i, region in self.rest:
            if i >= best:
                break
            if region.contains(x):
                return i
        return best

    def tile_owners(self, pieces: tuple[IntervalPiece, ...]) -> Sequence[int]:
        """The first-match owner of each piece; ConfigurationError when its
        points take more than one region or none, or when a region not exactly
        ``FinitePoints`` or ``IntervalUnion`` comes at or before the owner of a
        piece wider than a point. First match over those two kinds is constant
        on each cut (a piece end, a region's point or piece end) and each open
        gap between cuts, so ``owners`` of the cuts and gap midpoints decides
        every piece. When the index holds just the pieces asked for, their
        tags are the owners."""
        if not (self.lead or self.finite or self.rest) and self.pieces == pieces:
            return self.tags
        seen = (FinitePoints, IntervalUnion)
        blind = next((i for i, r in enumerate(self.regions) if type(r) not in seen), self.size)
        cuts = sorted_points(itertools.chain(
            *((q.lo, q.hi) for q in pieces),
            *(r.points if type(r) is FinitePoints else (e for q in r.pieces for e in (q.lo, q.hi))
              for r in self.regions[:blind]),
        ))
        listing = [*cuts[:1], *(x for u, v in itertools.pairwise(cuts) for x in ((u + v) / 2, v))]
        owned = self.owners(listing)
        out = []
        for p in pieces:
            i, j = p.span(listing)
            got = sorted(set(owned[i:j]))
            if got[-1] == self.size:
                why = "has points no piecewise region covers"
            elif len(got) > 1:
                why = f"is split between piecewise regions {', '.join(map(str, got))}"
            elif got[0] >= blind and not p.is_degenerate:
                why = (f"comes after piecewise region {blind} ({self.regions[blind].describe()}),"
                       " which is neither an interval union nor finite points")
            else:
                out.append(got[0])
                continue
            raise ConfigurationError(f"piece {p.describe()} {why}: no one formula tiles it")
        return out

    def owners(self, xs: Sequence[QuadExt]) -> list[int]:
        """The owner of each point of the ascending listing xs: the index of
        the first region containing it, or the region count when none does."""
        size = self.size
        best = [size] * len(xs)
        free = list(range(len(xs)))
        for i, fp in enumerate(self.lead):
            for k in fp.region.members(xs, free):
                best[k] = i
            free = [k for k in free if best[k] == size]
        finite = self.finite
        if finite:
            for k in free:
                x = xs[k]
                best[k] = finite.get((x.a, x.b, x.d), size)
        # a point the lead owns has best below every tag
        for piece, tag in zip(self.pieces, self.tags):
            i, j = piece.span(xs)
            for k in range(i, j):
                if tag < best[k]:
                    best[k] = tag
        for i, region in self.rest:
            for k in region.members(xs, [k for k in free if best[k] > i]):
                best[k] = i
        return best


_COMBINE_OPS = ("scale", "add", "sub", "mul", "div")


@dataclass(frozen=True)
class Combined:
    op: str
    operands: tuple["FuncSpec", ...]
    alpha: QuadExt | None = None

    def __post_init__(self) -> None:
        if self.op not in _COMBINE_OPS:
            raise ConfigurationError(f"unknown combination op {self.op!r}")
        if self.op == "scale":
            if self.alpha is None or len(self.operands) != 1:
                raise ConfigurationError("scale needs alpha and one operand")
            object.__setattr__(self, "alpha", as_quadext(self.alpha))
        elif self.op == "div":
            if len(self.operands) != 2:
                raise ConfigurationError("div needs exactly two operands")
        elif len(self.operands) < 2:
            raise ConfigurationError(f"{self.op} needs at least two operands")


FuncSpec = Formula | Piecewise | Combined


def evaluate(f: FuncSpec, x: QuadExt) -> QuadExt:
    if isinstance(f, Formula):
        return formula_eval(f, x)
    if isinstance(f, Piecewise):
        q = x if type(x) is QuadExt else as_quadext(x)
        owners = f._owners
        # the lead is scanned here, as by a plain first-match loop, so a
        # leading family region costs no call into the index
        for fp in owners.lead:
            if fp.region.contains(q):
                return formula_eval(fp.formula, x)
        i = owners.owner(q)
        if i == owners.size:
            raise DomainError(f"{x} not covered by any piecewise region")
        return formula_eval(f.pieces[i].formula, x)
    if isinstance(f, Combined):
        return _combine(f, [evaluate(g, x) for g in f.operands])
    raise ConfigurationError(f"unknown function spec {f!r}")


def _combine(f: Combined, vals: Sequence[QuadExt]) -> QuadExt:
    """The value of f at a point from its operands' values there."""
    if f.op == "scale":
        return f.alpha * vals[0]
    if f.op == "add":
        out = vals[0]
        for v in vals[1:]:
            out = out + v
        return out
    if f.op == "sub":
        out = vals[0]
        for v in vals[1:]:
            out = out - v
        return out
    if f.op == "mul":
        out = vals[0]
        for v in vals[1:]:
            out = out * v
        return out
    num, den = vals
    if den == 0:
        raise DomainError("division by zero in combined spec")
    return num / den


def _evaluate_many(f: FuncSpec, xs: Sequence[QuadExt]) -> list[QuadExt]:
    """``[evaluate(f, x) for x in xs]`` for QuadExt points xs in strictly
    ascending order, as ``Domain.enumerate`` and the probe listings give
    them. The order is not checked: regions bisect xs, so points out of
    order may be given to the wrong region.

    A piecewise spec gives each region the points no earlier region holds
    (``_OwnerIndex.owners``); a constant owner fills its points without
    arithmetic and the identity copies them. When some point fails, the
    point-by-point loop runs instead, so the error is the one of the first
    failing point."""
    pts = xs if isinstance(xs, (list, tuple)) else list(xs)
    try:
        return _values(f, pts)
    except SymcontError:
        return [evaluate(f, x) for x in pts]


def _values(f: FuncSpec, xs: Sequence[QuadExt]) -> list[QuadExt]:
    """_evaluate_many without the fallback: a failing point raises."""
    if isinstance(f, Formula):
        if isinstance(f, Const):
            return [f.value] * len(xs)
        if isinstance(f, Identity):
            return list(xs)
        return [formula_eval(f, x) for x in xs]
    if isinstance(f, Piecewise):
        groups: dict[int, list[int]] = {}
        for k, i in enumerate(f._owners.owners(xs)):
            groups.setdefault(i, []).append(k)
        uncovered = groups.get(len(f.pieces))
        if uncovered:
            raise DomainError(f"{xs[uncovered[0]]} not covered by any piecewise region")
        out: list[QuadExt] = [None] * len(xs)  # type: ignore[list-item]
        for i, idx in groups.items():
            for k, v in zip(idx, _values(f.pieces[i].formula, [xs[k] for k in idx])):
                out[k] = v
        return out
    if isinstance(f, Combined):
        cols = [_values(g, xs) for g in f.operands]
        return [_combine(f, vals) for vals in zip(*cols)]
    raise ConfigurationError(f"unknown function spec {f!r}")


def scale(f: FuncSpec, alpha) -> Combined:
    return Combined("scale", (f,), as_quadext(alpha))


def describe_function(f: FuncSpec) -> str:
    if isinstance(f, Formula):
        return formula_describe(f)
    if isinstance(f, Piecewise):
        parts = [
            f"{formula_describe(fp.formula)} on {fp.region.describe()}"
            for fp in f.pieces
        ]
        return "piecewise: " + "; ".join(parts)
    op = f.op
    if op == "scale":
        return f"{f.alpha} * ({describe_function(f.operands[0])})"
    sym = {"add": " + ", "sub": " - ", "mul": " * ", "div": " / "}[op]
    return "(" + sym.join(describe_function(g) for g in f.operands) + ")"


def is_piecewise_constant(f: FuncSpec) -> bool:
    """True when f is a constant or a piecewise spec of constants."""
    return isinstance(f, Const) or (
        isinstance(f, Piecewise)
        and all(isinstance(fp.formula, Const) for fp in f.pieces)
    )


def tile_formulas(
    f: FuncSpec, pieces: tuple[IntervalPiece, ...]
) -> list[tuple[IntervalPiece, Formula]]:
    """Assign one formula to each interval piece, by the first-match rule of
    ``evaluate``: a bare formula covers every piece, and a piecewise spec
    gives each piece the formula of the one region owning all its points
    (``_OwnerIndex.tile_owners``). A piece split between regions, not
    wholly covered, or preceded by a region that is neither an interval
    union nor a finite point set (unless the piece is one point) raises
    ConfigurationError, so the interval and staircase pipelines exit 2.
    """
    if isinstance(f, Formula):
        return [(p, f) for p in pieces]
    if not isinstance(f, Piecewise):
        raise ConfigurationError(
            "analytic interval analysis needs a bare formula or piecewise spec"
        )
    return [(p, f.pieces[i].formula) for p, i in zip(pieces, f._owners.tile_owners(pieces))]


@dataclass(frozen=True)
class SideLimit:
    exists: bool
    value: QuadExt | None  # None with exists=True means the limit diverges


def _side_tiles(tiles: Sequence[tuple[IntervalPiece, Formula]]) -> tuple[dict, dict]:
    """The non-degenerate tiles keyed by the point where each ends (the tile
    on the left of that point) and by the point where each starts (on its
    right)."""
    ends, starts = {}, {}
    for tile in tiles:
        piece = tile[0]
        if not piece.is_degenerate:
            ends[piece.hi] = starts[piece.lo] = tile
    return ends, starts


def _side_limit(tile: tuple[IntervalPiece, Formula] | None, c: QuadExt) -> SideLimit:
    """The closure limit at c of the formula of a tile that ends or starts
    at c; missing without such a tile."""
    return SideLimit(False, None) if tile is None else SideLimit(True, formula_limit(tile[1], c))


def one_sided_limits(
    f: FuncSpec, pieces: tuple[IntervalPiece, ...], c: QuadExt
) -> tuple[SideLimit, SideLimit]:
    """Closure limits of f at c along the non-degenerate pieces that end at c
    (left) and start at c (right)."""
    ends, starts = _side_tiles(tile_formulas(f, pieces))
    return _side_limit(ends.get(c), c), _side_limit(starts.get(c), c)


@dataclass(frozen=True)
class BoundReport:
    value: QuadExt | None
    attained_at: QuadExt | None
    unbounded: bool
    truncated: bool
    method: str


def _formula_piece_bound(
    fm: Formula, piece: IntervalPiece
) -> tuple[QuadExt | None, QuadExt | None, bool]:
    """(sup |f|, point approaching it, unbounded) on one piece, exactly."""
    if isinstance(fm, Reciprocal):
        if piece.contains(QuadExt.of(0)) or piece.lo == 0 == piece.hi:
            raise ConfigurationError("reciprocal piece contains 0")
        if piece.lo == 0 or piece.hi == 0:
            return None, None, True
    if isinstance(fm, Const):
        return abs(fm.value), piece.lo, False
    # all remaining atoms are monotone in |value| toward an endpoint on a
    # piece that avoids 0 (reciprocal) or on any bounded piece (the rest)
    cands = []
    for end in (piece.lo, piece.hi):
        val = formula_limit(fm, end)
        assert val is not None
        cands.append((abs(val), end))
    cands.sort(key=lambda t: t[0])
    best = cands[-1]
    return best[0], best[1], False


def bounded_on(f: FuncSpec, domain: Domain, *, enum_limit: int = 10**5) -> BoundReport:
    """Exact sup of |f| over the domain.

    Enumerable domains are scanned point by point; interval unions and
    staircases are bounded analytically piece by piece.
    """
    if domain.enumerable:
        en = domain.enumerate(enum_limit)
        best: QuadExt | None = None
        at: QuadExt | None = None
        for p, v in zip(en.points, _evaluate_many(f, en.points)):
            v = abs(v)
            if best is None or v > best:
                best, at = v, p
        return BoundReport(best, at, False, en.truncated, "enumeration")
    pieces = _analytic_pieces(domain)
    tiles = tile_formulas(f, pieces)
    best = None
    at = None
    for piece, fm in tiles:
        val, point, unbounded = _formula_piece_bound(fm, piece)
        if unbounded:
            return BoundReport(None, None, True, False, "analytic")
        if best is None or val > best:
            best, at = val, point
    return BoundReport(best, at, False, False, "analytic")


def _analytic_pieces(domain: Domain) -> tuple[IntervalPiece, ...]:
    from .domains import Staircase

    if isinstance(domain, IntervalUnion):
        return domain.pieces
    if isinstance(domain, Staircase):
        return domain.block_pieces()
    raise ConfigurationError(f"no analytic pieces for {domain.describe()}")


def _as_affine(fm: Formula) -> Affine | None:
    if isinstance(fm, Const):
        return Affine(QuadExt.of(0), fm.value)
    if isinstance(fm, Identity):
        return Affine(ONE, QuadExt.of(0))
    if isinstance(fm, Affine):
        return fm
    if isinstance(fm, Monomial) and fm.degree == 1:
        return Affine(ONE, QuadExt.of(0))
    return None


def _sign_fixed(piece: IntervalPiece) -> bool:
    return piece.lo >= 0 or piece.hi <= 0


def sup_abs_diff(f: FuncSpec, g: FuncSpec, domain: Domain) -> QuadExt:
    """Exact sup of |f - g| over an interval union, piece by piece.

    Supported per-piece formula pairs are the ones whose difference is
    monotone on the piece, so the sup sits at an endpoint limit: affine vs
    affine (constants and the identity included), equal-degree monomials,
    monomial vs constant on a sign-fixed piece, reciprocal vs reciprocal, and
    reciprocal vs constant on a piece avoiding 0.
    """
    pieces = _analytic_pieces(domain)
    best = QuadExt.of(0)
    for (piece, fa), (_, ga) in zip(tile_formulas(f, pieces), tile_formulas(g, pieces)):
        val = _piece_sup_diff(fa, ga, piece)
        if val > best:
            best = val
    return best


def _endpoint_sup(fa: Formula, ga: Formula, piece: IntervalPiece) -> QuadExt:
    vals = []
    for end in (piece.lo, piece.hi):
        va, vb = formula_limit(fa, end), formula_limit(ga, end)
        if va is None or vb is None:
            raise ConfigurationError("divergent endpoint in sup_abs_diff")
        vals.append(abs(va - vb))
    return max(vals)


def _piece_sup_diff(fa: Formula, ga: Formula, piece: IntervalPiece) -> QuadExt:
    if piece.is_degenerate:
        return abs(formula_eval(fa, piece.lo) - formula_eval(ga, piece.lo))
    a1, a2 = _as_affine(fa), _as_affine(ga)
    if a1 is not None and a2 is not None:
        return _endpoint_sup(fa, ga, piece)
    if isinstance(fa, Monomial) and isinstance(ga, Monomial) and fa.degree == ga.degree:
        return QuadExt.of(0)
    if isinstance(fa, Monomial) and isinstance(ga, Const) and _sign_fixed(piece):
        return _endpoint_sup(fa, ga, piece)
    if isinstance(ga, Monomial) and isinstance(fa, Const) and _sign_fixed(piece):
        return _endpoint_sup(fa, ga, piece)
    if isinstance(fa, Reciprocal) and isinstance(ga, Reciprocal):
        return QuadExt.of(0)
    recip_pair = (
        (isinstance(fa, Reciprocal) and isinstance(ga, Const))
        or (isinstance(ga, Reciprocal) and isinstance(fa, Const))
    )
    if recip_pair and piece.lo > 0:
        return _endpoint_sup(fa, ga, piece)
    if recip_pair and piece.hi < 0:
        return _endpoint_sup(fa, ga, piece)
    raise ConfigurationError(
        f"unsupported formula pair for exact sup on {piece.describe()}: "
        f"{formula_describe(fa)} vs {formula_describe(ga)}"
    )
