"""Exactly representable subsets of the real line.

Two flavors of domain exist:

* enumerable point sets (finite lists, integer windows, reciprocal families,
  truncated rationals) whose members can be listed exactly, and
* interval unions, including staircases, whose members form a continuum and
  are handled analytically or through exact grid sampling.

``scale_complete`` marks domains whose enumerated model is the whole set:
nothing exists below the smallest listed gap, so a positive minimum gap proves
uniform statements outright. Reciprocal families, truncated rationals, and
staircases are resolution-limited models of infinite families; they are not
scale complete, and anything established on them carries truncation scope.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import sub
from typing import Iterable, Iterator, Sequence

from .errors import DomainError, InapplicableError
from .exactnum import (
    SQRT2,
    ZERO,
    QuadExt,
    _make,
    _reduced,
    as_quadext,
    floor_key,
    order_key,
)

# entries kept by each per-parameter cache (prime sieves, staircase tables),
# so a long-lived process holds a bounded number of them
_CACHE_SIZE = 32


def exact_floor(x: QuadExt) -> int:
    """Largest integer <= x = (a + b*sqrt2)/d, as (a + floor(b*sqrt2)) // d."""
    b = x.b
    # for b != 0, |b|*sqrt2 is m = isqrt(2*b*b) plus a fraction in (0, 1)
    m = math.isqrt(2 * b * b)
    return (x.a + (m if b >= 0 else -m - 1)) // x.d


def exact_ceil(x: QuadExt) -> int:
    return -exact_floor(-x)


def sorted_points(points) -> tuple[QuadExt, ...]:
    """The distinct numbers among points, ascending.

    Coordinates are canonical, so equal numbers share one ``(a, b, d)`` and
    duplicates drop by that triple; the sort runs on ``order_key``."""
    unique = {}
    for p in points:
        x = p if type(p) is QuadExt else as_quadext(p)
        unique[x.a, x.b, x.d] = x
    return tuple(sorted(unique.values(), key=order_key))


def locate_piece(keys, pieces, x) -> int:
    """Index of the piece holding x among sorted disjoint pieces, or -1.

    ``keys`` holds ``floor_key`` of the pieces' low ends, ascending. With
    k = floor_key(x), the bisection gives the last piece whose key is at
    most k; while that piece's key is k and x lies below its low end,
    compared exactly, the piece before it is taken instead. Keys below k
    belong to low ends below x and keys above k to low ends above it, so
    only the low ends in x's own 2**-64 cell are compared exactly, and the
    result is the last piece starting at or below x. When its key is below
    k, x lies above its low end, and so above every earlier piece, and only
    its high end is compared. Otherwise it is tested first, then the one
    before it: two pieces can meet at one point, as (0, 1), [1, 1] and
    (1, 2] do at 1, and then x may sit in the earlier one. No piece further
    back can hold x."""
    k = floor_key(x)
    i = bisect.bisect_right(keys, k) - 1
    while i >= 0 and keys[i] == k and x < pieces[i].lo:
        i -= 1
    if i < 0:
        return -1
    piece = pieces[i]
    if keys[i] < k:
        return i if piece.below_hi(x) else -1
    if piece.contains(x):
        return i
    if i and pieces[i - 1].contains(x):
        return i - 1
    return -1


def pieces_overlap(p: IntervalPiece, q: IntervalPiece) -> bool:
    """Whether p and q share a point, for p.lo <= q.lo."""
    return p.hi > q.lo or (p.hi == q.lo and p.hi_closed and q.lo_closed)


def pieces_members(xs, idx, pieces) -> list[int]:
    """The positions among idx whose points of the ascending listing xs lie
    in one of the sorted disjoint pieces, ascending: each piece takes the run
    of positions ``IntervalPiece.span`` finds by bisection."""
    out: list[int] = []
    for piece in pieces:
        i, j = piece.span(xs)
        if i < j:
            out += idx[bisect.bisect_left(idx, i) : bisect.bisect_left(idx, j)]
    return out


@dataclass(frozen=True)
class Enumeration:
    points: tuple[QuadExt, ...]
    truncated: bool


class Domain:
    """Base interface: exact membership plus (when possible) exact listing."""

    scale_complete = False

    @property
    def enumerable(self) -> bool:
        return True

    def contains(self, x: QuadExt) -> bool:
        raise NotImplementedError

    def members(self, xs: Sequence[QuadExt], idx: list[int]) -> list[int]:
        """The positions k among idx (ascending) with xs[k] in the set, for
        points xs in ascending order: a batch ``contains``. Sets made of
        ranges answer it by bisecting xs; the rest test each point's
        coordinates in ``contains``."""
        contains = self.contains
        return [k for k in idx if contains(xs[k])]

    def enumerate(self, limit: int) -> Enumeration:
        """The first `limit` points of the set in strictly ascending order,
        and whether the set has more.

        So enumerate(k) is a prefix of enumerate(m) for k <= m, every listed
        point satisfies contains, and a member lying between two listed
        points is listed. The family scans (SC, USC and USC wrt a subset)
        rely on the last property to find mirrors and midpoints among the
        listed points without calling contains."""
        raise NotImplementedError

    def count(self, limit: int) -> tuple[int, bool]:
        """(len(e.points), e.truncated) of e = enumerate(limit), for
        limit >= 0: how many points that listing holds and whether the set
        has more. Sets that can count without building their points
        override this."""
        en = self.enumerate(limit)
        return len(en.points), en.truncated

    def describe(self) -> str:
        raise NotImplementedError

    def min_gap(self, limit: int) -> QuadExt | None:
        """Smallest adjacent difference among the first `limit` points.

        Returns None when fewer than two points exist. For non-enumerable
        domains the question is not meaningful and raises.
        """
        if not self.enumerable:
            raise InapplicableError(f"min_gap undefined for {self.describe()}")
        pts = self.enumerate(limit).points
        if len(pts) < 2:
            return None
        return min(b - a for a, b in itertools.pairwise(pts))


@dataclass(frozen=True)
class FinitePoints(Domain):
    points: tuple[QuadExt, ...]

    scale_complete = True

    def __post_init__(self) -> None:
        pts = sorted_points(self.points)
        object.__setattr__(self, "points", pts)
        # membership by coordinate triple, which is canonical
        object.__setattr__(self, "_coords", frozenset((x.a, x.b, x.d) for x in pts))

    @staticmethod
    def of(*points) -> "FinitePoints":
        return FinitePoints(points)

    def contains(self, x: QuadExt) -> bool:
        if type(x) is not QuadExt:
            x = as_quadext(x)
        return (x.a, x.b, x.d) in self._coords

    def enumerate(self, limit: int) -> Enumeration:
        return Enumeration(self.points[:limit], truncated=len(self.points) > limit)

    def count(self, limit: int) -> tuple[int, bool]:
        return min(len(self.points), limit), len(self.points) > limit

    def describe(self) -> str:
        return f"finite set of {len(self.points)} points"


@dataclass(frozen=True)
class IntegerWindow(Domain):
    lo: int
    hi: int

    scale_complete = True

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise DomainError(f"empty integer window [{self.lo}, {self.hi}]")

    def contains(self, x: QuadExt) -> bool:
        return x.b == 0 and x.d == 1 and self.lo <= x.a <= self.hi

    def enumerate(self, limit: int) -> Enumeration:
        count = self.hi - self.lo + 1
        pts = tuple(_make(self.lo + i, 0, 1) for i in range(min(count, limit)))
        return Enumeration(pts, truncated=count > limit)

    def count(self, limit: int) -> tuple[int, bool]:
        total = self.hi - self.lo + 1
        return min(total, limit), total > limit

    def describe(self) -> str:
        return f"integers in [{self.lo}, {self.hi}]"


def _prime_flags(n: int) -> bytearray:
    """flags[k] is 1 exactly when k is prime, k = 0..n (n >= 1), by the
    sieve of Eratosthenes."""
    flags = bytearray([1]) * (n + 1)
    flags[0] = flags[1] = 0
    for p in range(2, math.isqrt(n) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return flags


@lru_cache(maxsize=_CACHE_SIZE)
def _odd_primes_up_to(n: int) -> tuple[int, ...]:
    if n < 3:
        return ()
    return tuple(itertools.compress(range(3, n + 1), _prime_flags(n)[3:]))


@lru_cache(maxsize=_CACHE_SIZE)
def _odd_prime_set(n: int) -> frozenset[int]:
    return frozenset(_odd_primes_up_to(n))


@dataclass(frozen=True)
class OddPrimeReciprocals(Domain):
    """{1/p : p an odd prime <= max_prime}, optionally together with 0."""

    max_prime: int
    with_zero: bool = True

    def _primes(self) -> tuple[int, ...]:
        return _odd_primes_up_to(self.max_prime)

    def contains(self, x: QuadExt) -> bool:
        # a rational with numerator 0 is 0 itself, as coordinates are reduced
        if x.b:
            return False
        if x.a == 1:
            return x.d in _odd_prime_set(self.max_prime)
        return x.a == 0 and self.with_zero

    def enumerate(self, limit: int) -> Enumeration:
        primes = self._primes()
        pts: list[QuadExt] = [ZERO] if self.with_zero and limit > 0 else []
        pts.extend(_make(1, 0, p) for p in primes[::-1][: limit - len(pts)])
        total = len(primes) + self.with_zero
        return Enumeration(tuple(pts), truncated=total > limit)

    def count(self, limit: int) -> tuple[int, bool]:
        total = len(self._primes()) + self.with_zero
        return min(total, limit), total > limit

    def describe(self) -> str:
        base = f"reciprocals of odd primes up to {self.max_prime}"
        return base + (", with 0" if self.with_zero else "")


@dataclass(frozen=True)
class NaturalReciprocals(Domain):
    """{1/n : 1 <= n <= max_n}, optionally together with 0."""

    max_n: int
    with_zero: bool = True

    def __post_init__(self) -> None:
        if self.max_n < 1:
            raise DomainError("max_n must be at least 1")

    def contains(self, x: QuadExt) -> bool:
        if x.b:
            return False
        if x.a == 1:
            return x.d <= self.max_n
        return x.a == 0 and self.with_zero

    def enumerate(self, limit: int) -> Enumeration:
        pts: list[QuadExt] = [ZERO] if self.with_zero and limit > 0 else []
        stop = max(self.max_n - (limit - len(pts)), 0)
        pts.extend(_make(1, 0, n) for n in range(self.max_n, stop, -1))
        total = self.max_n + self.with_zero
        return Enumeration(tuple(pts), truncated=total > limit)

    def count(self, limit: int) -> tuple[int, bool]:
        total = self.max_n + self.with_zero
        return min(total, limit), total > limit

    def describe(self) -> str:
        base = f"reciprocals of naturals up to {self.max_n}"
        return base + (", with 0" if self.with_zero else "")


def _floors(x: QuadExt, n: int) -> list[int]:
    """floor(q*x) for q = 1..n, exactly: q*x = (q*a + q*b*sqrt2)/d is
    floored as exact_floor does, with floor(|q*b|*sqrt2) = isqrt(2*(q*b)**2)."""
    a, b, d = x.a, x.b, x.d
    if not b:
        return [q * a // d for q in range(1, n + 1)]
    t = 2 * b * b
    if b > 0:
        return [(q * a + math.isqrt(t * q * q)) // d for q in range(1, n + 1)]
    return [(q * a - math.isqrt(t * q * q) - 1) // d for q in range(1, n + 1)]


def _mobius(n: int) -> list[int]:
    """mu(k) for k = 0..n (n >= 1), with 0 in place of mu(0): each prime
    negates mu at its multiples and zeroes it at those of its square; a
    prime above n/2 has no other multiple."""
    mu = [1] * (n + 1)
    mu[0] = 0
    for p in itertools.compress(range(n + 1), _prime_flags(n)):
        if 2 * p > n:
            mu[p] = -1
        else:
            mu[p::p] = [-m for m in mu[p::p]]
            mu[p * p :: p * p] = [0] * (n // (p * p))
    return mu


def _farey_bracket(x: QuadExt, n: int) -> tuple[int, int, int, int]:
    """Neighbours a/b <= x < c/d in the Farey sequence of order n over the
    whole line, by a Stern-Brocot descent from floor(x) and floor(x) + 1 that
    takes each run of steps to one side in one move, so it ends after
    O(log n) moves. Each move keeps b*c - a*d == 1."""
    a = exact_floor(x)
    b, c, d = 1, a + 1, 1
    while b + d <= n:
        if a + c <= x * (b + d):
            # mediant <= x: a/b moves right to (a + k*c)/(b + k*d), the
            # largest k with that fraction <= x
            k = exact_floor((x * b - a) / (c - x * d))
            k = min(k, (n - b) // d)
            a, b = a + k * c, b + k * d
        else:
            # mediant > x: c/d moves left to (c + k*a)/(d + k*b), the
            # largest k with that fraction > x
            k = (n - d) // b
            r = x * b - a
            if r.sign() > 0:
                k = min(k, exact_ceil((c - x * d) / r) - 1)
            c, d = c + k * a, d + k * b
    return a, b, c, d


@dataclass(frozen=True)
class TruncatedRationals(Domain):
    """Reduced rationals p/q with q <= max_denominator inside [lo, hi].

    When adjoin_sqrt2 is set and sqrt(2) lies in range, that single irrational
    point is a member as well.
    """

    max_denominator: int
    lo: QuadExt
    hi: QuadExt
    adjoin_sqrt2: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_quadext(self.lo))
        object.__setattr__(self, "hi", as_quadext(self.hi))
        if self.max_denominator < 1:
            raise DomainError("max_denominator must be at least 1")
        if self.lo > self.hi:
            raise DomainError("empty range for truncated rationals")

    def _sqrt2_in_range(self) -> bool:
        return self.adjoin_sqrt2 and self.lo <= SQRT2 <= self.hi

    def _has_coords(self, x: QuadExt) -> bool:
        """The test of membership apart from the range: a rational of
        denominator at most max_denominator, or sqrt2 when adjoined."""
        if x.b == 0:
            return x.d <= self.max_denominator
        return self.adjoin_sqrt2 and x.a == 0 and x.b == 1 and x.d == 1

    def contains(self, x: QuadExt) -> bool:
        return self._has_coords(x) and self.lo <= x <= self.hi

    def members(self, xs: Sequence[QuadExt], idx: list[int]) -> list[int]:
        i = bisect.bisect_left(xs, self.lo)
        j = bisect.bisect_right(xs, self.hi)
        has = self._has_coords
        return [
            k
            for k in idx[bisect.bisect_left(idx, i) : bisect.bisect_left(idx, j)]
            if has(xs[k])
        ]

    def _walk(self, limit: int) -> Iterator[tuple[int, int]]:
        """(p, q) of the first limit + 1 reduced fractions p/q in [lo, hi]
        with q <= max_denominator, ascending, or of all of them if fewer.

        Walks the Farey sequence of order max_denominator (every reduced
        fraction with that bound on its denominator, over the whole line)
        from its least term >= lo by the next-term recurrence, on integers,
        and stops past hi, so the work grows with limit rather than with the
        size of the set."""
        n = self.max_denominator
        last_p, last_q = _farey_bracket(self.hi, n)[:2]
        a, b, c, d = _farey_bracket(self.lo, n)
        if a * self.lo.d != self.lo.a * b or self.lo.b:
            # a/b < lo: the walk starts at the next term c/d
            k = (n + b) // d
            a, b, c, d = c, d, k * c - a, k * d - b
        for _ in range(limit + 1):
            if a * last_q > last_p * b:
                return
            # Farey neighbours have b*c - a*d == 1, so a/b is in lowest terms
            yield a, b
            k = (n + b) // d
            a, b, c, d = c, d, k * c - a, k * d - b

    def enumerate(self, limit: int) -> Enumeration:
        """The fractions of _walk, with sqrt2 then put in its place."""
        pts = [_make(a, 0, b) for a, b in self._walk(limit)]
        if self._sqrt2_in_range():
            bisect.insort(pts, SQRT2)
        return Enumeration(tuple(pts[:limit]), truncated=len(pts) > limit)

    def _reduced_count(self) -> int:
        """The number R(N) of reduced p/q in [lo, hi] with q <= N =
        max_denominator, by Möbius inversion: F(M), the number of pairs
        (p, q) with q <= M and p/q in range, reduced or not, is the sum over
        q <= M of floor(q*hi) - ceil(q*lo) + 1, and a pair is d times a
        reduced one of denominator at most M/d, so F(M) = sum_d R(M // d)
        and R(N) = sum_d mu(d)*F(N // d). O(N) work."""
        n = self.max_denominator
        # ceil(q*lo) = -floor(q*(-lo))
        per_q = (h + l + 1 for h, l in zip(_floors(self.hi, n), _floors(-self.lo, n)))
        f = list(itertools.accumulate(per_q, initial=0))
        return sum(m * f[n // d] for d, m in enumerate(_mobius(n)) if m)

    def count(self, limit: int) -> tuple[int, bool]:
        """By _reduced_count when 8*N <= limit (N = max_denominator), and by
        the walk otherwise. _reduced_count costs as much as two or three
        walk steps per denominator, so under that bound it costs at most
        about 3*limit/8 steps against the walk's limit + 1 at most; a larger
        N, such as a large maxDenominator read from a spec, walks."""
        n = self.max_denominator
        if 8 * n <= limit:
            total = self._reduced_count()
        else:
            total = sum(1 for _ in self._walk(limit))
        total += self._sqrt2_in_range()
        return min(total, limit), total > limit

    def describe(self) -> str:
        base = (
            f"rationals with denominator <= {self.max_denominator}"
            f" in [{self.lo}, {self.hi}]"
        )
        return base + (" plus sqrt2" if self.adjoin_sqrt2 else "")


@dataclass(frozen=True)
class IntervalPiece:
    lo: QuadExt
    hi: QuadExt
    lo_closed: bool = True
    hi_closed: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", as_quadext(self.lo))
        object.__setattr__(self, "hi", as_quadext(self.hi))
        if self.lo > self.hi:
            raise DomainError(f"piece with lo > hi: {self.describe()}")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise DomainError("degenerate piece must be closed on both sides")

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    @property
    def length(self) -> QuadExt:
        return self.hi - self.lo

    def below_hi(self, x: QuadExt) -> bool:
        """Whether x lies below the high end, or at it when that end is closed."""
        return x < self.hi or (self.hi_closed and x == self.hi)

    def contains(self, x: QuadExt) -> bool:
        if self.lo < x:
            return self.below_hi(x)
        # x <= lo, and lo <= hi
        return self.lo_closed and x == self.lo

    def span(self, xs: Sequence[QuadExt]) -> tuple[int, int]:
        """(i, j): the points of the ascending xs in the piece are xs[i:j]."""
        i = (bisect.bisect_left if self.lo_closed else bisect.bisect_right)(xs, self.lo)
        j = (bisect.bisect_right if self.hi_closed else bisect.bisect_left)(xs, self.hi)
        return i, j

    def grid_indices(self, exponent: int) -> tuple[tuple[Sequence[int], ...], int]:
        """((low, run, high), n): the grid of `grid(exponent)` is
        lo + (length/n)*k over the ascending integers k of low, run and high
        in turn, given in O(1) without a set or a sort.

        n = 2**N with N = max(exponent, 10) so that the open-end runs land on
        integers too. run is the equispaced run k = 0, g, ..., n (g =
        2**(N - exponent)) that the piece keeps. An open low end drops k = 0,
        and low holds its approach points k = 2**(N - m) below g, m = 1..10;
        an open high end drops k = n, and high holds the k = n - 2**(N - m)
        above n - g. A degenerate piece is the one point k = 0 (n = 1)."""
        if self.is_degenerate:
            return ((), range(1), ()), 1
        top = max(exponent, 10)
        n, g = 2**top, 2 ** (top - exponent)
        near = [2 ** (top - m) for m in range(10, exponent, -1)]
        low = () if self.lo_closed else near
        high = () if self.hi_closed else [n - k for k in reversed(near)]
        if low and high and high[0] == low[-1]:
            # exponent 0: n/2 approaches both open ends, and is one point
            high = high[1:]
        run = range(0 if self.lo_closed else g, n + 1 if self.hi_closed else n, g)
        return (low, run, high), n

    def grid(self, exponent: int) -> list[QuadExt]:
        """Exact sample grid, ascending: 2**exponent + 1 equispaced points
        including the closed endpoints; an open endpoint is replaced by a run
        of points approaching it at length/2**m, m = 1..10. The points are
        those of grid_indices, each built once from its k."""
        parts, n = self.grid_indices(exponent)
        # lo + length*k/n over one denominator, reduced once per point
        lo, ln = self.lo, self.length
        a0, b0, den = lo.a * ln.d * n, lo.b * ln.d * n, lo.d * ln.d * n
        da, db = ln.a * lo.d, ln.b * lo.d
        return [
            _reduced(a0 + da * k, b0 + db * k, den) for k in itertools.chain(*parts)
        ]

    def describe(self) -> str:
        left = "[" if self.lo_closed else "("
        right = "]" if self.hi_closed else ")"
        return f"{left}{self.lo}, {self.hi}{right}"


class _IndexKeys:
    """Integer keys X0 + S*k over the k of grid index parts
    (IntervalPiece.grid_indices), as runs (start, keys): the positions
    start, start + 1, ... hold the keys of one part. An equispaced part's
    keys are a range, computed when read, and an approach part's are a
    short list. A key is read by position (negative positions count from
    the end), the keys of ranges of positions by take, and whole lists
    every key once, for a scan that reads them all. A sampled probe's
    points, and affine values, are keyed this way."""

    def __init__(self, runs: list[tuple[int, Sequence[int]]], size: int) -> None:
        self.runs, self.size = runs, size
        self.starts = [start for start, _ in runs]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, p: int) -> int:
        if p < 0:
            p += self.size
        if not 0 <= p < self.size:
            raise IndexError("index key position out of range")
        start, keys = self.runs[bisect.bisect_right(self.starts, p) - 1]
        return keys[p - start]

    def take(self, spans: Iterable[range]) -> list[int]:
        """The keys at the positions of the ascending ranges spans, in order."""
        out: list[int] = []
        for span in spans:
            p, stop = span.start, span.stop
            while p < stop:
                start, keys = self.runs[bisect.bisect_right(self.starts, p) - 1]
                end = min(stop, start + len(keys))
                out += keys[p - start : end - start]
                p = end
        return out

    @cached_property
    def whole(self) -> list[int]:
        return list(itertools.chain.from_iterable(keys for _, keys in self.runs))

    def gap(self) -> int | None:
        """The smallest difference of neighbouring keys, when they ascend
        (a probe's points), or None for fewer than two: a range's step
        inside it, and read between runs and along the approach lists."""
        gaps, last = [], None
        for _, keys in self.runs:
            if last is not None:
                gaps.append(keys[0] - last)
            if len(keys) > 1:
                d = keys.step if isinstance(keys, range) else min(map(sub, keys[1:], keys))
                gaps.append(d)
            last = keys[-1]
        return min(gaps, default=None)


@dataclass(frozen=True)
class IntervalUnion(Domain):
    pieces: tuple[IntervalPiece, ...]

    def __post_init__(self) -> None:
        if not self.pieces:
            raise DomainError("interval union needs at least one piece")
        pieces = tuple(sorted(self.pieces, key=lambda p: (p.lo, p.hi)))
        for prev, nxt in itertools.pairwise(pieces):
            if pieces_overlap(prev, nxt):
                raise DomainError(
                    f"overlapping pieces {prev.describe()} and {nxt.describe()}"
                )
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_keys", tuple(floor_key(p.lo) for p in pieces))

    @property
    def enumerable(self) -> bool:
        return all(p.is_degenerate for p in self.pieces)

    @property
    def scale_complete(self) -> bool:
        return self.enumerable

    def contains(self, x: QuadExt) -> bool:
        return locate_piece(self._keys, self.pieces, x) >= 0

    def members(self, xs: Sequence[QuadExt], idx: list[int]) -> list[int]:
        return pieces_members(xs, idx, self.pieces)

    def enumerate(self, limit: int) -> Enumeration:
        if not self.enumerable:
            raise InapplicableError("cannot enumerate a continuum of points")
        pts = tuple(p.lo for p in self.pieces)
        return Enumeration(pts[:limit], truncated=len(pts) > limit)

    def describe(self) -> str:
        return " u ".join(p.describe() for p in self.pieces)


@dataclass(frozen=True)
class MergeResult:
    components: tuple[tuple[IntervalPiece, ...], ...]
    gaps: tuple[QuadExt, ...]
    shared_endpoint_pairs: tuple[tuple[int, int], ...]


def merge_interval_components(pieces) -> MergeResult:
    """Group pieces into maximal components whose closures chain together.

    gaps holds the distance between each pair of neighbouring components,
    ascending by position, so its minimum is the least distance between any
    two components; shared_endpoint_pairs records which input pieces (by their
    position in the argument) were glued across a common endpoint. Overlap
    is an error.
    """
    if not pieces:
        return MergeResult((), (), ())
    order = sorted(range(len(pieces)), key=lambda i: (pieces[i].lo, pieces[i].hi))
    for ia, ib in itertools.pairwise(order):
        a, b = pieces[ia], pieces[ib]
        if pieces_overlap(a, b):
            raise DomainError(
                f"overlapping pieces {a.describe()} and {b.describe()}"
            )
    components: list[list[int]] = [[order[0]]]
    glued: list[tuple[int, int]] = []
    for idx in order[1:]:
        last = components[-1][-1]
        if pieces[idx].lo == pieces[last].hi:
            glued.append((last, idx))
            components[-1].append(idx)
        else:
            components.append([idx])
    comp_pieces = tuple(tuple(pieces[i] for i in comp) for comp in components)
    gaps = tuple(b[0].lo - a[-1].hi for a, b in itertools.pairwise(comp_pieces))
    return MergeResult(comp_pieces, gaps, tuple(glued))


@lru_cache(maxsize=_CACHE_SIZE)
def staircase_breakpoints(variant: str, blocks: int) -> tuple[Fraction, ...]:
    """Endpoints a_1 <= a_2 <= ... <= a_{2*blocks} of the staircase blocks.

    Variant A: block pair k (blocks 2k-1 and 2k) has width 1/(k+1); the gap
    after an odd-numbered block is 1/k and the gap after an even one is 1.
    Variant B: block n has width 1/(2n-1) followed by a gap of 1/(2n), so each
    gap is shorter than the block before it.
    """
    pts: list[Fraction] = []
    if variant == "A":
        pos = Fraction(1)
        for i in range(1, blocks + 1):
            k = (i + 1) // 2
            width = Fraction(1, k + 1)
            pts += [pos, pos + width]
            gap = Fraction(1, k) if i % 2 == 1 else Fraction(1)
            pos = pos + width + gap
    elif variant == "B":
        pos = Fraction(0)
        for n in range(1, blocks + 1):
            width = Fraction(1, 2 * n - 1)
            pts += [pos, pos + width]
            pos = pos + width + Fraction(1, 2 * n)
    else:
        raise DomainError(f"unknown staircase variant {variant!r}")
    return tuple(pts)


@lru_cache(maxsize=_CACHE_SIZE)
def _staircase_pieces(variant: str, blocks: int) -> tuple[IntervalPiece, ...]:
    ends = [_make(b.numerator, 0, b.denominator) for b in staircase_breakpoints(variant, blocks)]
    return tuple(IntervalPiece(ends[2 * i], ends[2 * i + 1]) for i in range(blocks))


@lru_cache(maxsize=_CACHE_SIZE)
def _staircase_keys(variant: str, blocks: int) -> tuple[int, ...]:
    """``floor_key`` of each block's low end, for ``locate_piece``."""
    return tuple(floor_key(p.lo) for p in _staircase_pieces(variant, blocks))


@dataclass(frozen=True)
class Staircase(Domain):
    """Union of closed blocks [a_{2i-1}, a_{2i}] with positive gaps between."""

    variant: str
    blocks: int

    enumerable = False

    def __post_init__(self) -> None:
        if self.variant not in ("A", "B"):
            raise DomainError(f"unknown staircase variant {self.variant!r}")
        if self.blocks < 1:
            raise DomainError("staircase needs at least one block")

    def breakpoints(self) -> tuple[Fraction, ...]:
        return staircase_breakpoints(self.variant, self.blocks)

    def block_pieces(self) -> tuple[IntervalPiece, ...]:
        return _staircase_pieces(self.variant, self.blocks)

    def gaps(self) -> tuple[Fraction, ...]:
        bp = self.breakpoints()
        return tuple(bp[2 * i + 2] - bp[2 * i + 1] for i in range(self.blocks - 1))

    def contains(self, x: QuadExt) -> bool:
        keys = _staircase_keys(self.variant, self.blocks)
        return locate_piece(keys, self.block_pieces(), x) >= 0

    def members(self, xs: Sequence[QuadExt], idx: list[int]) -> list[int]:
        return pieces_members(xs, idx, self.block_pieces())

    def enumerate(self, limit: int) -> Enumeration:
        raise InapplicableError("cannot enumerate a continuum of points")

    def describe(self) -> str:
        return f"staircase {self.variant} with {self.blocks} blocks"


@dataclass(frozen=True)
class UnionOf(Domain):
    parts: tuple[Domain, ...]

    def __post_init__(self) -> None:
        if not self.parts:
            raise DomainError("union needs at least one part")

    @property
    def enumerable(self) -> bool:
        return all(p.enumerable for p in self.parts)

    @property
    def scale_complete(self) -> bool:
        return all(p.scale_complete for p in self.parts)

    def contains(self, x: QuadExt) -> bool:
        return any(p.contains(x) for p in self.parts)

    def members(self, xs: Sequence[QuadExt], idx: list[int]) -> list[int]:
        # each part is asked only about the points no earlier part holds
        hit: set[int] = set()
        for part in self.parts:
            hit.update(part.members(xs, [k for k in idx if k not in hit]))
        return [k for k in idx if k in hit]

    def enumerate(self, limit: int) -> Enumeration:
        if not self.enumerable:
            raise InapplicableError("cannot enumerate a continuum of points")
        listings = [part.enumerate(limit) for part in self.parts]
        truncated = any(en.truncated for en in listings)
        pts = sorted_points(itertools.chain.from_iterable(en.points for en in listings))
        return Enumeration(pts[:limit], truncated=truncated or len(pts) > limit)

    def describe(self) -> str:
        return "union of " + "; ".join(p.describe() for p in self.parts)


@dataclass(frozen=True)
class SymmetricPair:
    """Pair (x, y) with x > y whose midpoint lies in the relevant center set."""

    x: QuadExt
    y: QuadExt

    def __post_init__(self) -> None:
        if not self.x > self.y:
            raise DomainError("symmetric pair requires x > y")

    @property
    def h(self) -> QuadExt:
        return (self.x - self.y) / 2

    @property
    def center(self) -> QuadExt:
        return (self.x + self.y) / 2

    def sort_key(self) -> tuple[QuadExt, QuadExt, QuadExt]:
        return (self.h, self.x, self.y)
