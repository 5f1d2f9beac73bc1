"""Seeded inputs, operations and correctness checks for each workload.

Each workload is a list of operations built from the seed alone; symcont
receives only the generated inputs. An operation returns an ``Outcome``:
``ok`` says whether the output passed its check, ``payload`` holds the report
bytes that go into the workload's digest. An operation that raises or runs
past its deadline is a failure with no payload.

Why these workloads (also in BENCHMARK.json):

* ``catalog`` is the paper's examples, each through ``zoo.run_example`` at
  model sizes between ``Budget.small()`` and the published ``Budget``, in
  seeded order. It is all family-pipeline classification and exact
  arithmetic, with no grids and no pair surveys.
* ``moduli`` is oscillation work on continua and dense sets through the
  public ``uc_oscillation`` and ``modulus_profile``: grids, sorting,
  evaluation, pair surveys and window scans, with almost no classification.
* ``specs`` is a long-lived caller sending many small spec documents through
  ``symcont.cli.main``, so per-call costs (parsing, rendering, enumeration
  that grows with a set's nominal size) dominate.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import signal
from dataclasses import dataclass
from decimal import Context, Decimal
from fractions import Fraction
from pathlib import Path
from typing import Callable

WORKLOADS = ("catalog", "moduli", "specs")

# per-request deadline for the specs workload; every regular request there
# finishes in under a quarter of it
SPEC_DEADLINE_S = 1.5


@dataclass
class Outcome:
    ok: bool
    payload: bytes


@dataclass
class Op:
    kind: str
    run: Callable[[], Outcome]
    deadline_s: float | None = None


class DeadlineExceeded(Exception):
    """An operation ran past its per-request deadline."""


@contextlib.contextmanager
def deadline(seconds: float | None):
    """Raise DeadlineExceeded in the block after `seconds` (SIGALRM, no threads)."""
    if seconds is None:
        yield
        return

    def on_alarm(signum, frame):
        raise DeadlineExceeded(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call_cli(argv: list[str]) -> tuple[int, str]:
    """symcont.cli.main with standard output captured; standard error dropped."""
    import symcont.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = symcont.cli.main(argv)
    return code, out.getvalue()


def _parse_json(text: str) -> dict | None:
    try:
        data = json.loads(text)
    except ValueError:
        return None
    return data if isinstance(data, dict) else None


# ---------------------------------------------------------------------------
# catalog


# Model sizes between Budget.small() and the published Budget: the published
# catalog takes about 35 s, one op alone 16 s, too long to repeat inside a run
CATALOG_BUDGET = dict(
    finite_n=40, sequence_terms=20, staircase_blocks=25,
    max_prime=250, max_n=150, max_denominator=40,
)


def _example_op(example_id: str) -> Op:
    import symcont.report
    from symcont import Budget, run_example

    budget = Budget(**CATALOG_BUDGET)

    def run() -> Outcome:
        cases = run_example(example_id, None, budget)
        ok = bool(cases) and all(case.ok for case in cases)
        report = {"command": "zoo", "cases": [c.to_json() for c in cases], "ok": ok}
        # looked up per call, so a traced pass sees the rebound name
        return Outcome(ok, symcont.report.dump_json(report).encode())

    return Op(example_id, run)


def build_catalog(seed: int) -> list[Op]:
    """Every paper example at CATALOG_BUDGET, one op each, in seeded order."""
    from symcont import list_ids

    ids = list_ids()
    random.Random(seed).shuffle(ids)
    return [_example_op(example_id) for example_id in ids]


# ---------------------------------------------------------------------------
# moduli

# bounds are checked on 50-digit decimal images, independent of exactnum
_CTX = Context(prec=50)
_ROOT2 = _CTX.sqrt(Decimal(2))


def _frac_dec(q: Fraction) -> Decimal:
    return _CTX.divide(Decimal(q.numerator), Decimal(q.denominator))


def _dec(x) -> Decimal:
    """50-digit image of a QuadExt, computed from its coordinates."""
    return _CTX.add(_frac_dec(x.rat), _CTX.multiply(_frac_dec(x.irr), _ROOT2))


def _is_exactly(x, rat: int, irr: int) -> bool:
    return x.rat == rat and x.irr == irr


UNION_LENGTHS = (Fraction(1, 2), Fraction(1))
SWEEP_DELTA = Fraction(1, 256)
SWEEP_GRID_EXPONENT = 9
# symmetric profiles on unions start at 1/64, so no pair of width < 2*delta
# can straddle a gap (>= 1/4) or two junctions (pieces are >= 1/4 long)
UNION_SCHEDULE = tuple(Fraction(1, 2**j) for j in range(6, 11))
# a straddling pair (hi of the left piece, lo + len/2**10 of the right) has
# half-width at most 1/1024, so a jump shows from delta 1/512 upward
JUMP_VISIBLE = Fraction(1, 512)
EX28_MAX_DENOMINATOR = 40


@dataclass
class UnionCase:
    ambient: object
    f: object
    slope_max: Fraction  # Lipschitz constant of every piece
    jump_max: Fraction  # largest jump at a touching junction, 0 if none


JUNCTIONS = ("gap", "glue", "jump")


def _random_union(rng: random.Random, irrational: bool, junction: str) -> UnionCase:
    """Two bounded pieces, one constant and one affine, in random order.

    Built like the acceptance suite's criterion-6 unions: the junction leaves a
    gap of at least 1/4 (`gap`) or touches, gluing continuously (`glue`) or
    jumping by an integer (`jump`). With `irrational` every endpoint carries
    +sqrt2. The junction, the lengths and the value kinds are fixed and only
    positions, values and the order of the pieces are drawn, because the grid
    density (points per unit length), the evaluation cost and the junction
    set the work, and the benchmark must not swing with them.
    """
    from symcont import (
        SQRT2, Affine, Const, FuncPiece, IntervalPiece, IntervalUnion,
        Piecewise, QuadExt, evaluate,
    )

    lengths = rng.sample(UNION_LENGTHS, len(UNION_LENGTHS))
    affine = rng.sample((False, True), 2)
    pos = QuadExt.of(Fraction(rng.randint(-6, 6), rng.choice([1, 2])))
    if irrational:
        pos = pos + SQRT2
    value = QuadExt.of(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
    slope_max = Fraction(0)
    jump_max = Fraction(0)
    pieces, funcs = [], []
    for k, length in enumerate(lengths):
        if not affine[k]:
            fm = Const(value)
        else:
            m = Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.choice([1, 2]))
            fm = Affine(QuadExt.of(m), value - QuadExt.of(m) * pos)
            slope_max = max(slope_max, abs(m))
        piece = IntervalPiece(
            pos, pos + QuadExt.of(length),
            lo_closed=k == 0 or junction == "gap", hi_closed=True,
        )
        pieces.append(piece)
        funcs.append(FuncPiece(IntervalUnion((piece,)), fm))
        if k == len(lengths) - 1:
            break
        if junction == "gap":
            pos = piece.hi + QuadExt.of(Fraction(rng.randint(1, 4), 4))
            value = QuadExt.of(Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3])))
        else:
            pos = piece.hi
            value = evaluate(fm, piece.hi)
        if junction == "jump":
            jump_max = Fraction(rng.randint(1, 3))
            value = value + QuadExt.of(jump_max * rng.choice([-1, 1]))
    return UnionCase(IntervalUnion(tuple(pieces)), Piecewise(tuple(funcs)), slope_max, jump_max)


def _uc_sweep_op(case: UnionCase) -> Op:
    """Criterion-6 sweep: Lipschitz bound without a jump, jump bound with one."""
    from symcont import AnalysisConfig, QuadExt, uc_oscillation

    delta = QuadExt.of(SWEEP_DELTA)
    config = AnalysisConfig(grid_exponent=SWEEP_GRID_EXPONENT)

    def run() -> Outcome:
        res = uc_oscillation(case.ambient, case.f, delta, config)
        m, j = case.slope_max, case.jump_max
        if j == 0:
            ok = res.value is None or _dec(res.value) <= _frac_dec(m * SWEEP_DELTA)
        else:
            ok = res.value is not None and _dec(res.value) >= _frac_dec(j - m * SWEEP_DELTA)
        return Outcome(ok, _osc_bytes(res))

    return Op("uc_sweep", run)


def _usc_union_op(case: UnionCase) -> Op:
    """Symmetric profile on the sampled union (grid capped at exponent 7)."""
    from symcont import AnalysisConfig, QuadExt, modulus_profile

    config = AnalysisConfig(delta_schedule=tuple(QuadExt.of(d) for d in UNION_SCHEDULE))

    def run() -> Outcome:
        profile = modulus_profile(case.ambient, case.f, config, "usc")
        m, j = case.slope_max, case.jump_max
        ok = profile.sampled and len(profile.rows) == len(UNION_SCHEDULE)
        for (_, res), d in zip(profile.rows, UNION_SCHEDULE):
            value = None if res.value is None else _dec(res.value)
            if value is not None and (value < 0 or value > _frac_dec(j + 2 * m * d)):
                ok = False
            if j > 0 and d >= JUMP_VISIBLE and (
                value is None or value < _frac_dec(j - 2 * m * d)
            ):
                ok = False
        return Outcome(ok, _json_bytes(profile.to_json()))

    return Op("usc_union", run)


def _ex28():
    from symcont import (
        SQRT2, Const, FinitePoints, FuncPiece, Piecewise, QuadExt,
        TruncatedRationals,
    )

    def rationals(adjoin: bool):
        return TruncatedRationals(
            EX28_MAX_DENOMINATOR, QuadExt.of(0), QuadExt.of(2), adjoin_sqrt2=adjoin
        )

    f = Piecewise((
        FuncPiece(rationals(False), Const(QuadExt.of(1))),
        FuncPiece(FinitePoints.of(SQRT2), Const(SQRT2)),
    ))
    return rationals(True), f


def _sqrt2_gap_dec() -> Decimal:
    """Distance from sqrt2 to the nearest p/q in [0, 2] with q <= EX28_MAX_DENOMINATOR."""
    return min(
        abs(_CTX.subtract(_frac_dec(Fraction(p, q)), _ROOT2))
        for q in range(1, EX28_MAX_DENOMINATOR + 1)
        for p in (math.isqrt(2 * q * q), math.isqrt(2 * q * q) + 1)
        if p <= 2 * q
    )


def _ex28_uc_op(rng: random.Random) -> Op:
    from symcont import AnalysisConfig, QuadExt, modulus_profile

    # one scale above and one below the sqrt2 gap (~4.2e-4 = 2**-11.2)
    gap = _sqrt2_gap_dec()
    k = math.floor(-math.log2(gap))
    deltas = (Fraction(1, 2 ** rng.choice((k - 2, k - 1, k))), Fraction(1, 2 ** rng.choice((k + 1, k + 2))))
    config = AnalysisConfig(delta_schedule=tuple(QuadExt.of(d) for d in deltas))
    ambient, f = _ex28()

    def run() -> Outcome:
        profile = modulus_profile(ambient, f, config, "uc")
        ok = len(profile.rows) == len(deltas)
        for (_, res), d in zip(profile.rows, deltas):
            if _frac_dec(d) > gap:
                # a rational neighbour of sqrt2 lies within d: the jump sqrt2 - 1
                ok = ok and res.value is not None and _is_exactly(res.value, -1, 1)
            else:
                ok = ok and (res.value is None or _is_exactly(res.value, 0, 0))
        return Outcome(ok, _json_bytes(profile.to_json()))

    return Op("ex28_uc", run)


def _ex28_usc_op(rng: random.Random) -> Op:
    from symcont import AnalysisConfig, modulus_profile

    # the survey stops at max_pairs candidates, which sets the op's cost
    config = AnalysisConfig(max_pairs=rng.randint(750, 850))
    ambient, f = _ex28()

    def run() -> Outcome:
        profile = modulus_profile(ambient, f, config, "usc")
        values = [res.value for _, res in profile.rows]
        ok = any(v is not None for v in values) and all(
            v is None or _is_exactly(v, 0, 0) for v in values
        )
        return Outcome(ok, _json_bytes(profile.to_json()))

    return Op("ex28_usc", run)


def build_moduli(seed: int) -> list[Op]:
    rng = random.Random(seed)
    ops: list[Op] = []
    # each junction kind with rational endpoints (integer-lifted window scan)
    # and with sqrt2 endpoints (exact window scan)
    for irrational in (False, True):
        for junction in JUNCTIONS:
            case = _random_union(rng, irrational, junction)
            ops.append(_uc_sweep_op(case))
            ops.append(_usc_union_op(case))
    ops.append(_ex28_uc_op(rng))
    ops.append(_ex28_usc_op(rng))
    return ops


def _osc_bytes(res) -> bytes:
    from symcont import format_quadext

    return _json_bytes({
        "value": None if res.value is None else format_quadext(res.value),
        "witness": None if res.witness is None else [format_quadext(w) for w in res.witness],
        "challenges": res.challenges,
        "truncated": res.truncated,
    })


def _json_bytes(data: dict) -> bytes:
    return json.dumps(data, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# specs


def _num(rat: Fraction, irr: Fraction = Fraction(0)) -> str:
    """Spec-file spelling of rat + irr*sqrt2."""
    if irr == 0:
        return str(rat)
    op = "+" if irr > 0 else "-"
    return f"{rat} {op} {abs(irr)}*sqrt2"


def _const(rng: random.Random) -> dict:
    return {"formula": "Const", "c": _num(Fraction(rng.randint(-64, 64), rng.randint(1, 8)))}


def _formula(rng: random.Random) -> dict:
    kind = rng.randrange(5)
    if kind == 0:
        return _const(rng)
    if kind == 1:
        return {"formula": "Identity"}
    if kind == 2:
        return {
            "formula": "Affine",
            "m": _num(Fraction(rng.randint(-16, 16), rng.randint(1, 4))),
            "c": _num(Fraction(rng.randint(-64, 64), rng.randint(1, 8))),
        }
    return {"formula": "Monomial", "n": kind - 1}


def _finite_spec(rng: random.Random) -> dict:
    """Criterion-3/4 style: sparse points of Q(sqrt2) squeezed into a window
    of width about 2, eight sampled midpoints adjoined, and a step function
    over a few groups of points."""
    irr_choices = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1))
    pts: dict[tuple[Fraction, Fraction], None] = {}
    while len(pts) < 24:
        rat = Fraction(rng.randint(-4096, 4096), rng.randint(1, 16)) / 4096
        pts[(rat, rng.choice(irr_choices) / 4096)] = None
    base = list(pts)
    for _ in range(8):
        (xa, xb), (ya, yb) = rng.sample(base, 2)
        pts[((xa + ya) / 2, (xb + yb) / 2)] = None
    points = list(pts)
    groups = rng.randint(1, 4)
    buckets: list[list] = [[] for _ in range(groups)]
    for p in points:
        buckets[rng.randrange(groups)].append(p)
    pieces = [
        {
            "region": {"type": "FinitePoints", "points": [_num(a, b) for a, b in bucket]},
            "formula": _formula(rng),
        }
        for bucket in buckets
        if bucket
    ]
    return {
        "domain": {"type": "FinitePoints", "points": [_num(a, b) for a, b in points]},
        "function": {"type": "Piecewise", "pieces": pieces},
    }


def _integer_window_spec(rng: random.Random) -> dict:
    lo = rng.randint(-50, 50)
    hi = lo + 60
    mid = rng.randint(lo, hi - 1)
    return {
        "domain": {"type": "IntegerWindow", "lo": lo, "hi": hi},
        "function": {"type": "Piecewise", "pieces": [
            {"region": {"type": "IntegerWindow", "lo": lo, "hi": mid}, "formula": _formula(rng)},
            {"region": {"type": "IntegerWindow", "lo": mid + 1, "hi": hi}, "formula": _formula(rng)},
        ]},
    }


def _staircase_spec(rng: random.Random) -> dict:
    return {
        "domain": {"type": "Staircase", "variant": rng.choice("AB"), "blocks": 9},
        "function": _formula(rng),
    }


def _union_pieces(rng: random.Random, irr: Fraction) -> list[dict]:
    """Three pieces, each touching its left neighbour or after a gap."""
    pieces = []
    pos = Fraction(rng.randint(-8, 8), rng.choice([1, 2, 4]))
    for k in range(3):
        length = Fraction(rng.randint(1, 8), 4)
        touch = k > 0 and rng.random() < 0.5
        if k > 0 and not touch:
            pos += Fraction(rng.randint(1, 4), 4)
        pieces.append({
            "lo": _num(pos, irr), "hi": _num(pos + length, irr),
            "loClosed": not touch, "hiClosed": True,
        })
        pos += length
    return pieces


def _interval_spec(rng: random.Random, irr: Fraction = Fraction(0)) -> dict:
    pieces = _union_pieces(rng, irr)
    return {
        "domain": {"type": "IntervalUnion", "pieces": pieces},
        "function": {"type": "Piecewise", "pieces": [
            {"region": {"type": "IntervalUnion", "pieces": [p]},
             "formula": rng.choice((_const, _formula))(rng)}
            for p in pieces
        ]},
    }


def _interval_sqrt2_spec(rng: random.Random) -> dict:
    return _interval_spec(rng, Fraction(1))


def _indicator_spec(family: dict, member: dict) -> dict:
    return {
        "domain": family,
        "function": {"type": "Piecewise", "pieces": [
            {"region": member, "formula": {"formula": "Const", "c": 1}},
            {"region": {"type": "FinitePoints", "points": [0]},
             "formula": {"formula": "Const", "c": 0}},
        ]},
    }


def _prime_spec(rng: random.Random) -> dict:
    n = rng.randint(200, 220)
    return _indicator_spec(
        {"type": "OddPrimeReciprocals", "maxPrime": n, "withZero": True},
        {"type": "OddPrimeReciprocals", "maxPrime": n, "withZero": False},
    )


def _natural_spec(rng: random.Random) -> dict:
    n = rng.randint(75, 85)
    return _indicator_spec(
        {"type": "NaturalReciprocals", "maxN": n, "withZero": True},
        {"type": "NaturalReciprocals", "maxN": n, "withZero": False},
    )


def _anchored_spec(rng: random.Random) -> dict:
    lo = rng.randint(-30, 0)
    hi = lo + 45
    anchors = sorted(rng.sample(range(lo, hi + 1), 8))
    return {
        "domain": {"type": "IntegerWindow", "lo": lo, "hi": hi},
        "function": _formula(rng),
        "subsetB": {"type": "FinitePoints", "points": anchors},
    }


def _large_family_spec(rng: random.Random, which: int) -> dict:
    """A family whose nominal size dwarfs the enumLimit actually analysed."""
    if which == 0:
        n = rng.randint(9_800, 10_200)
        spec = _indicator_spec(
            {"type": "NaturalReciprocals", "maxN": n, "withZero": True},
            {"type": "NaturalReciprocals", "maxN": n, "withZero": False},
        )
    elif which == 1:
        n = rng.randint(98_000, 102_000)
        spec = _indicator_spec(
            {"type": "OddPrimeReciprocals", "maxPrime": n, "withZero": True},
            {"type": "OddPrimeReciprocals", "maxPrime": n, "withZero": False},
        )
    else:
        lo = rng.randint(-5, 5)
        spec = {
            "domain": {"type": "TruncatedRationals", "maxDenominator": 50,
                       "lo": lo, "hi": lo + 1, "adjoinSqrt2": False},
            "function": {"formula": "Identity"},
        }
    # sizes chosen so the three kinds cost about the same, which keeps
    # latency_p90_ms inside one cluster of requests rather than between two
    spec["config"] = {"enumLimit": 20}
    return spec


def _malformed_specs(rng: random.Random) -> list[dict | str]:
    """Inputs that must exit 2 with a message."""
    lo = rng.randint(-9, 9)
    return [
        {"domain": {"type": "IntegerWindow", "lo": lo, "hi": lo + 5},
         "function": {"formula": "Const", "c": 0.5}},
        {"domain": {"type": "IntegerWindow", "lo": lo, "hi": lo + 5},
         "function": {"formula": "Identity"}, "colour": "red"},
        {"domain": {"type": "IntegerWindow", "lo": lo, "hi": lo + 5},
         "function": {"formula": "Identity"},
         "subsetB": {"type": "FinitePoints", "points": ["1/3"]}},
        {"domain": {"type": "Hyperbola"}, "function": {"formula": "Identity"}},
        '{"domain": {"type": "IntegerWindow", "lo": 0, "hi": ',
    ]


def _robustness_specs() -> list[dict]:
    """The two valid specs of ROADMAP item 4: a TruncatedRationals window at
    10**30 (hangs at the seed) and at 10**400 (OverflowError at the seed)."""
    out = []
    for exponent in (30, 400):
        lo = 10**exponent
        out.append({
            "domain": {"type": "TruncatedRationals", "maxDenominator": 3,
                       "lo": str(lo), "hi": str(lo + 2), "adjoinSqrt2": False},
            "function": {"formula": "Identity"},
        })
    return out


# (kind, count, spec generator, argv prefix, expected exit codes)
SPEC_MIX = (
    ("finite_analyze", 36, _finite_spec, ["analyze"], (0,)),
    ("finite_verify", 10, _finite_spec, ["analyze", "--verify-witness"], (0,)),
    ("finite_moduli_usc", 4, _finite_spec, ["moduli", "--notion", "usc"], (0,)),
    ("finite_moduli_uc", 4, _finite_spec, ["moduli", "--notion", "uc"], (0,)),
    ("integer_window", 10, _integer_window_spec, ["analyze"], (0,)),
    ("staircase", 8, _staircase_spec, ["analyze"], (0,)),
    ("interval", 8, _interval_spec, ["analyze"], (0,)),
    ("interval_sqrt2", 4, _interval_sqrt2_spec, ["analyze"], (0,)),
    ("interval_verify", 2, _interval_spec, ["analyze", "--verify-witness"], (0,)),
    ("interval_moduli_uc", 2, _interval_spec,
     ["moduli", "--notion", "uc", "--grid-exponent", "7"], (0,)),
    ("interval_sqrt2_moduli_uc", 1, _interval_sqrt2_spec,
     ["moduli", "--notion", "uc", "--grid-exponent", "7"], (0,)),
    ("prime_indicator", 4, _prime_spec, ["analyze"], (0,)),
    ("natural_indicator", 4, _natural_spec, ["analyze"], (0,)),
    ("anchored", 6, _anchored_spec, ["analyze"], (0,)),
    ("anchored_verify", 2, _anchored_spec, ["analyze", "--verify-witness"], (0,)),
)


def _spec_op(kind: str, path: Path, argv: list[str], expected: tuple[int, ...]) -> Op:
    def run() -> Outcome:
        code, text = call_cli([*argv, str(path), "--format", "json"])
        ok = code in expected
        if code == 0:
            report = _parse_json(text)
            ok = ok and report is not None and report.get("command") == argv[0]
        payload = json.dumps({"exit": code}).encode() + text.encode()
        return Outcome(ok, payload)

    return Op(kind, run, SPEC_DEADLINE_S)


def build_specs(seed: int, workdir: Path) -> list[Op]:
    """Write the seed's spec documents under workdir and return one op each."""
    rng = random.Random(seed)
    docs: list[tuple[str, dict | str, list[str], tuple[int, ...]]] = []
    for kind, count, generate, argv, expected in SPEC_MIX:
        for _ in range(count):
            docs.append((kind, generate(rng), argv, expected))
    # about a tenth of the requests, so latency_p90_ms sits among them
    for which in range(3):
        for _ in range(4):
            docs.append(("large_family", _large_family_spec(rng, which), ["analyze"], (0,)))
    for doc in _malformed_specs(rng):
        docs.append(("malformed", doc, ["analyze"], (2,)))
    for doc in _robustness_specs():
        # a report or a clean exit 2 both count as handled
        docs.append(("robustness", doc, ["analyze"], (0, 2)))
    rng.shuffle(docs)
    ops = []
    for i, (kind, doc, argv, expected) in enumerate(docs):
        path = workdir / f"spec-{i:03d}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        ops.append(_spec_op(kind, path, argv, expected))
    return ops
