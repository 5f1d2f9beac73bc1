"""The benchmark's per-layer tracer rebinds names inside symcont from outside
(perfbench/tracer.py). This keeps the names it needs alive and checks that
their counters still see work and that every name is put back afterwards."""

import importlib
import sys
from fractions import Fraction

from symcont import (
    AnalysisConfig,
    Identity,
    IntervalPiece,
    IntervalUnion,
    NaturalReciprocals,
    classify,
    modulus_profile,
)

from conftest import REPO_ROOT, qx

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.tracer import MODULE_FUNCTIONS, Tracer, instrument  # noqa: E402


def _bindings() -> dict:
    """Every attribute of every symcont module and of every class they define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "symcont":
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for key, member in vars(value).items():
                    out[(name, attr, key)] = member
    return out


def test_tracer_hooks_count_and_restore():
    for module_name, attr, _ in MODULE_FUNCTIONS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), attr
    before = _bindings()
    tracer = Tracer()
    with instrument(tracer):
        classify(NaturalReciprocals(30, with_zero=False), Identity(), AnalysisConfig())
        union = IntervalUnion((IntervalPiece(qx(0), qx(1)),))
        modulus_profile(union, Identity(), AnalysisConfig(grid_exponent=5), "uc")
        # the family pipeline surveys no pairs; a sampled usc profile does
        modulus_profile(union, Identity(), AnalysisConfig(grid_exponent=5), "usc")
    counts = tracer.counts
    # the tracer reads candidates_checked and len(pairs) of the survey: the
    # 33 grid points of [0, 1] give 33*32/2 candidates below the width cap
    # 2, and every midpoint lies in the piece
    assert counts["analysis.survey_candidates"] == 528
    assert counts["analysis.survey_pairs"] == 528
    assert counts["analysis.scan_pairs"] > 0
    assert counts["analysis.scan_int_calls"] > 0
    assert tracer.calls("analysis.per_point_c") == 1
    assert tracer.calls("analysis.usc_family") == 1
    after = _bindings()
    assert after.keys() == before.keys()
    moved = [key for key, value in before.items() if after[key] is not value]
    assert moved == []


def test_tracer_counts_owner_index_evaluation_and_restores():
    import symcont.functions
    from symcont import Const, FuncPiece, Piecewise, Staircase
    from symcont.zoo import staircase_function

    stair = staircase_function(Staircase("A", 25))
    # a leading family region is scanned through its class's contains
    f = Piecewise((FuncPiece(NaturalReciprocals(4), Const(-1)),) + stair.pieces)
    pts = [qx(1), qx(4), qx(Fraction(1, 3)), qx(Fraction(5, 2))]
    expected = [symcont.functions.evaluate(f, p) for p in pts]
    # the index is built lazily, on the first evaluation inside the block
    f = Piecewise(f.pieces)
    before = _bindings()
    tracer = Tracer()
    with instrument(tracer):
        got = [symcont.functions.evaluate(f, p) for p in pts]
    assert got == expected
    assert tracer.calls("functions.evaluate") == len(pts)
    assert tracer.totals["functions.evaluate"][0] == len(pts)
    assert tracer.calls("domains.contains") == len(pts)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
    # evaluating after the block reaches no wrapper held by the index
    counts, totals = dict(tracer.counts), {k: list(v) for k, v in tracer.totals.items()}
    assert [symcont.functions.evaluate(f, p) for p in pts] == expected
    assert tracer.counts == counts and tracer.totals == totals


def test_tracer_sees_each_sequence_verified_and_restores():
    """zoo holds verify_refuting_sequence under its own name: the tracer must
    wrap that binding too, or the catalog's verification goes unseen."""
    import symcont.zoo
    from symcont import Budget

    before = _bindings()
    tracer = Tracer()
    with instrument(tracer):
        reports = symcont.zoo.run_example("ex-2.4", None, Budget.small())
    sequences = sum(len(r.sequence_reports) for r in reports)
    assert sequences == 2
    assert tracer.calls("analysis.verify") == sequences
    assert tracer.calls("zoo.run_case") == len(reports)
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key, value in before.items() if after[key] is not value] == []
