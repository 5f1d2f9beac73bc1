import hashlib
import json
import math
import sys
from collections import Counter
from fractions import Fraction

import pytest

from symcont import (
    AnalysisConfig,
    ConfigurationError,
    QuadExt,
    evaluate,
    verify_refuting_sequence,
    verify_witness,
)
from symcont import analysis
from symcont.report import dump_json, render_zoo_text
from symcont.zoo import (
    Budget,
    build_example,
    get_example,
    list_ids,
    midpoint_contrast_naturals,
    midpoint_exclusion_primes,
    run_all,
    run_case,
    run_example,
    step_lattice_function,
    verify_staircase_proof,
)
from symcont.domains import staircase_breakpoints
from symcont.exactnum import SQRT2

from conftest import REPO_ROOT, qx

if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from perfbench.workloads import CATALOG_BUDGET  # noqa: E402

SMALL = Budget.small()
FAST = AnalysisConfig(grid_exponent=6, enum_limit=10**4)

EXPECTED_IDS = [
    "ex-2.4",
    "ex-2.5",
    "ex-2.7",
    "ex-2.8",
    "ex-3.2",
    "ex-3.3",
    "ex-3.5",
    "ex-3.6",
    "ex-3.7",
    "ex-3.8",
    "ex-3.9",
    "ex-4.3",
]


class TestCatalogShape:
    def test_ids(self):
        assert list_ids() == EXPECTED_IDS

    def test_unknown_id(self):
        with pytest.raises(ConfigurationError):
            get_example("ex-9.9")

    def test_every_entry_builds(self):
        for example_id in EXPECTED_IDS:
            cases = build_example(example_id, SMALL)
            assert cases
            for case in cases:
                assert set(case.expected) == {"C", "UC", "SC", "USC"}

    def test_case_count(self):
        total = sum(len(build_example(i, SMALL)) for i in EXPECTED_IDS)
        assert total == 14

    def test_titles_present(self):
        for example_id in EXPECTED_IDS:
            ex = get_example(example_id)
            assert ex.title and ex.summary


class TestSmallBudgetRun:
    """The downscaled catalog must reproduce every expected verdict; the
    default-budget run is exercised by the acceptance suite."""

    def test_run_all_small(self):
        report = run_all(FAST, SMALL)
        failed = [
            (c.example_id, c.case, c.mismatches, c.consistency)
            for c in report.cases
            if not c.ok
        ]
        assert failed == []
        assert len(report.cases) == 14
        assert report.ok

    def test_relations_confirmed(self):
        report = run_all(FAST, SMALL)
        assert len(report.relations) == 5
        by_id = {r["relation"]: r for r in report.relations}
        assert set(by_id) == {
            "uc-implies-c-strict",
            "c-implies-sc-strict",
            "usc-implies-sc-strict",
            "uc-implies-usc-strict",
            "c-usc-incomparable",
        }
        for rel in report.relations:
            assert rel["confirmed"]
            for check in rel["checks"]:
                assert check["holds"]
                assert check["actual"] == check["required"]

    def test_json_round_trip_stable(self):
        a = json.dumps(run_all(FAST, SMALL).to_json(), indent=2)
        b = json.dumps(run_all(FAST, SMALL).to_json(), indent=2)
        assert a == b

    def test_sequences_verified(self):
        report = run_all(FAST, SMALL)
        for case in report.cases:
            for seq in case.sequence_reports:
                assert seq["ok"], (case.example_id, seq)
                assert seq["failure"] is None

    def test_every_witness_reverifies(self):
        for example_id in EXPECTED_IDS:
            for case in build_example(example_id, SMALL):
                rep = run_case(example_id, case, FAST, SMALL)
                for v in rep.verdicts.values():
                    assert verify_witness(case.ambient, case.f, v) == [], (
                        example_id, case.name, v.notion
                    )
                if rep.wrt_b is not None:
                    assert verify_witness(
                        case.ambient, case.f, rep.wrt_b, case.subset_b
                    ) == [], (example_id, case.name)

    def test_family_scope_override(self):
        reports = run_example("ex-3.2", FAST, SMALL)
        verdicts = reports[0].verdicts
        assert verdicts["UC"].status == "refuted"
        assert verdicts["UC"].method == "sequence"
        assert verdicts["USC"].status == "refuted"
        assert verdicts["USC"].method == "sequence"
        assert verdicts["UC"].witness["kind"] == "sequence"
        # the discrete truth at any fixed truncation stays on record
        assert any("truncation" in n for n in verdicts["UC"].notes)

    def test_restricted_anchor_case(self):
        reports = run_example("ex-3.7", FAST, SMALL)
        by_case = {r.case: r for r in reports}
        ambient_case = by_case["ambient"]
        assert ambient_case.wrt_b is not None
        assert ambient_case.wrt_b.status == "refuted"
        assert by_case["restricted-to-anchors"].wrt_b is None


class TestCorruptedSequenceDetected:
    def test_tampered_claim_fails_case(self):
        budget = SMALL
        case = build_example("ex-2.4", budget)[0]
        seq = case.sequences[0]
        object.__setattr__(seq, "claimed", lambda n: QuadExt.of(1000))
        report = run_case("ex-2.4", case, FAST, budget)
        assert not report.ok
        assert any("sequence" in m for m in report.mismatches)


class TestPointTable:
    """run_case checks the sequences of a case against one point table."""

    @staticmethod
    def reports(case, budget, shared):
        points = {}
        out = []
        for seq in case.sequences:
            centers = case.subset_b if seq.kind == "wrt_b" else None
            args = (case.ambient, case.f, seq, budget.sequence_terms, centers)
            out.append(verify_refuting_sequence(*args, points=points if shared else None))
        return out

    @pytest.mark.parametrize(
        "budget", [SMALL, Budget(**CATALOG_BUDGET)], ids=["small", "catalog"]
    )
    def test_shared_table_changes_no_report(self, budget):
        checked = 0
        for example_id in EXPECTED_IDS:
            for case in build_example(example_id, budget):
                shared = self.reports(case, budget, True)
                assert shared == self.reports(case, budget, False), example_id
                checked += len(shared)
        assert checked == 17

    def test_each_point_is_valued_once(self, monkeypatch):
        """ex-2.7's c sequence reads the values its usc sequence took at the
        same pairs (1/n, 0), and on its own values its anchor 0 once."""
        (case,) = build_example("ex-2.7", SMALL)
        _, c = case.sequences
        valued = Counter()
        real = analysis.evaluate

        def counted(f, x):
            valued[x] += 1
            return real(f, x)

        monkeypatch.setattr(analysis, "evaluate", counted)
        n = SMALL.sequence_terms
        assert [r.ok for r in self.reports(case, SMALL, True)] == [True, True]
        assert valued == Counter([qx(0)] + [qx(Fraction(1, k)) for k in range(1, n + 1)])
        valued.clear()
        assert verify_refuting_sequence(case.ambient, case.f, c, n).ok
        assert valued[qx(0)] == 1 and sum(valued.values()) == n + 1


def _odd_primes(m: int) -> list[int]:
    return [p for p in range(3, m + 1, 2) if all(p % q for q in range(3, math.isqrt(p) + 1, 2))]


def _closed_forms(example_id: str, budget: Budget) -> list[list[tuple]]:
    """Per case, per sequence: (term, claimed) of each example's refuting
    sequences as closed forms in Fraction, written apart from the builders."""
    one = Fraction(1)
    if example_id in ("ex-2.5", "ex-3.3"):
        primes = _odd_primes(budget.max_prime)
        claim = (lambda n: one) if example_id == "ex-2.5" else (lambda n: primes[n - 1])
        return [[(lambda n: (Fraction(1, primes[n - 1]), 0), claim)]]
    if example_id == "ex-2.8":
        conv = [c for c in (Fraction(7, 5), Fraction(17, 12), Fraction(41, 29),
                            Fraction(99, 70), Fraction(239, 169))
                if c.denominator <= budget.max_denominator]
        return [[(lambda n: (conv[n - 1], SQRT2), lambda n: SQRT2 - 1)]]
    if example_id in ("ex-3.8", "ex-3.9"):
        variant = "A" if example_id == "ex-3.8" else "B"
        bp = staircase_breakpoints(variant, budget.staircase_blocks)
        if variant == "A":
            return [[(lambda k: (bp[4 * k - 2], bp[4 * k - 3]), lambda k: 2)]]
        return [[(lambda n: (bp[2 * n], bp[2 * n - 2]), lambda n: 2),
                 (lambda n: (bp[2 * n], bp[2 * n - 1]), lambda n: 2)]]
    mirror = lambda n: (1 + Fraction(1, n + 1), 1 - Fraction(1, n + 1))  # noqa: E731
    forms = {
        "ex-2.4": [[(lambda n: (Fraction(3, n), Fraction(1, n)), lambda n: Fraction(2 * n, 3))] * 2],
        "ex-2.7": [[(lambda n: (Fraction(1, n), 0), lambda n: one)] * 2],
        "ex-3.2": [[(lambda n: (n + Fraction(1, n), n), lambda n: 2 + Fraction(1, n * n))] * 2],
        "ex-3.5": [[(mirror, lambda n: one)] * 2],
        "ex-3.6": [[]],
        "ex-3.7": [[(lambda n: (Fraction(1, n), Fraction(-1, n)), lambda n: 2 * n)], []],
        "ex-4.3": [[], [(mirror, lambda n: one),
                        (lambda n: (1 + Fraction(1, n + 4), 1 - Fraction(3, n + 4)), lambda n: one)]],
    }
    return forms[example_id]


class TestSequenceTerms:
    """The catalog builds its terms on integer coordinates; they must still
    be the paper's sequences."""

    @pytest.mark.parametrize("budget", [SMALL, Budget()], ids=["small", "published"])
    def test_terms_match_closed_forms(self, budget):
        checked = 0
        for example_id in EXPECTED_IDS:
            cases = build_example(example_id, budget)
            forms = _closed_forms(example_id, budget)
            assert len(forms) == len(cases), example_id
            for case, case_forms in zip(cases, forms):
                assert len(case.sequences) == len(case_forms), example_id
                for seq, (term, claimed) in zip(case.sequences, case_forms):
                    for n in range(1, min(30, seq.n_max or 30) + 1):
                        assert seq.term(n) == term(n), (example_id, n)
                        assert seq.claimed(n) == claimed(n), (example_id, n)
                        checked += 1
        assert checked >= 17 * 5

    @pytest.mark.parametrize("budget", [SMALL, Budget()], ids=["small", "published"])
    def test_ex_3_2_set(self, budget):
        (case,) = build_example("ex-3.2", budget)
        expected = {
            x for n in range(1, budget.finite_n + 1)
            for x in (Fraction(n), n + Fraction(1, 2 * n), n + Fraction(1, n))
        }
        points = case.ambient.enumerate(10**6).points
        assert len(points) == len(expected) and set(points) == expected

    def test_sequence_checks_build_no_fraction(self, monkeypatch):
        """No Fraction is made while the sequences are checked, terms and
        claims included: the whole check runs on integer coordinates."""
        cases = [c for example_id in EXPECTED_IDS for c in build_example(example_id, SMALL)]
        made = []
        real = Fraction.__new__

        def counted(cls, *args, **kwargs):
            made.append(args)
            return real(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counted))
        reports = [
            r for case in cases for r in TestPointTable.reports(case, SMALL, True)
        ]
        monkeypatch.undo()
        assert len(reports) == 17 and all(r.ok for r in reports)
        assert made == []


class TestMidpointArithmetic:
    def test_primes_small(self):
        out = midpoint_exclusion_primes(100)
        assert out["midpoint_free"]
        assert out["violations"] == []
        # 24 odd primes up to 100: C(24,2) prime pairs plus 24 zero pairs
        assert out["points"] == 25
        assert out["pairs_checked"] == 24 * 23 // 2 + 24

    def test_naturals_contrast(self):
        out = midpoint_contrast_naturals(200)
        assert out["all_in_family"]
        assert out["confirmed"] == 200
        assert out["failures"] == []

    def test_contrast_pair_is_exact(self):
        n = 7
        x, y = Fraction(1, n), Fraction(1, n * (2 * n - 1))
        assert (x + y) / 2 == Fraction(1, 2 * n - 1)


class TestStaircaseProofs:
    def test_variant_a(self):
        out = verify_staircase_proof("A", 41, 20)
        assert out["all_ok"]
        assert out["unit_gaps"] and out["skip_midpoints_in_gaps"] and out["chain_ok"]

    def test_variant_b(self):
        out = verify_staircase_proof("B", 30, 29)
        assert out["all_ok"]
        assert out["midpoints_inside_blocks"]
        assert out["osc_exactly_two"]
        assert out["scales_shrinking"]

    def test_variant_a_guard(self):
        with pytest.raises(ConfigurationError) as err:
            verify_staircase_proof("A", 10, 20)
        assert "k_max" in str(err.value)

    def test_variant_b_guard(self):
        with pytest.raises(ConfigurationError):
            verify_staircase_proof("B", 10, 10)

    def test_unknown_variant(self):
        with pytest.raises(ConfigurationError):
            verify_staircase_proof("Z", 10, 2)


class TestStepLattice:
    def test_deterministic(self):
        f = step_lattice_function(-50, 50, 3, 8)
        g = step_lattice_function(-50, 50, 3, 8)
        for k in range(-50, 51):
            assert evaluate(f, qx(k)) == evaluate(g, qx(k))

    def test_seed_changes_function(self):
        f = step_lattice_function(-50, 50, 3, 8)
        g = step_lattice_function(-50, 50, 4, 8)
        assert any(evaluate(f, qx(k)) != evaluate(g, qx(k)) for k in range(-50, 51))

    def test_window_guard(self):
        with pytest.raises(ConfigurationError):
            step_lattice_function(0, 3, 1, 10)


@pytest.mark.parametrize(
    "budget, digest",
    [
        (SMALL, "3291319782b09c6b29d9a31903027dfb3f97d2b5d62fa46b2778c80136ebd907"),
        (Budget(), "878a54f0dc8ffe365d85096d4cae32dd991fae144e52b31b518fbc015a84f055"),
    ],
    ids=["small", "published"],
)
def test_small_catalog_report_bytes_pinned(budget, digest):
    """The catalog report at the small and at the published budget, byte for
    byte (the published one is `symcont zoo --all --format json`): a change to
    the exact kernel or to any decision routine must leave these bytes alone."""
    report = dump_json({"command": "zoo", **run_all(None, budget).to_json()})
    assert hashlib.sha256(report.encode()).hexdigest() == digest


def test_small_catalog_text_bytes_pinned():
    """The text rendering of the small-budget catalog, byte for byte."""
    report = {"command": "zoo", **run_all(None, SMALL).to_json()}
    text = render_zoo_text(report)
    digest = "e7a72f851e490c721b61f3c66fccf8d945bc131fa4d82598781eac7c4e00a751"
    assert hashlib.sha256(text.encode()).hexdigest() == digest
