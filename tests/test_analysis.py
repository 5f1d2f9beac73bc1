import random
from fractions import Fraction

import pytest

from symcont import (
    SQRT2,
    AnalysisConfig,
    ConfigurationError,
    Const,
    DomainError,
    FinitePoints,
    FuncPiece,
    IntegerWindow,
    IntervalPiece,
    IntervalUnion,
    NaturalReciprocals,
    Piecewise,
    QuadExt,
    Reciprocal,
    RefutingSequence,
    UnionOf,
    apply_implications,
    check_consistency,
    check_wrt_subset,
    classify,
    modulus_profile,
    parse_quadext,
    sym_oscillation,
    uc_oscillation,
    uniform_limit_transfer,
    verify_refuting_sequence,
    verify_witness,
)
from symcont.analysis import NOTIONS, Verdict
from symcont.zoo import build_example, ex_3_5_member, indicator_with_zero

from conftest import (
    brute_force_usc_status,
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

    def test_affine_everywhere_uc(self):
        dom = IntervalUnion((IntervalPiece(qx(-2), qx(2)),))
        verdicts = classify(dom, Const(5), FAST)
        for notion in NOTIONS:
            assert verdicts[notion].status == "proven"
            assert verdicts[notion].scope == "full"


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
        the cross-region sweep; the reciprocal part keeps the union off the
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
