import hashlib
import io
import json
import time
from contextlib import redirect_stderr, redirect_stdout

import jsonschema
import pytest

from symcont.cli import main

from conftest import run_cli


@pytest.fixture
def prime_spec(tmp_path):
    spec = {
        "domain": {"type": "OddPrimeReciprocals", "maxPrime": 100, "withZero": True},
        "function": {
            "type": "Piecewise",
            "pieces": [
                {
                    "region": {
                        "type": "OddPrimeReciprocals",
                        "maxPrime": 100,
                        "withZero": False,
                    },
                    "formula": {"formula": "Const", "c": 1},
                },
                {
                    "region": {"type": "FinitePoints", "points": [0]},
                    "formula": {"formula": "Const", "c": 0},
                },
            ],
        },
        "config": {"gridExponent": 6, "enumLimit": 10000},
    }
    path = tmp_path / "primes.json"
    path.write_text(json.dumps(spec))
    return str(path)


@pytest.fixture
def window_spec(tmp_path):
    spec = {
        "domain": {"type": "IntegerWindow", "lo": -5, "hi": 5},
        "function": {"formula": "Identity"},
    }
    path = tmp_path / "window.json"
    path.write_text(json.dumps(spec))
    return str(path)


def run_main(*args):
    """In-process invocation capturing both streams."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


class TestAnalyze:
    def test_text_report(self, prime_spec):
        proc = run_cli("analyze", prime_spec)
        assert proc.returncode == 0
        assert "USC" in proc.stdout and "domain:" in proc.stdout
        assert "proven" in proc.stdout and "refuted" in proc.stdout
        assert "elapsed" in proc.stderr
        assert "elapsed" not in proc.stdout

    def test_json_report_matches_schema(self, prime_spec, report_schema):
        proc = run_cli("analyze", prime_spec, "--format", "json")
        assert proc.returncode == 0
        data = json.loads(proc.stdout)
        jsonschema.validate(data, report_schema)
        assert data["command"] == "analyze"
        assert set(data["verdicts"]) == {"C", "UC", "SC", "USC"}
        assert data["verdicts"]["USC"]["status"] == "proven"
        assert data["verdicts"]["C"]["status"] == "refuted"

    def test_verify_witness_flag(self, prime_spec):
        code, out, _ = run_main(
            "analyze", prime_spec, "--verify-witness", "--format", "json"
        )
        assert code == 0
        data = json.loads(out)
        assert set(data["witness_checks"]) >= {"C", "UC", "SC", "USC"}
        assert all(v == [] for v in data["witness_checks"].values())

    def test_missing_file(self):
        code, _, err = run_main("analyze", "/nonexistent/path.json")
        assert code == 2
        assert "cannot read" in err

    def test_bad_spec(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run_main("analyze", str(bad))
        assert code == 2
        assert "syntax error" in err

    def test_flag_overrides_config(self, window_spec):
        code, out, _ = run_main(
            "analyze",
            window_spec,
            "--format",
            "json",
            "--delta-schedule",
            "1/2,1/4",
            "--max-pairs",
            "123",
        )
        assert code == 0
        data = json.loads(out)
        assert data["config"]["delta_schedule"] == ["1/2", "1/4"]
        assert data["config"]["max_pairs"] == 123


class TestGluedPieces:
    """An interval union of many glued pieces, one Piecewise region each, is
    tiled once: the junction limits are read from that tiling. Separated
    pieces take their smallest component gap from neighbouring pieces."""

    @staticmethod
    def zigzag_spec(n, step=1):
        # x - k on [step*k, step*k + 1) for even k, k + 1 - x for odd k: with
        # step 1 continuous at every junction, so every junction reaches the
        # certificate; with step 2 separated by gaps of 1
        pieces = [
            {"lo": step * k, "hi": step * k + 1, "hiClosed": k == n - 1} for k in range(n)
        ]
        formulas = [
            {"formula": "Affine", "m": 1, "c": -k}
            if k % 2 == 0
            else {"formula": "Affine", "m": -1, "c": k + 1}
            for k in range(n)
        ]
        return {
            "domain": {"type": "IntervalUnion", "pieces": pieces},
            "function": {
                "type": "Piecewise",
                "pieces": [
                    {"region": {"type": "IntervalUnion", "pieces": [p]}, "formula": fm}
                    for p, fm in zip(pieces, formulas)
                ],
            },
        }

    @pytest.mark.parametrize(
        "n, step, digest, junctions",
        [
            (300, 1, "7dfcb4961e37487a3ba92c63315f5013a4b2ebc637ccab39447c194ce15250e1", 299),
            (3000, 2, "60a1ef905d9d569d24ae1a0f25a0cb10186a466c343627d74c85b993fc64998b", 0),
        ],
        ids=["glued_300", "separated_3000"],
    )
    def test_many_pieces_are_prompt(self, tmp_path, n, step, digest, junctions):
        # on 2 vCPUs, tiling the union again at every junction took 11.5 s
        # for the glued 300, and taking the gap of every pair of components
        # 7.2 s for the separated 3 000
        path = tmp_path / "zigzag.json"
        path.write_text(json.dumps(self.zigzag_spec(n, step)))
        start = time.perf_counter()
        proc = run_cli("analyze", str(path), "--format", "json", timeout=30)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest
        report = json.loads(proc.stdout)
        cert = report["verdicts"]["UC"]["certificate"]
        assert len(cert["junctions"]) == junctions
        assert elapsed < 5


class TestFirstMatchTiling:
    def test_piece_met_by_an_earlier_region_exits_2(self, tmp_path):
        """5 at 1/2 by first match, the identity elsewhere on (0, 1): no one
        formula tiles the piece, so no verdict is printed."""
        unit = {"lo": 0, "hi": 1, "loClosed": False, "hiClosed": False}
        spec = {
            "domain": {"type": "IntervalUnion", "pieces": [unit]},
            "function": {
                "type": "Piecewise",
                "pieces": [
                    {"region": {"type": "FinitePoints", "points": ["1/2"]},
                     "formula": {"formula": "Const", "c": 5}},
                    {"region": {"type": "IntervalUnion", "pieces": [unit]},
                     "formula": {"formula": "Identity"}},
                ],
            },
        }
        path = tmp_path / "spike.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_main("analyze", str(path))
        assert (code, out) == (2, "")
        assert "piece (0, 1) is split between piecewise regions 0, 1" in err


class TestZoo:
    def test_single_example_json(self, report_schema):
        code, out, _ = run_main(
            "zoo", "--example", "ex-3.6", "--format", "json", "--enum-limit", "10000"
        )
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, report_schema)
        assert data["ok"] is True
        assert data["relations"] == []
        assert data["cases"][0]["example"] == "ex-3.6"

    def test_single_example_text(self):
        code, out, _ = run_main("zoo", "--example", "ex-3.6")
        assert code == 0
        assert "ex-3.6" in out

    def test_unknown_example(self):
        code, _, err = run_main("zoo", "--example", "ex-0.0")
        assert code == 2
        assert "unknown example id" in err
        assert "ex-2.4" in err

    def test_needs_selection(self):
        code, _, err = run_main("zoo")
        assert code == 2
        assert "--all or --example" in err

    def test_byte_determinism(self):
        a = run_cli("zoo", "--example", "ex-3.6", "--format", "json")
        b = run_cli("zoo", "--example", "ex-3.6", "--format", "json")
        assert a.returncode == b.returncode == 0
        assert a.stdout == b.stdout

    def test_mismatch_exits_one(self, monkeypatch):
        import symcont.zoo as zoo_mod

        real_run_example = zoo_mod.run_example

        def tampered(example_id, config=None, budget=None):
            reports = real_run_example(example_id, config, budget)
            reports[0].mismatches.append("forced for the exit-code test")
            return reports

        # _cmd_zoo imports the catalog's names when it runs
        monkeypatch.setattr(zoo_mod, "run_example", tampered)
        code, out, _ = run_main("zoo", "--example", "ex-3.6", "--format", "json")
        assert code == 1
        assert json.loads(out)["ok"] is False


class TestFarFromZero:
    """Valid TruncatedRationals windows far from zero, where a float image of
    the bounds is useless: exact floors keep the enumeration to the window."""

    @staticmethod
    def spec(tmp_path, lo: int) -> str:
        spec = {
            "domain": {"type": "TruncatedRationals", "maxDenominator": 3,
                       "lo": str(lo), "hi": str(lo + 2), "adjoinSqrt2": False},
            "function": {"formula": "Identity"},
        }
        path = tmp_path / "far.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_window_at_ten_to_the_30_is_prompt(self, tmp_path):
        path = self.spec(tmp_path, 10**30)
        start = time.perf_counter()
        proc = run_cli("analyze", path, "--format", "json", timeout=30)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["command"] == "analyze"
        assert elapsed < 2

    def test_window_at_ten_to_the_400_exits_cleanly(self, tmp_path):
        path = self.spec(tmp_path, 10**400)
        proc = run_cli("analyze", path, "--format", "json", timeout=30)
        assert proc.returncode in (0, 2)
        assert "Traceback" not in proc.stderr


class TestLongNumbers:
    """A number of more digits than the interpreter converts between int and
    str (4 300 by default) is a spec error, not a traceback."""

    DIGITS = "7" * 5000

    def run(self, tmp_path, domain_text: str):
        path = tmp_path / "long.json"
        path.write_text(
            '{"domain": ' + domain_text + ', "function": {"formula": "Identity"}}'
        )
        return run_main("analyze", str(path))

    def test_string_point_exits_2(self, tmp_path):
        code, out, err = self.run(
            tmp_path, '{"type": "FinitePoints", "points": ["1/' + self.DIGITS + '", "0"]}'
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "a number of 5000 digits exceeds the limit" in err
        assert out == ""

    def test_json_integer_exits_2(self, tmp_path):
        code, out, err = self.run(
            tmp_path, '{"type": "IntegerWindow", "lo": 0, "hi": ' + self.DIGITS + "}"
        )
        assert code == 2
        assert err.startswith("error: ")
        assert "an integer exceeds the limit" in err
        assert out == ""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_long_result_exits_2(self, tmp_path, fmt):
        """Two reciprocals of 2 500-digit integers each parse, but the
        uniformly-discrete gap between them has about 5 000 digits."""
        p = 10**2499 + 8_271_993
        q = 3 * 10**2499 + 1_048_573
        path = tmp_path / "long.json"
        path.write_text(
            json.dumps(
                {
                    "domain": {"type": "FinitePoints", "points": [f"1/{p}", f"1/{q}"]},
                    "function": {"formula": "Identity"},
                }
            )
        )
        code, out, err = run_main("analyze", str(path), "--format", fmt)
        assert code == 2
        assert err.startswith("error: cannot render a number")
        assert "the limit is 4300 digits" in err
        assert out == ""


class TestModuli:
    def test_uc_table(self, prime_spec):
        code, out, _ = run_main("moduli", prime_spec, "--notion", "uc")
        assert code == 0
        assert "delta" in out and "omega" in out

    def test_usc_json(self, prime_spec, report_schema):
        code, out, _ = run_main("moduli", prime_spec, "--notion", "usc", "--format", "json")
        assert code == 0
        data = json.loads(out)
        jsonschema.validate(data, report_schema)
        assert data["command"] == "moduli"
        assert data["profile"]["notion"] == "usc"
        assert len(data["profile"]["rows"]) == 21

    def test_notion_required(self, prime_spec):
        code, _, _ = run_main("moduli", prime_spec)
        assert code == 2

    @pytest.mark.parametrize("where", ["flag", "spec"])
    def test_grid_exponent_above_cap_exits_2(self, tmp_path, where):
        spec = {
            "domain": {"type": "IntervalUnion", "pieces": [{"lo": 0, "hi": 1}]},
            "function": {"formula": "Identity"},
        }
        flags = ["--grid-exponent", "40"]
        if where == "spec":
            spec["config"] = {"gridExponent": 40}
            flags = []
        path = tmp_path / "interval.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("moduli", str(path), "--notion", "uc", *flags, timeout=10)
        assert proc.returncode == 2
        assert "grid exponent must be at most 16" in proc.stderr

    def test_probe_above_cap_exits_2(self, tmp_path):
        pieces = [{"lo": 2 * k, "hi": 2 * k + 1} for k in range(8)]
        spec = {
            "domain": {"type": "IntervalUnion", "pieces": pieces},
            "function": {"formula": "Identity"},
            "config": {"gridExponent": 14},
        }
        path = tmp_path / "pieces.json"
        path.write_text(json.dumps(spec))
        proc = run_cli("moduli", str(path), "--notion", "uc", timeout=10)
        assert proc.returncode == 2
        assert "131080 points exceeds the limit of 100000" in proc.stderr

    def test_staircase_blocks_above_cap_exits_2(self, tmp_path):
        spec = {
            "domain": {"type": "Staircase", "variant": "A", "blocks": 10**6},
            "function": {"formula": "Identity"},
        }
        path = tmp_path / "stairs.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        proc = run_cli("analyze", str(path), timeout=10)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        assert "domain.blocks: at most 1000 blocks" in proc.stderr
        assert elapsed < 5

    def test_max_prime_above_cap_exits_2(self, tmp_path):
        # 10**10 would ask the sieve for a 10 GB bytearray
        spec = {
            "domain": {"type": "OddPrimeReciprocals", "maxPrime": 10**10, "withZero": True},
            "function": {"formula": "Identity"},
        }
        path = tmp_path / "primes.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        proc = run_cli("analyze", str(path), timeout=10)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        assert "domain.maxPrime: at most 1000000" in proc.stderr
        assert elapsed < 5

    def test_monomial_degree_above_cap_exits_2(self, tmp_path):
        # x**100000 over sqrt2-adjoined rationals did not end within 20 s
        spec = {
            "domain": {"type": "TruncatedRationals", "maxDenominator": 5, "lo": 1,
                       "hi": 2, "adjoinSqrt2": True},
            "function": {"formula": "Monomial", "n": 10**5},
        }
        path = tmp_path / "monomial.json"
        path.write_text(json.dumps(spec))
        start = time.perf_counter()
        proc = run_cli("analyze", str(path), timeout=10)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        assert "function.n: at most 64" in proc.stderr
        assert elapsed < 5
        spec["function"]["n"] = 64
        path.write_text(json.dumps(spec))
        code, _, _ = run_main("analyze", str(path))
        assert code == 0

    @pytest.mark.parametrize("where", ["flag", "spec"])
    def test_delta_schedule_above_cap_exits_2(self, tmp_path, where):
        # each schedule entry is one more profile row and window scan
        def write(schedule):
            spec = {
                "domain": {"type": "IntegerWindow", "lo": 0, "hi": 5},
                "function": {"formula": "Identity"},
            }
            flags = ["--delta-schedule", ",".join(schedule)]
            if where == "spec":
                spec["config"] = {"deltaSchedule": schedule}
                flags = []
            path = tmp_path / "window.json"
            path.write_text(json.dumps(spec))
            return str(path), flags

        schedule = [f"1/{k}" for k in range(1, 66)]
        path, flags = write(schedule)
        start = time.perf_counter()
        proc = run_cli("analyze", path, *flags, timeout=10)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2
        name = "--delta-schedule" if where == "flag" else "config.deltaSchedule"
        assert f"{name}: at most 64 entries" in proc.stderr
        assert elapsed < 5
        path, flags = write(schedule[:64])
        code, out, _ = run_main("analyze", path, *flags, "--format", "json")
        assert code == 0
        assert json.loads(out)["config"]["delta_schedule"][-1] == "1/64"


class TestUsage:
    def test_no_command(self):
        code, _, _ = run_main()
        assert code == 2

    def test_help_exits_zero(self):
        code, _, _ = run_main("--help")
        assert code == 0

    def test_bad_format_value(self, window_spec):
        code, _, _ = run_main("analyze", window_spec, "--format", "xml")
        assert code == 2
