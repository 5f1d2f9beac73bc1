"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer, instrument  # noqa: E402
from workloads import Op, Outcome, build_specs  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str) -> tuple[str, dict]:
    """Run the benchmark; return its summary line and its JSON result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    *_, summary, last = proc.stdout.strip().splitlines()
    return summary, json.loads(last)


@pytest.mark.parametrize(
    ("trace", "section"), [("0", "end_to_end"), ("1", "per_layer")]
)
def test_every_named_metric_prints_with_its_unit(trace, section):
    summary, result = _bench("--workload", "specs", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    expected = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert f"attempted={result['attempted']} " in summary
    if trace == "0":
        # the ref-unit times also appear in seconds, with the reference loop's
        assert " wall_s=" in summary and " reference_s=" in summary
    assert f"failed_frac={result['failed'] / result['attempted']} (ratio) " in summary
    # only the two robustness requests of ROADMAP item 4 may fail
    failures = json.loads(summary.split("failures=", 1)[1])
    assert all(key.startswith("robustness:") for key in failures)
    assert sum(failures.values()) == result["failed"]


def test_forced_failure_and_forced_deadline_are_counted():
    def wrong() -> Outcome:
        return Outcome(False, b"bad")

    def crash() -> Outcome:
        raise OverflowError("forced")

    def hang() -> Outcome:
        time.sleep(5)
        return Outcome(True, b"late")

    def fine() -> Outcome:
        return Outcome(True, b"good")

    ops = [Op("wrong", wrong), Op("crash", crash), Op("hang", hang, 0.05), Op("fine", fine)]
    t0 = time.perf_counter()
    result = worker.run_pass(ops)
    assert time.perf_counter() - t0 < 2
    assert result["failures"] == {
        "wrong:wrong": 1, "crash:error:OverflowError": 1, "hang:timeout": 1,
    }
    assert result["wrong"] == 1
    assert [s is None for s in result["latencies"]] == [True, True, True, False]
    assert all(e is not None for e in result["elapsed"])
    # failed requests rank beyond any limit
    assert run.percentile(result["latencies"], 0.5, 2.0) == 2.0
    assert run.percentile(result["latencies"], 0.25, 2.0) < 1.0


def test_a_timed_out_op_is_not_run_again():
    calls = []

    def hang() -> Outcome:
        calls.append(1)
        time.sleep(5)
        return Outcome(True, b"late")

    ops = [Op("hang", hang, 0.05), Op("fine", lambda: Outcome(True, b"good"))]
    timed_out: dict[int, str] = {}
    first = worker.run_pass(ops, timed_out=timed_out)
    second = worker.run_pass(ops, timed_out=timed_out)
    assert len(calls) == 1
    assert second["elapsed"][0] is None and second["failures"] == {}
    assert first["digest"] == second["digest"]
    times, latencies = run.op_ratios([first, second], [[1.0], [1.0]])
    assert times[0] == first["elapsed"][0] and latencies[0] is None
    assert latencies[1] == (first["elapsed"][1] + second["elapsed"][1]) / 2


def test_op_times_are_median_ratios_to_the_reference_of_their_pass():
    passes = [
        {"elapsed": [0.3, 0.2], "latencies": [0.3, 0.2]},
        {"elapsed": [0.2, 0.4], "latencies": [0.2, None]},
        {"elapsed": [0.8, 0.4], "latencies": [0.8, 0.4]},
    ]
    # the third pass ran on a machine twice as slow, and its reference shows it
    reference_s = [[0.1, 0.1, 0.9], [0.1], [0.2, 0.2]]
    times, latencies = run.op_ratios(passes, reference_s)
    assert times == pytest.approx([3.0, 2.0])
    assert latencies == [pytest.approx(3.0), None]


def _cheap_spec_ops(tmp_path: Path):
    slow = {"robustness", "large_family", "interval_moduli_uc"}
    return [op for op in build_specs(5, tmp_path) if op.kind not in slow]


def test_traced_and_untraced_runs_give_the_same_digest(tmp_path):
    import symcont.analysis
    import symcont.domains
    import symcont.exactnum
    import symcont.functions

    original_evaluate = symcont.functions.evaluate
    ops = _cheap_spec_ops(tmp_path)
    plain = worker.run_pass(ops)
    tracer = Tracer()
    with instrument(tracer):
        # rebound where analysis looks the name up, not only where it is defined
        assert symcont.analysis.evaluate.__wrapped__ is original_evaluate
        traced = worker.run_pass(ops, tracer)
    assert traced["digest"] == plain["digest"]
    assert plain["failures"] == traced["failures"] == {}
    assert tracer.counts["exactnum.ops"] > 0
    assert tracer.calls("specfile.parse") == len(ops)
    # every original is back
    assert symcont.analysis.evaluate is original_evaluate
    assert not hasattr(symcont.exactnum.QuadExt.__add__, "__wrapped__")
    assert not hasattr(symcont.domains.FinitePoints.contains, "__wrapped__")


def test_self_time_excludes_children():
    tracer = Tracer()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
    by_name = {s[1]: s for s in tracer.spans}
    outer, inner = by_name["outer"], by_name["inner"]
    assert inner[4] == outer[0]
    assert outer[6] == (outer[3] - outer[2]) - (inner[3] - inner[2])


def test_inputs_depend_only_on_the_seed(tmp_path):
    def texts(seed: int, sub: str) -> list[str]:
        d = tmp_path / sub
        d.mkdir()
        build_specs(seed, d)
        return [p.read_text() for p in sorted(d.iterdir())]

    first = texts(7, "a")
    assert first == texts(7, "b")
    assert first != texts(8, "c")
    assert len(first) >= 100


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "catalog",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
