"""symcont benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the repository root:

    python3 perfbench/run.py --workload {catalog,moduli,specs} --seed N \
        --seconds S --trace {0,1}

Load is a closed loop with one caller in one single-threaded process: the
next operation starts when the previous one returns. Work runs in fresh
``worker.py`` processes, started and waited for one at a time: one that runs
passes over the workload's operations for ``--seconds``, and one per extra
set-up sample.

Timings are made to hold still on a shared host. On a 2-vCPU share of a
busy host the speed of the machine itself drifts: the fastest pass over a
fixed input moved by up to 1.8x between runs a few minutes apart, and by
2x within one run. So every pass is followed by REFERENCE_REPEATS timings of
a reference loop (``worker.reference``: Fraction arithmetic and a sort,
nothing from symcont), and each operation's time is the median, over the
passes of the run, of its elapsed time divided by the median reference time
of its pass. The unit ``ref`` is one such loop. A change to the program
moves the ratio; a change in the machine's speed mostly does not, because it
slows the operation and the reference that follows it alike. The same times
in seconds (at the run's median reference time) are printed on the summary
line.

``--trace 0`` prints the end-to-end metrics of untraced passes:
``wall_ref`` (the sum of the times of the operations that succeeded),
``latency_p50_ref`` and ``latency_p90_ref`` (over the operations' times; an
operation that failed in any pass counts as beyond any limit), ``setup_s``
(median of SETUP_SAMPLES processes timing ``import symcont`` plus input
generation) and ``peak_rss_mb``. ``--trace 1`` runs one
untraced and one traced pass, each in its own process, and prints the
per-layer metrics of the traced pass plus ``trace.wall_s`` (the traced pass)
and ``trace.overhead_frac`` (traced over untraced wall time, minus 1; the two
passes run at different moments, so on a machine whose speed drifts this
ratio carries that drift).

The line before the JSON result states the operation and latency-sample
counts, ``failed_frac``, the end-to-end times in seconds with the reference
loop's (``--trace 0``) and the sha256 of all report bytes of a pass. The
last line is the JSON result. The exit code is 2 when the source tree or a
worker is missing or broken, and 0 otherwise.

The benchmark's own tests: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import SPEC_DEADLINE_S, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 11
# every run ends well inside the 180 s a run may take
RUN_LIMIT_S = 170.0


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    """Run worker.py in a fresh process and return its JSON result."""
    # fixed string hashing, so dict and set layouts (and their costs) repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    argv = [sys.executable, str(HERE / "worker.py"), str(ROOT), workload, str(seed), mode, str(seconds)]
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise WorkerError(f"{mode} worker for {workload} ran past the run limit") from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def percentile(samples: list[float | None], q: float, limit: float) -> float:
    """Nearest-rank percentile; a failed sample (None) sorts after every
    success and reads as `limit`."""
    ranked = sorted(math.inf if s is None else s for s in samples)
    value = ranked[max(0, math.ceil(q * len(ranked)) - 1)]
    return limit if value == math.inf else value


def op_ratios(passes: list[dict], reference_s: list[list[float]]) -> tuple[list[float], list[float | None]]:
    """Each op's time in reference loops, and its latency.

    A pass's reference time is the median of the reference timings taken
    right after it. An op's time is the median, over the passes that ran it,
    of its elapsed time divided by that pass's reference time. Its latency is
    that time, or None when the op failed in any pass.
    """
    refs = [statistics.median(r) for r in reference_s]
    times: list[float] = []
    latencies: list[float | None] = []
    for i in range(len(passes[0]["elapsed"])):
        ran = [(p, ref) for p, ref in zip(passes, refs) if p["elapsed"][i] is not None]
        times.append(statistics.median(p["elapsed"][i] / ref for p, ref in ran))
        failed = any(p["latencies"][i] is None for p, _ in ran)
        latencies.append(None if failed else times[-1])
    return times, latencies


def measure(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list[dict]]:
    run = spawn(workload, seed, "measure", seconds, deadline)
    setups = [run["setup_s"]]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "setup", 0, deadline)["setup_s"])
    times, latencies = op_ratios(run["passes"], run["reference_s"])
    ref = statistics.median(statistics.median(r) for r in run["reference_s"])
    limit = (SPEC_DEADLINE_S if workload == "specs" else RUN_LIMIT_S) / ref
    in_refs = {
        # a failed op's time is its deadline or its crash, not the program's
        # speed; it counts in `failed` and as beyond any latency limit
        "wall": sum(t for t in latencies if t is not None),
        "latency_p50": percentile(latencies, 0.5, limit),
        "latency_p90": percentile(latencies, 0.9, limit),
    }
    metrics = {f"{name}_ref": (value, "ref") for name, value in in_refs.items()}
    metrics["setup_s"] = (statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (run["peak_rss_mb"], "MB")
    # the same times in seconds at the run's median reference time
    run["seconds"] = {**{k: v * ref for k, v in in_refs.items()}, "reference": ref}
    return metrics, [run]


def traced(workload: str, seed: int, deadline: float) -> tuple[dict, list[dict]]:
    plain = spawn(workload, seed, "measure", 0, deadline)
    run = spawn(workload, seed, "trace", 0, deadline)
    metrics = {name: tuple(value) for name, value in run["layers"].items()}
    traced_wall = run["passes"][0]["wall_s"]
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / plain["passes"][0]["wall_s"] - 1, "ratio")
    return metrics, [plain, run]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "symcont" / "__init__.py").is_file():
        print(f"error: no symcont sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            metrics, runs = traced(args.workload, args.seed, deadline)
        else:
            metrics, runs = measure(args.workload, args.seed, args.seconds, deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    passes = [p for r in runs for p in r["passes"]]
    attempted = sum(e is not None for p in passes for e in p["elapsed"])
    failures = sum((Counter(p["failures"]) for p in passes), Counter())
    failed = sum(failures.values())
    digests = sorted({p["digest"] for p in passes})
    correct = len(digests) == 1 and not any(p["wrong"] for p in passes)
    samples = len(passes[0]["elapsed"])
    seconds = "".join(f"{k}_s={v:.6g} " for k, v in runs[0].get("seconds", {}).items())
    print(
        f"perfbench workload={args.workload} seed={args.seed} trace={args.trace} "
        f"passes={len(passes)} attempted={attempted} latency_samples={samples} "
        f"failed={failed} failed_frac={failed / attempted} (ratio) {seconds}"
        f"digest={','.join(digests)} failures={json.dumps(failures, sort_keys=True)}"
    )
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
