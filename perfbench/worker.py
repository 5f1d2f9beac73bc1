"""One benchmark process: set up a workload, run its passes, print a result.

Usage: python3 perfbench/worker.py ROOT WORKLOAD SEED MODE SECONDS

MODE is ``setup`` (import and input generation only), ``measure`` (untraced
passes over every op until SECONDS have gone by, at least one, each followed
by REFERENCE_REPEATS timings of the reference loop) or ``trace``
(one traced pass, spans written under ROOT/.perfbench_out). The last line of
standard output is one JSON object; ``run.py`` reads it.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracer import Tracer, instrument, layer_metrics  # noqa: E402
from workloads import DeadlineExceeded, build_catalog, build_moduli, build_specs, deadline  # noqa: E402

OUT_DIR = ".perfbench_out"
# reference-loop timings taken after each measured pass
REFERENCE_REPEATS = 3


def reference() -> None:
    """A fixed pure-Python loop of Fraction arithmetic and a sort, about 10 ms.

    It uses nothing from symcont, so no change to the program moves its time,
    and it runs between passes, so it sees the machine speed the passes see.
    """
    x = Fraction(1, 3)
    keys = []
    for i in range(1, 800):
        x = (x * Fraction(i, i + 1) + Fraction(1, i)) / 2
        keys.append((x.denominator % 97, i))
    keys.sort()


def run_pass(ops, tracer: Tracer | None = None, timed_out: dict[int, str] | None = None) -> dict:
    """Run every op once, in order, one at a time.

    An op that ran past its deadline is recorded in `timed_out` and is not
    run again in later passes given the same dict: it would only time out
    again. It keeps its place in the digest, with elapsed None.
    """
    timed_out = {} if timed_out is None else timed_out
    elapsed_s: list[float | None] = []  # None marks a skipped op
    latencies: list[float | None] = []  # None marks a failed or skipped op
    failures: Counter[str] = Counter()
    wrong = 0
    digest = hashlib.sha256()
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if i in timed_out:
            elapsed_s.append(None)
            latencies.append(None)
            digest.update(f"<{op.kind}:timeout>".encode())
            continue
        status = "ok"
        payload = b""
        span = contextlib.nullcontext() if tracer is None else tracer.op_span(op.kind)
        t0 = time.perf_counter()
        try:
            with deadline(op.deadline_s), span:
                outcome = op.run()
            payload = outcome.payload
            if not outcome.ok:
                status = "wrong"
        except DeadlineExceeded:
            status = "timeout"
            timed_out[i] = op.kind
        except Exception as exc:  # one bad request must not end the run
            status = f"error:{type(exc).__name__}"
            print(f"{op.kind}: {traceback.format_exc(limit=-1).strip()}", file=sys.stderr)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.settle()
        elapsed_s.append(elapsed)
        latencies.append(elapsed if status == "ok" else None)
        if status != "ok":
            failures[f"{op.kind}:{status}"] += 1
            wrong += status == "wrong"
        digest.update(payload or f"<{op.kind}:{status}>".encode())
    return {
        "wall_s": time.perf_counter() - start,
        "elapsed": elapsed_s,
        "latencies": latencies,
        "failures": dict(failures),
        "wrong": wrong,
        "digest": digest.hexdigest(),
    }


def main(argv: list[str]) -> int:
    root, workload, seed, mode, seconds = argv
    root_path = Path(root)
    seed_n = int(seed)
    out_dir = root_path / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workdir = None
    t0 = time.perf_counter()
    sys.path.insert(0, str(root_path / "src"))
    import symcont
    import symcont.cli  # noqa: F401  (the CLI front end is part of set-up)

    if not Path(symcont.__file__).resolve().is_relative_to((root_path / "src").resolve()):
        print(f"symcont imported from {symcont.__file__}, not from {root}/src", file=sys.stderr)
        return 2
    try:
        if workload == "catalog":
            ops = build_catalog(seed_n)
        elif workload == "moduli":
            ops = build_moduli(seed_n)
        else:
            workdir = Path(tempfile.mkdtemp(prefix="specs-", dir=out_dir))
            ops = build_specs(seed_n, workdir)
        result: dict = {"setup_s": time.perf_counter() - t0, "ops": len(ops)}
        if mode == "measure":
            passes = []
            reference_s = []
            timed_out: dict[int, str] = {}
            begin = time.perf_counter()
            while True:
                passes.append(run_pass(ops, timed_out=timed_out))
                reference_s.append([])
                for _ in range(REFERENCE_REPEATS):
                    t1 = time.perf_counter()
                    reference()
                    reference_s[-1].append(time.perf_counter() - t1)
                if time.perf_counter() - begin >= float(seconds):
                    break
            result["passes"] = passes
            result["reference_s"] = reference_s
        elif mode == "trace":
            tracer = Tracer()
            with instrument(tracer):
                traced = run_pass(ops, tracer)
            result["passes"] = [traced]
            result["layers"] = layer_metrics(tracer)
            tracer.write(
                out_dir / f"trace-{workload}-seed{seed_n}.jsonl",
                {"workload": workload, "seed": seed_n, "wall_s": traced["wall_s"]},
            )
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if workdir is not None:
            shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
