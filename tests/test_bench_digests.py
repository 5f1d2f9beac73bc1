"""The seed-1 digests of the three benchmark workloads, pinned: one pass over
each workload's operations (perfbench/workloads.py), hashed by
perfbench/worker.py's run_pass, in a fresh interpreter under a random
PYTHONHASHSEED, so that no report byte may depend on hash order."""

import json
import os
import random
import subprocess
import sys

from conftest import REPO_ROOT

SEED1_DIGESTS = {
    "catalog": "7e7244c98c98c4f47393bbbfd3caec1f8f36b8a079dcf7517b9a3d3993f9a7b1",
    "moduli": "80381293a6792ad78d7d974dca52042137425858be562f5855909bd22553ecb1",
    "specs": "80f706fef9f6d0ff1f289c57f424d54290f42e17a9b1a726141a8fbc13ea4f5f",
}

# argv: the repository root and a directory for the spec files
_ONE_PASS = """
import json, sys
from pathlib import Path
root = Path(sys.argv[1])
sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
from worker import run_pass
from workloads import build_catalog, build_moduli, build_specs
workloads = {
    "catalog": build_catalog(1),
    "moduli": build_moduli(1),
    "specs": build_specs(1, Path(sys.argv[2])),
}
out = {}
for name, ops in workloads.items():
    result = run_pass(ops)
    out[name] = {"digest": result["digest"], "failures": result["failures"]}
print(json.dumps(out))
"""


def test_seed1_digests_under_a_random_hash_seed(tmp_path):
    hash_seed = random.randrange(2**32)
    env = {**os.environ, "PYTHONHASHSEED": str(hash_seed)}
    proc = subprocess.run(
        [sys.executable, "-c", _ONE_PASS, str(REPO_ROOT), str(tmp_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    want = {name: {"digest": d, "failures": {}} for name, d in SEED1_DIGESTS.items()}
    assert got == want, f"PYTHONHASHSEED={hash_seed}"
