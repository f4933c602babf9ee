"""The benchmark's own smoke test: every workload runs on tiny inputs,
every check passes, and the metric and workload names it emits are
exactly the ones ``BENCHMARK.json`` declares.

Not part of the tier-1 suite (``tests/``); run it with

    python -m pytest benchspine/test_spine.py -q
"""

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_emits_exactly_the_declared_names():
    out = ROOT / ".benchspine" / f"test-spine-{os.getpid()}.json"
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
             "--out", str(out)],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
        results = json.loads(out.read_text())
    finally:
        out.unlink(missing_ok=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    (records,) = results["sets"]
    assert sorted(records) == sorted(w["name"] for w in spec["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for name, record in records.items():
        if record.get("skipped"):
            assert (os.cpu_count() or 1) < 2, f"{name} skipped on 2+ cores"
            continue
        assert record["failed"] == 0, record["failures"]
        emitted = {k: v["unit"] for k, v in record["end_to_end"].items()}
        assert emitted == end_to_end, name
        emitted = {k: v["unit"] for k, v in record["per_layer"].items()}
        assert emitted == per_layer, name
        self_sum = record["per_layer"]["trace.self_sum_ratio"]["value"]
        assert abs(self_sum - 1.0) < 0.01, (name, self_sum)
