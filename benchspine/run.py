"""One benchmark for flpkit: six workloads, end-to-end metrics, and a
traced per-layer run.  Run from the repository root:

    python3 benchspine/run.py                       # all six, one process each
    python3 benchspine/run.py --trace 1             # ... plus the traced run
    python3 benchspine/run.py --smoke               # tiny inputs, < 30 s
    python3 benchspine/run.py --repeat 5 --out a.json
    python3 benchspine/run.py --compare a.json b.json
    python3 benchspine/run.py --workload explore --seed 3 --seconds 12 \
        --trace 0

A ``--workload`` run sets up, measures for ``--seconds``, checks every
output, and prints as its last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A run with a
failed check prints no metrics and exits 1.  ``explore-crew`` exits 3
without a result on a machine with fewer than two cores.

See README.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from stats import run_header, summarize
from tracing import Tracer, install, layer_metrics
from workloads import SERVE_LAYER_METRICS, WORKLOADS, Skipped

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Scratch files, trace files and result files (git-ignored).
OUT_DIR = ROOT / ".benchspine"
#: Prefix of the stdout line carrying a workload's full record to the
#: parent of an all-workload run.
RECORD_TAG = "benchspine-record "
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5
SMOKE_SECONDS = 0.5
EXIT_SKIPPED = 3
#: Per-workload subprocess limit of an all-workload run.
CHILD_TIMEOUT_S = 600


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def unit_of(metric: str) -> str:
    """A per-layer metric's unit, from its name's suffix."""
    for suffix, unit in (
        ("_mb_per_s", "MB/s"),
        ("_ms", "ms"),
        ("_s", "s"),
        ("mb", "MB"),
        ("_ratio", "ratio"),
        ("_utilization", "ratio"),
    ):
        if metric.endswith(suffix):
            return unit
    return "count"


def stop_resource_tracker() -> None:
    """Stop and reap the helper process ``multiprocessing`` starts for
    shared memory (the crew's frontier segment).  Left alone it is
    reparented when this process exits and lingers for seconds."""
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_fd", None) is not None:
        tracker._stop()


@contextlib.contextmanager
def scratch_dir():
    """A per-process directory inside the checkout, removed on exit.

    It is also ``TMPDIR`` for this process and the ones it starts, so
    temporary files the program makes stay inside the checkout too.
    """
    path = OUT_DIR / f"run-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    previous = os.environ.get("TMPDIR")
    os.environ["TMPDIR"] = str(path)
    tempfile.tempdir = None
    try:
        yield path
    finally:
        if previous is None:
            del os.environ["TMPDIR"]
        else:
            os.environ["TMPDIR"] = previous
        tempfile.tempdir = None
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------


def probe(name: str, seed: int, smoke: bool) -> int:
    """Set the workload up once in this fresh interpreter and print the
    seconds it took, imports included."""
    started = time.perf_counter()
    with scratch_dir() as scratch:
        workload = WORKLOADS[name](seed, smoke, scratch)
        try:
            workload.setup()
            took = time.perf_counter() - started
        except Skipped as reason:
            print(f"{name}: skipped: {reason}", file=sys.stderr)
            return EXIT_SKIPPED
        finally:
            workload.close()
    print(json.dumps({"setup_s": took}))
    return 0


def measure_setup(name: str, seed: int, smoke: bool) -> float:
    """Median set-up time over fresh interpreters (see :func:`probe`)."""
    values = []
    for _ in range(1 if smoke else SETUP_PROBES):
        command = [sys.executable, __file__, "--setup-probe", name,
                   "--seed", str(seed)] + (["--smoke"] if smoke else [])
        done = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=170
        )
        if done.returncode == EXIT_SKIPPED:
            raise Skipped(done.stderr.strip())
        if done.returncode != 0:
            raise RuntimeError(
                f"{name} set-up failed:\n{done.stderr.strip()[-2000:]}"
            )
        values.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(values)


def end_to_end_metrics(m, setup_s: float, rss_mb: float) -> dict:
    if not m.latencies or not m.work_seconds:
        return {}
    return {
        "latency_p50_ms": {
            "value": statistics.median(m.latencies) * 1e3, "unit": "ms"
        },
        "work_per_s": {"value": m.work / m.work_seconds, "unit": "1/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }


def traced_phase(workload, seconds: float, plain, trace_out: Path):
    """Measure again with every layer wrapped; per-layer metrics."""
    tracer = Tracer()
    install(tracer)
    try:
        tracer.begin()
        try:
            traced = workload.measure(seconds, tracer, phase=1)
        finally:
            tracer.end()
    finally:
        tracer.uninstall()
    overhead = 0.0
    if traced.latencies and plain.latencies:
        overhead = (
            statistics.median(traced.latencies)
            / statistics.median(plain.latencies) - 1.0
        )
    serve = {name: 0.0 for name in SERVE_LAYER_METRICS}
    serve.update(traced.layer)
    metrics = layer_metrics(tracer, serve, overhead)
    tracer.write(
        trace_out,
        {"workload": workload.name, "seed": workload.seed,
         "header": run_header(ROOT)},
    )
    return traced, {
        name: {"value": value, "unit": unit_of(name)}
        for name, value in metrics.items()
    }


def run_workload(args, seconds: float) -> int:
    name, seed, smoke = args.workload, args.seed, args.smoke
    try:
        setup_s = measure_setup(name, seed, smoke)
    except Skipped as reason:
        print(reason, file=sys.stderr)
        return EXIT_SKIPPED
    phases = []
    per_layer = None
    with scratch_dir() as scratch:
        workload = WORKLOADS[name](seed, smoke, scratch)
        try:
            workload.setup()
            plain = workload.measure(seconds, None, phase=0)
            phases.append(plain)
            end_to_end = end_to_end_metrics(
                plain, setup_s, workload.peak_rss_mb()
            )
            if args.trace:
                trace_out = args.trace_out or (
                    OUT_DIR / f"trace-{name}-seed{seed}.json"
                )
                traced, per_layer = traced_phase(
                    workload, seconds, plain, trace_out
                )
                phases.append(traced)
        finally:
            workload.close()
    attempted = sum(m.attempted for m in phases)
    failures = [f for m in phases for f in m.failures]
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "inputs": workload.describe(),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "end_to_end": end_to_end,
        "detail": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in plain.detail.items()
        },
        "series": {
            "latency_s": (
                summarize(plain.latencies) if plain.latencies else None
            ),
            **{
                key: summarize(values)
                for key, values in plain.series.items()
                if values
            },
        },
        "per_layer": per_layer,
        "header": run_header(ROOT),
    }
    report(record)
    print(RECORD_TAG + json.dumps(record))
    correct = not failures and bool(end_to_end)
    metrics = (per_layer if args.trace else end_to_end) if correct else {}
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, attempted),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _tail(summary: dict, scale: float, unit: str) -> str:
    if summary["tail_pct"] is None:
        return f"n={summary['n']}, too few for a tail"
    return (
        f"p{summary['tail_pct']:g} {summary['tail'] * scale:.4g} {unit}, "
        f"n={summary['n']}"
    )


def report(record: dict) -> None:
    print(
        f"== {record['workload']} (seed {record['seed']}): "
        f"{record['inputs']}"
    )
    print(
        f"   {record['attempted']} operations attempted, "
        f"{record['failed']} failed"
    )
    for failure in record["failures"]:
        print(f"   FAILED {failure}")
    for title, metrics in (
        ("end to end", record["end_to_end"]),
        ("workload", record["detail"]),
    ):
        for key, metric in metrics.items():
            print(
                f"   {title:10} {key:24} {metric['value']:14.6g} "
                f"{metric['unit']}"
            )
    for key, summary in record["series"].items():
        if summary is None:
            continue
        scale, unit = (1e3, "ms") if summary["median"] < 1 else (1.0, "s")
        print(
            f"   timing     {key:24} median {summary['median'] * scale:.4g} "
            f"{unit} ({_tail(summary, scale, unit)})"
        )
    if record["per_layer"]:
        for key, metric in record["per_layer"].items():
            print(
                f"   layer      {key:36} {metric['value']:14.6g} "
                f"{metric['unit']}"
            )


# ---------------------------------------------------------------------------
# All workloads, and comparing two result files
# ---------------------------------------------------------------------------


def run_all(args, seconds: float) -> int:
    sets = []
    ok = True
    for repetition in range(args.repeat):
        records = {}
        for name in WORKLOADS:
            command = [
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed + repetition),
                "--seconds", str(seconds), "--trace", str(args.trace),
            ] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(
                command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                timeout=CHILD_TIMEOUT_S,
            )
            record = None
            for line in done.stdout.splitlines():
                if line.startswith(RECORD_TAG):
                    record = json.loads(line[len(RECORD_TAG):])
                elif not line.startswith('{"correct"'):
                    print(line)
            if done.returncode == EXIT_SKIPPED:
                records[name] = {"skipped": True}
                print(f"== {name}: skipped")
                continue
            if done.returncode != 0 or record is None:
                ok = False
                print(f"== {name}: FAILED (exit {done.returncode})")
            if record is not None:
                records[name] = record
        sets.append(records)
    results = {
        "header": run_header(ROOT),
        "seconds": seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "sets": sets,
    }
    out = args.out or OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"results: {out}")
    return 0 if ok else 1


def _values(results: dict, workload: str, metric: str) -> list[float]:
    values = []
    for records in results["sets"]:
        record = records.get(workload) or {}
        entry = (record.get("end_to_end") or {}).get(metric)
        if entry is not None and not record.get("failed"):
            values.append(entry["value"])
    return values


def _cell(summary: dict) -> str:
    return (
        f"{summary['median']:.5g} "
        f"[{summary['q1']:.5g}, {summary['q3']:.5g}]"
    )


def compare(path_a: Path, path_b: Path) -> int:
    """Median and IQR of both result files per (metric, workload), and a
    verdict against the bounds in BENCHMARK.json: ``worse`` when B's
    median is worse than A's by more than the bound, ``better`` when it
    is better by more than the bound and A's own spread, else
    ``unresolved``.  Exits 1 if any pair is worse."""
    spec = load_spec()
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    print(
        f"{'metric':16} {'workload':13} {'A median [q1, q3]':>30} "
        f"{'B median [q1, q3]':>30} {'change':>8}  verdict"
    )
    worse = False
    for workload in WORKLOADS:
        for metric in spec["end_to_end"]:
            va = _values(a, workload, metric["name"])
            vb = _values(b, workload, metric["name"])
            if not va or not vb:
                continue
            sa, sb = summarize(va), summarize(vb)
            base = sa["median"]
            direction = 1.0 if metric["better"] == "lower" else -1.0
            change = direction * (sb["median"] - base) / base
            spread = (sa["q3"] - sa["q1"]) / base
            if change > metric["bound"]:
                verdict = "worse"
                worse = True
            elif -change > max(metric["bound"], spread):
                verdict = "better"
            else:
                verdict = "unresolved"
            print(
                f"{metric['name']:16} {workload:13} {_cell(sa):>30} "
                f"{_cell(sb):>30} {change * direction * 100:+7.1f}%  {verdict}"
            )
    return 1 if worse else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, default=None,
                        help="trace file of a --workload run "
                        "(default .benchspine/trace-<workload>-seed<n>.json)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every workload in seconds")
    parser.add_argument("--repeat", type=int, default=1,
                        help="sets of all workloads, seeds seed..seed+N-1")
    parser.add_argument("--out", type=Path, default=None,
                        help="results file of an all-workload run "
                        "(default .benchspine/results.json)")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    parser.add_argument("--setup-probe", choices=sorted(WORKLOADS),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    package = ROOT / "src" / "repro" / "__init__.py"
    if not package.is_file():
        print(
            f"benchmark: {package.parent} is missing; run from the root "
            "of a full source tree",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    seconds = args.seconds
    if seconds is None:
        seconds = SMOKE_SECONDS if args.smoke else load_spec()["run_seconds"]
    try:
        if args.setup_probe:
            return probe(args.setup_probe, args.seed, args.smoke)
        if args.workload:
            return run_workload(args, seconds)
        return run_all(args, seconds)
    finally:
        stop_resource_tracker()


if __name__ == "__main__":
    raise SystemExit(main())
