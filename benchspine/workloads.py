"""The six workloads: inputs from the seed, timed operations, checks.

Each workload drives one user-facing surface of ``repro`` and checks
every output against a known answer, outside the timed region.  Nothing
here imports ``repro`` at module level: :meth:`Workload.setup` does, so
a fresh interpreter's set-up time includes the imports a CLI user pays.

Why these six (see README.md for the layer map):

* ``explore`` — cold serial exploration, the hot path behind ``check``,
  ``map`` and a cold ``serve`` job; kernel, packing and store do the
  work, crew, checkpoint, valency and serve are bypassed.
* ``explore-crew`` — the same inputs on the two-worker crew, which
  bypasses the kernel in the parent; an engine change should move it
  and leave ``explore`` alone, or the reverse.
* ``check-attack`` — the CLI verbs in process: the per-root correctness
  engine, valency classification and the FLP adversary.
* ``resume`` — checkpoint save beside load-and-continue on a 21 MB
  payload, so a faster load that slows save still shows.
* ``serve`` — an open loop of cached requests while cold explorations
  run in the same daemon: HTTP, admission and cache under contention.
* ``spectrum`` — the Monte-Carlo sweep, which bypasses the exploration
  engine entirely; engine changes must predict no change here.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import threading
import time
from pathlib import Path

from stats import percentile

#: The mixed input vectors of Ben-Or/3.  They cost the same to explore
#: (within ~3%), so the seed can pick any of them; the all-equal
#: vectors decide fast and would make the seed a cost knob.
MIXED_INPUTS = ("001", "010", "100", "011", "101", "110")

#: Census fingerprints of cold Ben-Or/3 exploration per input vector and
#: configuration budget.  Serial and crew runs must both reproduce them
#: byte for byte — the engine's determinism contract.
FINGERPRINTS = {
    "001": {
        5000: "c840cc337f8e401d3e3eba03fdf23182f885b01639a13be3f1f7c85686bb74d6",
        20000: "8b9ec864022f371d6b378bcd6bd2d24bde50b8373d140bfa34f8c7717336ff15",
        50000: "590b6754c46fd6b75b85948ab2f875e874100638e346045daf7e2896f0209dc9",
    },
    "010": {
        5000: "7003a52a436f4b660dfad689b44a1c27cd1449ada795f95bff805d8c918cd0a3",
        20000: "3f1e1e660df073986aeda3e47116f80761cede7372eb7a0e45f2684d5a96ff1f",
        50000: "5781e9b52954a2b993e4cff1af54ae17da482efa5a371c2152d6a5b7741cc067",
    },
    "100": {
        5000: "08d4ef1e8f308a71b994e0a41ccbeafbe57a28367183a98a989017dc3652699c",
        20000: "266d25a80b0c56823ea0985b446966e35d06285145e501a7172bfe047153ed1c",
        50000: "addd0ff23338b3bff8ae74539dca7dbff14a43264a3284611658f09ae9f20b30",
    },
    "011": {
        5000: "985ced004100c74d332ad423cc0018893b4e2daa0b97854d8229acd3bee567b1",
        20000: "293106cacce0a8bb670fbd797fab04d8e5dd377130a0e8bf732da0e3fd10c8d9",
        50000: "2f88f078d234bdc022db8842f33b065cb5dfc36637cfa0136c7ccade75185c24",
    },
    "101": {
        5000: "6a5bd7b8c4cf775bc09b2928ce10c7b1aafa499f9316a8edcb0373f87faea644",
        20000: "9b2d67ef16dc57ed867536b5695e2d9c53d859939b3da43929c25f0ec159ea6e",
        50000: "93d8f98716482d39ed8e7ac3951e910374ce4462b20110cf468024efc47dfae3",
    },
    "110": {
        5000: "e0d562d78cb5d936521d6d731fba8df41f3b9133190d315667624f0ac6e0ea5f",
        20000: "249bbc73aaf250d496d693901c627e308b867c340a6636109a179a90c2845f73",
        50000: "cea2d32eb22ce6161fac5efb0e295ce211d77613c427370ce12cacfcb59cb7d6",
    },
}

#: Fingerprints of a 5k (50k) exploration continued in memory to 6k
#: (60k).  A save / load / continue cycle must reproduce them.  They
#: differ from a cold 6k (60k) run for some vectors: the budget stop
#: leaves part of a BFS level unexpanded, and the continuation expands
#: it before the next level.
CONTINUED = {
    "001": {
        6000: "52d0c84d5fb6e554dbdd6342617b3cda66886ff1e054cbf19473f1f75387adb7",
        60000: "c8cab65ec3c6bac23b0f8449c173f5dd471cddd33c016eee33938e9a467bfb46",
    },
    "010": {
        6000: "59cced4f0f8f9be3f82e9ad02a6006efce21ff02ecaedc4e28c7444a4b4640ae",
        60000: "ed52b6be32460fb99ff19190837de81f4bf81c804d09aa3139e274c3d1a972dc",
    },
    "100": {
        6000: "52567576d687497cf677d8f0e79aa1d4ac0b0d13fbac5d98211c89386b85d636",
        60000: "bf76f0eed4784260346a0865dc5eaa4e39b7c77cc3098292a389e70f58161740",
    },
    "011": {
        6000: "b2598ad56d74243f83282ec874ff26f32bd0d06e5832cfc0fd7ce5e34cb5945a",
        60000: "8cb3d92509ca94e58b25962e2a4f905593541f425c79e00d2162d977bc856986",
    },
    "101": {
        6000: "48f1dd99474eb9468fd5bbed0ca2b1929dcac27582aaa26d25fb7836e0284a53",
        60000: "192b1ee0d980b4137dc0b7785f034658ffdfbe19ab3d3912ed5f08b18bf8a315",
    },
    "110": {
        6000: "1afd1cda4ce1576d4a836f992fa20de8c94ab1a28d358b512f7b64dbf53ee018",
        60000: "f282bd7d4ce140005854a67d3154eaebc1e429dcf698dff29233d5af16456303",
    },
}

#: Fingerprint of the default spectrum grid at ``base_seed=0``.
SPECTRUM_SEED0 = (
    "8e66263ccf2c8f3a34b673ed57705c516a302628c382930d3494204253fbbc50"
)

#: Per-layer serve metrics; zero on every other workload.
SERVE_LAYER_METRICS = (
    "serve.cached_idle_p50_ms",
    "serve.cached_contended_p50_ms",
    "serve.cache_hit_ratio",
    "serve.rejected",
    "serve.explorations_run",
    "serve.generator_lag_p99_ms",
)


class Skipped(Exception):
    """The machine cannot run this workload meaningfully."""


@dataclasses.dataclass
class Measurement:
    """What one measuring phase of a workload observed."""

    #: Seconds per user-facing operation (for serve: per cold query,
    #: from its due time).
    latencies: list[float] = dataclasses.field(default_factory=list)
    #: Units of work completed and the seconds they took.
    work: float = 0.0
    work_seconds: float = 0.0
    attempted: int = 0
    failures: list[str] = dataclasses.field(default_factory=list)
    #: Named timing samples in seconds, reported as summaries.
    series: dict[str, list[float]] = dataclasses.field(default_factory=dict)
    #: The workload's own named metrics: name -> (value, unit).
    detail: dict[str, tuple[float, str]] = dataclasses.field(
        default_factory=dict
    )
    #: Client-side per-layer metrics (serve only).
    layer: dict[str, float] = dataclasses.field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failures.append(message)


def _self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _span(tracer, name: str, layer: str, op: int):
    return tracer.span(name, layer, op) if tracer else contextlib.nullcontext()


def closed_loop(seconds: float, tracer, op) -> None:
    """Run ``op(index)`` back to back for about *seconds*.  At least one
    operation runs, and another starts only if it is expected to finish
    inside the window."""
    began = time.perf_counter()
    count = 0
    while True:
        started = time.perf_counter()
        # Start every operation from a collected heap, as a fresh CLI
        # process would: the cyclic collector's passes then fall at the
        # same points of each operation instead of wherever the
        # previous one left its allocation counters.
        gc.collect()
        with _span(tracer, "op", "bench", count):
            op(count)
        count += 1
        took = time.perf_counter() - started
        if time.perf_counter() - began + took > seconds:
            return


class Workload:
    """One named workload: ``setup`` once, ``measure`` per phase."""

    name = ""

    def __init__(self, seed: int, smoke: bool, scratch: Path):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch

    def describe(self) -> str:
        return ""

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float, tracer, phase: int) -> Measurement:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return _self_peak_rss_mb()

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------


class _BenOrWorkload(Workload):
    def _build(self) -> None:
        from repro.protocols import BenOrProcess, make_protocol

        self.vector = MIXED_INPUTS[self.seed % len(MIXED_INPUTS)]
        self.protocol = make_protocol(BenOrProcess, 3)
        self.root = self.protocol.initial_configuration(
            [int(bit) for bit in self.vector]
        )


class ExploreWorkload(_BenOrWorkload):
    name = "explore"
    workers = 0
    #: Configuration budget: (smoke, full).
    budgets = (5_000, 50_000)
    rate_name = "explore_configs_per_s"

    def describe(self) -> str:
        return f"benor/3 inputs={self.vector} budget={self.budget}"

    def setup(self) -> None:
        from repro.core.exploration import GlobalConfigurationGraph

        self._graph_class = GlobalConfigurationGraph
        self._build()
        self.budget = self.budgets[0 if self.smoke else 1]
        self.expected = FINGERPRINTS[self.vector][self.budget]

    def measure(self, seconds: float, tracer, phase: int) -> Measurement:
        m = Measurement()

        def op(index: int) -> None:
            m.attempted += 1
            started = time.perf_counter()
            graph = self._graph_class(self.protocol, workers=self.workers)
            try:
                graph.explore(self.root, self.budget)
                took = time.perf_counter() - started
                fingerprint = graph.fingerprint()
                nodes = len(graph)
            finally:
                graph.close()
            if fingerprint != self.expected:
                m.fail(f"op {index}: fingerprint {fingerprint[:16]}")
                return
            m.latencies.append(took)
            m.work += nodes
            m.work_seconds += took

        closed_loop(seconds, tracer, op)
        if m.work_seconds:
            m.detail[self.rate_name] = (m.work / m.work_seconds, "1/s")
        return m


class ExploreCrewWorkload(ExploreWorkload):
    name = "explore-crew"
    workers = 2
    # The crew takes ~4x the serial time on two cores (crew start-up
    # included); 20k keeps several operations inside one run.
    budgets = (5_000, 20_000)
    rate_name = "crew_configs_per_s"

    def describe(self) -> str:
        return super().describe() + f" workers={self.workers}"

    def setup(self) -> None:
        if (os.cpu_count() or 1) < self.workers:
            raise Skipped(
                f"cpu_count {os.cpu_count()} < {self.workers} workers"
            )
        super().setup()


# ---------------------------------------------------------------------------
# CLI verbs
# ---------------------------------------------------------------------------


def _parse_valency_table(text: str) -> dict[str, str]:
    lines = text.splitlines()
    if "initial-configuration valencies:" not in lines:
        return {}
    start = lines.index("initial-configuration valencies:") + 3
    table = {}
    for line in lines[start:]:
        if not line.strip():
            break
        inputs, valency = line.split()
        table[inputs] = valency
    return table


def _parity_arbiter_valencies(n: int) -> dict[str, str]:
    """The census ``check parity-arbiter`` must print: all-equal inputs
    and their one-bit-flip at p0 are univalent, the rest bivalent."""
    table = {}
    for bits in range(2 ** n):
        vector = format(bits, f"0{n}b")
        tail = vector[1:]
        if tail == "0" * (n - 1):
            table[vector] = "0-valent"
        elif tail == "1" * (n - 1):
            table[vector] = "1-valent"
        else:
            table[vector] = "bivalent"
    return table


class CheckAttackWorkload(Workload):
    name = "check-attack"

    def describe(self) -> str:
        return f"parity-arbiter n={self.n} stages={self.stages}"

    def setup(self) -> None:
        import repro.cli as cli

        self.cli = cli
        self.n = 3 if self.smoke else 4
        self.stages = 90 + self.seed % 31
        self.expected = _parity_arbiter_valencies(self.n)

    def _run(self, argv: list[str], tracer, op: int) -> tuple[int, str, float]:
        out = io.StringIO()
        with _span(tracer, f"cli.{argv[0]}", "cli", op):
            started = time.perf_counter()
            with contextlib.redirect_stdout(out):
                code = self.cli.main(argv)
            took = time.perf_counter() - started
        return code, out.getvalue(), took

    def measure(self, seconds: float, tracer, phase: int) -> Measurement:
        m = Measurement(series={"check_s": [], "attack_s": []})
        n = str(self.n)

        def op(index: int) -> None:
            m.attempted += 1
            code, text, check_s = self._run(
                ["check", "parity-arbiter", "-n", n], tracer, index
            )
            if code != 0 or _parse_valency_table(text) != self.expected:
                m.fail(f"op {index}: check exit {code} or wrong census")
                return
            code, text, attack_s = self._run(
                ["attack", "parity-arbiter", "-n", n,
                 "--stages", str(self.stages)],
                tracer, index,
            )
            if (
                code != 0
                or "verified by replay: True" not in text
                or f"{self.stages} stages, no process ever decided" not in text
            ):
                m.fail(f"op {index}: attack exit {code} or unverified run")
                return
            m.series["check_s"].append(check_s)
            m.series["attack_s"].append(attack_s)
            m.latencies.append(check_s + attack_s)
            m.work += 2
            m.work_seconds += check_s + attack_s

        closed_loop(seconds, tracer, op)
        for key in ("check_s", "attack_s"):
            if m.series[key]:
                m.detail[key] = (statistics.median(m.series[key]), "s")
        return m


# ---------------------------------------------------------------------------
# Checkpoint / resume
# ---------------------------------------------------------------------------


class ResumeWorkload(_BenOrWorkload):
    name = "resume"

    def describe(self) -> str:
        return (
            f"benor/3 inputs={self.vector} save@{self.base_budget} "
            f"-> load -> explore to {self.target}"
        )

    def setup(self) -> None:
        import repro.core.checkpoint as checkpoint
        from repro.core.exploration import GlobalConfigurationGraph

        self.checkpoint = checkpoint
        self._build()
        self.base_budget = 5_000 if self.smoke else 50_000
        self.target = 6_000 if self.smoke else 60_000
        self.expected = CONTINUED[self.vector][self.target]
        self.base = GlobalConfigurationGraph(self.protocol)
        self.base.explore(self.root, self.base_budget)

    def measure(self, seconds: float, tracer, phase: int) -> Measurement:
        m = Measurement(series={"save_s": [], "load_s": [], "resume_s": []})

        def op(index: int) -> None:
            m.attempted += 1
            # A fresh file per cycle: renaming over an existing file
            # makes ext4 flush the new data synchronously, which would
            # time the disk, not the checkpoint code.
            path = str(self.scratch / f"resume-{phase}-{index}.ckpt")
            started = time.perf_counter()
            self.checkpoint.save_checkpoint(self.base, path)
            saved = time.perf_counter()
            graph = self.checkpoint.load_checkpoint(path, self.protocol)
            try:
                loaded = time.perf_counter()
                graph.explore(self.root, self.target)
                done = time.perf_counter()
                fingerprint = graph.fingerprint()
                nodes = len(graph)
            finally:
                graph.close()
                os.unlink(path)
            if fingerprint != self.expected:
                m.fail(f"op {index}: resumed fingerprint {fingerprint[:16]}")
                return
            m.series["save_s"].append(saved - started)
            m.series["load_s"].append(loaded - saved)
            m.series["resume_s"].append(done - saved)
            m.latencies.append(done - started)
            m.work += nodes
            m.work_seconds += done - started

        closed_loop(seconds, tracer, op)
        if m.latencies:
            m.detail["checkpoint_save_s"] = (
                statistics.median(m.series["save_s"]), "s"
            )
            m.detail["resume_s"] = (
                statistics.median(m.series["resume_s"]), "s"
            )
        return m

    def close(self) -> None:
        base = getattr(self, "base", None)
        if base is not None:
            base.close()


# ---------------------------------------------------------------------------
# The service
# ---------------------------------------------------------------------------

#: Cheap specs served from the cache once warmed.
CACHED_SPECS = (
    {"verb": "check", "protocol": "parity-arbiter", "n": 3},
    {"verb": "attack", "protocol": "parity-arbiter", "n": 3, "stages": 20},
    {"verb": "map", "protocol": "arbiter", "n": 3, "inputs": "001"},
)

#: Cached arrivals per second.  110/s puts >= 10 samples beyond p99 in
#: a 10 s run; a cached answer costs the idle daemon ~0.4 ms.
CACHED_RATE = 110.0
#: Seconds between cold explorations, and their first due time.
COLD_EVERY_S = 1.5
COLD_FIRST_S = 0.75


def _vm_hwm_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class ServeWorkload(Workload):
    """Cached traffic beside cold explorations in one daemon.

    The operation timed for ``latency_p50_ms`` is the cold query: from
    its due time to its result, it covers HTTP, admission, the job
    queue, the exploration and the result cache while cached traffic
    competes for the daemon.  Cached latency is reported by name and
    per layer, not as the end-to-end latency: at ~0.4 ms it is mostly
    the wake-up of an idle virtual CPU, and its median moved by a
    factor of two between runs with the load on the host, far beyond
    any usable bound.
    """

    name = "serve"

    def describe(self) -> str:
        return (
            f"open loop: {CACHED_RATE:g} cached req/s + one cold check "
            f"every {COLD_EVERY_S:g}s, job_workers=1"
        )

    def setup(self) -> None:
        from repro.serve.chaos import start_daemon, wait_for_endpoint

        spool = self.scratch / "spool"
        self.daemon = start_daemon(
            spool, checkpoint_every_s=1.0, job_workers=1
        )
        self.client = wait_for_endpoint(spool, self.daemon)
        self.first_bodies = []
        for spec in CACHED_SPECS:
            response = self.client.query(spec)
            if response.status != 200:
                raise RuntimeError(
                    f"pre-warm of {spec} answered {response.status}"
                )
            self.first_bodies.append(response.body)

    def measure(self, seconds: float, tracer, phase: int) -> Measurement:
        m = Measurement(series={"cached_s": [], "lag_s": []})
        rng = random.Random(f"serve/{self.seed}/{phase}")
        count = max(1, round(CACHED_RATE * seconds))
        # A Poisson process conditioned on its count: sorted uniform
        # due times, so every seed offers exactly the same load.
        due = sorted(rng.uniform(0.0, seconds) for _ in range(count))
        picks = [rng.randrange(len(CACHED_SPECS)) for _ in range(count)]
        first = min(COLD_FIRST_S, seconds / 2)
        cold_due = []
        while first + COLD_EVERY_S * len(cold_due) < seconds:
            cold_due.append(first + COLD_EVERY_S * len(cold_due))
        before = self.client.stats()["counters"]
        cached_at: list[tuple[float, float]] = []
        cold_windows: list[tuple[float, float]] = []
        lock = threading.Lock()
        start = time.perf_counter() + 0.05

        def send(index: int, due_s: float, spec, check):
            """Send at the due time; ``(latency from due, sent, answered)``
            in seconds from the phase start, or ``None`` on failure."""
            target = start + due_s
            delay = target - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            sent = time.perf_counter()
            with _span(tracer, "serve.request", "serve", index):
                try:
                    response = self.client.query(spec, retry=False)
                    problem = check(response)
                except (OSError, ConnectionError, ValueError) as error:
                    problem = f"{type(error).__name__}: {error}"
            answered = time.perf_counter()
            with lock:
                m.attempted += 1
                if problem:
                    m.fail(f"request {index}: {problem}")
                    return None
                m.series["lag_s"].append(sent - target)
            return answered - target, sent - start, answered - start

        def cached_check(pick: int):
            def check(response) -> str | None:
                if response.status != 200:
                    return f"status {response.status}"
                if response.body != self.first_bodies[pick]:
                    return "cached body differs from its first response"
                return None
            return check

        def cold_check(response) -> str | None:
            if response.status != 200:
                return f"status {response.status}"
            body = json.loads(response.body)
            if body.get("partial") is not None or "result" not in body:
                return "cold result is partial or empty"
            return None

        def cached_sender() -> None:
            for index, (due_s, pick) in enumerate(zip(due, picks)):
                timing = send(
                    index, due_s, CACHED_SPECS[pick], cached_check(pick)
                )
                if timing is not None:
                    cached_at.append((due_s, timing[0]))

        def cold_sender() -> None:
            for k, due_s in enumerate(cold_due):
                # Distinct cache keys per run and phase, so every cold
                # request explores; the seed moves the cost by < 2%.
                budget = 10_000 + 20 * (self.seed % 10) + 2 * k + phase
                spec = {
                    "verb": "check", "protocol": "benor", "n": 3,
                    "budget": budget,
                }
                timing = send(count + k, due_s, spec, cold_check)
                if timing is not None:
                    m.latencies.append(timing[0])
                    cold_windows.append(timing[1:])

        threads = [
            threading.Thread(target=cached_sender),
            threading.Thread(target=cold_sender),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start

        m.series["cached_s"] = [lat for _, lat in cached_at]
        m.work = len(cached_at) + len(m.latencies)
        m.work_seconds = wall
        after = self.client.stats()["counters"]
        counters = {key: after[key] - before.get(key, 0) for key in after}
        self._record(m, cached_at, cold_windows, counters)
        return m

    def _record(self, m, cached_at, cold_windows, counters) -> None:
        def contended(due_s: float) -> bool:
            return any(a <= due_s <= b for a, b in cold_windows)

        idle = sorted(lat for d, lat in cached_at if not contended(d))
        busy = sorted(lat for d, lat in cached_at if contended(d))
        lag = sorted(m.series["lag_s"])
        served = (
            counters["cache_hits"] + counters["accepted"]
            + counters["singleflight_joins"]
        )
        m.layer = {
            "serve.cached_idle_p50_ms": (
                percentile(idle, 50) * 1e3 if idle else 0.0
            ),
            "serve.cached_contended_p50_ms": (
                percentile(busy, 50) * 1e3 if busy else 0.0
            ),
            "serve.cache_hit_ratio": (
                counters["cache_hits"] / served if served else 0.0
            ),
            "serve.rejected": counters["rejected"],
            "serve.explorations_run": counters["explorations_run"],
            "serve.generator_lag_p99_ms": (
                percentile(lag, 99) * 1e3 if lag else 0.0
            ),
        }
        cached = sorted(m.series["cached_s"])
        if cached:
            for pct in (50, 99):
                m.detail[f"serve_cached_p{pct}_ms"] = (
                    percentile(cached, pct) * 1e3, "ms"
                )
        if m.latencies:
            m.detail["serve_cold_p50_s"] = (
                statistics.median(m.latencies), "s"
            )

    def peak_rss_mb(self) -> float:
        return _vm_hwm_mb(self.daemon.pid)

    def close(self) -> None:
        daemon = getattr(self, "daemon", None)
        if daemon is not None and daemon.poll() is None:
            daemon.terminate()
            try:
                daemon.wait(30)
            except subprocess.TimeoutExpired:
                daemon.kill()
                daemon.wait()


# ---------------------------------------------------------------------------
# The synchrony spectrum
# ---------------------------------------------------------------------------


class SpectrumWorkload(Workload):
    name = "spectrum"

    def describe(self) -> str:
        samples = sum(cell.samples for cell in self.grid)
        return f"{len(self.grid)} cells, {samples} samples, serial"

    def setup(self) -> None:
        import repro.spectrum.montecarlo as montecarlo

        self.montecarlo = montecarlo
        self.grid = (
            montecarlo.smoke_grid() if self.smoke
            else montecarlo.default_grid()
        )
        self.path = self.scratch / "sweep.json"

    def _violations(self, result) -> list[str]:
        # Ben-Or promises agreement and validity only for f < n/2; the
        # f >= n/2 cells chart the collapse, where violations are the
        # expected outcome rather than a defect.
        within_bound = {
            key: outcome
            for key, outcome in result.outcomes.items()
            if 2 * outcome.cell.f < outcome.cell.n
        }
        return self.montecarlo.check_phase_expectations(
            dataclasses.replace(result, outcomes=within_bound)
        )

    def measure(self, seconds: float, tracer, phase: int) -> Measurement:
        m = Measurement()
        samples = sum(cell.samples for cell in self.grid)

        def op(index: int) -> None:
            m.attempted += 1
            base_seed = self.seed + index
            if self.path.exists():
                self.path.unlink()
            started = time.perf_counter()
            result = self.montecarlo.SweepRunner(
                self.grid, base_seed=base_seed, checkpoint_path=str(self.path)
            ).run()
            took = time.perf_counter() - started
            violations = self._violations(result)
            if not result.complete or violations:
                m.fail(f"op {index}: {violations or 'incomplete sweep'}")
                return
            if (
                base_seed == 0
                and not self.smoke
                and result.fingerprint() != SPECTRUM_SEED0
            ):
                m.fail(f"op {index}: seed-0 fingerprint changed")
                return
            m.latencies.append(took)
            m.work += samples
            m.work_seconds += took

        closed_loop(seconds, tracer, op)
        if m.work_seconds:
            m.detail["spectrum_samples_per_s"] = (
                m.work / m.work_seconds, "1/s"
            )
        return m


WORKLOADS = {
    workload.name: workload
    for workload in (
        ExploreWorkload,
        ExploreCrewWorkload,
        CheckAttackWorkload,
        ResumeWorkload,
        ServeWorkload,
        SpectrumWorkload,
    )
}
