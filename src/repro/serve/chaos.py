"""Launch a ``repro serve`` daemon subprocess and wait until it answers.

The ``server-kill`` scenario of the chaos suite
(:func:`repro.core.resilience.run_chaos_suite`) starts, SIGKILLs and
restarts daemons through these helpers; the benchmark's serve workload
uses them to host its daemon.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

from repro.serve.client import ServeClient

__all__ = ["start_daemon", "wait_for_endpoint"]


def start_daemon(
    spool: str | Path,
    *,
    checkpoint_every_s: float = 0.2,
    job_workers: int = 1,
    extra_args: tuple[str, ...] = (),
) -> subprocess.Popen:
    """Launch ``python -m repro serve`` on *spool* (port auto-picked)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    cmd = [
        sys.executable,
        "-m",
        "repro",
        "serve",
        "--host",
        "127.0.0.1",
        "--port",
        "0",
        "--spool",
        str(spool),
        "--checkpoint-every",
        str(checkpoint_every_s),
        "--job-workers",
        str(job_workers),
        *extra_args,
    ]
    return subprocess.Popen(
        cmd,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        start_new_session=True,
    )


def wait_for_endpoint(
    spool: str | Path,
    process: subprocess.Popen,
    timeout_s: float = 30.0,
) -> ServeClient:
    """Poll until the daemon has written endpoint.json and answers
    ``/healthz`` *with its own pid* (a stale endpoint from a killed
    predecessor must not satisfy the wait)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise RuntimeError(
                f"daemon exited early with code {process.returncode}"
            )
        try:
            client = ServeClient.from_spool(spool, timeout_s=5.0)
            response = client.healthz()
            if (
                response.status == 200
                and response.json().get("pid") == process.pid
            ):
                return client
        except (ConnectionError, OSError, ValueError):
            pass
        time.sleep(0.05)
    raise TimeoutError(f"daemon on {spool} not ready within {timeout_s}s")
