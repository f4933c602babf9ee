"""The spool directory: everything the daemon must not lose.

Layout::

    <spool>/
      endpoint.json           # {"host","port","pid"} of the live daemon
      jobs/<job-id>/
        job.json              # JobRecord, rewritten on every transition
        job.ckpt              # engine checkpoint (resume source)
        result.json           # the exact result bytes served to clients
      cache/<sha256>.json     # completed-result cache, keyed by cache_key

    All writes are atomic (sibling temp file + ``os.replace``) — the
    same discipline as :mod:`repro.core.checkpoint` — so a SIGKILL at
    any instant leaves either the previous or the next version of every
    file, never a torn one.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path

from repro.serve.wire import JobRecord, WireError, canonical_json

__all__ = ["Spool", "atomic_write_bytes"]

logger = logging.getLogger(__name__)


def atomic_write_bytes(path: Path, payload: bytes) -> None:
    """Write *payload* to *path* with crash-safe replace semantics."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(payload)
    os.replace(tmp, path)


class Spool:
    """Filesystem state of one daemon instance."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.cache_dir = self.root / "cache"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- per-job paths -----------------------------------------------------------

    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.json"

    def checkpoint_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "job.ckpt"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    # -- records -----------------------------------------------------------------

    def persist_record(self, record: JobRecord) -> None:
        self.job_dir(record.id).mkdir(parents=True, exist_ok=True)
        atomic_write_bytes(
            self.record_path(record.id),
            json.dumps(record.to_dict(), sort_keys=True, indent=1).encode(),
        )

    def load_records(self) -> list[JobRecord]:
        """All persisted job records, oldest submission first.

        A torn or alien file is logged and skipped — recovery must
        never be wedged by one bad record.
        """
        records = []
        for record_path in sorted(self.jobs_dir.glob("*/job.json")):
            try:
                payload = json.loads(record_path.read_bytes())
                records.append(JobRecord.from_dict(payload))
            except (ValueError, WireError, OSError) as error:
                logger.warning(
                    "spool: skipping unreadable record %s: %s",
                    record_path,
                    error,
                )
        records.sort(key=lambda record: (record.submitted_unix, record.id))
        return records

    # -- results -----------------------------------------------------------------

    def write_result(self, job_id: str, payload: bytes) -> None:
        atomic_write_bytes(self.result_path(job_id), payload)

    def read_result(self, job_id: str) -> bytes | None:
        try:
            return self.result_path(job_id).read_bytes()
        except OSError:
            return None

    # -- daemon endpoint ---------------------------------------------------------

    @property
    def endpoint_path(self) -> Path:
        return self.root / "endpoint.json"

    def write_endpoint(self, host: str, port: int, pid: int) -> None:
        atomic_write_bytes(
            self.endpoint_path,
            canonical_json({"host": host, "port": port, "pid": pid}),
        )
