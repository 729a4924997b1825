"""Persistent checkpoint stores for the sharded solve service.

The sharded solver (:mod:`repro.service.sharded`) persists every shard's
:class:`~repro.tracking.batch_tracker.LaneCheckpoint` state after each rung
of the escalation ladder, so a crashed or preempted worker can be
rescheduled *warm* -- resumed from the last persisted checkpoints -- rather
than cold-restarting its shard from ``t = 0``.  The store is pluggable:

* :class:`InMemoryCheckpointStore` -- a dict behind a lock; survives worker
  crashes (the coordinator owns it) but not coordinator restarts.  The
  default, and the right choice for tests and one-shot solves;
* :class:`FileCheckpointStore` -- one file per ``(job, shard)`` under a root
  directory, so shard state survives the coordinator process too.  Two
  codecs: ``"json"`` (the default; human-readable, exact float round trips
  including inf/NaN and signed zeros -- Python's ``json`` emits shortest
  round-tripping ``repr`` floats and the non-strict ``Infinity``/``NaN``
  tokens) and ``"npz"`` (a compressed NumPy archive carrying the same
  payload, for artifact stores that want binary blobs).

Shard state is *portable*: each lane's checkpoint is stored as the plain
dict of floats/ints that :meth:`LaneCheckpoint.to_portable` produces,
never a pickled object, so a store written by one process can be read by
any other.  The store is the one place a checkpoint is encoded: workers
and the ladder pass :class:`LaneCheckpoint` records as they are, the
coordinator encodes each lane when it puts a shard's record, and a lane
is revived (:meth:`LaneCheckpoint.from_portable`) only when a retried
shard reloads it.

Writes are atomic per shard record (rename-into-place for the file store),
because the whole point is being readable mid-crash.
"""

from __future__ import annotations

import io
import json
import os
import threading
from pathlib import Path
from typing import Dict, List, Optional

from ..errors import CheckpointCorruptError, ConfigurationError

__all__ = ["CheckpointStore", "InMemoryCheckpointStore", "FileCheckpointStore"]


class CheckpointStore:
    """Interface of a shard-state store (see module docstring).

    A *record* is one JSON-compatible dict of portable shard state; records
    are keyed by ``(job_id, shard)``.  ``put`` overwrites -- the service
    persists monotonically growing state after each rung, and only the
    latest record matters for a resume.
    """

    def put(self, job_id: str, shard: int, state: Dict[str, object]) -> None:
        """Persist (overwrite) one shard's record."""
        raise NotImplementedError

    def get(self, job_id: str, shard: int) -> Optional[Dict[str, object]]:
        """The shard's last persisted record, or ``None`` if absent."""
        raise NotImplementedError

    def shards(self, job_id: str) -> List[int]:
        """Shard indices with a persisted record for the job, sorted."""
        raise NotImplementedError

    def delete_job(self, job_id: str) -> None:
        """Drop every record of the job (no-op when nothing is stored)."""
        raise NotImplementedError


class InMemoryCheckpointStore(CheckpointStore):
    """Shard records in a process-local dict (thread-safe).

    Survives *worker* crashes -- the coordinator process owns the dict, and
    worker processes never touch the store directly -- which is exactly the
    fault model of the process-pool service.  State is lost with the
    coordinator; use :class:`FileCheckpointStore` to survive that too.
    """

    def __init__(self):
        self._records: Dict[tuple, Dict[str, object]] = {}
        self._lock = threading.Lock()

    def put(self, job_id: str, shard: int, state: Dict[str, object]) -> None:
        with self._lock:
            self._records[(str(job_id), int(shard))] = json.loads(json.dumps(state))

    def get(self, job_id: str, shard: int) -> Optional[Dict[str, object]]:
        with self._lock:
            state = self._records.get((str(job_id), int(shard)))
        return json.loads(json.dumps(state)) if state is not None else None

    def shards(self, job_id: str) -> List[int]:
        with self._lock:
            return sorted(shard for job, shard in self._records
                          if job == str(job_id))

    def delete_job(self, job_id: str) -> None:
        with self._lock:
            for key in [k for k in self._records if k[0] == str(job_id)]:
                del self._records[key]


class FileCheckpointStore(CheckpointStore):
    """Shard records as files under ``root/<job_id>/shard-<n>.<codec>``.

    Parameters
    ----------
    root:
        Directory the store may create and write under.
    codec:
        ``"json"`` (default) writes the record as a JSON text file;
        ``"npz"`` writes a compressed NumPy archive whose single ``state``
        entry carries the same JSON payload.  Both round-trip every float
        of the portable checkpoint planes exactly (JSON floats are emitted
        with the shortest round-tripping ``repr``; inf/NaN use the
        non-strict ``Infinity``/``NaN`` tokens Python's ``json`` reads
        back).

    Raises
    ------
    ConfigurationError
        For an unknown codec.
    """

    _CODECS = ("json", "npz")

    def __init__(self, root, codec: str = "json"):
        if codec not in self._CODECS:
            raise ConfigurationError(
                f"unknown checkpoint store codec {codec!r}; "
                f"available: {list(self._CODECS)}"
            )
        self.root = Path(root)
        self.codec = codec
        self.root.mkdir(parents=True, exist_ok=True)

    # -- paths ----------------------------------------------------------
    def _job_dir(self, job_id: str) -> Path:
        job = str(job_id)
        if not job or any(sep in job for sep in ("/", "\\", os.sep)):
            raise ConfigurationError(
                f"job id {job!r} is not usable as a directory name"
            )
        return self.root / job

    def _path(self, job_id: str, shard: int) -> Path:
        return self._job_dir(job_id) / f"shard-{int(shard)}.{self.codec}"

    def record_path(self, job_id: str, shard: int) -> Path:
        """The on-disk path of one shard record (for ops tooling and the
        corruption drills; the file may not exist yet)."""
        return self._path(job_id, shard)

    # -- codec ----------------------------------------------------------
    def _encode(self, state: Dict[str, object]) -> bytes:
        text = json.dumps(state, sort_keys=True)
        if self.codec == "json":
            return text.encode("utf-8")
        import numpy as np
        buffer = io.BytesIO()
        np.savez_compressed(buffer, state=np.frombuffer(
            text.encode("utf-8"), dtype=np.uint8))
        return buffer.getvalue()

    def _decode(self, blob: bytes) -> Dict[str, object]:
        if self.codec == "json":
            return json.loads(blob.decode("utf-8"))
        import numpy as np
        with np.load(io.BytesIO(blob)) as archive:
            return json.loads(archive["state"].tobytes().decode("utf-8"))

    # -- store interface -------------------------------------------------
    def put(self, job_id: str, shard: int, state: Dict[str, object]) -> None:
        path = self._path(job_id, shard)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Write-then-rename: a crash mid-put leaves the previous record
        # intact, never a torn file -- resumability is the store's job.
        scratch = path.with_suffix(path.suffix + ".tmp")
        scratch.write_bytes(self._encode(state))
        os.replace(scratch, path)

    def get(self, job_id: str, shard: int) -> Optional[Dict[str, object]]:
        path = self._path(job_id, shard)
        if not path.is_file():
            return None
        blob = path.read_bytes()  # an unreadable file surfaces as OSError
        # A record that *reads* but does not *decode* is corrupt: a crash
        # between write and ``os.replace`` cannot produce it (writes are
        # atomic), but shared-storage truncation or bit rot can.  Fail
        # loud with the typed error so the coordinator cold-restarts the
        # shard instead of resuming from poison.
        try:
            return self._decode(blob)
        except Exception as exc:
            raise CheckpointCorruptError(
                f"checkpoint record {path} is corrupt or truncated "
                f"({type(exc).__name__}: {exc})") from exc

    def shards(self, job_id: str) -> List[int]:
        directory = self._job_dir(job_id)
        if not directory.is_dir():
            return []
        out = []
        for path in directory.glob(f"shard-*.{self.codec}"):
            stem = path.name[len("shard-"):-(len(self.codec) + 1)]
            if stem.isdigit():
                out.append(int(stem))
        return sorted(out)

    def delete_job(self, job_id: str) -> None:
        directory = self._job_dir(job_id)
        if not directory.is_dir():
            return
        for path in directory.iterdir():
            path.unlink()
        directory.rmdir()
