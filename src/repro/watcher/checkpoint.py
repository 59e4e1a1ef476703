"""Flow-trigger checkpointing.

The paper: "We also provide an automatic checkpointing mechanism to
avoid undesired flow repeats in cases where a user needs to resume
experimentation after interruption, e.g., if the user computer needs to
be rebooted or the user resumes a set of experiments on a subsequent
day."

:class:`CheckpointStore` records which files have already triggered a
flow, keyed by path + checksum (so a *re-acquired* file with new content
does trigger again).  With a ``path`` it persists as JSON and survives
restarts; without one it is in-memory (simulation use).

A corrupt or malformed store never aborts the restart: the bad file is
quarantined next to itself (renamed to ``<path>.corrupt``), the watcher
continues with an empty store, and a warning metric is emitted.  The
cost is bounded — at worst already-processed files trigger once more,
and downstream dedup absorbs that — whereas refusing to start would
stall the whole instrument after a crash.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional

from ..errors import CheckpointError
from ..obs import NULL_OBS

__all__ = ["CheckpointStore"]


class CheckpointStore:
    """Persistent (or in-memory) set of already-processed files."""

    def __init__(
        self,
        path: "str | os.PathLike | None" = None,
        obs: Any = NULL_OBS,
    ) -> None:
        self.path = os.fspath(path) if path is not None else None
        self._metrics = obs.metrics
        #: Where a corrupt store was moved on load, if that happened.
        self.quarantined_path: Optional[str] = None
        self.quarantine_reason: Optional[str] = None
        self._seen: dict[str, str] = {}  # file path -> checksum
        if self.path is not None and os.path.exists(self.path):
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except json.JSONDecodeError as exc:
            self._quarantine(f"corrupt checkpoint file {self.path}: {exc}")
            return
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {self.path}: {exc}") from exc
        if not isinstance(doc, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in doc.items()
        ):
            self._quarantine(f"malformed checkpoint file {self.path}")
            return
        self._seen = doc

    def _quarantine(self, reason: str) -> None:
        """Move the unreadable store aside and continue empty."""
        assert self.path is not None
        quarantined = f"{self.path}.corrupt"
        try:
            os.replace(self.path, quarantined)
        except OSError:
            # Can't even move it aside; keep going with the empty store —
            # the next flush overwrites the bad file atomically.
            quarantined = None
        self.quarantined_path = quarantined
        self.quarantine_reason = reason
        self._seen = {}
        self._metrics.counter("watcher.checkpoint_quarantined").inc()

    def _flush(self) -> None:
        if self.path is None:
            return
        # Atomic replace so a crash mid-write never corrupts the store.
        d = os.path.dirname(os.path.abspath(self.path)) or "."
        fd, tmp = tempfile.mkstemp(dir=d, prefix=".ckpt-")
        fd_owned = True
        try:
            fh = os.fdopen(fd, "w", encoding="utf-8")
            fd_owned = False  # fh now owns (and always closes) the fd
            with fh:
                json.dump(self._seen, fh)
            os.replace(tmp, self.path)
        except BaseException as exc:
            # Any failure — not just OSError: a TypeError/ValueError from
            # json.dump used to leak the temp file (and, pre-fdopen, the
            # fd).  Clean up unconditionally, then surface the error.
            if fd_owned:
                try:
                    os.close(fd)
                except OSError:
                    pass
            try:
                os.unlink(tmp)
            except OSError:
                pass
            if isinstance(exc, Exception):
                raise CheckpointError(
                    f"cannot write checkpoint {self.path}: {exc}"
                ) from exc
            raise

    # -- API ---------------------------------------------------------------
    def is_processed(self, path: str, checksum: str) -> bool:
        """Has this exact content at this path already triggered a flow?"""
        return self._seen.get(path) == checksum

    def mark_processed(self, path: str, checksum: str) -> None:
        """Record (and persist) that ``path``/``checksum`` was handled."""
        self._seen[path] = checksum
        self._flush()

    def forget(self, path: str) -> None:
        """Drop a record (e.g. to force reprocessing)."""
        self._seen.pop(path, None)
        self._flush()

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, path: str) -> bool:
        return path in self._seen
