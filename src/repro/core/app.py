"""The flow-trigger application on the PicoProbe user machine.

The paper's lightweight watcher app (Sec. 2.2.1): when a new EMD file
appears, consult the checkpoint store (skip files already processed —
the reboot/resume protection), build the flow input, and start a Globus
flow.  "Our application is very lightweight as the task logic,
orchestration, and fault tolerance are managed by Gladier/Globus
automation services."

:class:`TriggerApp` is that application for both ingest modes: it owns
the watcher contract (EMD filter, checkpoint dedup, the record subject,
the integrity chain, open-chain quarantine, completion callbacks) and
delegates only the launch.  :class:`FlowTriggerApp` launches a Gladier
flow; :class:`~repro.stream.StreamIngestApp` opens a stream session.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Generator, Optional

from ..errors import ComputeError
from ..flows import FlowDefinition, FlowRun
from ..storage import VirtualFile
from ..testbed import EAGLE_EP, PICOPROBE_EP, POLARIS_EP, PORTAL_INDEX, Testbed
from ..watcher import CheckpointStore, FileCreatedEvent, SimObserver
from .functions import file_descriptor

__all__ = ["FlowTriggerApp", "TriggerApp"]


class TriggerApp:
    """Watches for new files and launches one record per file.

    Subclasses implement :meth:`_launch` (start the record) and
    :meth:`_follow` (the DES process that sees it to a terminal state,
    calling :meth:`_quarantine_open` and :meth:`_notify` on the way out).
    """

    def __init__(
        self,
        testbed: Testbed,
        function_id: str,
        checkpoint: Optional[CheckpointStore] = None,
        dest_dir: str = "/picoprobe/data",
        visible_to: tuple[str, ...] = ("public",),
        ledger: Any = None,
    ) -> None:
        self.testbed = testbed
        self.function_id = function_id
        #: Integrity hook: a duck-typed
        #: :class:`~repro.integrity.IntegrityLedger`.  When set, each
        #: acquisition opens a digest chain at trigger time, and a record
        #: that ends with its chain open is quarantined.
        self.ledger = ledger
        # Note: an empty store is falsy, so test for None explicitly.
        self.checkpoint = checkpoint if checkpoint is not None else CheckpointStore()
        self.dest_dir = dest_dir.rstrip("/")
        self.visible_to = visible_to
        #: One record per launched file, in trigger order.
        self.records: list[Any] = []
        self.skipped: int = 0
        #: Callbacks fired when a record reaches a terminal state.
        self.on_complete: list[Callable[[Any], None]] = []

    def attach(self, observer: SimObserver) -> None:
        """Subscribe to a directory observer."""
        observer.add_handler(self.handle_event)

    # -- event handling ---------------------------------------------------
    def handle_event(self, event: FileCreatedEvent) -> Any:
        """Launch a record for a new EMD file (or skip via checkpoint)."""
        if not event.is_emd:
            return None
        if event.virtual is None:
            raise ComputeError(
                f"{type(self).__name__} drives simulated campaigns; "
                "real-filesystem events carry no metadata to analyze"
            )
        vf = event.virtual
        if self.checkpoint.is_processed(vf.path, vf.checksum):
            self.skipped += 1
            return None
        subject = vf.metadata.acquisition_id if vf.metadata is not None else vf.checksum
        if self.ledger is not None:
            self.ledger.begin(
                vf.path, declared=vf.checksum, subject=subject,
                at=self.testbed.env.now,
            )
        descriptor = file_descriptor(vf, f"{self.dest_dir}/{os.path.basename(vf.path)}")
        record = self._launch(vf, subject, descriptor)
        self.checkpoint.mark_processed(vf.path, vf.checksum)
        self.records.append(record)
        self.testbed.env.process(self._follow(record, vf, subject, descriptor))
        return record

    def _launch(self, vf: VirtualFile, subject: str, descriptor: dict) -> Any:
        raise NotImplementedError

    def _follow(
        self, record: Any, vf: VirtualFile, subject: str, descriptor: dict
    ) -> Generator:
        raise NotImplementedError

    # -- completion --------------------------------------------------------
    def _quarantine_open(self, path: str, reason: str) -> bool:
        """Dead-letter ``path`` if its digest chain is still open — the
        record failed somewhere (transfer, read, analysis, publish) and
        must never be indexed.  Returns whether the chain was open."""
        chain = self.ledger.chain(path) if self.ledger is not None else None
        if chain is None or chain.closed:
            return False
        self.ledger.quarantine(path, reason=reason)
        return True

    def _notify(self, record: Any) -> None:
        for cb in list(self.on_complete):
            cb(record)


class FlowTriggerApp(TriggerApp):
    """File mode: one Gladier flow per file."""

    def __init__(
        self,
        testbed: Testbed,
        definition: FlowDefinition,
        function_id: str,
        **kwargs: Any,
    ) -> None:
        super().__init__(testbed, function_id, **kwargs)
        self.definition = definition

    def _launch(self, vf: VirtualFile, subject: str, descriptor: dict) -> FlowRun:
        return self.testbed.gladier.run_flow(
            self.definition,
            {
                "source_endpoint": PICOPROBE_EP,
                "source_path": vf.path,
                "dest_endpoint": EAGLE_EP,
                "dest_path": descriptor["dest_path"],
                "compute_endpoint": POLARIS_EP,
                "function_id": self.function_id,
                "file": descriptor,
                "search_index": PORTAL_INDEX,
                "subject": subject,
                "visible_to": list(self.visible_to),
            },
        )

    def _follow(
        self, run: FlowRun, vf: VirtualFile, subject: str, descriptor: dict
    ) -> Generator:
        yield run.completed
        self._quarantine_open(
            vf.path, run.error or f"flow run ended {run.status.value} with open chain"
        )
        self._notify(run)

    # -- reporting ---------------------------------------------------------
    @property
    def runs(self) -> list[FlowRun]:
        return self.records

    @property
    def completed_runs(self) -> list[FlowRun]:
        return [r for r in self.records if r.status.terminal]
