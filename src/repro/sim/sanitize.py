"""Dynamic schedule-race sanitizer for the DES kernel.

The kernel guarantees that events scheduled for the same ``(time,
priority)`` fire in insertion order — deterministic, but *arbitrary*: if
two of those events touch the same shared object and at least one
writes, the model's behaviour silently depends on which line of code
happened to schedule first.  Such flows replay identically under one
kernel but reorder under any legitimate alternative tie-break — the
classic schedule race that only shows up after an innocent refactor.

:class:`ScheduleSanitizer` is the dynamic detector.  With
``Environment(sanitize=True)`` the kernel calls :meth:`begin_event` as
a dispatch hook before every firing and :meth:`end_event` when
``run()`` returns or raises and after each ``step()`` (a firing lasts
until the next one begins), and instrumented shared state
(:class:`~repro.sim.resources.Resource` / ``Store`` mutations, flow-run
registry writes, scheduler counters) reports accesses through
:meth:`Environment.touch`.  Touches are grouped into same-``(time,
priority)`` *cohorts* — the sets of firings ordered only by insertion
sequence.  A cohort where two distinct firings by two distinct actors
touch one object, at least once as a write, is reported as a
:class:`RaceReport` — unless the firings are *causally ordered*: an
event scheduled while another fires always pops after it under every
tie-break, so a put that resumes the very process whose next get lands
in the same cohort is a chain, not a race.

The static half of the story lives in :mod:`repro.lint`; the
confirmation step — rerunning with ``Environment(tiebreak="lifo")`` and
diffing traces — lives in :mod:`repro.core.sanitize`.

All bookkeeping is deterministic: actors and objects are named in
first-touch order (``Resource#1``, ``Process(run)#3``), never by memory
address, so two identical runs produce byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .core import Environment, Event

__all__ = ["ScheduleSanitizer", "RaceReport"]

#: Access-mode lattice: merging any access with a write stays a write.
_MERGE = {
    ("r", "r"): "r",
    ("r", "w"): "rw",
    ("r", "rw"): "rw",
    ("w", "r"): "rw",
    ("w", "w"): "w",
    ("w", "rw"): "rw",
    ("rw", "r"): "rw",
    ("rw", "w"): "rw",
    ("rw", "rw"): "rw",
}


def _writes(mode: str) -> bool:
    return "w" in mode


@dataclass(frozen=True)
class RaceReport:
    """One same-tick ordering hazard.

    ``actors`` pairs each participating firing with its access mode, in
    firing order — exactly the order the current tie-break imposed and a
    different tie-break would reverse.
    """

    time: float
    priority: int
    obj: str
    actors: tuple[tuple[str, str], ...]  # ((actor name, mode), ...) in firing order

    def describe(self) -> str:
        accesses = ", ".join(f"{name}[{mode}]" for name, mode in self.actors)
        return (
            f"t={self.time!r} priority={self.priority}: {self.obj} touched by "
            f"{accesses} in the same scheduling cohort — their order is fixed "
            f"only by insertion sequence"
        )


class _Firing:
    """One event being processed: its cohort key and display ordinal."""

    __slots__ = ("key", "ordinal")

    def __init__(self, key: tuple[float, int], ordinal: int) -> None:
        self.key = key
        self.ordinal = ordinal


class ScheduleSanitizer:
    """Record shared-state touches per scheduling cohort and report races.

    Created by ``Environment(sanitize=True)``; user code interacts with
    it only through :meth:`Environment.touch` and :meth:`races`.
    """

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._current: Optional[_Firing] = None
        self._fired = 0
        #: cohort key -> object label -> (firing ordinal, actor) -> mode
        self._cohorts: dict[
            tuple[float, int], dict[str, dict[tuple[int, str], str]]
        ] = {}
        #: happens-before: event identity -> ordinal of the firing that
        #: scheduled it (strong ref kept until the event pops).
        self._scheduled_during: dict[int, tuple[int, Any]] = {}
        #: firing ordinal -> ordinal of its scheduling firing.
        self._parent: dict[int, int] = {}
        #: deterministic naming: object identity -> assigned label,
        #: with strong refs pinning identities for the run's lifetime.
        self._labels: dict[int, str] = {}
        self._pinned: list[Any] = []
        self._kind_counts: dict[str, int] = {}

    # -- kernel hooks ---------------------------------------------------
    def on_schedule(self, event: "Event") -> None:
        """Record which firing (if any) scheduled ``event``."""
        if self._current is not None:
            self._scheduled_during[id(event)] = (self._current.ordinal, event)

    def begin_event(self, time: float, priority: int, event: "Event") -> None:
        """Open the firing of ``event``; it closes the previous one."""
        ordinal = self._fired
        self._fired += 1
        parent = self._scheduled_during.pop(id(event), None)
        if parent is not None:
            self._parent[ordinal] = parent[0]
        self._current = _Firing((time, priority), ordinal)

    def end_event(self) -> None:
        """Close the current firing: later touches have no cohort."""
        self._current = None

    def _ordered(self, earlier: int, later: int) -> bool:
        """Whether firing ``earlier`` happens-before firing ``later``
        through the scheduling chain (parents always fire first, so
        ordinals strictly decrease along the chain)."""
        current: Optional[int] = later
        while current is not None and current > earlier:
            current = self._parent.get(current)
        return current == earlier

    # -- naming ---------------------------------------------------------
    def _kind(self, obj: Any) -> str:
        generator = getattr(obj, "_generator", None)
        if generator is not None:
            fn = getattr(generator, "__name__", "process")
            return f"Process({fn})"
        return type(obj).__name__

    def _name(self, obj: Any) -> str:
        label = self._labels.get(id(obj))
        if label is None:
            kind = self._kind(obj)
            n = self._kind_counts.get(kind, 0) + 1
            self._kind_counts[kind] = n
            label = f"{kind}#{n}"
            self._labels[id(obj)] = label
            self._pinned.append(obj)
        return label

    # -- recording ------------------------------------------------------
    def touch(self, obj: Any, mode: str = "r", label: Optional[str] = None) -> None:
        """Record an access to shared state during the current firing.

        Touches outside event processing (testbed construction, post-run
        inspection) have no scheduling cohort and are ignored.
        """
        firing = self._current
        if firing is None:
            return
        if mode not in ("r", "w", "rw"):
            raise ValueError(f"touch mode must be 'r', 'w' or 'rw', got {mode!r}")
        actor: Any = self.env.active_process
        if actor is None:
            actor_name = f"event@{firing.ordinal}"
        else:
            actor_name = self._name(actor)
        obj_label = label if label is not None else self._name(obj)
        cohort = self._cohorts.setdefault(firing.key, {})
        accesses = cohort.setdefault(obj_label, {})
        entry = (firing.ordinal, actor_name)
        previous = accesses.get(entry)
        accesses[entry] = mode if previous is None else _MERGE[(previous, mode)]

    # -- reporting ------------------------------------------------------
    def _racy_pair(
        self, entries: list[tuple[tuple[int, str], str]]
    ) -> Optional[list[tuple[tuple[int, str], str]]]:
        """The first pair of touches whose ordering is seq-only: distinct
        firings, distinct actors, at least one write, causally unordered."""
        for i, ((ord_a, actor_a), mode_a) in enumerate(entries):
            for (ord_b, actor_b), mode_b in entries[i + 1:]:
                if ord_a == ord_b or actor_a == actor_b:
                    continue
                if not (_writes(mode_a) or _writes(mode_b)):
                    continue
                if self._ordered(ord_a, ord_b):
                    continue
                return [((ord_a, actor_a), mode_a), ((ord_b, actor_b), mode_b)]
        return None

    def races(self) -> list[RaceReport]:
        """All cohorts where ordering is fixed only by insertion sequence.

        A race needs, on one object within one cohort: two firings
        (separately popped events) by two distinct actors, at least one
        of them writing, with neither firing causally scheduled by the
        other.
        """
        out: list[RaceReport] = []
        for key in sorted(self._cohorts):
            time, priority = key
            for obj_label in sorted(self._cohorts[key]):
                accesses = self._cohorts[key][obj_label]
                entries = sorted(accesses.items())  # by (ordinal, actor)
                if self._racy_pair(entries) is None:
                    continue
                out.append(
                    RaceReport(
                        time=time,
                        priority=priority,
                        obj=obj_label,
                        actors=tuple(
                            (name, mode) for (_, name), mode in entries
                        ),
                    )
                )
        return out
