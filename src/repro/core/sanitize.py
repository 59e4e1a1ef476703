"""Campaign-level schedule-race sanitization: detect, then confirm.

The kernel's :class:`~repro.sim.sanitize.ScheduleSanitizer` flags
cohorts of same-``(time, priority)`` events whose order is fixed only by
insertion sequence (S901).  This module adds the confirmation step:
:func:`sanitize_campaign` runs the campaign twice — once under the
documented FIFO tie-break and once with it reversed
(``Environment(tiebreak="lifo")``) — and diffs the two event traces.
A model that is genuinely order-clean produces byte-identical traces
under both tie-breaks; any divergence (S902) is a *confirmed* schedule
race: observable campaign output that depends on which line of code
happened to call ``schedule()`` first.

Both finding kinds are reported as
:class:`~repro.lint.diagnostics.Diagnostic` objects so ``python -m
repro sanitize`` shares the lint CLI's ``--fail-on`` / ``--format
sarif`` / ``--output`` machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Optional

from ..errors import ConfigError
from ..instrument import UseCaseSpec
from ..sim.sanitize import RaceReport
from .campaign import CampaignConfig, CampaignResult, run_campaign

if TYPE_CHECKING:
    from ..lint.diagnostics import Diagnostic

__all__ = [
    "campaign_trace",
    "sanitize_campaign",
    "SanitizeResult",
    "RACE_RULE_ID",
    "DIVERGENCE_RULE_ID",
]

#: Dynamic-finding rule ids (S9xx: sanitizer space, outside the static
#: registry — reported straight through Diagnostic like E000).
RACE_RULE_ID = "S901"
DIVERGENCE_RULE_ID = "S902"

#: Divergent trace lines reported individually before summarizing.
_MAX_DIVERGENCES = 20


def campaign_trace(result: CampaignResult) -> list[str]:
    """A deterministic line-per-observation event trace of one campaign.

    Full-precision (``repr``) timestamps of every run and step
    transition: any reordering that affects observable behaviour shows
    up here, while benign same-tick reorderings do not.
    """
    lines: list[str] = []
    for run in result.runs:
        lines.append(
            f"{run.run_id} {run.status.value} "
            f"started={run.started_at!r} finished={run.finished_at!r}"
        )
        for s in run.steps:
            lines.append(
                f"  {s.name} entered={s.entered_at!r} "
                f"submitted={s.submitted_at!r} detected={s.detected_at!r} "
                f"polls={s.polls} active={s.active_seconds!r}"
            )
    lines.append(
        f"copier files={len(result.copier.emitted)} "
        f"provisioned={result.testbed.scheduler.provision_count}"
    )
    return lines


@dataclass
class SanitizeResult:
    """Everything the two-run sanitization produced."""

    campaign: str
    forward: CampaignResult
    reverse: CampaignResult
    races_forward: list[RaceReport]
    races_reverse: list[RaceReport]
    trace_forward: list[str]
    trace_reverse: list[str]

    @property
    def divergences(self) -> list[tuple[int, Optional[str], Optional[str]]]:
        """``(line number, forward line, reverse line)`` mismatches
        (``None`` marks a line present in only one trace)."""
        out: list[tuple[int, Optional[str], Optional[str]]] = []
        fwd, rev = self.trace_forward, self.trace_reverse
        for i in range(max(len(fwd), len(rev))):
            a = fwd[i] if i < len(fwd) else None
            b = rev[i] if i < len(rev) else None
            if a != b:
                out.append((i + 1, a, b))
        return out

    @property
    def clean(self) -> bool:
        return (
            not self.races_forward
            and not self.races_reverse
            and not self.divergences
        )

    def diagnostics(self) -> list[Diagnostic]:
        """Render races (S901) and confirmed divergences (S902) through
        the analyzer's diagnostic machinery."""
        # imported here so that `import repro` does not load the linter
        from ..lint.diagnostics import Diagnostic, Severity

        path = f"<campaign:{self.campaign}>"
        out: list[Diagnostic] = []
        seen: set[str] = set()
        for direction, races in (
            ("fifo", self.races_forward),
            ("lifo", self.races_reverse),
        ):
            for race in races:
                text = race.describe()
                if text in seen:
                    continue  # same hazard observed under both tie-breaks
                seen.add(text)
                out.append(
                    Diagnostic(
                        path=path,
                        line=1,
                        col=1,
                        rule_id=RACE_RULE_ID,
                        severity=Severity.ERROR,
                        message=f"[{direction}] {text}",
                    )
                )
        divergences = self.divergences
        for line, a, b in divergences[:_MAX_DIVERGENCES]:
            out.append(
                Diagnostic(
                    path=path,
                    line=line,
                    col=1,
                    rule_id=DIVERGENCE_RULE_ID,
                    severity=Severity.ERROR,
                    message=(
                        f"trace diverges under reversed tie-break: "
                        f"fifo={a!r} lifo={b!r}"
                    ),
                )
            )
        if len(divergences) > _MAX_DIVERGENCES:
            out.append(
                Diagnostic(
                    path=path,
                    line=divergences[_MAX_DIVERGENCES][0],
                    col=1,
                    rule_id=DIVERGENCE_RULE_ID,
                    severity=Severity.ERROR,
                    message=(
                        f"... and {len(divergences) - _MAX_DIVERGENCES} more "
                        f"divergent trace line(s)"
                    ),
                )
            )
        return out


def sanitize_campaign(
    use_case: "UseCaseSpec | str" = "hyperspectral", **settings: Any
) -> SanitizeResult:
    """Run a campaign twice — FIFO and reversed (LIFO) same-tick
    ordering, both under the schedule sanitizer — and diff the traces.

    Takes the settings of :class:`~repro.core.campaign.CampaignConfig`,
    with ``duration_s`` defaulting to 600 s, except ``tiebreak`` and
    ``sanitize``, which it sets itself.  File mode only: a stream
    campaign's :func:`campaign_trace` is one copier line, so the diff
    would compare nothing.
    """
    fixed = sorted({"tiebreak", "sanitize"} & settings.keys())
    if fixed:
        raise ConfigError(
            f"sanitize_campaign sets {fixed} itself: it runs the campaign "
            f"sanitized under both tie-breaks"
        )
    config = CampaignConfig(use_case, **{"duration_s": 600.0, **settings})
    if config.ingest != "file":
        raise ConfigError(
            "sanitize_campaign diffs flow-run traces; a stream campaign "
            "has none to compare"
        )
    forward = run_campaign(replace(config, sanitize=True, tiebreak="fifo"))
    reverse = run_campaign(replace(config, sanitize=True, tiebreak="lifo"))
    sanitizer_f = forward.testbed.env.sanitizer
    sanitizer_r = reverse.testbed.env.sanitizer
    assert sanitizer_f is not None and sanitizer_r is not None
    return SanitizeResult(
        campaign=config.spec.name,
        forward=forward,
        reverse=reverse,
        races_forward=sanitizer_f.races(),
        races_reverse=sanitizer_r.races(),
        trace_forward=campaign_trace(forward),
        trace_reverse=campaign_trace(reverse),
    )
