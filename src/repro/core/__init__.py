"""The paper's contribution: PicoProbe → supercomputer data flows.

Gladier tools composing the Transfer → Analyze → Publish flow
(``tools``), the combined analysis functions with calibrated cost models
(``functions``), the watcher-triggered client application (``app``), the
Sec. 3.3 performance campaigns declared as :class:`CampaignConfig` and
run by :func:`run_campaign` (``campaign``), and the Table 1 / Fig. 4
statistics (``stats``).  Nothing here imports :mod:`repro.analysis`:
a campaign's functions publish records and charge cost models, and the
real-file pipelines they stand for are
:mod:`repro.analysis.pipelines`.
"""

from .app import FlowTriggerApp, TriggerApp
from .campaign import (
    USE_CASES,
    CampaignConfig,
    CampaignResult,
    run_campaign,
    use_case_by_name,
)
from .sanitize import SanitizeResult, campaign_trace, sanitize_campaign
from .functions import (
    analyze_virtual_hyperspectral,
    analyze_virtual_spatiotemporal,
    file_descriptor,
    hyperspectral_cost_model,
    spatiotemporal_cost_model,
)
from .stats import Table1Row, fig4_samples, fig4_svg, render_table1, table1_row
from .steering import (
    DriftVerdict,
    OperatorAlert,
    actionable_summary,
    detect_drift,
    scan_for_alerts,
)
from .tools import (
    ANALYZE_STATE,
    PUBLISH_STATE,
    TRANSFER_STATE,
    analysis_tool,
    picoprobe_flow,
    publish_tool,
    transfer_tool,
)

__all__ = [
    "FlowTriggerApp",
    "TriggerApp",
    "USE_CASES",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "use_case_by_name",
    "SanitizeResult",
    "sanitize_campaign",
    "campaign_trace",
    "file_descriptor",
    "analyze_virtual_hyperspectral",
    "analyze_virtual_spatiotemporal",
    "hyperspectral_cost_model",
    "spatiotemporal_cost_model",
    "Table1Row",
    "table1_row",
    "render_table1",
    "fig4_samples",
    "fig4_svg",
    "transfer_tool",
    "analysis_tool",
    "publish_tool",
    "picoprobe_flow",
    "TRANSFER_STATE",
    "ANALYZE_STATE",
    "PUBLISH_STATE",
    "detect_drift",
    "DriftVerdict",
    "OperatorAlert",
    "scan_for_alerts",
    "actionable_summary",
]
