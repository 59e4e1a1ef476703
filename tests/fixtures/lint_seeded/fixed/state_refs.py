"""The fixes: reference only states that completed earlier in the flow,
and take everything else from ``$.input``."""

from repro.flows import FlowDefinition, FlowState

FORWARD = FlowDefinition(
    title="backward state reference",
    states=(
        FlowState(
            name="Analyze",
            provider="compute",
            parameters={
                "endpoint": "$.input.compute_endpoint",
                "function_id": "$.input.function_id",
            },
        ),
        FlowState(
            name="Publish",
            provider="search_ingest",
            parameters={
                "index": "$.input.index",
                "subject": "$.input.subject",
                "content": "$.states.Analyze.output",
            },
        ),
    ),
)

UNKNOWN = FlowDefinition(
    title="input reference",
    states=(
        FlowState(
            name="Transfer",
            provider="transfer",
            parameters={
                "source_endpoint": "$.input.source_endpoint",
                "source_path": "$.input.source_path",
                "dest_endpoint": "$.input.dest_endpoint",
                "dest_path": "$.input.dest_path",
            },
        ),
        FlowState(
            name="Analyze",
            provider="compute",
            parameters={
                "endpoint": "$.states.Transfer.dest_endpoint",
                "function_id": "$.input.function_id",
            },
        ),
    ),
)
