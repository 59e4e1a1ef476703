"""The fixes: reference only states that completed earlier in the chain,
and take everything else from ``$.input``."""

from repro.flows import FlowDefinition, FlowState

FORWARD = FlowDefinition(
    title="backward state reference",
    start_at="Analyze",
    states=(
        FlowState(
            name="Analyze",
            provider="compute",
            parameters={
                "endpoint": "$.input.compute_endpoint",
                "function_id": "$.input.function_id",
            },
            next="Publish",
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
    start_at="Transfer",
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
            next="Analyze",
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
