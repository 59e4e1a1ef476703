"""Shapes the retired F303 caught, now F401's: ``$.states`` templates
naming a state that has not run yet, or no state of the flow at all."""

from repro.flows import FlowDefinition, FlowState

#: Analyze reads Publish's result, but Publish runs after it.
FORWARD = FlowDefinition(
    title="forward state reference",
    states=(
        FlowState(
            name="Analyze",
            provider="compute",
            parameters={
                "endpoint": "$.input.compute_endpoint",
                "function_id": "$.states.Publish.subject",  # expect: F401
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

#: Analyze reads the result of a state this flow does not have.
UNKNOWN = FlowDefinition(
    title="unknown state reference",
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
                "function_id": "$.states.Register.task_id",  # expect: F401
            },
        ),
    ),
)
