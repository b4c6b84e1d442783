"""Prompt construction, model transports, answer scoring and reporting."""

from .prompts import (
    FewShotPrompt,
    Message,
    ModelProfile,
    build_few_shot_prompt,
    build_zero_shot_prompt,
    load_profile,
)
from .report import MetricsTable, aggregate, format_rate, format_text_table, write_report
from .scoring import (
    EvalRecord,
    ParsedAnswer,
    extract_answer,
    read_records,
    run_eval,
    score_outcome,
    write_records,
)
from .transport import (
    LiveTransport,
    ReplayTransport,
    build_payload,
    make_transport,
    mock_responses,
    query_model,
)

__all__ = [
    "EvalRecord",
    "FewShotPrompt",
    "LiveTransport",
    "Message",
    "MetricsTable",
    "ModelProfile",
    "ParsedAnswer",
    "ReplayTransport",
    "aggregate",
    "build_few_shot_prompt",
    "build_payload",
    "build_zero_shot_prompt",
    "extract_answer",
    "format_rate",
    "format_text_table",
    "load_profile",
    "make_transport",
    "mock_responses",
    "query_model",
    "read_records",
    "run_eval",
    "score_outcome",
    "write_records",
    "write_report",
]
