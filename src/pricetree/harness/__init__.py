"""Prompt construction, model transports, answer scoring and reporting."""

from .prompts import Message, ModelProfile, build_zero_shot_prompt, load_profile
from .report import MetricsTable, aggregate, format_text_table, write_report
from .scoring import EvalRecord, read_records, run_eval, write_records
from .transport import ReplayTransport, mock_responses

__all__ = [
    "EvalRecord",
    "Message",
    "MetricsTable",
    "ModelProfile",
    "ReplayTransport",
    "aggregate",
    "build_zero_shot_prompt",
    "format_text_table",
    "load_profile",
    "mock_responses",
    "read_records",
    "run_eval",
    "write_records",
    "write_report",
]
