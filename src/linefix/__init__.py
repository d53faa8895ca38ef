"""Line-addressed code-fix tooling.

Parse, apply, and derive line-addressed patches; build instruction prompts;
ingest and leak-refine fix corpora; drive completion backends; and score
exact-match repair performance.
"""

from linefix.client import (
    BackendSpec,
    BatchResult,
    CandidateSet,
    DecodeConfig,
    HttpBackend,
    MockBackend,
    generate,
    generate_batch,
)
from linefix.engine import (
    ValidationReport,
    apply_patch,
    derive_patch,
    validate_patch,
)
from linefix.evaluation import (
    DEFAULT_CWE_ORDER,
    EfficiencyStats,
    EvalReport,
    efficiency,
    evaluate,
    is_perfect,
    render_report,
    sample_hit,
)
from linefix.patchfmt import (
    EditSpan,
    PatchSet,
    SpanKind,
    classify_span,
    parse_patch,
    serialize_patch,
)
from linefix.prompting import (
    TrainingExample,
    VulnRecord,
    build_prompt,
    parse_prompt,
    render_training_example,
)
from linefix.source import SourceUnit, from_text, number_lines, to_text

__version__ = "0.1.0"

__all__ = [
    "BackendSpec",
    "BatchResult",
    "CandidateSet",
    "DecodeConfig",
    "DEFAULT_CWE_ORDER",
    "EditSpan",
    "EfficiencyStats",
    "EvalReport",
    "HttpBackend",
    "MockBackend",
    "PatchSet",
    "SourceUnit",
    "SpanKind",
    "TrainingExample",
    "ValidationReport",
    "VulnRecord",
    "apply_patch",
    "build_prompt",
    "classify_span",
    "derive_patch",
    "efficiency",
    "evaluate",
    "from_text",
    "generate",
    "generate_batch",
    "is_perfect",
    "number_lines",
    "parse_patch",
    "parse_prompt",
    "render_report",
    "render_training_example",
    "sample_hit",
    "serialize_patch",
    "to_text",
    "validate_patch",
]
