"""The xgcc analysis engine (§5-§6, §8)."""

from repro.engine.state import SMInstance, VarInstance, state_tuples
from repro.engine.analysis import Analysis, AnalysisOptions, AnalysisResult

__all__ = [
    "SMInstance",
    "VarInstance",
    "state_tuples",
    "Analysis",
    "AnalysisOptions",
    "AnalysisResult",
]
