"""Execution engines: the conventional reference and TaGNN-S."""

from .concurrent import ConcurrentEngine, WindowCarry, WindowResult
from .metrics import WORD_BYTES, ExecutionMetrics
from .reference import EngineResult, ReferenceEngine
from .streaming import StreamingInference, StreamResult

__all__ = [
    "ConcurrentEngine",
    "ExecutionMetrics",
    "WORD_BYTES",
    "EngineResult",
    "ReferenceEngine",
    "StreamingInference",
    "StreamResult",
    "WindowCarry",
    "WindowResult",
]
