"""Parallel runtime: pluggable execution models for the tick loop."""

from repro.runtime.executor import (
    ExecStats,
    ExecutionModel,
    SerialExecutor,
    ThreadedExecutor,
    make_executor,
)

__all__ = [
    "ExecStats",
    "ExecutionModel",
    "SerialExecutor",
    "ThreadedExecutor",
    "make_executor",
]
