"""Core datatypes and plumbing shared by every layer of the stack."""

from .clock import DriftingClock, DriftModel, SimClock
from .events import Event, EventKind, Severity
from .hashing import stable_bucket, stable_hash
from .metric import MetricKey, Sample, SeriesBatch, merge_batches
from .registry import MetricClass, MetricRegistry, MetricSpec, default_registry

__all__ = [
    "DriftingClock",
    "DriftModel",
    "SimClock",
    "Event",
    "EventKind",
    "Severity",
    "stable_bucket",
    "stable_hash",
    "MetricKey",
    "Sample",
    "SeriesBatch",
    "merge_batches",
    "MetricClass",
    "MetricRegistry",
    "MetricSpec",
    "default_registry",
]
