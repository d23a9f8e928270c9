"""Response: SEC-style correlation, alerting, automated actions."""

from .actions import ActionEngine, Alert, AlertManager, AuditRecord
from .governor import CongestionAwarePlacement, PowerGovernor
from .policy import default_rules, default_sec_engine
from .sec import ActionRequest, PairRule, SecEngine, SingleRule, ThresholdRule

__all__ = [
    "CongestionAwarePlacement",
    "PowerGovernor",
    "ActionEngine",
    "Alert",
    "AlertManager",
    "AuditRecord",
    "default_rules",
    "default_sec_engine",
    "ActionRequest",
    "PairRule",
    "SecEngine",
    "SingleRule",
    "ThresholdRule",
]
