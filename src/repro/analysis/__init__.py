"""Analyses: the methodologies the ten sites describe, as library code."""

from ..core.soa import ComponentTable
from .aggressor import AggressorReport, AppVariability, classify
from .anomaly import (
    CusumDetector,
    Detection,
    DetectionBatch,
    EwmaDetector,
    ThresholdDetector,
    iqr_outliers,
    sweep_outliers,
)
from .congestion import (
    LEVEL_THRESHOLDS,
    CongestionRegion,
    congestion_levels,
    congestion_regions,
    jobs_touching_region,
)
from .correlate import (
    Cascade,
    Incident,
    cluster_events,
    link_failure_cascades,
    order_accuracy,
)
from .logpatterns import (
    DEFAULT_PATTERNS,
    KnownPattern,
    KnownPatternScanner,
    RateAnomaly,
    TemplateTracker,
    template_of,
)
from .powersig import (
    ImbalanceFinding,
    MatchResult,
    PowerSignature,
    SignatureLibrary,
    detect_hung_nodes,
    detect_load_imbalance,
    match,
)
from .queueing import QueueEpisode, characterize, estimate_wait
from .stats import (
    coefficient_of_variation,
    ewma,
    mad,
    robust_zscores,
    rolling_mean,
)
from .streaming import (
    RunningMoments,
    StreamingOutlierDetector,
    StreamingRateWatch,
    StreamingStats,
)
from .trend import FailureRateTracker, TrendFit, fit_trend, time_to_threshold
from .variability import (
    DegradationWindow,
    attribute_window,
    detect_degradations,
)

__all__ = [
    "AggressorReport",
    "AppVariability",
    "classify",
    "CusumDetector",
    "Detection",
    "DetectionBatch",
    "EwmaDetector",
    "ThresholdDetector",
    "iqr_outliers",
    "sweep_outliers",
    "LEVEL_THRESHOLDS",
    "CongestionRegion",
    "congestion_levels",
    "congestion_regions",
    "jobs_touching_region",
    "Cascade",
    "Incident",
    "cluster_events",
    "link_failure_cascades",
    "order_accuracy",
    "DEFAULT_PATTERNS",
    "KnownPattern",
    "KnownPatternScanner",
    "RateAnomaly",
    "TemplateTracker",
    "template_of",
    "ImbalanceFinding",
    "MatchResult",
    "PowerSignature",
    "SignatureLibrary",
    "detect_hung_nodes",
    "detect_load_imbalance",
    "match",
    "QueueEpisode",
    "characterize",
    "estimate_wait",
    "ComponentTable",
    "coefficient_of_variation",
    "ewma",
    "mad",
    "robust_zscores",
    "rolling_mean",
    "RunningMoments",
    "StreamingOutlierDetector",
    "StreamingRateWatch",
    "StreamingStats",
    "FailureRateTracker",
    "TrendFit",
    "fit_trend",
    "time_to_threshold",
    "DegradationWindow",
    "attribute_window",
    "detect_degradations",
]
