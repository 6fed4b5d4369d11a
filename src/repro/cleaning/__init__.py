"""Data cleaning with PFDs: error injection, detection, repair, and the
precision/recall evaluation harness (Section 5.3 of the paper)."""

from .detector import (
    DetectedError,
    DetectionReport,
    DetectionView,
    ErrorDetector,
    detect_errors,
)
from .evaluation import (
    PrecisionRecall,
    cell_precision_recall,
    dependency_precision_recall,
    normalize_dependency,
    repair_accuracy,
)
from .injection import (
    InjectedError,
    InjectionResult,
    inject_errors,
    inject_errors_multi,
)
from .repair import Repair, RepairResult, Repairer, repair_errors

__all__ = [
    "DetectedError",
    "DetectionReport",
    "DetectionView",
    "ErrorDetector",
    "detect_errors",
    "PrecisionRecall",
    "cell_precision_recall",
    "dependency_precision_recall",
    "normalize_dependency",
    "repair_accuracy",
    "InjectedError",
    "InjectionResult",
    "inject_errors",
    "inject_errors_multi",
    "Repair",
    "RepairResult",
    "Repairer",
    "repair_errors",
]
