"""VieCut: inexact multilevel minimum cut (label propagation + PR tests)."""

from .label_propagation import cluster_labels
from .padberg_rinaldi import padberg_rinaldi_marks, pr12_marks, pr34_marks
from .viecut import viecut

__all__ = [
    "cluster_labels",
    "padberg_rinaldi_marks",
    "pr12_marks",
    "pr34_marks",
    "viecut",
]
