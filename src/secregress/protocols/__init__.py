"""Secure training engines over additively shared data."""

from .base import TrainResult
from .config import (
    DEFAULT_SIGMOID_COEFFS,
    TrainingConfig,
    horizontal_schedule,
    horizontal_triple_needs,
    schedule_digest,
    select_batch_owner,
    vertical_triple_needs,
)
from .horizontal import HorizontalEngine
from .vertical import VerticalEngine

__all__ = [
    "DEFAULT_SIGMOID_COEFFS",
    "HorizontalEngine",
    "TrainResult",
    "TrainingConfig",
    "VerticalEngine",
    "horizontal_schedule",
    "horizontal_triple_needs",
    "schedule_digest",
    "select_batch_owner",
    "vertical_triple_needs",
]
