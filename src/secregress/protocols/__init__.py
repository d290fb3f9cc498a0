"""Secure training engines over additively shared data."""

from .base import TrainResult
from .config import (
    TrainingConfig,
    fold_rounds,
    horizontal_schedule,
    product_plan,
    schedule_digest,
    select_batch_owner,
)
from .horizontal import HorizontalEngine
from .vertical import VerticalEngine

__all__ = [
    "HorizontalEngine",
    "TrainResult",
    "TrainingConfig",
    "VerticalEngine",
    "fold_rounds",
    "horizontal_schedule",
    "product_plan",
    "schedule_digest",
    "select_batch_owner",
]
