"""Secure training engines over additively shared data."""

from .base import TrainResult
from .config import (
    TrainingConfig,
    horizontal_schedule,
    product_plan,
    select_batch_owner,
)
from .horizontal import HorizontalEngine
from .vertical import VerticalEngine

__all__ = [
    "HorizontalEngine",
    "TrainResult",
    "TrainingConfig",
    "VerticalEngine",
    "horizontal_schedule",
    "product_plan",
    "select_batch_owner",
]
