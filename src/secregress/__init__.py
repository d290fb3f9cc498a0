"""Secure multi-party training of linear and logistic regression.

Data stays with its owners as additive secret shares over Z_{2^64}; model
updates run on the shares through one of two secure matrix multiplication
protocols. A plaintext float64 baseline with the same schedule is included
for equivalence checks and benchmarks.
"""

from .errors import SecregressError
from .ring import (
    DEFAULT_CONFIG,
    FixedPointConfig,
    RingMatrix,
    decode_raw,
    encode_raw,
)

__version__ = "0.1.0"

__all__ = [
    "SecregressError",
    "FixedPointConfig",
    "DEFAULT_CONFIG",
    "RingMatrix",
    "encode_raw",
    "decode_raw",
    "__version__",
]
