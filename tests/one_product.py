"""Run a single secure product on its own, for tests that check one at a time.

The engines only ever run products through smm.run_stage; this is that
call with a one-product stage. Operands and the share come as RingMatrix:
RingMatrix arguments go to the step function as their arrays, and the
share comes back wrapped.
"""

from secregress.ring import RingMatrix
from secregress.smm import run_stage


def run_one(session, peer, round_no, steps_fn, *args, **kwargs):
    """This side's share of one product: steps_fn(session.rng, *args,
    **kwargs) run alone through run_stage against peer, in round_no."""
    args = [a.arr if isinstance(a, RingMatrix) else a for a in args]
    steps = steps_fn(session.rng, *args, **kwargs)
    (share,) = run_stage(session, round_no, [(peer, [(0, 0)])], [steps])
    return RingMatrix.wrap(share)
