"""Run a single secure product on its own, for tests that check one at a time.

The engines only ever run products through smm.run_stage; this is that
call with a one-product stage.
"""

from secregress.smm import run_stage


def run_one(session, peer, round_no, steps_fn, *args, **kwargs):
    """This side's share of one product: steps_fn(session.rng, *args,
    **kwargs) run alone through run_stage against peer, in round_no."""
    steps = steps_fn(session.rng, *args, **kwargs)
    return run_stage(session, [(peer, round_no, steps)])[0]
