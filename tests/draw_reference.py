"""Word-by-word reference versions of the schedule and dataset draws.

These are the loops that CounterDrbg.sample, CounterDrbg.shuffle and
data._uniform_grid replace with one array draw; the tests hold the fast
versions to the same values and the same stream position.
"""

import numpy as np

from secregress.ring import FRAC_BITS


def sample(rng, m, k):
    if k > m:
        raise ValueError("sample size exceeds population")
    swapped = {}
    out = []
    for i in range(k):
        j = i + rng.randrange(m - i)
        out.append(swapped.get(j, j))
        swapped[j] = swapped.get(i, i)
    return out


def shuffle(rng, items):
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.randrange(i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def uniform_grid(rng, shape, lo, hi):
    n = int(np.prod(shape))
    scale = 1 << FRAC_BITS
    steps = int(round((hi - lo) * scale))
    base = int(round(lo * scale))
    vals = [(base + rng.randrange(steps + 1)) / scale for _ in range(n)]
    return np.array(vals, dtype=np.float64).reshape(shape)
