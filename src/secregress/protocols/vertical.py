"""Training over column-partitioned data.

Each party holds a feature block for the same aligned samples; one
configured party holds the labels. Sample alignment is assumed done
upstream (a deployment would run a private set intersection first). The
weight block for party i's features lives as shares spread over all
parties. Per iteration everyone slices the publicly scheduled batch from
its own block, the label holder shares the batch labels, predictions
assemble from X^i x <w_i> products (local when the share sits with the
block owner, a pairwise secure product otherwise), gradients from
err^T x X^i products, and every share is stepped locally. At the end each
party reconstructs only its own block, so nobody learns the weights on
features it does not hold.
"""

from __future__ import annotations

import time

import numpy as np

from ..data import check_binary_labels, iter_batch_schedule
from ..errors import (
    BatchTooLarge,
    DimensionMismatch,
    EmptyInput,
    PolicyMismatch,
    SampleCountMismatch,
)
from ..ring import RingMatrix
from ..sharing import zero_shares
from ..transport import KIND_W_SHARE, KIND_Y_SHARE
from .base import TrainResult, _EngineBase
from .config import ScheduleDigest


class VerticalEngine(_EngineBase):
    layout = "vertical"

    def run(self, features, labels=None) -> TrainResult:
        """features: this party's column block (m x d_i, a 2-d array or
        nested sequence); labels: all m labels on the label party, None
        elsewhere."""
        m = len(features)
        if m == 0:
            raise EmptyInput("no rows")
        d_local = len(features[0])
        if d_local == 0:
            raise EmptyInput("feature block is empty")
        holder = self.cfg.label_party
        if not 0 <= holder < self.n:
            raise PolicyMismatch(
                f"label_party {holder} out of range for {self.n} parties")
        if (labels is not None) != (self.me == holder):
            raise ValueError(
                "labels must be supplied by exactly the configured "
                f"label party (party {holder})")
        if labels is not None:
            if len(labels) != m:
                raise DimensionMismatch(
                    f"{m} feature rows but {len(labels)} labels")
            if self.task == "logistic":
                check_binary_labels(labels)

        rows = self._policy_exchange([m, d_local, int(self.me == holder)])
        for pid, row in enumerate(rows):
            if row[0] != m:
                raise SampleCountMismatch(
                    f"party {pid} holds {row[0]} rows, this party {m}")
            if row[2] != int(pid == holder):
                raise PolicyMismatch(
                    f"party {pid} disagrees about the label holder")
            if row[1] == 0:
                raise PolicyMismatch(f"party {pid} reports an empty block")
        d_list = [row[1] for row in rows]
        predict, gradient = self._stages(d_list)
        b = self.cfg.batch_size
        if b > m:
            raise BatchTooLarge(f"batch {b} exceeds {m} samples")

        schedule = iter_batch_schedule(
            m, b, self.cfg.iterations, self.cfg.seed)
        digest = ScheduleDigest()
        x_enc = RingMatrix.encode_rows(features).arr
        y_enc = (None if labels is None else
                 RingMatrix.encode_rows(np.reshape(labels, (-1, 1))).arr)

        # Every party splits its (zero) weight block over all parties.
        mine = zero_shares(d_local, 1, self.n, self.s.rng)
        w_2f = self._exchange(KIND_W_SHARE, dict(enumerate(mine)), self._peers,
                              [(d_list[p], 1) for p in self._peers])
        w_2f.insert(self.me, mine[self.me])

        iter_seconds = []
        for batch in schedule:
            digest.add(batch)
            t0 = time.perf_counter()
            w_f = [self._shift(w) for w in w_2f]
            xb = x_enc[batch]
            (my_y,) = self._share_out(
                holder, (KIND_Y_SHARE,),
                None if y_enc is None else (y_enc[batch],))
            p_2f, *parts = self._run_stage(
                predict, [(xb, w) for w in w_f])
            for part in parts:
                p_2f = p_2f + part
            err_t = self._shift(self._error_2f(p_2f, my_y)).T
            grads = self._run_stage(gradient, [(err_t, xb)] * self.n)
            w_2f = [self._update(w, g.T) for w, g in zip(w_2f, grads)]
            iter_seconds.append(time.perf_counter() - t0)

        # Each block's shares converge on the block's owner.
        w_f = [self._shift(w) for w in w_2f]
        my_block = [self._open(w_f[i], (i,)) for i in range(self.n)][self.me]

        return self._result(my_block, d_list, digest.hexdigest(),
                            iter_seconds)
