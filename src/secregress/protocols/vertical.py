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

from ..data import build_batch_schedule, check_binary_labels
from ..errors import (
    BatchTooLarge,
    DimensionMismatch,
    EmptyInput,
    PolicyMismatch,
    SampleCountMismatch,
)
from ..ring import RingMatrix, mat_add, transpose
from ..sharing import zero_shares
from ..transport import KIND_W_SHARE, KIND_Y_SHARE
from .base import TrainResult, _EngineBase
from .config import schedule_digest


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
        self._deal(d_list)
        b = self.cfg.batch_size
        if b > m:
            raise BatchTooLarge(f"batch {b} exceeds {m} samples")

        schedule = build_batch_schedule(
            m, b, self.cfg.iterations, self.cfg.seed)
        x_enc = RingMatrix.encode_rows(features)
        y_enc = RingMatrix.column(labels) if labels is not None else None

        # Every party splits its (zero) weight block over all parties.
        r0 = self._next_round()
        mine = zero_shares(d_local, 1, self.n, self.s.rng)
        for p in range(self.n):
            if p != self.me:
                self.s.send(p, KIND_W_SHARE, mine[p], r0)
        w_2f: dict[int, RingMatrix] = {}
        for i in range(self.n):
            if i == self.me:
                w_2f[i] = mine[self.me]
                continue
            got = self.s.recv(i, KIND_W_SHARE, r0)
            if (got.rows, got.cols) != (d_list[i], 1):
                raise DimensionMismatch(
                    f"party {i} shared a {got.rows}x{got.cols} weight "
                    f"block, expected {d_list[i]}x1")
            w_2f[i] = got

        iter_seconds = []
        for batch in schedule:
            t0 = time.perf_counter()
            w_f = {i: self._shift(w_2f[i]) for i in range(self.n)}
            xb = RingMatrix.wrap(x_enc.arr[batch])
            yb = None if y_enc is None else [RingMatrix.wrap(y_enc.arr[batch])]
            (my_y,) = self._share_out(holder, (KIND_Y_SHARE,), yb)

            # z = sum_i X^i w_i at 2f bits; truncated w shares sit on
            # parties 0 and 1, so those are the only counterparts.
            p_2f, *parts = self._shared_products(
                *[((i,), xb, (0, 1), w_f[i], (b, d_list[i], 1))
                  for i in range(self.n)])
            for part in parts:
                p_2f = mat_add(p_2f, part)

            err_f = self._shift(self._error_2f(p_2f, my_y))
            err_t = transpose(err_f)

            # grad_i = (X^i)^T err, computed as (err^T X^i)^T with err
            # shares again on parties 0,1. err stays the left operand, so
            # the OTI leak keeps its orientation: adjacent sums of err go
            # to the block owner, adjacent row differences of X^i to the
            # err holders. Every block's products run in one stage, before
            # any block's update.
            grads = self._shared_products(
                *[((0, 1), err_t, (i,), xb, (1, b, d_list[i]))
                  for i in range(self.n)])
            for i, g_t in enumerate(grads):
                w_2f[i] = self._update(w_2f[i], transpose(g_t))
            iter_seconds.append(time.perf_counter() - t0)

        # Each block's shares converge on the block's owner.
        w_f = {i: self._shift(w_2f[i]) for i in range(self.n)}
        my_block = None
        for i in range(self.n):
            r = self._next_round()
            if self.me == i:
                total = w_f[i]
                for j in range(self.n):
                    if j != self.me:
                        total = mat_add(total, self.s.recv(j, KIND_W_SHARE, r))
                my_block = total
            else:
                self.s.send(i, KIND_W_SHARE, w_f[i], r)

        return self._result(my_block, d_list, None,
                            schedule_digest(schedule), iter_seconds)
