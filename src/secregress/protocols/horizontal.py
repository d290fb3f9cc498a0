"""Training over row-partitioned data.

Each party holds a slice of the samples with the full feature set. Per
iteration one owner party secret-shares a batch of its rows; prediction and
gradient then assemble from local share products plus a secure product
between every batch-share holder and each of the two aggregate holders
(truncated quantities live on parties 0 and 1, see base), and the weight
shares take the same SGD step everywhere. The final weight vector is
reconstructed by everyone. A party may hold zero rows: it never serves as
owner but still carries shares, so a two-party run where one side owns all
the data reproduces the single-machine trajectory.
"""

from __future__ import annotations

import time

import numpy as np

from ..data import check_binary_labels
from ..errors import DimensionMismatch, EmptyInput, PolicyMismatch
from ..ring import RingMatrix
from ..transport import KIND_SHARE_DIST, KIND_Y_SHARE
from .base import TrainResult, _EngineBase
from .config import ScheduleDigest, iter_horizontal_schedule


class HorizontalEngine(_EngineBase):
    layout = "horizontal"

    def run(self, features, labels) -> TrainResult:
        """features: this party's rows (m_local x d, a 2-d array or nested
        sequence, m_local may be 0); labels: their m_local labels."""
        m_local = len(features)
        if len(labels) != m_local:
            raise DimensionMismatch(
                f"{m_local} feature rows but {len(labels)} labels")
        d_local = len(features[0]) if m_local else 0
        if m_local and d_local == 0:
            raise EmptyInput("feature rows are empty")
        if self.task == "logistic" and m_local:
            check_binary_labels(labels)

        rows = self._policy_exchange([m_local, d_local])
        m_list = [row[0] for row in rows]
        widths = {row[1] for row in rows if row[1]}
        if len(widths) != 1:
            raise PolicyMismatch(
                f"parties disagree on feature width: {sorted(widths)}")
        d = widths.pop()
        predict, gradient = self._stages([d] * self.n)

        schedule = iter_horizontal_schedule(self.cfg, m_list)
        digest = ScheduleDigest()
        x_enc = RingMatrix.encode_rows(features).arr if m_local else None
        y_enc = (RingMatrix.encode_rows(np.reshape(labels, (-1, 1))).arr
                 if m_local else None)
        w_2f = np.zeros((d, 1), dtype=np.uint64)
        iter_seconds = []
        for owner, rows, global_rows in schedule:
            digest.add(global_rows)
            t0 = time.perf_counter()
            # w_2f only ever changes on parties 0 and 1, so the cheap path
            w_f = self._shift(w_2f, narrow=True)
            batch = None
            if self.me == owner:
                batch = (x_enc[rows], y_enc[rows])
            my_x, my_y = self._share_out(
                owner, (KIND_SHARE_DIST, KIND_Y_SHARE), batch)
            (p_2f,) = self._run_stage(predict, [(my_x, w_f)])
            err_f = self._shift(self._error_2f(p_2f, my_y))
            (g_2f,) = self._run_stage(
                gradient, [(np.ascontiguousarray(my_x.T), err_f)])
            w_2f = self._update(w_2f, g_2f)
            iter_seconds.append(time.perf_counter() - t0)

        w_full = self._open(self._shift(w_2f, narrow=True), range(self.n))
        return self._result(w_full, None, digest.hexdigest(), iter_seconds)
