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

from ..data import check_binary_labels
from ..errors import DimensionMismatch, EmptyInput, PolicyMismatch
from ..ring import RingMatrix, transpose
from ..transport import KIND_SHARE_DIST, KIND_Y_SHARE
from .base import TrainResult, _EngineBase
from .config import horizontal_schedule, schedule_digest


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
        self._deal([d] * self.n)

        owners, local_rows, global_rows = horizontal_schedule(
            self.cfg, m_list)
        x_enc = RingMatrix.encode_rows(features) if m_local else None
        y_enc = RingMatrix.column(labels) if m_local else None

        b = self.cfg.batch_size
        w_2f = RingMatrix.zeros(d, 1)
        iter_seconds = []
        for t in range(self.cfg.iterations):
            t0 = time.perf_counter()
            # w_2f only ever changes on parties 0 and 1, so the cheap path
            w_f = self._shift(w_2f, narrow=True)
            batch = None
            if self.me == owners[t]:
                batch = [RingMatrix.wrap(enc.arr[local_rows[t]])
                         for enc in (x_enc, y_enc)]
            my_x, my_y = self._share_out(
                owners[t], (KIND_SHARE_DIST, KIND_Y_SHARE), batch)

            # z = X_B w, assembled at 2f bits; w shares sit on parties 0,1
            (p_2f,) = self._shared_products(
                (range(self.n), my_x, (0, 1), w_f, (b, d, 1)))

            err_f = self._shift(self._error_2f(p_2f, my_y))

            # grad = X_B^T err, err shares again on parties 0,1
            (g_2f,) = self._shared_products(
                (range(self.n), transpose(my_x), (0, 1), err_f, (d, b, 1)))

            w_2f = self._update(w_2f, g_2f)
            iter_seconds.append(time.perf_counter() - t0)

        w_full = self._reveal_all(self._shift(w_2f, narrow=True))
        return self._result(w_full, None, owners,
                            schedule_digest(global_rows), iter_seconds)
