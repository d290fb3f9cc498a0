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

from ..data import check_binary_labels
from ..errors import DimensionMismatch, EmptyInput, PolicyMismatch
from ..ring import RingMatrix, transpose
from ..sharing import share_matrix
from ..transport import KIND_SHARE_DIST, KIND_Y_SHARE
from .base import TrainResult, _EngineBase, _IterTimer
from .config import TrainingConfig, horizontal_schedule, schedule_digest


class HorizontalEngine(_EngineBase):
    def __init__(self, session, config: TrainingConfig, task: str = "linear",
                 pool=None, round_base: int = 0):
        super().__init__(session, config, task, "horizontal", pool,
                         round_base)

    def run(self, features: list[list[float]],
            labels: list[float]) -> TrainResult:
        m_local = len(features)
        if len(labels) != m_local:
            raise DimensionMismatch(
                f"{m_local} feature rows but {len(labels)} labels")
        d_local = len(features[0]) if m_local else 0
        if m_local and d_local == 0:
            raise EmptyInput("feature rows are empty")
        if self.task == "logistic" and m_local:
            check_binary_labels(labels)

        hash_word = self.cfg.hash_word(self.task, self.layout, self.n)
        rows = self._policy_exchange([m_local, d_local, hash_word])
        for pid, row in enumerate(rows):
            if row[2] != hash_word:
                raise PolicyMismatch(
                    f"party {pid} was launched with a different config")
        m_list = [row[0] for row in rows]
        widths = {row[1] for row in rows if row[1]}
        if len(widths) != 1:
            raise PolicyMismatch(
                f"parties disagree on feature width: {sorted(widths)}")
        d = widths.pop()

        owners, local_rows, global_rows = horizontal_schedule(
            self.cfg, m_list)
        x_enc = RingMatrix.encode_rows(features) if m_local else None
        y_enc = RingMatrix.column(labels) if m_local else None

        b = self.cfg.batch_size
        w_2f = RingMatrix.zeros(d, 1)
        timer = _IterTimer()
        for t in range(self.cfg.iterations):
            timer.start()
            # w_2f only ever changes on parties 0 and 1, so the cheap path
            w_f = self._shift(w_2f, narrow=True)
            owner = owners[t]
            r_x = self._next_round()
            r_y = self._next_round()
            if self.me == owner:
                xb = RingMatrix.wrap(x_enc.arr[local_rows[t]])
                yb = RingMatrix.wrap(y_enc.arr[local_rows[t]])
                x_shares = share_matrix(xb, self.n, self.s.rng)
                y_shares = share_matrix(yb, self.n, self.s.rng)
                for p in range(self.n):
                    if p != self.me:
                        self.s.send_many(p, [
                            (KIND_SHARE_DIST, x_shares[p], r_x),
                            (KIND_Y_SHARE, y_shares[p], r_y)])
                my_x, my_y = x_shares[self.me], y_shares[self.me]
            else:
                my_x = self.s.recv(owner, KIND_SHARE_DIST, r_x)
                my_y = self.s.recv(owner, KIND_Y_SHARE, r_y)

            # z = X_B w, assembled at 2f bits; w shares sit on parties 0,1
            (p_2f,) = self._shared_products(
                (range(self.n), my_x, (0, 1), w_f, (b, d, 1)))

            err_f = self._shift(self._error_2f(p_2f, my_y))

            # grad = X_B^T err, err shares again on parties 0,1
            (g_2f,) = self._shared_products(
                (range(self.n), transpose(my_x), (0, 1), err_f, (d, b, 1)))

            w_2f = self._update(w_2f, g_2f)
            timer.stop()

        w_full = self._reveal_all(self._shift(w_2f, narrow=True))
        return self._result(w_full, None, global_rows, owners,
                            schedule_digest(global_rows), timer.samples)
