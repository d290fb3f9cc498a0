"""Spans around calls into secregress's public functions and methods.

The benchmark observes the program from outside: it replaces functions and
methods with timing wrappers and leaves every file under src/ alone.

Two levels:

* The run probe wraps only the engines' ``run`` methods. It is installed in
  every run, traced or not, and yields the training window, the parties'
  CPU time and the per-iteration samples of each fold.
* The full trace adds one wrapper per layer boundary (``TARGETS``). It is
  installed only in traced repetitions, whose numbers never feed the
  end-to-end metrics.

Wall times come from ``time.monotonic`` (CLOCK_MONOTONIC, shared by every
process on the machine), so spans recorded in party processes line up with
the parent's. Span CPU is the calling thread's (``time.thread_time``): in
threads mode the parties share one interpreter lock, so a wall span also
holds the peers' work and only CPU time says what a layer itself cost.

Spans stay in memory; ``summarize`` turns them into per-layer figures and
the caller writes the raw spans out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time

RUN_KEY = "protocols.run"

# (module, function or Class.method, span key). Modules import functions by
# name (``from ..ring import mat_mul_raw``), so a module-level function is
# replaced in every secregress module that holds it; a method is replaced
# once on its class. A target the program no longer has is skipped and its
# metrics read 0.
TARGETS = (
    ("secregress.rng", "CounterDrbg.u64_list", "rng.draw"),
    ("secregress.rng", "CounterDrbg.child", "rng.child"),
    ("secregress.ring", "mat_mul_raw", "ring.matmul"),
    ("secregress.ring", "mat_add", "ring.elementwise"),
    ("secregress.ring", "mat_sub", "ring.elementwise"),
    ("secregress.ring", "mat_neg", "ring.elementwise"),
    ("secregress.ring", "mat_hadamard", "ring.elementwise"),
    ("secregress.ring", "mat_mul_scalar", "ring.elementwise"),
    ("secregress.ring", "shift_right", "ring.elementwise"),
    ("secregress.ring", "shift_left", "ring.elementwise"),
    ("secregress.ring", "add_const", "ring.elementwise"),
    ("secregress.ring", "truncate", "ring.elementwise"),
    ("secregress.ring", "transpose", "ring.elementwise"),
    ("secregress.ring", "RingMatrix.to_bytes", "ring.serde"),
    ("secregress.ring", "RingMatrix.from_bytes", "ring.serde"),
    ("secregress.ring", "RingMatrix.encode_rows", "ring.encode"),
    ("secregress.ring", "RingMatrix.decode_rows", "ring.encode"),
    ("secregress.ring", "RingMatrix.column", "ring.encode"),
    ("secregress.sharing", "share_matrix", "sharing"),
    ("secregress.sharing", "zero_shares", "sharing"),
    ("secregress.sharing", "reconstruct", "sharing"),
    ("secregress.sharing", "share_raw", "sharing"),
    ("secregress.transport", "ProtocolSession.send", "transport.send"),
    ("secregress.transport", "ProtocolSession.recv", "transport.recv"),
    ("secregress.transport", "Transcript.append", "transport.transcript"),
    ("secregress.transport", "TcpSession.__init__", "transport.connect"),
    ("secregress.transport", "loopback_sessions", "transport.connect"),
    ("secregress.smm", "smm1_x", "smm.smm1"),
    ("secregress.smm", "smm1_y", "smm.smm1"),
    ("secregress.smm", "smm2_x", "smm.smm2"),
    ("secregress.smm", "smm2_y", "smm.smm2"),
    ("secregress.smm", "smm1_elem_x", "smm.elem"),
    ("secregress.smm", "smm1_elem_y", "smm.elem"),
    ("secregress.smm", "smm2_elem_x", "smm.elem"),
    ("secregress.smm", "smm2_elem_y", "smm.elem"),
    ("secregress.smm", "TriplePool.take", "smm.triple"),
    ("secregress.smm", "TriplePool.take_elem", "smm.triple"),
    ("secregress.cli", "load_dataset", "data.load"),
)

RUN_METHODS = (
    ("secregress.protocols.horizontal", "HorizontalEngine.run"),
    ("secregress.protocols.vertical", "VerticalEngine.run"),
)


def _drawn_words(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["n"]


def _bytes_sent(args):
    return args[0].bytes_sent


# How a span measures its amount of work: "size" is read from the call's
# arguments, "delta" is the change of a counter across the call.
SIZES = {"rng.draw": _drawn_words}
DELTAS = {"transport.send": _bytes_sent}


class Recorder:
    """Collects run records and spans for one process.

    party_cpu is the clock that ``cpu_s`` reads around each engine run:
    ``time.thread_time`` when the parties are threads of this process,
    ``time.process_time`` when this process is one party (its TCP reader
    threads work for that party too).
    """

    def __init__(self, party_cpu=time.thread_time):
        self.party_cpu = party_cpu
        self.runs: list[dict] = []
        self.spans: list[tuple] = []
        self.full = False
        self._tls = threading.local()
        self._patches: list[tuple] = []

    # -- installing and removing wrappers --------------------------------

    def install(self, full: bool) -> None:
        if self._patches:
            raise RuntimeError("wrappers are already installed")
        importlib.import_module("secregress.cli")  # loads every layer
        self.full = full
        for module, qualname in RUN_METHODS:
            self._patch(module, qualname, self._wrap_run)
        if full:
            for module, qualname, key in TARGETS:
                self._patch(module, qualname,
                            lambda fn, key=key: self._wrap_span(key, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.full = False

    def _patch(self, module_name: str, qualname: str, make) -> None:
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            raw = vars(cls).get(attr) if cls is not None else None
            if raw is None:
                return
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            setattr(cls, attr, new)
            self._patches.append((cls, attr, raw))
            return
        original = getattr(module, attr, None)
        if original is None:
            return
        new = make(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("secregress"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, new)
                    self._patches.append((mod, name, original))

    # -- wrappers ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _wrap_span(self, key: str, fn):
        rec = self
        size = SIZES.get(key)
        delta = DELTAS.get(key)

        def traced(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1] if stack else None
            in_run = bool(stack) and stack[0][0] == RUN_KEY
            frame = [key, 0.0]
            stack.append(frame)
            amount = size(args, kwargs) if size else 0
            before = delta(args) if delta else 0
            t0 = time.monotonic()
            c0 = time.thread_time()
            try:
                return fn(*args, **kwargs)
            finally:
                cpu = time.thread_time() - c0
                t1 = time.monotonic()
                stack.pop()
                if parent is not None:
                    parent[1] += cpu
                if delta:
                    amount = delta(args) - before
                rec.spans.append((key, t0, t1, cpu, frame[1],
                                  parent[0] if parent else None, in_run,
                                  amount))

        return traced

    def _wrap_run(self, fn):
        rec = self

        def run(engine, *args, **kwargs):
            stack = rec._stack()
            frame = [RUN_KEY, 0.0]
            stack.append(frame)
            t0 = time.monotonic()
            c0 = time.thread_time()
            p0 = rec.party_cpu()
            try:
                result = fn(engine, *args, **kwargs)
            finally:
                party_cpu = rec.party_cpu() - p0
                cpu = time.thread_time() - c0
                t1 = time.monotonic()
                stack.pop()
                if rec.full:
                    rec.spans.append((RUN_KEY, t0, t1, cpu, frame[1], None,
                                      True, 0))
            rec.runs.append({
                "party": engine.me,
                "start": t0,
                "end": t1,
                "cpu": party_cpu,
                "iter_seconds": list(result.iter_seconds),
            })
            return result

        return run

    def take(self) -> tuple[list[dict], list[tuple]]:
        """Hand over what was recorded so far and start afresh."""
        runs, spans = self.runs, self.spans
        self.runs, self.spans = [], []
        return runs, spans


# -- per-layer figures ------------------------------------------------------

# How figures from several party processes combine: work adds up, while
# the data load and the connect of parallel parties overlap, so the
# slowest one is what set-up waits for.
MAX_ACROSS_PARTIES = ("data.load_s", "transport.connect_s")


def summarize(spans: list[tuple]) -> dict:
    """Per-layer figures of one process's spans of one repetition.

    Calls and busy time count a layer's outermost calls only (truncate
    calling shift_right is one elementwise call), and busy time includes
    nested calls into other layers. Self time subtracts every nested
    traced call. Layer figures cover calls made inside an engine run; the
    data load and the connect happen before it.
    """
    out = {name: 0.0 for name in LAYER_FIGURES}
    for key, t0, t1, cpu, child_cpu, parent, in_run, amount in spans:
        if key == "data.load":
            out["data.load_s"] += t1 - t0
            continue
        if key == "transport.connect":
            out["transport.connect_s"] += t1 - t0
            continue
        if key == RUN_KEY:
            out["protocols.self_busy_s"] += cpu - child_cpu
            continue
        if not in_run:
            continue
        if key in ("smm.smm1", "smm.smm2", "smm.elem"):
            out["smm.self_busy_s"] += cpu - child_cpu
        if parent == key:
            continue
        if key == "rng.draw":
            out["rng.words"] += amount
            out["rng.busy_s"] += cpu
        elif key == "rng.child":
            out["rng.children"] += 1
            out["rng.busy_s"] += cpu
        elif key == "ring.matmul":
            out["ring.matmul_calls"] += 1
            out["ring.matmul_busy_s"] += cpu
        elif key == "ring.elementwise":
            out["ring.elementwise_calls"] += 1
            out["ring.elementwise_busy_s"] += cpu
        elif key == "ring.serde":
            out["ring.serde_busy_s"] += cpu
        elif key == "ring.encode":
            out["ring.encode_busy_s"] += cpu
        elif key == "sharing":
            out["sharing.calls"] += 1
            out["sharing.busy_s"] += cpu
        elif key == "transport.send":
            out["transport.frames"] += 1
            out["transport.bytes"] += amount
            out["transport.send_busy_s"] += cpu
        elif key == "transport.recv":
            out["transport.recv_busy_s"] += cpu
            out["transport.recv_wait_s"] += (t1 - t0) - cpu
        elif key == "transport.transcript":
            out["transport.transcript_busy_s"] += cpu
        elif key == "smm.smm1":
            out["smm.smm1_calls"] += 1
        elif key == "smm.smm2":
            out["smm.smm2_calls"] += 1
        elif key == "smm.elem":
            out["smm.elem_calls"] += 1
        elif key == "smm.triple":
            out["smm.triples"] += 1
            out["smm.triple_busy_s"] += cpu
    return out


def mul_ops() -> int:
    """The ring's own multiplication counter, 0 if the program has none."""
    counter = getattr(sys.modules.get("secregress.ring"), "mul_op_count",
                      None)
    return counter() if counter else 0


def merge(summaries: list[dict]) -> dict:
    out = {}
    for name in LAYER_FIGURES:
        values = [s[name] for s in summaries]
        out[name] = max(values) if name in MAX_ACROSS_PARTIES else sum(values)
    return out


LAYER_FIGURES = (
    "rng.words", "rng.children", "rng.busy_s",
    "ring.matmul_calls", "ring.matmul_busy_s",
    "ring.elementwise_calls", "ring.elementwise_busy_s",
    "ring.serde_busy_s", "ring.encode_busy_s",
    "sharing.calls", "sharing.busy_s",
    "transport.frames", "transport.bytes", "transport.send_busy_s",
    "transport.recv_busy_s", "transport.recv_wait_s",
    "transport.transcript_busy_s", "transport.connect_s",
    "smm.smm1_calls", "smm.smm2_calls", "smm.elem_calls",
    "smm.self_busy_s", "smm.triples", "smm.triple_busy_s",
    "protocols.self_busy_s",
    "data.load_s",
)
