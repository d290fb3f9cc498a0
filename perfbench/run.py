"""Benchmark of secure training through secregress's public entry points.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of ``workloads.WORKLOADS`` or ``all`` (each workload in turn, in
its own process). One run repeats the workload (set-up, training over every
fold, correctness check) until S seconds are used, at least MIN_REPS times,
and reports trimmed means over the repetitions (see trimmed_mean). Every
repetition is checked (see check.py); one that crashes, times out or fails
the check counts as failed. All parties of a repetition share one CPU (see
run_workload).

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones (END_TO_END). With --trace 1 repetitions alternate between
untraced and traced; the traced ones give the per-layer metrics
(PER_LAYER) and ``trace.overhead``, traced over untraced ``train_s``.
Lines before it give the same figures with units, their quartiles, the
failure ratio and the machine context. Scratch files, a JSON record of
each run and the raw spans of the last traced repetition go to
.perfbench-work/ in the checkout.

Add --smoke to run each workload at a tiny size (the benchmark's own tests
do).
"""

from __future__ import annotations

import argparse
import gc
import gzip
import json
import os
import platform
import resource
import shutil
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import fmean, median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

MIN_REPS = 3
# Deadline of one repetition: transport timeouts, child processes, joins.
REP_TIMEOUT = 45.0

END_TO_END = {
    "train_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "bytes_per_iter": "B",
    "frames_per_iter": "count",
}

PER_LAYER = {
    "rng.words": "count", "rng.children": "count", "rng.busy_s": "s",
    "ring.mul_ops": "count",
    "ring.matmul_calls": "count", "ring.matmul_busy_s": "s",
    "ring.elementwise_calls": "count", "ring.elementwise_busy_s": "s",
    "ring.serde_busy_s": "s", "ring.encode_busy_s": "s",
    "sharing.calls": "count", "sharing.busy_s": "s",
    "transport.frames": "count", "transport.bytes": "B",
    "transport.send_busy_s": "s", "transport.recv_busy_s": "s",
    "transport.recv_wait_s": "s", "transport.transcript_busy_s": "s",
    "transport.connect_s": "s",
    "smm.smm1_calls": "count", "smm.smm2_calls": "count",
    "smm.elem_calls": "count", "smm.self_busy_s": "s",
    "smm.triples": "count", "smm.triple_busy_s": "s",
    "protocols.iter_ms_p50": "ms", "protocols.iter_ms_p95": "ms",
    "protocols.iter_samples": "count", "protocols.self_busy_s": "s",
    "protocols.idle_share": "ratio",
    "data.load_s": "s", "baseline.replay_s": "s", "cli.spawn_s": "s",
    "cli.check_s": "s",
    "trace.overhead": "ratio",
}


class RepFailed(Exception):
    """A repetition crashed, timed out or left no usable output."""


# -- machine context ----------------------------------------------------------


def _cpu_ticks() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def machine_context() -> dict:
    import numpy
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "cpu_ticks": _cpu_ticks(),
    }


def steal_share(before, after) -> float | None:
    """Share of all CPU time the hypervisor stole between two /proc/stat
    reads (fields: user nice system idle iowait irq softirq steal ...)."""
    if not before or not after:
        return None
    d = [b - a for a, b in zip(before[:8], after[:8])]
    return d[7] / sum(d) if sum(d) else 0.0


# -- one repetition -----------------------------------------------------------


def _free_ports(n: int) -> list[int]:
    socks = []
    try:
        for _ in range(n):
            s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            s.bind(("127.0.0.1", 0))
            socks.append(s)
        return [s.getsockname()[1] for s in socks]
    finally:
        for s in socks:
            s.close()


def _kill(procs) -> None:
    for p in procs:
        if p.poll() is None:
            p.kill()


def _stop(procs) -> None:
    """Kill every child still running and reap all of them."""
    _kill(procs)
    for p in procs:
        p.wait(timeout=10)
    alive = [p.pid for p in procs if p.poll() is None]
    if alive:
        raise RuntimeError(f"party processes {alive} survived kill")


def run_tcp_parties(raw: dict, n: int, rep_dir: Path, traced: bool):
    """Launch one benchmark party process per party over localhost TCP.
    Returns (manifests, probes) in party order."""
    raw = dict(raw, roster=[f"127.0.0.1:{p}" for p in _free_ports(n)],
               output=str(rep_dir / "out"))
    spec_path = rep_dir / "spec.json"
    spec_path.write_text(json.dumps(raw))
    procs, logs = [], []
    try:
        for i in range(n):
            log = open(rep_dir / f"party{i}.log", "w")
            logs.append(log)
            cmd = [sys.executable, str(HERE / "party.py"),
                   "--spec", str(spec_path), "--party", str(i),
                   "--timeout", str(REP_TIMEOUT),
                   "--probe-out", str(rep_dir / f"probe{i}.json")]
            if traced:
                cmd.append("--trace")
            procs.append(subprocess.Popen(cmd, stdout=log,
                                          stderr=subprocess.STDOUT,
                                          cwd=ROOT))
        # A watchdog kills the parties at the deadline, so the waits below
        # block without polling: a polling parent would compete with the
        # parties for the CPUs of a latency-bound run. A party that fails
        # closes its sockets, and its peers then fail at once.
        watchdog = threading.Timer(REP_TIMEOUT, _kill, (procs,))
        watchdog.start()
        try:
            for p in procs:
                p.wait()
        finally:
            watchdog.cancel()
        bad = [i for i, p in enumerate(procs) if p.returncode != 0]
        if bad:
            raise RepFailed(f"party {bad[0]} exited {procs[bad[0]].returncode}"
                            f" (killed at {REP_TIMEOUT:.0f}s if negative)")
    finally:
        _stop(procs)
        for log in logs:
            log.close()
    manifests, probes = [], []
    for i in range(n):
        try:
            manifests.append(json.loads(
                (rep_dir / "out" / f"party{i}" / "manifest.json").read_text()))
            probes.append(json.loads((rep_dir / f"probe{i}.json").read_text()))
        except OSError as e:
            raise RepFailed(f"party {i} left no output: {e}") from None
    return manifests, probes


def _fingerprint(manifests: list[dict]) -> list:
    return [(m["run_model_hash"],
             [(f["transcript_sha256"], f["bytes_sent"], f["frames_sent"])
              for f in m["folds"]]) for m in manifests]


class Bench:
    def __init__(self, workload, seed: int, smoke: bool):
        from secregress.cli import RunSpec, load_dataset

        self.workload = workload
        self.raw = workload.spec(seed, smoke)
        self.spec = RunSpec.from_dict(self.raw)
        # loaded before any wrapper exists, so the check's own data load
        # never shows in the trace
        self.X, self.y, _ = load_dataset(self.spec)
        self.dir = WORK / f"{workload.name}-seed{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.replay_weights = None
        self.replay_s = None
        self.first = None
        self.max_weight_gap = 0.0
        self.last_spans = None

    def rep(self, index: int, traced: bool, recorder) -> dict:
        """Run one repetition; return its figures or raise RepFailed."""
        import tracer
        from secregress.cli import spawn_parties

        spec = self.spec
        rep_dir = self.dir / f"rep{index}"
        rep_dir.mkdir()
        recorder.install(full=traced)
        t0 = time.monotonic()
        mul0 = tracer.mul_ops()
        try:
            if self.workload.mode == "threads":
                manifests, _timings = spawn_parties(spec, "threads",
                                                    REP_TIMEOUT)
                runs, spans = recorder.take()
                rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                processes = [spans]
                mul_ops = tracer.mul_ops() - mul0
                spawned = None
            else:
                manifests, probes = run_tcp_parties(self.raw, spec.parties,
                                                    rep_dir, traced)
                runs = [r for p in probes for r in p["runs"]]
                rss_kib = max(p["max_rss_kib"] for p in probes)
                processes = [[tuple(s) for s in p["spans"]] for p in probes]
                mul_ops = sum(p["mul_ops"] for p in probes)
                spawned = max(p["ready"] for p in probes) - t0
        except RepFailed:
            raise
        except Exception as e:  # noqa: BLE001 - any crash fails the rep
            raise RepFailed(f"{type(e).__name__}: {e}") from e
        finally:
            recorder.uninstall()
            recorder.take()

        c0 = time.monotonic()
        try:
            problems = self.check(manifests, runs)
        except Exception as e:  # noqa: BLE001 - malformed output fails too
            raise RepFailed(f"check: {type(e).__name__}: {e}") from e
        check_s = time.monotonic() - c0
        if problems:
            raise RepFailed("; ".join(problems))
        shutil.rmtree(rep_dir)

        starts = {}
        for r in runs:
            starts[r["party"]] = min(starts.get(r["party"], r["start"]),
                                     r["start"])
        first = min(r["start"] for r in runs)
        train_s = max(r["end"] for r in runs) - first
        cpu_s = sum(r["cpu"] for r in runs)
        iters = spec.folds * spec.config.iterations
        out = {
            "traced": traced,
            "train_s": train_s,
            "setup_s": max(starts.values()) - t0,
            "cpu_s": cpu_s,
            "peak_rss_mb": rss_kib * 1024 / 1e6,
            "bytes_per_iter": sum(f["bytes_sent"] for m in manifests
                                  for f in m["folds"]) / iters,
            "frames_per_iter": sum(f["frames_sent"] for m in manifests
                                   for f in m["folds"]) / iters,
            "check_s": check_s,
        }
        if traced:
            out["layers"] = self.layers(runs, processes, mul_ops, t0,
                                        spawned, train_s, cpu_s)
            # only the latest traced repetition's spans are kept and
            # written out; the others live on as their summaries
            self.last_spans = processes
        return out

    def check(self, manifests, runs) -> list[str]:
        from check import check_run, fold_seeds, replay

        spec = self.spec
        if len(runs) != spec.parties * spec.folds:
            return [f"{len(runs)} engine runs returned, "
                    f"{spec.parties * spec.folds} expected"]
        if self.replay_weights is None:
            # the replay is deterministic: computed once per run
            r0 = time.monotonic()
            self.replay_weights = replay(spec, self.X, self.y,
                                         fold_seeds(manifests))
            self.replay_s = time.monotonic() - r0
        problems, gap = check_run(spec, manifests, self.X, self.y,
                                  self.replay_weights)
        self.max_weight_gap = max(self.max_weight_gap, gap)
        fp = _fingerprint(manifests)
        if self.first is None:
            self.first = fp
        elif fp != self.first:
            problems.append("manifests differ from the first repetition "
                            "of the same seed")
        return problems

    def layers(self, runs, processes, mul_ops, t0, spawned, train_s,
               cpu_s) -> dict:
        import tracer

        out = tracer.merge([tracer.summarize(s) for s in processes])
        out["ring.mul_ops"] = mul_ops
        samples = [s for r in runs for s in r["iter_seconds"]]
        q = quantiles(samples, n=100) if len(samples) > 1 else (
            samples * 99)
        out["protocols.iter_ms_p50"] = q[49] * 1e3
        out["protocols.iter_ms_p95"] = q[94] * 1e3
        out["protocols.iter_samples"] = len(samples)
        # all parties share one CPU (see run_workload)
        out["protocols.idle_share"] = 1 - cpu_s / train_s
        if spawned is None:
            # threads: session creation, thread start and input slicing
            load_end = max((s[2] for s in processes[0]
                            if s[0] == "data.load"), default=t0)
            spawned = max(min(r["start"] for r in runs if r["party"] == p)
                          for p in range(self.spec.parties)) - load_end
        out["cli.spawn_s"] = spawned
        return out


# -- one run ------------------------------------------------------------------


def trimmed_mean(values):
    """Mean of the values without the lowest and the highest tenth.

    On a shared VM the CPU can run in phases of different speed, each
    lasting tens of seconds (1.5x apart on a 2-vCPU test VM), so a run's
    repetitions fall into groups whose shares change from run to run. A
    median jumps from one group to the other; a mean weighs each by the
    time spent in it. The trim keeps one stalled repetition from moving
    the figure."""
    s = sorted(values)
    k = len(s) // 10
    return fmean(s[k:len(s) - k])


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = quantiles(values, n=4)
    return q[0], q[2]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> int:
    import tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    # Every party of a repetition shares one CPU: this thread, the party
    # threads and the party processes it starts all inherit the mask. Thread
    # parties can use only one core anyway (one interpreter lock). On a
    # small VM with CPU steal, work that hops between CPUs waits for a CPU
    # to wake up at every lock handoff and every frame; on two steal-heavy
    # CPUs that made train_s swing two- to threefold between runs, on one it
    # stayed within a few percent. Parallelism between TCP parties is
    # therefore not measured. Successive pairs of repetitions take the CPUs
    # in turn, so that a run averages over the speed phases of each.
    cpus = sorted(os.sched_getaffinity(0))
    before = machine_context()
    bench = Bench(workload, seed, smoke)
    recorder = tracer.Recorder(time.thread_time)
    reps, failures, durations = [], [], []
    start = time.monotonic()
    index = 0
    while True:
        elapsed = time.monotonic() - start
        if elapsed > seconds + REP_TIMEOUT:
            break
        if (index >= MIN_REPS and durations
                and elapsed + median(durations) > seconds):
            break
        traced = trace and index % 2 == 1
        # pairs, so that a traced repetition runs on its untraced one's CPU
        cpu = cpus[index // 2 % len(cpus)]
        os.sched_setaffinity(0, {cpu})
        # start every repetition from a collected heap, so that no
        # collection of the previous one's garbage lands in its set-up
        gc.collect()
        r0 = time.monotonic()
        try:
            reps.append(dict(bench.rep(index, traced, recorder), cpu=cpu))
        except RepFailed as e:
            failures.append(f"rep {index}: {e}")
        durations.append(time.monotonic() - r0)
        index += 1
    after = machine_context()

    attempted = index
    context = {k: before[k] for k in ("nproc", "python", "numpy")}
    context["cpus"] = cpus
    context.update(loadavg_before=before["loadavg"],
                   loadavg_after=after["loadavg"],
                   steal_share=steal_share(before["cpu_ticks"],
                                           after["cpu_ticks"]))
    spec = bench.spec
    print(f"workload {name} seed {seed} trace {int(trace)}: "
          f"{spec.model_name()}, {spec.parties} parties as "
          f"{workload.mode}, m={spec.dataset['m']} d={spec.dataset['d']} "
          f"B={spec.config.batch_size} T={spec.config.iterations} "
          f"folds={spec.folds}")
    print("context: " + json.dumps(context))
    for f in failures:
        print("FAILED " + f)
    print(f"attempted {attempted}  failed {len(failures)}  "
          f"failed_ratio {len(failures) / attempted:.4f} ratio")

    metrics = {}
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    if trace and traced_reps and plain:
        figures = {k: median([r["layers"][k] for r in traced_reps])
                   for k in traced_reps[0]["layers"]}
        figures["baseline.replay_s"] = bench.replay_s
        figures["cli.check_s"] = median([r["check_s"] for r in reps])
        traced_train = trimmed_mean([r["train_s"] for r in traced_reps])
        plain_train = trimmed_mean([r["train_s"] for r in plain])
        figures["trace.overhead"] = traced_train / plain_train
        for k, unit in PER_LAYER.items():
            metrics[k] = {"value": figures[k], "unit": unit}
            print(f"  {k:<30} {figures[k]:>14.6g} {unit}")
        print(f"tracing overhead: traced train_s {traced_train:.4f} s "
              f"against untraced {plain_train:.4f} s "
              f"({len(traced_reps)} and {len(plain)} repetitions)")
        spans_file = WORK / f"{name}-seed{seed}-spans.jsonl.gz"
        with gzip.open(spans_file, "wt") as fh:
            for p, spans in enumerate(bench.last_spans):
                for s in spans:
                    fh.write(json.dumps([p, *s]) + "\n")
    elif not trace and plain:
        for k, unit in END_TO_END.items():
            values = [r[k] for r in plain]
            q1, q3 = _quartiles(values)
            metrics[k] = {"value": trimmed_mean(values), "unit": unit}
            print(f"  {k:<16} {metrics[k]['value']:>12.6g} {unit:<5} "
                  f"(trimmed mean of {len(values)}; median "
                  f"{median(values):.6g}; q1 {q1:.6g} q3 {q3:.6g})")
    print(f"max |w - w_replay| over checked repetitions: "
          f"{bench.max_weight_gap:.3g}")
    if not failures:
        shutil.rmtree(bench.dir, ignore_errors=True)
    result = {"correct": not failures, "attempted": attempted,
              "failed": len(failures), "metrics": metrics}
    (WORK / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, context=context,
                        max_weight_gap=bench.max_weight_gap,
                        reps=reps,
                        failures=failures), indent=1))
    print(json.dumps(result))
    return 0 if metrics else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=60.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny sizes that exercise the full path quickly")
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "secregress" / "__init__.py").is_file():
        print(f"error: no secregress sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    from workloads import DEFAULT_SEED, WORKLOADS

    seed = DEFAULT_SEED if args.seed is None else args.seed
    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            cmd = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            if args.smoke:
                cmd.append("--smoke")
            status |= subprocess.run(cmd, cwd=ROOT).returncode
        return status
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    return run_workload(args.workload, seed, args.seconds, bool(args.trace),
                        args.smoke)


if __name__ == "__main__":
    raise SystemExit(main())
