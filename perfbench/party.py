"""One TCP party of a benchmark run, as its own process.

    python3 perfbench/party.py --spec SPEC --party I --timeout S \
        --probe-out FILE [--trace]

Puts the checkout's src/ on the import path (the package need not be
installed), installs the run probe and, with --trace, the full trace, then
hands over to ``secregress.cli.main(["train", "--spec", ..., "--party",
I])``. On success it writes its run records, spans, peak RSS and the ring's
multiplication count to FILE; its exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--spec", required=True)
    p.add_argument("--party", type=int, required=True)
    p.add_argument("--timeout", type=float, required=True)
    p.add_argument("--probe-out", required=True)
    p.add_argument("--trace", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    from secregress import cli
    import tracer

    rec = tracer.Recorder(party_cpu=time.process_time)
    rec.install(full=args.trace)
    ready = time.monotonic()
    rc = cli.main(["train", "--spec", args.spec, "--party", str(args.party),
                   "--timeout", str(args.timeout)])
    rec.uninstall()
    if rc != 0:
        return rc
    runs, spans = rec.take()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(args.probe_out, "w") as fh:
        json.dump({
            "party": args.party,
            "ready": ready,
            "runs": runs,
            "spans": spans,
            "max_rss_kib": usage.ru_maxrss,
            "mul_ops": tracer.mul_ops(),
        }, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
