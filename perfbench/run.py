"""Run one benchmark workload and print its result as the last stdout line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sim-batch --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
program's public calls, alternates traced and untraced rounds, and prints
the per-layer metrics (with the tracing overhead).  The exit code is 0 only
when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
# One BLAS thread, set before numpy loads (the server child inherits it).  On
# a 2-CPU host two BLAS threads did not speed the flow up (median 6.9 s
# either way) but widened its run-to-run spread from 0.10 to 0.26.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOADS = ("flow-sweep", "sim-batch", "sim-stream", "serve-stream")


def _modules():
    from perfbench import flow_sweep, serve_stream, sim

    return {
        "flow-sweep": flow_sweep.run,
        "sim-batch": sim.run,
        "sim-stream": sim.run,
        "serve-stream": serve_stream.run,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is the checkout's own src/, never another copy.
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    if (ROOT / "src") not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: imported {repro.__file__}, not the checkout's src/",
              file=sys.stderr)
        return 2

    from perfbench import common, layers
    from perfbench.spans import Tracer, accounting_closes, thread_accounting

    common.pin(common.LOAD_CPU)
    print("host:", json.dumps(common.host_record()), flush=True)
    reference = [common.reference_loop_per_s()]
    tracer = Tracer() if args.trace else None
    result = _modules()[args.workload](args.workload, args.seed, args.seconds, tracer)
    reference.append(common.reference_loop_per_s())
    print("reference loop (iterations/s, before and after):",
          json.dumps([round(r) for r in reference]), flush=True)

    errors = list(result["errors"])
    if "samples" in result:
        print("samples:", json.dumps(result["samples"]), flush=True)
    if tracer is None:
        metrics = result["end_to_end"]
        units = {name: m["unit"] for name, m in metrics.items()}
        if units != common.END_TO_END_UNITS:
            errors.append(f"end-to-end metrics {units} are not those of the manifest")
        errors += [f"{name} reads {m['value']}" for name, m in metrics.items()
                   if not m["value"] > 0]
    else:
        tracer.active = False
        tracer.restore()
        rounds = result["rounds"]
        windows = rounds.windows(True)
        acct = thread_accounting(tracer.spans, windows)
        if not accounting_closes(acct):
            errors.append("self times plus unattributed do not add up to the window")
        if result.get("remote_accounting_closes") is False:
            errors.append("server: self times plus unattributed do not add up")
        per_layer = dict(result["per_layer"])
        main_thread = threading.main_thread().ident
        driving = [a for t, a in acct.items() if t == main_thread] or list(acct.values())
        per_layer["trace.unattributed_share"] = (
            sum(a["unattributed"] for a in driving) / sum(a["window"] for a in driving)
        )
        per_layer["trace.overhead_share"] = result["overhead_share"]
        values, missing = layers.complete(args.workload, per_layer)
        errors += [f"per-layer metric {name} was not measured" for name in missing]
        metrics = {
            name: common.metric(value, layers.PER_LAYER_UNITS[name])
            for name, value in sorted(values.items())
        }
        print("traced end-to-end:",
              json.dumps({k: v["value"] for k, v in result["end_to_end"].items()}),
              flush=True)
        common.OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(common.OUT_DIR / f"{args.workload}.spans.jsonl")

    for line in errors:
        print("check failed:", line, flush=True)
    out = {
        "correct": not errors,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }
    print(json.dumps(out), flush=True)
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
