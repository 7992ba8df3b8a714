"""The server of the serve-stream workload, run as a process of its own.

Builds the deployed CNN (8-4-4-8) on the ``int-golden`` engine, serves it
with the default ``ServeConfig`` and prints ``{"port": ...}``.  ``--cpu``
pins it to one CPU, apart from the load generator's.  It then reads
commands from stdin, one per line, and answers each with one JSON line:

* ``on`` / ``off`` — start / stop a traced window (only with ``--trace 1``);
* ``cpu`` — reply with the CPU seconds the process has used so far;
* ``stop`` — drain and stop the server, then report peak RSS and, when
  traced, the per-layer figures; the process exits after that reply.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path[:0] = [str(Path(__file__).resolve().parent.parent / "src"),
                str(Path(__file__).resolve().parent.parent)]

from perfbench import common, layers  # noqa: E402
from perfbench.spans import Tracer, accounting_closes, thread_accounting  # noqa: E402

def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cpu", default="None", help="CPU to pin to, or None")
    args = parser.parse_args()
    common.pin(None if args.cpu == "None" else int(args.cpu))

    import repro
    from repro.serve import start_server

    tracer = Tracer() if args.trace else None
    if tracer is not None:
        layers.install_common(tracer)
        layers.install_serve(tracer)
        tracer.active = True
    _, pre, train = common.corpus()
    bundle = common.deployed_model(pre, train, common.SCHEMES[common.SERVE_SCHEME])
    engine = repro.compile(bundle, target="int-golden")
    if tracer is not None:
        tracer.active = False
    server = start_server(engine)
    print(json.dumps({"port": server.port}), flush=True)

    windows, opened = [], None
    for line in sys.stdin:
        command = line.strip()
        if command == "on" and tracer is not None and opened is None:
            opened = time.perf_counter()
            tracer.active = True
        elif command == "off" and tracer is not None and opened is not None:
            tracer.active = False
            windows.append((opened, time.perf_counter()))
            opened = None
        elif command == "stop":
            break
        elif command == "cpu":
            print(json.dumps({"cpu": time.process_time()}), flush=True)
            continue
        print(json.dumps({"ok": True}), flush=True)
    server.stop()
    reply = {"peak_rss_mb": common.peak_rss_mb()}
    if tracer is not None and windows:
        spans = [s for s in tracer.spans if any(a <= s.start <= b for a, b in windows)]
        acct = thread_accounting(spans, windows)
        reply["accounting_closes"] = accounting_closes(acct)
        reply["per_layer"] = layers.setup_layers(tracer.spans)
        reply["per_layer"].update(layers.serve_layers(spans, windows))
        common.OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(common.OUT_DIR / "serve-stream.server.spans.jsonl")
    print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
