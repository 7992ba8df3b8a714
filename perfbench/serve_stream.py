"""serve-stream: closed-loop sensor sessions against the HTTP server.

The server (``serve_child.py``) runs in a process of its own, so the load
generator's JSON work does not share its interpreter lock.  Two client
threads, each with one keep-alive ``ServeClient`` connection, stream
64-frame sessions in 8-frame chunks, each sending its next request only
after the previous reply (closed loop).  One round is two sessions per
client: the four sessions together cover the held-out session once.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import numpy as np

from . import checks, common, layers
from .common import metric
from .stats import percentile

CLIENTS = 2
SESSIONS_PER_CLIENT = 2
SESSION_FRAMES = 64
CHUNK = 8
CHILD_TIMEOUT_S = 60.0
#: Pushes a run needs so that ten lie beyond its p99.
P99_SAMPLES = 1000
#: Frames the served model is simulated on, after the window, for its costs.
DEPLOY_FRAMES = 8


class Child:
    """One server process, spoken to over its stdin/stdout."""

    def __init__(self, trace: int):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(common.ROOT / "perfbench" / "serve_child.py"),
             "--trace", str(trace), "--cpu", str(common.SERVER_CPU)],
            cwd=str(common.ROOT),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            self.port = self._reply()["port"]
            from repro.serve import ServeClient

            with ServeClient("127.0.0.1", self.port) as probe:
                if probe.healthz().get("status") != "ok":
                    raise RuntimeError("server did not report healthy")
        except BaseException:
            self.kill()
            raise
        self.ready_s = time.perf_counter() - start

    def _reply(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("server process ended without replying")
        return json.loads(line)

    def command(self, text: str) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def stop(self) -> dict:
        reply = self.command("stop")
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        return reply

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)


class Load:
    """The two closed-loop clients and what they saw."""

    def __init__(self, port: int, frames: np.ndarray, golden: np.ndarray):
        from repro.serve import ServeClient

        self.frames = frames
        self.golden = golden
        self.clients = [ServeClient("127.0.0.1", port) for _ in range(CLIENTS)]
        self.pool = ThreadPoolExecutor(max_workers=CLIENTS)
        self.latencies: List[float] = []
        self.requests = 0
        self.frames_sent = 0
        self.errors: List[str] = []

    def _client(self, index: int) -> List[float]:
        client = self.clients[index]
        latencies = []
        for j in range(SESSIONS_PER_CLIENT):
            first = (index * SESSIONS_PER_CLIENT + j) * SESSION_FRAMES
            segment = self.frames[first : first + SESSION_FRAMES]
            sid = client.open_session(window=common.MAJORITY_WINDOW)["session_id"]
            raw, voted, seqs = [], [], []
            for k in range(0, SESSION_FRAMES, CHUNK):
                start = time.perf_counter()
                reply = client.push(sid, segment[k : k + CHUNK])
                latencies.append(time.perf_counter() - start)
                for r in reply["results"]:
                    raw.append(r["raw"])
                    voted.append(r["voted"])
                    seqs.append(r["seq"])
            client.close_session(sid)
            expected = np.argmax(self.golden[first : first + SESSION_FRAMES], axis=1)
            if seqs != list(range(SESSION_FRAMES)):
                self.errors.append(f"session {first}: frames served != frames sent")
            if raw != expected.tolist():
                self.errors.append(f"session {first}: served raw != golden argmax")
            if voted != checks.sliding_mode(raw, common.MAJORITY_WINDOW):
                self.errors.append(f"session {first}: served votes != sliding-window mode")
        return latencies

    def round(self) -> float:
        futures = [self.pool.submit(self._client, i) for i in range(CLIENTS)]
        for f in futures:
            self.latencies.extend(f.result())
        per_session = SESSION_FRAMES // CHUNK + 2  # open + pushes + close
        self.requests += CLIENTS * SESSIONS_PER_CLIENT * per_session
        frames = CLIENTS * SESSIONS_PER_CLIENT * SESSION_FRAMES
        self.frames_sent += frames
        return float(frames)

    def close(self) -> None:
        self.pool.shutdown(wait=True)
        for c in self.clients:
            c.close()


def frames_total(port: int) -> int:
    from repro.serve import ServeClient

    with ServeClient("127.0.0.1", port) as client:
        text = client.metrics()
    return int(re.search(r"^repro_serve_frames_total (\d+)$", text, re.M).group(1))


def served_model_costs(bundle, pre, dataset) -> tuple:
    """The served model deployed on ``maupiti``, run here after the window.

    The server runs the integer golden engine, so the simulator does no
    serving work; these are the costs the same model has on the MCU, on the
    first frames of the fixed corpus's held-out session (seed-independent).
    Returns ``(cycles, energy_uj, code_bytes, data_bytes, errors)``.
    """
    import repro

    frames = pre(dataset.session(common.HELD_OUT_SESSION).frames[:DEPLOY_FRAMES])
    engine = repro.compile(bundle, target="maupiti")
    out = engine.predict_batch(frames)
    errors = []
    if not np.array_equal(out.logits, bundle.require_integer().forward(frames)):
        errors.append("served model on maupiti differs from its integer golden model")
    compiled = engine.backend.compiled
    return (
        float(np.mean(out.cycles_per_frame)),
        float(np.mean(out.energy_uj_per_frame)),
        float(compiled.code_size_bytes),
        float(compiled.data_size_bytes),
        errors,
    )


def run(workload: str, seed: int, seconds: float, tracer) -> dict:
    trace = 1 if tracer is not None else 0
    if tracer is not None:
        from repro.serve import ServeClient

        tracer.patch_method(ServeClient, "push", "client.push")

    dataset, pre, train = common.corpus()
    frames = pre(common.held_out(seed).frames)
    # Golden logits computed here, apart from the server process.
    bundle = common.deployed_model(pre, train, common.SCHEMES[common.SERVE_SCHEME])
    golden = bundle.require_integer().forward(frames)

    def setup():
        child = Child(trace)
        load = Load(child.port, frames, golden)
        try:
            load.round()  # warm-up
        except BaseException:
            load.close()
            child.kill()
            raise
        return child, load

    setups = []
    setup_seconds = []
    try:
        for _ in range(3):
            start = time.perf_counter()
            setups.append(setup())
            setup_seconds.append(time.perf_counter() - start)
            if len(setups) < 3:
                child, load = setups[-1]
                load.close()
                child.stop()
        child, load = setups[-1]
        ready = [c.ready_s for c, _ in setups]
        load.latencies.clear()
        load.requests = 0  # the warm-up round is set-up, not measured
        marks = []

        def toggle(traced: bool) -> None:
            child.command("on" if traced else "off")

        def one_round() -> float:
            before = len(load.latencies)
            work = load.round()
            marks.append((before, len(load.latencies)))
            return work

        pushes_per_round = CLIENTS * SESSIONS_PER_CLIENT * SESSION_FRAMES // CHUNK
        cpu = time.process_time() + child.command("cpu")["cpu"]
        rounds = common.run_rounds(
            seconds,
            one_round,
            tracer,
            toggle if tracer else None,
            min_rounds=-(-P99_SAMPLES // pushes_per_round),
        )
        cpu = time.process_time() + child.command("cpu")["cpu"] - cpu
        served = frames_total(child.port)
        load.close()
        reply = child.stop()
    finally:
        for c, l in setups:
            l.close()
            c.kill()

    errors = list(load.errors)
    if served != load.frames_sent:
        errors.append(f"/metrics frames_total {served} != frames sent {load.frames_sent}")
    cycles, energy, code_bytes, data_bytes, deploy_errors = served_model_costs(
        bundle, pre, dataset
    )
    errors += deploy_errors
    # End-to-end figures come from the untraced rounds, or, in a traced run,
    # from its traced rounds (the untraced ones then give the overhead).
    traced_run = tracer is not None
    measured = rounds.of(traced_run)
    latencies = [
        lat
        for r, (a, b) in zip(rounds.rounds, marks)
        if r.traced == traced_run
        for lat in load.latencies[a:b]
    ]
    p50 = percentile(latencies, 50)
    window_frames = sum(r.work for r in rounds.rounds)
    pushes = window_frames / CHUNK
    e2e = {
        "setup_s": metric(np.median(setup_seconds), "s"),
        # CPU of the load generator and the server over the whole window
        # (traced and untraced rounds alike in a traced run).
        "op_cpu_ms": metric(cpu / pushes * 1e3, "ms"),
        "frames_per_cpu_s": metric(window_frames / cpu, "1/s"),
        "sim_cycles_per_frame": metric(cycles, "cycles"),
        "energy_uj_per_frame": metric(energy, "uJ"),
        "code_bytes": metric(code_bytes, "bytes"),
        "data_bytes": metric(data_bytes, "bytes"),
        "model_bytes": metric(bundle.quant_model.weights_bytes(), "bytes"),
        "bas_majority": metric(
            common.reference_bas(bundle.require_integer(), pre, dataset), "ratio"
        ),
        "peak_rss_mb": metric(reply["peak_rss_mb"], "MiB"),
    }
    # The tail is printed beside the metrics, not gated: on a 2-CPU host
    # whose hypervisor steals time when both CPUs are busy, p99 spread by
    # 0.3 to 0.5 of its median across runs, beyond any bound allowed.
    p99 = percentile(latencies, 99)
    samples = {
        "push_p50_ms": {"value": p50["value"] * 1e3, "samples": p50["samples"]},
        "push_p99_ms": {"value": p99["value"] * 1e3, "samples": p99["samples"]},
        "frames_per_wall_s": float(np.median([r.rate for r in measured])),
    }
    out: Dict = {
        "attempted": load.requests,
        "failed": 0,
        "errors": errors,
        "rounds": rounds,
        "samples": samples,
        "end_to_end": e2e,
    }
    if tracer is not None:
        traced = rounds.of(True)
        pushes = [s for s in tracer.spans if s.name == "client.push"]
        per_layer = dict(reply["per_layer"])
        per_layer["client.push_ms"] = layers.mean_s(pushes) * 1e3
        per_layer["serve.ready_s"] = float(np.median(ready))
        out["per_layer"] = per_layer
        out["remote_accounting_closes"] = reply["accounting_closes"]
        out["overhead_share"] = (
            np.median([r.rate for r in rounds.of(False)])
            / np.median([r.rate for r in traced])
            - 1.0
        )
    return out
