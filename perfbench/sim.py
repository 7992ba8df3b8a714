"""sim-batch and sim-stream: the deployed CNN on the simulated MCUs.

The mix is every (target, scheme) pair of ``TARGETS`` x ``SCHEMES``: SDOTP
kernels on ``maupiti``, scalar kernels on ``ibex``, all-INT8 and 8-4-4-8.

* sim-batch: one round is one ``Engine.predict_batch`` of the whole held-out
  session on every mix entry (the lockstep JIT and input packing).
* sim-stream: one round pushes the first ``STREAM_FRAMES`` frames of the
  session one at a time, in temporal order, through ``Engine.stream``
  (window 5) on every mix entry (the per-frame firmware loop).

``op_cpu_ms`` is the mean, over the mix entries, of the median CPU time of
that entry's call, and ``frames_per_cpu_s`` the frames of one call over it:
a median per entry keeps the fast SDOTP and slow scalar calls from mixing
in one distribution.  The same figures in wall time are printed beside them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

import numpy as np

from . import checks, common, layers
from .common import metric

STREAM_FRAMES = 64
# The interpreter runs about 0.6M cycles/s, so it re-simulates one frame on
# each target, under the mixed scheme that exercises both kernel widths.
INTERP_SAMPLE = 1
INTERP_SCHEME = "8448"
SEQUENTIAL_SAMPLE = 8  # frames at each end of a batch re-run one at a time


@dataclass
class Entry:
    target: str
    scheme: str
    engine: object
    network: object

    @property
    def key(self) -> str:
        return f"{self.target}.{self.scheme}"


def _setup(seed: int, stream: bool):
    """Data, quantize, compile, cold trace decode and warm-up."""
    import repro
    from repro.hw.sim import clear_trace_cache

    clear_trace_cache()
    dataset, pre, train = common.corpus()
    frames = pre(common.held_out(seed).frames)
    entries: List[Entry] = []
    for scheme_name, scheme in common.SCHEMES.items():
        bundle = common.deployed_model(pre, train, scheme)
        for target in common.TARGETS:
            engine = repro.compile(bundle, target=target)
            if stream:
                _stream(engine, frames[:2])
            else:
                engine.predict_batch(frames[:2])
            entries.append(Entry(target, scheme_name, engine, bundle.require_integer()))
    return frames, entries, dataset, pre


def _stream(engine, frames):
    with engine.stream(window=common.MAJORITY_WINDOW) as session:
        for frame in frames:
            session.push(frame)
    return session.summary()


def run(workload: str, seed: int, seconds: float, tracer) -> dict:
    stream = workload == "sim-stream"
    if tracer is not None:
        layers.install_common(tracer)
        layers.install_sim(tracer)
        tracer.active = True
    (frames, entries, dataset, pre), setup_seconds = common.repeat_setup(
        lambda: _setup(seed, stream)
    )
    setup_spans = 0
    if tracer is not None:
        tracer.active = False
        setup_spans = len(tracer.spans)

    golden = {e.key: e.network.forward(frames) for e in entries}
    work = frames[:STREAM_FRAMES] if stream else frames
    seen: Dict[str, tuple] = {}  # per entry: (cycles, energy) of the first round
    errors: List[str] = []
    attempted = [0]
    # Wall and CPU seconds of each program call, per mix entry, split
    # traced / untraced.
    op_seconds = {flag: {e.key: [] for e in entries} for flag in (False, True)}
    op_cpu = {flag: {e.key: [] for e in entries} for flag in (False, True)}

    def expect(ok: bool, what: str) -> None:
        if not ok and what not in errors:
            errors.append(what)

    def timed(e, call):
        attempted[0] += 1
        traced = tracer is not None and tracer.active
        cpu = time.process_time()
        start = time.perf_counter()
        out = call()
        op_seconds[traced][e.key].append(time.perf_counter() - start)
        op_cpu[traced][e.key].append(time.process_time() - cpu)
        return out

    def batch_round() -> float:
        for e in entries:
            out = timed(e, lambda: e.engine.predict_batch(work))
            expect(np.array_equal(out.logits, golden[e.key]), f"{e.key}: logits differ from golden")
            observed = (
                tuple(out.cycles_per_frame.tolist()),
                tuple(out.energy_uj_per_frame.tolist()),
            )
            expect(seen.setdefault(e.key, observed) == observed,
                   f"{e.key}: cycles/energy changed between rounds")
        return float(len(work) * len(entries))

    def stream_round() -> float:
        for e in entries:
            summary = timed(e, lambda: _stream(e.engine, work))
            raw = summary.raw_predictions
            expect(np.array_equal(raw, np.argmax(golden[e.key][: len(work)], axis=1)),
                   f"{e.key}: streamed raw predictions differ from golden argmax")
            expect(summary.voted_predictions.tolist()
                   == checks.sliding_mode(raw, common.MAJORITY_WINDOW),
                   f"{e.key}: voted predictions differ from the sliding-window mode")
            observed = (tuple(summary.cycles_per_frame.tolist()), (summary.total_energy_uj,))
            expect(seen.setdefault(e.key, observed) == observed,
                   f"{e.key}: cycles/energy changed between rounds")
        return float(len(work) * len(entries))

    faults_before = common.minor_faults()
    rounds = common.run_rounds(seconds, stream_round if stream else batch_round, tracer)
    faults = common.minor_faults() - faults_before
    errors += _post_checks(entries, work, seen, stream)

    def op_s(traced: bool, times=op_seconds) -> float:
        """Mean over the mix entries of the entry's median call time."""
        return float(np.mean([np.median(t) for t in times[traced].values()]))

    def rate(traced: bool) -> float:
        return len(work) / op_s(traced)

    measured = tracer is not None

    cycles = [np.mean(seen[e.key][0]) for e in entries]
    energy = [sum(seen[e.key][1]) / len(seen[e.key][0]) for e in entries]
    # End-to-end figures come from the untraced calls, or, in a traced run,
    # from its traced calls (the untraced ones then give the overhead).
    compiled = [e.engine.backend.compiled for e in entries]
    bas = {e.scheme: common.reference_bas(e.network, pre, dataset) for e in entries}
    e2e = {
        "setup_s": metric(np.median(setup_seconds), "s"),
        "op_cpu_ms": metric(op_s(measured, op_cpu) * 1e3, "ms"),
        "frames_per_cpu_s": metric(len(work) / op_s(measured, op_cpu), "1/s"),
        "sim_cycles_per_frame": metric(np.mean(cycles), "cycles"),
        "energy_uj_per_frame": metric(np.mean(energy), "uJ"),
        "code_bytes": metric(np.mean([c.code_size_bytes for c in compiled]), "bytes"),
        "data_bytes": metric(np.mean([c.data_size_bytes for c in compiled]), "bytes"),
        "model_bytes": metric(
            np.mean([e.engine.backend.bundle.quant_model.weights_bytes() for e in entries]),
            "bytes",
        ),
        "bas_majority": metric(np.mean([bas[e.scheme] for e in entries]), "ratio"),
        "peak_rss_mb": metric(common.peak_rss_mb(), "MiB"),
    }
    result = {
        "attempted": attempted[0],
        "failed": 0,
        "errors": errors,
        "rounds": rounds,
        "samples": {"op_wall_ms": op_s(measured) * 1e3, "frames_per_wall_s": rate(measured)},
        "end_to_end": e2e,
    }
    if tracer is not None:
        frames_traced = sum(r.work for r in rounds.of(True))
        per_layer = layers.setup_layers(tracer.spans)
        per_layer.update(
            layers.sim_layers(tracer.spans[setup_spans:], int(frames_traced) if stream else 0)
        )
        per_layer["sim.minor_faults_per_frame"] = faults / sum(r.work for r in rounds.rounds)
        for e, cyc, en in zip(entries, cycles, energy):
            per_layer[f"sim.{e.key}.cycles_per_frame"] = float(cyc)
            per_layer[f"sim.{e.key}.energy_uj_per_frame"] = float(en)
        result["per_layer"] = per_layer
        result["overhead_share"] = rate(False) / rate(True) - 1.0
    return result


def _post_checks(entries, work, seen, stream) -> List[str]:
    """Checks made outside the timed window."""
    import repro

    errors = []
    for e in entries:
        cycles = np.asarray(seen[e.key][0])
        spec = e.engine.backend.platform.spec
        if stream:
            batch = e.engine.predict_batch(work)
            if not np.array_equal(batch.cycles_per_frame, cycles):
                errors.append(f"{e.key}: streamed cycles differ from the batched run")
            energy = batch.energy_uj_per_frame
        else:
            energy = np.asarray(seen[e.key][1])
            # The lockstep batch against the per-frame path, at both ends.
            sample = list(range(SEQUENTIAL_SAMPLE)) + list(
                range(len(work) - SEQUENTIAL_SAMPLE, len(work))
            )
            if [e.engine.predict(work[i]).cycles for i in sample] != cycles[sample].tolist():
                errors.append(f"{e.key}: batched cycles differ from the per-frame run")
        expected = checks.energy_per_cycle_uj(spec.frequency_hz, spec.active_power_w)
        if not np.allclose(energy / cycles, expected, rtol=1e-12, atol=0.0):
            errors.append(f"{e.key}: energy/cycles is not the constant active power/clock")
        if e.scheme != INTERP_SCHEME:
            continue
        interp = repro.compile(e.engine.backend.bundle, target=e.target, sim_mode="interp")
        ref = interp.predict_batch(work[:INTERP_SAMPLE])
        if not np.array_equal(ref.cycles_per_frame, cycles[:INTERP_SAMPLE]):
            errors.append(f"{e.key}: cycles differ from the interpreter")
        if not np.array_equal(ref.logits, e.network.forward(work[:INTERP_SAMPLE])):
            errors.append(f"{e.key}: interpreter logits differ from golden")
    return errors
