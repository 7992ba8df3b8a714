"""Which public calls each workload wraps, and the per-layer figures they give.

Span names follow the program's module names (``nn``, ``nas``, ``quant``,
``deploy``, ``hw.sim``, ``engine``, ``postproc``, ``serve``).  The README
lists which end-to-end metric each per-layer figure should move.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from .common import SCHEMES, TARGETS
from .spans import Span, Tracer, self_times


#: Unit of every per-layer metric, as listed in ``BENCHMARK.json``.
PER_LAYER_UNITS = {
    **{f"flow.stage{i}_s": "s" for i in range(5)},
    "nn.train_samples_per_s": "1/s",
    "nas.lambda_s": "s",
    "quant.qat_scheme_s": "s",
    "quant.convert_ms": "ms",
    "deploy.compile_ms": "ms",
    "datasets.generate_s": "s",
    "quant.quantize_s": "s",
    "sim.template_build_ms": "ms",
    "sim.trace_cache_hits": "count",
    "sim.trace_cache_misses": "count",
    "engine.batch_us_per_frame": "us",
    "deploy.pack_us_per_frame": "us",
    "sim.run_batch_us_per_frame": "us",
    "sim.lockstep_share": "ratio",
    "sim.host_ns_per_cycle": "ns",
    "sim.minor_faults_per_frame": "count",
    **{
        f"sim.{target}.{scheme}.{kind}": unit
        for target in TARGETS
        for scheme in SCHEMES
        for kind, unit in (("cycles_per_frame", "cycles"), ("energy_uj_per_frame", "uJ"))
    },
    "sim.run_program_us_per_frame": "us",
    "deploy.write_input_us_per_frame": "us",
    "engine.push_self_us_per_frame": "us",
    "postproc.vote_us_per_frame": "us",
    "serve.handle_self_us_per_request": "us",
    "serve.submit_us_per_request": "us",
    "serve.queue_wait_ms": "ms",
    "serve.batch_frames": "frames",
    "serve.engine_us_per_frame": "us",
    "serve.dispatch_busy_share": "ratio",
    "serve.encode_us_per_request": "us",
    "serve.server_ms_per_request": "ms",
    "client.push_ms": "ms",
    "serve.ready_s": "s",
    "trace.unattributed_share": "ratio",
    "trace.overhead_share": "ratio",
}

_SETUP = {"datasets.generate_s", "quant.quantize_s", "quant.convert_ms"}
_COMPILE = {"deploy.compile_ms", "sim.template_build_ms"}
_TRACE = {"trace.unattributed_share", "trace.overhead_share"}
_SIM = {
    "sim.trace_cache_hits",
    "sim.trace_cache_misses",
    "sim.host_ns_per_cycle",
    "sim.minor_faults_per_frame",
} | {name for name in PER_LAYER_UNITS if name.count(".") == 3}  # sim.<t>.<s>.<kind>

#: The per-layer metrics each workload measures.  A traced run reports every
#: metric of ``PER_LAYER_UNITS``: one its workload does not reach reads 0.
MEASURED = {
    "flow-sweep": _SETUP | _COMPILE | _TRACE | {
        *(f"flow.stage{i}_s" for i in range(5)),
        "nn.train_samples_per_s",
        "nas.lambda_s",
        "quant.qat_scheme_s",
    },
    "sim-batch": _SETUP | _COMPILE | _TRACE | _SIM | {
        "engine.batch_us_per_frame",
        "deploy.pack_us_per_frame",
        "sim.run_batch_us_per_frame",
        "sim.lockstep_share",
    },
    "sim-stream": _SETUP | _COMPILE | _TRACE | _SIM | {
        "sim.run_program_us_per_frame",
        "deploy.write_input_us_per_frame",
        "engine.push_self_us_per_frame",
        "postproc.vote_us_per_frame",
    },
    "serve-stream": _SETUP | _TRACE | {"postproc.vote_us_per_frame", "client.push_ms"} | {
        name for name in PER_LAYER_UNITS if name.startswith("serve.")
    },
}


def complete(workload: str, measured: Dict[str, float]):
    """Every per-layer metric for ``workload``: returns ``(values, missing)``,
    where values not reached by the workload read 0 and ``missing`` lists the
    metrics the workload should have measured but did not."""
    measured = {name: value for name, value in measured.items() if value is not None}
    missing = sorted(MEASURED[workload] - set(measured))
    values = {name: float(measured.get(name, 0.0)) for name in PER_LAYER_UNITS}
    return values, missing


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def install_common(tracer: Tracer) -> None:
    """Set-up layers every workload goes through."""
    from repro.datasets import linaige
    from repro.deploy import program
    from repro.hw.sim import jit, trace_cache
    from repro.quant import integer, quantize

    tracer.patch_function(linaige.generate_linaige, "datasets.generate")
    tracer.patch_function(quantize.quantize_model, "quant.quantize")
    tracer.patch_function(integer.convert_to_integer, "quant.convert")
    tracer.patch_function(program.compile_network, "deploy.compile")
    tracer.patch_function(trace_cache.get_template, "sim.get_template")
    tracer.patch_method(jit.JitTemplate, "__init__", "sim.template_build")


def _engine_attrs(sid, args, kwargs, result):
    return {"frames": int(len(args[1])), "target": args[0].target}


def install_sim(tracer: Tracer) -> None:
    from repro.deploy import runtime
    from repro.engine.engine import Engine, StreamSession
    from repro.hw.platform import SmartSensorPlatform
    from repro.hw.sim import batch
    from repro.postproc.majority import MajorityVoter

    tracer.patch_method(Engine, "predict_batch", "engine.predict_batch", _engine_attrs)
    tracer.patch_function(
        runtime.simulate_batch,
        "deploy.simulate_batch",
        lambda sid, a, k, r: {"frames": int(len(_arg(a, k, 2, "frames")))},
    )
    tracer.patch_function(
        runtime.pack_input_frames,
        "deploy.pack_input_frames",
        lambda sid, a, k, r: {"frames": int(r.shape[0])},
    )
    tracer.patch_function(
        batch.run_batch,
        "sim.run_batch",
        lambda sid, a, k, r: {
            "frames": len(r),
            "cycles": sum(o.stats.cycles for o in r),
        },
    )
    tracer.patch_method(StreamSession, "push", "engine.stream_push")
    tracer.patch_function(runtime.write_input, "deploy.write_input")
    tracer.patch_method(
        SmartSensorPlatform,
        "run_program",
        "sim.run_program",
        lambda sid, a, k, r: {"cycles": int(r.cycles)},
    )
    tracer.patch_method(MajorityVoter, "update", "postproc.vote")


def install_flow(tracer: Tracer) -> None:
    from repro.engine.engine import Engine
    from repro.flow import pipeline
    from repro.nas import search
    from repro.nn import trainer
    from repro.postproc import majority
    from repro.quant import mixed

    tracer.patch_function(pipeline._seed_task, "flow.stage0")
    tracer.patch_function(search.run_search, "flow.stage1")
    tracer.patch_function(mixed.explore_mixed_precision, "flow.stage2")
    tracer.patch_method(Engine, "predict_batch", "engine.predict_batch", _engine_attrs)
    tracer.patch_function(majority.majority_filter, "postproc.majority_filter")
    tracer.patch_method(pipeline.FlowResult, "deploy", "flow.stage4")
    tracer.patch_function(
        trainer.train_model,
        "nn.train_model",
        lambda sid, a, k, r: {
            "samples": len(_arg(a, k, 1, "train_set")),
            "epochs": len(r.train_loss),
        },
    )
    tracer.patch_function(search.search_single_strength, "nas.search_single_strength")
    tracer.patch_function(mixed.qat_finetune, "quant.qat_finetune")


def install_serve(tracer: Tracer) -> None:
    from repro.engine.engine import Engine
    from repro.postproc.majority import MajorityVoter
    from repro.serve.batcher import MicroBatcher
    from repro.serve.service import PendingResponse, ServeService

    def handle_attrs(sid, args, kwargs, result):
        if isinstance(result, PendingResponse):
            result._perfbench_rid = sid  # the request id carried to complete()
            return {"rid": sid, "frames": result.count}
        return {}

    # Frames submitted in traced windows, counted across windows: the queue
    # is empty whenever tracing is switched, so these are exactly the frames
    # of the traced engine calls, in the same FIFO order.
    submit_count = {"frames": 0}

    def submit_attrs(sid, args, kwargs, result):
        n = int(len(args[2]))
        first = submit_count["frames"]
        submit_count["frames"] += n
        return {"first_frame": first, "frames": n}

    tracer.patch_method(ServeService, "handle", "serve.handle", handle_attrs)
    tracer.patch_method(MicroBatcher, "submit", "serve.submit", submit_attrs)
    tracer.patch_method(Engine, "predict_batch", "engine.predict_batch", _engine_attrs)
    tracer.patch_method(
        PendingResponse, "complete", "serve.complete",
        lambda sid, a, k, r: {"rid": getattr(a[0], "_perfbench_rid", 0)},
    )
    tracer.patch_method(MajorityVoter, "update", "postproc.vote")


# --------------------------------------------------------------------- #
def total(spans: Sequence[Span]) -> float:
    return sum(s.duration for s in spans)


def attr_sum(spans: Sequence[Span], key: str) -> float:
    return sum(s.attrs.get(key, 0) for s in spans)


def mean_s(spans: Sequence[Span]) -> Optional[float]:
    return total(spans) / len(spans) if spans else None


def per_frame_us(spans: Sequence[Span]) -> Optional[float]:
    frames = attr_sum(spans, "frames")
    return total(spans) / frames * 1e6 if frames else None


def named(spans: Sequence[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name]


def self_total(spans: Sequence[Span], name: str) -> float:
    selfs = self_times(spans)
    return sum(selfs[s.id] for s in spans if s.name == name)


def setup_layers(spans: Sequence[Span]) -> Dict[str, float]:
    """Per-call set-up figures (means over every traced call)."""
    out: Dict[str, float] = {}
    pairs = [
        ("datasets.generate_s", "datasets.generate", 1.0),
        ("quant.quantize_s", "quant.quantize", 1.0),
        ("quant.convert_ms", "quant.convert", 1e3),
        ("deploy.compile_ms", "deploy.compile", 1e3),
    ]
    for metric_name, span_name, scale in pairs:
        value = mean_s(named(spans, span_name))
        if value is not None:
            out[metric_name] = value * scale
    builds = {s.parent for s in named(spans, "sim.template_build")}
    cold = [s for s in named(spans, "sim.get_template") if s.id in builds]
    if cold:
        out["sim.template_build_ms"] = mean_s(cold) * 1e3
    return out


def sim_layers(spans: Sequence[Span], frames_pushed: int) -> Dict[str, float]:
    """Simulator figures; ``frames_pushed`` counts stream pushes (sim-stream)."""
    from repro.hw.sim import cache_stats

    out: Dict[str, float] = {}
    batches = named(spans, "engine.predict_batch")
    runs = named(spans, "sim.run_batch")
    programs = named(spans, "sim.run_program")
    sent = attr_sum(
        [s for s in named(spans, "deploy.simulate_batch") if s.attrs.get("frames", 0) > 1],
        "frames",
    )
    if batches:
        out["engine.batch_us_per_frame"] = per_frame_us(batches)
        packs = named(spans, "deploy.pack_input_frames")
        out["deploy.pack_us_per_frame"] = per_frame_us(packs)
    if runs:
        ok = [s for s in runs if "error" not in s.attrs]
        out["sim.run_batch_us_per_frame"] = per_frame_us(ok)
        out["sim.lockstep_share"] = attr_sum(ok, "frames") / sent
        out["sim.host_ns_per_cycle"] = total(ok) / attr_sum(ok, "cycles") * 1e9
    if frames_pushed:
        out["sim.run_program_us_per_frame"] = total(programs) / frames_pushed * 1e6
        out["sim.host_ns_per_cycle"] = total(programs) / attr_sum(programs, "cycles") * 1e9
        out["deploy.write_input_us_per_frame"] = (
            total(named(spans, "deploy.write_input")) / frames_pushed * 1e6
        )
        out["engine.push_self_us_per_frame"] = (
            self_total(spans, "engine.stream_push") / frames_pushed * 1e6
        )
        out["postproc.vote_us_per_frame"] = (
            total(named(spans, "postproc.vote")) / frames_pushed * 1e6
        )
    stats = cache_stats()
    out["sim.trace_cache_hits"] = float(stats.hits)
    out["sim.trace_cache_misses"] = float(stats.misses)
    return out


def flow_layers(spans: Sequence[Span], flows: int) -> Dict[str, float]:
    """Flow figures: stage times per flow run and per-call training figures."""
    out: Dict[str, float] = {}
    stage3 = [
        s
        for s in named(spans, "engine.predict_batch")
        if s.attrs.get("target") == "numpy-float"
    ] + named(spans, "postproc.majority_filter")
    stages: List[List[Span]] = [
        named(spans, "flow.stage0"),
        named(spans, "flow.stage1"),
        named(spans, "flow.stage2"),
        stage3,
        named(spans, "flow.stage4"),
    ]
    for i, stage in enumerate(stages):
        out[f"flow.stage{i}_s"] = total(stage) / flows
    trains = named(spans, "nn.train_model")
    samples = sum(s.attrs["samples"] * s.attrs["epochs"] for s in trains)
    out["nn.train_samples_per_s"] = samples / total(trains)
    out["nas.lambda_s"] = mean_s(named(spans, "nas.search_single_strength"))
    out["quant.qat_scheme_s"] = mean_s(named(spans, "quant.qat_finetune"))
    return out


def serve_layers(spans: Sequence[Span], windows) -> Dict[str, float]:
    """Server-side per-layer figures over the traced windows."""
    handles = [s for s in named(spans, "serve.handle") if "rid" in s.attrs]
    submits = named(spans, "serve.submit")
    engine = sorted(named(spans, "engine.predict_batch"), key=lambda s: s.start)
    completes = named(spans, "serve.complete")
    window = sum(b - a for a, b in windows)
    out = {}
    selfs = self_times(spans)
    out["serve.handle_self_us_per_request"] = (
        sum(selfs[s.id] for s in handles) / len(handles) * 1e6
    )
    out["serve.submit_us_per_request"] = mean_s(submits) * 1e6
    # FIFO queue: the engine call carrying frame k of the traced stream is
    # found by counting frames through the calls in dispatch order.
    ends, offset = [], 0  # (frames dispatched once the call is done, call start)
    for s in engine:
        offset += s.attrs["frames"]
        ends.append((offset, s.start))
    waits, j = [], 0
    for sub in sorted(submits, key=lambda s: s.attrs["first_frame"]):
        while j < len(ends) and ends[j][0] <= sub.attrs["first_frame"]:
            j += 1
        if j < len(ends):
            waits.append(ends[j][1] - sub.end)
    out["serve.queue_wait_ms"] = sum(waits) / len(waits) * 1e3
    out["serve.batch_frames"] = attr_sum(engine, "frames") / len(engine)
    out["serve.engine_us_per_frame"] = per_frame_us(engine)
    out["serve.dispatch_busy_share"] = total(engine) / window
    out["serve.encode_us_per_request"] = mean_s(completes) * 1e6
    done = {s.attrs["rid"]: s.end for s in completes}
    server = [done[s.id] - s.start for s in handles if s.id in done]
    out["serve.server_ms_per_request"] = sum(server) / len(server) * 1e3
    votes = named(spans, "postproc.vote")
    out["postproc.vote_us_per_frame"] = total(votes) / len(votes) * 1e6
    return out
