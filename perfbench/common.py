"""Inputs, host record and the timed-round loop shared by every workload."""

from __future__ import annotations

import gc
import os
import platform
import resource
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: The training corpus (sessions 1, 3, 4, 5) is one fixed draw, as the real
#: LINAIGE recording is one fixed dataset.  Only the held-out session (2)
#: comes from the workload seed.
CORPUS_SEED = 20240325
CORPUS_SCALE = 0.1
HELD_OUT_FRAMES = 256
HELD_OUT_SESSION = 2
#: The deployed CNN: the paper's two-conv seed family sized so that the
#: all-INT8 program (13.8 kB of data) sits just under MAUPITI's 16 kB.
MODEL_SEED = 7
MODEL_CHANNELS = (16, 16)
MODEL_HIDDEN = 32
CALIBRATION_FRAMES = 256
SCHEMES = {"int8": (8, 8, 8, 8), "8448": (8, 4, 4, 8)}
TARGETS = ("maupiti", "ibex")
SERVE_SCHEME = "8448"  # the scheme serve-stream's int-golden engine runs
MAJORITY_WINDOW = 5

#: Unit of every end-to-end metric, as listed in ``BENCHMARK.json``.  Every
#: workload reports all of them; the README says what each means where.
END_TO_END_UNITS = {
    "setup_s": "s",
    "op_cpu_ms": "ms",
    "frames_per_cpu_s": "1/s",
    "sim_cycles_per_frame": "cycles",
    "energy_uj_per_frame": "uJ",
    "code_bytes": "bytes",
    "data_bytes": "bytes",
    "model_bytes": "bytes",
    "bas_majority": "ratio",
    "peak_rss_mb": "MiB",
}


def corpus():
    """The fixed training corpus and its fitted pre-processor."""
    from repro import datasets
    from repro.flow import Preprocessor

    dataset = datasets.generate_linaige(seed=CORPUS_SEED, scale=CORPUS_SCALE)
    train = np.concatenate(
        [s.frames for s in dataset.sessions if s.session_id != HELD_OUT_SESSION]
    )
    return dataset, Preprocessor.fit(train), train


def held_out(seed: int):
    """The seeded held-out session: ``HELD_OUT_FRAMES`` frames in temporal order."""
    from repro import datasets

    dataset = datasets.generate_linaige(
        seed=seed, samples_per_session={HELD_OUT_SESSION: HELD_OUT_FRAMES}, scale=1e-6
    )
    return dataset.session(HELD_OUT_SESSION)


def reference_bas(network, pre, dataset) -> float:
    """Majority-voted balanced accuracy of ``network``'s golden forward on the
    fixed corpus's held-out session, with the benchmark's own vote.

    The sim-* and serve-stream models have fixed weights, so this is the same
    for every seed; the seeded held-out frames would move it by more than the
    metric's bound.
    """
    from . import checks

    session = dataset.session(HELD_OUT_SESSION)
    raw = np.argmax(network.forward(pre(session.frames)), axis=1)
    return checks.balanced_accuracy(session.labels, checks.sliding_mode(raw, MAJORITY_WINDOW))


def deployed_model(pre, train, scheme):
    """The deployed CNN under ``scheme``, as a model bundle (fixed weights)."""
    from repro import quant
    from repro.engine import ModelBundle
    from repro.flow import build_seed_cnn

    model = build_seed_cnn(
        np.random.default_rng(MODEL_SEED),
        conv_channels=MODEL_CHANNELS,
        hidden_features=MODEL_HIDDEN,
    )
    qmodel = quant.quantize_model(
        model,
        quant.PrecisionScheme(scheme),
        calibration_data=pre(train[:CALIBRATION_FRAMES]),
    )
    return ModelBundle(qmodel, label="-".join(map(str, scheme)))


# --------------------------------------------------------------------- #
#: The CPUs the benchmark may use, read when it starts, before it pins itself.
ALLOWED_CPUS = sorted(os.sched_getaffinity(0))
#: With two CPUs or more, the workload's own process runs on the first and
#: the serve-stream server on the last.  Unpinned, the two client threads and
#: the server's threads moved between the CPUs: in five alternating pairs of
#: runs serve-stream served 825 to 1061 frames/s unpinned, 1299 to 1611 pinned.
LOAD_CPU = ALLOWED_CPUS[0] if len(ALLOWED_CPUS) >= 2 else None
SERVER_CPU = ALLOWED_CPUS[-1] if len(ALLOWED_CPUS) >= 2 else None


def pin(cpu: Optional[int]) -> None:
    """Pin the calling process, and the threads it starts later, to ``cpu``."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def reference_loop_per_s(iterations: int = 2_000_000) -> float:
    """Iterations/s of a fixed pure-Python loop: the host-speed reference."""
    start = time.perf_counter()
    acc = 0
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
    return iterations / (time.perf_counter() - start)


def git_revision() -> str:
    """The checkout's revision, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def host_record() -> dict:
    return {
        "cpus": len(ALLOWED_CPUS),
        "load_cpu": LOAD_CPU,
        "server_cpu": SERVER_CPU,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": git_revision(),
    }


def repeat_setup(setup: Callable[[], object], times: int = 5):
    """Run ``setup`` ``times`` times; returns (last result, seconds of each).

    The previous result is dropped and collected before each set-up, so peak
    RSS holds one set-up's objects, not two.
    """
    result, seconds = None, []
    for _ in range(times):
        result = None
        gc.collect()
        start = time.perf_counter()
        result = setup()
        seconds.append(time.perf_counter() - start)
    return result, seconds


# --------------------------------------------------------------------- #
@dataclass
class Round:
    start: float
    end: float
    traced: bool
    work: float  # frames (or operations) completed in the round
    cpu: float  # CPU seconds this process spent in the round

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def rate(self) -> float:
        return self.work / self.seconds


@dataclass
class Rounds:
    rounds: List[Round] = field(default_factory=list)

    def of(self, traced: bool) -> List[Round]:
        return [r for r in self.rounds if r.traced == traced]

    def windows(self, traced: bool = True):
        return [(r.start, r.end) for r in self.of(traced)]


def run_rounds(
    seconds: float,
    one_round: Callable[[], float],
    tracer=None,
    on_toggle: Optional[Callable[[bool], None]] = None,
    min_rounds: int = 1,
) -> Rounds:
    """Repeat ``one_round`` until ``seconds`` have passed and at least
    ``min_rounds`` rounds ran (of each kind, with a tracer).

    Every round runs the same operations; a round returns the work it
    completed.  With a ``tracer`` the rounds alternate traced / untraced
    (starting traced), so one run yields the per-layer spans and the
    tracing overhead side by side.
    """
    out = Rounds()
    begin = time.perf_counter()
    i = 0
    while True:
        traced = tracer is not None and i % 2 == 0
        if tracer is not None:
            if on_toggle is not None:
                on_toggle(traced)
            tracer.active = traced
        cpu = time.process_time()
        start = time.perf_counter()
        work = one_round()
        end = time.perf_counter()
        cpu = time.process_time() - cpu
        if tracer is not None:
            tracer.active = False
        out.rounds.append(Round(start, end, traced, work, cpu))
        i += 1
        if end - begin >= seconds and i >= min_rounds * (1 if tracer is None else 2):
            break
    if tracer is not None and on_toggle is not None:
        on_toggle(False)
    return out


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}
