"""Calls into the program that more than one workload makes, and the
bookkeeping that turns their timings into metrics."""

from __future__ import annotations

import math
import time
from typing import Dict, List, Sequence, Tuple

import numpy as np

from harness import median

#: compile pass -> per-layer metric; repeated passes add up.
PASS_METRICS = {
    "ingest": "synth.ingest_s",
    "rebalance": "synth.rebalance_s",
    "simplify": "synth.simplify_s",
    "techmap": "synth.techmap_s",
    "balance": "synth.balance_s",
    "levelize": "compiler.levelize_s",
    "partition": "compiler.partition_s",
    "merge": "compiler.merge_s",
    "schedule": "compiler.schedule_s",
    "codegen": "compiler.codegen_s",
    "metrics": "compiler.metrics_s",
}

#: per-layer metrics of layers a workload does not use read 0.
SERVING_METRICS = (
    "pipeline.serial_sps",
    "serve.throughput_sps",
    "serve.warmup_round_s",
    "serve.peak_rss_mb",
    "serve.infer_p50_ms",
    "serve.mean_batch_requests",
    "serve.wait_p50_ms",
    "serve.busiest_stage_occupancy",
    "fabric.lone_p50_ms",
    "fabric.lone_p99_ms",
    "fabric.paced_p50_ms",
    "fabric.paced_p99_ms",
    "fabric.paced_lateness_p50_ms",
    "fabric.saturation_rps",
    "fabric.node_total_p50_ms",
    "fabric.node_admission_p50_ms",
    "fabric.outside_node_p50_ms",
    "fabric.encode_us",
)


class Samples:
    """Repeated measurements per (program, metric).  A metric's figure is
    the sum over programs of each program's median, so one slow
    repetition of one program moves it by at most that program's share."""

    def __init__(self) -> None:
        self._data: Dict[Tuple[str, str], List[float]] = {}

    def add(self, program: str, metric: str, value: float) -> None:
        self._data.setdefault((program, metric), []).append(value)

    def total(self, metric: str) -> float:
        return sum(
            median(values)
            for (_, name), values in self._data.items()
            if name == metric
        )

    def every(self, metric: str) -> List[float]:
        return [v for (_, name), values in self._data.items()
                if name == metric for v in values]


def compile_program(graph, tracer, samples: Samples, program: str):
    """Compile ``graph`` through the ``paper`` pipeline and package it as
    an ``.lpa``; records compile, package and per-pass times.  Returns
    (compile result, artifact, bytes, seconds spent)."""
    from repro.artifact import ExecutableArtifact
    from repro.core.compiler import compile_ffcl

    start = time.perf_counter()
    with tracer.span("compiler.compile_ffcl"):
        result = compile_ffcl(graph, pipeline="paper")
    compiled = time.perf_counter()
    with tracer.span("artifact.package"):
        artifact = ExecutableArtifact.from_compile(result)
        data = artifact.to_bytes()
    packaged = time.perf_counter()
    samples.add(program, "compile_s", packaged - start)
    samples.add(program, "artifact.package_s", packaged - compiled)
    passes: Dict[str, float] = {}
    for record in result.pass_records:
        metric = PASS_METRICS[record.name]
        passes[metric] = passes.get(metric, 0.0) + record.seconds
    for metric, seconds in passes.items():
        samples.add(program, metric, seconds)
    return result, artifact, data, packaged - start


def decode(data: bytes, tracer, samples: Samples, program: str):
    """Decode ``.lpa`` bytes, then re-encode the decoded artifact; returns
    (decoded artifact, re-encoded bytes, seconds spent decoding)."""
    from repro.artifact import load_artifact_bytes

    start = time.perf_counter()
    with tracer.span("artifact.decode"):
        decoded = load_artifact_bytes(data)
    decoded_at = time.perf_counter()
    with tracer.span("artifact.encode"):
        again = decoded.to_bytes()
    samples.add(program, "artifact.decode_s", decoded_at - start)
    samples.add(program, "artifact.encode_s", time.perf_counter() - decoded_at)
    return decoded, again, decoded_at - start


def compile_counts(results: Sequence) -> Dict[str, float]:
    """Compiler counts summed over the programs of one model."""
    return {
        "compiler.mfgs_before_merge": float(
            sum(r.metrics.mfgs_before_merge for r in results)),
        "compiler.mfgs_after_merge": float(
            sum(r.metrics.mfgs_after_merge for r in results)),
        "compiler.makespan_cycles": float(
            sum(r.schedule.makespan for r in results)),
        "compiler.compute_instructions": float(
            sum(r.metrics.compute_instructions or 0 for r in results)),
    }


def layer_cycles(makespan: int, scale: float, positions: int, config) -> float:
    """LPU macro-cycles per image of one layer under the Section IV
    packing: a conv layer fills the 2m bit lanes with one image's
    positions, a dense layer with 2m images.  ``scale`` is the layer's
    neurons over the neurons compiled."""
    full = math.ceil(makespan * scale)
    if positions == 1:
        return full / config.word_bits
    return float(full * math.ceil(positions / config.word_bits))


def fps(cycles: float, config) -> float:
    return config.frequency_hz / (config.t_c * cycles)


def stage_sps(session, words: int, seed: int, repeats: int = 5) -> float:
    """Samples per second of ``session.run`` on its own ``words``-word
    input (median of ``repeats`` runs after one warm-up run)."""
    graph = session.graph
    rng = np.random.default_rng(seed)
    stim = {
        graph.input_name(nid): rng.integers(
            0, 2**64, size=words, dtype=np.uint64)
        for nid in graph.inputs
    }
    session.run(stim)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        session.run(stim)
        times.append(time.perf_counter() - start)
    return 64 * words / median(times)


def run_us(session, inputs, repeats: int = 50) -> float:
    """Median microseconds of a one-word ``session.run``."""
    session.run(inputs)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        session.run(inputs)
        times.append(time.perf_counter() - start)
    return median(times) * 1e6


def save_arrays(path: str, arrays: Dict[str, np.ndarray]) -> None:
    np.savez(path, **arrays)


def program_inputs(artifact) -> List[str]:
    graph = artifact.program.graph
    return [graph.input_name(nid) for nid in graph.inputs]
