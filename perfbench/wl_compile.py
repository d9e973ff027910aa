"""compile-vgg16: compile, package and decode the sampled VGG16 conv2-13
blocks, cold, through the ``paper`` pipeline.

One round compiles every block once; rounds repeat until the run's time is
spent.  An operation is one block compiled to a decoded ``.lpa``.  Engines
and the serving stack do no timed work here: they only check the decoded
programs after the timed rounds.
"""

from __future__ import annotations

import os
import time

import common
import netlists
import oracle
from harness import HERE, Tracer, boot_times, median, peak_rss_mb

BOOTS = 5
CHECK_WORDS = 4


def run(seed: int, seconds: float, tracer: Tracer, work: str, ledger):
    from repro.engine.session import Session

    blocks = netlists.vgg16_blocks(seed)
    graphs = [netlists.to_logic_graph(block) for block in blocks]
    samples = common.Samples()
    # Warm the imports and first-call paths before anything is timed.
    common.compile_program(graphs[0], Tracer(False), common.Samples(), "-")

    first = {}  # block -> (result, bytes, decoded) of round 0
    traced, untraced = [], []
    started = time.perf_counter()
    rounds = 0
    while True:
        # In a traced run every other round is untraced, so the run can
        # report what tracing costs.
        enabled = tracer.enabled
        tracer.enabled = enabled and rounds % 2 == 0
        for block, graph in zip(blocks, graphs):
            with tracer.span("op", request=rounds):
                try:
                    result, _, data, compile_s = common.compile_program(
                        graph, tracer, samples, block.name)
                    decoded, again, decode_s = common.decode(
                        data, tracer, samples, block.name)
                except Exception as exc:  # noqa: BLE001 - counted, reported
                    ledger.attempt(ok=False, why=f"{block.name}: {exc!r}")
                    continue
            ledger.attempt()
            op = compile_s + decode_s
            samples.add(block.name, "op_s", op)
            (traced if tracer.enabled else untraced).append(op)
            ledger.check(again == data,
                         f"{block.name}: decoded .lpa re-encodes differently")
            ledger.check(
                result.metrics.mfgs_after_merge
                <= result.metrics.mfgs_before_merge,
                f"{block.name}: merging raised the MFG count")
            if block.name not in first:
                first[block.name] = (result, data, decoded)
            else:
                ledger.check(data == first[block.name][1],
                             f"{block.name}: compile is not deterministic")
        tracer.enabled = enabled
        rounds += 1
        if time.perf_counter() - started >= seconds:
            break

    # Check every compiled block against the oracle and the cycle model.
    folder = os.path.join(work, "blocks")
    os.makedirs(folder)
    expected = {}
    stage_rows = []
    config = None
    results = []
    for i, block in enumerate(blocks):
        result, data, decoded = first[block.name]
        results.append(result)
        config = result.config
        names = common.program_inputs(decoded)
        stim = oracle.stimulus(block.inputs, CHECK_WORDS, seed * 7919 + i)
        want = oracle.evaluate(block, stim)
        feed = {name: stim[name] for name in names}
        start = time.perf_counter()
        with tracer.span("engine.build"):
            session = Session(decoded)
        samples.add(block.name, "engine.build_s", time.perf_counter() - start)
        ledger.check(oracle.same(session.run(feed).outputs, want),
                     f"{block.name}: engine answer differs from the oracle")
        cycle = Session(decoded, engine="cycle")
        one = {name: words[:1] for name, words in feed.items()}
        ledger.check(
            cycle.run(one).macro_cycles == result.schedule.makespan,
            f"{block.name}: cycle engine disagrees with the makespan")
        with open(os.path.join(folder, f"{block.name}.lpa"), "wb") as f:
            f.write(data)
        for name, words in feed.items():
            expected[f"{block.name}|in|{name}"] = words
        for name, words in want.items():
            expected[f"{block.name}|out|{name}"] = words
        if tracer.enabled:
            samples.add(block.name, "engine.run_us",
                        common.run_us(session, one))
            layer = netlists.VGG16[i]
            cycles = common.layer_cycles(
                result.schedule.makespan, layer.neurons / len(block.outputs),
                layer.positions, config)
            stage_rows.append((
                block.name, common.stage_sps(session, 256, seed),
                common.fps(cycles, config)))
    common.save_arrays(os.path.join(folder, "expected.npz"), expected)

    boot = boot_times(
        [os.path.join(HERE, "boot.py"), "blocks", folder], BOOTS, ledger)

    cycles = sum(
        common.layer_cycles(
            r.schedule.makespan, layer.neurons / len(block.outputs),
            layer.positions, config)
        for r, layer, block in zip(results, netlists.VGG16, blocks))
    ops = samples.every("op_s")
    end_to_end = {
        "setup_s": median([spent for spent, _ in boot]),
        "compile_s": samples.total("compile_s"),
        "modeled_fps": common.fps(cycles, config),
        "lpa_bytes": float(sum(len(first[b.name][1]) for b in blocks)),
        "peak_rss_mb": peak_rss_mb(),
        "latency_p50_ms": median(ops) * 1e3,
        "ops_per_s": len(ops) / sum(ops),
    }
    per_layer = {}
    if tracer.enabled:
        per_layer = {
            metric: samples.total(metric)
            for metric in common.PASS_METRICS.values()
        }
        per_layer.update(common.compile_counts(results))
        for metric in ("artifact.package_s", "artifact.encode_s",
                       "artifact.decode_s", "engine.build_s",
                       "engine.run_us"):
            per_layer[metric] = samples.total(metric)
        slowest = min(stage_rows, key=lambda row: row[1])
        per_layer["engine.slowest_stage_sps"] = slowest[1]
        per_layer["compiler.slowest_stage_modeled_fps"] = slowest[2]
        per_layer["trace.overhead_pct"] = (
            (median(traced) / median(untraced) - 1.0) * 100.0
            if traced and untraced else 0.0)
        per_layer.update({metric: 0.0 for metric in common.SERVING_METRICS})
    notes = [f"rounds {rounds}, blocks {len(blocks)}"] + [
        f"stage {name}: measured {sps:,.0f} samples/s, "
        f"modeled {mfps:,.0f} frames/s"
        for name, sps, mfps in stage_rows
    ]
    return end_to_end, per_layer, notes
