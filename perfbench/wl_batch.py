"""batch-jscl: the whole JSC-L model served offline.

The six layers are compiled in set-up and packaged as one format-v2 bundle,
stage k's outputs wired to stage k+1's inputs by name.  The timed part
serves rounds of 64 requests of 256 words each through
``InferenceServer(bundle).map`` with the default ``ServeConfig`` (the stage
pipeline path).  An operation is one request.
"""

from __future__ import annotations

import os
import time

import common
import netlists
import oracle
from harness import HERE, Tracer, boot_times, median, peak_rss_mb

BOOTS = 5
COMPILES = 5
DECODES = 5
REQUESTS = 64
WORDS = 256
SAMPLES_PER_ROUND = REQUESTS * WORDS * 64


def _package(graphs, tracer, samples):
    from repro.artifact import ArtifactBundle

    results, members = [], []
    for k, graph in enumerate(graphs):
        result, artifact, _, _ = common.compile_program(
            graph, tracer, samples, f"stage{k + 1}")
        results.append(result)
        members.append(artifact)
    start = time.perf_counter()
    with tracer.span("artifact.bundle"):
        bundle = ArtifactBundle.from_members(members, name="jscl")
        data = bundle.to_bytes()
    spent = time.perf_counter() - start
    samples.add("bundle", "compile_s", spent)
    samples.add("bundle", "artifact.package_s", spent)
    return results, data


def run(seed: int, seconds: float, tracer: Tracer, work: str, ledger):
    from repro.engine.session import Session
    from repro.pipeline import SerialChainRunner
    from repro.serve import InferenceServer

    stages = netlists.mlp_stages(netlists.JSC_L)
    graphs = [netlists.to_logic_graph(stage) for stage in stages]
    samples = common.Samples()
    # Warm the imports and first-call paths before anything is timed.
    common.compile_program(graphs[0], Tracer(False), common.Samples(), "-")
    results, data = _package(graphs, tracer, samples)
    for _ in range(DECODES):
        bundle, again, _ = common.decode(data, tracer, samples, "bundle")
        ledger.check(again == data, "decoded bundle re-encodes differently")
    config = results[0].config

    # Requests and their expected answers, from the oracle.
    stim = oracle.stimulus(netlists.JSC_INPUTS, REQUESTS * WORDS, seed)
    signals = oracle.chain(stages, stim)
    stage_inputs = [{pi: signals[pi][:1] for pi in stage.inputs}
                    for stage in stages]
    want = {name: signals[name] for name, _ in stages[-1].outputs}
    external = bundle.external_inputs
    requests, expected = [], []
    for i in range(REQUESTS):
        part = slice(i * WORDS, (i + 1) * WORDS)
        requests.append({pi: stim[pi][part] for pi in external})
        expected.append({po: words[part] for po, words in want.items()})

    for k, (result, member) in enumerate(zip(results, bundle.members)):
        ledger.check(
            result.metrics.mfgs_after_merge
            <= result.metrics.mfgs_before_merge,
            f"stage {k + 1}: merging raised the MFG count")
        cycle = Session(member, engine="cycle")
        one = {pi: stage_inputs[k][pi] for pi in common.program_inputs(member)}
        ledger.check(
            cycle.run(one).macro_cycles == result.schedule.makespan,
            f"stage {k + 1}: cycle engine disagrees with the makespan")

    folder = os.path.join(work, "bundle")
    os.makedirs(folder)
    with open(os.path.join(folder, "model.lpa"), "wb") as f:
        f.write(data)
    arrays = {f"model|in|{pi}": w for pi, w in requests[0].items()}
    arrays.update({f"model|out|{po}": w for po, w in expected[0].items()})
    common.save_arrays(os.path.join(folder, "expected.npz"), arrays)
    boot = boot_times(
        [os.path.join(HERE, "boot.py"), "bundle", folder], BOOTS, ledger)

    def serve_round(server, traced):
        enabled = tracer.enabled
        tracer.enabled = traced
        start = time.perf_counter()
        try:
            with tracer.span("serve.map"):
                answers = server.map(requests)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            for _ in requests:
                ledger.attempt(ok=False, why=f"map: {exc!r}")
            return None
        finally:
            tracer.enabled = enabled
        spent = time.perf_counter() - start
        for i, answer in enumerate(answers):
            ledger.attempt()
            ledger.check(oracle.same(answer.outputs, expected[i]),
                         f"request {i}: answer differs from the oracle")
        return spent

    rounds = {True: [], False: []}
    server = InferenceServer(bundle)
    try:
        warmup = serve_round(server, tracer.enabled)
        server.pool.executor.reset_stats()
        started = time.perf_counter()
        count = 0
        compiled = 1
        while True:
            # The other compiles are spread over the serving window, so
            # compile_s sees the host over the whole run, as the rounds do.
            if (compiled < COMPILES and time.perf_counter() - started
                    >= compiled * seconds / COMPILES):
                ledger.check(_package(graphs, tracer, samples)[1] == data,
                             "bundle compile is not deterministic")
                compiled += 1
            traced = tracer.enabled and count % 2 == 0
            spent = serve_round(server, traced)
            if spent is not None:
                rounds[traced].append(spent)
            count += 1
            if (compiled == COMPILES
                    and time.perf_counter() - started >= seconds):
                break
        stats = server.stats()
        infer_ms = []
        if tracer.enabled:
            for i in range(20):
                start = time.perf_counter()
                answer = server.infer(requests[i])
                infer_ms.append((time.perf_counter() - start) * 1e3)
                ledger.attempt()
                ledger.check(oracle.same(answer.outputs, expected[i]),
                             f"infer {i}: answer differs from the oracle")
    finally:
        server.close()

    every = rounds[True] + rounds[False]
    round_s = median(every)
    cycles = [common.layer_cycles(r.schedule.makespan, 1.0, 1, config)
              for r in results]
    end_to_end = {
        "setup_s": median([spent for spent, _ in boot]),
        "compile_s": samples.total("compile_s"),
        "modeled_fps": common.fps(sum(cycles), config),
        "lpa_bytes": float(len(data)),
        # The serving process's own peak is left to the per-layer
        # serve.peak_rss_mb: it depends on how the scheduler happens to
        # split requests into batches (see README, known faults).
        "peak_rss_mb": median([peak for _, peak in boot]),
        "latency_p50_ms": round_s * 1e3,
        "ops_per_s": REQUESTS / round_s,
    }
    notes = [f"rounds {len(every)} of {REQUESTS} x {WORDS}-word requests, "
             f"warm-up round {warmup or 0.0:.3f} s"]
    per_layer = {}
    if tracer.enabled:
        per_layer = {metric: samples.total(metric)
                     for metric in common.PASS_METRICS.values()}
        per_layer.update(common.compile_counts(results))
        rows = []
        for k, member in enumerate(bundle.members):
            start = time.perf_counter()
            with tracer.span("engine.build"):
                session = Session(member)
            samples.add(f"stage{k + 1}", "engine.build_s",
                        time.perf_counter() - start)
            one = {pi: stage_inputs[k][pi]
                   for pi in common.program_inputs(member)}
            samples.add(f"stage{k + 1}", "engine.run_us",
                        common.run_us(session, one))
            rows.append((member.program.graph.name,
                         common.stage_sps(session, WORDS, seed),
                         common.fps(cycles[k], config)))
        runner = SerialChainRunner(bundle)
        serial = []
        for _ in range(3):
            start = time.perf_counter()
            for request in requests:
                runner.run(request)
            serial.append(time.perf_counter() - start)
        for metric in ("artifact.package_s", "artifact.encode_s",
                       "artifact.decode_s", "engine.build_s",
                       "engine.run_us"):
            per_layer[metric] = samples.total(metric)
        slowest = min(rows, key=lambda row: row[1])
        per_layer.update({metric: 0.0 for metric in common.SERVING_METRICS})
        per_layer.update({
            "engine.slowest_stage_sps": slowest[1],
            "compiler.slowest_stage_modeled_fps": slowest[2],
            "pipeline.serial_sps": SAMPLES_PER_ROUND / median(serial),
            "serve.throughput_sps": SAMPLES_PER_ROUND / round_s,
            "serve.warmup_round_s": warmup or 0.0,
            "serve.peak_rss_mb": peak_rss_mb(),
            "serve.infer_p50_ms": median(infer_ms),
            "serve.mean_batch_requests": stats["scheduler"]["mean_batch"],
            "serve.wait_p50_ms": stats["scheduler"]["wait_p50_ms"],
            "serve.busiest_stage_occupancy": max(
                stage["busy_seconds"] for stage in stats["pool"]["stages"]
            ) / sum(every),
            "trace.overhead_pct": (
                (median(rounds[True]) / median(rounds[False]) - 1.0) * 100.0
                if rounds[True] and rounds[False] else 0.0),
        })
        notes += [f"stage {name}: measured {sps:,.0f} samples/s, "
                  f"modeled {mfps:,.0f} frames/s" for name, sps, mfps in rows]
    return end_to_end, per_layer, notes
