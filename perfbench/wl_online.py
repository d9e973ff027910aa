"""online-jscm: JSC-M answered over HTTP.

JSC-M is compiled whole as one program in set-up and deployed with
``repro serve --artifact`` in its own process, with the CLI's defaults.
One generator process drives it over at most two connections with
1-word (64-sample) requests, in three phases:

* ``lone``: one connection, back to back;
* ``paced``: two connections in open loop at a fixed offered rate below
  saturation, each request timed from the moment it was due;
* ``saturation``: two connections in closed loop.

An operation is one HTTP inference request.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

import common
import netlists
import oracle
from harness import (
    NULL_SPAN, ROOT, Tracer, child_env, median, peak_rss_mb, percentile)

BOOTS = 5
DECODES = 5
#: compiles after each turn of the phases (one more runs in set-up).
COMPILES_PER_CYCLE = 2
POOL = 256
#: offered rate of the paced phase, requests/s: below what two
#: connections sustain on a 2-core host (about 500/s).
PACED_RPS = 200.0
#: share of the run's seconds given to each phase, and how many turns
#: the phases take.
LONE, PACED, SATURATION = 0.35, 0.4, 0.25
CYCLES = 5
CONNECTIONS = 2


class Node:
    """``repro serve --artifact FILE`` in its own process."""

    def __init__(self, lpa: str) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--artifact", lpa],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=child_env(), cwd=ROOT)
        line = self.proc.stdout.readline()
        if not line.startswith("fabric node ready at "):
            self.stop()
            raise RuntimeError(f"node did not start: {line!r}")
        self.url = line.split()[-1]

    def stop(self) -> int:
        """SIGTERM (drain), then the node's exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode


def run(seed: int, seconds: float, tracer: Tracer, work: str, ledger):
    from repro.engine.session import Session
    from repro.serve import InferenceServer, ServeConfig
    from repro.serve.fabric import FabricClient
    from repro.serve.fabric.wire import encode_request

    net = netlists.flatten(netlists.mlp_stages(netlists.JSC_M), "jscm")
    graph = netlists.to_logic_graph(net)
    samples = common.Samples()
    # Warm the imports and first-call paths before anything is timed.
    common.compile_program(graph, Tracer(False), common.Samples(), "-")
    result, _, data, _ = common.compile_program(
        graph, tracer, samples, "jscm")

    def compile_again():
        ledger.check(
            common.compile_program(graph, tracer, samples, "jscm")[2] == data,
            "compile is not deterministic")

    for _ in range(DECODES):
        decoded, again, _ = common.decode(data, tracer, samples, "jscm")
        ledger.check(again == data, "decoded .lpa re-encodes differently")
    ledger.check(
        result.metrics.mfgs_after_merge <= result.metrics.mfgs_before_merge,
        "merging raised the MFG count")
    config = result.config

    names = common.program_inputs(decoded)
    stim = oracle.stimulus(net.inputs, POOL, seed)
    want = oracle.evaluate(net, stim)
    requests = [{pi: stim[pi][i:i + 1] for pi in names} for i in range(POOL)]
    expected = [{po: w[i:i + 1] for po, w in want.items()}
                for i in range(POOL)]
    cycle = Session(decoded, engine="cycle")
    ledger.check(cycle.run(requests[0]).macro_cycles
                 == result.schedule.makespan,
                 "cycle engine disagrees with the makespan")
    lpa = os.path.join(work, "jscm.lpa")
    with open(lpa, "wb") as f:
        f.write(data)

    answers = []  # (request index, result) to check after timing
    answers_lock = threading.Lock()

    def infer(client, i, trace_it=True):
        """One request; returns seconds taken, or None if it failed."""
        start = time.perf_counter()
        try:
            with (tracer.span("fabric.infer", request=i) if trace_it
                  else NULL_SPAN):
                answer = client.infer(requests[i % POOL])
        except Exception as exc:  # noqa: BLE001 - counted, reported
            ledger.attempt(ok=False, why=f"request {i}: {exc!r}")
            return None
        spent = time.perf_counter() - start
        ledger.attempt()
        with answers_lock:
            answers.append((i % POOL, answer))
        return spent

    # Set-up: fresh node processes, each to its first correct answer.
    boot = []
    for b in range(BOOTS):
        start = time.perf_counter()
        try:
            node = Node(lpa)
        except (RuntimeError, OSError) as exc:
            ledger.attempt(ok=False, why=f"boot: {exc}")
            continue
        client = FabricClient(node.url)
        try:
            i = b % POOL
            if infer(client, i) is not None and oracle.same(
                    answers[-1][1].outputs, expected[i]):
                boot.append(time.perf_counter() - start)
        finally:
            client.close()
            ledger.check(node.stop() == 0,
                         "node did not exit 0 after SIGTERM")

    node = Node(lpa)
    clients = [FabricClient(node.url, client_id=f"gen{j}")
               for j in range(CONNECTIONS)]
    try:
        first = infer(clients[0], 0)
        for i in range(100):  # warm-up, lone
            infer(clients[0], i)
        _closed_loop(clients, infer, 0.5)  # warm-up, concurrent

        # The phases take turns, CYCLES times, so a slow spell of the
        # host lands on every phase instead of all on one.
        lone, lone_traced, lone_untraced = [], [], []
        node_total, admission, outside = [], [], []
        paced, lateness, saturation = [], [], []
        sat_requests = sat_batches = 0
        i = 0
        for _ in range(CYCLES):
            # lone: in a traced run every other request goes untraced.
            deadline = time.perf_counter() + LONE * seconds / CYCLES
            while time.perf_counter() < deadline:
                traced = tracer.enabled and i % 2 == 0
                spent = infer(clients[0], i, traced)
                if spent is not None:
                    lone.append(spent)
                    (lone_traced if traced else lone_untraced).append(spent)
                    latency = clients[0].last_latency
                    node_total.append(latency["total_ms"])
                    admission.append(latency["admission_ms"])
                    outside.append(spent * 1e3 - latency["total_ms"])
                i += 1
            got, late = _paced(
                clients, infer, int(PACED_RPS * PACED * seconds / CYCLES))
            paced += got
            lateness += late
            before = clients[0].stats()["server"]["scheduler"]
            done, spent = _closed_loop(
                clients, infer, SATURATION * seconds / CYCLES)
            after = clients[0].stats()["server"]["scheduler"]
            saturation.append(done / spent if done else 0.0)
            sat_requests += after["requests"] - before["requests"]
            sat_batches += after["batches"] - before["batches"]
            # Compiles are spread over the run, so compile_s sees the host
            # over the whole run, as the phases do.
            for _ in range(COMPILES_PER_CYCLE):
                compile_again()
        stats = clients[0].stats()
        rss = peak_rss_mb(node.proc.pid)
    finally:
        for client in clients:
            client.close()
        ledger.check(node.stop() == 0, "node did not exit 0 after SIGTERM")

    for i, answer in answers:
        ledger.check(oracle.same(answer.outputs, expected[i]),
                     f"request {i}: answer differs from the oracle")
    saturation_rps = median(saturation)
    end_to_end = {
        "setup_s": median(boot),
        "compile_s": samples.total("compile_s"),
        "modeled_fps": common.fps(
            common.layer_cycles(result.schedule.makespan, 1.0, 1, config),
            config),
        "lpa_bytes": float(len(data)),
        "peak_rss_mb": rss,
        "latency_p50_ms": median(lone) * 1e3,
        "ops_per_s": saturation_rps,
    }
    serving = stats["serving"]
    notes = [
        f"node config: {serving['num_workers']} {serving['backend']} "
        f"worker(s), max_batch {serving['max_batch_size']}, max_wait "
        f"{serving['max_wait_ms']} ms, engine {serving['engine']}",
        f"{CYCLES} cycles: lone {len(lone)} requests, paced {len(paced)} "
        f"at {PACED_RPS:g}/s, saturation "
        f"{', '.join(f'{rps:.0f}' for rps in saturation)} req/s",
    ]
    per_layer = {}
    if tracer.enabled:
        sched = stats["server"]["scheduler"]
        session_build = []
        for _ in range(5):
            start = time.perf_counter()
            with tracer.span("engine.build"):
                session = Session(decoded)
            session_build.append(time.perf_counter() - start)
        encode = []
        for i in range(1000):
            start = time.perf_counter()
            encode_request(requests[i % POOL])
            encode.append(time.perf_counter() - start)
        effective = ServeConfig(
            engine=serving["engine"],
            num_workers=serving["num_workers"],
            max_batch_size=serving["max_batch_size"],
            max_wait_ms=serving["max_wait_ms"])
        infer_ms = []
        with InferenceServer(decoded, serving=effective) as server:
            for i in range(300):
                start = time.perf_counter()
                with tracer.span("serve.infer", request=i):
                    answer = server.infer(requests[i % POOL])
                infer_ms.append((time.perf_counter() - start) * 1e3)
                ledger.attempt()
                ledger.check(oracle.same(answer.outputs, expected[i % POOL]),
                             f"infer {i}: answer differs from the oracle")
        sps = common.stage_sps(session, 256, seed)
        modeled = end_to_end["modeled_fps"]
        per_layer = {metric: samples.total(metric)
                     for metric in common.PASS_METRICS.values()}
        per_layer.update(common.compile_counts([result]))
        for metric in ("artifact.package_s", "artifact.encode_s",
                       "artifact.decode_s"):
            per_layer[metric] = samples.total(metric)
        per_layer.update({
            "engine.build_s": median(session_build),
            "engine.run_us": common.run_us(session, requests[0]),
            "engine.slowest_stage_sps": sps,
            "compiler.slowest_stage_modeled_fps": modeled,
            "pipeline.serial_sps": 0.0,
            "serve.throughput_sps": saturation_rps * 64,
            "serve.warmup_round_s": first if first is not None else 0.0,
            "serve.peak_rss_mb": rss,
            "serve.infer_p50_ms": median(infer_ms),
            "serve.mean_batch_requests": (
                sat_requests / sat_batches if sat_batches else 0.0),
            "serve.wait_p50_ms": sched["wait_p50_ms"],
            "serve.busiest_stage_occupancy": 0.0,
            "fabric.lone_p50_ms": median(lone) * 1e3,
            "fabric.lone_p99_ms": percentile(lone, 99) * 1e3,
            "fabric.paced_p50_ms": median(paced) * 1e3,
            "fabric.paced_p99_ms": percentile(paced, 99) * 1e3,
            "fabric.paced_lateness_p50_ms": median(lateness) * 1e3,
            "fabric.saturation_rps": saturation_rps,
            "fabric.node_total_p50_ms": median(node_total),
            "fabric.node_admission_p50_ms": median(admission),
            "fabric.outside_node_p50_ms": median(outside),
            "fabric.encode_us": median(encode) * 1e6,
            "trace.overhead_pct": (
                (median(lone_traced) / median(lone_untraced) - 1.0) * 100.0
                if lone_traced and lone_untraced else 0.0),
        })
        notes.append(f"stage jscm: measured {sps:,.0f} samples/s, "
                     f"modeled {modeled:,.0f} frames/s")
    return end_to_end, per_layer, notes


def _closed_loop(clients, infer, seconds):
    """Every client sends back to back until ``seconds`` pass; returns
    (requests answered, seconds from start to the last answer)."""
    start = time.perf_counter()
    deadline = start + seconds
    done = [0] * len(clients)
    last = [start] * len(clients)

    def drive(j):
        i = j
        while time.perf_counter() < deadline:
            if infer(clients[j], i) is not None:
                done[j] += 1
                last[j] = time.perf_counter()
            i += len(clients)

    _in_threads(drive, len(clients))
    return sum(done), max(last) - start


def _paced(clients, infer, count):
    """``count`` requests offered at :data:`PACED_RPS`, request ``i`` due
    at ``i / PACED_RPS`` and sent by client ``i % len(clients)``; returns
    (latencies from each due time, how late each was sent)."""
    latencies, lateness = [], []
    lock = threading.Lock()
    start = time.perf_counter() + 0.01

    def drive(j):
        for i in range(j, count, len(clients)):
            due = start + i / PACED_RPS
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
            sent = time.perf_counter()
            if infer(clients[j], i) is not None:
                finished = time.perf_counter()
                with lock:
                    latencies.append(finished - due)
                    lateness.append(sent - due)

    _in_threads(drive, len(clients))
    return latencies, lateness


def _in_threads(target, count):
    threads = [threading.Thread(target=target, args=(j,), daemon=True)
               for j in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
