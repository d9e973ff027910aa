"""Tests of the benchmark itself (not collected by a bare ``pytest``):

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py

The evaluator is checked against every cell's truth table and against
``LogicGraph.evaluate`` on random DAGs; the generator for determinism; and
a short run of every workload for completing all of its checks.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import netlists  # noqa: E402
import oracle  # noqa: E402
from netlists import BINARY_OPS, UNARY_OPS, Netlist  # noqa: E402

# Bit patterns of a and b over the four input combinations 00, 01, 10, 11
# (a is the first fanin): the low four bits of each word.
_A = np.array([0b1100], dtype=np.uint64)
_B = np.array([0b1010], dtype=np.uint64)


@pytest.mark.parametrize("op", BINARY_OPS)
def test_binary_ops_match_cell_truth_tables(op):
    from repro.netlist.cells import TWO_INPUT_TT

    net = Netlist("one")
    a, b = net.add_input("a"), net.add_input("b")
    net.outputs.append(("y", net.gate(op, a, b)))
    word = int(oracle.evaluate(net, {"a": _A, "b": _B})["y"][0])
    # combination ab=00 sits at bit 0, 01 at bit 1, 10 at bit 2, 11 at 3.
    table = tuple((word >> bit) & 1 for bit in (0, 1, 2, 3))
    assert table == TWO_INPUT_TT[op]


@pytest.mark.parametrize("op", UNARY_OPS)
def test_unary_ops(op):
    net = Netlist("one")
    a = net.add_input("a")
    net.outputs.append(("y", net.gate(op, a)))
    word = int(oracle.evaluate(net, {"a": _A})["y"][0]) & 0xF
    assert word == (0b1100 if op == "buf" else 0b0011)


def _from_graph(graph) -> Netlist:
    net = Netlist(graph.name)
    signal = {}
    for nid in graph.inputs:
        signal[nid] = net.add_input(graph.input_name(nid))
    for nid in graph.topological_order():
        if nid not in signal:
            signal[nid] = net.gate(
                graph.op_of(nid), *(signal[f] for f in graph.fanins_of(nid)))
    net.outputs = [(name, signal[nid]) for name, nid in graph.outputs]
    return net


@pytest.mark.parametrize("seed", range(6))
def test_oracle_matches_logic_graph_on_random_dags(seed):
    from repro.netlist import random_dag

    graph = random_dag(12, 300, 10, seed=seed, locality=40 * (seed % 2))
    stim = oracle.stimulus(
        [graph.input_name(n) for n in graph.inputs], 8, seed)
    want = graph.evaluate(stim)
    got = oracle.evaluate(_from_graph(graph), stim)
    assert oracle.same(got, want) and set(got) == set(want)


def test_generated_netlists_round_trip_through_logic_graph():
    for net in netlists.mlp_stages(netlists.JSC_M, 4):
        stim = oracle.stimulus(net.inputs, 4, 1)
        assert oracle.same(
            netlists.to_logic_graph(net).evaluate(stim),
            oracle.evaluate(net, stim))


def test_generation_is_seeded_and_shape_stable():
    one = netlists.vgg16_blocks(7)
    assert [b.gates for b in one] == [b.gates for b in netlists.vgg16_blocks(7)]
    other = netlists.vgg16_blocks(8)
    assert [b.gates for b in one] != [b.gates for b in other]
    sizes = [len(b.gates) for b in one + other]
    assert max(sizes) < 1.1 * min(sizes)
    assert all(len(b.outputs) == netlists.VGG16_SAMPLE for b in one)


def test_chain_equals_flattened_netlist():
    stages = netlists.mlp_stages(netlists.JSC_L, 5)
    stim = oracle.stimulus(netlists.JSC_INPUTS, 3, 2)
    flat = netlists.flatten(stages, "jscl")
    assert oracle.same(oracle.chain(stages, stim), oracle.evaluate(flat, stim))
    assert set(oracle.chain(stages, stim)) > set(netlists.JSC_INPUTS)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.2",
         "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", ["compile-vgg16", "batch-jscl", "online-jscm"])
def test_short_run_completes_every_check(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace else "end_to_end"]
    assert result["correct"] is True, done.stdout
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = _run("online-jscm", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
