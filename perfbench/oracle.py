"""The independent reference: a bitwise evaluator over :mod:`netlists`.

It walks a benchmark netlist gate by gate with numpy bitwise operators on
packed ``uint64`` words (64 samples per word) and shares no code with the
program's synthesis, compiler or engines, so an answer that matches it is
checked against something the program cannot have got wrong in the same
way.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from netlists import Netlist

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

_OPS = {
    "buf": lambda a: a,
    "not": lambda a: a ^ _ONES,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "xnor": lambda a, b: (a ^ b) ^ _ONES,
    "nand": lambda a, b: (a & b) ^ _ONES,
    "nor": lambda a, b: (a | b) ^ _ONES,
}


def evaluate(
    net: Netlist, inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Output name -> packed words, for inputs of one common shape.

    A signal's words are dropped after the last gate that reads it, so
    memory follows the netlist's width, not its size."""
    width = len(net.inputs)
    keep = {s for _, s in net.outputs}
    last_read = {}
    for g, (_, fanins) in enumerate(net.gates):
        for f in fanins:
            last_read[f] = g
    values = [np.asarray(inputs[name], dtype=np.uint64)
              for name in net.inputs]
    for g, (op, fanins) in enumerate(net.gates):
        values.append(_OPS[op](*(values[f] for f in fanins)))
        for f in fanins:
            if last_read[f] == g and f not in keep:
                values[f] = None
        if width + g not in keep and width + g not in last_read:
            values[width + g] = None
    return {name: values[s] for name, s in net.outputs}


def chain(
    stages: Sequence[Netlist], inputs: Dict[str, np.ndarray]
) -> Dict[str, np.ndarray]:
    """Evaluate stage after stage, feeding each stage's outputs to the
    next stage's inputs of the same name; returns every signal by name:
    the inputs and each stage's outputs."""
    signals = dict(inputs)
    for stage in stages:
        signals.update(evaluate(stage, signals))
    return signals


def stimulus(
    names: Sequence[str], words: int, seed: int
) -> Dict[str, np.ndarray]:
    """Seeded random packed words for every named input."""
    rng = np.random.default_rng(seed)
    return {
        name: rng.integers(0, 2**64, size=words, dtype=np.uint64)
        for name in names
    }


def same(got: Dict[str, np.ndarray], want: Dict[str, np.ndarray]) -> bool:
    """Every expected output present and bit-identical."""
    return all(
        name in got
        and np.array_equal(np.asarray(got[name], dtype=np.uint64), words)
        for name, words in want.items()
    )
