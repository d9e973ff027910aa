"""Input netlists for the benchmark, built without the program.

Every netlist is a NullaNet-style block: each neuron reads a random support
of ``fan_in`` bits and computes a random sum of products over it (``cubes``
product terms of ``literals`` literals each, with random polarities),
realised as balanced AND trees under a balanced OR tree.  The shape of
every neuron (cube and literal counts) is fixed per model, so a seed
changes which bits and polarities a neuron uses but hardly the size of the
block.

The VGG16 blocks are drawn from the run's seed: they are the input of a
compile workload.  The two JSC models are drawn once, from
:data:`MODEL_SEED`: they are the model a serving workload deploys, and the
run's seed draws the requests sent to it.  (JSC-M is small enough that
redrawing it per seed moved its modeled FPS by 6-12% between seeds, which
would hide real changes.)

The netlists live in the benchmark's own :class:`Netlist` representation
(a flat gate list in topological order), which the independent evaluator
in :mod:`oracle` walks; :func:`to_logic_graph` hands the same gates to the
program under test.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

#: opcode strings, as the program's cell library spells them.
UNARY_OPS = ("buf", "not")
BINARY_OPS = ("and", "or", "xor", "xnor", "nand", "nor")


@dataclass
class Netlist:
    """A combinational netlist: signals ``0..len(inputs)-1`` are the
    primary inputs, signal ``len(inputs) + i`` is ``gates[i]``."""

    name: str
    inputs: List[str] = field(default_factory=list)
    #: (op, fanin signals) in topological order.
    gates: List[Tuple[str, Tuple[int, ...]]] = field(default_factory=list)
    #: (output name, signal).
    outputs: List[Tuple[str, int]] = field(default_factory=list)

    def add_input(self, name: str) -> int:
        if self.gates:
            raise ValueError("declare every input before the first gate")
        self.inputs.append(name)
        return len(self.inputs) - 1

    def gate(self, op: str, *fanins: int) -> int:
        arity = 1 if op in UNARY_OPS else 2
        if op not in UNARY_OPS + BINARY_OPS or len(fanins) != arity:
            raise ValueError(f"bad gate {op}{fanins}")
        if any(not 0 <= f < self.num_signals for f in fanins):
            raise ValueError(f"gate {op}{fanins} reads an undefined signal")
        self.gates.append((op, tuple(fanins)))
        return self.num_signals - 1

    @property
    def num_signals(self) -> int:
        return len(self.inputs) + len(self.gates)


# ----------------------------------------------------------------------
# Model shapes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Layer:
    """One layer: ``neurons`` outputs, each over ``fan_in`` of the
    layer's ``input_bits`` input bits, applied at ``positions`` spatial
    positions per image (1 for a dense layer)."""

    name: str
    neurons: int
    fan_in: int
    input_bits: int
    positions: int
    cubes: int
    literals: int


def _vgg16_layers() -> List[Layer]:
    """VGG16 conv2-13 at CIFAR-10 resolution (the range the paper
    compiles), 3x3 kernels, pruned fan-in 10."""
    plan = [64, 64, 128, 128, 256, 256, 256, 512, 512, 512, 512, 512, 512]
    pools = {1, 3, 6, 9, 12}
    layers, hw, channels = [], 32, 3
    for i, out in enumerate(plan):
        if i > 0:
            layers.append(
                Layer(f"conv{i + 1}", out, 10, 9 * channels, hw * hw, 6, 4)
            )
        channels = out
        if i in pools:
            hw //= 2
    return layers


def _mlp(prefix: str, widths, fan_in, cubes, literals) -> List[Layer]:
    layers, prev = [], 48  # JSC: 16 features x 3 bits
    for i, width in enumerate(widths):
        layers.append(
            Layer(f"{prefix}{i + 1}", width, fan_in, prev, 1, cubes, literals)
        )
        prev = width
    return layers


#: VGG16 conv2-13: 64 neurons sampled per layer (one block each).
VGG16 = _vgg16_layers()
VGG16_SAMPLE = 64
#: JSC-L, the whole model: 32-64-192-192-16-5, fan-in 7.
JSC_L = _mlp("l", [32, 64, 192, 192, 16, 5], 7, 3, 3)
#: JSC-M, the whole model: 64-32-32-32-5, fan-in 4.
JSC_M = _mlp("m", [64, 32, 32, 32, 5], 4, 2, 2)
JSC_INPUTS = [f"x{i}" for i in range(48)]
#: the seed the served JSC models are drawn from.
MODEL_SEED = 0


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def _tree(net: Netlist, op: str, signals: Sequence[int]) -> int:
    level = list(signals)
    while len(level) > 1:
        nxt = [net.gate(op, level[i], level[i + 1])
               for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def _neuron(rng: random.Random, net: Netlist, support, layer: Layer) -> int:
    inverted: Dict[int, int] = {}
    terms = []
    for _ in range(layer.cubes):
        literals = []
        for s in rng.sample(support, layer.literals):
            if rng.random() < 0.5:
                if s not in inverted:
                    inverted[s] = net.gate("not", s)
                s = inverted[s]
            literals.append(s)
        terms.append(_tree(net, "and", literals))
    return _tree(net, "or", terms)


def layer_netlist(
    layer: Layer,
    input_names: Sequence[str],
    seed: int,
    neurons: int = 0,
) -> Netlist:
    """The first ``neurons`` (default all) neurons of ``layer`` over the
    named input space; PIs are only the bits some neuron reads, in input
    order, and outputs are ``{layer.name}_n{j}``."""
    rng = random.Random(f"{seed}:{layer.name}")
    count = neurons or layer.neurons
    supports = [
        rng.sample(range(len(input_names)), layer.fan_in)
        for _ in range(count)
    ]
    used = sorted({bit for support in supports for bit in support})
    net = Netlist(layer.name)
    signal = {bit: net.add_input(input_names[bit]) for bit in used}
    for j, support in enumerate(supports):
        out = _neuron(rng, net, [signal[b] for b in support], layer)
        net.outputs.append((f"{layer.name}_n{j}", out))
    return net


def vgg16_blocks(seed: int, sample: int = VGG16_SAMPLE) -> List[Netlist]:
    """One sampled block per VGG16 layer conv2-13."""
    return [
        layer_netlist(
            layer, [f"in{i}" for i in range(layer.input_bits)], seed, sample
        )
        for layer in VGG16
    ]


def mlp_stages(layers: Sequence[Layer], seed: int = MODEL_SEED
               ) -> List[Netlist]:
    """One netlist per layer; layer k's PIs are named after layer k-1's
    outputs, so the stages chain by name."""
    stages, names = [], JSC_INPUTS
    for layer in layers:
        net = layer_netlist(layer, names, seed)
        stages.append(net)
        names = [f"{layer.name}_n{j}" for j in range(layer.neurons)]
    return stages


def flatten(stages: Sequence[Netlist], name: str) -> Netlist:
    """The stages composed into one netlist (stage k+1 reads stage k's
    outputs by name); outputs are the last stage's."""
    net = Netlist(name)
    signal: Dict[str, int] = {}
    for pi in stages[0].inputs:
        signal[pi] = net.add_input(pi)
    for stage in stages:
        local = [signal[pi] for pi in stage.inputs]
        for op, fanins in stage.gates:
            local.append(net.gate(op, *(local[f] for f in fanins)))
        for out_name, s in stage.outputs:
            signal[out_name] = local[s]
    net.outputs = [(n, signal[n]) for n, _ in stages[-1].outputs]
    return net


def to_logic_graph(net: Netlist):
    """The same gates as a :class:`repro.netlist.LogicGraph`."""
    from repro.netlist import LogicGraph

    graph = LogicGraph(net.name)
    ids = [graph.add_input(name) for name in net.inputs]
    for op, fanins in net.gates:
        ids.append(graph.add_gate(op, *(ids[f] for f in fanins)))
    for name, s in net.outputs:
        graph.set_output(name, ids[s])
    return graph
