"""Declarative layer graphs: a node table and the one loop that runs it.

Every executor of a detector interprets the same :class:`Graph` through
:meth:`Graph.run` and differs only in the ``run_node`` callable that
applies one node: modules for the autodiff forward, pre-sized executors
for the compiled fp and int8 plans (:mod:`repro.nn.lowering`).
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple, Optional, Tuple

__all__ = ["INPUT", "WEIGHTED", "Node", "Graph"]

#: Name under which a node reads the graph input.
INPUT = "input"
#: Ops that own weights; the observation hook fires at these.
WEIGHTED = ("conv", "head")


class Node(NamedTuple):
    """``op`` applied to the named ``inputs``. Ops and their ``args``:
    ``conv`` (base channels, kernel), ``head``, ``pool`` (kernel, stride),
    ``upsample`` (scale) and ``concat``."""

    name: str
    op: str
    inputs: Tuple[str, ...]
    args: Tuple[int, ...] = ()


class Graph:
    """A node table in execution order; its ``head`` nodes are the outputs."""

    def __init__(self, nodes: Iterable[Node]):
        self.nodes = tuple(nodes)
        self.outputs = self.names("head")
        # Drop each value after its last reader so a forward holds no more
        # live activations than a hand-written one would.
        last_read = {name: index for index, node in enumerate(self.nodes)
                     for name in node.inputs}
        self._release = tuple(
            tuple(name for name in node.inputs if last_read[name] == index)
            for index, node in enumerate(self.nodes))

    def names(self, op: str) -> Tuple[str, ...]:
        """Names of the nodes of one op, in table order."""
        return tuple(node.name for node in self.nodes if node.op == op)

    def run(self, x, run_node: Callable, hook: Optional[Callable] = None):
        """Apply ``run_node(node, *inputs)`` to every node in table order
        and return the head outputs. ``hook(name, input, output)``, when
        given, observes every weighted node."""
        values = {INPUT: x}
        for node, release in zip(self.nodes, self._release):
            inputs = [values[name] for name in node.inputs]
            out = values[node.name] = run_node(node, *inputs)
            if hook is not None and node.op in WEIGHTED:
                hook(node.name, inputs[0], out)
            for name in release:
                del values[name]
        return tuple(values[name] for name in self.outputs)
