"""Run statistics carried by every solver result."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .cwexpr import AddEdges, Introduce, Node, Relabel, iter_preorder

_KIND_NAMES = {Introduce: "introduce", Relabel: "relabel", AddEdges: "add"}


@dataclass
class SolveStats:
    dp_nodes: int = 0
    reduce_calls: int = 0
    max_cell_entries: int = 0
    elapsed_ms: float = 0.0
    peak_states: int = 0
    total_states: int = 0
    node_kinds: Counter = field(default_factory=Counter)

    def count_nodes(self, root: Node) -> None:
        """Node counts by kind: the DP builds one table per expression node."""
        self.node_kinds.update(_KIND_NAMES.get(type(node), "union")
                               for node in iter_preorder(root))
        self.dp_nodes = self.node_kinds.total()

    def observe_table(self, table: dict) -> dict:
        """Count a node's table states; returns the table."""
        self.total_states += len(table)
        if len(table) > self.peak_states:
            self.peak_states = len(table)
        return table

    def observe_cell(self, size: int) -> None:
        if size > self.max_cell_entries:
            self.max_cell_entries = size

    def as_dict(self) -> dict:
        return {
            "dp_nodes": self.dp_nodes,
            "max_cell_entries": self.max_cell_entries,
            "reduce_calls": self.reduce_calls,
            "peak_states": self.peak_states,
            "total_states": self.total_states,
            "elapsed_ms": round(self.elapsed_ms, 3),
        }
