"""Directed graphs for consensus runs.

Nodes are labelled 1..n.  An edge is an ordered pair (j, i) meaning node i
can send to node j, so j is a receiver of i.  This matches the convention
used throughout the package: column i of a weight matrix belongs to sender i.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

Edge = tuple[int, int]


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph on nodes 1..n with edge set {(receiver, sender)}."""

    n: int
    edges: frozenset[Edge]

    @cached_property
    def out_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Map sender -> sorted receivers."""
        out: dict[int, list[int]] = {i: [] for i in self.nodes}
        for j, i in self.edges:
            out[i].append(j)
        return {i: tuple(sorted(v)) for i, v in out.items()}

    @cached_property
    def in_neighbors(self) -> dict[int, tuple[int, ...]]:
        """Map receiver -> sorted senders."""
        inc: dict[int, list[int]] = {i: [] for i in self.nodes}
        for j, i in self.edges:
            inc[j].append(i)
        return {j: tuple(sorted(v)) for j, v in inc.items()}

    @property
    def nodes(self) -> range:
        return range(1, self.n + 1)

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def edge_position(self) -> dict[Edge, int]:
        """Index of each edge in sorted_edges, which is the edge axis of a trace."""
        return {edge: e for e, edge in enumerate(self.sorted_edges)}

    @cached_property
    def weight_slots(self) -> np.ndarray:
        """Flat indices into an n x n weight matrix: entry [j-1, i-1] of each
        edge (j, i) in sorted_edges order, then the n diagonal entries."""
        edges = np.array(self.sorted_edges, dtype=np.intp).reshape(-1, 2) - 1
        slots = np.concatenate([edges[:, 0] * self.n + edges[:, 1], np.arange(self.n) * (self.n + 1)])
        slots.flags.writeable = False
        return slots

    @cached_property
    def out_edges(self) -> dict[int, tuple[int, ...]]:
        """Map sender -> positions in sorted_edges of its out-edges, in sorted receiver order."""
        return {i: tuple(self.edge_position[(j, i)] for j in self.out_neighbors[i]) for i in self.nodes}


def build_digraph(n: int, edges) -> Digraph:
    """Validate and build a Digraph.

    Raises ValueError naming n or edges[t] when n is not an integer >= 1 (a
    bool, a float or a string is not), an edge is not a pair of integers,
    an endpoint lies outside 1..n, or an edge is a self-loop.  Duplicate
    edges collapse silently.
    """
    if type(n) is not int or n < 1:
        raise ValueError(f"n: need an integer number of nodes >= 1, got {n!r}")
    edge_set = set()
    for t, pair in enumerate(edges):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2 or any(type(v) is not int for v in pair):
            raise ValueError(f"edges[{t}]: must be a pair of integers (receiver, sender), got {pair!r}")
        j, i = pair
        if not (1 <= j <= n) or not (1 <= i <= n):
            raise ValueError(f"edges[{t}]: edge ({j}, {i}) has endpoint outside 1..{n}")
        if j == i:
            raise ValueError(f"edges[{t}]: self-loop ({j}, {i}) not allowed; self-weights are implicit")
        edge_set.add((j, i))
    return Digraph(n=n, edges=frozenset(edge_set))


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every node is reachable from node 1 and reaches node 1.

    One search from node 1 over out_neighbors and one over in_neighbors; a
    single-node graph with no edges counts as strongly connected.
    """
    for neighbors in (g.out_neighbors, g.in_neighbors):
        seen = {1}
        frontier = [1]
        while frontier:
            for w in neighbors[frontier.pop()]:
                if w not in seen:
                    seen.add(w)
                    frontier.append(w)
        if len(seen) != g.n:
            return False
    return True


def check_protocol_usable(g: Digraph) -> None:
    """Reject graphs too small or not strongly connected for a protocol run."""
    if g.n <= 2:
        raise ValueError(f"protocol runs need more than 2 nodes, got n={g.n}")
    if not is_strongly_connected(g):
        raise ValueError("digraph is not strongly connected")


def random_strongly_connected(n: int, extra_edge_prob: float, seed: int) -> Digraph:
    """Seeded random strongly connected digraph.

    Builds a directed ring over a random permutation of 1..n, then adds each
    remaining ordered pair independently with probability extra_edge_prob.
    Candidate pairs are visited in sorted (receiver, sender) order with one
    uniform draw each, so the result is a pure function of (n, prob, seed).
    """
    if n <= 2:
        raise ValueError(f"need n > 2, got n={n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(f"extra_edge_prob must be in [0, 1], got {extra_edge_prob}")
    rng = _graph_rng(seed)
    perm = [int(v) + 1 for v in rng.permutation(n)]
    ring = {(perm[(t + 1) % n], perm[t]) for t in range(n)}
    edges = set(ring)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if j == i or (j, i) in ring:
                continue
            if rng.random() < extra_edge_prob:
                edges.add((j, i))
    return Digraph(n=n, edges=frozenset(edges))


def _graph_rng(seed: int):
    # own seed domain so graph draws never collide with protocol streams
    return np.random.default_rng((0x67726170, seed))


# Fixed 5-node demo used by the experiment harness and the docs.
DEMO_EDGES: frozenset[Edge] = frozenset(
    {(2, 1), (3, 2), (4, 3), (5, 4), (1, 5), (3, 1), (5, 2)}
)


def demo_digraph() -> Digraph:
    """The 5-node strongly connected demo digraph (ring 1-2-3-4-5 plus two chords)."""
    return build_digraph(5, DEMO_EDGES)


def save_digraph(g: Digraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(digraph_to_dict(g), fh)
        fh.write("\n")


def load_digraph(path) -> Digraph:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return digraph_from_dict(data)


def digraph_to_dict(g: Digraph) -> dict:
    return {"n": g.n, "edges": [list(e) for e in g.sorted_edges]}


def digraph_from_dict(data: dict) -> Digraph:
    """The Digraph of a JSON object {"n": ..., "edges": [[receiver, sender], ...]},
    validated by build_digraph; a non-list edges is a ValueError too."""
    try:
        n, edges = data["n"], data["edges"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed digraph object: {exc}") from exc
    if not isinstance(edges, list):
        raise ValueError(f"edges: must be a list of [receiver, sender] pairs, got {edges!r}")
    return build_digraph(n, edges)
