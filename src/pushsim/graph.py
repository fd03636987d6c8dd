"""Directed graphs for consensus runs.

Nodes are labelled 1..n.  An edge is an ordered pair (j, i) meaning node i
can send to node j, so j is a receiver of i.  This matches the convention
used throughout the package: column i of a weight matrix belongs to sender i.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import compress

import numpy as np

Edge = tuple[int, int]

# Distinct graphs whose instance build_digraph keeps for reuse.
GRAPH_TABLE = 32


@dataclass(frozen=True)
class Digraph:
    """Immutable digraph on nodes 1..n with edge set {(receiver, sender)}.

    build_digraph hands one instance to every caller that builds an equal
    graph, so the cached properties below are shared: their arrays are
    read-only, and their maps are not to be changed either.
    """

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
        return _read_only(np.concatenate([edges[:, 0] * self.n + edges[:, 1], np.arange(self.n) * (self.n + 1)]))

    @cached_property
    def edge_senders(self) -> np.ndarray:
        """0-based sender i-1 of each edge (j, i) in sorted_edges order, read-only."""
        return _read_only(self.weight_slots[: len(self.edges)] % self.n)

    @cached_property
    def slot_order(self) -> np.ndarray:
        """The permutation that puts weight_slots in ascending (row-major) order, read-only."""
        return _read_only(np.argsort(self.weight_slots))

    @cached_property
    def slot_senders(self) -> np.ndarray:
        """0-based sender of each weight slot in slot_order, read-only."""
        return _read_only(self.weight_slots[self.slot_order] % self.n)

    @cached_property
    def out_edges(self) -> dict[int, tuple[int, ...]]:
        """Map sender -> positions in sorted_edges of its out-edges, in sorted receiver order."""
        return {i: tuple(self.edge_position[(j, i)] for j in self.out_neighbors[i]) for i in self.nodes}


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


# The JSON value checks every reader shares: configs, graph and trace files, attack arguments.  Each
# returns the value as its type or raises a ValueError "<field>: must be ..., got <value>", and none
# coerces: a string or a bool is no number, and a float, integral or not, is no integer.

INTEGER_KINDS = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}


def integer(value, field: str, minimum: int | None = None) -> int:
    """An int or a numpy integer, at least minimum (0, 1 or None for no bound), as an int."""
    if (type(value) is int or isinstance(value, np.integer)) and (minimum is None or value >= minimum):
        return int(value)
    raise ValueError(f"{field}: must be {INTEGER_KINDS[minimum]}, got {value!r}")


def number(value, field: str) -> float:
    """An int, a float or a numpy integer or float, as a float."""
    if type(value) in (int, float) or isinstance(value, (np.integer, np.floating)):
        try:
            return float(value)
        except OverflowError as exc:  # an integer beyond the float range
            raise ValueError(f"{field}: {exc}") from exc
    raise ValueError(f"{field}: must be a number, got {value!r}")


def finite(value, field: str) -> float:
    """A number that is neither NaN nor infinite, as a float."""
    value = number(value, field)
    if not math.isfinite(value):
        raise ValueError(f"{field}: must be finite, got {value}")
    return value


def positive_finite(value, field: str) -> float:
    """A finite number above zero, as a float."""
    value = finite(value, field)
    if value <= 0:
        raise ValueError(f"{field}: must be positive, got {value}")
    return value


def numbers(values, field: str) -> np.ndarray:
    """A list of numbers as float64; a bad entry i is named "<field>[i]"."""
    if not isinstance(values, list):
        raise ValueError(f"{field}: must be a list of numbers, got {values!r}")
    try:
        return np.array([number(value, field) for value in values], dtype=np.float64)
    except ValueError:  # name the entry: its index is only formatted once one failed
        for i, value in enumerate(values):
            number(value, f"{field}[{i}]")
        raise


def build_digraph(n: int, edges) -> Digraph:
    """Validate and build a Digraph.

    Raises ValueError naming n or edges[t] when n is not an integer >= 1 (a
    bool, a float or a string is not), an edge is not a pair of integers,
    an endpoint lies outside 1..n, or an edge is a self-loop.  Duplicate
    edges collapse silently.

    Every input is validated; then an equal (n, edge set) returns the
    instance already built for it, from a table of the last GRAPH_TABLE
    distinct graphs, so that a graph file, a trace header and the demo graph
    of one graph share one Digraph and compute its cached properties once
    per process.
    """
    n = integer(n, "n", 1)
    edge_set = set()
    for t, pair in enumerate(edges):
        j, i = pair if isinstance(pair, (list, tuple)) and len(pair) == 2 else (None, None)
        try:
            j, i = integer(j, "receiver"), integer(i, "sender")
        except ValueError:
            raise ValueError(f"edges[{t}]: must be a pair of integers (receiver, sender), got {pair!r}") from None
        if not (1 <= j <= n) or not (1 <= i <= n):
            raise ValueError(f"edges[{t}]: edge ({j}, {i}) has endpoint outside 1..{n}")
        if j == i:
            raise ValueError(f"edges[{t}]: self-loop ({j}, {i}) not allowed; self-weights are implicit")
        edge_set.add((j, i))
    return _shared_digraph(n, frozenset(edge_set))


@lru_cache(maxsize=GRAPH_TABLE)
def _shared_digraph(n: int, edges: frozenset[Edge]) -> Digraph:
    """The one Digraph of (n, edges) among the last GRAPH_TABLE distinct graphs asked for."""
    return Digraph(n=n, edges=edges)


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
    Candidate pairs take one uniform draw each, in sorted (receiver, sender)
    order, all from one rng.random call, so the result is a pure function of
    (n, prob, seed).
    A value out of range raises a ValueError that begins with its argument's
    name.
    """
    if n <= 2:
        raise ValueError(f"n: need n > 2, got {n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise ValueError(f"extra_edge_prob: must be in [0, 1], got {extra_edge_prob}")
    rng = _graph_rng(integer(seed, "seed", 0))
    perm = [int(v) + 1 for v in rng.permutation(n)]
    ring = {(perm[(t + 1) % n], perm[t]) for t in range(n)}
    pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i and (j, i) not in ring]
    drawn = rng.random(len(pairs)) < extra_edge_prob
    return _shared_digraph(n, frozenset(ring.union(compress(pairs, drawn.tolist()))))


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
