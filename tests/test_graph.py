"""Digraph construction, connectivity, generation, and JSON round-trips."""
from __future__ import annotations

import itertools

import numpy as np
import pytest

from pushsim import (
    Digraph,
    build_digraph,
    check_protocol_usable,
    demo_digraph,
    is_strongly_connected,
    load_digraph,
    random_strongly_connected,
    read_trace,
    run_protocol,
    save_digraph,
    write_trace,
)
from pushsim.graph import DEMO_EDGES, GRAPH_TABLE, _shared_digraph, digraph_from_dict, digraph_to_dict


def bfs_strongly_connected(n: int, edges) -> bool:
    """Independent oracle: every node reaches every node along out-edges."""
    out: dict[int, list[int]] = {i: [] for i in range(1, n + 1)}
    for j, i in edges:
        out[i].append(j)
    for start in range(1, n + 1):
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in out[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        if len(seen) != n:
            return False
    return True


def ring_edges(n: int) -> set[tuple[int, int]]:
    return {((t % n) + 1, ((t - 1) % n) + 1) for t in range(1, n + 1)}


def test_build_ring() -> None:
    g = build_digraph(4, ring_edges(4))
    assert g.n == 4
    assert g.out_neighbors[1] == (2,)
    assert g.in_neighbors[1] == (4,)
    assert is_strongly_connected(g)


def test_ring_missing_edge_not_strongly_connected() -> None:
    edges = ring_edges(4) - {(2, 1)}
    assert not is_strongly_connected(build_digraph(4, edges))


def test_single_node() -> None:
    g = build_digraph(1, [])
    assert is_strongly_connected(g)


def test_two_node_graph_builds_but_is_unusable() -> None:
    g = build_digraph(2, [(2, 1), (1, 2)])
    assert is_strongly_connected(g)
    with pytest.raises(ValueError, match="more than 2 nodes"):
        check_protocol_usable(g)


def test_not_strongly_connected_is_unusable() -> None:
    g = build_digraph(3, [(2, 1), (3, 2)])
    with pytest.raises(ValueError, match="strongly connected"):
        check_protocol_usable(g)


def test_self_loop_rejected() -> None:
    with pytest.raises(ValueError, match="self-loop"):
        build_digraph(3, [(1, 1)])


def test_endpoint_out_of_range_rejected() -> None:
    with pytest.raises(ValueError, match="outside"):
        build_digraph(3, [(4, 1)])
    with pytest.raises(ValueError, match="outside"):
        build_digraph(3, [(1, 0)])


def test_bad_node_count_rejected() -> None:
    with pytest.raises(ValueError):
        build_digraph(0, [])


def test_duplicate_edges_collapse() -> None:
    g = build_digraph(3, [(2, 1), (2, 1), (3, 2), (1, 3)])
    assert len(g.edges) == 3


def test_demo_digraph() -> None:
    g = demo_digraph()
    assert g.n == 5
    assert len(g.edges) == 7
    assert is_strongly_connected(g)
    assert bfs_strongly_connected(5, g.edges)
    # every node must have traffic in both directions
    for i in g.nodes:
        assert g.in_neighbors[i]
        assert g.out_neighbors[i]


def test_scc_matches_bfs_oracle_exhaustively_small() -> None:
    # all digraphs on 2, 3 and 4 nodes
    for n in (2, 3, 4):
        pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
        for bits in range(2 ** len(pairs)):
            edges = {pairs[t] for t in range(len(pairs)) if bits >> t & 1}
            g = Digraph(n=n, edges=frozenset(edges))
            assert is_strongly_connected(g) == bfs_strongly_connected(n, edges), edges


def test_scc_matches_bfs_oracle_sampled() -> None:
    rng = np.random.default_rng(20240817)
    for n in (4, 5, 6):
        pairs = [(j, i) for j in range(1, n + 1) for i in range(1, n + 1) if j != i]
        for _ in range(300):
            density = rng.uniform(0.05, 0.6)
            edges = {pair for pair in pairs if rng.random() < density}
            g = Digraph(n=n, edges=frozenset(edges))
            assert is_strongly_connected(g) == bfs_strongly_connected(n, edges), (n, edges)


def test_random_generator_strongly_connected_and_deterministic() -> None:
    for n, prob, seed in [(3, 0.0, 1), (5, 0.3, 2), (8, 0.5, 3), (12, 0.1, 4), (5, 1.0, 5)]:
        g1 = random_strongly_connected(n, prob, seed)
        g2 = random_strongly_connected(n, prob, seed)
        assert g1.edges == g2.edges
        assert is_strongly_connected(g1)
        assert bfs_strongly_connected(n, g1.edges)


def test_random_generator_extremes() -> None:
    ring = random_strongly_connected(5, 0.0, 9)
    assert len(ring.edges) == 5
    complete = random_strongly_connected(5, 1.0, 9)
    assert len(complete.edges) == 20


def test_random_generator_seed_changes_graph() -> None:
    a = random_strongly_connected(6, 0.4, 1)
    b = random_strongly_connected(6, 0.4, 2)
    assert a.edges != b.edges


def test_random_generator_rejections() -> None:
    with pytest.raises(ValueError):
        random_strongly_connected(2, 0.5, 1)
    with pytest.raises(ValueError):
        random_strongly_connected(5, 1.5, 1)


def test_json_roundtrip(tmp_path) -> None:
    g = random_strongly_connected(7, 0.25, 11)
    path = tmp_path / "g.json"
    save_digraph(g, path)
    back = load_digraph(path)
    assert back.n == g.n
    assert back.edges == g.edges


def test_json_load_validates(tmp_path) -> None:
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "edges": [[1, 1]]}')
    with pytest.raises(ValueError, match="self-loop"):
        load_digraph(path)
    path.write_text('{"edges": []}')
    with pytest.raises(ValueError, match="malformed"):
        load_digraph(path)


def test_equal_graphs_share_one_instance(tmp_path) -> None:
    """build_digraph, digraph_from_dict, load_digraph, a trace header, the
    demo graph and the generator give one object per equal (n, edge set),
    whatever the order, duplicates and pair types of the input edges."""
    g = random_strongly_connected(7, 0.25, 11)
    edges = sorted(g.edges, reverse=True)
    assert build_digraph(7, edges) is g
    assert build_digraph(7, [list(e) for e in edges] + [list(edges[0])]) is g
    assert digraph_from_dict(digraph_to_dict(g)) is g
    save_digraph(g, tmp_path / "g.json")
    assert load_digraph(tmp_path / "g.json") is g
    assert random_strongly_connected(7, 0.25, 11) is g
    write_trace(run_protocol(g, np.arange(7.0), "decomposed", 3), tmp_path / "trace.jsonl")
    assert read_trace(tmp_path / "trace.jsonl").graph is g
    assert demo_digraph() is demo_digraph() is build_digraph(5, sorted(DEMO_EDGES))
    # equal graphs only: another n or one edge fewer is another object
    assert build_digraph(8, edges) is not g and build_digraph(8, edges) != g
    fewer = build_digraph(7, edges[1:])
    assert fewer is not g and fewer != g
    # every input is still validated
    with pytest.raises(ValueError, match=r"edges\[7\]: self-loop"):
        build_digraph(7, edges[:7] + [(3, 3)])
    with pytest.raises(ValueError, match=r"edges\[0\]: must be a pair of integers"):
        build_digraph(7, [(1.0, 2)] + edges)


def test_shared_graph_table_stays_bounded() -> None:
    first = build_digraph(3, ring_edges(3))
    for n in range(3, 3 + 2 * GRAPH_TABLE):
        build_digraph(n, ring_edges(n))
    info = _shared_digraph.cache_info()
    assert info.maxsize == GRAPH_TABLE and info.currsize <= GRAPH_TABLE
    # an evicted graph is built anew, equal to the old one
    again = build_digraph(3, ring_edges(3))
    assert again == first
    assert build_digraph(3, ring_edges(3)) is again


def test_shared_graph_index_arrays_stay_read_only() -> None:
    g = build_digraph(4, ring_edges(4) | {(3, 1)})
    assert g.edge_senders.tolist() == [i - 1 for _, i in g.sorted_edges]
    assert g.slot_order.tolist() == np.argsort(g.weight_slots).tolist()
    assert g.slot_senders.tolist() == (np.sort(g.weight_slots) % g.n).tolist()
    for name in ("weight_slots", "edge_senders", "slot_order", "slot_senders"):
        array = getattr(build_digraph(4, ring_edges(4) | {(3, 1)}), name)
        assert array is getattr(g, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
