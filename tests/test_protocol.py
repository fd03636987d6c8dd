"""Protocol state machinery: sampling, rounds, runs, traces, serialization."""
from __future__ import annotations

import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from pushsim import (
    PROTOCOLS,
    Digraph,
    SeedStreams,
    Trace,
    TraceFormatError,
    build_digraph,
    check_invariants,
    demo_digraph,
    estimate_average,
    estimate_series,
    init_decomposed,
    init_push_sum,
    random_strongly_connected,
    read_trace,
    replay,
    retained_ratio_series,
    run_protocol,
    sample_push_sum_weights,
    sample_round_weights,
    transmissions,
    write_estimates_csv,
    write_trace,
)
from pushsim import analysis, harness, protocol
from pushsim.protocol import (
    PURPOSE_INIT_SUBSTATE,
    PURPOSE_INITIAL_VALUES,
    PURPOSE_WEIGHTS,
    ROUND_BLOCK,
    column_sums,
    conserved_sums,
    sample_initial_values,
)
from pushsim.traceio import ROUND_KEYS, STATE_KEYS, TABLE_CHUNK, trace_lines, write_table

from helpers import (
    block_edge_traces,
    block_edges,
    corrupt_line,
    decomposed_round,
    dense_weights,
    line_at_a_time_read_trace,
    loop_states,
    loop_write_table,
    one_shot_column_sums,
    one_shot_estimates_csv,
    one_shot_evolve,
    protocol_traces,
    reference_trace_lines,
    spoiled,
    tampered,
    v2_trace_lines,
    weight_matrix,
)

RING3 = build_digraph(3, [(2, 1), (3, 2), (1, 3)])


# ---------------------------------------------------------------------------
# initialization


def test_init_push_sum() -> None:
    state = init_push_sum([3.0, 6.0, 9.0])
    assert np.array_equal(state[0], [3.0, 6.0, 9.0])
    assert np.array_equal(state[1], [1.0, 1.0, 1.0])
    assert np.array_equal(state[2:], np.zeros((2, 3)))


def test_init_decomposed_complement_and_bounds() -> None:
    x0 = np.array([5.0, -1.0, 12.0])
    state = init_decomposed(x0, 100.0, SeedStreams(3))
    assert np.array_equal(state[1], np.zeros(3))
    assert np.array_equal(state[3], np.full(3, 2.0))
    assert np.allclose(state[0] + state[2], 2.0 * x0, rtol=0, atol=1e-12)
    assert (np.abs(state[0]) < 100.0).all()


def test_init_decomposed_deterministic() -> None:
    a = init_decomposed([1.0, 2.0, 3.0], 50.0, SeedStreams(9))
    b = init_decomposed([1.0, 2.0, 3.0], 50.0, SeedStreams(9))
    assert np.array_equal(a, b)


def test_init_decomposed_rejects_bad_spread() -> None:
    with pytest.raises(ValueError, match="positive"):
        init_decomposed([1.0, 2.0, 3.0], 0.0, SeedStreams(1))


# ---------------------------------------------------------------------------
# weight sampling


def test_push_sum_weights_contract() -> None:
    g = demo_digraph()
    for k in (0, 1, 7):
        edge_w, self_w, alpha = sample_push_sum_weights(g, k, SeedStreams(4))
        assert edge_w.shape == (len(g.sorted_edges),) and self_w.shape == (5,)
        p = weight_matrix(g, edge_w, self_w)
        assert np.abs(p.sum(axis=0) - 1.0).max() < 1e-12
        assert np.array_equal(alpha, np.zeros(5))
        for j in range(5):
            for i in range(5):
                if p[j, i] != 0.0:
                    assert j == i or (j + 1, i + 1) in g.edges
                    assert 0.0 < p[j, i] < 1.0


def test_decomposed_weights_round0_signed() -> None:
    g = demo_digraph()
    edge_w, self_w, alpha = sample_round_weights(g, 0, 100.0, SeedStreams(1))
    p = weight_matrix(g, edge_w, self_w)
    assert np.abs(p.sum(axis=0) + alpha - 1.0).max() < 1e-12
    entries = np.concatenate([p[p != 0.0], alpha])
    # round-0 draws are Gaussian: normalized entries need not sit in (0, 1)
    assert ((entries < 0.0) | (entries > 1.0)).any()


def test_decomposed_weights_later_rounds_positive() -> None:
    g = demo_digraph()
    for k in (1, 2, 50):
        edge_w, self_w, alpha = sample_round_weights(g, k, 100.0, SeedStreams(1))
        p = weight_matrix(g, edge_w, self_w)
        assert np.abs(p.sum(axis=0) + alpha - 1.0).max() < 1e-12
        assert ((alpha > 0.0) & (alpha < 1.0)).all()
        for j in range(5):
            for i in range(5):
                if j == i or (j + 1, i + 1) in g.edges:
                    assert 0.0 < p[j, i] < 1.0
                else:
                    assert p[j, i] == 0.0


def test_weight_sampling_deterministic_per_node() -> None:
    g = demo_digraph()
    first = sample_round_weights(g, 3, 100.0, SeedStreams(8))
    second = sample_round_weights(g, 3, 100.0, SeedStreams(8))
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
    # a different round uses a different substream
    third = sample_round_weights(g, 4, 100.0, SeedStreams(8))
    assert not np.array_equal(first[0], third[0])


def test_weight_sampling_round_range_matches_single_rounds() -> None:
    g = demo_digraph()
    for sample in (
        lambda k: sample_push_sum_weights(g, k, SeedStreams(6)),
        lambda k: sample_round_weights(g, k, 100.0, SeedStreams(6)),
    ):
        batch = sample(range(4))
        assert [w.shape for w in batch] == [(4, len(g.sorted_edges)), (4, 5), (4, 5)]
        for k in range(4):
            for w, single in zip(batch, sample(k)):
                assert np.array_equal(w[k], single)


# ---------------------------------------------------------------------------
# batched uniform draws against the per-stream reference


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**200),
    purpose=st.integers(0, 2),
    nodes=st.lists(st.integers(0, 100), min_size=1, max_size=12),
    k=st.integers(0, 2**32 - 1),
    count=st.integers(1, 20),
)
@example(seed=0, purpose=0, nodes=[0], k=0, count=1)
@example(seed=2**32 - 1, purpose=1, nodes=[100], k=2**32 - 1, count=20)
@example(seed=2**32 + 5, purpose=1, nodes=[1, 2], k=0, count=7)
@example(seed=2**32, purpose=0, nodes=[3], k=1, count=2)  # 5 entropy words
@example(seed=2**64 - 1, purpose=2, nodes=[0, 30], k=2**32 - 1, count=9)
@example(seed=2**64, purpose=1, nodes=[1], k=0, count=1)  # 6 entropy words
@example(seed=2**64 + 5, purpose=1, nodes=[1, 2, 3, 4, 5], k=7, count=15)
def test_uniform_block_matches_default_rng(seed, purpose, nodes, k, count) -> None:
    block = SeedStreams(seed).uniform_block(purpose, nodes, k, count)
    ref = np.array([np.random.default_rng((seed, purpose, i, k)).random(count) for i in nodes])
    assert block.shape == (len(nodes), count)
    assert block.tobytes() == ref.tobytes()


def loop_weights(g, k: int, streams: SeedStreams, retention: bool) -> tuple[np.ndarray, np.ndarray]:
    """The per-sender reference sampler: one stream and one 1-D sum per sender."""
    p, alpha = np.zeros((g.n, g.n)), np.zeros(g.n)
    for i in g.nodes:
        receivers = g.out_neighbors[i]
        draws = streams.stream(PURPOSE_WEIGHTS, i, k).random(len(receivers) + 1 + retention)
        draws /= draws.sum()
        for idx, j in enumerate(receivers + (i,)):
            p[j - 1, i - 1] = draws[idx]
        if retention:
            alpha[i - 1] = draws[-1]
    return p, alpha


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(3, 30),
    prob=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 1000),
    seed=st.integers(0, 2**96),
)
def test_batched_weights_match_per_sender_loop(n, prob, graph_seed, seed) -> None:
    g = random_strongly_connected(n, prob, graph_seed)
    streams = SeedStreams(seed)
    ks = range(1, 4)
    for retention, (edge_w, self_w, alpha) in (
        (False, sample_push_sum_weights(g, ks, streams)),
        (True, sample_round_weights(g, ks, 100.0, streams)),
    ):
        for r, k in enumerate(ks):
            ref_p, ref_alpha = loop_weights(g, k, streams, retention)
            assert weight_matrix(g, edge_w[r], self_w[r]).tobytes() == ref_p.tobytes()
            assert alpha[r].tobytes() == ref_alpha.tobytes()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 14),
    prob=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 1000),
    seed=st.integers(0, 2**96),
    limit=st.integers(1, 9),
    ks=st.lists(st.integers(0, 40), min_size=1, max_size=6),
)
@example(n=14, prob=1.0, graph_seed=0, seed=5, limit=7, ks=[3, 0, 5, 1])  # draw count 15: pairwise sums
def test_capped_passes_match_per_sender_loop(n, prob, graph_seed, seed, limit, ks) -> None:
    """With a pass held to a few rows, so that passes end inside count
    classes and inside rounds, both samplers still give the per-sender
    loop's weights bit for bit, and uniform_block still gives default_rng's
    draws.  Round-0 rows of the decomposed sampler are its Gaussian ones,
    also when a round-0 row falls among uniform ones."""
    g = random_strongly_connected(n, prob, graph_seed)
    streams = SeedStreams(seed)
    with mock.patch.object(protocol, "ROW_LIMIT", limit):
        samples = ((False, sample_push_sum_weights(g, ks, streams)), (True, sample_round_weights(g, ks, 100.0, streams)))
        block = streams.uniform_block(PURPOSE_WEIGHTS, np.arange(1, n + 1), np.array(ks)[:, None], 3)
    for retention, (edge_w, self_w, alpha) in samples:
        for r, k in enumerate(ks):
            if retention and k == 0:
                gaussian = sample_round_weights(g, 0, 100.0, streams)
                assert all(w[r].tobytes() == ref.tobytes() for w, ref in zip((edge_w, self_w, alpha), gaussian))
                continue
            ref_p, ref_alpha = loop_weights(g, k, streams, retention)
            assert weight_matrix(g, edge_w[r], self_w[r]).tobytes() == ref_p.tobytes()
            assert alpha[r].tobytes() == ref_alpha.tobytes()
    ref = np.array([[streams.stream(PURPOSE_WEIGHTS, i, k).random(3) for i in range(1, n + 1)] for k in ks])
    assert block.tobytes() == ref.tobytes()


def test_zero_draw_row_is_redrawn_from_scalar_stream(monkeypatch) -> None:
    g = demo_digraph()
    streams = SeedStreams(3)
    clean = sample_push_sum_weights(g, range(4), streams)
    real_pass, real_redraw = SeedStreams._uniform_pass, protocol._positive_uniform
    passes, zeroed, redrawn = [], [], []

    def pass_with_zero(self, purpose, words, active, out=None):
        nodes, ks = (w.copy() for w in words)
        draws = real_pass(self, purpose, words, active, out)
        counts = (np.arange(len(nodes))[:, None] < np.array(active)).sum(axis=1)
        for count in sorted(set(counts[ks == 2].tolist()), reverse=True):
            m = np.flatnonzero((ks == 2) & (counts == count))[0]
            draws[m, 1] = 0.0  # round 2, first sender of this draw-count group
            zeroed.append((int(nodes[m]), count))
        passes.append(len(nodes))
        return draws

    def spy_redraw(rng, count):
        draws = real_redraw(rng, count)
        redrawn.append(draws.copy())
        return draws

    monkeypatch.setattr(SeedStreams, "_uniform_pass", pass_with_zero)
    monkeypatch.setattr(protocol, "_positive_uniform", spy_redraw)
    patched = sample_push_sum_weights(g, range(4), streams)
    assert passes == [4 * g.n]  # one pass draws every sender of every round
    assert len(redrawn) == len(zeroed) >= 2
    for (i, count), draws in zip(zeroed, redrawn):
        expected = real_redraw(streams.stream(PURPOSE_WEIGHTS, i, 2), count)
        assert draws.tobytes() == expected.tobytes()
        expected /= expected.sum()
        rows = [j - 1 for j in g.out_neighbors[i]] + [i - 1]
        assert weight_matrix(g, patched[0][2], patched[1][2])[rows, i - 1].tobytes() == expected.tobytes()
    for w, ref in zip(patched, clean):
        assert np.array_equal(w, ref)


def draws_or_error(draw):
    """The bytes of draw(), or the type of the error it raised."""
    try:
        return np.asarray(draw()).tobytes()
    except (OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**70),
    n=st.integers(1, 30),
    low=st.floats(-1e308, 1e308),
    high=st.floats(-1e308, 1e308),
    spread=st.floats(1e-300, 1e308, exclude_min=True),
)
@example(seed=2**64 + 5, n=5, low=0.0, high=50.0, spread=100.0)
@example(seed=0, n=3, low=-1e308, high=1e308, spread=1e308)  # range overflows: OverflowError
@example(seed=1, n=2, low=0.0, high=-0.0, spread=1.0)  # high - low is -0.0: ValueError
def test_initial_draws_match_per_stream_uniform(seed, n, low, high, spread) -> None:
    streams = SeedStreams(seed)
    nodes = range(1, n + 1)
    got = draws_or_error(lambda: sample_initial_values(n, {"dist": "uniform", "low": low, "high": high}, streams))
    ref = draws_or_error(lambda: [streams.stream(PURPOSE_INITIAL_VALUES, i).uniform(low, high) for i in nodes])
    assert got == ref
    got = draws_or_error(lambda: init_decomposed(np.zeros(n), spread, streams)[0])
    ref = draws_or_error(lambda: [streams.stream(PURPOSE_INIT_SUBSTATE, i).uniform(-spread, spread) for i in nodes])
    assert got == ref


@pytest.mark.parametrize("proto", ["push_sum", "decomposed"])
def test_wide_seed_builds_streams_only_for_round0_gaussians(proto, monkeypatch) -> None:
    g = demo_digraph()
    real_stream, built = SeedStreams.stream, []

    def spy_stream(self, purpose, node, k=0):
        built.append((purpose, node, k))
        return real_stream(self, purpose, node, k)

    monkeypatch.setattr(SeedStreams, "stream", spy_stream)
    run_protocol(g, np.arange(5.0), proto, 30, seed=2**64 + 5)
    assert built == ([] if proto == "push_sum" else [(PURPOSE_WEIGHTS, i, 0) for i in g.nodes])


def test_negative_seed_still_raises() -> None:
    with pytest.raises(ValueError):
        SeedStreams(-1).uniform_block(PURPOSE_WEIGHTS, [1, 2], 0, 3)
    with pytest.raises(ValueError):
        run_protocol(demo_digraph(), np.ones(5), "push_sum", 3, seed=-1)


@pytest.mark.parametrize(
    "nodes, k, needle",
    [([1, 2**32], 0, "node 1..4294967296, round 0..0"), ([1], 2**32, "node 1..1, round 4294967296..4294967296")],
    ids=["node-2**32", "round-2**32"],
)
def test_uniform_block_rejects_index_above_32_bits(nodes, k, needle) -> None:
    with pytest.raises(ValueError, match=f"seed 7, purpose {PURPOSE_WEIGHTS}, {needle}"):
        SeedStreams(7).uniform_block(PURPOSE_WEIGHTS, nodes, k, 3)


# ---------------------------------------------------------------------------
# round updates


def test_push_sum_round_identity_weights_is_noop() -> None:
    state = init_push_sum([3.0, 6.0, 9.0])
    new = decomposed_round(np.eye(3), np.zeros(3), state)
    assert np.array_equal(new[0], state[0])
    assert np.array_equal(new[1], state[1])
    products = transmissions(RING3, np.zeros((1, len(RING3.sorted_edges))), np.stack([state, new]))
    assert (products == 0.0).all()


def test_push_sum_round_conserves_sums() -> None:
    g = demo_digraph()
    streams = SeedStreams(5)
    state = init_push_sum(np.arange(1.0, 6.0))
    for k in range(50):
        edge_w, self_w, alpha = sample_push_sum_weights(g, k, streams)
        state = decomposed_round(weight_matrix(g, edge_w, self_w), alpha, state)
        assert state[0].sum() == pytest.approx(15.0, rel=1e-12)
        assert state[1].sum() == pytest.approx(5.0, rel=1e-12)


def test_decomposed_round_scalar_oracle() -> None:
    # Hand-evaluated one round on the 3-ring against an explicit scalar
    # recursion, independent of the matrix implementation.
    state = np.array(
        [
            [4.0, -2.0, 7.0],  # x_alpha_1
            [0.5, 1.5, 2.0],  # x_alpha_2
            [6.0, 12.0, -3.0],  # x_beta_1
            [1.5, 0.5, 0.0],  # x_beta_2
        ]
    )
    p = np.array(
        [
            [0.6, 0.0, 0.3],
            [0.2, 0.5, 0.0],
            [0.0, 0.3, 0.5],
        ]
    )
    alpha = np.array([0.2, 0.2, 0.2])
    new = decomposed_round(p, alpha, state)
    edge_w = np.array([[p[j - 1, i - 1] for j, i in RING3.sorted_edges]])
    sent = transmissions(RING3, edge_w, np.stack([state, new]))[0]
    products = {edge: tuple(sent[e]) for e, edge in enumerate(RING3.sorted_edges)}

    in_plus_self = {1: [1, 3], 2: [2, 1], 3: [3, 2]}
    for i in (1, 2, 3):
        for l, (x_alpha, x_beta, got) in enumerate(
            [
                (state[0], state[2], new[0]),
                (state[1], state[3], new[1]),
            ]
        ):
            expected = x_beta[i - 1]
            for j in in_plus_self[i]:
                expected += p[i - 1, j - 1] * x_alpha[j - 1]
            assert got[i - 1] == pytest.approx(expected, rel=1e-12), (i, l)
    assert np.array_equal(new[2], alpha * state[0])
    assert np.array_equal(new[3], alpha * state[1])
    # spot values fixed from the scalar recursion
    assert new[0][0] == pytest.approx(4.0 * 0.6 + 7.0 * 0.3 + 6.0)
    assert new[1][2] == pytest.approx(1.5 * 0.3 + 2.0 * 0.5 + 0.0)
    # transmitted products carry only the exchanged substate
    assert products[(2, 1)] == (pytest.approx(0.2 * 4.0), pytest.approx(0.2 * 0.5))
    assert products[(1, 3)] == (pytest.approx(0.3 * 7.0), pytest.approx(0.3 * 2.0))


def test_decomposed_round_reduces_to_push_sum() -> None:
    g = demo_digraph()
    streams = SeedStreams(2)
    x = np.array([3.0, -1.0, 4.0, 1.0, 5.0])
    merged = init_push_sum(x)
    edge_w, self_w, alpha = sample_push_sum_weights(g, 0, streams)
    p = weight_matrix(g, edge_w, self_w)
    new_merged = decomposed_round(p, alpha, merged)
    # the textbook push-sum round: x1 <- P x1, x2 <- P x2
    assert np.array_equal(new_merged[0], p @ x)
    assert np.array_equal(new_merged[1], p @ np.ones(5))
    assert np.array_equal(new_merged[2], np.zeros(5))
    assert not np.signbit(new_merged[2:]).any()  # exact +0.0, although x has a negative entry
    prod_merged = transmissions(g, edge_w[None], np.stack([merged, new_merged]))[0]
    prod_plain = [(p[j - 1, i - 1] * x[i - 1], p[j - 1, i - 1] * 1.0) for j, i in g.sorted_edges]
    assert prod_merged.tolist() == [list(pair) for pair in prod_plain]


@settings(max_examples=40, deadline=None)
@given(trace=protocol_traces(), data=st.data())
def test_round_loop_matches_decomposed_round_oracle(trace, data) -> None:
    # run_protocol and replay update the states array in place; the oracle
    # builds a fresh matrix and a fresh state every round
    assert trace.states.tobytes() == loop_states(trace).tobytes()
    assert replay(trace).states.tobytes() == trace.states.tobytes()
    bad = spoiled(trace, data.draw(st.sampled_from(trace.graph.nodes), label="target"), data)
    assert replay(bad).states.tobytes() == loop_states(bad).tobytes()


def test_decomposed_conservation() -> None:
    g = demo_digraph()
    x0 = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    trace = run_protocol(g, x0, "decomposed", 100, 100.0, seed=6)
    s1, s2 = conserved_sums(trace)
    assert np.abs(s1 - 2.0 * x0.sum()).max() < 1e-9 * 2.0 * x0.sum()
    assert np.abs(s2 - 10.0).max() < 1e-9 * 10.0


def test_transmitted_products_match_weights_times_exchanged_state() -> None:
    g = demo_digraph()
    trace = run_protocol(g, np.arange(5.0), "decomposed", 20, 100.0, seed=13)
    assert trace.sent.shape == (20, len(g.sorted_edges), 2)
    for k in range(trace.n_rounds):
        before = trace.states[k]
        for e, (j, i) in enumerate(g.sorted_edges):
            v1, v2 = trace.sent[k, e]
            assert v1 == trace.edge_w[k, e] * before[0, i - 1]
            assert v2 == trace.edge_w[k, e] * before[1, i - 1]


# ---------------------------------------------------------------------------
# estimates


def test_estimate_average_guard() -> None:
    assert estimate_average(3.0, 2.0) == pytest.approx(1.5)
    assert np.isnan(estimate_average(3.0, 1e-13))
    out = estimate_average(np.array([1.0, 2.0]), np.array([0.5, 0.0]))
    assert out[0] == pytest.approx(2.0)
    assert np.isnan(out[1])


def test_estimate_series_shapes_and_round0() -> None:
    g = demo_digraph()
    x0 = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
    ps_est = estimate_series(run_protocol(g, x0, "push_sum", 10, seed=1))
    assert ps_est.shape == (11, 5)
    assert np.array_equal(ps_est[0], x0)
    dec = run_protocol(g, x0, "decomposed", 10, 100.0, seed=1)
    dec_est = estimate_series(dec)
    assert np.isnan(dec_est[0]).all()
    assert not np.isnan(dec_est[1:]).any()
    beta = retained_ratio_series(dec)
    # x_beta_1(0)/x_beta_2(0) = (2 x0 - x_alpha_1(0)) / 2
    expected0 = (2.0 * x0 - dec.states[0, 0]) / 2.0
    assert np.allclose(beta[0], expected0, rtol=0, atol=1e-12)
    assert np.isnan(beta[1]).all()  # retention multiplies a zero weight substate


# ---------------------------------------------------------------------------
# full runs


def test_run_protocol_rejections() -> None:
    g = demo_digraph()
    with pytest.raises(ValueError, match="registered"):
        run_protocol(g, np.zeros(5), "gossip", 10)
    with pytest.raises(ValueError, match="more than 2 nodes"):
        run_protocol(build_digraph(2, [(2, 1), (1, 2)]), np.zeros(2), "push_sum", 10)
    with pytest.raises(ValueError, match="shape"):
        run_protocol(g, np.zeros(4), "push_sum", 10)
    with pytest.raises(ValueError, match="rounds"):
        run_protocol(g, np.zeros(5), "push_sum", 0)


def test_builtin_tags_registered() -> None:
    assert set(PROTOCOLS) >= {"push_sum", "decomposed"}


def test_run_protocol_bit_identical() -> None:
    g = demo_digraph()
    x0 = np.array([10.0, 0.0, 25.0, 5.0, 40.0])
    for proto in ("push_sum", "decomposed"):
        a = run_protocol(g, x0, proto, 40, 100.0, seed=21)
        b = run_protocol(g, x0, proto, 40, 100.0, seed=21)
        assert list(trace_lines(a)) == list(trace_lines(b))


def test_push_sum_converges_to_direct_mean() -> None:
    g = demo_digraph()
    rng = np.random.default_rng(77)
    for seed in (1, 2, 3):
        x0 = rng.uniform(0, 50, 5)
        trace = run_protocol(g, x0, "push_sum", 200, seed=seed)
        mean = x0.sum() / 5.0  # direct oracle
        assert np.abs(estimate_series(trace)[-1] - mean).max() < 1e-8


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 30),
    prob=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 1000),
    proto=st.sampled_from(PROTOCOLS),
    rounds=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
)
def test_edge_weights_match_dense_oracle(n, prob, graph_seed, proto, rounds, seed) -> None:
    # round 0 included: its decomposed weights are signed Gaussian draws
    g = random_strongly_connected(n, prob, graph_seed)
    trace = run_protocol(g, np.arange(float(n)), proto, rounds, 100.0, seed)
    dense = dense_weights(trace)
    assert column_sums(trace).tobytes() == dense.sum(axis=1).tobytes()
    for i in g.nodes:
        assert trace.weight_column(i).tobytes() == dense[:, :, i - 1].tobytes()


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(3, 12),
    prob=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 1000),
    proto=st.sampled_from(PROTOCOLS),
    rounds=st.integers(1, 20),
    data=st.data(),
)
def test_conservation_under_any_column_stochastic_weights(n, prob, graph_seed, proto, rounds, data) -> None:
    g = random_strongly_connected(n, prob, graph_seed)
    n_edges = len(g.sorted_edges)
    share = st.floats(0.0, 1.0)
    raw_edge = data.draw(arrays(np.float64, (rounds, n_edges), elements=share))
    raw_self = data.draw(arrays(np.float64, (rounds, n), elements=share))
    raw_alpha = np.zeros((rounds, n))
    if proto == "decomposed":
        raw_alpha = data.draw(arrays(np.float64, (rounds, n), elements=share))
    senders = np.array(g.sorted_edges).reshape(-1, 2)[:, 1] - 1
    totals = raw_self + raw_alpha
    for e, i in enumerate(senders):
        totals[:, i] += raw_edge[:, e]
    idle = totals == 0.0  # a sender that drew only zeros keeps everything
    raw_self[idle] = totals[idle] = 1.0
    x0 = data.draw(arrays(np.float64, n, elements=st.floats(-100.0, 100.0)))
    states = np.zeros((rounds + 1, 4, n))
    states[0] = init_push_sum(x0) if proto == "push_sum" else init_decomposed(x0, 100.0, SeedStreams(n))
    weights = (raw_edge / totals[:, senders], raw_self / totals, raw_alpha / totals)
    trace = replay(Trace(proto, g, x0, 0, 100.0, *weights, states, np.zeros((rounds, n_edges, 2))))
    status = {item.name: item.status for item in check_invariants(trace).items}
    assert status["column_stochasticity"] == status["conservation"] == "pass"
    s1, s2 = conserved_sums(trace)
    assert np.abs(s1 - s1[0]).max() <= 1e-9 * max(1.0, abs(s1[0]))
    assert np.abs(s2 - s2[0]).max() <= 1e-9 * max(1.0, abs(s2[0]))


@settings(max_examples=60, deadline=None)
@given(trace=block_edge_traces(), data=st.data())
def test_blockwise_round_loop_and_column_sums_match_one_shot_oracles(trace, data) -> None:
    """The round loop (_evolve, through replay) and column_sums, a block of
    rounds at a time, give the bits of one pass over the whole run, on
    round counts at the block edges, on spoiled weights and states and with
    any rounds retaining nothing; so do the column sums of each block."""
    trace = tampered(trace, data)
    idle = data.draw(arrays(np.bool_, trace.n_rounds), label="rounds retaining nothing")
    for alpha in (trace.alpha, np.where(idle[:, None], 0.0, trace.alpha)):
        args = (trace.graph, trace.edge_w, trace.self_w, alpha, trace.states[0])
        retaining = Trace(trace.protocol, trace.graph, trace.x0, trace.seed, trace.spread, trace.edge_w,
                          trace.self_w, alpha, trace.states)
        with np.errstate(all="ignore"):
            assert replay(retaining).states.tobytes() == one_shot_evolve(*args).tobytes()
    sums = one_shot_column_sums(trace)
    assert column_sums(trace).tobytes() == sums.tobytes()
    for block in trace.blocks():
        assert column_sums(block).tobytes() == sums[block.rounds].tobytes()


ROUND_KINDS = ("as drawn", "nonzero", "mixed", "zero", "special")
with np.errstate(invalid="ignore"):
    MADE_NAN = np.subtract(np.inf, np.inf)  # the NaN that the arithmetic itself makes


def nan_sign_blind(a: np.ndarray) -> bytes:
    """a's bytes with every NaN as numpy's np.nan."""
    a = a.copy()
    a[np.isnan(a)] = np.nan
    return a.tobytes()


@settings(max_examples=100, deadline=None)
@given(trace=block_edge_traces(nodes=(3, 30)), data=st.data())
def test_round_loop_matches_one_shot_oracle_on_every_kind_of_round(trace, data) -> None:
    """run_protocol and replay give one_shot_evolve's bits on hypothesis
    graphs, both protocols, at 1, 15, 16, 17 and 33 rounds, whatever each
    round's alpha: nonzero everywhere, zero on some nodes only, zero
    everywhere (no retained step), or NaN, infinite, signed zero or
    extreme; also from start states and weights that hold NaN or an
    infinity.

    The injected NaN is either the one the arithmetic makes, as in a run,
    and then the states match bit for bit, or np.nan.  Its bits differ on
    x86, and where it meets another NaN in the (2, n) add, which of the two
    comes out depends on how numpy's loop splits the rows, so then the
    states match up to the sign of their NaNs.
    """
    assert block_edges(ROUND_BLOCK) == (1, 15, 16, 17, 33)
    g, n = trace.graph, trace.graph.n
    assert trace.states.tobytes() == one_shot_evolve(g, trace.edge_w, trace.self_w, trace.alpha,
                                                     trace.states[0]).tobytes()
    nan = data.draw(st.sampled_from([MADE_NAN, np.float64(np.nan)]), label="nan")
    nonzero = st.one_of(st.floats(1e-3, 1.0), st.floats(-1.0, -1e-3))
    special = st.sampled_from([nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, 1e308, 0.5])
    alpha, state0, edge_w = trace.alpha.copy(), trace.states[0].copy(), trace.edge_w.copy()
    for k in range(trace.n_rounds):
        kind = data.draw(st.sampled_from(ROUND_KINDS), label="round kind")
        if kind in ("nonzero", "mixed"):
            alpha[k] = data.draw(arrays(np.float64, n, elements=nonzero), label="alpha")
        if kind == "mixed":
            zeros = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1), label="zero nodes")
            alpha[k, sorted(zeros)] = data.draw(st.sampled_from([0.0, -0.0]), label="zero")
        elif kind == "zero":
            alpha[k] = 0.0
        elif kind == "special":
            alpha[k] = data.draw(arrays(np.float64, n, elements=special), label="alpha")
    for _ in range(data.draw(st.integers(0, 2), label="non-finite start entries")):
        state0[data.draw(st.integers(0, 3)), data.draw(st.integers(0, n - 1))] = data.draw(
            st.sampled_from([nan, np.inf, -np.inf]), label="start entry")
    if data.draw(st.booleans(), label="non-finite weight"):
        edge_w[data.draw(st.integers(0, trace.n_rounds - 1)), data.draw(st.integers(0, edge_w.shape[1] - 1))] = \
            data.draw(st.sampled_from([nan, np.inf, -np.inf]), label="weight")
    redone = replay(Trace(trace.protocol, g, trace.x0, trace.seed, trace.spread, edge_w, trace.self_w, alpha,
                          trace.states), state0)
    with np.errstate(all="ignore"):
        expected = one_shot_evolve(g, edge_w, trace.self_w, alpha, state0)
    if nan.tobytes() == MADE_NAN.tobytes():
        assert redone.states.tobytes() == expected.tobytes()
    else:
        assert nan_sign_blind(redone.states) == nan_sign_blind(expected)


def test_replay_reproduces_states_exactly() -> None:
    g = demo_digraph()
    x0 = np.array([2.0, 4.0, 6.0, 8.0, 10.0])
    for proto in ("push_sum", "decomposed"):
        trace = run_protocol(g, x0, proto, 30, 100.0, seed=12)
        redone = replay(trace)
        assert np.array_equal(trace.states, redone.states)
        assert np.array_equal(trace.sent, redone.sent)


# ---------------------------------------------------------------------------
# serialization


def test_trace_file_roundtrip_bit_exact(tmp_path) -> None:
    g = demo_digraph()
    x0 = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
    for proto in ("push_sum", "decomposed"):
        trace = run_protocol(g, x0, proto, 25, 100.0, seed=2)
        path = tmp_path / f"{proto}.jsonl"
        write_trace(trace, path)
        back = read_trace(path)
        assert list(trace_lines(back)) == list(trace_lines(trace))
        assert back.seed == trace.seed
        assert np.array_equal(back.states[0], trace.states[0])


def trace_arrays(trace) -> list[bytes]:
    return [a.tobytes() for a in (trace.edge_w, trace.self_w, trace.alpha, trace.states, trace.sent)]


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(3, 30),
    prob=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 1000),
    proto=st.sampled_from(PROTOCOLS),
    rounds=st.integers(1, 40),
    seed=st.integers(0, 2**32 - 1),
    low=st.floats(-100.0, 100.0),
)
def test_roundtrip_and_replay_are_bit_exact(tmp_path_factory, n, prob, graph_seed, proto, rounds, seed, low) -> None:
    g = random_strongly_connected(n, prob, graph_seed)
    x0 = sample_initial_values(n, {"dist": "uniform", "low": low, "high": low + 50.0}, SeedStreams(seed))
    trace = run_protocol(g, x0, proto, rounds, 100.0, seed)
    assert trace.edge_w.shape == (rounds, len(g.sorted_edges)) and trace.self_w.shape == (rounds, n)
    assert trace.alpha.shape == (rounds, n)
    assert trace.states.shape == (rounds + 1, 4, n)
    assert trace.sent.shape == (rounds, len(g.sorted_edges), 2)
    path = tmp_path_factory.mktemp("roundtrip") / "trace.jsonl"
    write_trace(trace, path)
    assert trace_arrays(read_trace(path)) == trace_arrays(trace)
    assert trace_arrays(replay(trace)) == trace_arrays(trace)


# a NaN with its sign bit set and one with a payload; only base64 arrays keep them apart
ODD_NANS = tuple(np.array([0xFFF8000000000000, 0x7FF8000000000ABC], dtype=np.uint64).view(np.float64).tolist())
SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072e-310, 1e16, 1.2345678901234567e300) + ODD_NANS
TRACE_FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))


@st.composite
def array_traces(draw):
    """A Trace filled straight from arrays, on a strongly connected graph."""
    n = draw(st.integers(1, 12))
    if n == 1:
        g = build_digraph(1, [])
    elif n == 2:
        g = build_digraph(2, [(1, 2), (2, 1)])
    else:
        g = random_strongly_connected(n, draw(st.floats(0.0, 1.0)), draw(st.integers(0, 1000)))
    rounds = draw(st.integers(0, 6))

    def fill(shape):
        return draw(arrays(np.float64, shape, elements=TRACE_FLOATS))

    return Trace(
        protocol=draw(st.sampled_from(PROTOCOLS)),
        graph=g,
        x0=fill((n,)),
        seed=draw(st.integers(0, 2**40)),
        spread=draw(st.one_of(st.none(), st.floats(1.0, 1e3))),
        edge_w=fill((rounds, len(g.sorted_edges))),
        self_w=fill((rounds, n)),
        alpha=fill((rounds, n)),
        states=fill((rounds + 1, 4, n)),
        recorded_sent=fill((rounds, len(g.sorted_edges), 2)),
    )


def canonical_nan(a: np.ndarray) -> np.ndarray:
    """a with every NaN replaced by numpy's NaN, the one a text file can hold."""
    return np.where(np.isnan(a), np.nan, a)


def stored_states(trace) -> np.ndarray:
    """trace.states as a file stores them: push_sum leaves out the retained rows."""
    states = trace.states.copy()
    states[:, len(STATE_KEYS[trace.protocol]) :] = 0.0
    return states


def off_pattern(g) -> np.ndarray:
    """Mask of the weight entries that are neither an edge nor the diagonal."""
    off = ~np.eye(g.n, dtype=bool)
    for j, i in g.edges:
        off[j - 1, i - 1] = False
    return off


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(
    trace=array_traces(),
    extra=st.sampled_from([None, {}, {"config_hash": "abc"}]),
    stray=st.booleans(),
    data=st.data(),
)
def test_v1_reader_restores_json_dumps_trace(tmp_path_factory, trace, extra, stray, data) -> None:
    g = trace.graph
    p = data.draw(arrays(np.float64, (trace.n_rounds, g.n, g.n), elements=TRACE_FLOATS))
    if not stray:
        p[:, off_pattern(g)] = data.draw(st.sampled_from([0.0, -0.0]))
    path = tmp_path_factory.mktemp("v1") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in reference_trace_lines(trace, p, extra)))
    back = read_trace(path)
    # the reader keeps each edge's entry p[k, j-1, i-1] and the diagonal
    edges = np.array(g.sorted_edges, dtype=np.intp).reshape(-1, 2) - 1
    edge_w, self_w = p[:, edges[:, 0], edges[:, 1]], np.diagonal(p, axis1=1, axis2=2)
    expected = [edge_w, self_w, trace.alpha, stored_states(trace), trace.sent]
    assert trace_arrays(back) == [canonical_nan(a).tobytes() for a in expected]
    # and the first nonzero entry off them, NaN included and -0.0 not
    hits = np.argwhere((p != 0.0) & off_pattern(g))
    k, j, i = hits[0] if len(hits) else (None, None, None)
    assert back.stray_weight == (None if k is None else (int(k), int(j) + 1, int(i) + 1))
    assert canonical_nan(back.x0).tobytes() == canonical_nan(trace.x0).tobytes()
    assert (back.protocol, back.seed, back.spread, back.graph) == (trace.protocol, trace.seed, trace.spread, trace.graph)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(trace=array_traces(), extra=st.sampled_from([None, {"config_hash": "abc"}]))
def test_v2_roundtrip_keeps_every_bit(tmp_path_factory, trace, extra) -> None:
    path = tmp_path_factory.mktemp("v2") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in v2_trace_lines(trace, extra)))
    back = read_trace(path)
    # round lines hold raw bytes, NaN payloads included, and the recorded
    # sent products are kept as read; the JSON header holds x0 and the
    # round-0 state as text
    assert back.edge_w.tobytes() == trace.edge_w.tobytes()
    assert back.self_w.tobytes() == trace.self_w.tobytes()
    assert back.alpha.tobytes() == trace.alpha.tobytes()
    assert back.sent.tobytes() == trace.sent.tobytes()
    states = stored_states(trace)
    assert back.states[1:].tobytes() == states[1:].tobytes()
    assert back.states[0].tobytes() == canonical_nan(states[0]).tobytes()
    assert canonical_nan(back.x0).tobytes() == canonical_nan(trace.x0).tobytes()
    assert (back.protocol, back.seed, back.spread, back.graph) == (trace.protocol, trace.seed, trace.spread, trace.graph)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None)
@given(trace=array_traces())
@example(trace=Trace("decomposed", RING3, np.array(ODD_NANS + (-0.0,)), 7, 100.0, np.zeros((0, 3)), np.zeros((0, 3)),
                     np.zeros((0, 3)), np.array(ODD_NANS * 6).reshape(1, 4, 3), np.zeros((0, 3, 2))))
def test_v3_roundtrip_keeps_every_bit(tmp_path_factory, trace) -> None:
    path = tmp_path_factory.mktemp("v3") / "trace.jsonl"
    write_trace(trace, path)
    lines = path.read_text().splitlines()
    assert lines == [json.dumps(json.loads(line), sort_keys=True) for line in lines]
    assert all(sorted(json.loads(line)) == list(ROUND_KEYS) for line in lines[1:])
    back = read_trace(path)
    # every array is raw bytes, the header's x0 and round-0 state included,
    # so NaN payloads survive; the read records no products and derives
    # them from what was read, inf * 0 and overflow without a warning
    states = stored_states(trace)
    assert back.x0.tobytes() == trace.x0.tobytes()
    assert back.states.tobytes() == states.tobytes()
    assert back.edge_w.tobytes() == trace.edge_w.tobytes()
    assert back.self_w.tobytes() == trace.self_w.tobytes()
    assert back.alpha.tobytes() == trace.alpha.tobytes()
    assert back.recorded_sent is None
    assert back.sent.tobytes() == transmissions(trace.graph, trace.edge_w, states).tobytes()
    assert (back.protocol, back.seed, back.spread, back.graph) == (trace.protocol, trace.seed, trace.spread, trace.graph)


def read_or_error(path) -> Trace | str:
    try:
        return read_trace(path)
    except TraceFormatError as exc:
        return str(exc)


@settings(max_examples=120, deadline=None)
@given(trace=block_edge_traces(), fmt=st.sampled_from([2, 3]), data=st.data())
def test_block_reader_matches_line_at_a_time_oracle(tmp_path_factory, trace, fmt, data) -> None:
    """A v3 or v2 file of 1, B-1, B, B+1 or 2B+1 rounds (B = ROUND_BLOCK),
    clean or with one line spoiled, reads as the line-at-a-time reader
    reads it: equal bytes in every array, or the same TraceFormatError
    text, line number included."""
    lines = list(trace_lines(trace)) if fmt == 3 else v2_trace_lines(trace)
    path = tmp_path_factory.mktemp("blocks") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in corrupt_line(lines, data)))
    got = read_or_error(path)
    try:
        expected = line_at_a_time_read_trace(path)
    except TraceFormatError as exc:
        expected = str(exc)
    if isinstance(expected, str) or isinstance(got, str):
        assert got == expected
        return
    for name in ("x0", "edge_w", "self_w", "alpha", "states"):
        assert getattr(got, name).tobytes() == getattr(expected, name).tobytes(), name
    assert (got.recorded_sent is None) == (fmt == 3) == (expected.recorded_sent is None)
    if fmt == 2:
        assert got.recorded_sent.tobytes() == expected.recorded_sent.tobytes()
    assert (got.protocol, got.seed, got.spread, got.graph) == (expected.protocol, expected.seed, expected.spread,
                                                               expected.graph)


@settings(max_examples=30, deadline=None)
@given(trace=protocol_traces())
def test_v3_read_restores_recorded_sent(tmp_path_factory, trace) -> None:
    # a v3 file stores no products: the read derives the bits run_protocol's trace derives
    path = tmp_path_factory.mktemp("v3sent") / "trace.jsonl"
    write_trace(trace, path)
    assert read_trace(path).sent.tobytes() == trace.sent.tobytes()


@settings(max_examples=40, deadline=None)
@given(trace=protocol_traces(), data=st.data())
def test_products_are_transmissions_on_any_edges_and_rounds(tmp_path_factory, trace, data) -> None:
    """products(edges, rounds) is transmissions' slice bit for bit; only a
    recorded trace returns its own values, tampered ones included."""
    g, rounds = trace.graph, trace.n_rounds
    edges = data.draw(st.lists(st.integers(0, len(g.sorted_edges) - 1), max_size=12), label="edges")
    start = data.draw(st.integers(0, rounds), label="start")
    block = slice(start, data.draw(st.integers(start, rounds + 2), label="stop"))
    full = transmissions(g, trace.edge_w, trace.states)
    path = tmp_path_factory.mktemp("products") / "trace.jsonl"
    write_trace(trace, path)
    for derived in (trace, replay(trace), read_trace(path)):
        assert derived.recorded_sent is None
        assert derived.products(edges).tobytes() == full[:, edges].tobytes()
        assert derived.products(edges, block).tobytes() == full[block][:, edges].tobytes()
        assert derived.products(rounds=block).tobytes() == full[block].tobytes()
        assert derived.sent.tobytes() == full.tobytes()
    recorded = full.copy()
    recorded[data.draw(st.integers(0, rounds - 1), label="tampered round")] *= 3.0
    tampered = Trace(trace.protocol, g, trace.x0, trace.seed, trace.spread, trace.edge_w, trace.self_w,
                     trace.alpha, trace.states, recorded)
    assert tampered.sent is recorded
    assert tampered.products(edges).tobytes() == recorded[:, edges].tobytes()
    assert tampered.products(edges, block).tobytes() == recorded[block][:, edges].tobytes()


def test_run_and_read_hold_no_product_array(tmp_path) -> None:
    """On the benchmark's 24-node graph (177 edges), the tracemalloc peak of
    run_protocol over 200 rounds and of read_trace over 60 stays below the
    returned trace's own arrays plus one (R, E, 2) array's size: the trace
    and a full product array never fit under it together."""
    g = random_strongly_connected(24, 0.3, 7)
    assert len(g.sorted_edges) == 177
    x0 = sample_initial_values(g.n, {"dist": "uniform", "low": 0.0, "high": 50.0}, SeedStreams(1))
    path = tmp_path / "trace.jsonl"
    write_trace(run_protocol(g, x0, "decomposed", 60, 100.0, 1), path)
    for rounds, call in ((200, lambda: run_protocol(g, x0, "decomposed", 200, 100.0, 1)), (60, lambda: read_trace(path))):
        tracemalloc.start()
        try:
            trace = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.n_rounds == rounds and trace.recorded_sent is None
        own = sum(a.nbytes for a in (trace.x0, trace.edge_w, trace.self_w, trace.alpha, trace.states))
        allowance = rounds * len(g.sorted_edges) * 2 * 8
        assert peak < own + allowance, (rounds, peak, own, allowance)


def test_blockwise_passes_hold_no_temporary_that_grows_with_rounds(tmp_path) -> None:
    """On the benchmark's 24-node graph, each pass's tracemalloc peak above the
    whole-run arrays it must hold grows by at most 2x from 200 to 2,000
    rounds: the report's arrays for forward_product, the returned sums for
    column_sums, and nothing for write_estimates_csv or check_invariants,
    which replays one block at a time.  A temporary as long as the run
    would grow about tenfold."""
    g = random_strongly_connected(24, 0.3, 7)
    assert len(g.sorted_edges) == 177
    x0 = sample_initial_values(g.n, {"dist": "uniform", "low": 0.0, "high": 50.0}, SeedStreams(1))

    def above_held(call, held) -> int:
        tracemalloc.start()
        try:
            result = call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak - held(result)

    def report_arrays(report):
        return sum(a.nbytes for a in (report.rounds, report.delta, report.bound, report.product, report.limit_column))

    extra: dict[str, list[int]] = {}
    for rounds in (200, 2000):
        trace = run_protocol(g, x0, "decomposed", rounds, 100.0, 1)
        for name, call, held in (
            ("forward_product", lambda: analysis.forward_product(trace), report_arrays),
            ("column_sums", lambda: column_sums(trace), lambda sums: sums.nbytes),
            ("write_estimates_csv", lambda: write_estimates_csv(trace, tmp_path / "est.csv"), lambda _: 0),
            ("check_invariants", lambda: harness.check_invariants(trace), lambda _: 0),
        ):
            extra.setdefault(name, []).append(above_held(call, held))
    for name, (short, long) in extra.items():
        assert 0 < long <= 2 * short, (name, short, long)


def test_weight_sampling_temporaries_do_not_grow_with_rounds() -> None:
    """On the benchmark's 24-node graph, what sample_round_weights holds
    above its output stays under one bound, 0.4 MiB, at 200 and at 2,000
    rounds.  A pass of 1,600 rows at 13 draws holds 1,600 * (64 + 8 * 13)
    bytes, 0.26 MiB.  Drawing each count class's rows of the whole run at
    once held about 0.32 MiB above the output at 200 rounds and 3.2 MiB at
    2,000."""
    g = random_strongly_connected(24, 0.3, 7)
    bound = 0.4 * 2**20
    for rounds in (200, 2000):
        tracemalloc.start()
        try:
            weights = sample_round_weights(g, range(rounds), 100.0, SeedStreams(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - sum(w.nbytes for w in weights) < bound, (rounds, peak, bound)


def test_trace_file_rejects_corruption(tmp_path) -> None:
    g = demo_digraph()
    trace = run_protocol(g, np.arange(5.0), "decomposed", 5, 100.0, seed=1)
    path = tmp_path / "t.jsonl"
    write_trace(trace, path)
    lines = path.read_text().splitlines()

    broken = tmp_path / "broken.jsonl"
    broken.write_text("\n".join(lines[:3] + ["{not json"] + lines[4:]) + "\n")
    with pytest.raises(TraceFormatError, match="line 4"):
        read_trace(broken)

    rec = json.loads(lines[2])
    del rec["alpha"]
    broken.write_text("\n".join(lines[:2] + [json.dumps(rec)] + lines[3:]) + "\n")
    with pytest.raises(TraceFormatError, match="line 3"):
        read_trace(broken)

    broken.write_text("")
    with pytest.raises(TraceFormatError, match="empty"):
        read_trace(broken)


def test_estimates_csv(tmp_path) -> None:
    g = demo_digraph()
    x0 = np.array([10.0, 20.0, 30.0, 40.0, 50.0])
    trace = run_protocol(g, x0, "decomposed", 10, 100.0, seed=3)
    path = tmp_path / "est.csv"
    write_estimates_csv(trace, path, comment="config_hash=abc")
    rows = path.read_text().splitlines()
    assert rows[0] == "# config_hash=abc"
    assert rows[1] == "k,node,estimate,abs_error"
    # round 0 of the decomposed protocol is undefined: empty cells
    assert rows[2].startswith("0,1,,")
    assert len(rows) == 2 + 11 * 5
    k1_node1 = rows[2 + 5].split(",")
    assert float(k1_node1[2]) == pytest.approx(estimate_series(trace)[1, 0])


def estimates_span(n: int) -> int:
    """Rounds in one of write_estimates_csv's chunks on n nodes."""
    return -(-TABLE_CHUNK // n)


@settings(max_examples=40, deadline=None)
@given(trace=block_edge_traces(nodes=(3, 30), block=estimates_span), data=st.data())
def test_blockwise_estimates_csv_matches_whole_table_oracle(tmp_path_factory, trace, data) -> None:
    """write_estimates_csv, a block of rounds at a time, writes the bytes of
    the whole-table writer, on round counts at the chunk edges, for small
    graphs (longer chunks) and larger ones, and on spoiled states."""
    trace = tampered(trace, data)
    comment = data.draw(st.one_of(st.none(), st.just("config_hash=abc")), label="comment")
    where = tmp_path_factory.mktemp("estimates")
    write_estimates_csv(trace, where / "blocks.csv", comment)
    one_shot_estimates_csv(trace, where / "oracle.csv", comment)
    assert (where / "blocks.csv").read_bytes() == (where / "oracle.csv").read_bytes()


# x1 and x2 values whose ratios give every kind of estimate cell: empty
# (NaN, or x2 under the guard), +-0.0, +-inf, repeats and plain floats
ESTIMATE_NUMERATORS = (math.nan, 0.0, -0.0, math.inf, -math.inf, 1.0, -2.5, 0.1, 1e-300, 3.0)
ESTIMATE_DENOMINATORS = (0.0, -0.0, 1e-13, math.nan, math.inf, 1.0, -1.0, 3.0, 0.7)


@st.composite
def estimate_tables(draw) -> Trace:
    """Traces for write_estimates_csv alone, on n from 1 to above TABLE_CHUNK
    nodes with a graph of no edges: round counts at the edges of its chunks,
    and states whose ratios give NaN, +-0.0, +-inf and repeated values."""
    n = draw(st.one_of(st.integers(1, 30), st.sampled_from((TABLE_CHUNK - 1, TABLE_CHUNK, TABLE_CHUNK + 1, 300))),
             label="n")
    span = estimates_span(n)
    rows = draw(st.sampled_from(sorted({1, span - 1, span, span + 1, 2 * span, 2 * span + 1} - {0})), label="rows")
    nums = np.array(ESTIMATE_NUMERATORS + tuple(draw(st.lists(TRACE_FLOATS, max_size=3), label="more x1")))
    dens = np.array(ESTIMATE_DENOMINATORS)
    states = np.zeros((rows, 4, n))
    states[:, 0] = nums[draw(arrays(np.intp, (rows, n), elements=st.integers(0, len(nums) - 1)), label="x1")]
    states[:, 1] = dens[draw(arrays(np.intp, (rows, n), elements=st.integers(0, len(dens) - 1)), label="x2")]
    x0 = draw(arrays(np.float64, n, elements=st.floats(-1e6, 1e6)), label="x0")
    rounds = rows - 1
    return Trace("push_sum", Digraph(n, frozenset()), x0, 0, None, np.empty((rounds, 0)), np.empty((rounds, n)),
                 np.zeros((rounds, n)), states)


@settings(max_examples=60, deadline=None)
@given(trace=estimate_tables(), comment=st.one_of(st.none(), st.just("config_hash=abc")))
def test_estimates_csv_matches_per_cell_writer(tmp_path_factory, trace, comment) -> None:
    """write_estimates_csv writes exactly the bytes of a writer that makes
    one repr per cell of the whole table, NaN as an empty cell, whatever the
    node count, the round count and the values."""
    where = tmp_path_factory.mktemp("estimates")
    with np.errstate(all="ignore"):
        write_estimates_csv(trace, where / "chunks.csv", comment)
        one_shot_estimates_csv(trace, where / "oracle.csv", comment)
    assert (where / "chunks.csv").read_bytes() == (where / "oracle.csv").read_bytes()


@st.composite
def table_columns(draw):
    """write_table input: a header, equal-length columns and an optional comment.

    The lengths sit around the 256-row chunk.  The columns are float64 arrays
    of any values, of a few values repeated (the shape of converged
    estimates) and a strided view; int64 and bool arrays; a range; and a
    list of Python ints above 2**64 in runs, as compare.csv holds its seeds.
    """
    length = draw(st.sampled_from((0, 1, 255, 256, 257, 513)))
    pool = np.array(draw(st.lists(TRACE_FLOATS, min_size=1, max_size=4)))
    picks = draw(arrays(np.intp, length, elements=st.integers(0, len(pool) - 1)))
    big = draw(st.lists(st.integers(2**64, 2**80), min_size=1, max_size=3))
    start = draw(st.integers(-(2**40), 2**40))
    columns = [
        draw(arrays(np.float64, length, elements=TRACE_FLOATS)),
        pool[picks],
        draw(arrays(np.float64, (length, 2), elements=TRACE_FLOATS))[:, 1],
        draw(arrays(np.int64, length)),
        draw(arrays(np.bool_, length)),
        range(start, start + length),
        [big[i * len(big) // length] for i in range(length)],
    ]
    header = [f"c{i}" for i in range(len(columns))]
    return header, columns, draw(st.one_of(st.none(), st.just("config_hash=abc")))


@settings(max_examples=60, deadline=None)
@given(table=table_columns())
@example(table=(["x"], [np.array([0.0, -0.0, 0.0, -0.0])], None))  # equal values, distinct bits
@example(table=(["x", "y"], [np.array(ODD_NANS + (math.nan, -0.0, 0.0)), range(5)], "c"))
def test_write_table_matches_per_cell_oracle(tmp_path_factory, table) -> None:
    header, columns, comment = table
    where = tmp_path_factory.mktemp("table")
    write_table(where / "fast.csv", header, columns, comment)
    loop_write_table(where / "oracle.csv", header, columns, comment)
    assert (where / "fast.csv").read_bytes() == (where / "oracle.csv").read_bytes()


def test_sample_initial_values() -> None:
    streams = SeedStreams(5)
    a = sample_initial_values(5, {"dist": "uniform", "low": 0, "high": 50}, streams)
    b = sample_initial_values(5, {"dist": "uniform", "low": 0, "high": 50}, SeedStreams(5))
    assert np.array_equal(a, b)
    assert ((a >= 0) & (a < 50)).all()
    c = sample_initial_values(3, {"dist": "constant", "value": 7.5}, streams)
    assert np.array_equal(c, [7.5, 7.5, 7.5])
    with pytest.raises(ValueError, match="distribution"):
        sample_initial_values(3, {"dist": "exotic"}, streams)
