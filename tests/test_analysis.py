"""Augmented matrix form, ergodicity coefficient, forward products, metrics."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pushsim import (
    build_digraph,
    convergence_round,
    demo_digraph,
    ergodicity_coefficient,
    forward_product,
    random_strongly_connected,
    run_metrics,
    run_protocol,
)
from pushsim.protocol import (
    ROUND_BLOCK,
    SeedStreams,
    init_decomposed,
    sample_round_weights,
)

from helpers import (
    augmented_matrix,
    block_edge_traces,
    block_edges,
    decomposed_round,
    dense_forward_product,
    dense_weights,
    loop_convergence_round,
    loop_mse,
    one_shot_forward_product,
    protocol_traces,
    spoiled,
    tampered,
    stack_state,
    weight_matrix,
)


def test_augmented_matrix_layout() -> None:
    g = build_digraph(3, [(2, 1), (3, 2), (1, 3)])
    edge_w, self_w, alpha = sample_round_weights(g, 1, 100.0, SeedStreams(3))
    p = weight_matrix(g, edge_w, self_w)
    big = augmented_matrix(p, alpha)
    assert big.shape == (6, 6)
    assert np.array_equal(big[:3, :3], p)
    assert np.array_equal(big[:3, 3:], np.eye(3))
    assert np.array_equal(big[3:, :3], np.diag(alpha))
    assert np.array_equal(big[3:, 3:], np.zeros((3, 3)))
    assert np.allclose(big.sum(axis=0), 1.0, atol=1e-12)


def test_ergodicity_coefficient_known_values() -> None:
    assert ergodicity_coefficient(np.eye(4)) == pytest.approx(1.0)
    m = np.array([[0.2, 0.5], [0.8, 0.5]])
    assert ergodicity_coefficient(m) == pytest.approx(0.3)
    flat = np.array([[0.25, 0.25], [0.75, 0.75]])
    assert ergodicity_coefficient(flat) == pytest.approx(0.0)


def test_ergodicity_coefficient_rejects_bad_input() -> None:
    with pytest.raises(ValueError, match="square"):
        ergodicity_coefficient(np.ones((2, 3)))
    with pytest.raises(ValueError, match="columns must sum to 1"):
        ergodicity_coefficient(np.array([[0.5, 0.5], [0.6, 0.5]]))


def test_augmented_matrix_reproduces_round_update() -> None:
    # single-round cross-check: the linear form against the elementwise code
    rng = np.random.default_rng(90)
    checked = 0
    while checked < 1000:
        n = int(rng.integers(3, 7))
        g = random_strongly_connected(n, rng.uniform(0.1, 0.5), int(rng.integers(1 << 30)))
        streams = SeedStreams(int(rng.integers(1 << 30)))
        state = init_decomposed(rng.uniform(-50, 50, n), 100.0, streams)
        k = int(rng.integers(0, 4))
        edge_w, self_w, alpha = sample_round_weights(g, k, 100.0, streams)
        p = weight_matrix(g, edge_w, self_w)
        nxt = decomposed_round(p, alpha, state)
        big = augmented_matrix(p, alpha)
        v1, v2 = stack_state(state)
        u1, u2 = stack_state(nxt)
        assert np.allclose(big @ v1, u1, rtol=1e-12, atol=1e-12)
        assert np.allclose(big @ v2, u2, rtol=1e-12, atol=1e-12)
        checked += 1


def test_forward_product_first_factor_and_order() -> None:
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 3, seed=2)
    dense = dense_weights(trace)
    a1 = augmented_matrix(dense[1], trace.alpha[1])
    a2 = augmented_matrix(dense[2], trace.alpha[2])
    r1 = forward_product(trace, k=1)
    assert np.array_equal(r1.product, a1)
    r2 = forward_product(trace, k=2)
    assert np.allclose(r2.product, a2 @ a1, rtol=1e-12, atol=1e-12)
    assert not np.allclose(r2.product, a1 @ a2, atol=1e-9)


def test_forward_product_bound_and_conservation() -> None:
    trace = run_protocol(demo_digraph(), np.arange(5.0) * 3, "decomposed", 120, seed=9)
    report = forward_product(trace)
    assert list(report.rounds[:2]) == [1, 2] and report.rounds[-1] == 119
    assert 0 < report.epsilon < 1
    deltas = report.delta
    bounds = report.bound
    assert len(deltas) == len(bounds) == 119
    assert np.all(deltas <= bounds + 1e-12)
    assert deltas[-1] < deltas[0]
    # products of column-stochastic factors stay column stochastic
    assert np.allclose(report.product.sum(axis=0), 1.0, atol=1e-9)
    v1, _ = stack_state(trace.states[2])
    assert (report.product @ v1).sum() == pytest.approx(v1.sum(), abs=1e-9)


def test_forward_product_limit_column() -> None:
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 200, seed=3)
    report = forward_product(trace)
    # near-ergodic: every column close to the common limit column
    for col in report.product.T:
        assert np.allclose(col, report.limit_column, atol=1e-8)


def test_forward_product_rejections() -> None:
    dec = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 10, seed=1)
    ps = run_protocol(demo_digraph(), np.arange(5.0), "push_sum", 10, seed=1)
    with pytest.raises(ValueError, match="decomposed"):
        forward_product(ps)
    with pytest.raises(ValueError, match="k"):
        forward_product(dec, k=0)
    with pytest.raises(ValueError, match="k"):
        forward_product(dec, k=10)


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(9, 30),
    prob=st.floats(0.0, 0.6),
    graph_seed=st.integers(0, 1000),
    seed=st.integers(0, 2**40),
    rounds=st.integers(2, 60),
    data=st.data(),
)
def test_forward_product_matches_dense_loop_bit_for_bit(n, prob, graph_seed, seed, rounds, data) -> None:
    g = random_strongly_connected(n, prob, graph_seed)
    trace = run_protocol(g, np.linspace(-20.0, 30.0, n), "decomposed", rounds, seed=seed)
    k = data.draw(st.integers(1, rounds - 1), label="k")
    delta, product, epsilon = dense_forward_product(trace, k)
    report = forward_product(trace, k)
    assert report.delta.tobytes() == delta.tobytes()
    assert report.product.tobytes() == product.tobytes()
    assert report.epsilon == epsilon


def test_forward_product_epsilon_skips_zero_and_negative_weights() -> None:
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 6, seed=4)
    g = trace.graph
    # each edit moves mass within one sender's column, so every column still sums to one
    (_, i), e = g.sorted_edges[0], g.out_edges[2][0]
    trace.self_w[2, i - 1] += trace.edge_w[2, 0]
    trace.edge_w[2, 0] = 0.0
    trace.edge_w[4, e] += trace.self_w[4, 1] + 0.25
    trace.self_w[4, 1] = -0.25
    trace.edge_w[3, e] += trace.alpha[3, 1]
    trace.alpha[3, 1] = -0.0
    weights = np.concatenate([trace.edge_w[1:], trace.self_w[1:], trace.alpha[1:]], axis=1)
    delta, product, epsilon = dense_forward_product(trace, 5)
    report = forward_product(trace)
    assert report.epsilon == epsilon == weights[weights > 0.0].min() > 0.0
    assert report.delta.tobytes() == delta.tobytes()
    assert report.product.tobytes() == product.tobytes()


def test_forward_product_nan_weight_raises_like_dense_loop() -> None:
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 6, seed=4)
    trace.edge_w[3, 2] = np.nan
    with pytest.raises(ValueError) as dense:
        dense_forward_product(trace, 5)
    with pytest.raises(ValueError) as reused:
        forward_product(trace)
    assert str(reused.value) == str(dense.value)
    assert "columns must sum to 1" in str(dense.value)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [np.inf, -np.inf])
@pytest.mark.parametrize("round_", [3, 5])
def test_forward_product_inf_weight_raises_without_warning(value, round_) -> None:
    # round 5 is the last one, whose product goes through ergodicity_coefficient
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 6, seed=4)
    trace.edge_w[round_, 2] = value
    with np.errstate(all="ignore"), pytest.raises(ValueError) as dense:
        dense_forward_product(trace, 5)
    with pytest.raises(ValueError) as reused:
        forward_product(trace)
    assert str(reused.value) == str(dense.value)
    assert "columns must sum to 1" in str(dense.value)


@settings(max_examples=60, deadline=None)
@given(trace=block_edge_traces(protocols=("decomposed",), extra_rounds=1), data=st.data())
def test_blockwise_forward_product_matches_one_shot_oracle(trace, data) -> None:
    """forward_product, a block of rounds at a time, gives the one-shot loop's
    bits, or raises its message, for k on and around the block edges and on
    traces with a NaN, an infinity or a broken column sum."""
    trace = tampered(trace, data)
    k = data.draw(st.sampled_from([None, *block_edges(ROUND_BLOCK)]).filter(lambda k: k is None or k < trace.n_rounds),
                  label="k")
    try:
        expected = one_shot_forward_product(trace, k)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            forward_product(trace, k)
        assert str(raised.value) == str(exc)
        return
    report = forward_product(trace, k)
    for name in ("rounds", "delta", "bound", "product", "limit_column"):
        assert getattr(report, name).tobytes() == getattr(expected, name).tobytes(), name
    assert repr(report.epsilon) == repr(expected.epsilon)


@settings(max_examples=40, deadline=None)
@given(trace=protocol_traces(protocols=("decomposed",), min_rounds=2))
def test_delta_within_realized_bound(trace) -> None:
    report = forward_product(trace)
    n = trace.graph.n
    assert report.epsilon > 0.0
    bound = (1.0 - report.epsilon**n) ** (report.rounds // n)
    assert report.bound.tobytes() == bound.tobytes()
    assert np.all(report.delta <= bound + 1e-12)


def test_run_metrics_push_sum_consensus() -> None:
    trace = run_protocol(demo_digraph(), np.full(5, 7.0), "push_sum", 80, seed=5)
    metrics = run_metrics(trace)
    assert metrics.target == pytest.approx(7.0)
    assert metrics.defined_counts[0] == 5
    assert metrics.mse[-1] < 1e-20


def test_run_metrics_decomposed_round0_undefined() -> None:
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 30, seed=5)
    metrics = run_metrics(trace)
    assert metrics.defined_counts[0] == 0
    assert np.isnan(metrics.mse[0])
    assert metrics.defined_counts[1] == 5
    assert np.isfinite(metrics.mse[-1])


def test_convergence_round() -> None:
    errors = np.array(
        [
            [np.nan, np.nan],
            [1.0, 2.0],
            [1e-9, 5e-9],
            [1e-12, 1e-12],
        ]
    )
    assert convergence_round(errors, tol=1e-8) == 2
    assert convergence_round(errors, tol=1e-13) is None
    all_nan = np.full((3, 2), np.nan)
    assert convergence_round(all_nan, tol=1.0) is None


@settings(max_examples=60, deadline=None)
@given(trace=protocol_traces(), spoil=st.booleans(), data=st.data())
def test_run_metrics_and_convergence_round_match_row_loops(trace, spoil, data) -> None:
    if spoil:
        trace = spoiled(trace, data.draw(st.sampled_from(trace.graph.nodes), label="target"), data)
    metrics = run_metrics(trace)
    assert metrics.mse.tobytes() == loop_mse(metrics.estimates, metrics.target).tobytes()
    drawn = data.draw(st.floats(1e-15, 1e3), label="tol")
    for tol in (1e-12, 1e-8, 1e-3, drawn):
        assert repr(convergence_round(metrics.abs_error, tol)) == repr(loop_convergence_round(metrics.abs_error, tol))
