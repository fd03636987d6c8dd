"""Augmented matrix form, ergodicity coefficient, forward products, metrics."""
from __future__ import annotations

import re

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
from pushsim.analysis import ErgodicityReport, ForwardProduct
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
    split_blocks,
    spoiled,
    tampered,
    stack_state,
    weight_matrix,
    whole_array_metrics,
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


@pytest.mark.parametrize("k", [2.7, "3", True, 3.0], ids=["float", "string", "bool", "integral_float"])
def test_forward_product_k_is_not_coerced(k) -> None:
    """k must be an int or a numpy integer: int() had read 2.7 as round 2 and
    "3" as round 3, and now each is named and rejected."""
    dec = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 10, seed=1)
    with pytest.raises(ValueError, match=re.escape(f"k: must be an integer, got {k!r}")):
        forward_product(dec, k)
    by_int, by_numpy = forward_product(dec, 3), forward_product(dec, np.int64(3))
    assert by_int.delta.tobytes() == by_numpy.delta.tobytes() and list(by_numpy.rounds) == [1, 2, 3]


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


def test_forward_product_takes_no_block_past_round_k() -> None:
    """forward_product(trace, k) takes the trace's blocks up to the one that
    holds round k, and makes none after it."""
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 200, seed=4)
    blocks, taken = trace.blocks, []

    def recording():
        for block in blocks():
            taken.append(block.start)
            yield block

    trace.blocks = recording
    for k in (1, ROUND_BLOCK - 1, ROUND_BLOCK, ROUND_BLOCK + 1, 199):
        taken.clear()
        report = forward_product(trace, k)
        assert taken == list(range(0, k + 1, ROUND_BLOCK)), k
        assert report.delta.size == k


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


ALPHA_EDITS = (0.0, -0.0, -0.5, -3.0, -10.0, np.nan, np.inf)


def set_alpha(trace, k: int, i: int, value: float) -> None:
    """Set node i+1's round-k alpha to value; a finite value's change goes
    in equal shares to the sender's edge and self weights, so that its
    column still sums to one."""
    if np.isfinite(value):
        edges = list(trace.graph.out_edges[i + 1])
        share = (trace.alpha[k, i] - value) / (len(edges) + 1)
        trace.edge_w[k, edges] += share
        trace.self_w[k, i] += share
    trace.alpha[k, i] = value


def fed_in_blocks(trace, last: int, cuts) -> ErgodicityReport:
    """forward_product's report over rounds 1..last, fed the trace's rounds in split_blocks(trace, cuts)."""
    product = ForwardProduct(trace.graph, last)
    for block in split_blocks(trace, cuts):
        product.add(block)
    return product.report()


def assert_like_dense_loop(trace, last: int, cuts) -> ErgodicityReport | None:
    """ForwardProduct fed in blocks gives dense_forward_product's delta,
    product and epsilon bit for bit, or raises its ValueError; returns the
    report, or None where both raised."""
    try:
        with np.errstate(all="ignore"):
            delta, product, epsilon = dense_forward_product(trace, last)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            fed_in_blocks(trace, last, cuts)
        assert str(raised.value) == str(exc)
        return None
    report = fed_in_blocks(trace, last, cuts)
    assert report.delta.tobytes() == delta.tobytes()
    assert report.product.tobytes() == product.tobytes()
    assert repr(report.epsilon) == repr(epsilon)
    return report


@settings(max_examples=80, deadline=None)
@given(trace=protocol_traces(protocols=("decomposed",), min_rounds=2), data=st.data())
def test_forward_product_fed_in_random_splits_matches_dense_loop(trace, data) -> None:
    """ForwardProduct gives the dense loop's bits, or raises its message,
    whatever sizes the blocks come in and wherever last falls, inside a
    block or on its edge; the blocks' arrays turn NaN once added, and the
    traces hold a NaN, an infinity, a zero or a broken column sum, and
    rounds with an alpha that is zero, negative, NaN or infinite."""
    trace = tampered(trace, data)
    for _ in range(data.draw(st.integers(0, 3), label="alpha edits")):
        set_alpha(trace, data.draw(st.integers(1, trace.n_rounds - 1), label="round"),
                  data.draw(st.integers(0, trace.graph.n - 1), label="node"),
                  data.draw(st.sampled_from(ALPHA_EDITS), label="alpha"))
    last = data.draw(st.integers(1, trace.n_rounds - 1), label="last")
    cuts = data.draw(st.sets(st.integers(1, trace.n_rounds - 1)), label="cuts")
    assert_like_dense_loop(trace, last, cuts)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value", [0.0, -0.0, -3.0, np.nan, np.inf])
@pytest.mark.parametrize("round_", [1, 15, 16, 17, 39])
def test_forward_product_round_whose_alpha_is_not_positive_and_finite(value, round_) -> None:
    """A round with one alpha that is zero, negative, NaN or infinite takes
    its bottom rows' extremes from the product and gives the dense loop's
    delta bits, or raises its message at that round; on the first round, on
    and around a block edge and on the last round.  A negative alpha swaps
    the bottom row's extremes, and here it sets that round's delta, so a
    bottom row scaled from the top row before would show."""
    g = random_strongly_connected(24, 0.3, 7)
    trace = run_protocol(g, np.linspace(-20.0, 30.0, 24), "decomposed", 40, seed=5)
    before = dense_forward_product(trace, round_ - 1)[1] if round_ > 1 else np.eye(48)
    i = int(np.argmax(before[:24].max(axis=1) - before[:24].min(axis=1)))  # the widest top row before the round
    set_alpha(trace, round_, i, value)
    for cuts in ({16, 32}, {round_, min(round_ + 1, 39)}, set(range(1, 40, 3))):
        report = assert_like_dense_loop(trace, 39, cuts)
        assert (report is None) == (not np.isfinite(value))
    if value < 0.0:
        _, product, _ = dense_forward_product(trace, round_)
        spreads = product.max(axis=1) - product.min(axis=1)
        assert int(np.argmax(spreads)) == 24 + i
        assert report.delta[round_ - 1] == spreads[24 + i]


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
def test_run_metrics_matches_whole_array_formula(trace, spoil, data) -> None:
    """run_metrics, which squares its errors a block of rounds at a time,
    gives the bits of squaring every difference at once, on rows with
    undefined estimates too."""
    if spoil:
        trace = spoiled(trace, data.draw(st.sampled_from(trace.graph.nodes), label="target"), data)
    metrics = run_metrics(trace)
    abs_error, mse, counts = whole_array_metrics(trace)
    assert metrics.abs_error.tobytes() == abs_error.tobytes()
    assert metrics.mse.tobytes() == mse.tobytes()
    assert metrics.defined_counts.tobytes() == counts.tobytes()


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
