"""Eavesdropper, diagnostics, coalition views, equivalence, reconstruction."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pushsim import (
    attack_report,
    build_coalition_view,
    build_digraph,
    check_invariants,
    coalition_reconstruct,
    demo_digraph,
    eavesdrop,
    eavesdropper_diagnostics,
    equivalent_trace,
    random_strongly_connected,
    replay,
    run_protocol,
)
from pushsim.protocol import (
    SeedStreams,
    Trace,
    init_push_sum,
    sample_initial_values,
    transmissions,
)
from pushsim.traceio import trace_lines

from helpers import (
    decomposed_round,
    dense_weights,
    loop_attack_report,
    loop_eavesdrop,
    protocol_traces,
    spoiled,
    views_allclose,
)

RING3 = build_digraph(3, [(2, 1), (3, 2), (1, 3)])


def demo_trace(protocol: str, seed: int, rounds: int = 500):
    x0 = sample_initial_values(5, {"dist": "uniform", "low": 0, "high": 50}, SeedStreams(seed))
    return run_protocol(demo_digraph(), x0, protocol, rounds, 100.0, seed)


# ---------------------------------------------------------------------------
# eavesdropper


def test_eavesdrop_recovers_push_sum_initial() -> None:
    trace = demo_trace("push_sum", 7, rounds=300)
    obs = eavesdrop(trace, 5)
    errors = np.abs(obs.estimates - trace.x0[4])
    # the observer's books balance exactly for plain push-sum, so the
    # recovery holds at every round up to accumulated float drift
    assert np.nanmax(errors) < 1e-9
    assert errors[-1] < 1e-6
    assert obs.unrecoverable_rounds == []


def test_eavesdrop_all_equal_initials_constant_estimate() -> None:
    g = demo_digraph()
    trace = run_protocol(g, np.full(5, 20.0), "push_sum", 100, seed=4)
    obs = eavesdrop(trace, 3)
    assert np.nanmax(np.abs(obs.estimates - 20.0)) < 1e-10


def test_eavesdrop_decomposed_first_round_undefined() -> None:
    trace = demo_trace("decomposed", 2, rounds=50)
    obs = eavesdrop(trace, 5)
    # round 0: the target's exchanged weight substate is zero
    assert np.isnan(obs.estimates[0])
    assert not np.isnan(obs.estimates[1:]).any()


def test_eavesdrop_decomposed_exceeds_threshold() -> None:
    # seed picked from the demo scenario: the books go wrong far past c=500
    trace = demo_trace("decomposed", 1)
    report = attack_report(trace, 5, 500.0)
    assert report["post_transient_exceedance_rounds"]
    assert min(report["post_transient_exceedance_rounds"]) >= 50
    assert set(report["post_transient_exceedance_rounds"]) <= set(report["exceedance_rounds"])


def test_eavesdrop_target_without_out_edges_is_unrecoverable() -> None:
    # node 3 only receives, so no round reveals its state to the wiretap
    g = build_digraph(3, [(2, 1), (3, 2), (1, 2)])
    p = np.array([[0.5, 0.3, 0.0], [0.5, 0.4, 0.0], [0.0, 0.3, 1.0]])
    edge_w = np.array([[p[j - 1, i - 1] for j, i in g.sorted_edges]] * 3)
    self_w, alpha = np.array([np.diag(p)] * 3), np.zeros((3, 3))
    states = [init_push_sum([1.0, 2.0, 3.0])]
    for k in range(3):
        states.append(decomposed_round(p, alpha[k], states[-1]))
    states = np.stack(states)
    trace = Trace("push_sum", g, states[0, 0].copy(), 0, None, edge_w, self_w, alpha, states,
                  transmissions(g, edge_w, states))
    obs = eavesdrop(trace, 3)
    assert obs.unrecoverable_rounds == [0, 1, 2]
    assert np.isnan(obs.estimates).all()


def test_eavesdrop_rejections() -> None:
    trace = demo_trace("push_sum", 1, rounds=5)
    with pytest.raises(ValueError, match="not a node"):
        eavesdrop(trace, 9)


def test_attack_report_shape() -> None:
    trace = demo_trace("decomposed", 3, rounds=60)
    report = attack_report(trace, 5, 500.0)
    assert report["target"] == 5
    assert report["protocol"] == "decomposed"
    assert len(report["estimates"]) == 60
    assert report["estimates"][0] is None
    assert report["final_error"] == pytest.approx(abs(report["estimates"][-1] - trace.x0[4]))
    assert report["unrecoverable_rounds"] == []


@settings(max_examples=60, deadline=None)
@given(trace=protocol_traces(), spoil=st.booleans(), data=st.data())
def test_eavesdrop_and_reports_match_sequential_ledger(trace, spoil, data) -> None:
    target = data.draw(st.sampled_from(trace.graph.nodes), label="target")
    if spoil:
        trace = spoiled(trace, target, data)
    threshold = data.draw(st.sampled_from([1e-12, 0.5, 500.0]), label="threshold")
    s, estimates, unrecoverable = loop_eavesdrop(trace, target)
    obs = eavesdrop(trace, target)
    assert obs.s1.tobytes() == s[:, 0].tobytes()
    assert obs.s2.tobytes() == s[:, 1].tobytes()
    assert obs.estimates.tobytes() == estimates.tobytes()
    assert obs.unrecoverable_rounds == unrecoverable
    # repr tells a numpy scalar from a Python float or int
    assert repr(attack_report(trace, target, threshold)) == repr(loop_attack_report(trace, target, threshold))
    if trace.protocol == "decomposed":
        diag = eavesdropper_diagnostics(trace, target, threshold)
        expected = [int(k) for k in range(1, trace.n_rounds) if diag.predicted_error[k] > threshold]
        assert repr(diag.predicted_exceedance_rounds) == repr(expected)


# ---------------------------------------------------------------------------
# diagnostics


def test_diagnostics_identity_and_accumulators() -> None:
    for seed in (1, 2, 3):
        trace = demo_trace("decomposed", seed)
        obs = eavesdrop(trace, 5)
        diag = eavesdropper_diagnostics(trace, 5)
        truth = trace.x0[4]

        for k in range(1, trace.n_rounds):
            alpha_prev = trace.alpha[k - 1, 4]
            retained_value = alpha_prev * trace.states[k - 1, 0, 4]
            # accumulator identities, additive and float-robust
            assert obs.s2[k] == pytest.approx(2.0 - diag.retained_mass[k], abs=1e-9)
            assert obs.s1[k] == pytest.approx(2.0 * truth - retained_value, abs=1e-9)
            # error identity, relative on spike rounds
            if np.isnan(obs.estimates[k]):
                continue
            observed = abs(obs.estimates[k] - truth)
            predicted = diag.predicted_error[k]
            assert abs(observed - predicted) <= 1e-9 * (1.0 + observed + predicted), k


def test_diagnostics_residual_decays() -> None:
    trace = demo_trace("decomposed", 5)
    diag = eavesdropper_diagnostics(trace, 5)
    assert abs(diag.residual[-1]) < 1e-6
    assert np.isnan(diag.residual[0])


def test_diagnostics_predicts_exceedance_rounds() -> None:
    trace = demo_trace("decomposed", 1)
    diag = eavesdropper_diagnostics(trace, 5, threshold=500.0)
    report = attack_report(trace, 5, 500.0)
    assert diag.predicted_exceedance_rounds == report["exceedance_rounds"]


def test_diagnostics_rejects_push_sum() -> None:
    trace = demo_trace("push_sum", 1, rounds=5)
    with pytest.raises(ValueError, match="decomposed"):
        eavesdropper_diagnostics(trace, 5)


# ---------------------------------------------------------------------------
# coalition views


def test_coalition_view_contents() -> None:
    trace = run_protocol(RING3, np.array([3.0, 6.0, 9.0]), "decomposed", 12, 50.0, seed=5)
    view = build_coalition_view(trace, {2})
    assert view.coalition == frozenset({2})
    for k in range(13):
        assert view.substates[2][k, 0] == trace.states[k, 0, 1]
        assert view.substates[2][k, 3] == trace.states[k, 3, 1]
    edge_21 = RING3.sorted_edges.index((2, 1))
    dense = dense_weights(trace)
    for k in range(trace.n_rounds):
        assert np.array_equal(view.weight_columns[2][k], dense[k, :, 1])
        assert view.retention[2][k] == trace.alpha[k, 1]
        # node 2's only in-neighbor on the ring is node 1
        assert tuple(view.received[2][1][k]) == tuple(trace.sent[k, edge_21])
    assert set(view.received[2]) == {1}


def test_coalition_view_empty_and_rejections() -> None:
    trace = run_protocol(RING3, np.array([1.0, 2.0, 3.0]), "decomposed", 4, 50.0, seed=1)
    empty = build_coalition_view(trace, set())
    assert empty.substates == {}
    with pytest.raises(ValueError, match="non-nodes"):
        build_coalition_view(trace, {1, 7})
    with pytest.raises(ValueError, match="all nodes"):
        build_coalition_view(trace, {1, 2, 3})
    ps = run_protocol(RING3, np.array([1.0, 2.0, 3.0]), "push_sum", 4, 50.0, seed=1)
    with pytest.raises(ValueError, match="decomposed"):
        build_coalition_view(ps, {1})


def test_coalition_view_monotone() -> None:
    trace = demo_trace("decomposed", 8, rounds=30)
    small = build_coalition_view(trace, {2, 4})
    big = build_coalition_view(trace, {1, 2, 4})
    for member in small.coalition:
        assert np.array_equal(small.substates[member], big.substates[member])
        assert np.array_equal(small.weight_columns[member], big.weight_columns[member])
        for p in small.received[member]:
            assert np.array_equal(small.received[member][p], big.received[member][p])


# ---------------------------------------------------------------------------
# observational equivalence


def test_equivalent_trace_zero_offset_is_identity() -> None:
    trace = demo_trace("decomposed", 3, rounds=20)
    rewritten = equivalent_trace(trace, 1, 5, 0.0)
    assert list(trace_lines(rewritten)) == list(trace_lines(trace))


@pytest.mark.parametrize("i,m", [(1, 5), (1, 2)], ids=["m_sends_to_i", "i_sends_to_m"])
def test_equivalent_trace_on_recorded_and_derived_products(i, m) -> None:
    """A recorded trace gets the repaired round-0 product in a copy of its
    products; a derived one records none and derives the same bits."""
    derived = demo_trace("decomposed", 11, rounds=30)
    original = derived.sent
    recorded = Trace(derived.protocol, derived.graph, derived.x0, derived.seed, derived.spread, derived.edge_w,
                     derived.self_w, derived.alpha, derived.states, original.copy())
    from_derived = equivalent_trace(derived, i, m, 7.5)
    from_recorded = equivalent_trace(recorded, i, m, 7.5)
    assert from_derived.recorded_sent is None
    assert from_recorded.recorded_sent is not recorded.recorded_sent
    assert recorded.recorded_sent.tobytes() == original.tobytes()
    assert from_recorded.recorded_sent.tobytes() == from_derived.sent.tobytes()
    # only the repaired edge's round-0 product moves
    moved = np.argwhere(from_derived.sent != original)
    sender, receiver = (m, i) if (i, m) in derived.graph.edges else (i, m)
    assert {(int(k), int(e)) for k, e, _ in moved} == {(0, derived.graph.edge_position[(receiver, sender)])}
    for rewritten in (from_derived, from_recorded):
        assert [item.status for item in check_invariants(rewritten).items][:4] == ["pass"] * 4


def test_equivalent_trace_rejections() -> None:
    trace = demo_trace("decomposed", 3, rounds=10)
    with pytest.raises(ValueError, match="neighbor"):
        equivalent_trace(trace, 1, 4, 1.0)  # 4 is not adjacent to 1
    with pytest.raises(ValueError, match="distinct"):
        equivalent_trace(trace, 1, 1, 1.0)
    ps = demo_trace("push_sum", 3, rounds=10)
    with pytest.raises(ValueError, match="decomposed"):
        equivalent_trace(ps, 1, 5, 1.0)


def test_equivalent_trace_divisor_guard() -> None:
    trace = demo_trace("decomposed", 3, rounds=10)
    trace.states[0, 0, 4] = 1e-15  # node 5 sends to 1: situation with m in-neighbor
    with pytest.raises(ValueError, match="too small"):
        equivalent_trace(trace, 1, 5, 1.0)


@pytest.mark.parametrize(
    "i,m,coalition",
    [
        (1, 5, {2, 3, 4}),  # m sends to i
        (1, 2, {3, 4, 5}),  # i sends to m
    ],
)
def test_equivalent_trace_views_match(i, m, coalition) -> None:
    for seed, e in [(11, 1.0), (12, -100.0)]:
        trace = demo_trace("decomposed", seed, rounds=200)
        rewritten = equivalent_trace(trace, i, m, e)

        assert rewritten.x0[i - 1] == pytest.approx(trace.x0[i - 1] + e)
        assert rewritten.x0[m - 1] == pytest.approx(trace.x0[m - 1] - e)
        assert rewritten.x0.sum() == pytest.approx(trace.x0.sum(), abs=1e-9)

        # the oracle: replay both traces from scratch and project the views
        view_a = build_coalition_view(replay(trace), coalition)
        view_b = build_coalition_view(replay(rewritten), coalition)
        assert views_allclose(view_a, view_b, rtol=1e-12, atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    n=st.integers(3, 12),
    prob=st.floats(0.0, 1.0),
    graph_seed=st.integers(0, 1000),
    seed=st.integers(0, 2**32 - 1),
    e=st.floats(-100.0, 100.0),
)
def test_equivalent_trace_leaves_outside_view_unchanged(data, n, prob, graph_seed, seed, e) -> None:
    g = random_strongly_connected(n, prob, graph_seed)
    i = data.draw(st.sampled_from(list(g.nodes)), label="i")
    m = data.draw(st.sampled_from(sorted(set(g.in_neighbors[i]) | set(g.out_neighbors[i]))), label="m")
    others = sorted(set(g.nodes) - {i, m})
    coalition = data.draw(st.sets(st.sampled_from(others), min_size=1), label="coalition")
    x0 = sample_initial_values(n, {"dist": "uniform", "low": -50, "high": 50}, SeedStreams(seed))
    trace = run_protocol(g, x0, "decomposed", 8, 100.0, seed)
    view_a = build_coalition_view(trace, coalition)
    view_b = build_coalition_view(equivalent_trace(trace, i, m, e), coalition)
    assert views_allclose(view_a, view_b, rtol=0.0, atol=0.0)


def test_equivalent_trace_later_rounds_unchanged() -> None:
    trace = demo_trace("decomposed", 14, rounds=60)
    rewritten = equivalent_trace(trace, 1, 5, 10.0)
    redone = replay(rewritten)
    for k in range(1, 60):
        assert np.allclose(
            redone.states[k + 1, 0], trace.states[k + 1, 0],
            rtol=1e-9, atol=1e-9,
        )
    # only the two designated retained substates moved at round 0
    assert rewritten.states[0, 2, 0] == trace.states[0, 2, 0] + 20.0
    assert rewritten.states[0, 2, 4] == trace.states[0, 2, 4] - 20.0
    assert np.array_equal(rewritten.states[0, 0], trace.states[0, 0])


# ---------------------------------------------------------------------------
# full-surround reconstruction


def test_coalition_reconstruct_accuracy() -> None:
    for seed in (1, 2):
        trace = demo_trace("decomposed", seed)
        view = build_coalition_view(trace, {1, 2, 4})
        estimate = coalition_reconstruct(view, 5)
        assert abs(estimate - trace.x0[4]) < 1e-4


def test_coalition_reconstruct_trace_length() -> None:
    trace = demo_trace("decomposed", 4)
    view = build_coalition_view(trace, {1, 2, 4})
    estimate = coalition_reconstruct(view, 5, trace_length=300)
    assert abs(estimate - trace.x0[4]) < 1e-4


def test_coalition_reconstruct_all_equal_initials() -> None:
    g = demo_digraph()
    trace = run_protocol(g, np.full(5, 12.5), "decomposed", 500, 100.0, seed=6)
    view = build_coalition_view(trace, {1, 2, 4})
    # the anchor ratio equals the common value only in the limit, so this
    # converges rather than being finite-round exact
    assert coalition_reconstruct(view, 5) == pytest.approx(12.5, abs=1e-6)


def test_coalition_reconstruct_rejections() -> None:
    trace = demo_trace("decomposed", 2, rounds=20)
    with pytest.raises(ValueError, match="missing"):
        coalition_reconstruct(build_coalition_view(trace, {1, 2}), 5)
    with pytest.raises(ValueError, match="member"):
        coalition_reconstruct(build_coalition_view(trace, {1, 2, 4}), 4)
