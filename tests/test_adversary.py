"""Eavesdropper, diagnostics, coalition views, equivalence, reconstruction."""
from __future__ import annotations

import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    write_trace,
)
from pushsim.cli import main as cli_main
from pushsim.protocol import (
    SeedStreams,
    Trace,
    init_push_sum,
    sample_initial_values,
    transmissions,
)
from pushsim.traceio import read_trace, trace_lines

from helpers import (
    block_edge_traces,
    compare_views,
    corrupt_line,
    decomposed_round,
    dense_weights,
    loop_attack_report,
    loop_eavesdrop,
    protocol_traces,
    reference_trace_lines,
    spoiled,
    tampered,
    traced_peak,
    v2_trace_lines,
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


@pytest.mark.parametrize("target, shown", [(True, "True"), (5.0, "5.0"), ("5", "'5'")], ids=["bool", "float", "string"])
def test_attack_target_is_not_coerced(target, shown, tmp_path) -> None:
    """A bool, float or string target is named and rejected, where True had
    attacked node 1 and 5.0 had run the whole ledger before an IndexError;
    a numpy integer is an integer."""
    trace = demo_trace("decomposed", 2, rounds=5)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    needle = re.escape(f"target: must be an integer, got {shown}")
    for source in (trace, path):
        with pytest.raises(ValueError, match=needle):
            eavesdrop(source, target)
        with pytest.raises(ValueError, match=needle):
            attack_report(source, target)
    with pytest.raises(ValueError, match=needle):
        eavesdropper_diagnostics(trace, target)
    assert attack_report(trace, np.int64(5)) == attack_report(trace, 5)


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


def books_tolerance(trace, rounds: np.ndarray) -> np.ndarray:
    """Absolute tolerance of the books after each of rounds: a few ulps of
    every term summed so far.  Each round adds the target's exchanged state
    and takes away an inflow of at most n + 2 weighted states, so the terms
    are bounded by the largest weight magnitude times the largest exchanged
    state (or initial value) seen up to that round."""
    exchanged = np.abs(trace.states[:, :2]).max(axis=(1, 2))
    scale = np.maximum.accumulate(np.maximum(exchanged, np.abs(trace.x0).max()))[rounds]
    weights = max(1.0, *(float(np.abs(w).max()) for w in (trace.edge_w, trace.self_w, trace.alpha)))
    return 8 * np.finfo(np.float64).eps * (rounds + 1) * (trace.graph.n + 2) * weights * scale


DEMO_27076 = demo_trace("decomposed", 27076, rounds=200)


@settings(max_examples=60, deadline=None)
@given(trace=protocol_traces(protocols=("decomposed",), min_rounds=2), pick=st.integers(0, 29))
@example(trace=DEMO_27076, pick=4)
def test_eavesdropper_books_follow_the_error_law(trace, pick) -> None:
    """The error law without its division, on the observer's books:
    s2 = 2 - retained_mass and s1 - x0[t] * s2 = initial_offset *
    retained_mass + residual, in every round from 1 on, within a tolerance
    that grows with the round count and the size of the summed terms."""
    target = 1 + pick % trace.graph.n
    obs, diag = eavesdrop(trace, target), eavesdropper_diagnostics(trace, target)
    rounds = np.arange(1, trace.n_rounds)
    atol = books_tolerance(trace, rounds)
    assert np.all(np.abs(obs.s2[rounds] - (2.0 - diag.retained_mass[rounds])) <= atol)
    law = diag.initial_offset * diag.retained_mass[rounds] + diag.residual[rounds]
    assert np.all(np.abs(obs.s1[rounds] - trace.x0[target - 1] * obs.s2[rounds] - law) <= atol)


def test_error_law_books_hold_where_the_estimate_is_ill_conditioned() -> None:
    """Demo seed 27076, round 33: s2 is -1.5e-6, so dividing by it turns a
    match of the books to a few ulps into a 0.028 gap between the observed
    and predicted estimate errors.  The books themselves match."""
    trace, k = DEMO_27076, np.array([33])
    obs, diag = eavesdrop(trace, 5), eavesdropper_diagnostics(trace, 5)
    assert abs(obs.s2[33]) < 2e-6
    atol = books_tolerance(trace, k)[0]
    assert abs(obs.s2[33] - (2.0 - diag.retained_mass[33])) <= atol
    law = diag.initial_offset * diag.retained_mass[33] + diag.residual[33]
    assert abs(obs.s1[33] - trace.x0[4] * obs.s2[33] - law) <= atol


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


@pytest.mark.parametrize("coalition, member", [({1.5, 2}, "1.5"), ({"2", 4}, "'2'"), ({True, 4}, "True")],
                         ids=["float", "string", "bool"])
def test_coalition_members_are_not_coerced(coalition, member) -> None:
    """A member that is a float, a string or a bool is named and rejected,
    where int() had made {1.5, 2} the view of {1, 2}; a numpy integer is an
    integer."""
    trace = demo_trace("decomposed", 2, rounds=5)
    with pytest.raises(ValueError, match=re.escape(f"coalition member: must be an integer, got {member}")):
        build_coalition_view(trace, coalition)
    assert compare_views(build_coalition_view(trace, {np.int64(2), 4}), build_coalition_view(trace, {2, 4}))


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
        assert compare_views(view_a, view_b, rtol=1e-12, atol=1e-12)


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
    assert compare_views(view_a, view_b, rtol=0.0, atol=0.0)


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


@pytest.mark.parametrize("length", [39.9, "12", True], ids=["float", "string", "bool"])
def test_coalition_reconstruct_trace_length_is_not_coerced(length) -> None:
    """trace_length 39.9 had been cut to 39, "12" taken as 12 and True as 1;
    each is named and rejected, and a numpy integer is taken."""
    trace = demo_trace("decomposed", 4, rounds=60)
    view = build_coalition_view(trace, {1, 2, 4})
    with pytest.raises(ValueError, match=re.escape(f"trace_length: must be an integer, got {length!r}")):
        coalition_reconstruct(view, 5, trace_length=length)
    assert coalition_reconstruct(view, 5, trace_length=np.int64(40)) == coalition_reconstruct(view, 5, trace_length=40)


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


# ---------------------------------------------------------------------------
# trace files, read a block at a time


def file_lines(trace, fmt: int) -> list[str]:
    """The lines of a format-fmt trace file (3, 2 or 1) of the trace."""
    if fmt == 3:
        return list(trace_lines(trace))
    return v2_trace_lines(trace) if fmt == 2 else reference_trace_lines(trace, dense_weights(trace))


def result_or_error(call):
    """call()'s result, or the type and text of the ValueError it raised, a TraceFormatError included."""
    try:
        return call()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


@settings(max_examples=150, deadline=None)
@given(trace=block_edge_traces(), fmt=st.sampled_from([1, 2, 3]), data=st.data())
def test_attack_and_view_of_a_file_match_those_of_its_trace(tmp_path_factory, trace, fmt, data) -> None:
    """attack_report(path) and build_coalition_view(path), which read the
    file a block at a time, give on v3, v2 and v1 files of 0, 1, B-1, B,
    B+1 or 2B+1 rounds (B = ROUND_BLOCK), clean, tampered or with one line
    spoiled, the report's JSON bytes and the view's bits that they give on
    read_trace's Trace of the file, or read_trace's error text."""
    variant = data.draw(st.sampled_from(["clean", "tampered", "corrupt"]), label="variant")
    if variant == "tampered":
        trace = tampered(trace, data)
    lines = file_lines(trace, fmt)
    if data.draw(st.integers(0, 5), label="header only") == 0:
        lines = lines[:1]
    if variant == "corrupt":
        lines = corrupt_line(lines, data)
    path = tmp_path_factory.mktemp("attack") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    g = trace.graph
    target = data.draw(st.sampled_from(g.nodes), label="target")
    threshold = data.draw(st.sampled_from([1e-12, 0.5, 500.0]), label="threshold")
    with np.errstate(all="ignore"):
        whole = result_or_error(lambda: read_trace(path))
        if isinstance(whole, str):
            expected = whole
        else:
            expected = result_or_error(lambda: json.dumps(attack_report(whole, target, threshold)))
        assert result_or_error(lambda: json.dumps(attack_report(path, target, threshold))) == expected
        if trace.protocol == "decomposed":
            coalition = data.draw(st.sets(st.sampled_from(g.nodes), max_size=g.n - 1), label="coalition")
            view = result_or_error(lambda: build_coalition_view(path, coalition))
            if isinstance(whole, str):
                assert view == whole
            else:
                assert compare_views(view, build_coalition_view(whole, coalition))


def test_cli_attack_checks_the_target_before_any_round_line(tmp_path, capsys) -> None:
    """--target is checked against the header's graph before a round line
    is read: on a file whose first round line is not JSON, target 0 is
    named and target 5 meets the line.  Neither writes --json or --csv."""
    path = tmp_path / "trace.jsonl"
    write_trace(demo_trace("decomposed", 3, rounds=40), path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:1] + ["not json"] + lines[2:]) + "\n")
    outputs = ["--json", str(tmp_path / "a.json"), "--csv", str(tmp_path / "a.csv")]
    for target, needle in (("0", "target 0 not a node of the digraph"), ("5", "line 2 is not valid JSON")):
        assert cli_main(["attack", str(path), "--target", target, *outputs]) == 2
        captured = capsys.readouterr()
        assert needle in captured.err and captured.out == ""
    assert not (tmp_path / "a.json").exists() and not (tmp_path / "a.csv").exists()


def benchmark_graph_trace(tmp_path, rounds: int):
    """The benchmark's 24-node graph (177 edges) and a decomposed trace file on it."""
    g = random_strongly_connected(24, 0.3, 7)
    assert len(g.sorted_edges) == 177
    x0 = sample_initial_values(g.n, {"dist": "uniform", "low": 0.0, "high": 50.0}, SeedStreams(1))
    path = tmp_path / f"trace_{rounds}.jsonl"
    write_trace(run_protocol(g, x0, "decomposed", rounds, 100.0, 1), path)
    return g, path


def test_attack_of_a_file_holds_no_trace(tmp_path, capsys) -> None:
    """On the benchmark's 24-node graph, an in-process `pushsim attack` with
    --json and --csv peaks at most at 1.0 MiB (tracemalloc) on a 2,000-round
    trace, a 6.7 MB file: it reads the file a block at a time and keeps the
    books, not the trace, which had peaked at 5.98 MiB."""
    _, path = benchmark_graph_trace(tmp_path, 2000)
    args = ["attack", str(path), "--target", "24", "--json", str(tmp_path / "a.json"), "--csv", str(tmp_path / "a.csv")]
    assert cli_main(args) == 0
    peak = traced_peak(lambda: cli_main(args))
    assert peak <= 1.0, peak


def test_attack_of_a_trace_in_memory_holds_pieces(tmp_path) -> None:
    """On the benchmark's 24-node graph, attack_report on a 2,000-round trace
    in memory peaks at most 0.25 MiB above the trace (tracemalloc), where
    taking the trace as one piece had peaked at 1.11 MiB, and its report
    has the bits of attack_report on the trace's file."""
    g = random_strongly_connected(24, 0.3, 7)
    x0 = sample_initial_values(g.n, {"dist": "uniform", "low": 0.0, "high": 50.0}, SeedStreams(1))
    trace = run_protocol(g, x0, "decomposed", 2000, 100.0, 1)
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    from_memory = attack_report(trace, None)
    assert json.dumps(from_memory, sort_keys=True) == json.dumps(attack_report(path, None), sort_keys=True)
    peak = traced_peak(lambda: attack_report(trace, None))
    assert peak <= 0.25, peak


def test_coalition_view_of_the_benchmark_trace_holds_compact_weights(tmp_path) -> None:
    """The benchmark's coalition step, build_coalition_view(read_trace(path),
    C) for C the 10 neighbours of node 24 on a 60-round trace, peaks at most
    at 0.32 MiB (tracemalloc), where dense weight columns and a whole-trace
    gather of the received products had peaked at 0.372 MiB."""
    g, path = benchmark_graph_trace(tmp_path, 60)
    coalition = set(g.in_neighbors[24]) | set(g.out_neighbors[24])
    assert len(coalition) == 10
    build_coalition_view(read_trace(path), coalition)
    peak = traced_peak(lambda: build_coalition_view(read_trace(path), coalition))
    assert peak <= 0.32, peak
