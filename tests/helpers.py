"""Helpers shared by the test modules."""
from __future__ import annotations

import base64
import json
import math

import numpy as np
from hypothesis import strategies as st

from pushsim import (
    PROTOCOLS,
    CoalitionView,
    Digraph,
    SeedStreams,
    Trace,
    ergodicity_coefficient,
    estimate_average,
    random_strongly_connected,
    run_protocol,
)
from pushsim.adversary import POST_TRANSIENT_ROUND
from pushsim.graph import digraph_to_dict
from pushsim.protocol import sample_initial_values
from pushsim.traceio import STATE_KEYS


def weight_matrix(g: Digraph, edge_w: np.ndarray, self_w: np.ndarray) -> np.ndarray:
    """One round's dense weights: p[j-1, i-1] is sender i's weight toward
    receiver j, zero off the edges and the diagonal."""
    p = np.zeros((g.n, g.n))
    p.reshape(-1)[g.weight_slots] = np.concatenate([edge_w, self_w])
    return p


def decomposed_round(p_k: np.ndarray, alpha_k: np.ndarray, state: np.ndarray) -> np.ndarray:
    """One synchronous round on a dense weight matrix, the reference for the round loop.

    The exchanged substate mixes over in-edges and absorbs the retained
    substate; the new retained substate is the retention weight times the
    pre-update exchanged substate.  With alpha = 0 and an empty retained
    substate this is push_sum.  Where alpha is zero the retained rows stay
    +0.0 whatever the sign of the exchanged state, so a push_sum state's
    retained rows are exact zeros.
    """
    new = np.zeros_like(state)
    new[0] = p_k @ state[0] + state[2]
    new[1] = p_k @ state[1] + state[3]
    np.multiply(alpha_k, state[:2], out=new[2:], where=alpha_k != 0.0)
    return new


def loop_states(trace: Trace) -> np.ndarray:
    """Reference for replay's states: decomposed_round on a fresh dense matrix per round."""
    states = [trace.states[0]]
    for k in range(trace.n_rounds):
        p = weight_matrix(trace.graph, trace.edge_w[k], trace.self_w[k])
        states.append(decomposed_round(p, trace.alpha[k], states[-1]))
    return np.stack(states)


def loop_eavesdrop(trace: Trace, target: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Reference for eavesdrop, one round at a time: (books s, estimates, unrecoverable rounds).

    s[k + 1] = s[k] + x_plus[k + 1] - inflow[k], summed in that order.
    """
    g, t = trace.graph, target - 1
    out_edges = list(g.out_edges[target])
    in_edges = [g.edge_position[(target, j)] for j in g.in_neighbors[target]]
    x_plus, unrecoverable = np.full((trace.n_rounds, 2), np.nan), []
    for k in range(trace.n_rounds):
        weights = trace.edge_w[k, out_edges]
        best = int(np.argmax(np.abs(weights))) if out_edges else None
        if best is None or weights[best] == 0.0:
            unrecoverable.append(k)
        else:
            x_plus[k] = trace.sent[k, out_edges[best]] / weights[best]
    cols = trace.weight_column(target)
    s = np.full((trace.n_rounds, 2), np.nan)
    s[0] = x_plus[0]
    for k in range(trace.n_rounds - 1):
        inflow = (1.0 - (cols[k].sum() - cols[k, t])) * x_plus[k]
        for e in in_edges:
            inflow += trace.sent[k, e]
        s[k + 1] = s[k] + x_plus[k + 1] - inflow
    return s, estimate_average(s[:, 0], s[:, 1]), unrecoverable


def loop_attack_report(trace: Trace, target: int, threshold: float) -> dict:
    """Reference for attack_report, from loop_eavesdrop and per-round tests."""
    _, estimates, unrecoverable = loop_eavesdrop(trace, target)
    truth = float(trace.x0[target - 1])
    errors = np.abs(estimates - truth)
    defined = ~np.isnan(errors)
    exceed = [int(k) for k in range(trace.n_rounds) if defined[k] and errors[k] > threshold]
    return {
        "target": target,
        "protocol": trace.protocol,
        "c": threshold,
        "true_initial": truth,
        "estimates": [None if math.isnan(v) else float(v) for v in estimates],
        "exceedance_rounds": exceed,
        "post_transient_exceedance_rounds": [k for k in exceed if k >= POST_TRANSIENT_ROUND],
        "final_error": float(errors[-1]) if defined[-1] else None,
        "unrecoverable_rounds": unrecoverable,
    }


def loop_mse(estimates: np.ndarray, target: float) -> np.ndarray:
    """Reference for run_metrics' mse: one 1-D mean per row over its defined estimates."""
    mse = np.full(estimates.shape[0], np.nan)
    for k, row in enumerate(estimates):
        defined = ~np.isnan(row)
        if defined.any():
            mse[k] = float(np.mean((row[defined] - target) ** 2))
    return mse


def loop_convergence_round(errors: np.ndarray, tol: float) -> int | None:
    """Reference for convergence_round: the first row whose worst defined error is below tol."""
    for k, row in enumerate(errors):
        defined = ~np.isnan(row)
        if defined.any() and float(row[defined].max()) < tol:
            return k
    return None


def reference_trace_lines(trace, p, extra_header=None) -> list[str]:
    """A v1 file of the trace as json.dumps writes it, with the dense
    weights p in place of the trace's own: the v1 writer's oracle."""
    g = trace.graph
    keys = STATE_KEYS[trace.protocol]
    header = {
        "protocol": trace.protocol,
        "n": g.n,
        "seed": trace.seed,
        "M": trace.spread,
        "x0": trace.x0.tolist(),
        "graph": digraph_to_dict(g),
        "state0": dict(zip(keys, trace.states[0].tolist())),
    }
    if extra_header:
        header.update(extra_header)
    lines = [json.dumps(header, sort_keys=True)]
    order = sorted(range(len(g.sorted_edges)), key=lambda e: g.sorted_edges[e][::-1])
    edges = [(e, *g.sorted_edges[e]) for e in order]
    for k in range(trace.n_rounds):
        values = trace.sent[k].tolist()
        lines.append(
            json.dumps(
                {
                    "k": k,
                    "p": p[k].reshape(-1).tolist(),
                    "alpha": trace.alpha[k].tolist(),
                    "state": dict(zip(keys, trace.states[k + 1].tolist())),
                    "transmitted": [
                        {"from": i, "to": j, "l": l, "value": values[e][l - 1]}
                        for e, j, i in edges
                        for l in (1, 2)
                    ],
                },
                sort_keys=True,
            )
        )
    return lines


def v2_trace_lines(trace: Trace, extra_header: dict | None = None) -> list[str]:
    """A format-v2 file of the trace as json.dumps writes it: the v2 writer's oracle.

    The header holds x0 and the round-0 state as JSON text, and every round
    records its sent products next to the base64 "<f8" weights and states.
    """
    keys = STATE_KEYS[trace.protocol]
    header = {
        "format": 2,
        "protocol": trace.protocol,
        "n": trace.graph.n,
        "seed": trace.seed,
        "M": trace.spread,
        "x0": trace.x0.tolist(),
        "graph": digraph_to_dict(trace.graph),
        "state0": dict(zip(keys, trace.states[0].tolist())),
    }
    if extra_header:
        header.update(extra_header)

    def b64(values: np.ndarray) -> str:
        return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")

    lines = [json.dumps(header, sort_keys=True)]
    for k in range(trace.n_rounds):
        record = {"alpha": b64(trace.alpha[k]), "edge_w": b64(trace.edge_w[k]), "k": k, "self_w": b64(trace.self_w[k]),
                  "sent": b64(trace.sent[k]), "state": b64(trace.states[k + 1, : len(keys)])}
        lines.append(json.dumps(record, sort_keys=True))
    return lines


@st.composite
def protocol_traces(draw, protocols=PROTOCOLS, min_rounds=1) -> Trace:
    """run_protocol traces on random strongly connected graphs with 3 to 30 nodes and up to 80 rounds."""
    n, prob = draw(st.integers(3, 30), label="n"), draw(st.floats(0.0, 0.6), label="prob")
    g = random_strongly_connected(n, prob, draw(st.integers(0, 1000), label="graph seed"))
    seed = draw(st.integers(0, 2**40), label="seed")
    x0 = sample_initial_values(n, {"dist": "uniform", "low": -50.0, "high": 50.0}, SeedStreams(seed))
    protocol = draw(st.sampled_from(protocols), label="protocol")
    return run_protocol(g, x0, protocol, draw(st.integers(min_rounds, 80), label="rounds"), 100.0, seed)


def spoiled(trace: Trace, target: int, data) -> Trace:
    """A copy of trace with undefined rounds drawn through hypothesis' data.

    One state row (every substate of every node) and one round of sent
    products turn NaN, one state row turns NaN for a strict subset of the
    nodes, one value that an in-neighbor sent to target turns NaN, one edge
    weight turns NaN, and one round zeroes every out-weight of target, so
    the wiretap cannot recover that round.  The arrays no longer agree with
    each other, as in a tampered trace file.
    """
    g, rounds = trace.graph, trace.n_rounds
    edge_w, states, sent = trace.edge_w.copy(), trace.states.copy(), trace.sent.copy()
    states[data.draw(st.integers(0, rounds), label="nan state row")] = np.nan
    sent[data.draw(st.integers(0, rounds - 1), label="nan sent round")] = np.nan
    in_edges = [g.edge_position[(target, j)] for j in g.in_neighbors[target]]
    sent[data.draw(st.integers(0, rounds - 1), label="nan inflow round"),
         data.draw(st.sampled_from(in_edges), label="nan inflow edge"),
         data.draw(st.integers(0, 1), label="nan inflow coordinate")] = np.nan
    nodes = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n - 1), label="nan nodes")
    states[data.draw(st.integers(0, rounds), label="partly nan row"), 0, sorted(nodes)] = np.nan
    edge_w[data.draw(st.integers(0, rounds - 1), label="nan weight round"),
           data.draw(st.integers(0, edge_w.shape[1] - 1), label="nan edge")] = np.nan
    edge_w[data.draw(st.integers(0, rounds - 1), label="zero out-weight round"), list(g.out_edges[target])] = 0.0
    return Trace(trace.protocol, g, trace.x0.copy(), trace.seed, trace.spread, edge_w,
                 trace.self_w.copy(), trace.alpha.copy(), states, sent)


def augmented_matrix(p_k: np.ndarray, alpha_k: np.ndarray) -> np.ndarray:
    """Stacked one-round transition matrix [[P, I], [diag(alpha), 0]].

    Multiplying the stacked vector [exchanged; retained] by this matrix
    performs exactly one decomposed round.  Column sums are one whenever
    the columns of p_k plus alpha_k sum to one.
    """
    n = p_k.shape[0]
    out = np.zeros((2 * n, 2 * n))
    out[:n, :n] = p_k
    out[:n, n:] = np.eye(n)
    out[n:, :n] = np.diag(alpha_k)
    return out


def dense_forward_product(trace: Trace, k: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Reference for forward_product over rounds 1..k: (delta, product, epsilon).

    Builds a fresh augmented matrix every round and takes epsilon from its
    positive entries, one m[m > 0] mask per round.
    """
    product, epsilon, deltas = np.eye(2 * trace.graph.n), np.inf, []
    for r in range(1, k + 1):
        m = augmented_matrix(weight_matrix(trace.graph, trace.edge_w[r], trace.self_w[r]), trace.alpha[r])
        positive = m[m > 0.0]
        if positive.size:
            epsilon = min(epsilon, float(positive.min()))
        product = m @ product
        deltas.append(ergodicity_coefficient(product))
    return np.asarray(deltas), product, epsilon


def dense_weights(trace: Trace) -> np.ndarray:
    """The trace's weights as dense (R, n, n) matrices: p[k, j-1, i-1] is
    sender i's round-k weight toward receiver j, zero off the edges and the
    diagonal."""
    n = trace.graph.n
    rounds = [weight_matrix(trace.graph, e, s) for e, s in zip(trace.edge_w, trace.self_w)]
    return np.array(rounds, dtype=np.float64).reshape(trace.n_rounds, n, n)


def stack_state(state: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked vectors (value, weight) of a (4, n) state: [x_alpha_l; x_beta_l]."""
    return np.concatenate([state[0], state[2]]), np.concatenate([state[1], state[3]])


def views_allclose(a: CoalitionView, b: CoalitionView, rtol: float = 1e-12, atol: float = 1e-12) -> bool:
    """Elementwise comparison of two coalition views."""
    if a.coalition != b.coalition or a.n_rounds != b.n_rounds:
        return False
    for member in a.coalition:
        if not np.allclose(a.substates[member], b.substates[member], rtol=rtol, atol=atol):
            return False
        if not np.allclose(a.weight_columns[member], b.weight_columns[member], rtol=rtol, atol=atol):
            return False
        if not np.allclose(a.retention[member], b.retention[member], rtol=rtol, atol=atol):
            return False
        if a.received[member].keys() != b.received[member].keys():
            return False
        for p in a.received[member]:
            if not np.allclose(a.received[member][p], b.received[member][p], rtol=rtol, atol=atol):
                return False
    return True


def loop_write_table(path, header, columns, comment: str | None = None) -> None:
    """Reference for traceio.write_table: one repr per cell, each row joined on its own."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for start in range(0, len(columns[0]), 256):
            chunks = (col[start : start + 256] for col in columns)
            values = (chunk.tolist() if isinstance(chunk, np.ndarray) else chunk for chunk in chunks)
            cells = (["" if v != v else repr(v) for v in chunk] for chunk in values)  # v != v: NaN
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))
