"""Helpers shared by the test modules."""
from __future__ import annotations

import base64
import binascii
import json
import math
import tracemalloc

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
    replay,
    run_protocol,
)
from pushsim.adversary import POST_TRANSIENT_ROUND
from pushsim.analysis import ErgodicityReport, _spread
from pushsim.graph import digraph_to_dict
from pushsim.protocol import ROUND_BLOCK, RoundBlock, conserved_sums, estimate_series, sample_initial_values
from pushsim.traceio import FORMAT, ROUND_KEYS, STATE_KEYS, TraceFormatError, _header, _parse_line, read_trace


def weight_matrix(g: Digraph, edge_w: np.ndarray, self_w: np.ndarray) -> np.ndarray:
    """One round's dense weights: p[j-1, i-1] is sender i's weight toward
    receiver j, zero off the edges and the diagonal."""
    p = np.zeros((g.n, g.n))
    p.reshape(-1)[g.weight_slots] = np.concatenate([edge_w, self_w])
    return p


def loop_random_strongly_connected(n: int, extra_edge_prob: float, seed: int) -> frozenset:
    """Reference for random_strongly_connected's edges: a ring over a permutation,
    then one rng.random() call per candidate pair in sorted (receiver, sender)
    order, from the generator's own seed domain."""
    rng = np.random.default_rng((0x67726170, seed))
    perm = [int(v) + 1 for v in rng.permutation(n)]
    ring = {(perm[(t + 1) % n], perm[t]) for t in range(n)}
    edges = set(ring)
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            if j == i or (j, i) in ring:
                continue
            if rng.random() < extra_edge_prob:
                edges.add((j, i))
    return frozenset(edges)


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


def whole_array_metrics(trace: Trace) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference for run_metrics: (abs_error, mse, defined_counts) by the
    whole-array formula, every difference squared at once."""
    target = float(np.mean(trace.x0))
    est = estimate_series(trace)
    defined = ~np.isnan(est)
    counts = defined.sum(axis=1)
    squared = (est - target) ** 2
    mse = np.mean(squared, axis=1)
    for k in np.flatnonzero(counts < est.shape[1]):
        mse[k] = np.mean(squared[k, defined[k]]) if counts[k] else np.nan
    return np.abs(est - target), mse, counts


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


def one_shot_replay_consistency(trace: Trace) -> tuple[str, str]:
    """Reference for check_invariants' replay_consistency (status, detail):
    every state and every transmitted product compared in one np.isclose."""
    redone = replay(trace)
    labels = STATE_KEYS[trace.protocol]
    rows = len(labels)
    state_off = ~np.isclose(trace.states[1:, :rows], redone.states[1:, :rows], rtol=1e-9, atol=1e-12).all(axis=2)
    sent_off = ~np.isclose(trace.sent, redone.sent, rtol=1e-9, atol=1e-12).all(axis=2)
    hits = np.flatnonzero(state_off.any(axis=1) | sent_off.any(axis=1))
    if not hits.size:
        return "pass", "states and products match a fresh replay"
    k = int(hits[0])
    if state_off[k].any():
        return "fail", f"round {k}: recorded {labels[int(np.argmax(state_off[k]))]} diverges from replay"
    edge = trace.graph.sorted_edges[int(np.argmax(sent_off[k]))]
    return "fail", f"round {k}: transmitted product on edge {edge} diverges from replay"


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


def compare_views(a: CoalitionView, b: CoalitionView, rtol: float = 0.0, atol: float = 0.0) -> bool:
    """Whether two coalition views hold the same members, rounds and links,
    and every array of them, compact and dense weights included, within
    rtol and atol; at zero tolerance, the default, bit for bit."""

    def same(x: np.ndarray, y: np.ndarray) -> bool:
        if x.shape != y.shape:
            return False
        if rtol == atol == 0.0:
            return x.tobytes() == y.tobytes()
        return np.allclose(x, y, rtol=rtol, atol=atol)

    if a.coalition != b.coalition or a.n_rounds != b.n_rounds or a.graph != b.graph:
        return False
    for member in sorted(a.coalition):
        if a.received[member].keys() != b.received[member].keys():
            return False
        pairs = [(getattr(a, name)[member], getattr(b, name)[member])
                 for name in ("substates", "weights", "retention")]
        pairs += [(a.received[member][p], b.received[member][p]) for p in a.received[member]]
        if not all(same(x, y) for x, y in pairs):
            return False
    return True


def traced_peak(call) -> float:
    """The tracemalloc peak of call(), in MiB."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


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


# ---------------------------------------------------------------------------
# whole-run oracles for the passes that now work in blocks of ROUND_BLOCK rounds


def one_shot_evolve(g: Digraph, edge_w: np.ndarray, self_w: np.ndarray, alpha: np.ndarray,
                    state0: np.ndarray) -> np.ndarray:
    """Reference for protocol._evolve: every round's weights joined in one (R, E+n) array and
    one (R, n) retention mask up front, then the same in-place round loop."""
    weights = np.concatenate([edge_w, self_w], axis=1)
    p_k = np.zeros((g.n, g.n))
    flat, slots = p_k.reshape(-1), g.weight_slots
    states = np.zeros((len(alpha) + 1,) + state0.shape)
    states[0] = state0
    x1, x2, b1, b2 = states.transpose(1, 0, 2)
    exchanged, retained = states[:, :2], states[:, 2:]
    keep = alpha != 0.0
    retains = keep.any(axis=1)
    for k in range(len(alpha)):
        flat[slots] = weights[k]
        np.matmul(p_k, x1[k], out=x1[k + 1])
        x1[k + 1] += b1[k]
        np.matmul(p_k, x2[k], out=x2[k + 1])
        x2[k + 1] += b2[k]
        if retains[k]:
            np.multiply(alpha[k], exchanged[k], out=retained[k + 1], where=keep[k])
    return states


def one_shot_column_sums(trace: Trace) -> np.ndarray:
    """Reference for protocol.column_sums: one bincount over the whole (R, E+n) weight array."""
    g, rounds = trace.graph, trace.n_rounds
    order = np.argsort(g.weight_slots)
    weights = np.concatenate([trace.edge_w, trace.self_w], axis=1)[:, order]
    bins = np.arange(rounds)[:, None] * g.n + g.weight_slots[order] % g.n
    return np.bincount(bins.ravel(), weights=weights.ravel(), minlength=rounds * g.n).reshape(rounds, g.n)


def one_shot_forward_product(trace: Trace, k: int | None = None) -> ErgodicityReport:
    """Reference for analysis.forward_product: epsilon over every round at once, a new product
    array per round, and the (3, k-1, 2n) statistics of every round through one _spread."""
    last = trace.n_rounds - 1 if k is None else k
    n, n_edges = trace.graph.n, trace.edge_w.shape[1]
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = np.eye(n)
    flat = m.reshape(-1)
    rows, cols = np.divmod(trace.graph.weight_slots[:n_edges], n)
    edge_slots = rows * 2 * n + cols
    self_diag, alpha_diag = flat[: 2 * n * n : 2 * n + 1], flat[2 * n * n :: 2 * n + 1]
    weights = (trace.edge_w[1 : last + 1], trace.self_w[1 : last + 1], trace.alpha[1 : last + 1])
    epsilon = min([1.0] + [float(np.min(w, where=w > 0.0, initial=np.inf)) for w in weights])
    product = np.eye(2 * n)
    col_sums, row_max, row_min = np.empty((3, last - 1, 2 * n))
    with np.errstate(invalid="ignore", over="ignore"):
        for r in range(1, last + 1):
            flat[edge_slots] = trace.edge_w[r]
            self_diag[:] = trace.self_w[r]
            alpha_diag[:] = trace.alpha[r]
            product = m @ product
            if r < last:
                product.sum(axis=0, out=col_sums[r - 1])
                product.max(axis=1, out=row_max[r - 1])
                product.min(axis=1, out=row_min[r - 1])
        delta = np.append(_spread(col_sums, row_max, row_min), ergodicity_coefficient(product))
    rounds_arr = np.arange(1, last + 1, dtype=np.int64)
    bound = (1.0 - epsilon**n) ** np.floor_divide(rounds_arr, n)
    return ErgodicityReport(rounds_arr, delta, bound, epsilon, product, limit_column=product[:, 0].copy())


def one_shot_estimates_csv(trace: Trace, path, comment: str | None = None) -> None:
    """Reference for traceio.write_estimates_csv: the four whole-table columns, one repr per cell."""
    est = estimate_series(trace)
    rounds, n = est.shape
    k, node = np.arange(rounds).repeat(n), np.tile(np.arange(1, n + 1), rounds)
    err = np.abs(est - np.mean(trace.x0))
    loop_write_table(path, ("k", "node", "estimate", "abs_error"), (k, node, est.ravel(), err.ravel()), comment)


def one_shot_check_invariants(trace: Trace) -> list[tuple[str, str, str]]:
    """Reference for harness.check_invariants, as (name, status, detail) per check: whole-run
    column sums, one comparison of every state and product, and one_shot_forward_product."""
    s1, s2 = conserved_sums(trace)
    held = (np.abs(s1 - s1[0]) <= 1e-9 * max(1.0, abs(s1[0]))) & (np.abs(s2 - s2[0]) <= 1e-9 * max(1.0, abs(s2[0])))
    hits = np.flatnonzero(~held)
    if not (np.isfinite(s1[0]) and np.isfinite(s2[0])):
        items = [("conservation", "fail", f"state 0: sums {s1[0]:.6g}/{s2[0]:.6g} are not finite")]
    elif hits.size:
        bad = int(hits[0])
        items = [("conservation", "fail", f"first violation after round {bad - 1}: sums {s1[bad]:.6g}/{s2[bad]:.6g} "
                  f"vs {s1[0]:.6g}/{s2[0]:.6g}")]
    else:
        items = [("conservation", "pass", f"sums {s1[0]:.6g}/{s2[0]:.6g} held for {len(s1)} states")]
    err = np.abs(one_shot_column_sums(trace) + trace.alpha - 1.0)
    hits = np.flatnonzero(~(err <= 1e-12).all(axis=1))
    if hits.size:
        k = int(hits[0])
        items.append(("column_stochasticity", "fail",
                      f"round {k}, sender {int(np.argmax(err[k])) + 1}: column sum off by {err[k].max():.3e}"))
    else:
        items.append(("column_stochasticity", "pass", "all columns plus retention sum to 1 within 1e-12"))
    stray = trace.stray_weight
    items.append(("zero_pattern", "fail", "round {}: weight on missing edge ({}, {})".format(*stray)) if stray
                 else ("zero_pattern", "pass", "nonzero weights only on edges and the diagonal"))
    items.append(("replay_consistency", *one_shot_replay_consistency(trace)))
    if trace.protocol != "decomposed" or trace.n_rounds < 2:
        items.append(("ergodicity_bound", "skip", "only defined for decomposed traces with 2+ rounds"))
        return items
    try:
        report = one_shot_forward_product(trace)
    except ValueError as exc:
        items.append(("ergodicity_bound", "fail", str(exc)))
        return items
    hits = np.flatnonzero(~(report.delta <= report.bound + 1e-12))
    if hits.size:
        t = int(hits[0])
        items.append(("ergodicity_bound", "fail",
                      f"round {int(report.rounds[t])}: delta {report.delta[t]:.3e} above bound {report.bound[t]:.3e}"))
    else:
        items.append(("ergodicity_bound", "pass", f"delta stayed within the bound; final delta {report.delta[-1]:.3e}"))
    return items


def block_edges(block: int) -> tuple[int, ...]:
    """Round counts on and around the edges of blocks of that many rounds."""
    return (1, block - 1, block, block + 1, 2 * block + 1)


@st.composite
def block_edge_traces(draw, protocols=PROTOCOLS, extra_rounds: int = 0, nodes=(3, 12),
                      block=lambda n: ROUND_BLOCK) -> Trace:
    """run_protocol traces on random strongly connected graphs with nodes[0]
    to nodes[1] nodes and extra_rounds more rounds than a count in
    block_edges(block(n))."""
    n, prob = draw(st.integers(*nodes), label="n"), draw(st.floats(0.0, 0.6), label="prob")
    g = random_strongly_connected(n, prob, draw(st.integers(0, 1000), label="graph seed"))
    seed = draw(st.integers(0, 2**40), label="seed")
    x0 = sample_initial_values(n, {"dist": "uniform", "low": -50.0, "high": 50.0}, SeedStreams(seed))
    rounds = max(1, draw(st.sampled_from(block_edges(block(n))), label="rounds") + extra_rounds)
    return run_protocol(g, x0, draw(st.sampled_from(protocols), label="protocol"), rounds, 100.0, seed)


TAMPER_KINDS = ("none", "nan", "inf", "zero", "column", "state", "drift", "product")


def tampered(trace: Trace, data, kinds=TAMPER_KINDS) -> Trace:
    """A copy of trace with at most one value spoiled, of one of the kinds, drawn through hypothesis' data.

    The kinds: none; a NaN, a +-inf or a +-0.0 anywhere in the weights,
    alpha or states (a zero alpha makes a round that retains nothing); an
    edge or self weight off by an amount that breaks its column sum or not;
    a state entry after round 0 off by an amount inside or outside the
    replay tolerance; every state after round 0 drifting, state k scaled by
    1 + 6.2e-11 k, which stays inside the tolerance over one block of
    ROUND_BLOCK rounds but not from round ROUND_BLOCK on; or recorded
    products with one scaled.
    """
    kind = data.draw(st.sampled_from(kinds), label="tamper")
    arrays = {"edge_w": trace.edge_w.copy(), "self_w": trace.self_w.copy(), "alpha": trace.alpha.copy(),
              "states": trace.states.copy()}
    sent = None

    def index_into(array, low=0):
        return (data.draw(st.integers(low, array.shape[0] - 1), label="round"),
                *(data.draw(st.integers(0, size - 1), label="index") for size in array.shape[1:]))

    if kind in ("nan", "inf", "zero"):
        values = {"nan": [np.nan], "inf": [np.inf, -np.inf], "zero": [0.0, -0.0]}[kind]
        array = arrays[data.draw(st.sampled_from(sorted(arrays)), label="array")]
        array[index_into(array)] = data.draw(st.sampled_from(values), label="value")
    elif kind == "column":
        array = arrays[data.draw(st.sampled_from(["edge_w", "self_w"]), label="array")]
        array[index_into(array)] += data.draw(st.sampled_from([1e-13, 1e-6, 0.25]), label="offset")
    elif kind == "state":
        arrays["states"][index_into(arrays["states"], low=1)] += data.draw(
            st.sampled_from([1e-13, 1e-6, 0.5]), label="offset")
    elif kind == "drift":
        arrays["states"][1:] *= 1.0 + 6.2e-11 * np.arange(1, trace.n_rounds + 1)[:, None, None]
    elif kind == "product":
        sent = trace.sent.copy()
        sent[index_into(sent)] *= data.draw(st.sampled_from([1.0 + 1e-12, 1.0 + 1e-6, 1.5, -1.0]), label="factor")
    return Trace(trace.protocol, trace.graph, trace.x0.copy(), trace.seed, trace.spread, arrays["edge_w"],
                 arrays["self_w"], arrays["alpha"], arrays["states"], sent)


def split_blocks(trace: Trace, cuts):
    """The trace's rounds as RoundBlocks that start at round 0 and at each
    round in cuts (a set of rounds in 1..R-1), whatever their sizes.

    Each block holds copies of its rounds, and they turn NaN once the next
    block is asked for, as traceio.read_blocks reuses its buffers.
    """
    bounds = [0, *sorted(cuts), trace.n_rounds]
    for first, stop in zip(bounds, bounds[1:]):
        arrays = [a.copy() for a in (trace.edge_w[first:stop], trace.self_w[first:stop],
                                     trace.alpha[first:stop], trace.states[first : stop + 1])]
        yield RoundBlock(trace.protocol, trace.graph, trace.x0, trace.seed, trace.spread, *arrays, start=first)
        for a in arrays:
            a.fill(np.nan)


# ---------------------------------------------------------------------------
# the base64 round reader, one line at a time


def row_from_b64(text, key: str, size: int) -> np.ndarray:
    """The size float64 values of field key, a base64 string of "<f8" bytes."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise ValueError(f"{key} is not base64: {exc}") from exc
    if len(raw) != 8 * size:
        raise ValueError(f"{key} holds {len(raw)} bytes, expected {8 * size}")
    return np.frombuffer(raw, dtype="<f8")


def line_at_a_time_read_trace(path) -> Trace:
    """Reference for read_trace on a v3 or v2 file: traceio's header, then
    line_at_a_time_rounds_b64 into arrays sized by a count of the lines.  A
    file whose header has no format (a v1 file) goes to read_trace itself."""
    with open(path, "r", encoding="utf-8") as fh:
        rounds = sum(1 for _ in fh) - 1
        fh.seek(0)
        head, fmt = _header(path, fh)
        if fmt == 1:
            return read_trace(path)
        n, n_edges = head.graph.n, len(head.graph.sorted_edges)
        trace = Trace(head.protocol, head.graph, head.x0, head.seed, head.spread, np.empty((rounds, n_edges)),
                      np.empty((rounds, n)), np.empty((rounds, n)), np.zeros((rounds + 1, 4, n)),
                      None if fmt == FORMAT else np.empty((rounds, n_edges, 2)))
        trace.states[0] = head.states[0]
        line_at_a_time_rounds_b64(path, fh, trace, ROUND_KEYS if fmt == FORMAT else sorted(ROUND_KEYS + ("sent",)))
    return trace


def line_at_a_time_rounds_b64(path, fh, trace: Trace, keys) -> None:
    """The base64 round lines of a v3 or v2 file, every field of every line
    decoded and stored into its round's row on its own."""
    n_rows = len(STATE_KEYS[trace.protocol])
    rows = {"alpha": trace.alpha, "edge_w": trace.edge_w, "self_w": trace.self_w,
            "state": trace.states[1:, :n_rows], "sent": trace.recorded_sent}
    fields = [(key, rows[key], rows[key].shape[1:], math.prod(rows[key].shape[1:])) for key in keys if key != "k"]
    for line_no, text in enumerate(fh, start=2):
        obj = _parse_line(path, line_no, text)
        r = line_no - 2
        missing = [key for key in keys if key not in obj]
        if missing:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: missing {', '.join(missing)}")
        k = obj["k"]
        if type(k) is not int or k != r:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: k={k!r}, expected {r}")
        try:
            for key, array, shape, size in fields:
                array[r] = row_from_b64(obj[key], key, size).reshape(shape)
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: {exc}") from exc


def corrupt_line(lines: list[str], data) -> list[str]:
    """A copy of a trace file's lines with at most one line spoiled, drawn
    through hypothesis' data.

    The kinds: none; a base64 field that is not base64 (a bad character, a
    non-ASCII one, a lost character, or not a string); a base64 field one
    byte or one value short or one value long; a missing key; a round's k
    wrong, a float, a string or a bool; a line that is not JSON; or a line
    that is JSON but not an object.  A header's base64 fields are the v3
    x0 and state0; a v1 file has none, and a header-only file no k, so
    there those kinds remove a key instead.
    """
    kind = data.draw(st.sampled_from(["none", "base64", "length", "missing", "k", "json", "object"]), label="corrupt")
    if kind == "none":
        return lines
    if kind == "k" and len(lines) == 1:
        kind = "missing"
    low = 1 if kind == "k" else 0
    at = data.draw(st.integers(low, len(lines) - 1), label="line")
    obj = json.loads(lines[at])
    if at:
        b64_keys = sorted(key for key in obj if isinstance(obj[key], str))
    else:
        b64_keys = ["state0", "x0"] if obj.get("format") == 3 else []
    if kind in ("base64", "length") and not b64_keys:
        kind = "missing"
    if kind == "json":
        text = lines[at][: data.draw(st.integers(0, len(lines[at]) - 1), label="cut")]
    elif kind == "object":
        text = data.draw(st.sampled_from([json.dumps(list(obj.values())), "7", '"text"', "null"]), label="non-object")
    else:
        if kind == "missing":
            del obj[data.draw(st.sampled_from(sorted(obj)), label="key")]
        elif kind == "k":
            obj["k"] = data.draw(st.sampled_from([obj["k"] + 1, obj["k"] - 1, float(obj["k"]), str(obj["k"]), True]),
                                 label="k")
        else:
            key = data.draw(st.sampled_from(b64_keys), label="key")
            value = obj[key]
            if kind == "base64":
                cut = data.draw(st.integers(0, len(value)), label="position")
                obj[key] = data.draw(st.sampled_from(
                    [value[:cut] + "!" + value[cut:], value[:cut] + "\u00e9" + value[cut:],
                     value[:cut] + value[cut + 1 :], 7, None]), label="value")
            else:
                raw = base64.b64decode(value)
                raw = data.draw(st.sampled_from([raw[:-1], raw[:-8], raw + raw[:8]]), label="bytes")
                obj[key] = base64.b64encode(raw).decode("ascii")
        text = json.dumps(obj, sort_keys=True)
    return lines[:at] + [text] + lines[at + 1 :]
