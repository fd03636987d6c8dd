"""Adversary models against the averaging protocols.

Two adversaries are modelled, both passive:

* An eavesdropper who knows the topology and every weight sent across an
  edge, and intercepts every transmitted product.  It cannot see retention
  weights, so it assumes each node keeps exactly the mass it did not send,
  and books the difference between what a node holds and what the books
  say it should hold.  Against plain push_sum the books balance and the
  target's initial value falls out; against the decomposed protocol the
  hidden retained substate breaks the books in a quantifiable way.

* An honest-but-curious coalition of nodes who run the protocol
  faithfully but pool everything they legitimately see: their own
  substates, the weights they generate, and the products they receive.
  When a target keeps at least one neighbor outside the coalition, traces
  with different target initials are observationally equivalent for the
  coalition; when the coalition surrounds the target completely, a flow
  balance recovers the target's initial value.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import Digraph, integer
from .protocol import ESTIMATE_GUARD, ROUND_BLOCK, RoundBlock, Trace, estimate_average
from .traceio import open_blocks, write_table

# Round from which exceedance statistics are counted in summaries: early
# rounds are dominated by the decaying start-up residual rather than by the
# retention mechanism under study.
POST_TRANSIENT_ROUND = 50

DIVISOR_GUARD = 1e-12

# Temporary values eavesdrop makes per piece of a Trace in memory: pieces
# many blocks long keep its numpy calls few, and a 200-round run on the demo
# or the benchmark's 24-node graph is one piece.
EAVESDROP_VALUES = 1 << 14


# ---------------------------------------------------------------------------
# eavesdropper


@dataclass
class EavesdropperState:
    """Observer bookkeeping for one target.

    s1/s2 hold the accumulator after each round; estimates[k] is their
    guarded ratio.  Rounds where the target's exchanged state could not be
    recovered (a needed weight was exactly zero) are listed in
    unrecoverable_rounds, and every quantity from such a round on is NaN.
    protocol and true_initial, the target's initial value, come from the
    trace, to score the books by; the observer does not see them.
    """

    target: int
    s1: np.ndarray
    s2: np.ndarray
    estimates: np.ndarray
    protocol: str
    true_initial: float
    unrecoverable_rounds: list[int] = field(default_factory=list)


def eavesdrop(trace_or_path, target: int | None) -> EavesdropperState:
    """Run the wire-tap observer against one node of a recorded trace, a Trace or a trace file.

    The observer seeds its books with the target's round-0 exchanged state
    (recovered by dividing an intercepted product by its known weight) and
    then adds, every round, the difference between the target's next
    exchanged state and the mass the books say flowed in: intercepted
    in-edge products plus an assumed self-weight of one minus the target's
    known out-weights.  The estimate is the ratio of the two books.  A
    target of None is the highest-numbered node; any other target must be an
    int (a bool, a float or a string is rejected, not coerced).

    A Trace or a file is opened with traceio.open_blocks, and the target is
    checked against the header's graph before any round line is read.  A
    Trace in memory goes in as pieces of as many rounds as keep a piece's
    temporary values, about n + 2 per intercepted edge a round, within
    EAVESDROP_VALUES, so that a long run holds no temporary of its length.  Between blocks
    only the books after the last round, that round's inflow and the
    per-round results are kept, and the bits do not depend on how the rounds
    are split.
    """
    with open_blocks(trace_or_path) as (head, _, blocks):
        g = head.graph
        target = g.n if target is None else integer(target, "target")
        if target not in g.nodes:
            raise ValueError(f"target {target} not a node of the digraph")
        out_edges = list(g.out_edges[target])
        # the products the observer intercepts: the target's out-edges, then its in-edges
        edges = out_edges + [g.edge_position[(target, j)] for j in g.in_neighbors[target]]
        if isinstance(trace_or_path, Trace):
            blocks = head.blocks(max(1, EAVESDROP_VALUES // (g.n + 2 * len(edges))))
        books, unrecoverable, rounds, carried = [], [], 0, None
        for block in blocks:
            size = block.n_rounds
            if not size:
                continue
            x_plus, inflow, lost = _flows(block, target, out_edges, edges)
            unrecoverable += (lost + rounds).tolist()
            # s[k+1] = s[k] + x_plus[k+1] - inflow[k] runs as one running sum per block down s[start-1],
            # x_plus[start], -inflow[start-1], x_plus[start+1], -inflow[start], ..., the first block's
            # from x_plus[0], which is s[0]: an accumulate adds in order, so the bits are those of one
            # running sum over the run
            terms = np.empty((2 * size + 1, 2))
            terms[1::2], terms[4::2] = x_plus, inflow[:-1]
            if rounds:
                terms[0], terms[2] = books[-1][-1], carried
                books.append(np.add.accumulate(terms)[2::2].copy())
            else:
                terms[2] = x_plus[0]
                books.append(np.add.accumulate(terms[2:])[::2].copy())
            carried, rounds = inflow[-1], rounds + size
    if not rounds:
        raise ValueError("trace has no rounds to observe")
    s = np.concatenate(books)
    return EavesdropperState(
        target=target, s1=s[:, 0], s2=s[:, 1], estimates=estimate_average(s[:, 0], s[:, 1]),
        protocol=head.protocol, true_initial=float(head.x0[target - 1]), unrecoverable_rounds=unrecoverable,
    )


def _flows(block: RoundBlock, target: int, out_edges: list[int], edges: list[int]):
    """One block's recovered exchanged states of the target, shape (rounds, 2),
    the negated inflow its books assume, the same shape, and the rounds where
    no state was recovered.  Its temporaries, which grow with the block, die
    when it returns, so none outlives its block into the next."""
    size = block.n_rounds
    sent = block.products(edges)
    # the target's exchanged state, from the out-edge with the largest weight magnitude
    x_plus = np.full((size, 2), np.nan)
    if out_edges:
        weights = block.edge_w[:, out_edges]
        best = np.argmax(np.abs(weights), axis=1)
        rows = np.arange(size)
        divisor = weights[rows, best]
        known = divisor != 0.0
        np.divide(sent[rows, best], divisor[:, None], out=x_plus, where=known[:, None])
        lost = np.flatnonzero(~known)
    else:
        lost = np.arange(size)
    cols = block.weight_column(target)
    assumed_self = 1.0 - (cols.sum(axis=1) - cols[:, target - 1])
    inflow = assumed_self[:, None] * x_plus
    for c in range(len(out_edges), len(edges)):  # one in-neighbor at a time, in sorted order
        inflow += sent[:, c]
    # a - b is a + (-b) bit for bit, and a NaN keeps its sign, as subtraction passes it on
    np.negative(inflow, out=inflow, where=inflow == inflow)
    return x_plus, inflow, lost


@dataclass
class EavesdropperDiagnostics:
    """Why the observer's estimate behaves the way it does.

    For a decomposed trace the observer's books satisfy, exactly,

        s2(k) = 2 - retained_mass(k)
        estimate(k) - true_initial
            = (initial_offset * retained_mass(k) + residual(k))
              / (2 - retained_mass(k))

    where retained_mass(k) is the retention weight times the target's
    exchanged weight substate from the previous round, residual(k) decays
    to zero as the run converges, and initial_offset is the target's
    distance from the true average.  Whenever retained_mass comes close to
    2 the denominator collapses and the estimate error spikes past any
    threshold.  Index 0 of the per-round arrays is NaN (the books only
    open at round 1).
    """

    target: int
    average: float
    initial_offset: float
    retained_mass: np.ndarray
    residual: np.ndarray
    predicted_error: np.ndarray
    predicted_exceedance_rounds: list[int]


def eavesdropper_diagnostics(trace: Trace, target: int, threshold: float = 500.0) -> EavesdropperDiagnostics:
    """Closed-form error prediction for the observer on a decomposed trace."""
    if trace.protocol != "decomposed":
        raise ValueError("diagnostics apply to decomposed traces only")
    g = trace.graph
    if integer(target, "target") not in g.nodes:
        raise ValueError(f"target {target} not a node of the digraph")
    t = target - 1
    n_rounds = trace.n_rounds
    average = float(np.mean(trace.x0))
    initial_offset = float(trace.x0[t]) - average

    # round k's books see the retention of round k-1 applied to the state before it
    alpha_prev = trace.alpha[:-1, t]
    prev = trace.states[: n_rounds - 1, :, t]
    retained_mass = np.full(n_rounds, np.nan)
    residual = np.full(n_rounds, np.nan)
    retained_mass[1:] = alpha_prev * prev[:, 1]
    residual[1:] = average * retained_mass[1:] - alpha_prev * prev[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        predicted_error = np.abs(
            (initial_offset * retained_mass + residual) / (2.0 - retained_mass)
        )
    exceed = np.flatnonzero(predicted_error > threshold).tolist()  # NaN, as at index 0, compares false
    return EavesdropperDiagnostics(target, average, initial_offset, retained_mass, residual, predicted_error, exceed)


def attack_report(trace_or_path, target: int | None, threshold: float = 500.0) -> dict:
    """Eavesdropper outcome as a JSON-ready dict, for a Trace or a trace file.

    A target of None is the highest-numbered node.  Exceedance rounds are
    those with a defined estimate whose error against the target's true
    initial value is above the threshold.  A file is read as eavesdrop reads
    it, and the report is made after its last line.
    """
    obs = eavesdrop(trace_or_path, target)
    errors = np.abs(obs.estimates - obs.true_initial)
    exceed = np.flatnonzero(errors > threshold).tolist()  # NaN compares false
    final_error = None if math.isnan(errors[-1]) else float(errors[-1])
    return {
        "target": obs.target,
        "protocol": obs.protocol,
        "c": threshold,
        "true_initial": obs.true_initial,
        "estimates": [None if math.isnan(v) else v for v in obs.estimates.tolist()],
        "exceedance_rounds": exceed,
        "post_transient_exceedance_rounds": [k for k in exceed if k >= POST_TRANSIENT_ROUND],
        "final_error": final_error,
        "unrecoverable_rounds": list(obs.unrecoverable_rounds),
    }


def write_attack_csv(report: dict, path, comment: str | None = None) -> None:
    """An attack report's estimates, columns k, estimate, abs_error; empty cells where undefined."""
    est = np.array(report["estimates"], dtype=np.float64)  # None reads as NaN
    err = np.abs(est - report["true_initial"])
    write_table(path, ("k", "estimate", "abs_error"), (range(len(est)), est, err), comment)


# ---------------------------------------------------------------------------
# honest-but-curious coalitions


@dataclass
class CoalitionView:
    """Everything a coalition legitimately sees in a decomposed run.

    Per member a: substates[a] is a (rounds+1, 4) array with columns
    (x_alpha_1, x_alpha_2, x_beta_1, x_beta_2); weights[a] is a
    (rounds, deg+1) array holding a's weights toward its out-neighbors, in
    sorted order, then its self-weight, per round, with retention[a] the
    matching retention weights; received[a][p] is a (rounds, 2) array of
    the products p sent to a, a view into one (rounds, links, 2) array.
    """

    coalition: frozenset[int]
    graph: Digraph
    n_rounds: int
    substates: dict[int, np.ndarray]
    weights: dict[int, np.ndarray]
    retention: dict[int, np.ndarray]
    received: dict[int, dict[int, np.ndarray]]


def build_coalition_view(trace_or_path, coalition) -> CoalitionView:
    """Project a decomposed trace, a Trace or a trace file, onto a coalition's information set.

    The coalition must be a proper subset of the nodes, each member an int
    (a bool, a float or a string is rejected, not coerced); an empty
    coalition yields an empty view.  The protocol and the coalition are
    checked against the header before any round is read.  A file's lines
    are counted first (traceio.open_blocks), so that every array of the
    view is allocated once at its full size.  The view is filled a block of
    rounds at a time, a Trace in memory being one block: the received
    products are derived ROUND_BLOCK rounds at a time into the view's one
    array of them, and the members' arrays are allocated after the first
    block's products, so that the products' temporaries never coexist with
    them in a view of one block.  No temporary grows with the round count.
    """
    with open_blocks(trace_or_path, count=True) as (head, rounds, blocks):
        if head.protocol != "decomposed":
            raise ValueError("coalition views are defined for decomposed traces")
        g = head.graph
        members = frozenset(integer(a, "coalition member") for a in coalition)
        if not members <= set(g.nodes):
            raise ValueError(f"coalition {sorted(members)} contains non-nodes")
        if members == set(g.nodes):
            raise ValueError("coalition of all nodes is rejected: no one is left to protect")
        order = sorted(members)
        links = [(a, p) for a in order for p in g.in_neighbors[a]]
        edges = np.array([g.edge_position[link] for link in links], dtype=np.intp)
        sent = np.empty((rounds, len(links), 2))
        received: dict[int, dict[int, np.ndarray]] = {a: {} for a in order}
        for c, (a, p) in enumerate(links):
            received[a][p] = sent[:, c]
        view = None
        done = 0
        for block in blocks:
            for first in range(0, block.n_rounds, ROUND_BLOCK):
                part = slice(first, min(first + ROUND_BLOCK, block.n_rounds))
                sent[done + part.start : done + part.stop] = block.products(edges, part)
            if view is None:
                view = CoalitionView(
                    coalition=members, graph=g, n_rounds=rounds,
                    substates={a: np.empty((rounds + 1, 4)) for a in order},
                    weights={a: np.empty((rounds, len(g.out_edges[a]) + 1)) for a in order},
                    retention={a: np.empty(rounds) for a in order}, received=received,
                )
            at = slice(done, done + block.n_rounds)
            for a in order:
                # a block's first state row is the last of the block before it, or state 0
                view.substates[a][at.start : at.stop + 1] = block.states[:, :, a - 1]
                view.weights[a][at, :-1] = block.edge_w.take(g.out_edges[a], axis=1)
                view.weights[a][at, -1] = block.self_w[:, a - 1]
                view.retention[a][at] = block.alpha[:, a - 1]
            done = at.stop
    return view


def equivalent_trace(trace: Trace, i: int, m: int, e: float) -> Trace:
    """Rewrite a decomposed trace so node i starts at x_i(0) + e instead.

    Node m, a neighbor of i, absorbs -e so the sum is unchanged.  The
    rewrite shifts the two retained value substates by +/- 2e and repairs
    exactly two round-0 weights so that every state from round 1 onward is
    identical to the original: if m sends to i, m's self-weight and its
    weight toward i are adjusted against m's exchanged value substate; if i
    sends to m, i's self-weight and its weight toward m are adjusted
    against i's.  No weight generated by any other node, no retention
    weight, and no later round changes, so any coalition excluding i and m
    sees the exact same run.  A trace that records its products gets the
    repaired round-0 product in a copy of them; on one that derives them,
    the repaired weight gives the same product.
    """
    if trace.protocol != "decomposed":
        raise ValueError("equivalent traces are defined for decomposed traces")
    g, i, m = trace.graph, integer(i, "i"), integer(m, "m")
    if i == m or i not in g.nodes or m not in g.nodes:
        raise ValueError(f"need two distinct nodes, got i={i}, m={m}")
    to_i = m in g.in_neighbors[i]
    from_i = m in g.out_neighbors[i]
    if not (to_i or from_i):
        raise ValueError(f"node {m} is not a neighbor of node {i}")

    recorded = None if trace.recorded_sent is None else trace.recorded_sent.copy()
    out = Trace(
        trace.protocol, g, trace.x0.copy(), trace.seed, trace.spread, trace.edge_w.copy(),
        trace.self_w.copy(), trace.alpha.copy(), trace.states.copy(), recorded,
    )
    if e == 0:
        return out

    out.x0[i - 1] += e
    out.x0[m - 1] -= e
    out.states[0, 2, i - 1] += 2.0 * e
    out.states[0, 2, m - 1] -= 2.0 * e

    # Repair round 0: the adjusted sender's value flow must shift by 2e
    # between its self-term and its edge to the other node.
    sender = m if to_i else i
    receiver = i if to_i else m
    sign = 1.0 if to_i else -1.0
    s, edge = sender - 1, g.edge_position[(receiver, sender)]
    divisor = trace.states[0, 0, s]
    if abs(divisor) < DIVISOR_GUARD:
        raise ValueError(
            f"node {sender}'s round-0 exchanged value {divisor!r} is too small to rebalance"
        )
    out.self_w[0, s] = (trace.self_w[0, s] * divisor + sign * 2.0 * e) / divisor
    out.edge_w[0, edge] = (trace.edge_w[0, edge] * divisor - sign * 2.0 * e) / divisor
    if recorded is not None:
        recorded[0, edge] = out.edge_w[0, edge] * trace.states[0, :2, s]
    return out


def coalition_reconstruct(view: CoalitionView, target: int, trace_length: int | None = None) -> float:
    """Recover a fully surrounded target's initial value from a coalition view.

    Requires every in- and out-neighbor of the target in the coalition.
    The coalition tracks the target's combined (exchanged + retained)
    substate through a flow balance: it grows by the products the members
    sent to the target and shrinks by the products the target sent out.
    The combined weight substate starts at 2 by construction; anchoring the
    combined value substate at the final round with the target's exchanged
    ratio (read off any received product pair) and rolling the balance back
    to round 0 gives twice the initial value.  Returns NaN if the anchor
    ratio is undefined.
    """
    g, target = view.graph, integer(target, "target")
    if target in view.coalition:
        raise ValueError(f"target {target} is a coalition member")
    if target not in g.nodes:
        raise ValueError(f"target {target} not a node of the digraph")
    inside = set(g.in_neighbors[target]) | set(g.out_neighbors[target])
    missing = sorted(inside - view.coalition)
    if missing:
        raise ValueError(f"coalition must contain all neighbors of {target}; missing {missing}")
    last = view.n_rounds - 1 if trace_length is None else integer(trace_length, "trace_length") - 1
    if not 0 <= last < view.n_rounds:
        raise ValueError(f"trace_length must be in 1..{view.n_rounds}")

    flows = np.zeros((last + 1, 2))
    for m in g.in_neighbors[target]:
        weights_to_target = view.weights[m][: last + 1, g.out_neighbors[m].index(target)]
        flows[:, 0] += weights_to_target * view.substates[m][: last + 1, 0]
        flows[:, 1] += weights_to_target * view.substates[m][: last + 1, 1]
    for n_out in g.out_neighbors[target]:
        flows -= view.received[n_out][target][: last + 1]

    anchor = min(g.out_neighbors[target])
    prod_1, prod_2 = view.received[anchor][target][last]
    if abs(prod_2) < ESTIMATE_GUARD:
        return float("nan")
    ratio = prod_1 / prod_2

    z2_last = 2.0 + float(flows[:last, 1].sum())
    z1_last = z2_last * ratio
    z1_start = z1_last - float(flows[:last, 0].sum())
    return z1_start / 2.0
