"""Helpers shared by the test modules."""
from __future__ import annotations

import numpy as np

from pushsim import CoalitionView, Digraph, Trace, ergodicity_coefficient


def weight_matrix(g: Digraph, edge_w: np.ndarray, self_w: np.ndarray) -> np.ndarray:
    """One round's dense weights: p[j-1, i-1] is sender i's weight toward
    receiver j, zero off the edges and the diagonal."""
    p = np.zeros((g.n, g.n))
    p.reshape(-1)[g.weight_slots] = np.concatenate([edge_w, self_w])
    return p


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
