"""Helpers shared by the test modules."""
from __future__ import annotations

import numpy as np

from pushsim import CoalitionView, Trace
from pushsim.protocol import weight_matrix


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
