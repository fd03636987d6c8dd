"""Matrix-level convergence analysis.

The decomposed protocol's two-substate update is linear: stacking the
exchanged substate on top of the retained one, a round with weights (P,
alpha) multiplies the stacked vector by the 2n x 2n block matrix
[[P, I], [diag(alpha), 0]].  Products of these matrices accumulated from
round 1 onward (new factor on the left, round 0 excluded by convention)
contract toward a rank-one limit; the coefficient of ergodicity measures
how far a product still is from that limit, and a realized worst-case
bound follows from the smallest positive entry seen in the sequence.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import Trace, estimate_series

COLUMN_SUM_TOL = 1e-9


def ergodicity_coefficient(m: np.ndarray) -> float:
    """Largest within-row spread of a column-stochastic matrix.

    delta(m) = max over rows of (row max - row min); zero exactly when all
    columns are identical.  Rejects matrices whose columns do not sum to
    one within COLUMN_SUM_TOL, including any with a non-finite column sum.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    col_err = np.abs(m.sum(axis=0) - 1.0).max()
    if not col_err <= COLUMN_SUM_TOL:
        raise ValueError(
            f"columns must sum to 1 within {COLUMN_SUM_TOL}, worst error {col_err:.3e}"
        )
    return float((m.max(axis=1) - m.min(axis=1)).max())


@dataclass
class ErgodicityReport:
    """Contraction history of the accumulated round matrices.

    delta[t] is the coefficient of ergodicity of the product over rounds
    1..rounds[t]; bound[t] is the realized worst-case curve
    (1 - epsilon**n) ** floor(rounds[t] / n) with n the node count and
    epsilon the smallest positive entry over the whole accumulated
    sequence.  product is the final accumulated matrix and limit_column its
    first column (the empirical rank-one limit).
    """

    rounds: np.ndarray
    delta: np.ndarray
    bound: np.ndarray
    epsilon: float
    product: np.ndarray
    limit_column: np.ndarray


def forward_product(trace: Trace, k: int | None = None) -> ErgodicityReport:
    """Accumulate stacked round matrices over rounds 1..k and report contraction.

    Multiplication puts each new round's matrix on the left, so the product
    after round k maps the state at round 1 to the state at round k+1.  The
    round-0 matrix never enters the product or the epsilon statistic.

    Args:
        trace: a decomposed-protocol trace with at least 2 rounds.
        k: last round to include; defaults to the last recorded round.
    """
    if trace.protocol != "decomposed":
        raise ValueError("forward products are defined for decomposed traces")
    final = trace.n_rounds - 1
    last = final if k is None else int(k)
    if last < 1 or last > final:
        raise ValueError(f"k must be in 1..{final}, got {last}")
    n, n_edges = trace.graph.n, trace.edge_w.shape[1]
    # one buffer [[P, I], [diag(alpha), 0]]; each round refills P and alpha
    m = np.zeros((2 * n, 2 * n))
    m[:n, n:] = np.eye(n)
    flat = m.reshape(-1)
    rows, cols = np.divmod(trace.graph.weight_slots[:n_edges], n)
    edge_slots = rows * 2 * n + cols
    self_diag, alpha_diag = flat[: 2 * n * n : 2 * n + 1], flat[2 * n * n :: 2 * n + 1]
    # smallest positive entry of any round matrix; the identity block holds ones
    weights = (trace.edge_w[1 : last + 1], trace.self_w[1 : last + 1], trace.alpha[1 : last + 1])
    epsilon = min([1.0] + [float(np.min(w, where=w > 0.0, initial=np.inf)) for w in weights])
    product = np.eye(2 * n)
    deltas = []
    for r in range(1, last + 1):
        flat[edge_slots] = trace.edge_w[r]
        self_diag[:] = trace.self_w[r]
        alpha_diag[:] = trace.alpha[r]
        product = m @ product
        deltas.append(ergodicity_coefficient(product))
    rounds_arr = np.arange(1, last + 1, dtype=np.int64)
    bound = (1.0 - epsilon**n) ** np.floor_divide(rounds_arr, n)
    return ErgodicityReport(
        rounds=rounds_arr,
        delta=np.asarray(deltas),
        bound=bound,
        epsilon=epsilon,
        product=product,
        limit_column=product[:, 0].copy(),
    )


@dataclass
class RunMetrics:
    """Per-round estimate quality for one trace.

    Row k of estimates/abs_error covers the state after k rounds; mse[k] is
    the mean squared error over nodes with a defined estimate and NaN when
    no node has one.  defined_counts flags how many estimates entered each
    mean.
    """

    target: float
    estimates: np.ndarray
    abs_error: np.ndarray
    mse: np.ndarray
    defined_counts: np.ndarray


def run_metrics(trace: Trace) -> RunMetrics:
    """Estimate-error curves for a trace, measured against mean(x0)."""
    target = float(np.mean(trace.x0))
    est = estimate_series(trace)
    err = np.abs(est - target)
    defined = ~np.isnan(est)
    counts = defined.sum(axis=1)
    mse = np.full(est.shape[0], np.nan)
    for k in range(est.shape[0]):
        if counts[k]:
            mse[k] = float(np.mean((est[k, defined[k]] - target) ** 2))
    return RunMetrics(target=target, estimates=est, abs_error=err, mse=mse, defined_counts=counts)


def convergence_round(errors: np.ndarray, tol: float = 1e-8) -> int | None:
    """First round index whose worst defined error is below tol.

    ``errors`` is a (rounds+1, n) array of absolute errors with NaN marking
    undefined entries; rounds where every entry is undefined never qualify.
    Returns None if the tolerance is never reached.
    """
    for k in range(errors.shape[0]):
        row = errors[k]
        defined = ~np.isnan(row)
        if defined.any() and float(row[defined].max()) < tol:
            return k
    return None
