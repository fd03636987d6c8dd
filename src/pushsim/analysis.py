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

from .protocol import ROUND_BLOCK, Trace, estimate_series, round_blocks

COLUMN_SUM_TOL = 1e-9


def _spread(col_sums: np.ndarray, row_max: np.ndarray, row_min: np.ndarray) -> np.ndarray:
    """delta of each matrix from its row of stats; raises at the first whose column sums miss 1."""
    col_err = np.abs(col_sums - 1.0).max(axis=1)
    bad = np.flatnonzero(~(col_err <= COLUMN_SUM_TOL))
    if bad.size:
        raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, worst error {col_err[bad[0]]:.3e}")
    return (row_max - row_min).max(axis=1)


def ergodicity_coefficient(m: np.ndarray) -> float:
    """Largest within-row spread of a column-stochastic matrix.

    delta(m) = max over rows of (row max - row min); zero exactly when all
    columns are identical.  Rejects matrices whose columns do not sum to
    one within COLUMN_SUM_TOL, including any with a non-finite column sum.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"need a square matrix, got shape {m.shape}")
    return float(_spread(m.sum(axis=0)[None], m.max(axis=1)[None], m.min(axis=1)[None])[0])


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

    Each round refills one 2n x 2n buffer and runs the full matrix product
    into a spare buffer that it then swaps in.  Column sums, row maxima and
    row minima go into a (3, ROUND_BLOCK, 2n) buffer, and _spread turns one
    block of them into delta at a time, so the first failing round raises;
    epsilon is the minimum of per-block minima.  The final product goes
    through ergodicity_coefficient.

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
    epsilon = 1.0
    product, spare = np.eye(2 * n), np.empty((2 * n, 2 * n))
    col_sums, row_max, row_min = np.empty((3, ROUND_BLOCK, 2 * n))
    delta = np.empty(last)
    with np.errstate(invalid="ignore", over="ignore"):  # a non-finite product fails the column check
        for block in round_blocks(1, last + 1):
            w = np.concatenate([trace.edge_w[block], trace.self_w[block], trace.alpha[block]], axis=1)
            epsilon = min(epsilon, float(np.min(w, where=w > 0.0, initial=np.inf)))
            for i, r in enumerate(range(block.start, block.stop)):
                flat[edge_slots] = trace.edge_w[r]
                self_diag[:] = trace.self_w[r]
                alpha_diag[:] = trace.alpha[r]
                np.matmul(m, product, out=spare)
                product, spare = spare, product
                if r < last:
                    product.sum(axis=0, out=col_sums[i])
                    product.max(axis=1, out=row_max[i])
                    product.min(axis=1, out=row_min[i])
            done = min(block.stop, last) - block.start  # rounds of the block before the last
            delta[block.start - 1 : block.start - 1 + done] = _spread(col_sums[:done], row_max[:done], row_min[:done])
        delta[-1] = ergodicity_coefficient(product)
    rounds_arr = np.arange(1, last + 1, dtype=np.int64)
    bound = (1.0 - epsilon**n) ** np.floor_divide(rounds_arr, n)
    return ErgodicityReport(rounds_arr, delta, bound, epsilon, product, limit_column=product[:, 0].copy())


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
    squared = (est - target) ** 2
    mse = np.mean(squared, axis=1)
    for k in np.flatnonzero(counts < est.shape[1]):  # rows with an undefined estimate
        mse[k] = np.mean(squared[k, defined[k]]) if counts[k] else np.nan
    return RunMetrics(target=target, estimates=est, abs_error=err, mse=mse, defined_counts=counts)


def convergence_round(errors: np.ndarray, tol: float = 1e-8) -> int | None:
    """First round index whose worst defined error is below tol.

    ``errors`` is a (rounds+1, n) array of absolute errors with NaN marking
    undefined entries; rounds where every entry is undefined never qualify.
    Returns None if the tolerance is never reached.
    """
    hits = np.flatnonzero(np.fmax.reduce(errors, axis=1) < tol)  # fmax skips NaN
    return int(hits[0]) if hits.size else None
