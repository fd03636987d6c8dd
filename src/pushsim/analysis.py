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

from .graph import Digraph
from .protocol import RoundBlock, Trace, estimate_series

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
    round-0 matrix never enters the product or the epsilon statistic.  The
    rounds go through a ForwardProduct one block of the trace at a time.

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
    product = ForwardProduct(trace.graph, last)
    for block in trace.blocks():
        product.add(block)
    return product.report()


class ForwardProduct:
    """forward_product's accumulation, fed one RoundBlock at a time in round order.

    add multiplies in the matrices of a block's rounds from round 1 up to
    last (every round when last is None); report gives the ErgodicityReport
    of the rounds added.  Between blocks only the running product, epsilon
    and each round's delta are kept.

    In add, each round refills one 2n x 2n buffer and runs the full matrix
    product into a spare buffer that it then swaps in.  Column sums, row
    maxima and row minima go into a (3, rounds, 2n) buffer, and _spread
    turns the block's into delta, so the first failing round raises its
    ValueError from add; epsilon is the minimum of per-block minima.  The
    final product goes through ergodicity_coefficient.
    """

    def __init__(self, graph: Digraph, last: int | None = None):
        n = graph.n
        self.n, self.last = n, last
        rows, cols = np.divmod(graph.weight_slots[: len(graph.sorted_edges)], n)
        self.edge_slots = rows * 2 * n + cols
        # smallest positive entry of any round matrix; the identity block holds ones
        self.epsilon = 1.0
        self.product = np.eye(2 * n)
        self.deltas: list[np.ndarray] = []

    def add(self, block: RoundBlock) -> None:
        first = max(1 - block.start, 0)  # round 0 is left out
        stop = block.n_rounds if self.last is None else min(block.n_rounds, self.last + 1 - block.start)
        if first >= stop:
            return
        n, edge_slots, product = self.n, self.edge_slots, self.product
        edge_w, self_w, alpha = block.edge_w[first:stop], block.self_w[first:stop], block.alpha[first:stop]
        w = np.concatenate([edge_w, self_w, alpha], axis=1)
        self.epsilon = min(self.epsilon, float(np.min(w, where=w > 0.0, initial=np.inf)))
        # one buffer [[P, I], [diag(alpha), 0]]; each round refills P and alpha
        m = np.zeros((2 * n, 2 * n))
        m[:n, n:] = np.eye(n)
        flat = m.reshape(-1)
        self_diag, alpha_diag = flat[: 2 * n * n : 2 * n + 1], flat[2 * n * n :: 2 * n + 1]
        spare = np.empty_like(product)
        col_sums, row_max, row_min = np.empty((3, stop - first, 2 * n))
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite product fails the column check
            for i in range(stop - first):
                flat[edge_slots] = edge_w[i]
                self_diag[:] = self_w[i]
                alpha_diag[:] = alpha[i]
                np.matmul(m, product, out=spare)
                product, spare = spare, product
                product.sum(axis=0, out=col_sums[i])
                product.max(axis=1, out=row_max[i])
                product.min(axis=1, out=row_min[i])
            self.product = product
            self.deltas.append(_spread(col_sums, row_max, row_min))

    def report(self) -> ErgodicityReport:
        delta = np.concatenate(self.deltas)
        with np.errstate(invalid="ignore", over="ignore"):
            delta[-1] = ergodicity_coefficient(self.product)
        rounds_arr = np.arange(1, delta.size + 1, dtype=np.int64)
        bound = (1.0 - self.epsilon**self.n) ** np.floor_divide(rounds_arr, self.n)
        return ErgodicityReport(rounds_arr, delta, bound, self.epsilon, self.product,
                                limit_column=self.product[:, 0].copy())


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
