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
# Squared errors run_metrics holds at once.
MSE_VALUES = 1 << 12


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
    rounds go through a ForwardProduct one block of the trace at a time, and
    no block after the one that holds round k is made.

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
        if block.start + block.n_rounds > last:
            break
    return product.report()


class ForwardProduct:
    """forward_product's accumulation, fed one RoundBlock at a time in round order.

    add multiplies in the matrices of a block's rounds from round 1 up to
    last (every round when last is None); report gives the ErgodicityReport
    of the rounds added.  Between blocks only the running product, epsilon,
    each round's delta, the row maxima and minima of the product's top n
    rows, and the round-matrix and spare 2n x 2n buffers are kept.

    In add, each round fills the round matrix [[P, I], [diag(alpha), 0]]
    with one scatter of its [edge_w | self_w | alpha] row, the row the
    block joins for epsilon, and np.dot runs the full matrix product into
    the spare buffer, which it then swaps in.  For C-ordered float64
    matrices np.dot makes the same cblas_dgemm call as np.matmul, so the
    product keeps its bits.  Column sums, row maxima and row minima go into
    a (3, rounds + 1, 2n) buffer whose row 0 holds the top rows' extremes
    before the block, and _spread turns the block's into delta, so the
    first failing round raises its ValueError from add; epsilon is the
    minimum of per-block minima.  The final product goes through
    ergodicity_coefficient.

    Row maxima and minima cost about half a round at 2n = 48, so a round
    takes only its top n rows' from the product where it can.  Bottom row i
    of round k's product is alpha_k[i] times top row i of round k-1's: the
    dgemm adds to that one rounded product only terms 0.0 times an entry of
    the product before, and those entries are finite wherever round k's
    delta counts, since every column of that product summed to one.
    Rounding is monotone, so where alpha_k[i] is finite and positive the
    row's maximum and minimum are alpha_k[i] times the previous top row's,
    taken from row 0 for a block's first round.  They are the product's
    bits when its entries are not negative, as with the uniform weights of
    every round after 0; with negative entries only the sign of a zero
    extreme can differ, which moves delta only when every row of the
    product is constant.  A round with any alpha that is zero, negative,
    NaN or infinite, which would swap the extremes or meet 0 * inf, takes
    all 2n rows' from the product.  Column sums always take every row.
    """

    def __init__(self, graph: Digraph, last: int | None = None):
        n = graph.n
        self.n, self.last = n, last
        rows, cols = np.divmod(graph.weight_slots[: len(graph.sorted_edges)], n)
        diag = np.arange(n)
        # where each entry of a round's [edge_w | self_w | alpha] row goes in the flat round matrix
        self.slots = np.concatenate([rows * 2 * n + cols, diag * (2 * n + 1), (n + diag) * 2 * n + diag])
        self.m = np.zeros((2 * n, 2 * n))
        self.m[:n, n:] = np.eye(n)
        self.spare = np.empty((2 * n, 2 * n))
        # smallest positive entry of any round matrix; the identity block holds ones
        self.epsilon = 1.0
        self.product = np.eye(2 * n)
        # row maxima and minima of the product's top n rows: the identity's before round 1
        self.top_extremes = np.stack([np.ones(n), np.zeros(n)])
        self.deltas: list[np.ndarray] = []

    def add(self, block: RoundBlock) -> None:
        first = max(1 - block.start, 0)  # round 0 is left out
        stop = block.n_rounds if self.last is None else min(block.n_rounds, self.last + 1 - block.start)
        if first >= stop:
            return
        n, slots, m, product, spare = self.n, self.slots, self.m, self.product, self.spare
        alpha = block.alpha[first:stop]
        w = np.concatenate([block.edge_w[first:stop], block.self_w[first:stop], alpha], axis=1)
        self.epsilon = min(self.epsilon, float(np.minimum.reduce(w, None, where=w > 0.0, initial=np.inf)))
        derived = ((alpha > 0.0) & (alpha < np.inf)).all(axis=1)
        flat = m.reshape(-1)
        # column sums, row maxima and row minima of each round, after a row 0 of the top rows' extremes before it
        stats = np.empty((3, stop - first + 1, 2 * n))
        stats[1:, 0, :n] = self.top_extremes
        col_sums, row_max, row_min = stats[:, 1:]
        top_max, top_min = row_max[:, :n], row_min[:, :n]
        # the ufuncs' reduce, which ndarray.sum, max and min call through a Python wrapper
        dot, add_up, maximum, minimum = np.dot, np.add.reduce, np.maximum.reduce, np.minimum.reduce
        with np.errstate(invalid="ignore", over="ignore"):  # a non-finite product fails the column check
            for i, whole in enumerate((~derived).tolist()):
                flat[slots] = w[i]
                dot(m, product, spare)
                product, spare = spare, product
                add_up(product, 0, out=col_sums[i])
                if whole:
                    maximum(product, 1, out=row_max[i])
                    minimum(product, 1, out=row_min[i])
                else:
                    top = product[:n]
                    maximum(top, 1, out=top_max[i])
                    minimum(top, 1, out=top_min[i])
            # the bottom rows of the other rounds: alpha times the top rows of the round before
            np.multiply(alpha, stats[1:, :-1, :n], out=stats[1:, 1:, n:], where=derived[:, None])
            self.top_extremes = stats[1:, -1, :n].copy()
            self.product, self.spare = product, spare
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
    """Estimate-error curves for a trace, measured against mean(x0).

    abs_error is made in place from one difference with the estimates, and
    mse sums its squares a piece of rows, at most MSE_VALUES values, at a
    time and divides by n once, so besides the three (rounds+1, n) results
    only one piece of squares is ever held.  The bits are those of
    np.mean((est - target) ** 2, axis=1): |d| ** 2 is d ** 2, np.mean is that
    sum divided by n, and a row's sum is the same call on the row whatever
    rows come with it.
    """
    target = float(np.mean(trace.x0))
    est = estimate_series(trace)
    err = np.subtract(est, target)
    np.abs(err, out=err)
    defined = ~np.isnan(est)
    counts = defined.sum(axis=1)
    n = est.shape[1]
    rows = max(1, MSE_VALUES // n)
    mse = np.empty(len(err))
    for first in range(0, len(err), rows):
        np.add.reduce(np.square(err[first : first + rows]), axis=1, out=mse[first : first + rows])
    mse /= n
    for k in np.flatnonzero(counts < n):  # rows with an undefined estimate
        mse[k] = np.mean(np.square(err[k, defined[k]])) if counts[k] else np.nan
    return RunMetrics(target=target, estimates=est, abs_error=err, mse=mse, defined_counts=counts)


def convergence_round(errors: np.ndarray, tol: float = 1e-8) -> int | None:
    """First round index whose worst defined error is below tol.

    ``errors`` is a (rounds+1, n) array of absolute errors with NaN marking
    undefined entries; rounds where every entry is undefined never qualify.
    Returns None if the tolerance is never reached.
    """
    hits = np.flatnonzero(np.fmax.reduce(errors, axis=1) < tol)  # fmax skips NaN
    return int(hits[0]) if hits.size else None
