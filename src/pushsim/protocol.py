"""Push-sum style averaging protocols.

Two protocols share one state layout, one round update and one trace:

* ``push_sum``: each node keeps a value/weight pair (x1, x2) and in every
  round splits both across its out-edges and itself with fresh random
  weights drawn from U(0,1).  The running estimate is x1/x2.

* ``decomposed``: each node splits its state into an exchanged substate
  (x_alpha_1, x_alpha_2), which is the only thing ever transmitted, and a
  retained substate (x_beta_1, x_beta_2) that never leaves the node.  Round
  0 uses sign-unrestricted Gaussian weights; later rounds use uniform ones.
  The retention weight alpha_i(k) moves a slice of the exchanged substate
  into the retained one each round.  With alpha = 0 and an empty retained
  substate this update is push_sum, which is how push_sum runs.

A round has one weight per edge and one self-weight per node: sender i's
weights toward its out-neighbors and itself plus alpha_i sum to one.  All
randomness flows through per-(purpose, node, round) substreams derived from
one master seed, so any node's draws replay independently of the others.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .graph import GRAPH_TABLE, Digraph, check_protocol_usable, number

# Guard below which a ratio estimate is reported as undefined (NaN).
ESTIMATE_GUARD = 1e-12
# Magnitude below which the round-0 normalizer triggers a redraw.
REDRAW_GUARD = 1e-6
# Round-0 draws a node may take before M is declared too small to normalize.
REDRAW_CAP = 10_000
# Rounds of a RoundBlock: every whole-run pass after sampling (the round
# loop, column sums, forward products, the checks, a file read) handles this
# many at once, so that none of its temporaries grows with the round count.
ROUND_BLOCK = 16

# Substream purposes for the seed derivation scheme documented in SeedStreams.
PURPOSE_INIT_SUBSTATE = 0
PURPOSE_WEIGHTS = 1
PURPOSE_INITIAL_VALUES = 2


class SeedStreams:
    """Derives independent RNG substreams from one master seed.

    The stream for (purpose, node, k) is ``np.random.default_rng((seed,
    purpose, node, k))``: the four integers are fed to numpy's SeedSequence
    as an entropy tuple.  Identical arguments always give an identical
    stream, so a single node's draws for a single round can be replayed
    without touching any other stream.

    ``uniform_block`` returns the first ``count`` U(0,1) draws of many such
    streams at once, bit-identical to ``stream(...).random(count)`` per
    stream, and weight sampling (_fill_uniform) draws every sender's streams
    of a run the same way.  Both go through ``_uniform_pass``, which runs
    SeedSequence's uint32 mixing and PCG64 (XSL-RR output over a 128-bit
    LCG, multiplied in uint64 halves) as numpy array arithmetic over a batch
    of streams (rows), for a seed and purpose of any size.

    A pass costs about 30 numpy calls per draw whatever its row count, so
    one pass over every sender beats one per out-degree.  Its rows come in
    order of draw count, most first, so that each PCG64 step advances only
    the prefix of rows that still draw.  A pass holds at most ROW_LIMIT
    rows, and its state, scratch and draws are buffers it allocates once
    and every step works in, in place: an operation that returned a new
    array would hold several temporaries a row.  So nothing that sampling
    holds besides its output grows with the round count.

    ``uniform_block`` raises ValueError when the seed, the purpose or a node
    or round index is negative, or when a node or round index does not fit
    in 32 bits.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, purpose: int, node: int, k: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, purpose, node, k))

    def uniform_block(self, purpose: int, nodes, ks, count: int) -> np.ndarray:
        """Draws of the streams (purpose, node, k), shape (*broadcast(nodes, ks).shape, count).

        The streams go through _uniform_pass ROW_LIMIT at a time, in the
        order given, each pass drawing straight into its rows of the result,
        which is then scaled into [0, 1) in one operation.
        """
        nodes, ks = np.broadcast_arrays(np.asarray(nodes, np.int64), np.asarray(ks, np.int64))
        out = np.empty((nodes.size, count))
        if nodes.size:
            self._check(purpose, nodes, ks)
            words = [a.ravel().astype(np.uint32) for a in (nodes, ks)]
            for first in range(0, nodes.size, ROW_LIMIT):
                part = out[first : first + ROW_LIMIT]
                self._uniform_pass(purpose, [w[first : first + ROW_LIMIT] for w in words], [len(part)] * count, part)
            out *= 2.0**-53
        return out.reshape(nodes.shape + (count,))

    def _check(self, purpose: int, nodes: np.ndarray, ks: np.ndarray) -> None:
        """Raise ValueError unless every stream (purpose, node, k) exists for these nodes and rounds."""
        lowest, highest = min(int(nodes.min()), int(ks.min())), max(int(nodes.max()), int(ks.max()))
        if min(self.seed, purpose, lowest) < 0 or highest > _MASK32:
            raise ValueError(
                f"no stream for seed {self.seed}, purpose {purpose}, node {nodes.min()}..{nodes.max()}, "
                f"round {ks.min()}..{ks.max()}: seed and purpose must be non-negative, node and round in 0..2**32-1"
            )

    def _uniform_pass(self, purpose: int, words: list[np.ndarray], active: list[int],
                      out: np.ndarray | None = None) -> np.ndarray:
        """The U(0,1) draws of the streams (purpose, node, k), times 2**53.

        words holds the rows' node and round words, two uint32 arrays; the
        pass empties the list once it has seeded the rows, so that they can
        be freed before the draws.  Each result is the 53-bit integer numpy
        scales by 2**-53 into a draw, as a float64; a scaling by a power of
        two is exact, so a caller that only takes ratios of draws can skip
        it.  Draw j is taken for rows :active[j] only, a non-increasing
        list, and goes to column j of out (rows, len(active)), by default
        allocated once the seeding's temporaries are freed; entries past a
        row's last draw are left as they were.  The pass then allocates a
        (4, rows) scratch once, and every step works in it and the (4, rows)
        PCG64 state, in place, on a prefix view, so a row costs their 64
        bytes plus its row of out and nothing else grows with the row count.
        """
        entropy = [np.array([w], np.uint32) for w in _words(self.seed) + _words(purpose)] + words
        words.clear()
        state = _seed_sequence_state(entropy)
        del entropy
        size = state.shape[1]
        scratch = np.empty((4, size), np.uint64)
        _pcg64_seed(state, *scratch)
        if out is None:
            out = np.empty((size, len(active)))
        prefix = None
        for j, rows in enumerate(active):
            if rows != prefix:
                hi, lo, inc_hi, inc_lo = state[:, :rows]
                t1, t2, t3, t4 = scratch[:, :rows]
                prefix = rows
            _pcg_step(hi, lo, inc_hi, inc_lo, t1, t2, t3, t4)
            # XSL-RR: hi ^ lo rotated right by hi >> 58 (a shift by 64 gives 0
            # in numpy), then its top 53 bits
            np.bitwise_xor(hi, lo, out=t1)
            np.right_shift(hi, _U64_58, out=t2)
            np.right_shift(t1, t2, out=t3)
            np.subtract(_U64_64, t2, out=t2)
            t1 <<= t2
            t1 |= t3
            t1 >>= _U64_11
            out[:rows, j] = t1
        return out


# Streams (rows) one _uniform_pass seeds and steps at once.  A pass holds
# 64 + 8 * count bytes a row for count draws, so this caps what sampling
# holds besides its output, whatever the round count: 0.26 MiB at 13 draws,
# three passes for 200 rounds on a 24-node graph and one on a 5-node one.
ROW_LIMIT = 1600

# numpy's SeedSequence hash constants and PCG64's default 128-bit multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_PCG_LO_B0, _PCG_LO_B1 = _PCG_LO & _MASK32, _PCG_LO >> 32


def _scalar(value, dtype=np.uint64) -> np.ndarray:
    """value as a read-only 0-d array of dtype: numpy combines one with an
    array in about half the time it takes to convert a Python int."""
    scalar = np.array(value, dtype)
    scalar.flags.writeable = False
    return scalar


# the constants of the in-place passes
_U32_16, _U32_MIX_L, _U32_MIX_R = (_scalar(v, np.uint32) for v in (16, _MIX_L, _MIX_R))
_U64_MASK32, _U64_PCG_HI, _U64_PCG_LO, _U64_PCG_LO_B0, _U64_PCG_LO_B1 = (
    _scalar(v) for v in (_MASK32, _PCG_HI, _PCG_LO, _PCG_LO_B0, _PCG_LO_B1))
_U64_1, _U64_11, _U64_32, _U64_58, _U64_63, _U64_64 = (_scalar(v) for v in (1, 11, 32, 58, 63, 64))


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, little-endian; 0 is [0]."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


@lru_cache(maxsize=64)
def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) of each successive SeedSequence hash step, as read-only uint32 columns."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    steps = np.array(consts, np.uint32)[:, None]
    steps.flags.writeable = False
    return steps[:-1], steps[1:]


# the 8 hash steps of generate_state(4, uint64)
_OUT_XOR, _OUT_MULT = _hash_consts(_INIT_B, _MULT_B, 8)
# the uint32 halves of a uint64 in memory, low and high
_HALF = (0, 1) if sys.byteorder == "little" else (1, 0)


def _seed_sequence_state(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(entropy words).generate_state(4, uint64), shape (4, batch rows).

    Each entry of ``entropy`` is one uint32 word, an array over the batch or
    a length-1 array that broadcasts.  The 4-word pool is one (4, rows)
    array.  It takes 4 initial hashmix calls and 12 cross ones, then 4 more
    for each word past the fourth, each call with the next hash constant.
    The 3 cross calls of one source word read the same value, so they run as
    one (3, rows) expression.  Temporaries are updated in place, and the
    state is allocated only for the output words, which go straight into
    its uint32 halves: that keeps the peak memory of a large batch down to
    about 80 bytes a row.
    """
    xor, mult = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))

    def hashmix(value, first, count):
        value = value ^ xor[first:first + count]
        value *= mult[first:first + count]
        value ^= value >> _U32_16
        return value

    def mix(x, y):
        """numpy's mix(x, y), overwriting both."""
        x *= _U32_MIX_L
        y *= _U32_MIX_R
        x -= y
        x ^= x >> _U32_16
        return x

    pool = np.empty((4, max(word.size for word in entropy)), np.uint32)
    for i, word in enumerate(entropy[:4]):
        pool[i] = word
    pool = hashmix(pool, 0, 4)
    for src in range(4):
        dst = [i for i in range(4) if i != src]
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for t, word in enumerate(entropy[4:]):
        pool = mix(pool, hashmix(word, 16 + 4 * t, 4))

    # generate_state word t hashes pool[t % 4]; uint64 i is word 2i | word 2i+1 << 32
    def output_words(first):
        value = pool[first::2][[0, 1, 0, 1]]
        value ^= _OUT_XOR[first::2]
        value *= _OUT_MULT[first::2]
        value ^= value >> _U32_16
        return value

    state = np.empty((4, pool.shape[1]), np.uint64)
    halves = state.view(np.uint32).reshape(4, -1, 2)
    for first in range(2):
        halves[..., _HALF[first]] = output_words(first)
    return state


def _pcg64_seed(state: np.ndarray, t1, t2, t3, t4) -> None:
    """pcg64_set_seed in place: state holds SeedSequence's (s hi, s lo, seq hi,
    seq lo) and becomes PCG64's (state hi, state lo, inc hi, inc lo).

    inc = seq << 1 | 1, and the state is 0, stepped, plus s, stepped; a step
    from 0 gives inc, and a sum wrapped below an addend carries one.
    """
    hi, lo, inc_hi, inc_lo = state
    np.right_shift(inc_lo, _U64_63, out=t1)
    inc_hi <<= _U64_1
    inc_hi |= t1
    inc_lo <<= _U64_1
    inc_lo |= _U64_1
    lo += inc_lo
    np.less(lo, inc_lo, out=t1)
    hi += inc_hi
    hi += t1
    _pcg_step(hi, lo, inc_hi, inc_lo, t1, t2, t3, t4)


def _pcg_step(hi, lo, inc_hi, inc_lo, t1, t2, t3, t4) -> None:
    """One PCG64 LCG step in place, state * multiplier + inc mod 2**128, on uint64 halves.

    hi becomes hi * M_lo + lo * M_hi + inc_hi, plus the high word of
    lo * M_lo, plus the carry of the low word lo * M_lo + inc_lo.  The high
    word comes from 32-bit halves, u = lo and v = M_lo, as in Hacker's
    Delight's mulhi, where no partial sum overflows 64 bits; t1..t4 are
    scratch of the same length.
    """
    np.bitwise_and(lo, _U64_MASK32, out=t1)  # u0
    np.multiply(t1, _U64_PCG_LO_B0, out=t2)
    t2 >>= _U64_32  # u0 v0 >> 32
    np.right_shift(lo, _U64_32, out=t3)  # u1
    np.multiply(t3, _U64_PCG_LO_B0, out=t4)
    t4 += t2  # t = u1 v0 + (u0 v0 >> 32)
    np.bitwise_and(t4, _U64_MASK32, out=t2)
    t4 >>= _U64_32
    t1 *= _U64_PCG_LO_B1
    t1 += t2  # u0 v1 + (t & mask)
    t1 >>= _U64_32
    t3 *= _U64_PCG_LO_B1
    hi *= _U64_PCG_LO
    hi += t3
    hi += t4
    hi += t1
    np.multiply(lo, _U64_PCG_HI, out=t1)
    hi += t1
    hi += inc_hi
    lo *= _U64_PCG_LO
    lo += inc_lo
    np.less(lo, inc_lo, out=t1)
    hi += t1


# ---------------------------------------------------------------------------
# the trace


@dataclass
class Trace:
    """Complete record of one protocol run, as arrays indexed by round.

    With R rounds on n nodes and E = len(graph.sorted_edges) edges:

    * ``edge_w`` (R, E): edge_w[k, e] is sender i's round-k weight toward
      receiver j along edge (j, i) = graph.sorted_edges[e];
    * ``self_w`` (R, n): self_w[k, i-1] is sender i's round-k self-weight;
    * ``alpha`` (R, n): retention weights, all zero for ``push_sum``;
    * ``states`` (R+1, 4, n): the state after k rounds, rows x_alpha_1,
      x_alpha_2, x_beta_1, x_beta_2.  A ``push_sum`` state keeps x1, x2 in
      the first two rows and zeros in the retained ones;
    * ``recorded_sent`` (R, E, 2) or None: transmitted products as a
      format-v1 or v2 file recorded them, kept as read so that a check can
      catch a file whose products disagree with its weights and states.
      run_protocol, replay and a format-v3 read leave it None;
    * ``stray_weight``: (round, receiver, sender) of the first nonzero weight
      a format-v1 file held off the edges and the diagonal, or None.

    The transmitted products are entry [k, e, l-1] = the value (l=1, l=2)
    that crossed edge graph.sorted_edges[e] in round k: the edge weight
    times the sender's pre-round exchanged state (transmissions).  Each is
    one float multiply of two arrays the trace holds, so a trace without
    recorded products derives them, bit for bit as run_protocol's own, for
    just the edges and rounds asked for (products); ``sent`` is the full
    (R, E, 2) array, recorded or derived.
    """

    protocol: str
    graph: Digraph
    x0: np.ndarray
    seed: int
    spread: float | None
    edge_w: np.ndarray
    self_w: np.ndarray
    alpha: np.ndarray
    states: np.ndarray
    recorded_sent: np.ndarray | None = None
    stray_weight: tuple[int, int, int] | None = None

    @property
    def n_rounds(self) -> int:
        return self.alpha.shape[0]

    @property
    def sent(self) -> np.ndarray:
        """Every transmitted product, shape (R, E, 2): the recorded array, or a derived one."""
        return self.recorded_sent if self.recorded_sent is not None else self.products()

    def products(self, edges=None, rounds: slice = slice(None)) -> np.ndarray:
        """Transmitted products of a slice of rounds (step 1) on edges, a
        sequence of edge indices (default all), shape (rounds, edges, 2).

        Recorded products are returned as recorded, a view when edges is
        None; otherwise they are derived with transmissions.
        """
        if self.recorded_sent is not None:
            sent = self.recorded_sent[rounds]
            return sent if edges is None else sent[:, edges]
        start, stop, _ = rounds.indices(self.n_rounds)
        return transmissions(self.graph, self.edge_w[start:stop], self.states[start:stop + 1], edges)

    def weight_column(self, i: int) -> np.ndarray:
        """Sender i's dense weight column per round, shape (R, n), zero off its out-edges and itself."""
        g, col = self.graph, np.zeros((self.n_rounds, self.graph.n))
        col[:, [j - 1 for j in g.out_neighbors[i]]] = self.edge_w[:, list(g.out_edges[i])]
        col[:, i - 1] = self.self_w[:, i - 1]
        return col

    def blocks(self, size: int = ROUND_BLOCK) -> Iterator[RoundBlock]:
        """The trace's rounds as RoundBlock views into its arrays, in order, size rounds a block."""
        stray = self.stray_weight
        for first in range(0, max(self.n_rounds, 1), size):
            stop = min(first + size, self.n_rounds)
            yield RoundBlock(self.protocol, self.graph, self.x0, self.seed, self.spread, self.edge_w[first:stop],
                             self.self_w[first:stop], self.alpha[first:stop], self.states[first : stop + 1],
                             None if self.recorded_sent is None else self.recorded_sent[first:stop],
                             stray if stray is not None and first <= stray[0] < stop else None, start=first)


@dataclass
class RoundBlock(Trace):
    """Rounds start .. start + n_rounds - 1 of a trace, as a trace of their own.

    Its edge_w, self_w, alpha and (from a v1 or v2 file) recorded_sent hold
    those rounds; its states hold n_rounds + 1 rows, from the state before
    round start on; its stray_weight is the first off-pattern weight among
    those rounds, with the round counted in the whole trace.  protocol,
    graph, x0, seed and spread are the whole trace's.

    Every block of a trace holds ROUND_BLOCK rounds, or the size given to
    Trace.blocks, but the last, and a trace without rounds is one block
    without rounds, which holds state 0.  Trace.blocks yields views into a
    trace in memory, and traceio.read_blocks the blocks of a file as it
    reads them; those are views into buffers that the next block reuses.
    """

    start: int = 0

    @property
    def rounds(self) -> slice:
        """The block's rounds in the whole trace."""
        return slice(self.start, self.start + self.n_rounds)


# ---------------------------------------------------------------------------
# initialization


def init_push_sum(x0: np.ndarray) -> np.ndarray:
    """Start state for push_sum: x1 = initial values, x2 = ones, no retained substate."""
    x0 = np.asarray(x0, dtype=np.float64)
    return np.stack([x0, np.ones_like(x0), np.zeros_like(x0), np.zeros_like(x0)])


def init_decomposed(x0: np.ndarray, spread: float, streams: SeedStreams) -> np.ndarray:
    """Start state for the decomposed protocol.

    Each node draws its exchanged value substate uniformly from
    (-spread, spread) and sets the retained one to the complement, so the
    pair sums to twice the true initial value.  The exchanged weight
    substate starts at zero and the retained one at two.

    Args:
        x0: initial values, one per node.
        spread: half-width of the masking draw; must be positive.
        streams: substream source (purpose PURPOSE_INIT_SUBSTATE, per node).
    """
    if spread <= 0:
        raise ValueError(f"spread must be positive, got {spread}")
    x0 = np.asarray(x0, dtype=np.float64)
    n = x0.shape[0]
    x_alpha_1 = _uniform_per_node(streams, PURPOSE_INIT_SUBSTATE, n, -spread, spread)
    return np.stack([x_alpha_1, np.zeros(n), 2.0 * x0 - x_alpha_1, np.full(n, 2.0)])


def _uniform_per_node(streams: SeedStreams, purpose: int, n: int, low: float, high: float) -> np.ndarray:
    """``stream(purpose, i).uniform(low, high)`` for i = 1..n, bit for bit.

    numpy draws low + (high - low) * U(0,1) and raises the same errors on a
    range that is not finite or is negative.
    """
    scale = high - low
    if not np.isfinite(scale):
        raise OverflowError("high - low range exceeds valid bounds")
    if np.signbit(scale):
        raise ValueError("high - low < 0")
    return low + scale * streams.uniform_block(purpose, np.arange(1, n + 1), 0, 1)[:, 0]


# ---------------------------------------------------------------------------
# weight sampling


def _positive_uniform(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform draws strictly inside (0, 1); exact 0.0 is redrawn."""
    draws = rng.random(count)
    while (draws == 0.0).any():
        redo = draws == 0.0
        draws[redo] = rng.random(int(redo.sum()))
    return draws


def _round_batch(g: Digraph, k) -> tuple[bool, np.ndarray, tuple[np.ndarray, ...]]:
    """Whether k is a single round, its rounds as int64, and zeroed (edge_w, self_w, alpha) for them."""
    single = isinstance(k, (int, np.integer))
    ks = np.array([k] if single else k, dtype=np.int64).reshape(-1)
    return single, ks, tuple(np.zeros((ks.size, m)) for m in (len(g.sorted_edges), g.n, g.n))


def _fill_uniform(g: Digraph, streams: SeedStreams, ks: np.ndarray,
                  edge_w: np.ndarray, self_w: np.ndarray, alpha: np.ndarray | None = None) -> None:
    """Write normalized U(0,1) weights of rounds ks into edge_w, self_w (and alpha), a row per round.

    Sender i's stream (PURPOSE_WEIGHTS, i, k) gives one draw per sorted
    receiver, one for itself and, when alpha is given, one retention draw.
    Every sender's stream of every round is a row of one order: senders by
    draw count, most first (_draw_classes), and each count class a
    (rounds, senders) grid of rows, round-major.  That order is drawn
    ROW_LIMIT rows at a time (_fill_pass), each time by one
    SeedStreams._uniform_pass, so that no temporary grows with the round
    count; a pass may end inside a class and inside a round.
    """
    if not ks.size:
        return
    streams._check(PURPOSE_WEIGHTS, np.asarray(g.nodes), ks)
    total = g.n * ks.size
    for first in range(0, total, ROW_LIMIT):
        _fill_pass(g, streams, ks, first, min(first + ROW_LIMIT, total), edge_w, self_w, alpha)


def _fill_pass(g: Digraph, streams: SeedStreams, ks: np.ndarray, first: int, stop: int,
               edge_w: np.ndarray, self_w: np.ndarray, alpha: np.ndarray | None) -> None:
    """Rows first..stop - 1 of _fill_uniform's order, drawn, normalized and scattered.

    The pass's rows split into (rounds, senders) rectangles (_pieces), and
    each is one (rounds, senders, count) view of the draws whose last axis
    is contiguous: summing it then groups the terms exactly as the 1-D sum
    of one sender's draws does, which a zero-padded row would not once
    count reaches 8.  A row holding an exact 0.0 is redrawn from its scalar
    stream by _positive_uniform.  The sums go to one array, and the draws
    are divided by it a column at a time, for the rows that took that
    draw: dividing a strided (rows, count) view by a broadcast (rows, 1)
    one would run through numpy's buffers, about 200 KB.  The pass's
    buffers are freed on return.
    """
    extra = 1 if alpha is None else 2
    size, pieces = stop - first, list(_pieces(_draw_classes(g), ks.size, first, stop))
    words = [np.empty(size, np.uint32), np.empty(size, np.uint32)]
    ends: dict[int, int] = {}
    for c, at, r0, r1, s0, s1 in pieces:
        grid = (r1 - r0, s1 - s0)
        words[0][at : at + grid[0] * grid[1]].reshape(grid)[...] = c.nodes[s0:s1]
        words[1][at : at + grid[0] * grid[1]].reshape(grid)[...] = ks[r0:r1, None]
        ends[c.degree + extra] = at + grid[0] * grid[1]
    # draw j is taken by the rows of the classes with more than j draws, a prefix
    active: list[int] = []
    for count in sorted(ends):
        active += [ends[count]] * (count - len(active))
    draws = streams._uniform_pass(PURPOSE_WEIGHTS, words, active)
    sums = np.empty(size)
    for c, at, r0, r1, s0, s1 in pieces:
        count = c.degree + extra
        rows = draws[at : at + (r1 - r0) * (s1 - s0), :count]
        if not rows.all():
            for m in np.flatnonzero(~rows.all(axis=1)):
                r, s = divmod(int(m), s1 - s0)
                rng = streams.stream(PURPOSE_WEIGHTS, int(c.nodes[s0 + s]), int(ks[r0 + r]))
                rows[m] = _positive_uniform(rng, count)
        rows.sum(axis=1, out=sums[at : at + len(rows)])
    for j, height in enumerate(active):
        np.divide(draws[:height, j], sums[:height], out=draws[:height, j])
    for c, at, r0, r1, s0, s1 in pieces:
        block = draws[at : at + (r1 - r0) * (s1 - s0), : c.degree + extra].reshape(r1 - r0, s1 - s0, -1)
        edge_w[r0:r1, c.edges[s0:s1]] = block[..., : c.degree]
        self_w[r0:r1, c.cols[s0:s1]] = block[..., c.degree]
        if alpha is not None:
            alpha[r0:r1, c.cols[s0:s1]] = block[..., -1]


class _DrawClass(NamedTuple):
    """The senders of one out-degree, in node order; read-only arrays."""

    degree: int
    first: int  # senders of larger out-degree, which come before these
    nodes: np.ndarray  # uint32 node words
    cols: np.ndarray  # node - 1: the senders' self_w and alpha columns
    edges: np.ndarray  # (senders, degree) edge_w columns, in sorted receiver order


@lru_cache(maxsize=GRAPH_TABLE)
def _draw_classes(g: Digraph) -> tuple[_DrawClass, ...]:
    """g's senders grouped by out-degree, largest first."""
    order = sorted(g.nodes, key=lambda i: -len(g.out_edges[i]))
    classes, first = [], 0
    for degree, group in groupby(order, key=lambda i: len(g.out_edges[i])):
        group = list(group)
        arrays = (np.array(group, np.uint32), np.array(group, np.intp) - 1,
                  np.array([g.out_edges[i] for i in group], np.intp).reshape(len(group), degree))
        for a in arrays:
            a.flags.writeable = False
        classes.append(_DrawClass(degree, first, *arrays))
        first += len(group)
    return tuple(classes)


def _pieces(classes: tuple[_DrawClass, ...], rounds: int, first: int, stop: int):
    """Rows first..stop - 1 of _fill_uniform's order as rectangles (class,
    at, r0, r1, s0, s1): the pass's rows at.. hold rounds r0..r1 - 1 of the
    class's senders s0..s1 - 1, round-major.  A class gives at most a
    partial round, whole rounds and a partial round."""
    for c in classes:
        width, base = len(c.nodes), c.first * rounds
        a, b = max(first, base) - base, min(stop, base + width * rounds) - base
        while a < b:
            r0, s0 = divmod(a, width)
            if s0 or b - a < width:
                r1, s1 = r0 + 1, min(width, s0 + b - a)
            else:
                r1, s1 = b // width, width
            yield c, base + a - first, r0, r1, s0, s1
            a += (r1 - r0) * (s1 - s0)


def sample_push_sum_weights(g: Digraph, k: int | Iterable[int], streams: SeedStreams):
    """Uniform column-stochastic weights with no retention.

    Each sender i draws one value per out-neighbor plus one for itself from
    U(0,1), in sorted-receiver-then-self order, and normalizes them to sum
    one.  Returns (edge_w, self_w, alpha), laid out as in Trace, with alpha
    all zeros: shapes (E,), (n,) and (n,) for an int k, with a leading
    rounds axis for a sequence.
    """
    single, ks, weights = _round_batch(g, k)
    _fill_uniform(g, streams, ks, *weights[:2])
    return tuple(w[0] for w in weights) if single else weights


def sample_round_weights(g: Digraph, k: int | Iterable[int], spread: float, streams: SeedStreams):
    """Weights for the decomposed protocol.

    Each sender draws one value per out-neighbor, one self-weight, and one
    retention weight, in sorted-receiver, self, retention order.  At k = 0
    the draws are Gaussian with mean 0 and standard deviation sqrt(spread),
    so normalized entries may fall outside (0, 1); whenever the normalizer
    magnitude falls below REDRAW_GUARD the node redraws the whole set, and
    after REDRAW_CAP draws a ValueError names M as too small.  From
    k = 1 on the draws are U(0,1), giving entries strictly inside (0, 1).
    A sender's weights plus its retention always sum to one.  Returns
    (edge_w, self_w, alpha), laid out as in Trace: shapes (E,), (n,) and
    (n,) for an int k, with a leading rounds axis for a sequence.
    """
    single, ks, (edge_w, self_w, alpha) = _round_batch(g, k)
    later = ks != 0
    if later.any():  # every round from the first nonzero one to the last; round-0 rows among them are redone below
        span = slice(int(later.argmax()), ks.size - int(later[::-1].argmax()))
        _fill_uniform(g, streams, ks[span], edge_w[span], self_w[span], alpha[span])
    for r in np.flatnonzero(ks == 0):
        for i in g.nodes:
            count = len(g.out_edges[i]) + 2
            rng = streams.stream(PURPOSE_WEIGHTS, i, 0)
            for _ in range(REDRAW_CAP):
                draws = rng.normal(0.0, np.sqrt(spread), count)
                if abs(draws.sum()) >= REDRAW_GUARD:
                    break
            else:
                raise ValueError(f"M={spread} is too small: node {i}'s round-0 weights summed below "
                                 f"{REDRAW_GUARD} in {REDRAW_CAP} draws")
            draws /= draws.sum()
            edge_w[r, list(g.out_edges[i])] = draws[:-2]
            self_w[r, i - 1], alpha[r, i - 1] = draws[-2:]
    return (edge_w[0], self_w[0], alpha[0]) if single else (edge_w, self_w, alpha)


# ---------------------------------------------------------------------------
# the round update


def transmissions(g: Digraph, edge_w: np.ndarray, states: np.ndarray, edges=None) -> np.ndarray:
    """What crossed each edge in each round, shape (rounds, edges, 2).

    Entry [k, e] is edge_w[k, e] times sender i's exchanged state before
    round k, states[k, :2, i-1], for edge (j, i) = g.sorted_edges[e]; states
    holds one more row than edge_w.  With edges, a sequence of edge indices,
    only those columns are computed, in that order.  The products go
    straight into the returned array.  Columns are gathered with take,
    whose result is C-ordered: fancy indexing's is not, and a multiply of it
    into the strided output buffers its operands.  The products are
    computed as the values give them, inf * 0 and overflow included,
    without a warning.
    """
    senders = g.edge_senders
    if edges is not None:
        edges = np.asarray(edges, dtype=np.intp)
        edge_w, senders = edge_w.take(edges, axis=1), senders[edges]
    sent = np.empty(edge_w.shape + (2,))
    with np.errstate(invalid="ignore", over="ignore"):
        for l in range(2):
            np.multiply(edge_w, states[:-1, l].take(senders, axis=1), out=sent[..., l])
    return sent


def _evolve(trace: Trace) -> None:
    """Fill trace.states[1:], which must hold zeros, with the states after
    each round from trace.states[0], in place, one RoundBlock at a time.

    x_l(k+1) = p_k @ x_l(k) + b_l(k), with p_k one reused dense matrix, and
    b_l(k+1) = alpha(k) * x_l(k) where alpha(k) is nonzero; elsewhere b keeps
    its +0.0, so a push_sum run (alpha all zero) never takes that step.  The
    edge and self weights are joined into one row per round, the
    nonzero-alpha mask built and the state rows taken as views, for a block
    at a time.

    On small graphs a round pays more for numpy's call overhead than for
    its arithmetic, so each round makes as few calls as the same
    floating-point operations allow.  p_k @ x_l goes through np.dot, which
    for a C-ordered float64 matrix and vector makes the same cblas_dgemv
    call as np.matmul (the same kernel, so the same sums in the same order)
    without the ufunc dispatch.  Both b_l rows go into both x_l rows in one
    (2, n) add, each entry still one addition.  Non-finite states propagate
    as the arithmetic gives them (inf * 0 in the dense product is NaN),
    without a warning.

    Those are the bits of one add per row, with one exception: where two
    NaNs whose bits differ meet in the add, which one comes out depends on
    where numpy's loop splits the (2, n) rows.  The arithmetic makes one NaN
    only, so that takes a NaN from outside, such as a trace file's: a run
    from a config keeps its bits.
    """
    g = trace.graph
    p_k = np.zeros((g.n, g.n))
    flat, slots = p_k.reshape(-1), g.weight_slots
    dot = np.dot
    with np.errstate(invalid="ignore", over="ignore"):
        for block in trace.blocks():
            states = block.states
            x1, x2 = list(states[:, 0]), list(states[:, 1])
            exchanged, retained = list(states[:, :2]), list(states[:, 2:])
            weights = list(np.concatenate([block.edge_w, block.self_w], axis=1))
            alpha = block.alpha
            keep = alpha != 0.0
            retains = keep.any(axis=1).tolist()
            for k in range(block.n_rounds):
                flat[slots] = weights[k]
                dot(p_k, x1[k], x1[k + 1])
                dot(p_k, x2[k], x2[k + 1])
                exchanged[k + 1] += retained[k]
                if retains[k]:
                    np.multiply(alpha[k], exchanged[k], out=retained[k + 1], where=keep[k])


# ---------------------------------------------------------------------------
# estimates


def estimate_average(numerator, denominator):
    """Ratio estimate with an undefined guard.

    Works elementwise on arrays; wherever |denominator| < ESTIMATE_GUARD the
    result is NaN (undefined), which is a value, not an error.
    """
    num = np.asarray(numerator, dtype=np.float64)
    den = np.asarray(denominator, dtype=np.float64)
    out = np.full(np.broadcast(num, den).shape, np.nan)
    ok = np.abs(den) >= ESTIMATE_GUARD
    np.divide(num, den, out=out, where=ok)
    if out.shape == ():
        return float(out)
    return out


def estimate_series(trace: Trace, rounds: slice = slice(None)) -> np.ndarray:
    """Per-round ratio estimates, shape (rounds+1, n); NaN where undefined.

    Row k holds each node's estimate after k rounds: x1/x2 for push_sum,
    exchanged-substate ratio for the decomposed protocol.  rounds selects
    a slice of the R+1 rows (step 1) and returns just those.
    """
    return estimate_average(trace.states[rounds, 0], trace.states[rounds, 1])


def retained_ratio_series(trace: Trace) -> np.ndarray:
    """Retained-substate ratio per round for decomposed traces; NaN where undefined."""
    if trace.protocol != "decomposed":
        raise ValueError("retained ratios exist only for decomposed traces")
    return estimate_average(trace.states[:, 2], trace.states[:, 3])


# ---------------------------------------------------------------------------
# running and replaying

PROTOCOLS = ("decomposed", "push_sum")


def run_protocol(g: Digraph, x0, protocol: str, rounds: int, spread: float = 100.0, seed: int = 0) -> Trace:
    """Run a protocol and return its complete trace.

    Deterministic in all arguments: the same inputs give a bit-identical
    trace.  Rejects unknown tags, graphs unusable for protocol runs, an x0
    length mismatch, and a non-positive round count.
    """
    if protocol not in PROTOCOLS:
        raise ValueError(f"unknown protocol {protocol!r}; registered: {', '.join(PROTOCOLS)}")
    check_protocol_usable(g)
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (g.n,):
        raise ValueError(f"x0 has shape {x0.shape}, expected ({g.n},)")
    if rounds < 1:
        raise ValueError(f"rounds must be positive, got {rounds}")
    streams = SeedStreams(seed)
    if protocol == "push_sum":
        state0 = init_push_sum(x0)
        edge_w, self_w, alpha = sample_push_sum_weights(g, range(rounds), streams)
    else:
        state0 = init_decomposed(x0, spread, streams)
        edge_w, self_w, alpha = sample_round_weights(g, range(rounds), spread, streams)
    trace = Trace(protocol, g, x0.copy(), seed, spread, edge_w, self_w, alpha, np.zeros((rounds + 1, 4, g.n)))
    trace.states[0] = state0
    _evolve(trace)
    return trace


def replay(trace: Trace, state0: np.ndarray | None = None) -> Trace:
    """Recompute a trace from state0, by default its own first state, and its recorded weights.

    Applies the round update to the stored weight sequence, ignoring the
    recorded later states and products; the result records no products.
    Its states are new, and its edge_w, self_w and alpha are the input's own
    arrays, not copies, so a replay adds only one states array to memory.
    For traces produced by run_protocol the result is bit-identical to the
    original.  A RoundBlock replays as a trace of its own rounds.
    """
    out = Trace(trace.protocol, trace.graph, trace.x0.copy(), trace.seed, trace.spread, trace.edge_w,
                trace.self_w, trace.alpha, np.zeros((trace.n_rounds + 1, 4, trace.graph.n)))
    out.states[0] = trace.states[0] if state0 is None else state0
    _evolve(out)
    return out


def conserved_sums(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Per-round totals of the value and weight coordinates.

    The exchanged and retained substates are summed together (for push_sum
    the retained ones are zero).  Both totals stay constant over rounds
    (push_sum: sum(x0) and n; decomposed: twice sum(x0) and 2n).
    """
    sums = trace.states.sum(axis=2)
    return sums[:, 0] + sums[:, 2], sums[:, 1] + sums[:, 3]


def column_sums(trace: Trace) -> np.ndarray:
    """Each sender's weights summed per round, shape (R, n), alpha excluded.

    One bincount per ROUND_BLOCK rounds adds them in row-major slot order,
    so each sum adds its terms in receiver order, bit for bit as summing a
    dense weight matrix over its receiver axis does.  The bins come from
    _block_bins, built once per graph.
    """
    g = trace.graph
    bins = _block_bins(g)
    sums = np.empty((trace.n_rounds, g.n))
    for first in range(0, trace.n_rounds, ROUND_BLOCK):
        rows = slice(first, first + ROUND_BLOCK)
        weights = np.concatenate([trace.edge_w[rows], trace.self_w[rows]], axis=1).take(g.slot_order, axis=1)
        size = len(weights)
        sums[rows] = np.bincount(bins[:size].ravel(), weights=weights.ravel(),
                                 minlength=size * g.n).reshape(size, g.n)
    return sums


@lru_cache(maxsize=GRAPH_TABLE)
def _block_bins(g: Digraph) -> np.ndarray:
    """column_sums' bincount bins for ROUND_BLOCK rounds of g's weights in
    slot_order, read-only: round r's slot goes to bin r * n + its sender."""
    bins = np.arange(ROUND_BLOCK)[:, None] * g.n + g.slot_senders
    bins.flags.writeable = False
    return bins


def sample_initial_values(n: int, dist: dict, streams: SeedStreams) -> np.ndarray:
    """Draw initial node values from a distribution spec.

    Supported specs: {"dist": "uniform", "low": a, "high": b} with one
    per-node draw (purpose PURPOSE_INITIAL_VALUES), and
    {"dist": "constant", "value": v}.  a, b and v are checked with
    graph.number, named initials.<key>, and never coerced.
    """
    kind = dist.get("dist", "uniform")
    if kind == "uniform":
        low, high = number(dist.get("low", 0.0), "initials.low"), number(dist.get("high", 50.0), "initials.high")
        return _uniform_per_node(streams, PURPOSE_INITIAL_VALUES, n, low, high)
    if kind == "constant":
        return np.full(n, number(dist.get("value", 0.0), "initials.value"))
    raise ValueError(f"unknown initial-value distribution {kind!r}")
