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

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .graph import Digraph, check_protocol_usable

# Guard below which a ratio estimate is reported as undefined (NaN).
ESTIMATE_GUARD = 1e-12
# Magnitude below which the round-0 normalizer triggers a redraw.
REDRAW_GUARD = 1e-6
# Round-0 draws a node may take before M is declared too small to normalize.
REDRAW_CAP = 10_000
# Rounds that a whole-run pass after sampling (the round loop, column sums,
# forward products, the estimates table, the replay check) handles at once,
# so that none of its temporaries grows with the round count.
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
    stream.  It runs SeedSequence's uint32 mixing and PCG64 (XSL-RR output
    over a 128-bit LCG, multiplied in uint64 halves) as numpy array
    arithmetic over the batch, for a seed and purpose of any size.  It
    raises ValueError when the seed, the purpose or a node or round index
    is negative, or when a node or round index does not fit in 32 bits.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)

    def stream(self, purpose: int, node: int, k: int = 0) -> np.random.Generator:
        return np.random.default_rng((self.seed, purpose, node, k))

    def uniform_block(self, purpose: int, nodes, ks, count: int) -> np.ndarray:
        """Draws of the streams (purpose, node, k), shape (*broadcast(nodes, ks).shape, count)."""
        nodes, ks = np.broadcast_arrays(np.asarray(nodes, np.int64), np.asarray(ks, np.int64))
        shape = nodes.shape + (count,)
        if nodes.size == 0:
            return np.empty(shape)
        lowest, highest = min(int(nodes.min()), int(ks.min())), max(int(nodes.max()), int(ks.max()))
        if min(self.seed, purpose, lowest) < 0 or highest > _MASK32:
            raise ValueError(
                f"no stream for seed {self.seed}, purpose {purpose}, node {nodes.min()}..{nodes.max()}, "
                f"round {ks.min()}..{ks.max()}: seed and purpose must be non-negative, node and round in 0..2**32-1"
            )
        # Words shared by every row stay length-1 arrays and broadcast.
        shared = [np.array([w], np.uint32) for w in _words(self.seed) + _words(purpose)]
        rows = [nodes.ravel().astype(np.uint32), ks.ravel().astype(np.uint32)]
        hi, lo, inc_hi, inc_lo = _pcg64_seeded(shared + rows)
        out = np.empty((nodes.size, count))
        for j in range(count):
            hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
            x, rot = hi ^ lo, hi >> 58
            out[:, j] = ((x >> rot | x << (64 - rot & 63)) >> 11) * 2.0**-53
        return out.reshape(shape)


# numpy's SeedSequence hash constants and PCG64's default 128-bit multiplier.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_HI, _PCG_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645
_PCG_LO_B0, _PCG_LO_B1 = _PCG_LO & _MASK32, _PCG_LO >> 32


def _words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a non-negative int, little-endian; 0 is [0]."""
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_consts(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiplier) of each successive SeedSequence hash step, as uint32 columns."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & _MASK32)
    steps = np.array(consts, np.uint32)[:, None]
    return steps[:-1], steps[1:]


# the 8 hash steps of generate_state(4, uint64)
_OUT_XOR, _OUT_MULT = _hash_consts(_INIT_B, _MULT_B, 8)


def _seed_sequence_state(entropy: list[np.ndarray]) -> np.ndarray:
    """SeedSequence(entropy words).generate_state(4, uint64), shape (4, batch rows).

    Each entry of ``entropy`` is one uint32 word, an array over the batch or
    a length-1 array that broadcasts.  The 4-word pool is one (4, rows)
    array.  It takes 4 initial hashmix calls and 12 cross ones, then 4 more
    for each word past the fourth, each call with the next hash constant.
    The 3 cross calls of one source word read the same value, so they run as
    one (3, rows) expression.  Temporaries are updated in place, which keeps
    the peak memory of a large batch down.
    """
    xor, mult = _hash_consts(_INIT_A, _MULT_A, 4 * len(entropy))

    def hashmix(value, first, count):
        value = value ^ xor[first:first + count]
        value *= mult[first:first + count]
        value ^= value >> 16
        return value

    def mix(x, y):
        """numpy's mix(x, y), overwriting both."""
        x *= _MIX_L
        y *= _MIX_R
        x -= y
        x ^= x >> 16
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
        value = pool[first::2][[0, 1, 0, 1]] ^ _OUT_XOR[first::2]
        value *= _OUT_MULT[first::2]
        value ^= value >> 16
        return value

    state = output_words(1).astype(np.uint64)
    state <<= 32
    state |= output_words(0)
    return state


def _pcg64_seeded(entropy: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """PCG64 (state hi, state lo, inc hi, inc lo) seeded from the entropy words.

    A function of its own so that SeedSequence's temporaries are freed
    before the draws.
    """
    s_hi, s_lo, q_hi, q_lo = _seed_sequence_state(entropy)
    # pcg64_set_seed: inc = seq << 1 | 1; state = 0, step, += initstate, step
    inc_hi, inc_lo = q_hi << 1 | q_lo >> 63, q_lo << 1 | 1
    lo = inc_lo + s_lo
    hi, lo = _pcg_step(inc_hi + s_hi + (lo < s_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 LCG step, state * multiplier + inc mod 2**128, on uint64 halves."""
    a0, a1 = lo & _MASK32, lo >> 32
    p01, p10 = a0 * _PCG_LO_B1, a1 * _PCG_LO_B0
    mid = a0 * _PCG_LO_B0
    mid >>= 32
    mid += p01 & _MASK32
    mid += p10 & _MASK32
    carry = a1 * _PCG_LO_B1
    carry += p01 >> 32
    carry += p10 >> 32
    carry += mid >> 32
    lo2 = lo * _PCG_LO
    lo2 += inc_lo
    carry += hi * _PCG_LO
    carry += lo * _PCG_HI
    carry += inc_hi
    carry += lo2 < inc_lo
    return carry, lo2


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


def _fill_uniform(g: Digraph, streams: SeedStreams, ks: np.ndarray, pos: np.ndarray,
                  edge_w: np.ndarray, self_w: np.ndarray, alpha: np.ndarray | None = None) -> None:
    """Write normalized U(0,1) weights of rounds ks into rows pos of edge_w, self_w (and alpha).

    Sender i's stream (PURPOSE_WEIGHTS, i, k) gives one draw per sorted
    receiver, one for itself and, when alpha is given, one retention draw.
    Senders are grouped by draw count so that each group's draws form one
    contiguous (rounds, senders, count) block: summing its last axis then
    groups the terms exactly as the 1-D sum of one sender's draws does, which
    a zero-padded block would not once count reaches 8.  A row holding an
    exact 0.0 is redrawn from its scalar stream by _positive_uniform.
    """
    extra = 1 if alpha is None else 2
    groups: dict[int, list[int]] = {}
    for i in g.nodes:
        groups.setdefault(len(g.out_neighbors[i]) + extra, []).append(i)
    for count, senders in groups.items():
        block = streams.uniform_block(PURPOSE_WEIGHTS, senders, ks[:, None], count)
        for r, m in zip(*np.nonzero((block == 0.0).any(axis=-1))):
            block[r, m] = _positive_uniform(streams.stream(PURPOSE_WEIGHTS, senders[m], int(ks[r])), count)
        block /= block.sum(axis=-1, keepdims=True)
        nodes = np.array(senders) - 1
        edges = np.array([g.out_edges[i] for i in senders], dtype=np.intp)
        edge_w[pos[:, None, None], edges] = block[..., : count - extra]
        self_w[pos[:, None], nodes] = block[..., count - extra]
        if alpha is not None:
            alpha[pos[:, None], nodes] = block[..., -1]


def sample_push_sum_weights(g: Digraph, k: int | Iterable[int], streams: SeedStreams):
    """Uniform column-stochastic weights with no retention.

    Each sender i draws one value per out-neighbor plus one for itself from
    U(0,1), in sorted-receiver-then-self order, and normalizes them to sum
    one.  Returns (edge_w, self_w, alpha), laid out as in Trace, with alpha
    all zeros: shapes (E,), (n,) and (n,) for an int k, with a leading
    rounds axis for a sequence.
    """
    single, ks, weights = _round_batch(g, k)
    _fill_uniform(g, streams, ks, np.arange(ks.size), *weights[:2])
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
    later = np.flatnonzero(ks != 0)
    _fill_uniform(g, streams, ks[later], later, edge_w, self_w, alpha)
    return (edge_w[0], self_w[0], alpha[0]) if single else (edge_w, self_w, alpha)


# ---------------------------------------------------------------------------
# the round update


def transmissions(g: Digraph, edge_w: np.ndarray, states: np.ndarray, edges=None) -> np.ndarray:
    """What crossed each edge in each round, shape (rounds, edges, 2).

    Entry [k, e] is edge_w[k, e] times sender i's exchanged state before
    round k, states[k, :2, i-1], for edge (j, i) = g.sorted_edges[e]; states
    holds one more row than edge_w.  With edges, a sequence of edge indices,
    only those columns are computed, in that order.  The products go
    straight into the returned array.  They are computed as the values give
    them, inf * 0 and overflow included, without a warning.
    """
    senders = g.edge_senders
    if edges is not None:
        edges = np.asarray(edges, dtype=np.intp)
        edge_w, senders = edge_w[:, edges], senders[edges]
    sent = np.empty(edge_w.shape + (2,))
    with np.errstate(invalid="ignore", over="ignore"):
        for l in range(2):
            np.multiply(edge_w, states[:-1, l, senders], out=sent[..., l])
    return sent


def round_blocks(start: int, stop: int) -> Iterator[slice]:
    """Consecutive slices of at most ROUND_BLOCK rounds that cover start..stop-1, each with an exact stop."""
    return (slice(first, min(first + ROUND_BLOCK, stop)) for first in range(start, stop, ROUND_BLOCK))


def _evolve(g: Digraph, edge_w: np.ndarray, self_w: np.ndarray, alpha: np.ndarray, state0: np.ndarray) -> np.ndarray:
    """States after 0..R rounds from state0, each round written in place into one array.

    x_l(k+1) = p_k @ x_l(k) + b_l(k), with p_k one reused dense matrix, and
    b_l(k+1) = alpha(k) * x_l(k) where alpha(k) is nonzero; elsewhere b stays
    the array's +0.0, so a push_sum run (alpha all zero) never takes that step.
    The edge and self weights are joined into one row per round, and the
    nonzero-alpha mask built, one block of ROUND_BLOCK rounds at a time.
    Non-finite states propagate as the arithmetic gives them (inf * 0 in
    the dense product is NaN), without a warning.
    """
    p_k = np.zeros((g.n, g.n))
    flat, slots = p_k.reshape(-1), g.weight_slots
    states = np.zeros((len(alpha) + 1,) + state0.shape)
    states[0] = state0
    x1, x2, b1, b2 = states.transpose(1, 0, 2)
    exchanged, retained = states[:, :2], states[:, 2:]
    with np.errstate(invalid="ignore", over="ignore"):
        for block in round_blocks(0, len(alpha)):
            weights = np.concatenate([edge_w[block], self_w[block]], axis=1)
            keep = alpha[block] != 0.0
            retains = keep.any(axis=1)
            for r, k in enumerate(range(block.start, block.stop)):
                flat[slots] = weights[r]
                new, old = x1[k + 1], x1[k]
                np.matmul(p_k, old, out=new)
                new += b1[k]
                new, old = x2[k + 1], x2[k]
                np.matmul(p_k, old, out=new)
                new += b2[k]
                if retains[r]:
                    np.multiply(alpha[k], exchanged[k], out=retained[k + 1], where=keep[r])
    return states


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
    states = _evolve(g, edge_w, self_w, alpha, state0)
    return Trace(protocol, g, x0.copy(), seed, spread, edge_w, self_w, alpha, states)


def replay(trace: Trace) -> Trace:
    """Recompute a trace from its initial state and recorded weights.

    Applies the round update to the stored weight sequence, ignoring the
    recorded later states and products; the result records no products.
    Its states are new, and its edge_w, self_w and alpha are the input's own
    arrays, not copies, so a replay adds only one states array to memory.
    For traces produced by run_protocol the result is bit-identical to the
    original.
    """
    states = _evolve(trace.graph, trace.edge_w, trace.self_w, trace.alpha, trace.states[0])
    return Trace(trace.protocol, trace.graph, trace.x0.copy(), trace.seed, trace.spread, trace.edge_w,
                 trace.self_w, trace.alpha, states)


def conserved_sums(trace: Trace) -> tuple[np.ndarray, np.ndarray]:
    """Per-round totals of the value and weight coordinates.

    The exchanged and retained substates are summed together (for push_sum
    the retained ones are zero).  Both totals stay constant over rounds
    (push_sum: sum(x0) and n; decomposed: twice sum(x0) and 2n).
    """
    sums = trace.states.sum(axis=2)
    return sums[:, 0] + sums[:, 2], sums[:, 1] + sums[:, 3]


def column_sums(trace: Trace, rounds: slice = slice(None)) -> np.ndarray:
    """Each sender's weights summed per round, shape (R, n), alpha excluded;
    rounds selects a slice of rounds (step 1) and returns just those rows.

    One bincount per block of ROUND_BLOCK rounds adds them in row-major slot
    order, so each sum adds its terms in receiver order, bit for bit as
    summing a dense weight matrix over its receiver axis does.
    """
    g = trace.graph
    start, stop, _ = rounds.indices(trace.n_rounds)
    order = g.slot_order
    bins = np.arange(ROUND_BLOCK)[:, None] * g.n + g.slot_senders
    sums = np.empty((max(stop - start, 0), g.n))
    for block in round_blocks(start, stop):
        size = block.stop - block.start
        weights = np.concatenate([trace.edge_w[block], trace.self_w[block]], axis=1)[:, order]
        sums[block.start - start : block.stop - start] = np.bincount(
            bins[:size].ravel(), weights=weights.ravel(), minlength=size * g.n
        ).reshape(size, g.n)
    return sums


def sample_initial_values(n: int, dist: dict, streams: SeedStreams) -> np.ndarray:
    """Draw initial node values from a distribution spec.

    Supported specs: {"dist": "uniform", "low": a, "high": b} with one
    per-node draw (purpose PURPOSE_INITIAL_VALUES), and
    {"dist": "constant", "value": v}.
    """
    kind = dist.get("dist", "uniform")
    if kind == "uniform":
        low, high = float(dist.get("low", 0.0)), float(dist.get("high", 50.0))
        return _uniform_per_node(streams, PURPOSE_INITIAL_VALUES, n, low, high)
    if kind == "constant":
        return np.full(n, float(dist.get("value", 0.0)))
    raise ValueError(f"unknown initial-value distribution {kind!r}")
