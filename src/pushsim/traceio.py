"""Trace files and every other bundle file.

A bundle JSON file is json.dump with sort_keys=True plus one newline
(write_json).  A bundle CSV file is an optional "# comment" line, a header
and one row per entry, floats as their shortest repr and NaN as an empty
cell (write_table).

A trace file is JSON lines, each written by json.dumps with sort_keys=True.
Line 1 is a header object {protocol, n, seed, M, x0, graph, state0,
format: 3, ...}; every following line is one round record

    {alpha, edge_w, k, self_w, state}

Each array, in the header and in the rounds, is a base64 string of the
little-endian float64 ("<f8") bytes of the Trace values: the header's
``x0`` and ``state0`` (the round-0 STATE_KEYS rows of n values each), and
round k's rows of ``alpha``, ``edge_w`` (one weight per edge, in
graph.sorted_edges order), ``self_w`` and ``state`` (the post-round
STATE_KEYS rows).  The bytes are the values themselves, so every float
reads back bit for bit, NaN payloads and +-inf included.  A file stores
no transmitted products (``sent``): each is one product of an edge weight
and a pre-round state, so a v3 read, like run_protocol, leaves
Trace.recorded_sent None, and Trace.products derives the bits run_protocol
would give for just the edges and rounds a caller asks for.

Format v2 files still read, and their products are kept as recorded, in
Trace.recorded_sent: a header whose ``x0`` and ``state0`` are JSON text (a
list of numbers, and an object with one such list per STATE_KEYS name) and
round records {alpha, edge_w, k, self_w, sent, state}, where ``sent`` is the
E x 2 values, row-major.  The header's ``M`` is null or a number in every
format.

Files without a "format" key are format v1 and still read: there every
round is {k, p, alpha, state, transmitted}, with the dense row-major
weight matrix and the transmissions as {from, to, l, value} objects, all
numbers as JSON text: ``p``, ``alpha``, the state rows and each ``value``
must be JSON numbers, and ``k``, ``from``, ``to`` and ``l`` JSON integers;
a string or a bool is rejected, not coerced.  The reader keeps the edge
and diagonal entries of each matrix and records where the first nonzero
entry elsewhere sits (Trace.stray_weight), so the zero_pattern invariant
can only fail on a v1 file.
"""
from __future__ import annotations

import base64
import binascii
import json
import math
from collections.abc import Iterator
from contextlib import contextmanager, nullcontext
from itertools import chain, cycle, repeat

import numpy as np

from .graph import digraph_from_dict, digraph_to_dict, integer, number, numbers
from .protocol import ROUND_BLOCK, RoundBlock, Trace, estimate_series

FORMAT = 3

# Names of the state rows a trace file stores, per protocol, in the order of
# the rows of Trace.states; a push_sum file leaves out the two retained
# rows, which are zero.
STATE_KEYS = {
    "push_sum": ("x1", "x2"),
    "decomposed": ("x_alpha_1", "x_alpha_2", "x_beta_1", "x_beta_2"),
}

# Rows of a bundle CSV file that are formatted at once.
TABLE_CHUNK = 256

# Keys of a round record; a v2 record also holds "sent".
ROUND_KEYS = ("alpha", "edge_w", "k", "self_w", "state")


class TraceFormatError(ValueError):
    """A trace file failed validation; the message names the bad line."""


def _state_rows(data: dict, protocol: str, n: int, field: str) -> np.ndarray:
    """The state rows a file stores for the protocol under field, shape (2 or 4, n)."""
    keys = STATE_KEYS["push_sum" if protocol == "push_sum" else "decomposed"]
    rows = []
    for key in keys:
        vec = numbers(data[key], f"{field}.{key}")
        if vec.shape != (n,):
            raise ValueError(f"state vector {key} has length {vec.shape}, expected {n}")
        rows.append(vec)
    return np.array(rows)


def _b64(values: np.ndarray) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _b64_bytes(text, key: str, size: int) -> bytes:
    """The "<f8" bytes of field key's size values, from its base64 string."""
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, TypeError, ValueError) as exc:
        raise ValueError(f"{key} is not base64: {exc}") from exc
    if len(raw) != 8 * size:
        raise ValueError(f"{key} holds {len(raw)} bytes, expected {8 * size}")
    return raw


def trace_lines(trace: Trace, extra_header: dict | None = None) -> Iterator[str]:
    """Yield a trace's format-v3 JSON lines (no trailing newlines), one
    round at a time."""
    g = trace.graph
    n_rows = len(STATE_KEYS[trace.protocol])
    header = {
        "format": FORMAT,
        "protocol": trace.protocol,
        "n": g.n,
        "seed": trace.seed,
        "M": trace.spread,
        "x0": _b64(trace.x0),
        "graph": digraph_to_dict(g),
        "state0": _b64(trace.states[0, :n_rows]),
    }
    if extra_header:
        header.update(extra_header)
    yield json.dumps(header, sort_keys=True)
    for k in range(trace.n_rounds):
        # the line json.dumps(..., sort_keys=True) writes: base64 needs no escapes
        yield (
            f'{{"alpha": "{_b64(trace.alpha[k])}", "edge_w": "{_b64(trace.edge_w[k])}", "k": {k}, '
            f'"self_w": "{_b64(trace.self_w[k])}", "state": "{_b64(trace.states[k + 1, :n_rows])}"}}'
        )


def write_trace(trace: Trace, path, extra_header: dict | None = None) -> None:
    """Write a trace file in format v3."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in trace_lines(trace, extra_header):
            fh.write(line)
            fh.write("\n")


def _parse_line(path, line_no: int, text: str) -> dict:
    """One line as a JSON object; line_no counts from 1."""
    try:
        obj = json.loads(text.rstrip("\n"))
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path}: line {line_no} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise TraceFormatError(f"{path}: line {line_no} is not an object")
    return obj


def read_trace(path) -> Trace:
    """Load and validate a trace file of format v3, v2 or v1.

    Raises TraceFormatError naming the first malformed line.  This is
    read_blocks gathered into one Trace, with arrays sized by open_blocks'
    count of the lines, so that each is allocated once at its final size and
    every block is copied straight into it: arrays grown as the blocks come
    would copy what they hold at each growth, with old and new held at once,
    above the trace's own size.  The header's graph is build_digraph's
    shared instance of it.  A v3 file holds no products and the trace
    records none; v2 and v1 files keep the products they record in
    Trace.recorded_sent.
    """
    with open_blocks(path, count=True) as (head, rounds, blocks):
        n, n_edges = head.graph.n, len(head.graph.sorted_edges)
        recorded = None if head.recorded_sent is None else np.empty((rounds, n_edges, 2))
        trace = Trace(head.protocol, head.graph, head.x0, head.seed, head.spread, np.empty((rounds, n_edges)),
                      np.empty((rounds, n)), np.empty((rounds, n)), np.empty((rounds + 1, 4, n)), recorded)
        trace.states[0] = head.states[0]
        for block in blocks:
            at = block.rounds
            trace.edge_w[at], trace.self_w[at], trace.alpha[at] = block.edge_w, block.self_w, block.alpha
            trace.states[at.start + 1 : at.stop + 1] = block.states[1:]
            if recorded is not None:
                recorded[at] = block.recorded_sent
            trace.stray_weight = trace.stray_weight or block.stray_weight
    return trace


def read_blocks(source) -> Iterator[RoundBlock]:
    """The rounds of a Trace, or of a trace file of format v3, v2 or v1, as RoundBlocks, in one pass.

    A Trace yields Trace.blocks.  A file's lines are parsed and checked as
    they are read, with read_trace's checks in read_trace's order, so a
    malformed line raises the same TraceFormatError when the reader reaches
    it, after the blocks before it were yielded.  No line count is made, and
    at most one block of raw bytes is held.  The arrays of a file's block are
    views into buffers that the next block reuses: copy what must outlive it.
    """
    if isinstance(source, Trace):
        yield from source.blocks()
        return
    with open_blocks(source) as (_, _, blocks):
        yield from blocks


def open_blocks(source, count: bool = False):
    """Open a Trace or a trace file as a context giving (header, rounds, blocks); a file closes on exit.

    A Trace is its own header, its round count and its one block.  A file's
    first line is read and checked on entry, before any round line, and
    comes as a trace without rounds; its blocks are the RoundBlocks of
    read_blocks, read from the second line on as they are asked for.  rounds
    is the number of lines after the header when count is set, which costs
    one more pass over the file, and None when not.
    """
    if isinstance(source, Trace):
        return nullcontext((source, source.n_rounds, [source]))
    return _open_file(source, count)


@contextmanager
def _open_file(path, count: bool) -> Iterator[tuple[Trace, int | None, Iterator[RoundBlock]]]:
    with open(path, "r", encoding="utf-8") as fh:
        rounds = None
        if count:
            rounds = sum(1 for _ in fh) - 1
            fh.seek(0)
        head, fmt = _header(path, fh)
        yield head, rounds, _blocks(path, fh, head, fmt)


def _header(path, fh) -> tuple[Trace, int]:
    """A file's first line as a trace without rounds, and the file's format."""
    text = fh.readline()
    if not text:
        raise TraceFormatError(f"{path}: empty trace file")
    head = _parse_line(path, 1, text)
    fmt = head.get("format", 1)
    if "format" in head and (type(fmt) is not int or fmt not in (2, FORMAT)):
        raise TraceFormatError(f"{path}: line 1 header invalid: unknown format {fmt!r}")
    try:
        protocol = head["protocol"]
        if not isinstance(protocol, str):
            raise ValueError(f"protocol: must be a string, got {protocol!r}")
        if protocol not in STATE_KEYS:
            raise ValueError(f"unknown protocol {protocol!r}")
        n = integer(head["n"], "n", 0)
        graph = digraph_from_dict(head["graph"])
        n_rows = len(STATE_KEYS[protocol])
        if fmt == FORMAT:
            x0 = np.frombuffer(_b64_bytes(head["x0"], "x0", n), "<f8").copy()
            state0 = np.frombuffer(_b64_bytes(head["state0"], "state0", n_rows * n), "<f8").reshape(n_rows, n)
        else:
            x0 = numbers(head["x0"], "x0")
            state0 = _state_rows(head["state0"], protocol, n, "state0")
        seed = integer(head["seed"], "seed", 0)
        spread = head["M"]  # null or a number, kept as the file writes it, so that a rewrite keeps its text
        if spread is not None:
            number(spread, "M")
    except (KeyError, TypeError, ValueError) as exc:
        raise TraceFormatError(f"{path}: line 1 header invalid: {exc}") from exc
    if graph.n != n or x0.shape != (n,):
        raise TraceFormatError(f"{path}: line 1 header invalid: n, graph and x0 disagree")
    n_edges = len(graph.sorted_edges)
    states = np.zeros((1, 4, n))
    states[0, :n_rows] = state0
    return Trace(protocol, graph, x0, seed, spread, np.empty((0, n_edges)), np.empty((0, n)), np.empty((0, n)),
                 states, None if fmt == FORMAT else np.empty((0, n_edges, 2))), fmt


def _blocks(path, fh, head: Trace, fmt: int) -> Iterator[RoundBlock]:
    """read_blocks on an open file whose header, head in format fmt, was read.

    The round lines fill one set of block buffers, row at of each for a
    line's round, with the states one row down: their first row carries the
    last state of the block before (state 0 for the first block).  Every
    ROUND_BLOCK lines, and after the last, the filled rows go out as a
    RoundBlock.
    """
    if fmt == 1:
        buffers, store = _v1_rounds(path, head)
    else:
        buffers, store = _b64_rounds(path, head, ROUND_KEYS if fmt == FORMAT else sorted(ROUND_KEYS + ("sent",)))
    states, sent = buffers["states"], buffers.get("sent")
    states[0] = head.states[0]
    start = at = 0
    stray = None

    def block() -> RoundBlock:
        return RoundBlock(head.protocol, head.graph, head.x0, head.seed, head.spread, buffers["edge_w"][:at],
                          buffers["self_w"][:at], buffers["alpha"][:at], states[: at + 1],
                          None if sent is None else sent[:at], stray, start=start)

    for line_no, text in enumerate(fh, start=2):
        found = store(line_no, text, at)
        stray = stray or found
        at += 1
        if at == ROUND_BLOCK:
            yield block()
            states[0] = states[at]
            start, at, stray = start + at, 0, None
    if at or not start:
        yield block()


def _b64_rounds(path, head: Trace, keys):
    """Block buffers for a v3 or v2 file, and the function that stores one base64 round line in them.

    keys are the keys each record must hold; a v2 file's hold "sent", which
    fills recorded_sent.  Each line is parsed and checked on its own: its
    JSON, its keys, its k, then each field's base64 and byte count.  Each
    field decodes to bytes, which go into one reused bytearray per field
    that the buffers view, so no field is copied again before a block goes
    out; a push_sum state fills the first two rows of its row of states.
    """
    n, n_edges = head.graph.n, len(head.graph.sorted_edges)
    shapes = {"alpha": (n,), "edge_w": (n_edges,), "self_w": (n,), "sent": (n_edges, 2), "state": (4, n)}
    buffers, fields = {}, []  # fields: (key, values per round, view of its bytes, bytes per row, first row)
    for key in keys:
        if key == "k":
            continue
        shape, first = shapes[key], int(key == "state")
        raw = bytearray(8 * (ROUND_BLOCK + first) * math.prod(shape))
        buffers["states" if first else key] = np.frombuffer(raw, "<f8").reshape((ROUND_BLOCK + first,) + shape)
        size = len(STATE_KEYS[head.protocol]) * n if first else math.prod(shape)
        fields.append((key, size, memoryview(raw), 8 * math.prod(shape), first))

    def store(line_no: int, text: str, at: int) -> None:
        obj = _parse_line(path, line_no, text)
        r = line_no - 2
        missing = [key for key in keys if key not in obj]
        if missing:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: missing {', '.join(missing)}")
        k = obj["k"]
        if type(k) is not int or k != r:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: k={k!r}, expected {r}")
        try:
            for key, size, raw, row, first in fields:
                offset = row * (at + first)
                raw[offset : offset + 8 * size] = _b64_bytes(obj[key], key, size)
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: {exc}") from exc

    return buffers, store


def _v1_rounds(path, head: Trace):
    """Block buffers for a v1 file, and the function that stores one JSON-text round line in them.

    Each dense weight matrix gives its edge and diagonal entries; the store
    returns where the first nonzero entry anywhere else, NaN included, sits
    as (round, receiver, sender), or None.
    """
    g, n = head.graph, head.graph.n
    n_edges = len(g.sorted_edges)
    buffers = {"edge_w": np.empty((ROUND_BLOCK, n_edges)), "self_w": np.empty((ROUND_BLOCK, n)),
               "alpha": np.empty((ROUND_BLOCK, n)), "states": np.zeros((ROUND_BLOCK + 1, 4, n)),
               "sent": np.empty((ROUND_BLOCK, n_edges, 2))}

    def store(line_no: int, text: str, at: int) -> tuple[int, int, int] | None:
        obj = _parse_line(path, line_no, text)
        r = line_no - 2
        try:
            k = integer(obj["k"], "k")
            p = numbers(obj["p"], "p")
            if p.size != n * n:
                raise ValueError(f"p: holds {p.size} entries, expected {n * n}")
            alpha_r = numbers(obj["alpha"], "alpha")
            state = _state_rows(obj["state"], head.protocol, n, "state")
            sent_list = obj["transmitted"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: {exc}") from exc
        if alpha_r.shape != (n,):
            raise TraceFormatError(f"{path}: line {line_no} record invalid: alpha length")
        buffers["edge_w"][at], buffers["self_w"][at] = np.split(p[g.weight_slots], [n_edges])
        p[g.weight_slots] = 0.0
        off = np.flatnonzero(p)
        buffers["alpha"][at] = alpha_r
        buffers["states"][at + 1, : len(state)] = state
        if k != r:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: k={k}, expected {r}")
        # None marks a slot no transmission filled; NaN is a value a file can hold
        values = [None] * (2 * n_edges)
        try:
            for t, item in enumerate(sent_list):
                field = f"transmitted[{t}]"
                i, j, l = (integer(item[key], f"{field}.{key}") for key in ("from", "to", "l"))
                value = number(item["value"], f"{field}.value")
                e = g.edge_position.get((j, i))
                if e is None or l not in (1, 2):
                    raise ValueError(f"transmission ({i}->{j}, l={l}) does not fit the graph")
                values[2 * e + l - 1] = value
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: {exc}") from exc
        if None in values:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: incomplete transmission list")
        buffers["sent"][at] = np.reshape(values, (n_edges, 2))
        return (r, int(off[0]) // n + 1, int(off[0]) % n + 1) if off.size else None

    return buffers, store


def write_json(path, payload: dict, indent: int | None = None) -> None:
    """Write a bundle JSON file: json.dumps with sorted keys, then one newline.

    json.dumps, not json.dump: without an indent it runs the C encoder,
    where json.dump's Python encoder leaves reference cycles that hold
    memory until the garbage collector runs.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=indent))
        fh.write("\n")


def write_table(path, header, columns, comment: str | None = None) -> None:
    """Write a bundle CSV file: an optional "# comment" line, the header, then
    row t holding entry t of every column, with "\\n" line ends.

    A column is a NumPy array or a sequence of Python numbers, and a cell is
    the repr of its value: the shortest repr of a float, and an integer
    whole, so a seed above 2**64 must stay a Python int and not pass through
    a float array.  A NaN is an empty cell.  No cell needs quoting.  Rows are
    formatted TABLE_CHUNK at a time, so the cell strings of a whole table
    are never in memory at once.
    """
    with _table(path, header, comment) as fh:
        for start in range(0, len(columns[0]), TABLE_CHUNK):
            cells = [_cells(col[start : start + TABLE_CHUNK]) for col in columns]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


@contextmanager
def _table(path, header, comment: str | None):
    """A bundle CSV file opened for writing, its comment and header lines written."""
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        yield fh


def _cells(chunk) -> list[str]:
    """The cell texts of one chunk of a column, "" for a NaN.

    An array chunk computes one repr per distinct bit pattern and reuses it
    for every cell that repeats it, which gives the texts of one repr per
    cell: it is told apart by bit pattern, not by value, so -0.0 and 0.0
    keep their own texts and NaNs of any sign or payload all print "".
    """
    if not isinstance(chunk, np.ndarray):
        return ["" if v != v else repr(v) for v in chunk]  # v != v: NaN
    keys, index = np.unique(chunk.view(f"u{chunk.itemsize}"), return_inverse=True)
    texts = ["" if v != v else repr(v) for v in keys.view(chunk.dtype).tolist()]
    return list(map(texts.__getitem__, index.tolist()))


def write_estimates_csv(trace: Trace, path, comment: str | None = None) -> None:
    """Per-round per-node estimates: columns k, node, estimate, abs_error.

    abs_error is against the true average of x0; undefined estimates leave
    both cells empty.  Rows go out a chunk of whole rounds at a time, the
    fewest rounds that fill TABLE_CHUNK rows, so no column of the whole
    table is ever held.  The k and node cells repeat texts made once, k's
    once per round and the nodes' once per file, and a chunk's estimates and
    errors take theirs from one _cells call over both.
    """
    n, truth = trace.graph.n, np.mean(trace.x0)
    span = -(-TABLE_CHUNK // n)
    nodes = [str(j) for j in range(1, n + 1)]
    with _table(path, ("k", "node", "estimate", "abs_error"), comment) as fh:
        for first in range(0, trace.n_rounds + 1, span):
            est = estimate_series(trace, slice(first, first + span)).ravel()
            rows = len(est)
            cells = _cells(np.concatenate([est, np.abs(est - truth)]))
            ks = chain.from_iterable(repeat(str(k), n) for k in range(first, first + rows // n))
            fh.write("\n".join(map(",".join, zip(ks, cycle(nodes), cells[:rows], cells[rows:]))) + "\n")
