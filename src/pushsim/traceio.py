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

import numpy as np

from .graph import digraph_from_dict, digraph_to_dict
from .protocol import ROUND_BLOCK, Trace, estimate_series

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


def _number(value, field: str) -> float:
    """A JSON number as a float; a bool, a string or any other value is
    rejected, not coerced."""
    if type(value) not in (int, float):
        raise ValueError(f"{field}: must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{field}: {exc}") from exc


def _integer(value, field: str) -> int:
    """A JSON integer; a bool, a float or a string is rejected, not coerced."""
    if type(value) is not int:
        raise ValueError(f"{field}: must be an integer, got {value!r}")
    return value


def _numbers(values, field: str) -> np.ndarray:
    """A JSON list of numbers as float64; a bool, a string or any other
    entry is rejected, not coerced."""
    if not isinstance(values, list):
        raise ValueError(f"{field}: must be a list of numbers, got {values!r}")
    for i, value in enumerate(values):
        if type(value) not in (int, float):
            raise ValueError(f"{field}[{i}]: must be a number, got {value!r}")
    try:
        return np.array(values, dtype=np.float64)
    except OverflowError as exc:  # an integer beyond the float range
        raise ValueError(f"{field}: {exc}") from exc


def _state_rows(data: dict, protocol: str, n: int, field: str) -> np.ndarray:
    """The state rows a file stores for the protocol under field, shape (2 or 4, n)."""
    keys = STATE_KEYS["push_sum" if protocol == "push_sum" else "decomposed"]
    rows = []
    for key in keys:
        vec = _numbers(data[key], f"{field}.{key}")
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


def _header_int(head: dict, key: str) -> int:
    """A header field that must be a JSON integer >= 0 (not a bool, a float
    or a string), so that a read and rewrite keeps the file's value."""
    value = head[key]
    if type(value) is not int or value < 0:
        raise ValueError(f"{key}: must be a non-negative integer, got {value!r}")
    return value


def read_trace(path) -> Trace:
    """Load and validate a trace file of format v3, v2 or v1.

    Raises TraceFormatError naming the first malformed line.  Rounds are
    parsed and checked one line at a time into arrays sized by a first pass
    that counts the lines; a v3 or v2 file's base64 fields reach their
    arrays a block of ROUND_BLOCK lines at a time (_read_rounds_b64).  The
    header's graph is build_digraph's shared instance of it.  A v3 file
    holds no products and the trace records none; v2 and v1 files keep the
    products they record in Trace.recorded_sent.
    """
    with open(path, "r", encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
        if not n_lines:
            raise TraceFormatError(f"{path}: empty trace file")
        fh.seek(0)
        head = _parse_line(path, 1, fh.readline())
        fmt = head.get("format", 1)
        if "format" in head and (type(fmt) is not int or fmt not in (2, FORMAT)):
            raise TraceFormatError(f"{path}: line 1 header invalid: unknown format {fmt!r}")
        try:
            protocol = head["protocol"]
            if not isinstance(protocol, str):
                raise ValueError(f"protocol: must be a string, got {protocol!r}")
            if protocol not in STATE_KEYS:
                raise ValueError(f"unknown protocol {protocol!r}")
            n = _header_int(head, "n")
            graph = digraph_from_dict(head["graph"])
            n_rows = len(STATE_KEYS[protocol])
            if fmt == FORMAT:
                x0 = np.frombuffer(_b64_bytes(head["x0"], "x0", n), "<f8").copy()
                state0 = np.frombuffer(_b64_bytes(head["state0"], "state0", n_rows * n), "<f8").reshape(n_rows, n)
            else:
                x0 = _numbers(head["x0"], "x0")
                state0 = _state_rows(head["state0"], protocol, n, "state0")
            seed = _header_int(head, "seed")
            spread = head["M"]
            if spread is not None and type(spread) not in (int, float):
                raise ValueError(f"M: must be null or a number, got {spread!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: line 1 header invalid: {exc}") from exc
        if graph.n != n or x0.shape != (n,):
            raise TraceFormatError(f"{path}: line 1 header invalid: n, graph and x0 disagree")

        rounds, n_edges = n_lines - 1, len(graph.sorted_edges)
        recorded = None if fmt == FORMAT else np.empty((rounds, n_edges, 2))
        trace = Trace(protocol, graph, x0, seed, spread, np.empty((rounds, n_edges)), np.empty((rounds, n)),
                      np.empty((rounds, n)), np.zeros((rounds + 1, 4, n)), recorded)
        trace.states[0, :n_rows] = state0
        if fmt == 1:
            _read_rounds_v1(path, fh, trace)
        else:
            _read_rounds_b64(path, fh, trace, ROUND_KEYS if fmt == FORMAT else sorted(ROUND_KEYS + ("sent",)))
    return trace


def _read_rounds_b64(path, fh, trace: Trace, keys) -> None:
    """Fill a trace's arrays from the base64 round lines of a v3 or v2 file.

    keys are the keys each record must hold; a v2 file's hold "sent", which
    fills trace.recorded_sent.  Each line is parsed and checked on its own,
    in file order: its JSON, its keys, its k, then each field's base64 and
    byte count.  A field's bytes are copied into one reused bytearray of a
    block's size, and every ROUND_BLOCK lines, and after the last, each
    block goes into its array with one frombuffer, so a read holds at most
    one block of raw bytes besides the trace and calls numpy once per
    field and block rather than once per field and line.
    """
    n_rows = len(STATE_KEYS[trace.protocol])
    rows = {"alpha": trace.alpha, "edge_w": trace.edge_w, "self_w": trace.self_w,
            "state": trace.states[1:, :n_rows], "sent": trace.recorded_sent}
    block = min(ROUND_BLOCK, trace.n_rounds)
    # (key, its array, values per round, a view of a block's bytes, which no
    # write can resize)
    fields = []
    for key in keys:
        if key != "k":
            size = math.prod(rows[key].shape[1:])
            fields.append((key, rows[key], size, memoryview(bytearray(8 * size * block))))
    first = 0

    def flush(stop: int) -> None:
        for _, array, size, raw in fields:
            array[first:stop] = np.frombuffer(raw, "<f8", (stop - first) * size).reshape((stop - first,) + array.shape[1:])

    for line_no, text in enumerate(fh, start=2):
        obj = _parse_line(path, line_no, text)
        r = line_no - 2
        missing = [key for key in keys if key not in obj]
        if missing:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: missing {', '.join(missing)}")
        k = obj["k"]
        if type(k) is not int or k != r:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: k={k!r}, expected {r}")
        at = r - first
        try:
            for key, _, size, raw in fields:
                raw[8 * size * at : 8 * size * (at + 1)] = _b64_bytes(obj[key], key, size)
        except ValueError as exc:
            raise TraceFormatError(f"{path}: line {line_no} record invalid: {exc}") from exc
        if at + 1 == block:
            flush(r + 1)
            first = r + 1
    if first < trace.n_rounds:
        flush(trace.n_rounds)


def _read_rounds_v1(path, fh, trace: Trace) -> None:
    """Fill a trace's arrays from the JSON-text round lines of a v1 file.

    Each dense weight matrix gives its edge and diagonal entries; the first
    nonzero entry anywhere else, NaN included, becomes trace.stray_weight.
    """
    n = trace.graph.n
    edge_position = trace.graph.edge_position
    n_edges = len(edge_position)
    for line_no, text in enumerate(fh, start=1):
        obj = _parse_line(path, line_no + 1, text)
        r = line_no - 1
        try:
            k = _integer(obj["k"], "k")
            p = _numbers(obj["p"], "p")
            if p.size != n * n:
                raise ValueError(f"p: holds {p.size} entries, expected {n * n}")
            alpha_r = _numbers(obj["alpha"], "alpha")
            state = _state_rows(obj["state"], trace.protocol, n, "state")
            sent_list = obj["transmitted"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: line {line_no + 1} record invalid: {exc}") from exc
        if alpha_r.shape != (n,):
            raise TraceFormatError(f"{path}: line {line_no + 1} record invalid: alpha length")
        trace.edge_w[r], trace.self_w[r] = np.split(p[trace.graph.weight_slots], [n_edges])
        p[trace.graph.weight_slots] = 0.0
        stray = np.flatnonzero(p)
        if stray.size and trace.stray_weight is None:
            trace.stray_weight = (r, int(stray[0]) // n + 1, int(stray[0]) % n + 1)
        trace.alpha[r] = alpha_r
        trace.states[line_no, : len(state)] = state
        if k != r:
            raise TraceFormatError(f"{path}: line {line_no + 1} record invalid: k={k}, expected {r}")
        # None marks a slot no transmission filled; NaN is a value a file can hold
        values = [None] * (2 * n_edges)
        try:
            for t, item in enumerate(sent_list):
                field = f"transmitted[{t}]"
                i, j, l = (_integer(item[key], f"{field}.{key}") for key in ("from", "to", "l"))
                value = _number(item["value"], f"{field}.value")
                e = edge_position.get((j, i))
                if e is None or l not in (1, 2):
                    raise ValueError(f"transmission ({i}->{j}, l={l}) does not fit the graph")
                values[2 * e + l - 1] = value
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: line {line_no + 1} record invalid: {exc}") from exc
        if None in values:
            raise TraceFormatError(
                f"{path}: line {line_no + 1} record invalid: incomplete transmission list"
            )
        trace.recorded_sent[r] = np.reshape(values, (n_edges, 2))


def write_json(path, payload: dict, indent: int | None = None) -> None:
    """Write a bundle JSON file: json.dump with sorted keys, then one newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=indent)
        fh.write("\n")


def write_table(path, header, columns, comment: str | None = None) -> None:
    """Write a bundle CSV file: an optional "# comment" line, the header, then
    row t holding entry t of every column, with "\\n" line ends.

    A column is a NumPy array or a sequence of Python numbers, and a cell is
    the repr of its value: the shortest repr of a float, and an integer
    whole, so a seed above 2**64 must stay a Python int and not pass through
    a float array.  A NaN is an empty cell.  No cell needs quoting.  Rows are
    formatted 256 at a time, so the cell strings of a whole table are never
    in memory at once.
    """
    chunks = ([col[start : start + TABLE_CHUNK] for col in columns] for start in range(0, len(columns[0]), TABLE_CHUNK))
    _write_chunks(path, header, chunks, comment)


def _write_chunks(path, header, chunks, comment: str | None) -> None:
    """write_table's file, from an iterable of chunks, each a list of equal-length column pieces.

    Within a chunk an array column computes one repr per distinct bit
    pattern and reuses it for every cell that repeats it, which writes the
    same bytes as one repr per cell.
    """
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            fh.write(f"# {comment}\n")
        fh.write(",".join(header) + "\n")
        for chunk in chunks:
            cells = [_cells(col) for col in chunk]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def _cells(chunk) -> list[str]:
    """The cell texts of one chunk of a column, "" for a NaN.

    An array chunk is told apart by bit pattern, not by value, so -0.0 and
    0.0 keep their own texts and NaNs of any sign or payload all print "".
    """
    if not isinstance(chunk, np.ndarray):
        return ["" if v != v else repr(v) for v in chunk]  # v != v: NaN
    keys, index = np.unique(chunk.view(f"u{chunk.itemsize}"), return_inverse=True)
    texts = ["" if v != v else repr(v) for v in keys.view(chunk.dtype).tolist()]
    return list(map(texts.__getitem__, index.tolist()))


def write_estimates_csv(trace: Trace, path, comment: str | None = None) -> None:
    """Per-round per-node estimates: columns k, node, estimate, abs_error.

    abs_error is against the true average of x0; undefined estimates leave
    both cells empty.  The four columns are built and formatted for a block
    of whole rounds at a time, at least ROUND_BLOCK rounds and at least
    TABLE_CHUNK rows, so no column of the whole table is ever held and a
    small graph's rows are not formatted in many small chunks.
    """
    n, truth = trace.graph.n, np.mean(trace.x0)
    span = max(ROUND_BLOCK, -(-TABLE_CHUNK // n))
    nodes = np.tile(np.arange(1, n + 1), span)

    def chunks():
        for first in range(0, trace.n_rounds + 1, span):
            est = estimate_series(trace, slice(first, first + span)).ravel()
            yield np.arange(first, first + est.size // n).repeat(n), nodes[: est.size], est, np.abs(est - truth)

    _write_chunks(path, ("k", "node", "estimate", "abs_error"), chunks(), comment)
