"""Trace files and estimate tables.

A trace file is JSON lines: line 0 is a header object
{protocol, n, seed, M, x0, graph, state0, ...}, every following line is one
round record {k, p, alpha, state, transmitted}.  The weight matrix is dense
row-major; transmissions are listed as {from, to, l, value} sorted by
(from, to, l).  Floats are written with Python's shortest-roundtrip repr,
so loading a file restores every value bit for bit.
"""
from __future__ import annotations

import csv
import json
import math
from collections.abc import Iterator

import numpy as np

from .graph import Digraph, digraph_from_dict, digraph_to_dict
from .protocol import Trace, estimate_series

# Names of the state rows a trace file stores, per protocol; a push_sum
# file leaves out the two retained rows, which are zero.  Each tuple is in
# sorted order, the order in which json lists them under sort_keys=True.
STATE_KEYS = {
    "push_sum": ("x1", "x2"),
    "decomposed": ("x_alpha_1", "x_alpha_2", "x_beta_1", "x_beta_2"),
}


class TraceFormatError(ValueError):
    """A trace file failed validation; the message names the bad line."""


def _state_rows(data: dict, protocol: str, n: int) -> np.ndarray:
    """The state rows a file stores for the protocol, shape (2 or 4, n)."""
    keys = STATE_KEYS["push_sum" if protocol == "push_sum" else "decomposed"]
    rows = []
    for key in keys:
        vec = np.asarray(data[key], dtype=np.float64)
        if vec.shape != (n,):
            raise ValueError(f"state vector {key} has length {vec.shape}, expected {n}")
        rows.append(vec)
    return np.array(rows)


def _json_float(value: float) -> float | str:
    """A finite float as itself, a non-finite one as json spells it."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return value


def _slots(count: int) -> str:
    return ", ".join(["%s"] * count)


def _round_template(g: Digraph, keys: tuple[str, ...]) -> tuple[str, np.ndarray]:
    """The %-format of one round line, and the order of the sent values in it.

    The template is the text the json module writes for a round record with
    sort_keys=True, every number replaced by %s.  Its fields, in order: n
    alpha values, k, the n*n row-major weights, n values per state key, and
    one value per transmission, listed by (from, to, l).
    """
    n = g.n
    state = ", ".join(f'"{key}": [{_slots(n)}]' for key in keys)
    # sorted_edges is ordered by (to, from); the file lists (from, to)
    order = sorted(range(len(g.sorted_edges)), key=lambda e: g.sorted_edges[e][::-1])
    sent = ", ".join(
        f'{{"from": {i}, "l": {l}, "to": {j}, "value": %s}}'
        for j, i in (g.sorted_edges[e] for e in order)
        for l in (1, 2)
    )
    template = (
        f'{{"alpha": [{_slots(n)}], "k": %s, "p": [{_slots(n * n)}], '
        f'"state": {{{state}}}, "transmitted": [{sent}]}}'
    )
    sent_order = (2 * np.asarray(order, dtype=np.intp)[:, None] + np.arange(2)).reshape(-1)
    return template, sent_order


def trace_lines(trace: Trace, extra_header: dict | None = None) -> Iterator[str]:
    """Yield a trace's JSON lines (no trailing newlines), one round at a time.

    Each line is byte for byte what the json module writes with sort_keys=True:
    %s on a float is its shortest repr, as in json, and the rounds that hold
    a non-finite value spell it NaN, Infinity or -Infinity.
    """
    g = trace.graph
    keys = STATE_KEYS[trace.protocol]
    header = {
        "protocol": trace.protocol,
        "n": g.n,
        "seed": trace.seed,
        "M": trace.spread,
        "x0": trace.x0.tolist(),
        "graph": digraph_to_dict(g),
        "state0": dict(zip(keys, trace.states[0].tolist())),
    }
    if extra_header:
        header.update(extra_header)
    yield json.dumps(header, sort_keys=True)
    template, sent_order = _round_template(g, keys)
    rows = len(keys)
    finite = (
        np.isfinite(trace.alpha).all(axis=1)
        & np.isfinite(trace.p).all(axis=(1, 2))
        & np.isfinite(trace.states[1:, :rows]).all(axis=(1, 2))
        & np.isfinite(trace.sent).all(axis=(1, 2))
    )
    for k in range(trace.n_rounds):
        fields = trace.alpha[k].tolist()
        fields.append(k)
        fields += trace.p[k].reshape(-1).tolist()
        fields += trace.states[k + 1, :rows].reshape(-1).tolist()
        fields += trace.sent[k].reshape(-1)[sent_order].tolist()
        if not finite[k]:
            fields = [_json_float(v) for v in fields]
        yield template % tuple(fields)


def write_trace(trace: Trace, path, extra_header: dict | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for line in trace_lines(trace, extra_header):
            fh.write(line)
            fh.write("\n")


def read_trace(path) -> Trace:
    """Load and validate a trace file.

    Raises TraceFormatError naming the first malformed line.  Rounds are
    parsed one line at a time into arrays sized by a first pass that counts
    the lines.
    """

    def parse(line_no: int, text: str) -> dict:
        try:
            obj = json.loads(text.rstrip("\n"))
        except json.JSONDecodeError as exc:
            raise TraceFormatError(f"{path}: line {line_no + 1} is not valid JSON: {exc}") from exc
        if not isinstance(obj, dict):
            raise TraceFormatError(f"{path}: line {line_no + 1} is not an object")
        return obj

    with open(path, "r", encoding="utf-8") as fh:
        n_lines = sum(1 for _ in fh)
        if not n_lines:
            raise TraceFormatError(f"{path}: empty trace file")
        fh.seek(0)
        head = parse(0, fh.readline())
        rounds = n_lines - 1
        try:
            protocol = head["protocol"]
            n = int(head["n"])
            graph = digraph_from_dict(head["graph"])
            x0 = np.asarray(head["x0"], dtype=np.float64)
            state0 = _state_rows(head["state0"], protocol, n)
            seed = int(head["seed"])
            spread = head["M"]
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"{path}: line 1 header invalid: {exc}") from exc
        if protocol not in STATE_KEYS:
            raise TraceFormatError(f"{path}: line 1 header invalid: unknown protocol {protocol!r}")
        if graph.n != n or x0.shape != (n,):
            raise TraceFormatError(f"{path}: line 1 header invalid: n, graph and x0 disagree")

        edge_position = graph.edge_position
        n_edges = len(edge_position)
        states = np.zeros((rounds + 1, 4, n))
        states[0, : len(state0)] = state0
        p = np.empty((rounds, n, n))
        alpha = np.empty((rounds, n))
        sent = np.empty((rounds, n_edges, 2))
        for line_no, text in enumerate(fh, start=1):
            obj = parse(line_no, text)
            r = line_no - 1
            try:
                k = int(obj["k"])
                p[r] = np.asarray(obj["p"], dtype=np.float64).reshape(n, n)
                alpha_r = np.asarray(obj["alpha"], dtype=np.float64)
                state = _state_rows(obj["state"], protocol, n)
                sent_list = obj["transmitted"]
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}: line {line_no + 1} record invalid: {exc}") from exc
            if alpha_r.shape != (n,):
                raise TraceFormatError(f"{path}: line {line_no + 1} record invalid: alpha length")
            alpha[r] = alpha_r
            states[line_no, : len(state)] = state
            if k != r:
                raise TraceFormatError(f"{path}: line {line_no + 1} record invalid: k={k}, expected {r}")
            values = [math.nan] * (2 * n_edges)
            try:
                for item in sent_list:
                    i, j, l, value = int(item["from"]), int(item["to"]), int(item["l"]), float(item["value"])
                    e = edge_position.get((j, i))
                    if e is None or l not in (1, 2):
                        raise ValueError(f"transmission ({i}->{j}, l={l}) does not fit the graph")
                    values[2 * e + l - 1] = value
            except (KeyError, TypeError, ValueError) as exc:
                raise TraceFormatError(f"{path}: line {line_no + 1} record invalid: {exc}") from exc
            sent[r] = np.reshape(values, (n_edges, 2))
            if np.isnan(sent[r]).any():
                raise TraceFormatError(
                    f"{path}: line {line_no + 1} record invalid: incomplete transmission list"
                )
    return Trace(protocol, graph, x0, seed, spread, p, alpha, states, sent)


def csv_writer(fh, comment: str | None):
    """A CSV writer on fh with "\\n" line ends, after an optional "# comment" line."""
    if comment:
        fh.write(f"# {comment}\n")
    return csv.writer(fh, lineterminator="\n")


def csv_cell(value: float) -> str:
    """A float as its shortest repr, or an empty cell for NaN."""
    return "" if math.isnan(value) else repr(float(value))


def write_estimates_csv(trace: Trace, path, comment: str | None = None) -> None:
    """Per-round per-node estimates: columns k, node, estimate, abs_error.

    abs_error is against the true average of x0; undefined estimates leave
    both cells empty.
    """
    est = estimate_series(trace)
    target = float(np.mean(trace.x0))
    with open(path, "w", encoding="utf-8") as fh:
        writer = csv_writer(fh, comment)
        writer.writerow(["k", "node", "estimate", "abs_error"])
        # the rows csv.writer would write: no cell needs quoting
        for k, row in enumerate(est.tolist()):
            fh.write(
                "".join(
                    "%s,%s,%s,%s\n" % (k, node, csv_cell(e), csv_cell(abs(e - target)))
                    for node, e in enumerate(row, start=1)
                )
            )
