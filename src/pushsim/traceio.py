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

from .graph import digraph_from_dict, digraph_to_dict
from .protocol import Trace, estimate_series

# Names of the state rows a trace file stores, per protocol; a push_sum
# file leaves out the two retained rows, which are zero.
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


def trace_lines(trace: Trace, extra_header: dict | None = None) -> Iterator[str]:
    """Yield a trace's JSON lines (no trailing newlines), one round at a time."""
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
    # sorted_edges is ordered by (to, from); the file lists (from, to)
    order = sorted(range(len(g.sorted_edges)), key=lambda e: g.sorted_edges[e][::-1])
    edges = [(e, *g.sorted_edges[e]) for e in order]
    for k in range(trace.n_rounds):
        values = trace.sent[k].tolist()
        yield json.dumps(
            {
                "k": k,
                "p": trace.p[k].reshape(-1).tolist(),
                "alpha": trace.alpha[k].tolist(),
                "state": dict(zip(keys, trace.states[k + 1].tolist())),
                "transmitted": [
                    {"from": i, "to": j, "l": l, "value": values[e][l - 1]}
                    for e, j, i in edges
                    for l in (1, 2)
                ],
            },
            sort_keys=True,
        )


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
        for k in range(est.shape[0]):
            for node in range(1, trace.graph.n + 1):
                e = est[k, node - 1]
                writer.writerow([k, node, csv_cell(e), csv_cell(abs(e - target))])
