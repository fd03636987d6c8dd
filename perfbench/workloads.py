"""The benchmark's three workloads.

Each workload has a set-up, a cycle of input keys, an op (the timed unit of
user work) and a check of the op's output that runs outside the timed
section and returns a digest of that output.  Ops go through pushsim's
public CLI (``pushsim.cli.main`` in-process, output captured) or the names
exported from ``pushsim``, plus ``protocol.sample_initial_values``; they
never read ``RoundRecord`` fields and never pass ``--workers``.

All paths handed to the program are relative to the set-up directory, which
is the working directory during ops, so the config hashes that pushsim
embeds in every output file do not depend on where the checkout lives.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import pushsim
from pushsim import cli, protocol

DEFAULT_SEED = 0
# The workload seed shifts every protocol seed list by this much per unit.
SEED_STRIDE = 1000
GRAPH_SEED = 7
EDGE_PROB = "0.3"


class CheckFailed(Exception):
    """An op's output is wrong."""


@dataclass(frozen=True)
class Sizes:
    """Problem sizes; the pinned digests hold only for FULL."""

    rounds: int = 200
    # Shorter audit traces keep an op near half a second, so a run holds ~60
    # of them; at 200 rounds an op takes ~1.6 s, a run holds ~14, and the mean
    # op time spread 0.16-0.18 (IQR over median) between runs on a shared host.
    audit_rounds: int = 60
    sweep_seeds: int = 100
    bundle_seeds: int = 6
    audit_seeds: int = 2
    graph_n: int = 24
    sweep_traced_ops: int = 40
    bundle_traced_ops: int = 3
    audit_traced_ops: int = 2


FULL = Sizes()
TOY = Sizes(
    rounds=120, sweep_seeds=4, bundle_seeds=2, audit_seeds=1, graph_n=6,
    sweep_traced_ops=4, bundle_traced_ops=2, audit_traced_ops=1,
)

# Digests of the whole key cycle at workload seed 0 and FULL sizes.
PINNED_DIGESTS = {
    "sweep_demo": "bde808a8a6006bd71a2dba82527f5f7a1142c819226189eb38df0e16fe28b251",
    "bundle_rand24": "80f7e562de66480b174793e712c86b8e9ee5e6a8571559edf5eeac8c4bcec11c",
    "audit_rand24": "c21b9c9422217970615d64911d3c7272adada6ec5d819b442b60282bcb8a41d9",
}
# `pushsim attack --target 24` final errors at workload seed 0 and FULL sizes.
PINNED_ATTACK_FINAL_ERROR = {1: 0.48064823472911655, 2: 0.06474130065688755}


def run_cli(argv: list[str]) -> tuple[int, str]:
    """pushsim.cli.main in-process; returns the exit code and captured stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


def _cli_ok(argv: list[str]) -> None:
    code, _ = run_cli(argv)
    if code != 0:
        raise CheckFailed(f"pushsim {' '.join(argv)} exited {code}")


class Workload:
    name: str
    traced_ops: int

    def __init__(self, seed: int, sizes: Sizes):
        self.seed = seed
        self.sizes = sizes
        self.rounds_per_op = sizes.rounds
        self.pinned = PINNED_DIGESTS[self.name] if (seed, sizes) == (DEFAULT_SEED, FULL) else None

    def seeds(self, count: int) -> list[int]:
        base = self.seed * SEED_STRIDE
        return [base + s for s in range(1, count + 1)]

    def setup(self) -> None:
        """Prepare inputs in the current directory."""
        raise NotImplementedError

    def keys(self) -> list:
        raise NotImplementedError

    def op(self, key):
        raise NotImplementedError

    def check(self, key, result) -> str:
        """Raise CheckFailed if the output is wrong; return its digest."""
        raise NotImplementedError

    def output_bytes(self, result) -> int:
        return 0

    def cleanup(self, result) -> None:
        """Delete what the op wrote."""

    @property
    def graph_file(self) -> str:
        return f"g{self.sizes.graph_n}.json"

    def _gen_graph(self) -> None:
        _cli_ok(["gen-graph", "--n", str(self.sizes.graph_n), "--extra-edge-prob", EDGE_PROB,
                 "--seed", str(GRAPH_SEED), "--out", self.graph_file])


class SweepDemo(Workload):
    """In-memory seed sweep on the 5-node demo graph, both protocols."""

    name = "sweep_demo"
    target = 5
    protocols = ("push_sum", "decomposed")

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.traced_ops = sizes.sweep_traced_ops

    def setup(self) -> None:
        self.cfg = pushsim.parse_config({"rounds": self.sizes.rounds, "graph": {"demo": True}})
        self.graph = pushsim.demo_digraph()

    def keys(self) -> list:
        return [(tag, s) for s in self.seeds(self.sizes.sweep_seeds) for tag in self.protocols]

    def op(self, key):
        tag, s = key
        cfg = self.cfg
        x0 = protocol.sample_initial_values(self.graph.n, cfg.initials, pushsim.SeedStreams(s))
        trace = pushsim.run_protocol(self.graph, x0, tag, cfg.rounds, cfg.spread, s)
        report = pushsim.attack_report(trace, self.target, cfg.threshold)
        diag = None
        if tag == "decomposed":
            diag = pushsim.eavesdropper_diagnostics(trace, self.target, cfg.threshold)
        return x0, trace, report, diag

    def check(self, key, result) -> str:
        x0, trace, report, diag = result
        estimates = pushsim.estimate_series(trace)
        if not np.all(np.abs(estimates[-1] - np.mean(x0)) <= 1e-8):
            raise CheckFailed(f"{key}: final estimates {estimates[-1]} not within 1e-8 of the mean")
        wiretap = np.array([np.nan if v is None else v for v in report["estimates"]])
        truth = x0[self.target - 1]
        if diag is None:
            if not abs(wiretap[-1] - truth) < 1e-6:
                raise CheckFailed(f"{key}: wiretap ends at {wiretap[-1]}, true value {truth}")
        else:
            defined = ~np.isnan(wiretap)
            observed = np.abs(wiretap[defined] - truth)
            predicted = diag.predicted_error[defined]
            if not np.all(np.abs(observed - predicted) <= 1e-9 * (1.0 + observed + predicted)):
                raise CheckFailed(f"{key}: wiretap error departs from the closed-form law")
        digest = hashlib.sha256(x0.tobytes() + estimates.tobytes())
        digest.update(json.dumps(report, sort_keys=True).encode())
        if diag is not None:
            digest.update(diag.predicted_error.tobytes())
        return digest.hexdigest()


class BundleRand24(Workload):
    """`pushsim run` writing a full bundle per op on a random 24-node graph."""

    name = "bundle_rand24"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.traced_ops = sizes.bundle_traced_ops
        self.count = 0
        # raw sha256 of a trace file -> digest of its values, so repeats skip the read
        self.trace_values: dict[str, bytes] = {}

    def setup(self) -> None:
        self._gen_graph()
        pushsim.parse_config({"protocol": "decomposed", "rounds": self.sizes.rounds,
                              "graph": {"file": self.graph_file}})

    def keys(self) -> list:
        return self.seeds(self.sizes.bundle_seeds)

    def op(self, key):
        self.count += 1
        out = f"bundle_{self.count}"
        code, _ = run_cli(["run", "--protocol", "decomposed", "--rounds", str(self.sizes.rounds),
                           "--seeds", str(key), "--graph", self.graph_file, "--output-dir", out])
        return code, Path(out)

    def check(self, key, result) -> str:
        code, out = result
        if code != 0:
            raise CheckFailed(f"seed {key}: pushsim run exited {code}")
        files = sorted(p for p in out.rglob("*") if p.is_file())
        names = {p.relative_to(out).as_posix() for p in files}
        for needed in ("summary.json", f"seed_{key}/trace.jsonl"):
            if needed not in names:
                raise CheckFailed(f"seed {key}: bundle lacks {needed}")
        digest = hashlib.sha256()
        for path in files:
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            if path.name == "summary.json":
                summary = json.loads(path.read_bytes())
                summary.pop("metadata", None)
                if summary["runs"][0]["convergence_round"] is None:
                    raise CheckFailed(f"seed {key}: run did not converge")
                digest.update(json.dumps(summary, sort_keys=True).encode())
            elif path.name == "trace.jsonl":
                digest.update(self._trace_digest(path))
            else:
                digest.update(path.read_bytes())
        return digest.hexdigest()

    def _trace_digest(self, path: Path) -> bytes:
        """Digest of the trace's values, so a new file format stays comparable."""
        raw = hashlib.sha256(path.read_bytes()).hexdigest()
        if raw not in self.trace_values:
            trace = pushsim.read_trace(path)
            values = pushsim.estimate_series(trace).tobytes()
            values += pushsim.retained_ratio_series(trace).tobytes()
            self.trace_values[raw] = hashlib.sha256(values).digest()
        return self.trace_values[raw]

    def output_bytes(self, result) -> int:
        return sum(p.stat().st_size for p in result[1].rglob("*") if p.is_file())

    def cleanup(self, result) -> None:
        shutil.rmtree(result[1], ignore_errors=True)


class AuditRand24(Workload):
    """`pushsim check`, `pushsim attack` and a coalition reconstruction per op."""

    name = "audit_rand24"

    def __init__(self, seed: int, sizes: Sizes):
        super().__init__(seed, sizes)
        self.traced_ops = sizes.audit_traced_ops
        self.rounds_per_op = sizes.audit_rounds
        self.count = 0
        self.target = sizes.graph_n

    def setup(self) -> None:
        self._gen_graph()
        seeds = self.keys()
        _cli_ok(["run", "--protocol", "decomposed", "--rounds", str(self.rounds_per_op),
                 "--seeds", ",".join(map(str, seeds)), "--graph", self.graph_file,
                 "--output-dir", "traces"])
        cfg = pushsim.parse_config({"protocol": "decomposed", "rounds": self.rounds_per_op,
                                    "graph": {"file": self.graph_file}})
        g = pushsim.load_digraph(self.graph_file)
        self.coalition = set(g.in_neighbors[self.target]) | set(g.out_neighbors[self.target])
        self.truth = {
            s: float(protocol.sample_initial_values(g.n, cfg.initials, pushsim.SeedStreams(s))[self.target - 1])
            for s in seeds
        }

    def keys(self) -> list:
        return self.seeds(self.sizes.audit_seeds)

    def op(self, key):
        self.count += 1
        trace_path = f"traces/seed_{key}/trace.jsonl"
        json_out, csv_out = f"attack_{self.count}.json", f"attack_{self.count}.csv"
        check = run_cli(["check", trace_path])
        attack = run_cli(["attack", trace_path, "--target", str(self.target),
                          "--json", json_out, "--csv", csv_out])
        view = pushsim.build_coalition_view(pushsim.read_trace(trace_path), self.coalition)
        estimate = pushsim.coalition_reconstruct(view, self.target)
        return check, attack, Path(json_out), Path(csv_out), estimate

    def check(self, key, result) -> str:
        (check_code, check_out), (attack_code, _), json_out, csv_out, estimate = result
        lines = check_out.splitlines()
        if check_code != 0 or not lines:
            raise CheckFailed(f"seed {key}: pushsim check exited {check_code}")
        failing = [line for line in lines if line.split()[0] not in ("PASS", "SKIP")]
        if failing:
            raise CheckFailed(f"seed {key}: invariant not passed: {failing[0]}")
        if attack_code != 0:
            raise CheckFailed(f"seed {key}: pushsim attack exited {attack_code}")
        report = json.loads(json_out.read_bytes())
        final = report["final_error"]
        if not isinstance(final, float):
            raise CheckFailed(f"seed {key}: attack final error is {final!r}")
        if self.pinned is not None and final != PINNED_ATTACK_FINAL_ERROR[key]:
            raise CheckFailed(f"seed {key}: attack final error {final!r}, pinned "
                              f"{PINNED_ATTACK_FINAL_ERROR[key]!r}")
        if not abs(estimate - self.truth[key]) < 1e-4:
            raise CheckFailed(f"seed {key}: coalition estimate {estimate!r}, true {self.truth[key]!r}")
        digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode())
        digest.update(csv_out.read_bytes())
        digest.update(repr(float(estimate)).encode())
        return digest.hexdigest()

    def output_bytes(self, result) -> int:
        return sum(os.path.getsize(p) for p in result[2:4] if p.exists())

    def cleanup(self, result) -> None:
        for path in result[2:4]:
            path.unlink(missing_ok=True)


WORKLOADS = {cls.name: cls for cls in (SweepDemo, BundleRand24, AuditRand24)}
