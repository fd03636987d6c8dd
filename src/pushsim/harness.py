"""Experiment harness: configs, scenario runs, invariant checks, comparisons.

A scenario config is a JSON object; unknown keys, at the top level and in
initials, graph and graph.generator, are rejected so a typo never silently
runs the wrong experiment.  Every output file embeds a hash of the
materialized config (output location excluded), and rerunning an identical
config reproduces every file byte for byte apart from the summary's
metadata block.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import adversary, analysis, graph as graphmod, protocol, traceio
from .graph import finite, integer, number, positive_finite

ENV_OUTPUT_ROOT = "PUSHSIM_OUTPUT_ROOT"

DEFAULTS = {
    "protocol": "decomposed",
    "rounds": 500,
    "seeds": [1, 2, 3],
    "M": 100.0,
    "c": 500.0,
    "initials": {"dist": "uniform", "low": 0.0, "high": 50.0},
    "graph": {"demo": True},
    "attack_target": None,
    "L": None,
    "output_dir": "out",
}


class ConfigError(ValueError):
    """A config failed validation; the message names the offending field."""


@dataclass
class ExperimentConfig:
    protocol: str
    rounds: int
    seeds: list[int]
    spread: float
    threshold: float
    initials: dict
    graph_spec: dict
    attack_target: int | None
    extra_rounds_hint: int | None  # the L knob: accepted and hashed, unused here
    output_dir: str
    # the graph resolve_graph built, so a run loads it only once
    _graph: graphmod.Digraph | None = field(default=None, init=False, repr=False, compare=False)

    def resolve_graph(self) -> graphmod.Digraph:
        if self._graph is None:
            self._graph = self._build_graph()
        return self._graph

    def _build_graph(self) -> graphmod.Digraph:
        spec = self.graph_spec
        if "demo" in spec:
            return graphmod.demo_digraph()
        if "file" in spec:
            try:
                return graphmod.load_digraph(spec["file"])
            except (OSError, ValueError) as exc:
                raise ValueError(f"graph.file: cannot load {spec['file']!r}: {exc}") from exc
        try:
            return graphmod.random_strongly_connected(**spec["generator"])
        except ValueError as exc:  # a value out of range, named by the generator
            raise ValueError(f"graph.generator.{exc}") from exc

    def materialized(self) -> dict:
        """Canonical config echo, which config_hash hashes; output location is ambient, not content.

        It holds parse_config's validated values with every default filled in:
        initials' low and high (or value), M and c as floats, and graph.generator's
        n, extra_edge_prob (a float) and seed.  So 1, 1.0 and a default left out
        hash the same.  L is accepted, echoed and hashed, but unused.
        """
        return {
            "protocol": self.protocol,
            "rounds": self.rounds,
            "seeds": list(self.seeds),
            "M": self.spread,
            "c": self.threshold,
            "initials": dict(self.initials),
            "graph": dict(self.graph_spec),
            "attack_target": self.attack_target,
            "L": self.extra_rounds_hint,
        }

    def config_hash(self) -> str:
        blob = json.dumps(self.materialized(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def resolved_output_dir(self) -> Path:
        root = os.environ.get(ENV_OUTPUT_ROOT)
        path = Path(self.output_dir)
        if root and not path.is_absolute():
            return Path(root) / path
        return path


def _check_keys(spec, allowed: tuple[str, ...], name: str) -> None:
    """Reject a config object that is not a dict or holds a key outside allowed."""
    if not isinstance(spec, dict):
        raise ValueError(f"{name}: expected an object with keys among {', '.join(allowed)}")
    unknown = sorted(str(key) for key in set(spec) - set(allowed))
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(f'{name}.{key}' for key in unknown)}")


def parse_config(data: dict) -> ExperimentConfig:
    """Validate a raw config dict, applying defaults for missing keys.

    Every number is checked by graph's shared JSON value checks and never
    coerced.  Each check raises a ValueError that names the field, and so
    does every other check of the config and its graph; they come out here
    as one ConfigError.
    """
    try:
        return _parse_config(data)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_config(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    unknown = sorted(set(data) - set(DEFAULTS) - {"n"})
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    merged = {**DEFAULTS, **data}

    tag = merged["protocol"]
    if tag not in protocol.PROTOCOLS:
        raise ValueError(f"protocol: unknown tag {tag!r}; registered: {', '.join(protocol.PROTOCOLS)}")
    rounds = integer(merged["rounds"], "rounds")
    if rounds < 1:
        raise ValueError(f"rounds: must be positive, got {rounds}")
    seeds = merged["seeds"]
    if not isinstance(seeds, (list, tuple)) or not seeds:
        raise ValueError("seeds: must be a non-empty list of integers")
    seeds = [integer(s, "seeds") for s in seeds]
    if min(seeds) < 0:
        raise ValueError(f"seeds: must be non-negative, got {min(seeds)}")
    if len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds: duplicates in {seeds}; each seed writes its own seed_<s>/")
    spread = positive_finite(merged["M"], "M")
    if not math.isfinite(2.0 * spread):
        raise ValueError(f"M: 2*M must be finite, got M={spread}")
    threshold = positive_finite(merged["c"], "c")
    initials = merged["initials"]
    if not isinstance(initials, dict) or initials.get("dist") not in ("uniform", "constant"):
        raise ValueError("initials: need {'dist': 'uniform'|'constant', ...}")
    if initials["dist"] == "uniform":
        _check_keys(initials, ("dist", "low", "high"), "initials")
        low = finite(initials.get("low", 0.0), "initials.low")
        high = finite(initials.get("high", 50.0), "initials.high")
        if low > high:
            raise ValueError(f"initials: low {low} is above high {high}")
        if not math.isfinite(high - low):
            raise ValueError(f"initials: high - low must be finite, got {low} to {high}")
        initials, magnitude = {"dist": "uniform", "low": low, "high": high}, max(abs(low), abs(high))
    else:
        _check_keys(initials, ("dist", "value"), "initials")
        initials = {"dist": "constant", "value": finite(initials.get("value", 0.0), "initials.value")}
        magnitude = abs(initials["value"])
    gspec = merged["graph"]
    _check_keys(gspec, ("demo", "file", "generator"), "graph")
    if len(gspec) != 1:
        raise ValueError(f"graph: need exactly one of demo, file, generator, got {len(gspec)}")
    if "demo" in gspec and gspec["demo"] is not True:
        raise ValueError(f"graph.demo: must be true, got {gspec['demo']!r}")
    if "file" in gspec and not (isinstance(gspec["file"], str) and gspec["file"]):
        raise ValueError(f"graph.file: must be a non-empty path string, got {gspec['file']!r}")
    if "generator" in gspec:
        _check_keys(gspec["generator"], ("n", "extra_edge_prob", "seed"), "graph.generator")
        gen = {"extra_edge_prob": 0.3, "seed": 0, **gspec["generator"]}
        gspec = {"generator": {"n": integer(gen.get("n"), "graph.generator.n"),
                               "extra_edge_prob": number(gen["extra_edge_prob"], "graph.generator.extra_edge_prob"),
                               "seed": integer(gen["seed"], "graph.generator.seed")}}
    output_dir = merged["output_dir"]
    if not (isinstance(output_dir, str) and output_dir):
        raise ValueError(f"output_dir: must be a non-empty path string, got {output_dir!r}")

    cfg = ExperimentConfig(
        protocol=tag,
        rounds=rounds,
        seeds=seeds,
        spread=spread,
        threshold=threshold,
        initials=initials,
        graph_spec=gspec,
        attack_target=None if merged["attack_target"] is None else integer(merged["attack_target"], "attack_target"),
        extra_rounds_hint=None if merged["L"] is None else integer(merged["L"], "L"),
        output_dir=output_dir,
    )
    g = cfg.resolve_graph()
    try:
        graphmod.check_protocol_usable(g)
    except ValueError as exc:
        raise ValueError(f"graph: {exc}") from exc
    # every state-0 entry is within 2 |x0| + M, and each sum adds two rows of n
    if not math.isfinite(2.0 * g.n * (magnitude + spread)):
        raise ValueError(f"initials: values up to {magnitude:g} in magnitude with M={spread:g} on {g.n} nodes "
                         f"give state-0 sums up to 2*n*(|x0| + M), which are not finite")
    declared_n = data.get("n")
    if declared_n is not None and integer(declared_n, "n") != g.n:
        raise ValueError(f"n: declared {declared_n}, but the graph has {g.n} nodes")
    if cfg.attack_target is not None and not 1 <= cfg.attack_target <= g.n:
        raise ValueError(f"attack_target: {cfg.attack_target} outside 1..{g.n}")
    return cfg


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    data: dict = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from exc
    if overrides and isinstance(data, dict):  # parse_config rejects any other data
        data.update({k: v for k, v in overrides.items() if v is not None})
    return parse_config(data)


# ---------------------------------------------------------------------------
# scenario runs


def _lap(stage_s: dict[str, float], stage: str, start: float) -> float:
    """Add the time since start to stage_s[stage]; return the current time."""
    now = time.perf_counter()
    stage_s[stage] += now - start
    return now


def _simulate(cfg: ExperimentConfig, g: graphmod.Digraph, seed: int, tag: str) -> protocol.Trace:
    """One seed's run of protocol tag: its initial values, then run_protocol."""
    x0 = protocol.sample_initial_values(g.n, cfg.initials, protocol.SeedStreams(seed))
    return protocol.run_protocol(g, x0, tag, cfg.rounds, cfg.spread, seed)


def _run_one_seed(cfg: ExperimentConfig, g: graphmod.Digraph, seed: int, outdir: Path, chash: str,
                  stage_s: dict[str, float]) -> dict:
    """Run one seed, write its files under seed_<seed>/ and return its summary entry.

    The stages go in order: simulate (_simulate); analyse (run_metrics,
    the beta convergence round and, for decomposed runs of 2+ rounds,
    forward_product); attack (attack_report); then write attack.json and
    attack.csv, the ergodicity files, and trace.jsonl and estimates.csv
    last.  seed_<seed>/ is made only once the analysis and the attack have
    succeeded.  Each stage's result is cut down, as soon as it exists, to
    what the entry and the files need: the metrics to the convergence round,
    the final max error and the per-round mse; the ergodicity report to its
    rounds, delta, bound and epsilon; the attack report to its summary
    fields, once its files are written.  So between stages only the trace
    and per-round scalars are held, and each stage's temporaries stack on
    nothing bigger.  Nothing of the run outlives the call but the entry.
    """
    start = time.perf_counter()
    trace = _simulate(cfg, g, seed, cfg.protocol)
    start = _lap(stage_s, "simulate", start)
    metrics = analysis.run_metrics(trace)
    target, mse = metrics.target, metrics.mse
    convergence = analysis.convergence_round(metrics.abs_error)
    entry = {
        "seed": seed,
        "convergence_round": convergence,
        "beta_convergence_round": None,
        "final_max_error": float(np.nanmax(metrics.abs_error[-1])),
    }
    del metrics
    ergodicity = None
    if cfg.protocol == "decomposed":
        beta_error = protocol.retained_ratio_series(trace)
        beta_error -= target
        entry["beta_convergence_round"] = analysis.convergence_round(np.abs(beta_error, out=beta_error))
        del beta_error
        if cfg.rounds >= 2:
            report = analysis.forward_product(trace)
            ergodicity = report.rounds, report.delta, report.bound, report.epsilon
            del report
    start = _lap(stage_s, "analyse", start)
    attack = adversary.attack_report(trace, cfg.attack_target, cfg.threshold)
    start = _lap(stage_s, "attack", start)

    seed_dir = outdir / f"seed_{seed}"
    seed_dir.mkdir(exist_ok=True)
    traceio.write_json(seed_dir / "attack.json", {**attack, "config_hash": chash})
    adversary.write_attack_csv(attack, seed_dir / "attack.csv", f"config_hash={chash}")
    entry["attack"] = {
        "target": attack["target"],
        "exceedance_count": len(attack["exceedance_rounds"]),
        "post_transient_exceedance_count": len(attack["post_transient_exceedance_rounds"]),
        "final_error": attack["final_error"],
    }
    del attack
    if ergodicity is not None:
        rounds, delta, bound, epsilon = ergodicity
        traceio.write_table(
            seed_dir / "ergodicity.csv", ("k", "delta", "bound", "mse"), (rounds, delta, bound, mse[rounds]),
            f"config_hash={chash}",
        )
        entry["ergodicity"] = {"epsilon": epsilon, "final_delta": float(delta[-1])}
        traceio.write_json(
            seed_dir / "ergodicity.json",
            {**entry["ergodicity"], "convergence_round": convergence, "config_hash": chash},
        )
    traceio.write_trace(trace, seed_dir / "trace.jsonl", {"config_hash": chash})
    traceio.write_estimates_csv(trace, seed_dir / "estimates.csv", f"config_hash={chash}")
    _lap(stage_s, "write", start)
    return entry


def run_scenario(cfg: ExperimentConfig, verbose: bool = False) -> dict:
    """Run every seed of a scenario and write the output bundle.

    Seeds run one after another through _run_one_seed, which writes the
    seed's files as soon as its analysis and attack are done and then drops
    its trace, so the peak memory does not grow with the seed count: at any
    time one seed's trace, its per-round scalars and one stage's
    temporaries are held.  summary.json gathers the per-seed entries.  The
    summary's metadata block records the wall time of each stage, summed
    over seeds.
    """
    g = cfg.resolve_graph()
    chash = cfg.config_hash()
    outdir = cfg.resolved_output_dir()
    outdir.mkdir(parents=True, exist_ok=True)

    stage_s = dict.fromkeys(("simulate", "analyse", "attack", "write"), 0.0)
    start = time.perf_counter()
    traceio.write_json(outdir / "config.json", {**cfg.materialized(), "config_hash": chash})
    _lap(stage_s, "write", start)

    runs_summary = []
    for seed in cfg.seeds:
        entry = _run_one_seed(cfg, g, seed, outdir, chash, stage_s)
        runs_summary.append(entry)
        if verbose:
            conv = entry["convergence_round"]
            print(f"seed {seed}: converged at k={conv}" if conv is not None else f"seed {seed}: no convergence within {cfg.rounds} rounds")

    summary = {
        "config": cfg.materialized(),
        "config_hash": chash,
        "metadata": {"created_utc": datetime.now(timezone.utc).isoformat(), "stage_s": stage_s},
        "runs": runs_summary,
    }
    traceio.write_json(outdir / "summary.json", summary, indent=1)
    return summary


# ---------------------------------------------------------------------------
# invariant checking


@dataclass
class InvariantResult:
    name: str
    status: str  # "pass" | "fail" | "skip"
    detail: str


@dataclass
class InvariantReport:
    items: list[InvariantResult]

    @property
    def ok(self) -> bool:
        return all(item.status != "fail" for item in self.items)


def check_invariants(trace_or_path) -> InvariantReport:
    """Check a trace (object or file) against the protocol invariants.

    Covered: conservation of both coordinate sums, column stochasticity of
    every round's weights, the zero pattern against the digraph, replay
    consistency of states and transmitted products, and the contraction
    bound for decomposed traces.

    Both inputs go one way: as RoundBlocks from traceio.read_blocks, so a
    file is read in one pass and never held as a Trace.  Every check runs on
    each block as it comes, and between blocks keeps only what its result
    needs: state 0's sums, the last replayed state and the forward product
    with its per-round delta.  The report is made after the last block, so
    a malformed line anywhere in a file raises TraceFormatError and no
    report is returned.
    """
    checks = (_Conservation(), _ColumnStochasticity(), _ZeroPattern(), _ReplayConsistency(), _ErgodicityBound())
    for block in traceio.read_blocks(trace_or_path):
        for check in checks:
            check.add(block)
    return InvariantReport([check.result() for check in checks])


class _Check:
    """One invariant, checked a RoundBlock at a time in round order.

    first_failure(block) gives the detail of the block's first failure, or
    None; after a failure no later block is looked at.  Each check is
    written as "not (error <= tolerance)" so that a NaN fails it: every
    comparison with NaN is false.
    """

    name = ""
    passed = ""  # the detail when nothing failed

    def __init__(self) -> None:
        self.failure: str | None = None

    def add(self, block: protocol.RoundBlock) -> None:
        if self.failure is None:
            self.failure = self.first_failure(block)

    def first_failure(self, block: protocol.RoundBlock) -> str | None:
        raise NotImplementedError

    def result(self) -> InvariantResult:
        return InvariantResult(self.name, "pass" if self.failure is None else "fail", self.failure or self.passed)


class _Conservation(_Check):
    """Both sums of every state against state 0's; state 0's own sums fail
    when they are not finite, since no later sum can match them."""

    name = "conservation"

    def __init__(self) -> None:
        super().__init__()
        self.sums = self.states = None

    def first_failure(self, block):
        with np.errstate(invalid="ignore", over="ignore"):
            s1, s2 = protocol.conserved_sums(block)
        if self.sums is None:
            self.sums = s1[0], s2[0]
            if not (np.isfinite(s1[0]) and np.isfinite(s2[0])):
                return f"state 0: sums {s1[0]:.6g}/{s2[0]:.6g} are not finite"
        a, b = self.sums
        self.states = block.start + len(s1)
        bad = _first(~((np.abs(s1 - a) <= 1e-9 * max(1.0, abs(a))) & (np.abs(s2 - b) <= 1e-9 * max(1.0, abs(b)))))
        if bad is None:
            return None
        return f"first violation after round {block.start + bad - 1}: sums {s1[bad]:.6g}/{s2[bad]:.6g} vs {a:.6g}/{b:.6g}"

    def result(self) -> InvariantResult:
        if self.failure is None:
            self.passed = "sums {:.6g}/{:.6g} held for {} states".format(*self.sums, self.states)
        return super().result()


class _ColumnStochasticity(_Check):
    name, passed = "column_stochasticity", "all columns plus retention sum to 1 within 1e-12"

    def first_failure(self, block):
        err = np.abs(protocol.column_sums(block) + block.alpha - 1.0)
        r = _first(~(err <= 1e-12).all(axis=1))
        if r is None:
            return None
        return f"round {block.start + r}, sender {int(np.argmax(err[r])) + 1}: column sum off by {err[r].max():.3e}"


class _ZeroPattern(_Check):
    name, passed = "zero_pattern", "nonzero weights only on edges and the diagonal"

    def first_failure(self, block):
        stray = block.stray_weight
        return None if stray is None else "round {}: weight on missing edge ({}, {})".format(*stray)


class _ReplayConsistency(_Check):
    """Recorded states and products against a replay's, within rtol 1e-9 and atol 1e-12.

    Each block replays from the last state that the replay of the blocks
    before it reached, state 0 for the first, and never from a recorded
    state: the whole run is replayed from state 0 and the weights alone.
    The replay's products are derived from the block's own edge weights.

    A block that records no products and whose states, the first included,
    are finite and the replay's bit for bit passes as is: its products are
    the replay's, none NaN, as a NaN product is a term of a replay dot.
    """

    name, passed = "replay_consistency", "states and products match a fresh replay"

    def __init__(self) -> None:
        super().__init__()
        self.carried = None

    def first_failure(self, block):
        replayed = protocol.replay(block, self.carried).states
        self.carried = replayed[-1].copy()
        g, labels = block.graph, traceio.STATE_KEYS[block.protocol]
        rows = len(labels)
        states = block.states[:, :rows]
        if (block.recorded_sent is None and np.isfinite(states).all()
                and (states.view(np.uint64) == replayed[:, :rows].view(np.uint64)).all()):
            return None
        # _close overwrites the replayed values it is given, so the products
        # are derived first; one coordinate at a time halves its temporary
        recorded, redone = block.products(), protocol.transmissions(g, block.edge_w, replayed)
        sent_off = ~(_close(recorded[..., 0], redone[..., 0]) & _close(recorded[..., 1], redone[..., 1]))
        state_off = ~_close(states[1:], replayed[1:, :rows]).all(axis=2)
        r = _first(state_off.any(axis=1) | sent_off.any(axis=1))
        if r is None:
            return None
        if state_off[r].any():
            detail = f"recorded {labels[int(np.argmax(state_off[r]))]} diverges from replay"
        else:
            detail = f"transmitted product on edge {g.sorted_edges[int(np.argmax(sent_off[r]))]} diverges from replay"
        return f"round {block.start + r}: {detail}"


class _ErgodicityBound(_Check):
    """delta of the forward product within the realized bound, for decomposed traces of 2+ rounds."""

    name = "ergodicity_bound"

    def __init__(self) -> None:
        super().__init__()
        self.product: analysis.ForwardProduct | None = None
        self.rounds = 0

    def first_failure(self, block):
        self.rounds = block.start + block.n_rounds
        if block.protocol != "decomposed":
            return None
        if self.product is None:
            self.product = analysis.ForwardProduct(block.graph)
        try:
            self.product.add(block)
        except ValueError as exc:  # e.g. recorded weights whose columns no longer sum to one
            return str(exc)
        return None

    def result(self) -> InvariantResult:
        if self.failure is None and (self.product is None or self.rounds < 2):
            return InvariantResult(self.name, "skip", "only defined for decomposed traces with 2+ rounds")
        if self.failure is None:
            report = self.product.report()
            t = _first(~(report.delta <= report.bound + 1e-12))
            if t is None:
                self.passed = f"delta stayed within the bound; final delta {report.delta[-1]:.3e}"
            else:
                self.failure = (f"round {int(report.rounds[t])}: delta {report.delta[t]:.3e} "
                                f"above bound {report.bound[t]:.3e}")
        return super().result()


def _close(recorded: np.ndarray, redone: np.ndarray) -> np.ndarray:
    """np.isclose(recorded, redone, rtol=1e-9, atol=1e-12), by numpy's own
    formula but without its argument handling, which costs as much as the
    arithmetic on one block: within tolerance of a finite replayed value,
    or equal (so infinities of one sign match and NaN never does).  It
    overwrites redone, which must be the caller's own, with |recorded -
    redone|, so that the comparison makes one temporary of redone's size,
    the tolerance, rather than three."""
    with np.errstate(invalid="ignore"):
        close = recorded == redone
        tolerance = np.abs(redone)
        tolerance *= 1e-9
        tolerance += 1e-12
        within = np.isfinite(redone)
        np.subtract(recorded, redone, out=redone)
        within &= np.abs(redone, out=redone) <= tolerance
        close |= within
        return close


def _first(flags: np.ndarray) -> int | None:
    """Index of the first true entry of a 1-D mask, or None."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# protocol comparison


def compare_protocols(cfg: ExperimentConfig, protocols: list[str] | None = None) -> dict:
    """Run several protocols on identical seeds/initials and tabulate MSE.

    Writes compare.csv (seed, k, one mse column per protocol) and
    compare.json next to it.  Unknown tags are rejected with the list of
    registered ones, and so is a repeated tag.
    """
    tags = protocols if protocols else ["push_sum", "decomposed"]
    for tag in tags:
        if tag not in protocol.PROTOCOLS:
            raise ConfigError(f"unknown protocol {tag!r}; registered: {', '.join(protocol.PROTOCOLS)}")
    if len(set(tags)) != len(tags):
        raise ConfigError(f"protocols: duplicates in {tags}; each tag writes its own mse column")
    g = cfg.resolve_graph()
    chash = cfg.config_hash()
    outdir = cfg.resolved_output_dir()
    outdir.mkdir(parents=True, exist_ok=True)

    x0 = {}  # a seed's initial values, the same under every protocol

    def mse_curve(tag: str, seed: int) -> np.ndarray:
        trace = _simulate(cfg, g, seed, tag)
        x0[str(seed)] = trace.x0.tolist()
        return analysis.run_metrics(trace).mse

    # one column per protocol, the seeds' MSE curves one after another
    mse = [np.concatenate([mse_curve(tag, seed) for seed in cfg.seeds]) for tag in tags]
    steps = range(cfg.rounds + 1)
    traceio.write_table(
        outdir / "compare.csv",
        ["seed", "k"] + [f"mse_{tag}" for tag in tags],
        # the seeds stay Python ints: a seed above 2**64 has no exact float
        [[seed for seed in cfg.seeds for _ in steps], [k for _ in cfg.seeds for k in steps], *mse],
        f"config_hash={chash}",
    )

    payload = {
        "config_hash": chash,
        "protocols": list(tags),
        "seeds": list(cfg.seeds),
        "x0": x0,
        "csv": "compare.csv",
    }
    traceio.write_json(outdir / "compare.json", payload)
    return payload
