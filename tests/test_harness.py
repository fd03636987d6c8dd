"""Config parsing, scenario bundles, invariant checking, comparison, CLI."""
from __future__ import annotations

import base64
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pushsim import (
    ConfigError,
    ExperimentConfig,
    check_invariants,
    compare_protocols,
    demo_digraph,
    load_digraph,
    parse_config,
    run_protocol,
    run_scenario,
)
import pushsim
from pushsim import cli, graph as graphmod
from pushsim.cli import main as cli_main
from pushsim.harness import ENV_OUTPUT_ROOT, load_config
from pushsim.protocol import SeedStreams, Trace, sample_initial_values
from pushsim.traceio import TraceFormatError, read_trace, trace_lines

from helpers import (
    TAMPER_KINDS,
    block_edge_traces,
    corrupt_line,
    dense_weights,
    one_shot_check_invariants,
    one_shot_replay_consistency,
    protocol_traces,
    reference_trace_lines,
    spoiled,
    tampered,
    traced_peak,
    v2_trace_lines,
)


def small_config(tmp_path: Path, **extra) -> dict:
    data = {
        "rounds": 60,
        "seeds": [1, 2],
        "output_dir": str(tmp_path / "out"),
        "graph": {"demo": True},
    }
    data.update(extra)
    return data


# ---------------------------------------------------------------------------
# config parsing


def test_parse_config_defaults() -> None:
    cfg = parse_config({})
    assert cfg.protocol == "decomposed"
    assert cfg.rounds == 500
    assert cfg.seeds == [1, 2, 3]
    assert cfg.spread == 100.0
    assert cfg.threshold == 500.0
    assert cfg.initials == {"dist": "uniform", "low": 0.0, "high": 50.0}
    assert cfg.attack_target is None
    assert cfg.extra_rounds_hint is None
    assert cfg.resolve_graph() == demo_digraph()


def test_parse_config_rejections() -> None:
    cases = [
        ({"bogus": 1, "also_bad": 2}, "unknown config key"),
        ({"protocol": "magic"}, "registered"),
        ({"rounds": 0}, "rounds"),
        ({"rounds": "many"}, "rounds"),
        ({"seeds": []}, "seeds"),
        ({"seeds": "1,2"}, "seeds"),
        ({"M": -1.0}, "M"),
        ({"c": 0.0}, "c"),
        ({"initials": {"dist": "exotic"}}, "initials"),
        ({"graph": {"nodes": 5}}, "graph"),
        ({"graph": {"generator": {"n": 2}}}, "graph"),
        ({"n": 4}, "declared 4"),
        ({"attack_target": 9}, "attack_target"),
    ]
    for data, needle in cases:
        with pytest.raises(ConfigError, match=needle):
            parse_config(data)


@pytest.mark.parametrize(
    "data, needle",
    [
        ({"M": None}, "M: "),
        ({"c": None}, "c: "),
        ({"M": float("nan")}, "M: must be finite"),
        ({"M": float("inf")}, "M: must be finite"),
        ({"c": float("nan")}, "c: must be finite"),
        ({"c": float("-inf")}, "c: must be finite"),
        ({"rounds": True}, "rounds: must be an integer, got True"),
        ({"seeds": [3, 1, 3]}, "seeds: duplicates"),
        ({"initials": {"dist": "uniform", "low": 5.0, "high": 1.0}}, "initials: low 5.0 is above high 1.0"),
        ({"initials": {"dist": "uniform", "high": None}}, "initials.high"),
        ({"attack_target": [1]}, "attack_target"),
        ({"rounds": 2.5}, "rounds: must be an integer, got 2.5"),
        ({"seeds": [1.9, 2]}, "seeds: must be an integer, got 1.9"),
        ({"attack_target": 2.5}, "attack_target: must be an integer, got 2.5"),
        ({"graph": {"demo": False}}, "graph.demo: must be true, got False"),
        ({"graph": {"demo": True, "file": "x.json"}}, "graph: need exactly one of demo, file, generator, got 2"),
        ({"initials": {"dist": "uniform", "hihg": 10}}, r"unknown key\(s\) initials\.hihg"),
        ({"initials": {"dist": "constant", "value": 1.0, "low": 0.0}}, r"unknown key\(s\) initials\.low"),
        ({"graph": {"generator": {"n": 6, "extra_edge_prb": 0.9}}}, r"unknown key\(s\) graph\.generator\.extra_edge_prb"),
        ({"graph": {"generator": [6]}}, "graph.generator: expected an object"),
        ({"seeds": [2, -1]}, "seeds: must be non-negative, got -1"),
        ({"M": 1e308}, r"M: 2\*M must be finite"),
        ({"initials": {"dist": "uniform", "low": -1e308, "high": 1e308}}, "initials: high - low must be finite"),
        ({"graph": {"file": True}}, "graph.file: must be a non-empty path string, got True"),
        ({"graph": {"file": 0}}, "graph.file: must be a non-empty path string, got 0"),
        ({"graph": {"file": ["g.json"]}}, r"graph.file: must be a non-empty path string, got \['g.json'\]"),
        ({"graph": {"file": ""}}, "graph.file: must be a non-empty path string, got ''"),
        ({"output_dir": None}, "output_dir: must be a non-empty path string, got None"),
        ({"output_dir": 5}, "output_dir: must be a non-empty path string, got 5"),
        ({"graph": {"generator": {"n": 6.7}}}, "graph.generator.n: must be an integer, got 6.7"),
        ({"graph": {"generator": {"n": 6, "seed": 1.5}}}, "graph.generator.seed: must be an integer, got 1.5"),
        ({"graph": {"generator": {"n": 6, "extra_edge_prob": True}}},
         "graph.generator.extra_edge_prob: must be a number, got True"),
        ({"rounds": "12"}, "rounds: must be an integer, got '12'"),
        ({"rounds": 3.0}, "rounds: must be an integer, got 3.0"),
        ({"seeds": ["1"]}, "seeds: must be an integer, got '1'"),
        ({"initials": {"dist": "uniform", "low": "1"}}, "initials.low: must be a number, got '1'"),
        ({"attack_target": "5"}, "attack_target: must be an integer, got '5'"),
        ({"n": "5"}, "n: must be an integer, got '5'"),
        ({"L": "3"}, "L: must be an integer, got '3'"),
    ],
    ids=[
        "M-null", "c-null", "M-nan", "M-inf", "c-nan", "c-neg-inf", "rounds-bool",
        "seeds-duplicate", "initials-low-above-high", "initials-high-null", "attack_target-list",
        "rounds-fractional", "seeds-fractional", "attack_target-fractional", "graph-demo-false",
        "graph-two-sources", "initials-typo", "initials-constant-low", "generator-typo",
        "generator-list", "seeds-negative", "M-double-overflows", "initials-range-overflows",
        "graph-file-true", "graph-file-zero", "graph-file-list", "graph-file-empty", "output_dir-null",
        "output_dir-number", "generator-n-fractional", "generator-seed-fractional", "generator-prob-bool",
        "rounds-string", "rounds-integral-float", "seeds-string", "initials-low-string", "attack_target-string",
        "n-string", "L-string",
    ],
)
def test_parse_config_rejects_value(data, needle) -> None:
    with pytest.raises(ConfigError, match=needle):
        parse_config(data)


@pytest.mark.parametrize(
    "spellings",
    [
        [{"initials": {"dist": "uniform", "low": 1, "high": 50}},
         {"initials": {"dist": "uniform", "low": 1.0, "high": 50.0}},
         {"initials": {"dist": "uniform", "low": 1}}],
        [{"initials": {"dist": "constant"}}, {"initials": {"dist": "constant", "value": 0.0}},
         {"initials": {"dist": "constant", "value": 0}}],
        [{"graph": {"generator": {"n": 6}}}, {"graph": {"generator": {"n": 6, "extra_edge_prob": 0.3, "seed": 0}}}],
        [{"graph": {"generator": {"n": 6, "extra_edge_prob": 1}}},
         {"graph": {"generator": {"n": 6, "extra_edge_prob": 1.0}}}],
        [{}, {"M": 100, "c": 500, "initials": {"dist": "uniform", "low": 0, "high": 50}}],
    ],
    ids=["uniform", "constant", "generator-defaults", "generator-prob", "top-level"],
)
def test_config_hash_is_over_the_canonical_config(spellings) -> None:
    """Spellings of one run, a number as int or float or a default written
    out or left out, echo one materialized config and hash the same."""
    configs = [parse_config(data) for data in spellings]
    assert len({json.dumps(cfg.materialized(), sort_keys=True) for cfg in configs}) == 1
    assert len({cfg.config_hash() for cfg in configs}) == 1


def test_materialized_fills_every_default() -> None:
    echo = parse_config({"graph": {"generator": {"n": 6}}, "initials": {"dist": "uniform", "high": 10}}).materialized()
    assert echo["initials"] == {"dist": "uniform", "low": 0.0, "high": 10.0}
    assert echo["graph"] == {"generator": {"n": 6, "extra_edge_prob": 0.3, "seed": 0}}
    assert all(type(v) is float for v in (echo["M"], echo["c"], echo["initials"]["low"], echo["initials"]["high"]))


def test_cli_null_spread_exits_two(tmp_path: Path, capsys) -> None:
    cfg = tmp_path / "null_m.json"
    cfg.write_text(json.dumps({"M": None}))
    assert cli_main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "x")]) == 2
    assert "M: " in capsys.readouterr().err


def test_cli_nested_typo_exits_two(tmp_path: Path, capsys) -> None:
    cfg = tmp_path / "demo_false.json"
    cfg.write_text(json.dumps({"graph": {"demo": False}}))
    assert cli_main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "x")]) == 2
    assert "graph.demo: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "args, config, needle",
    [
        (["--seeds", "-1"], None, "seeds: must be non-negative"),
        (["--protocol", "decomposed", "--M", "1e308"], None, "M: 2*M must be finite"),
        ([], {"initials": {"dist": "uniform", "low": -1e308, "high": 1e308}}, "initials: high - low"),
        (["--protocol", "decomposed", "--M", "1e-14"], None, "M=1e-14 is too small"),
        ([], [1, 2], "config must be a JSON object"),
        ([], "x", "config must be a JSON object"),
        ([], 3, "config must be a JSON object"),
    ],
    ids=["seeds-negative", "M-double-overflows", "initials-range-overflows", "M-tiny", "config-list", "config-string", "config-number"],
)
def test_cli_bad_value_exits_two(args, config, needle, tmp_path: Path, capsys) -> None:
    argv = ["run", "--graph", "demo", "--rounds", "5", "--output-dir", str(tmp_path / "x")] + args
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    assert cli_main(argv) == 2
    assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "generator, needle",
    [
        ({"n": 6.7}, "graph.generator.n: must be an integer, got 6.7"),
        ({"n": 6, "seed": 1.5}, "graph.generator.seed: must be an integer, got 1.5"),
        ({"n": 6, "extra_edge_prob": True}, "graph.generator.extra_edge_prob: must be a number, got True"),
        ({"n": 6, "seed": -1}, "graph.generator.seed: must be a non-negative integer, got -1"),
    ],
    ids=["n-fractional", "seed-fractional", "prob-bool", "seed-negative"],
)
def test_cli_generator_value_exits_two(generator, needle, tmp_path: Path, capsys) -> None:
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"generator": generator}, "rounds": 5}))
    assert cli_main(["run", "--config", str(cfg), "--output-dir", str(tmp_path / "x")]) == 2
    assert needle in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_cli_graph_file_descriptor_exits_two(tmp_path: Path) -> None:
    # in a child process: an integer path would make open() read and close the runner's fd 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": {"file": 0}, "rounds": 3}))
    graph = tmp_path / "g.json"
    graphmod.save_digraph(demo_digraph(), graph)
    env = {**os.environ, "PYTHONPATH": str(Path(pushsim.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-m", "pushsim.cli", "run", "--config", str(cfg), "--output-dir", str(tmp_path / "x")],
        input=graph.read_text(), capture_output=True, text=True, env=env, timeout=120,
    )
    assert done.returncode == 2, done.stderr
    assert "graph.file: must be a non-empty path string, got 0" in done.stderr
    assert not (tmp_path / "x").exists()


def test_parse_config_accepts_extra_rounds_hint() -> None:
    cfg = parse_config({"L": 25})
    assert cfg.extra_rounds_hint == 25


def test_parse_config_n_crosscheck_passes() -> None:
    cfg = parse_config({"n": 5})
    assert cfg.resolve_graph().n == 5


def test_graph_file_is_loaded_once_per_run(tmp_path: Path, monkeypatch) -> None:
    path = tmp_path / "g.json"
    graphmod.save_digraph(demo_digraph(), path)
    loads = []
    monkeypatch.setattr(graphmod, "load_digraph", lambda p: loads.append(p) or load_digraph(p))
    cfg = parse_config(small_config(tmp_path, rounds=5, graph={"file": str(path)}))
    run_scenario(cfg)
    compare_protocols(cfg)
    assert loads == [str(path)]
    assert cfg.resolve_graph() == demo_digraph()


def test_load_config_overrides(tmp_path: Path) -> None:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"rounds": 80, "seeds": [4]}))
    cfg = load_config(path, {"rounds": 90, "protocol": None})
    assert cfg.rounds == 90  # flag beats file
    assert cfg.seeds == [4]  # file beats default
    assert cfg.protocol == "decomposed"  # None override ignored


def test_config_hash_ignores_output_dir(tmp_path: Path) -> None:
    a = parse_config(small_config(tmp_path))
    b = parse_config(small_config(tmp_path, output_dir=str(tmp_path / "elsewhere")))
    c = parse_config(small_config(tmp_path, rounds=61))
    assert a.config_hash() == b.config_hash()
    assert a.config_hash() != c.config_hash()


def test_output_root_env(tmp_path: Path, monkeypatch) -> None:
    monkeypatch.setenv(ENV_OUTPUT_ROOT, str(tmp_path / "root"))
    cfg = parse_config({"output_dir": "rel/out"})
    assert cfg.resolved_output_dir() == tmp_path / "root" / "rel" / "out"
    absolute = parse_config({"output_dir": str(tmp_path / "abs")})
    assert absolute.resolved_output_dir() == tmp_path / "abs"


# ---------------------------------------------------------------------------
# scenario bundles


def test_run_scenario_bundle(tmp_path: Path) -> None:
    cfg = parse_config(small_config(tmp_path))
    summary = run_scenario(cfg)
    out = tmp_path / "out"
    chash = cfg.config_hash()

    config_echo = json.loads((out / "config.json").read_text())
    assert config_echo["config_hash"] == chash
    assert config_echo["rounds"] == 60
    assert "output_dir" not in config_echo

    for seed in (1, 2):
        seed_dir = out / f"seed_{seed}"
        for name in (
            "trace.jsonl",
            "estimates.csv",
            "attack.json",
            "attack.csv",
            "ergodicity.csv",
            "ergodicity.json",
        ):
            assert (seed_dir / name).exists(), name
        header = json.loads((seed_dir / "trace.jsonl").read_text().splitlines()[0])
        assert header["config_hash"] == chash
        for csv_name in ("estimates.csv", "attack.csv", "ergodicity.csv"):
            first = (seed_dir / csv_name).read_text().splitlines()[0]
            assert first == f"# config_hash={chash}"
        attack = json.loads((seed_dir / "attack.json").read_text())
        assert attack["config_hash"] == chash
        assert attack["target"] == 5  # defaults to the highest-numbered node
        report = check_invariants(seed_dir / "trace.jsonl")
        assert report.ok, [item for item in report.items if item.status == "fail"]

    assert summary["config_hash"] == chash
    assert [run["seed"] for run in summary["runs"]] == [1, 2]
    for run in summary["runs"]:
        assert set(run) == {
            "seed",
            "convergence_round",
            "beta_convergence_round",
            "final_max_error",
            "attack",
            "ergodicity",
        }
        assert run["final_max_error"] < 1e-4
        assert run["ergodicity"]["epsilon"] > 0
    on_disk = json.loads((out / "summary.json").read_text())
    assert "created_utc" in on_disk["metadata"]
    stage_s = on_disk["metadata"]["stage_s"]
    assert set(stage_s) == {"simulate", "analyse", "attack", "write"}
    assert all(isinstance(v, float) and v >= 0.0 for v in stage_s.values())


def test_run_scenario_deterministic_bundles(tmp_path: Path) -> None:
    cfg_a = parse_config(small_config(tmp_path, output_dir=str(tmp_path / "a")))
    cfg_b = parse_config(small_config(tmp_path, output_dir=str(tmp_path / "b")))
    run_scenario(cfg_a)
    run_scenario(cfg_b)

    files_a = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        blob_a = (tmp_path / "a" / rel).read_bytes()
        blob_b = (tmp_path / "b" / rel).read_bytes()
        if rel.name == "summary.json":
            sa = json.loads(blob_a)
            sb = json.loads(blob_b)
            sa.pop("metadata")
            sb.pop("metadata")
            assert sa == sb
        else:
            assert blob_a == blob_b, rel


def test_run_scenario_push_sum_skips_ergodicity_files(tmp_path: Path) -> None:
    cfg = parse_config(small_config(tmp_path, protocol="push_sum", seeds=[3]))
    summary = run_scenario(cfg)
    seed_dir = tmp_path / "out" / "seed_3"
    assert (seed_dir / "trace.jsonl").exists()
    assert not (seed_dir / "ergodicity.csv").exists()
    assert "ergodicity" not in summary["runs"][0]
    assert summary["runs"][0]["beta_convergence_round"] is None


def test_run_holds_one_seed_at_a_time(tmp_path: Path) -> None:
    """On the benchmark's 24-node graph at 200 rounds, the tracemalloc peak
    of run_scenario stays within 10% from 1 to 10 seeds: each seed writes
    its files and drops its trace before the next one runs."""
    graph = tmp_path / "g24.json"
    graphmod.save_digraph(graphmod.random_strongly_connected(24, 0.3, 7), graph)

    def scenario(seeds: int, out: str) -> ExperimentConfig:
        return parse_config({"rounds": 200, "seeds": list(range(1, seeds + 1)), "graph": {"file": str(graph)},
                             "output_dir": str(tmp_path / out)})

    run_scenario(scenario(10, "warm"))  # fills the graph's cached index arrays and numpy's small-array cache
    one, ten = (traced_peak(lambda: run_scenario(scenario(seeds, f"s{seeds}"))) for seeds in (1, 10))
    assert ten <= 1.1 * one, (one, ten)


def test_run_peaks_at_the_simulation(tmp_path: Path) -> None:
    """A one-seed, 200-round run_scenario on the benchmark's 24-node graph
    peaks within 5% of its own run_protocol call (tracemalloc): between
    stages it holds the trace and per-round scalars only, so no later stage
    stacks its temporaries on a whole-run result."""
    graph = tmp_path / "g24.json"
    graphmod.save_digraph(graphmod.random_strongly_connected(24, 0.3, 7), graph)

    def scenario(out: str) -> ExperimentConfig:
        return parse_config({"rounds": 200, "seeds": [1], "graph": {"file": str(graph)},
                             "output_dir": str(tmp_path / out)})

    cfg = scenario("run")
    g = cfg.resolve_graph()
    x0 = sample_initial_values(g.n, cfg.initials, SeedStreams(1))
    run_scenario(scenario("warm"))  # fills the graph's cached index arrays and numpy's small-array cache
    simulate = traced_peak(lambda: run_protocol(g, x0, cfg.protocol, cfg.rounds, cfg.spread, 1))
    whole = traced_peak(lambda: run_scenario(cfg))
    assert whole <= 1.05 * simulate, (simulate, whole)


# ---------------------------------------------------------------------------
# invariant checking on tampered files


def write_small_trace(tmp_path: Path) -> Path:
    cfg = parse_config(small_config(tmp_path, seeds=[1]))
    run_scenario(cfg)
    return tmp_path / "out" / "seed_1" / "trace.jsonl"


V1_FIXTURE = Path(__file__).parent / "data" / "demo_v1.jsonl"
V2_FIXTURE = Path(__file__).parent / "data" / "demo_v2.jsonl"


def tampered_copy(path: Path, line_no: int, mutate) -> Path:
    """A copy of a trace file with line line_no edited by mutate.

    mutate sees the base64 arrays of a format-v3 or v2 round line decoded
    to float64 arrays, and its edits are encoded back; a header, and a v1
    line, it sees as parsed.
    """
    lines = path.read_text().splitlines()
    record = json.loads(lines[line_no - 1])
    for key in ("alpha", "edge_w", "self_w", "sent", "state"):
        if isinstance(record.get(key), str):
            record[key] = np.frombuffer(base64.b64decode(record[key]), dtype="<f8").copy()
    mutate(record)
    for key, value in record.items():
        if isinstance(value, np.ndarray):
            record[key] = base64.b64encode(value.astype("<f8").tobytes()).decode("ascii")
    lines[line_no - 1] = json.dumps(record, sort_keys=True)
    out = path.with_name(f"tampered_{line_no}.jsonl")
    out.write_text("\n".join(lines) + "\n")
    return out


def test_check_invariants_catches_bad_weight(tmp_path: Path) -> None:
    path = write_small_trace(tmp_path)

    def bump_weight(record: dict) -> None:
        record["self_w"][0] += 1e-3

    bad = tampered_copy(path, 4, bump_weight)  # line 4 holds round k=2
    report = check_invariants(bad)
    assert not report.ok
    failed = {item.name: item.detail for item in report.items if item.status == "fail"}
    assert "column_stochasticity" in failed
    assert "round 2" in failed["column_stochasticity"]
    assert "sender 1" in failed["column_stochasticity"]


def test_check_invariants_catches_bad_product(tmp_path: Path) -> None:
    # only a v2 or v1 file records the products; a v3 read derives them
    path = tmp_path / "v2.jsonl"
    path.write_text("".join(line + "\n" for line in v2_trace_lines(read_trace(write_small_trace(tmp_path)))))
    assert check_invariants(path).ok

    def bump_product(record: dict) -> None:
        sent = record["sent"]
        sent[np.argmax(np.abs(sent))] *= 1.5

    bad = tampered_copy(path, 3, bump_product)
    report = check_invariants(bad)
    failed = {item.name for item in report.items if item.status == "fail"}
    assert failed == {"replay_consistency"}


def test_check_invariants_catches_bad_state(tmp_path: Path) -> None:
    path = write_small_trace(tmp_path)

    def bump_state(record: dict) -> None:
        record["state"][0] += 0.5  # first state row, node 1

    bad = tampered_copy(path, 5, bump_state)
    report = check_invariants(bad)
    failed = {item.name for item in report.items if item.status == "fail"}
    assert "replay_consistency" in failed or "conservation" in failed


@pytest.mark.parametrize(
    "where, index, must_fail",
    [
        ("edge_w", (5, demo_digraph().edge_position[(2, 1)]), {"column_stochasticity", "ergodicity_bound"}),
        ("states", (7, 0, 2), {"conservation"}),
    ],
    ids=["weight", "state"],
)
def test_check_invariants_fails_on_nan(where, index, must_fail) -> None:
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 20, 100.0, seed=3)
    assert check_invariants(trace).ok
    getattr(trace, where)[index] = np.nan
    failed = {item.name for item in check_invariants(trace).items if item.status == "fail"}
    assert must_fail <= failed


def test_header_only_trace(tmp_path: Path, capsys) -> None:
    path = write_small_trace(tmp_path)
    header_only = path.with_name("header_only.jsonl")
    header_only.write_text(path.read_text().splitlines()[0] + "\n")
    assert read_trace(header_only).n_rounds == 0

    assert cli_main(["check", str(header_only)]) == 0
    statuses = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert statuses == ["PASS"] * 4 + ["SKIP"]

    assert cli_main(["attack", str(header_only)]) == 2
    assert "trace has no rounds to observe" in capsys.readouterr().err


def test_check_names_state_zero_when_its_sums_are_not_finite(tmp_path: Path, capsys) -> None:
    """A trace file whose header holds a state 0 with retained values near
    the float limit, so that its sums overflow: check fails conservation at
    state 0, not "after round -1", with no numpy warning."""
    trace = run_protocol(demo_digraph(), np.arange(5.0), "decomposed", 20, 100.0, 1)
    trace.states[0, 2] = 1.7e308
    trace_path = tmp_path / "huge.jsonl"
    pushsim.write_trace(trace, trace_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["check", str(trace_path)]) == 1
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == "FAIL  conservation: state 0: sums inf/10 are not finite"
    assert [line.split()[0] for line in printed] == ["FAIL", "PASS", "PASS", "FAIL", "PASS"]


@pytest.mark.parametrize("initials", [{"dist": "uniform", "low": 1e308, "high": 1.7e308},
                                      {"dist": "constant", "value": -9e307}], ids=["uniform", "constant"])
def test_run_rejects_initials_whose_state_zero_sums_overflow(initials, tmp_path: Path, capsys) -> None:
    """Initial values whose state-0 sums cannot stay finite on the graph
    fail the config, naming initials, with exit 2, before any seed
    directory is written and with no numpy warning."""
    config = tmp_path / "huge.json"
    config.write_text(json.dumps(small_config(tmp_path, rounds=20, seeds=[1], initials=initials)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli_main(["run", "--config", str(config)]) == 2
    assert "error: initials: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # the same magnitudes a hundred times smaller give finite sums on the 5-node graph
    smaller = {key: value / 100 if isinstance(value, float) else value for key, value in initials.items()}
    assert parse_config(small_config(tmp_path, initials=smaller)).initials == smaller


def test_corrupt_line_raises_format_error(tmp_path: Path) -> None:
    path = write_small_trace(tmp_path)
    lines = path.read_text().splitlines()
    lines[2] = "definitely not json"
    bad = path.with_name("garbled.jsonl")
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="line 3"):
        read_trace(bad)
    with pytest.raises(TraceFormatError):
        check_invariants(bad)


def test_check_of_a_file_holds_no_array_that_grows_with_rounds(tmp_path: Path) -> None:
    """On the benchmark's 24-node graph (177 edges), the tracemalloc peak of
    check_invariants(path) is at most 0.30 MiB on a 60-round trace and
    under 1.5 MiB at 2,000 rounds, and grows at most 2x from 200 to 2,000
    rounds: the file is read and checked a block at a time and never held
    as a Trace."""
    g = graphmod.random_strongly_connected(24, 0.3, 7)
    assert len(g.sorted_edges) == 177
    x0 = sample_initial_values(g.n, {"dist": "uniform", "low": 0.0, "high": 50.0}, SeedStreams(1))
    peaks = {}
    for rounds in (60, 200, 2000):
        path = tmp_path / f"trace_{rounds}.jsonl"
        pushsim.write_trace(run_protocol(g, x0, "decomposed", rounds, 100.0, 1), path)
        peaks[rounds] = traced_peak(lambda: check_invariants(path))
        assert check_invariants(path).ok
    assert peaks[60] <= 0.30 and peaks[2000] < 1.5 and peaks[2000] <= 2 * peaks[200], peaks


# ---------------------------------------------------------------------------
# comparison


def test_compare_protocols(tmp_path: Path) -> None:
    cfg = parse_config(small_config(tmp_path, rounds=40))
    payload = compare_protocols(cfg)
    out = tmp_path / "out"
    assert payload["protocols"] == ["push_sum", "decomposed"]

    lines = (out / "compare.csv").read_text().splitlines()
    assert lines[0] == f"# config_hash={cfg.config_hash()}"
    assert lines[1] == "seed,k,mse_push_sum,mse_decomposed"
    first = lines[2].split(",")
    assert first[:2] == ["1", "0"]
    assert first[2] != ""  # push-sum is defined from the start
    assert first[3] == ""  # decomposed estimates start undefined
    assert len(lines) == 2 + 2 * 41

    saved = json.loads((out / "compare.json").read_text())
    for seed in (1, 2):
        expected = sample_initial_values(5, cfg.initials, SeedStreams(seed))
        assert np.allclose(saved["x0"][str(seed)], expected, atol=0)


def test_compare_protocols_unknown_tag(tmp_path: Path) -> None:
    cfg = parse_config(small_config(tmp_path))
    with pytest.raises(ConfigError, match="registered"):
        compare_protocols(cfg, ["push_sum", "teleport"])
    with pytest.raises(ConfigError, match="protocols: duplicates"):
        compare_protocols(cfg, ["push_sum", "push_sum"])
    assert not (tmp_path / "out" / "compare.csv").exists()
    argv = ["compare", "--graph", "demo", "--rounds", "5", "--output-dir", str(tmp_path / "cli")]
    assert cli_main(argv + ["--protocols", "push_sum,push_sum"]) == 2


# ---------------------------------------------------------------------------
# command line


def test_cli_gen_graph(tmp_path: Path) -> None:
    demo_path = tmp_path / "demo.json"
    assert cli_main(["gen-graph", "--demo", "--out", str(demo_path)]) == 0
    assert load_digraph(demo_path) == demo_digraph()

    rand_path = tmp_path / "rand.json"
    code = cli_main(
        ["gen-graph", "--n", "6", "--extra-edge-prob", "0.2", "--seed", "3", "--out", str(rand_path)]
    )
    assert code == 0
    assert load_digraph(rand_path).n == 6


def test_cli_gen_graph_negative_seed_exits_two(tmp_path: Path, capsys) -> None:
    out = tmp_path / "g.json"
    assert cli_main(["gen-graph", "--n", "6", "--seed", "-1", "--out", str(out)]) == 2
    assert "seed: must be a non-negative integer, got -1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_calls_share_one_parser_and_no_values(tmp_path: Path, capsys) -> None:
    assert cli.build_parser() is cli.build_parser()

    assert cli_main(["attack", str(V1_FIXTURE), "--c", "7"]) == 0
    assert "above c=7.0" in capsys.readouterr().out
    assert cli_main(["attack", str(V1_FIXTURE)]) == 0
    assert "above c=500.0" in capsys.readouterr().out

    with pytest.raises(SystemExit) as exc:
        cli_main(["check", str(V1_FIXTURE), "--no-such-flag"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-such-flag" in capsys.readouterr().err
    assert cli_main(["check", str(V1_FIXTURE)]) == 0
    assert "FAIL" not in capsys.readouterr().out

    run_out, cmp_out = tmp_path / "run", tmp_path / "cmp"
    argv = ["run", "--graph", "demo", "--protocol", "push_sum", "--rounds", "7", "--seeds", "4", "--c", "9"]
    assert cli_main(argv + ["--output-dir", str(run_out)]) == 0
    ran = json.loads((run_out / "config.json").read_text())
    assert (ran["protocol"], ran["seeds"], ran["c"]) == ("push_sum", [4], 9.0)
    assert cli_main(["compare", "--graph", "demo", "--rounds", "5", "--output-dir", str(cmp_out)]) == 0
    assert "for protocols push_sum, decomposed" in capsys.readouterr().out
    saved = json.loads((cmp_out / "compare.json").read_text())
    fresh = load_config(None, {"graph": {"demo": True}, "rounds": 5, "output_dir": str(cmp_out)})
    assert saved["config_hash"] == fresh.config_hash()
    assert saved["protocols"] == ["push_sum", "decomposed"] and saved["seeds"] == [1, 2, 3]
    assert len((cmp_out / "compare.csv").read_text().splitlines()) == 2 + 3 * 6


def test_cli_run_check_attack(tmp_path: Path, capsys) -> None:
    out = tmp_path / "bundle"
    code = cli_main(
        [
            "run",
            "--rounds", "60",
            "--seeds", "7",
            "--graph", "demo",
            "--output-dir", str(out),
        ]
    )
    assert code == 0
    trace_path = out / "seed_7" / "trace.jsonl"
    assert trace_path.exists()

    assert cli_main(["check", str(trace_path)]) == 0
    printed = capsys.readouterr().out
    assert "PASS" in printed and "conservation" in printed

    json_out = tmp_path / "attack.json"
    csv_out = tmp_path / "attack.csv"
    code = cli_main(
        ["attack", str(trace_path), "--target", "5", "--json", str(json_out), "--csv", str(csv_out)]
    )
    assert code == 0
    assert json.loads(json_out.read_text())["target"] == 5
    assert csv_out.read_text().splitlines()[0] == "k,estimate,abs_error"


def test_cli_check_tampered_exits_one(tmp_path: Path, capsys) -> None:
    # p[0, 3] is off the demo edges: only a v1 file can hold it, and no
    # Trace array keeps it, so only zero_pattern sees it
    path = tmp_path / "demo_v1.jsonl"
    path.write_text(V1_FIXTURE.read_text())

    def bump_weight(record: dict) -> None:
        record["p"][3] += 1e-3

    bad = tampered_copy(path, 3, bump_weight)
    assert read_trace(bad).stray_weight == (1, 1, 4)
    assert cli_main(["check", str(bad)]) == 1
    assert "FAIL  zero_pattern: round 1: weight on missing edge (1, 4)" in capsys.readouterr().out
    failed = {item.name for item in check_invariants(bad).items if item.status == "fail"}
    assert failed == {"zero_pattern"}


def test_cli_check_tampered_edge_weight_exits_one(tmp_path: Path, capsys) -> None:
    path = write_small_trace(tmp_path)

    def bump_edge(record: dict) -> None:
        record["edge_w"][0] += 1e-3

    bad = tampered_copy(path, 3, bump_edge)
    assert cli_main(["check", str(bad)]) == 1
    assert "FAIL  column_stochasticity: round 1" in capsys.readouterr().out


def fixture_matches_run_protocol(fixture: Path) -> None:
    """A committed 5-round demo trace passes check and holds run_protocol's bits, sent included."""
    assert cli_main(["check", str(fixture)]) == 0
    trace = read_trace(fixture)
    assert trace.protocol == "decomposed" and trace.n_rounds == 5 and trace.graph == demo_digraph()
    fresh = run_protocol(trace.graph, trace.x0, trace.protocol, trace.n_rounds, trace.spread, trace.seed)
    assert trace.stray_weight is None
    for name in ("edge_w", "self_w", "alpha", "states", "sent"):
        assert getattr(trace, name).tobytes() == getattr(fresh, name).tobytes(), name


def test_v1_fixture_checks_and_matches_run_protocol(capsys) -> None:
    fixture_matches_run_protocol(V1_FIXTURE)


def test_v2_fixture_checks_and_matches_run_protocol(tmp_path: Path, capsys) -> None:
    fixture_matches_run_protocol(V2_FIXTURE)
    # the file is the v2 oracle's: a format 2 header, and records that must hold the products
    text = V2_FIXTURE.read_text()
    header = json.loads(text.splitlines()[0])
    assert header["format"] == 2
    lines = v2_trace_lines(read_trace(V2_FIXTURE), {"config_hash": header["config_hash"]})
    assert text == "".join(line + "\n" for line in lines)
    path = tmp_path / "demo_v2.jsonl"
    path.write_text(text)
    with pytest.raises(TraceFormatError, match="line 4 record invalid: missing sent"):
        read_trace(tampered_copy(path, 4, lambda r: r.pop("sent")))


@pytest.mark.parametrize(
    "line_no, mutate, needle",
    [
        (3, lambda r: r.update(alpha="not base64!"), "line 3 record invalid: alpha is not base64"),
        (3, lambda r: r.update(alpha=r["alpha"][:-1]), "line 3 record invalid: alpha holds 32 bytes, expected 40"),
        (4, lambda r: r.pop("self_w"), "line 4 record invalid: missing self_w"),
        (5, lambda r: r.update(k=4), "line 5 record invalid: k=4, expected 3"),
        (1, lambda r: r.update(format=4), "line 1 header invalid: unknown format 4"),
        (1, lambda r: r.update(x0=r["x0"][:-4]), "line 1 header invalid: x0 holds 39 bytes, expected 40"),
        (1, lambda r: r.update(state0=[0.0] * 20), "line 1 header invalid: state0 is not base64"),
        (1, lambda r: r.update(seed=1.5), "line 1 header invalid: seed: must be a non-negative integer, got 1.5"),
        (1, lambda r: r.update(seed=True), "line 1 header invalid: seed: must be a non-negative integer, got True"),
        (1, lambda r: r.update(seed="1"), "line 1 header invalid: seed: must be a non-negative integer, got '1'"),
        (1, lambda r: r.update(seed=-1), "line 1 header invalid: seed: must be a non-negative integer, got -1"),
        (1, lambda r: r.update(n=5.9), "line 1 header invalid: n: must be a non-negative integer, got 5.9"),
        (1, lambda r: r.update(n="5"), "line 1 header invalid: n: must be a non-negative integer, got '5'"),
        (1, lambda r: r.update(M="abc"), "line 1 header invalid: M: must be a number, got 'abc'"),
        (1, lambda r: r.update(M=True), "line 1 header invalid: M: must be a number, got True"),
        (1, lambda r: r.update(M=[100.0]), "line 1 header invalid: M: must be a number, got [100.0]"),
    ],
    ids=["bad_base64", "truncated", "missing_key", "k_order", "format_4", "x0_truncated", "state0_text",
         "seed_float", "seed_bool", "seed_string", "seed_negative", "n_float", "n_string", "M_string", "M_bool",
         "M_list"],
)
def test_v2_rejections_exit_two(tmp_path: Path, capsys, line_no, mutate, needle) -> None:
    bad = tampered_copy(write_small_trace(tmp_path), line_no, mutate)
    with pytest.raises(TraceFormatError, match=re.escape(needle)):
        read_trace(bad)
    capsys.readouterr()
    for command in ("check", "attack"):
        assert cli_main([command, str(bad)]) == 2
        assert needle in capsys.readouterr().err


def stringify(values: list) -> list:
    return [str(v) for v in values]


@pytest.mark.parametrize("fixture", [V1_FIXTURE, V2_FIXTURE], ids=["v1", "v2"])
@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda h: h.update(x0=stringify(h["x0"])), "x0[0]: must be a number, got '"),
        (lambda h: h["x0"].__setitem__(2, True), "x0[2]: must be a number, got True"),
        (lambda h: h.update(x0="46.08"), "x0: must be a list of numbers, got '46.08'"),
        (lambda h: h["state0"].update(x_beta_2=stringify(h["state0"]["x_beta_2"])),
         "state0.x_beta_2[0]: must be a number, got '2"),
        (lambda h: h["state0"]["x_alpha_1"].__setitem__(4, None), "state0.x_alpha_1[4]: must be a number, got None"),
        (lambda h: h.update(M="abc"), "M: must be a number, got 'abc'"),
    ],
    ids=["x0_strings", "x0_bool", "x0_string", "state0_strings", "state0_null", "M_string"],
)
def test_older_header_numbers_exit_two(tmp_path: Path, capsys, fixture, mutate, needle) -> None:
    """A v1 or v2 header's x0, state0 rows and M take JSON numbers only,
    never a string, a bool or null coerced to a float."""
    path = tmp_path / fixture.name
    path.write_text(fixture.read_text())
    bad = tampered_copy(path, 1, mutate)
    with pytest.raises(TraceFormatError, match=re.escape(f"line 1 header invalid: {needle}")):
        read_trace(bad)
    capsys.readouterr()
    for command in ("check", "attack"):
        assert cli_main([command, str(bad)]) == 2
        assert needle in capsys.readouterr().err


def first_transmission(record: dict) -> dict:
    return record["transmitted"][0]


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda r: r["p"].__setitem__(0, str(r["p"][0])), "p[0]: must be a number, got '"),
        (lambda r: r["alpha"].__setitem__(1, str(r["alpha"][1])), "alpha[1]: must be a number, got '"),
        (lambda r: r.update(alpha=stringify(r["alpha"])), "alpha[0]: must be a number, got '"),
        (lambda r: first_transmission(r).update(value=str(first_transmission(r)["value"])),
         "transmitted[0].value: must be a number, got '"),
        (lambda r: first_transmission(r).update(value=True), "transmitted[0].value: must be a number, got True"),
        (lambda r: r.update(k="1"), "k: must be an integer, got '1'"),
        (lambda r: r.update(k=1.0), "k: must be an integer, got 1.0"),
        (lambda r: first_transmission(r).update(l="1"), "transmitted[0].l: must be an integer, got '1'"),
        (lambda r: first_transmission(r).update(l=True), "transmitted[0].l: must be an integer, got True"),
        (lambda r: first_transmission(r).update({"from": 2.0}), "transmitted[0].from: must be an integer, got 2.0"),
        (lambda r: first_transmission(r).update(to="1"), "transmitted[0].to: must be an integer, got '1'"),
        (lambda r: r.update(p=r["p"][:-1]), "p: holds 24 entries, expected 25"),
    ],
    ids=["p_string", "alpha_string", "alpha_strings", "value_string", "value_bool", "k_string", "k_float",
         "l_string", "l_bool", "from_float", "to_string", "p_short"],
)
def test_v1_round_numbers_exit_two(tmp_path: Path, capsys, mutate, needle) -> None:
    """A v1 round line's p, alpha and transmitted values take JSON numbers only,
    and k, from, to and l JSON integers, never a string or a bool coerced."""
    path = tmp_path / V1_FIXTURE.name
    path.write_text(V1_FIXTURE.read_text())
    bad = tampered_copy(path, 3, mutate)
    with pytest.raises(TraceFormatError, match=re.escape(f"line 3 record invalid: {needle}")):
        read_trace(bad)
    capsys.readouterr()
    for command in ("check", "attack"):
        assert cli_main([command, str(bad)]) == 2
        assert needle in capsys.readouterr().err


def replay_item(trace: Trace) -> tuple[str, str]:
    item = next(item for item in check_invariants(trace).items if item.name == "replay_consistency")
    return item.status, item.detail


@settings(max_examples=40, deadline=None)
@given(trace=protocol_traces(), data=st.data())
def test_blockwise_replay_check_matches_one_shot_oracle(trace: Trace, data) -> None:
    """replay_consistency compares products a block of rounds at a time and
    reports the same status and detail as one comparison of every product."""
    kind = data.draw(st.sampled_from(["derived", "spoiled", "tampered"]), label="kind")
    if kind == "spoiled":
        trace = spoiled(trace, data.draw(st.integers(1, trace.graph.n), label="target"), data)
    elif kind == "tampered":
        sent = trace.sent.copy()
        index = tuple(data.draw(st.integers(0, size - 1)) for size in sent.shape)
        sent[index] *= data.draw(st.sampled_from([1.0 + 1e-12, 1.0 + 1e-6, 1.5, -1.0]), label="factor")
        trace = Trace(trace.protocol, trace.graph, trace.x0, trace.seed, trace.spread, trace.edge_w,
                      trace.self_w, trace.alpha, trace.states, sent)
    assert replay_item(trace) == one_shot_replay_consistency(trace)


@settings(max_examples=60, deadline=None)
@given(trace=block_edge_traces(), data=st.data())
def test_blockwise_check_matches_one_shot_oracle(trace: Trace, data) -> None:
    """check_invariants, a block of rounds at a time, reports every check's
    status and detail, the failing round included, as whole-run passes do,
    on round counts at the block edges and on spoiled traces."""
    trace = tampered(trace, data)
    with np.errstate(all="ignore"):
        report = check_invariants(trace)
        expected = one_shot_check_invariants(trace)
    assert [(item.name, item.status, item.detail) for item in report.items] == expected


def report_or_error(call) -> list[tuple[str, str, str]] | str:
    try:
        report = call()
    except TraceFormatError as exc:
        return str(exc)
    return report if isinstance(report, list) else [(item.name, item.status, item.detail) for item in report.items]


@settings(max_examples=150, deadline=None)
@given(trace=block_edge_traces(), fmt=st.sampled_from([1, 2, 3]), data=st.data())
def test_streaming_check_matches_one_shot_oracle_on_files(tmp_path_factory, trace, fmt, data) -> None:
    """check_invariants(path), which reads the file a block at a time and
    never builds a Trace, on v3, v2 and v1 files of 0, 1, B-1, B, B+1 or
    2B+1 rounds (B = ROUND_BLOCK) of either protocol, clean, tampered (v1
    files also with weights off the edges) or with one line spoiled, gives
    every check's status and detail as one_shot_check_invariants gives them
    on read_trace's Trace, or read_trace's TraceFormatError text.  States
    that drift by less than the tolerance over a block, but more over the
    run, are a variant of their own: only a replay carried across blocks
    from state 0 sees them."""
    variant = data.draw(st.sampled_from(["clean", "tampered", "drift", "corrupt"]), label="variant")
    if variant in ("tampered", "drift"):
        trace = tampered(trace, data, ("drift",) if variant == "drift" else TAMPER_KINDS)
    if fmt == 3:
        lines = list(trace_lines(trace))
    elif fmt == 2:
        lines = v2_trace_lines(trace)
    else:
        p = dense_weights(trace)
        off = np.setdiff1d(np.arange(trace.graph.n ** 2), trace.graph.weight_slots)
        if variant == "tampered" and off.size:
            for _ in range(data.draw(st.integers(0, 2), label="stray weights")):
                p[data.draw(st.integers(0, trace.n_rounds - 1), label="stray round")].reshape(-1)[
                    data.draw(st.sampled_from(off.tolist()), label="stray slot")] = data.draw(
                    st.sampled_from([0.5, -1e-300, math.nan]), label="stray value")
        lines = reference_trace_lines(trace, p)
    if data.draw(st.integers(0, 5), label="header only") == 0:
        lines = lines[:1]
    if variant == "corrupt":
        lines = corrupt_line(lines, data)
    path = tmp_path_factory.mktemp("stream") / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    with np.errstate(all="ignore"):
        expected = report_or_error(lambda: one_shot_check_invariants(read_trace(path)))
        assert report_or_error(lambda: check_invariants(path)) == expected


def test_blockwise_replay_check_matches_oracle_on_v2_fixture(tmp_path: Path) -> None:
    """Every single-product tamper of the v2 fixture, and the file itself."""
    trace = read_trace(V2_FIXTURE)
    assert replay_item(trace) == one_shot_replay_consistency(trace) == ("pass", "states and products match a fresh replay")
    recorded = trace.recorded_sent
    for index in np.ndindex(recorded.shape):
        trace.recorded_sent = recorded.copy()
        trace.recorded_sent[index] += 1.0
        assert replay_item(trace) == one_shot_replay_consistency(trace)
        assert replay_item(trace)[1] == f"round {index[0]}: transmitted product on edge " \
            f"{trace.graph.sorted_edges[index[1]]} diverges from replay"


EDGE_NEEDLE = "edges[0]: must be a pair of integers (receiver, sender), got "
N_NEEDLE = "n: must be a positive integer, got "


@pytest.mark.parametrize(
    "field, value, needle",
    [
        ("edges", [], EDGE_NEEDLE + "[]"),
        ("edges", [1], EDGE_NEEDLE + "[1]"),
        ("edges", [1, 2, 3], EDGE_NEEDLE + "[1, 2, 3]"),
        ("edges", ["1", "2"], EDGE_NEEDLE + "['1', '2']"),
        ("edges", [1.5, 2], EDGE_NEEDLE + "[1.5, 2]"),
        ("n", "5", N_NEEDLE + "'5'"),
        ("n", 5.0, N_NEEDLE + "5.0"),
        ("n", True, N_NEEDLE + "True"),
        ("protocol", ["decomposed"], "protocol: must be a string, got ['decomposed']"),
    ],
    ids=["edge_empty", "edge_short", "edge_long", "edge_strings", "edge_float", "n_string", "n_float", "n_bool",
         "protocol_list"],
)
def test_malformed_graph_or_protocol_exits_two(tmp_path: Path, capsys, field, value, needle) -> None:
    """A trace header or a graph file whose graph or protocol has the wrong JSON
    type is rejected with the field's name, never coerced or crashed on."""

    def mutate(header: dict) -> None:
        if field == "edges":
            header["graph"]["edges"][0] = value
        elif field == "n":
            header["graph"]["n"] = value
        else:
            header["protocol"] = value

    bad = tampered_copy(write_small_trace(tmp_path), 1, mutate)
    capsys.readouterr()
    for command in ("check", "attack"):
        assert cli_main([command, str(bad)]) == 2
        assert needle in capsys.readouterr().err
    if field != "protocol":
        graph_path = tmp_path / "graph.json"
        graph_path.write_text(json.dumps(json.loads(bad.read_text().splitlines()[0])["graph"]))
        run = ["run", "--graph", str(graph_path), "--rounds", "5", "--seeds", "1", "--output-dir", str(tmp_path / "run")]
        assert cli_main(run) == 2
        assert needle in capsys.readouterr().err


@pytest.mark.parametrize(
    "value, needle",
    [
        ("nan", "c: must be finite, got nan"),
        ("inf", "c: must be finite, got inf"),
        ("-5", "c: must be positive, got -5.0"),
        ("0", "c: must be positive, got 0.0"),
    ],
    ids=["nan", "inf", "negative", "zero"],
)
def test_cli_attack_bad_threshold_exits_two(value, needle, capsys) -> None:
    assert cli_main(["attack", str(V1_FIXTURE), f"--c={value}"]) == 2
    assert needle in capsys.readouterr().err


def test_cli_error_paths(tmp_path: Path, capsys) -> None:
    bad_cfg = tmp_path / "bad.json"
    bad_cfg.write_text(json.dumps({"mystery": 1}))
    assert cli_main(["run", "--config", str(bad_cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err

    assert cli_main(["check", str(tmp_path / "missing.jsonl")]) == 2
    assert cli_main(["run", "--rounds", "0", "--output-dir", str(tmp_path / "x")]) == 2


def test_cli_compare(tmp_path: Path) -> None:
    out = tmp_path / "cmp"
    code = cli_main(
        [
            "compare",
            "--rounds", "30",
            "--seeds", "1",
            "--graph", "demo",
            "--output-dir", str(out),
            "--protocols", "push_sum,decomposed",
        ]
    )
    assert code == 0
    assert (out / "compare.csv").exists()


# ---------------------------------------------------------------------------
# every reader on mutated input

FUZZ_CONFIG = {
    "protocol": "decomposed", "rounds": 5, "seeds": [1], "M": 100.0, "c": 500.0,
    "initials": {"dist": "uniform", "low": 0.0, "high": 50.0},
    "graph": {"generator": {"n": 4, "extra_edge_prob": 0.5, "seed": 0}},
    "attack_target": 2, "L": 3, "n": 4, "output_dir": "out",
}
# values a mutated field takes: wrong JSON types, integral floats, out-of-range and empty values
FUZZ_POOL = [None, True, False, 0, -1, 3, 2.5, 3.0, 1e308, "", "3", "x", [], [1], [1, 2], {}, {"n": 3}]


# the pushsim commands that read each input, its path appended
FUZZ_COMMANDS = {
    "config": [["run", "--config"]],
    "graph": [["run", "--rounds", "3", "--seeds", "1", "--output-dir", "graph_out", "--graph"]],
    **{name: [["check"], ["attack"]] for name in ("v3", "v1", "v2")},
}
FUZZ_TEXTS: dict[str, str] = {}


def fuzz_text(tmp_path_factory, name: str) -> str:
    """The unmutated text of input name, made once per session."""
    if not FUZZ_TEXTS:
        made = tmp_path_factory.mktemp("fuzz_made")
        run_scenario(parse_config({"rounds": 20, "seeds": [1], "output_dir": str(made / "out")}))
        FUZZ_TEXTS.update(config=json.dumps(FUZZ_CONFIG), graph=json.dumps(graphmod.digraph_to_dict(demo_digraph())),
                          v3=(made / "out" / "seed_1" / "trace.jsonl").read_text(), v1=V1_FIXTURE.read_text(),
                          v2=V2_FIXTURE.read_text())
    return FUZZ_TEXTS[name]


def drawn_path(obj, data) -> tuple:
    """A path to an entry of a JSON object, drawn one level at a time
    through hypothesis' data, so shallow fields come up as often as deep ones."""
    path, node = (), obj
    while True:
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))), label="key")
        path, node = path + (key,), node[key]
        if not isinstance(node, (dict, list)) or not node or data.draw(st.booleans(), label="stop"):
            return path


def mutated(text: str, data) -> bytes:
    """text with one mutation drawn through hypothesis' data: a field of one
    JSON line replaced by a FUZZ_POOL value or deleted, one byte flipped, or
    the file truncated."""
    raw = text.encode("utf-8")
    kind = data.draw(st.sampled_from(["replace", "replace", "delete", "flip", "truncate"]), label="mutation")
    if kind == "flip":
        at = data.draw(st.integers(0, len(raw) - 1), label="byte")
        return raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255), label="xor")]) + raw[at + 1 :]
    if kind == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1), label="cut")]
    lines = text.splitlines()
    line_no = data.draw(st.integers(0, len(lines) - 1), label="line")
    obj = json.loads(lines[line_no])
    path = drawn_path(obj, data)
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(st.sampled_from(FUZZ_POOL), label="value")
    lines[line_no] = json.dumps(obj)
    return "\n".join(lines).encode("utf-8") + b"\n"


@pytest.mark.parametrize("name", list(FUZZ_COMMANDS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_inputs_exit_0_1_or_2(tmp_path_factory, name, data) -> None:
    """run, check and attack on a mutated config, graph file or trace file of
    any format return or exit 0, 1 or 2, and never raise."""
    where = tmp_path_factory.mktemp("fuzz")
    path = where / "input.json"
    path.write_bytes(mutated(fuzz_text(tmp_path_factory, name), data))
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore")
        mp.chdir(where)
        mp.setenv(ENV_OUTPUT_ROOT, str(where))
        for command in FUZZ_COMMANDS[name]:
            try:
                code = cli_main(command + [str(path)])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
            assert code in (0, 1, 2), (command, code)
