"""End-to-end acceptance checks.

Each test prints one ``ACCEPTANCE <n>: PASS`` / ``FAIL`` line on the real
stdout so the verdicts survive pytest's capture, then asserts as usual.
"""
from __future__ import annotations

import json
import time
from contextlib import contextmanager
from functools import lru_cache

import numpy as np
import pytest

from pushsim import (
    attack_report,
    build_coalition_view,
    build_digraph,
    coalition_reconstruct,
    conserved_sums,
    convergence_round,
    demo_digraph,
    eavesdrop,
    eavesdropper_diagnostics,
    equivalent_trace,
    forward_product,
    is_strongly_connected,
    parse_config,
    replay,
    run_metrics,
    run_protocol,
    run_scenario,
)
from pushsim.protocol import (
    SeedStreams,
    init_decomposed,
    retained_ratio_series,
    sample_initial_values,
    sample_round_weights,
)
from pushsim.graph import random_strongly_connected

from helpers import augmented_matrix, compare_views, decomposed_round, stack_state, weight_matrix

DEMO = demo_digraph()
INITIALS = {"dist": "uniform", "low": 0.0, "high": 50.0}


@contextmanager
def criterion(num: int, cap):
    """Announce the verdict outside pytest's capture so it always prints."""
    try:
        yield
    except BaseException:
        with cap.disabled():
            print(f"ACCEPTANCE {num}: FAIL", flush=True)
        raise
    with cap.disabled():
        print(f"ACCEPTANCE {num}: PASS", flush=True)


@lru_cache(maxsize=None)
def demo_run(protocol: str, seed: int, rounds: int = 500):
    x0 = sample_initial_values(DEMO.n, INITIALS, SeedStreams(seed))
    return run_protocol(DEMO, x0, protocol, rounds, 100.0, seed)


def test_criterion_1_convergence_within_budget(capsys) -> None:
    """Both protocols reach the average on 20 seeds, fast enough."""
    with criterion(1, capsys):
        started = time.perf_counter()
        traces = [
            demo_run(protocol, seed)
            for protocol in ("push_sum", "decomposed")
            for seed in range(1, 21)
        ]
        elapsed = time.perf_counter() - started
        for trace in traces:
            metrics = run_metrics(trace)
            assert convergence_round(metrics.abs_error, tol=1e-8) is not None, (
                trace.protocol,
                trace.seed,
            )
            if trace.protocol == "decomposed":
                beta_err = np.abs(retained_ratio_series(trace) - metrics.target)
                assert convergence_round(beta_err[:, None], tol=1e-8) is not None, trace.seed
        assert elapsed < 5.0, f"40 runs took {elapsed:.2f}s"


def test_criterion_2_mass_conservation(capsys) -> None:
    """Both coordinate sums stay at their initial values every round."""
    with criterion(2, capsys):
        for protocol in ("push_sum", "decomposed"):
            for seed in range(1, 21):
                trace = demo_run(protocol, seed)
                s1, s2 = conserved_sums(trace)
                total = trace.x0.sum()
                if protocol == "push_sum":
                    expected1, expected2 = total, float(DEMO.n)
                else:
                    expected1, expected2 = 2.0 * total, 2.0 * float(DEMO.n)
                assert abs(s1[0] - expected1) <= 1e-9 * max(1.0, abs(expected1))
                assert abs(s2[0] - expected2) <= 1e-9 * max(1.0, abs(expected2))
                assert np.all(np.abs(s1 - s1[0]) <= 1e-9 * max(1.0, abs(s1[0])))
                assert np.all(np.abs(s2 - s2[0]) <= 1e-9 * max(1.0, abs(s2[0])))


def test_criterion_3_ergodic_contraction(capsys) -> None:
    """Accumulated round matrices contract under the realized bound."""
    with criterion(3, capsys):
        for seed in range(1, 11):
            trace = demo_run("decomposed", seed, rounds=501)
            report = forward_product(trace)
            assert report.rounds[-1] == 500
            assert np.all(report.delta <= report.bound + 1e-12), int(trace.seed)
            assert report.delta[-1] < 1e-6, float(report.delta[-1])


def test_criterion_4_eavesdropper_beats_plain_protocol(capsys) -> None:
    """Against undecomposed traffic the wiretap recovers the target exactly."""
    with criterion(4, capsys):
        for seed in range(1, 21):
            trace = demo_run("push_sum", seed)
            obs = eavesdrop(trace, 5)
            assert abs(obs.estimates[-1] - trace.x0[4]) < 1e-6, seed


def test_criterion_5_decomposition_defeats_eavesdropper(capsys) -> None:
    """Decomposed runs blow the wiretap error past c, and the error law holds."""
    with criterion(5, capsys):
        threshold = 500.0
        seeds_exceeding = []
        for seed in range(1, 101):
            trace = demo_run("decomposed", seed)
            truth = trace.x0[4]
            report = attack_report(trace, 5, threshold)
            if report["post_transient_exceedance_rounds"]:
                seeds_exceeding.append(seed)

            obs = eavesdrop(trace, 5)
            diag = eavesdropper_diagnostics(trace, 5, threshold)
            observed = np.abs(obs.estimates - truth)
            defined = ~np.isnan(obs.estimates)
            gap = np.abs(observed[defined] - diag.predicted_error[defined])
            allowed = 1e-9 * (1.0 + observed[defined] + diag.predicted_error[defined])
            assert np.all(gap <= allowed), seed
        assert seeds_exceeding, "no seed pushed the wiretap past the threshold"


def test_criterion_6_observational_equivalence(capsys) -> None:
    """Shifted initial values leave the outside view numerically identical."""
    with criterion(6, capsys):
        rng = np.random.default_rng(2218)
        situations = set()
        for _ in range(50):
            seed = int(rng.integers(1, 10_000))
            i = int(rng.integers(1, 6))
            partners = list(DEMO.in_neighbors[i]) + list(DEMO.out_neighbors[i])
            m = int(partners[rng.integers(len(partners))])
            e = float(rng.choice([-100.0, -1.0, 1.0, 100.0]))
            situations.add("in" if m in DEMO.in_neighbors[i] else "out")

            x0 = sample_initial_values(DEMO.n, INITIALS, SeedStreams(seed))
            trace = run_protocol(DEMO, x0, "decomposed", 200, 100.0, seed)
            rewritten = equivalent_trace(trace, i, m, e)

            assert rewritten.x0[i - 1] == pytest.approx(x0[i - 1] + e)
            assert rewritten.x0[m - 1] == pytest.approx(x0[m - 1] - e)
            assert rewritten.x0.sum() == pytest.approx(x0.sum(), abs=1e-9)

            coalition = set(DEMO.nodes) - {i, m}
            view_a = build_coalition_view(replay(trace), coalition)
            view_b = build_coalition_view(replay(rewritten), coalition)
            assert compare_views(view_a, view_b, rtol=1e-12, atol=1e-12), (seed, i, m, e)
        assert situations == {"in", "out"}


def test_criterion_7_surrounded_node_is_reconstructed(capsys) -> None:
    """A coalition holding every neighbor of node 5 recovers its initial value."""
    with criterion(7, capsys):
        for seed in range(1, 11):
            trace = demo_run("decomposed", seed)
            view = build_coalition_view(trace, {1, 2, 4})
            estimate = coalition_reconstruct(view, 5)
            assert abs(estimate - trace.x0[4]) < 1e-4, seed


def test_criterion_8_cross_module_consistency(capsys) -> None:
    """Matrix form vs elementwise updates, and connectivity vs a BFS oracle."""
    with criterion(8, capsys):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n = int(rng.integers(3, 7))
            g = random_strongly_connected(n, rng.uniform(0.1, 0.5), int(rng.integers(1 << 30)))
            streams = SeedStreams(int(rng.integers(1 << 30)))
            state = init_decomposed(rng.uniform(-50, 50, n), 100.0, streams)
            edge_w, self_w, alpha = sample_round_weights(g, int(rng.integers(0, 4)), 100.0, streams)
            p = weight_matrix(g, edge_w, self_w)
            nxt = decomposed_round(p, alpha, state)
            big = augmented_matrix(p, alpha)
            for before, after in zip(stack_state(state), stack_state(nxt)):
                assert np.allclose(big @ before, after, rtol=1e-12, atol=1e-12)

        def bfs_strongly_connected(n: int, edges: set) -> bool:
            adj: dict = {v: [] for v in range(1, n + 1)}
            radj: dict = {v: [] for v in range(1, n + 1)}
            for j, i in edges:
                adj[i].append(j)
                radj[j].append(i)

            def covers(start, nbrs):
                seen = {start}
                frontier = [start]
                while frontier:
                    node = frontier.pop()
                    for nxt in nbrs[node]:
                        if nxt not in seen:
                            seen.add(nxt)
                            frontier.append(nxt)
                return len(seen) == n

            return covers(1, adj) and covers(1, radj)

        from itertools import combinations, permutations

        for n in (2, 3):
            pairs = [(j, i) for i, j in permutations(range(1, n + 1), 2)]
            for r in range(len(pairs) + 1):
                for subset in combinations(pairs, r):
                    g = build_digraph(n, subset)
                    assert is_strongly_connected(g) == bfs_strongly_connected(n, set(subset))

        sample_rng = np.random.default_rng(42)
        for n in (4, 5, 6):
            pairs = [(j, i) for i, j in permutations(range(1, n + 1), 2)]
            for _ in range(300):
                density = sample_rng.uniform(0.05, 0.6)
                subset = {pair for pair in pairs if sample_rng.random() < density}
                g = build_digraph(n, subset)
                assert is_strongly_connected(g) == bfs_strongly_connected(n, subset)


def test_criterion_9_bundles_are_reproducible(tmp_path, capsys) -> None:
    """Two scenario runs produce byte-identical bundles, timestamps aside."""
    with criterion(9, capsys):
        bundles = []
        for name in ("first", "second"):
            cfg = parse_config(
                {
                    "rounds": 200,
                    "seeds": [1, 2, 3],
                    "graph": {"demo": True},
                    "output_dir": str(tmp_path / name),
                }
            )
            run_scenario(cfg)
            bundles.append(tmp_path / name)

        first, second = bundles
        rel_a = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
        rel_b = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
        assert rel_a == rel_b and rel_a
        for rel in rel_a:
            blob_a = (first / rel).read_bytes()
            blob_b = (second / rel).read_bytes()
            if rel.name == "summary.json":
                doc_a = json.loads(blob_a)
                doc_b = json.loads(blob_b)
                doc_a.pop("metadata")
                doc_b.pop("metadata")
                assert doc_a == doc_b
            else:
                assert blob_a == blob_b, rel
