"""The layer table: which pushsim functions the traced run wraps.

Each row names one function by module and qualified name, the statistics
reported for it, and the workloads on which its span must fire.  DESIGN.md
says which end-to-end metric each row should move.  Metric names are
``<module>.<qualname>.<stat>``:

* ``s``        self time over the traced run: span time minus the time of
               wrapped calls made inside it;
* ``calls``    exact number of calls;
* ``bytes``    exact size of the file the call wrote (``path_arg`` names
               the positional argument that holds the path);
* ``alloc_mb`` tracemalloc peak, in MiB, of one call made during one op,
               measured outside the timed and traced passes.

The traced run covers one set-up plus a fixed number of ops, so a layer
that only set-up calls (``graph.random_strongly_connected``, or the trace
writing that ``audit_rand24`` does before its ops) still shows.  A
function that no longer exists is reported as absent with value 0; a
function that exists but whose span never fires on a workload listed in
``fires_on`` fails the traced run.
"""
from __future__ import annotations

from typing import NamedTuple

SWEEP, BUNDLE, AUDIT = "sweep_demo", "bundle_rand24", "audit_rand24"
ALL = (SWEEP, BUNDLE, AUDIT)


class Layer(NamedTuple):
    module: str
    qualname: str
    stats: tuple[str, ...]
    fires_on: tuple[str, ...]
    path_arg: int | None = None

    @property
    def prefix(self) -> str:
        return f"{self.module}.{self.qualname}"


LAYERS: tuple[Layer, ...] = (
    # per-node RNG stream construction and weight sampling (ROADMAP item 3);
    # audit_rand24 draws only while its set-up writes traces, never in an op
    Layer("protocol", "SeedStreams.stream", ("calls", "s"), ALL),
    Layer("protocol", "sample_round_weights", ("s",), ALL),
    Layer("protocol", "sample_push_sum_weights", ("s",), (SWEEP,)),
    Layer("protocol", "sample_initial_values", ("s",), ALL),
    # round updates, including the per-edge product dict (ROADMAP item 2)
    Layer("protocol", "decomposed_round", ("s",), ALL),
    Layer("protocol", "push_sum_round", ("s",), (SWEEP,)),
    Layer("protocol", "run_protocol", ("s", "alloc_mb"), ALL),
    # whole-trace passes that check_invariants and the analyses make
    Layer("protocol", "replay", ("s",), (AUDIT,)),
    Layer("protocol", "conserved_sums", ("s",), (AUDIT,)),
    Layer("protocol", "estimate_series", ("s",), (BUNDLE, AUDIT)),
    # trace format (ROADMAP item 2): the write path and the read path
    Layer("traceio", "write_trace", ("s", "bytes"), (BUNDLE, AUDIT), path_arg=1),
    Layer("traceio", "write_estimates_csv", ("s",), (BUNDLE, AUDIT)),
    Layer("traceio", "read_trace", ("calls", "s"), (AUDIT,)),
    Layer("harness", "check_invariants", ("s",), (AUDIT,)),
    Layer("harness", "run_scenario", ("s",), (BUNDLE, AUDIT)),
    Layer("harness", "parse_config", ("s",), ALL),
    Layer("analysis", "forward_product", ("s",), (BUNDLE, AUDIT)),
    Layer("analysis", "ergodicity_coefficient", ("calls",), (BUNDLE, AUDIT)),
    Layer("analysis", "run_metrics", ("s",), (BUNDLE, AUDIT)),
    Layer("adversary", "eavesdrop", ("s",), ALL),
    Layer("adversary", "attack_report", ("s",), ALL),
    Layer("adversary", "eavesdropper_diagnostics", ("s",), (SWEEP,)),
    Layer("adversary", "write_attack_json", ("s",), (BUNDLE, AUDIT)),
    Layer("adversary", "write_attack_csv", ("s",), (BUNDLE, AUDIT)),
    Layer("adversary", "build_coalition_view", ("s",), (AUDIT,)),
    Layer("adversary", "coalition_reconstruct", ("s",), (AUDIT,)),
    # graph handling; every `pushsim run` loads the graph file twice
    Layer("graph", "random_strongly_connected", ("s",), (BUNDLE, AUDIT)),
    Layer("graph", "load_digraph", ("calls",), (BUNDLE, AUDIT)),
    Layer("graph", "is_strongly_connected", ("calls",), ALL),
    # the control: argument parsing and printing only, expected not to move
    Layer("cli", "main", ("s",), (BUNDLE, AUDIT)),
)

UNITS = {"s": "s", "calls": "count", "bytes": "bytes", "alloc_mb": "MiB"}

# Metrics the traced run reports besides the per-function ones.
EXTRA_METRICS = {
    "output_mb": "MiB",  # bytes one op writes; exact, 0 on sweep_demo
    "trace.coverage": "ratio",  # root span time over traced wall time
    "trace.overhead_pct": "%",  # fastest traced op over fastest untraced op, minus one
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run prints, with its unit."""
    out = {
        f"{layer.prefix}.{stat}": UNITS[stat] for layer in LAYERS for stat in layer.stats
    }
    out.update(EXTRA_METRICS)
    return out
