"""Deterministic push-sum averaging simulator and analysis toolkit."""

from .graph import (
    Digraph,
    build_digraph,
    check_protocol_usable,
    demo_digraph,
    is_strongly_connected,
    load_digraph,
    random_strongly_connected,
    save_digraph,
)
from .protocol import (
    PROTOCOLS,
    RoundBlock,
    SeedStreams,
    Trace,
    conserved_sums,
    estimate_average,
    estimate_series,
    init_decomposed,
    init_push_sum,
    replay,
    retained_ratio_series,
    run_protocol,
    sample_push_sum_weights,
    sample_round_weights,
    transmissions,
)
from .traceio import TraceFormatError, read_blocks, read_trace, write_estimates_csv, write_trace
from .adversary import (
    CoalitionView,
    EavesdropperDiagnostics,
    EavesdropperState,
    attack_report,
    build_coalition_view,
    coalition_reconstruct,
    eavesdrop,
    eavesdropper_diagnostics,
    equivalent_trace,
)
from .analysis import (
    ErgodicityReport,
    RunMetrics,
    convergence_round,
    ergodicity_coefficient,
    forward_product,
    run_metrics,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    InvariantReport,
    check_invariants,
    compare_protocols,
    load_config,
    parse_config,
    run_scenario,
)

__version__ = "0.1.0"
