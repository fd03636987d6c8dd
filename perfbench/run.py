#!/usr/bin/env python3
"""pushsim benchmark: one workload, measured in one single-threaded process.

    python3 perfbench/run.py --workload sweep_demo --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/``.  The run imports pushsim and sets the workload up
several times (set-up time is the median), then repeats ops until
their summed time reaches ``--seconds``.  Every op's output is checked
outside the timed section, and a digest of the whole input cycle is
compared with the pinned one at the default workload seed (printed for any
other seed).  With ``--trace 1`` the run then traces one set-up plus a
fixed number of ops with spans around pushsim's layer functions and
reports per-layer metrics instead of end-to-end ones.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it name every
metric with its unit, the environment, and the digest.  Spans and a full
result record are written under ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("sweep_demo", "bundle_rand24", "audit_rand24")
SETUP_REPEATS = 5
MIB = 1 << 20
# Reported in the final JSON line with --trace 0; all are never zero.  Op
# latency is the fastest op: on a shared host, speed drifts by up to 1.8x for
# seconds to minutes, and over four sets of ten runs the fastest op spread
# least between runs in most cases (DESIGN.md).
E2E_UNITS = {"setup_s": "s", "op_ms_min": "ms", "op_alloc_mb": "MiB"}
# Percentiles need this many samples to have ten beyond them.
P90_MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0, help="workload seed (>= 0); shifts every seed list")
    parser.add_argument("--seconds", type=int, default=30, help="summed op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, for the smoke check")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def blas_info() -> dict:
    """OpenBLAS version string and thread count of the loaded library, if found."""
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    info = {"blas": blas.get("name"), "blas_version": blas.get("version"), "blas_threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return info
    for path in sorted(p for p in libs if p.startswith("/")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            if threads is None:
                continue
            info["blas_threads"] = int(threads())
            if config is not None:
                config.restype = ctypes.c_char_p
                info["blas_config"] = config().decode()
            return info
    return info


class Run:
    """Ops, failures and per-key output digests of one workload process."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: dict = {}
        self.key_bytes: dict = {}
        self.seen: set = set()

    def fail(self, key, why) -> None:
        self.failed += 1
        self.problems.append(f"{self.workload.name} {key}: {why}")

    def execute(self, key, around=contextlib.nullcontext()) -> float:
        """Run one op inside `around`, check its output outside the timing; return the op time."""
        self.attempted += 1
        self.seen.add(key)
        start = time.perf_counter()
        try:
            with around:
                result = self.workload.op(key)
        except Exception as exc:  # a crashing op is a failed op; keep measuring
            elapsed = time.perf_counter() - start
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return elapsed
        elapsed = time.perf_counter() - start
        self.verify(key, result)
        return elapsed

    def verify(self, key, result) -> None:
        try:
            digest = self.workload.check(key, result)
            self.key_bytes.setdefault(key, self.workload.output_bytes(result))
        except Exception as exc:  # CheckFailed, or a check that crashes on bad output
            self.fail(key, f"{type(exc).__name__}: {exc}")
            return
        finally:
            self.workload.cleanup(result)
        if self.digests.setdefault(key, digest) != digest:
            self.fail(key, "output differs from an earlier op on the same input")

    def cycle_digest(self, keys) -> str | None:
        """Digest over every key's output; None if some key has no good output."""
        if any(key not in self.digests for key in keys):
            return None
        text = "".join(f"{key}={self.digests[key]}\n" for key in keys)
        return hashlib.sha256(text.encode()).hexdigest()


def _pushsim_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "pushsim" or name.startswith("pushsim.")}


def set_up(workload, work: Path, repeats: int, import_s: float) -> list[float]:
    """Import pushsim and set the workload up, `repeats` times; returns each time.

    The first repeat counts the process's own import.  Later ones import
    pushsim afresh (its dependencies stay loaded), and the original modules,
    which the workload calls, are put back at the end.  Each repeat runs in a
    fresh directory; the last one stays the working directory.
    """
    originals = _pushsim_modules()
    times = []
    try:
        for r in range(repeats):
            where = work / f"setup_{r}"
            where.mkdir()
            os.chdir(where)
            start = time.perf_counter()
            if r:
                for name in _pushsim_modules():
                    del sys.modules[name]
                importlib.import_module("pushsim.cli")
            workload.setup()
            times.append(time.perf_counter() - start + (0.0 if r else import_s))
    finally:
        for name in _pushsim_modules():
            del sys.modules[name]
        sys.modules.update(originals)
    return times


def timed_ops(run: Run, keys: list, seconds: float) -> list[float]:
    times: list[float] = []
    total = 0.0
    while total < seconds:
        times.append(run.execute(keys[len(times) % len(keys)]))
        total += times[-1]
    return times


def traced_pass(run: Run, keys: list, work: Path, untraced_min_s: float, spans_path: Path) -> dict:
    """One traced set-up plus a fixed number of traced ops; per-layer metrics."""
    import layers
    import tracer as tracing

    workload = run.workload
    where = work / "traced"
    where.mkdir()
    os.chdir(where)
    tracer = tracing.Tracer(layers.LAYERS)
    tracer.install()
    try:
        start = time.perf_counter()
        workload.setup()
        setup_s = time.perf_counter() - start
        tracer.op = None
        times = [run.execute(keys[i % len(keys)], tracer.recording(i)) for i in range(workload.traced_ops)]
    finally:
        tracer.uninstall()
    tracer.write(spans_path)
    metrics, root_s = tracer.layer_stats()
    peaks, absent = tracing.alloc_peaks(layers.LAYERS, lambda: run.execute(keys[0]))
    metrics.update(peaks)
    absent.update(tracer.absent)
    metrics["trace.coverage"] = root_s / (setup_s + sum(times))
    metrics["trace.overhead_pct"] = (min(times) / untraced_min_s - 1.0) * 100.0
    for prefix in tracer.silent_layers(workload.name):
        run.problems.append(f"{workload.name}: span {prefix} never fired")
    return {"metrics": metrics, "absent": absent, "traced_ops": len(times)}


def measure(args, import_s: float) -> dict:
    import tracer as tracing
    import workloads

    sizes = workloads.TOY if args.toy else workloads.FULL
    workload = workloads.WORKLOADS[args.workload](args.seed, sizes)
    run = Run(workload)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        setup_times = set_up(workload, work, SETUP_REPEATS, import_s)
        keys = workload.keys()
        times = timed_ops(run, keys, args.seconds)
        for key in keys:  # inputs the timed loop never reached, so the digest covers them all
            if key not in run.seen:
                run.execute(key)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # before tracemalloc
        op_alloc = tracing.PeakAlloc()  # untimed: tracemalloc slows the op down
        run.execute(keys[0], op_alloc)
        digest = run.cycle_digest(keys)
        if digest is None:
            run.problems.append(f"{workload.name}: no digest, some ops failed")
        elif workload.pinned is not None and digest != workload.pinned:
            run.problems.append(f"{workload.name}: digest {digest} differs from pinned {workload.pinned}")

        e2e = {
            "setup_s": statistics.median(setup_times),
            "op_ms_min": min(times) * 1000.0,
            "op_alloc_mb": op_alloc.mib,
        }
        extra = {
            "peak_rss_mb": peak_rss_mb,
            "rounds_per_s": len(times) * workload.rounds_per_op / sum(times),
            "op_ms_p50": statistics.median(times) * 1000.0,
            "op_ms_p90": statistics.quantiles(times, n=10)[-1] * 1000.0 if len(times) >= P90_MIN_OPS else None,
            "output_mb": statistics.fmean(run.key_bytes.values()) / MIB if run.key_bytes else 0.0,
            "error_rate": run.failed / run.attempted,
        }
        record = {"e2e": e2e, "extra": extra, "timed_ops": len(times), "op_times_s": times, "digest": digest,
                  "pinned": workload.pinned, "import_s": import_s, "setup_times_s": setup_times}
        if args.trace:
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
            record["traced"] = traced_pass(run, keys, work, min(times), spans_path)
            record["traced"]["metrics"]["output_mb"] = extra["output_mb"]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(work, ignore_errors=True)
    record.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    return record


def report(args, record: dict, env: dict) -> dict:
    """Print the named metrics and return the final JSON object."""
    import layers

    print("env " + json.dumps(env, sort_keys=True))
    ops = record["timed_ops"]
    extra = record["extra"]
    for name, value in record["e2e"].items():
        print(f"metric {name} = {value!r} {E2E_UNITS[name]} (ops={ops})")
    print(f"metric peak_rss_mb = {extra['peak_rss_mb']!r} MiB")
    print(f"metric rounds_per_s = {extra['rounds_per_s']!r} 1/s (ops={ops})")
    print(f"metric op_ms_p50 = {extra['op_ms_p50']!r} ms (ops={ops})")
    p90 = extra["op_ms_p90"]
    print(f"metric op_ms_p90 = {p90!r} ms (ops={ops})" if p90 is not None
          else f"metric op_ms_p90 not reported: {ops} ops, fewer than {P90_MIN_OPS}")
    print(f"metric output_mb = {extra['output_mb']!r} MiB (per op, exact)")
    print(f"metric error_rate = {extra['error_rate']!r} ({record['failed']}/{record['attempted']})")
    status = ("no pinned value for this seed" if record["pinned"] is None
              else "matches pinned" if record["digest"] == record["pinned"] else "DIFFERS from pinned")
    print(f"digest {args.workload} seed {args.seed}: {record['digest']} ({status})")
    if args.trace:
        units = layers.metric_units()
        traced = record["traced"]
        for name, reason in sorted(traced["absent"].items()):
            print(f"absent {name}: {reason}")
        metrics = {name: {"value": traced["metrics"][name], "unit": unit} for name, unit in units.items()}
        for name, entry in metrics.items():
            print(f"layer {name} = {entry['value']!r} {entry['unit']} (traced ops={traced['traced_ops']})")
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]} for name, value in record["e2e"].items()}
    for problem in record["problems"][:20]:
        print(f"problem {problem}")
    return {
        "correct": not record["problems"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pushsim" / "__init__.py").is_file():
        print(f"error: no pushsim sources at {SRC / 'pushsim'}", file=sys.stderr)
        return 2
    # One single-threaded process: BLAS must not start a thread pool of its own.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("PUSHSIM_OUTPUT_ROOT", None)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # a dependency's import is not pushsim's set-up; recorded apart

    numpy_import_s = time.perf_counter() - start
    start = time.perf_counter()
    import pushsim
    import pushsim.cli  # noqa: F401  (part of the import cost every CLI user pays)

    import_s = time.perf_counter() - start
    if Path(pushsim.__file__).resolve().parent != SRC / "pushsim":
        print(f"error: imported pushsim from {pushsim.__file__}, not {SRC}", file=sys.stderr)
        return 2

    record = measure(args, import_s)
    record["numpy_import_s"] = numpy_import_s
    env = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        **blas_info(),
    }
    result = report(args, record, env)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump({"env": env, "record": record, "result": result}, fh, sort_keys=True, indent=1,
                  default=str)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
