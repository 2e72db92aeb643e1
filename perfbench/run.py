#!/usr/bin/env python3
"""senselink benchmark: end-to-end and per-layer metrics on three workloads.

    python3 perfbench/run.py --workload sweep_grid --seed 0 --seconds 20 --trace 0

Run it from the repository root; it imports senselink from ``src/``. Each
workload runs in a fresh single process with single-threaded BLAS. Every
input comes from ``--seed``.

- ``sweep_grid``: every cell of ``scripts/run_sweeps.py`` (4 parameters over
  20 values, 5 policies) plus a 40 dB SNR point without its adaptive cell,
  200 trials per cell. Each operating point is its own ``harness.sweep``
  call, so a point that raises counts as failed and the others still run.
  The decision layer does nearly all the work.
- ``simulate_identity``: what ``senselink simulate --policy bits:4`` does at
  the default point (d=50, identity covariance, K=10, N=100, L=4, 2 dB, real
  quantizer), in units of 4000 trials. Fixed per-trial overhead dominates.
- ``simulate_dense``: the same path on a seeded dense covariance
  Q diag(lambda) Q^T (d=128, K=50, N=256, centroid 0.02), in units of 1000
  trials. The 128x128 colouring, KLT and decode matmuls dominate.

With ``--trace 0`` the benchmark repeats its unit of work (one grid pass, or
one decision plus its trials) until ``--seconds`` of wall time would be
exceeded, keeping at least one unit. With ``--trace 1`` it runs one unit
untraced, then the same unit with every public library function wrapped
(``tracing.py``), and reports per-layer metrics. Every simulated cell goes
through ``checks.py``. The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. A sidecar with run
metadata, raw timings and per-cell failures goes to ``perfbench/out/``.

How times are taken: the program is single-threaded and compute-bound, so
the benchmark counts process CPU time around the library calls, which leaves
out hypervisor steal. On a shared VM the speed a process gets still swings by
up to 1.8x within seconds and drifts over minutes. So before and after every
timed block the benchmark runs ``speed_probe``, a fixed piece of work that
does not touch senselink, and scales the end-to-end times of the run by
PROBE_NOMINAL_S over the run's mean probe time, raised to PROBE_EXPONENT.
Setup time is the median of SETUP_REPEATS set-ups (import plus input
building), this process's and the rest's in fresh interpreters, each scaled
linearly by ``interpreter_probe`` runs just before and after its import. The
end-to-end times are therefore CPU seconds at the speed where the probes take
their nominal times. Raw CPU and wall times are in the sidecar.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

# One BLAS thread: the benchmark measures a single process on a small box and
# needs bit-stable matmuls for its CSV identity check.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

GRID = {  # scripts/run_sweeps.py's SWEEPS, plus 40 dB on the SNR axis
    "observations": [1, 2, 5, 10, 20],
    "snr-db": [-2.0, 0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 40.0],
    "antennas": [1, 2, 4, 8],
    "blocklength": [50, 100, 200, 400],
}
SWEEP_FIELDS = {"observations": "observations", "snr-db": "snr_db",
                "antennas": "antennas", "blocklength": "blocklength"}
POLICIES = ["adaptive", "brute", "urllc", "bits:32", "bits:16"]
# Adaptive at 40 dB spins 200k gradient-ascent iterations (62 s) and raises
# ConvergenceError. Workloads must be ones on which no operation fails, so
# that one cell is left out; the point's other four policies still run.
FAILING_CELLS = {("snr-db", 40.0, "adaptive")}
GRID_POINTS = [
    (param, value, tuple(p for p in POLICIES if (param, value, p) not in FAILING_CELLS))
    for param, values in GRID.items() for value in values
]
# CPU-time limit per operating point, in seconds at the probes' nominal speed.
# The slowest point (10 dB) needs about 7.5 s. A point over its limit counts
# all of its cells as failed, so a run stays bounded even if a change makes
# a decision spin.
POINT_CPU_LIMIT_S = 15.0
# Set-ups per run: this process's own, then the rest one after another in
# fresh interpreters, since an import can only be timed once per process.
SETUP_REPEATS = 5
# Scales of the end-to-end times: roughly the CPU time of speed_probe and of
# interpreter_probe on a 2-vCPU Xeon (Sapphire Rapids) KVM guest with Python
# 3.11 and numpy 2.4.
PROBE_NOMINAL_S = 0.04
INTERPRETER_PROBE_NOMINAL_S = 0.01
# Across runs on that guest, a run's raw CPU time per unit grew as its mean
# speed_probe time to a power of 1.4 to 1.8 (log-log slope over 10 runs per
# workload, correlation 0.94 to 0.98): a busy host slows the workloads more
# than the small probe. Scaling with this power instead of 1 cut the
# run-to-run spread of the simulate workloads by about half.
PROBE_EXPONENT = 1.5


def interpreter_probe() -> float:
    """CPU seconds for a fixed pure-Python loop; needs no third-party import."""
    start = time.process_time()
    acc = 0
    for i in range(120_000):
        acc += i * i
    return time.process_time() - start


def import_senselink() -> tuple[float, list[float]]:
    """Import the package from this checkout's sources.

    Returns the CPU seconds the import took and interpreter probes taken just
    before and after it, which scale setup time the way speed_probe scales
    the rest (numpy is part of what the import loads, so it cannot be probed
    before).
    """
    if not (SRC / "senselink" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no senselink sources under {SRC}")
    sys.path.insert(0, str(SRC))
    probes = [interpreter_probe(), interpreter_probe()]
    start = time.process_time()
    import senselink
    import senselink.harness  # noqa: F401
    elapsed = time.process_time() - start
    probes += [interpreter_probe(), interpreter_probe()]
    if Path(senselink.__file__).resolve().parent != SRC / "senselink":
        raise SystemExit(f"benchmark: imported senselink from {senselink.__file__}, not {SRC}")
    return elapsed, probes


def setup_sample(workload, seed: int, imported: tuple[float, list[float]]):
    """One set-up: the import just timed plus building the workload's inputs.

    Returns the sample (raw CPU seconds and the interpreter probes that scale
    them) and the inputs.
    """
    import_cpu, probes = imported
    start = time.process_time()
    inputs = workload.inputs(seed)
    build = time.process_time() - start
    return {"import_cpu_s": import_cpu, "build_cpu_s": build, "probes_s": probes}, inputs


def fresh_setup_samples(name: str, seed: int, count: int) -> list[dict]:
    """Set up ``count`` more times, each in a fresh interpreter, one at a time."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-sample",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(json.loads(proc.stdout.splitlines()[-1]))
    return samples


def setup_seconds(sample: dict) -> float:
    """A set-up sample's CPU seconds at the interpreter probe's nominal speed."""
    scale = INTERPRETER_PROBE_NOMINAL_S / statistics.fmean(sample["probes_s"])
    return (sample["import_cpu_s"] + sample["build_cpu_s"]) * scale


def speed_probe() -> float:
    """CPU seconds for a fixed mix of interpreter, small-array and 128x128 matmul work.

    It calls nothing in senselink, so no change to the program can move it;
    only the speed the machine gives this process does.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    small = rng.standard_normal((50, 50))
    big = rng.standard_normal((128, 128))
    start = time.process_time()
    interpreter_probe()
    acc = 0.0
    for _ in range(450):
        acc += float(np.floor(rng.standard_normal((10, 50)) @ small).sum())
    for _ in range(180):
        big @ big
    return time.process_time() - start


class Meter:
    """CPU and wall seconds spent in the library calls of one unit, plus speed
    probes taken before and after each timed block."""

    def __init__(self, probe: bool):
        self.cpu = self.wall = 0.0
        self.probes: list[float] = []
        self._probe = probe

    def slowdown(self) -> float:
        """How much slower than nominal the probes so far ran; 1 without probes."""
        return statistics.fmean(self.probes) / PROBE_NOMINAL_S if self.probes else 1.0

    @contextlib.contextmanager
    def timing(self):
        if self._probe:
            self.probes.append(speed_probe())
        cpu, wall = time.process_time(), time.perf_counter()
        try:
            yield
        finally:
            self.cpu += time.process_time() - cpu
            self.wall += time.perf_counter() - wall
            if self._probe:
                self.probes.append(speed_probe())


class CellDeadline(Exception):
    """An operating point used up its CPU-time limit."""


@contextlib.contextmanager
def cpu_deadline(seconds: float):
    """Raise CellDeadline in the main thread once the process has used ``seconds`` of CPU."""
    def expire(signum, frame):
        raise CellDeadline(f"exceeded {seconds:g} s of CPU time")

    previous = signal.signal(signal.SIGPROF, expire)
    signal.setitimer(signal.ITIMER_PROF, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)


def describe(exc: BaseException) -> str:
    parts = []
    while exc is not None:
        parts.append(f"{type(exc).__name__}: {exc}")
        exc = exc.__cause__
    return " <- ".join(parts)


@dataclass
class UnitResult:
    """One unit of work: the cells it produced, its CSV, and what raised."""

    keyed_rows: list  # (cell key, ResultRow, the cell's ExperimentConfig)
    csv: str
    attempted: int
    raised: list[str] = field(default_factory=list)
    raised_cells: int = 0

    @property
    def trials(self) -> int:
        return sum(row.trials for _, row, _ in self.keyed_rows)


@dataclass(frozen=True)
class GridWorkload:
    points: tuple
    trials: int
    cpu_limit: float = POINT_CPU_LIMIT_S

    def inputs(self, seed: int):
        from senselink import harness
        return harness.ExperimentConfig(observations=10, seed=seed)

    def unit(self, base, seed: int, index: int, meter: Meter, tracer=None) -> UnitResult:
        from senselink import harness
        keyed, raised, attempted = [], [], 0
        for point, (param, value, policies) in enumerate(self.points):
            attempted += len(policies)
            if tracer is not None:
                tracer.current_cell = point
            try:
                with meter.timing(), cpu_deadline(self.cpu_limit * meter.slowdown()):
                    rows = harness.sweep(base, param, [value], list(policies), self.trials, seed)
            except Exception as exc:  # a failing point is counted, and the rest still run
                raised.append((f"{param}={value!r}: {describe(exc)}", len(policies)))
                continue
            finally:
                if tracer is not None:
                    tracer.settle()
            attr = SWEEP_FIELDS[param]
            cast = int(value) if attr != "snr_db" else float(value)
            keyed += [(f"{param}={value!r}/{policy}", row,
                       replace(base, **{attr: cast, "policy": policy}))
                      for policy, row in zip(policies, rows)]
        with meter.timing():
            csv = harness.rows_to_csv([row for _, row, _ in keyed])
        return UnitResult(keyed, csv, attempted, [msg for msg, _ in raised],
                          sum(n for _, n in raised))

    def recheck(self) -> "GridWorkload":
        """The first operating point alone, rerun to confirm its CSV bytes."""
        return replace(self, points=self.points[:1])


@dataclass(frozen=True)
class SimulateWorkload:
    trials: int
    dense: bool

    def inputs(self, seed: int):
        import numpy as np
        from senselink import harness
        if not self.dense:
            return harness.ExperimentConfig(
                dim=50, centroid=0.1, sigma_spec="identity", antennas=4, snr_db=2.0,
                blocklength=100, observations=10, policy="bits:4", seed=seed)
        dim = 128
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
        eigs = rng.uniform(0.3, 3.0, size=dim)
        sigma = (basis * eigs) @ basis.T
        sigma = 0.5 * (sigma + sigma.T)
        return harness.ExperimentConfig(
            dim=dim, centroid=0.02, sigma_spec=sigma.tolist(), antennas=4, snr_db=2.0,
            blocklength=256, observations=50, policy="bits:4", seed=seed)

    def unit(self, config, seed: int, index: int, meter: Meter, tracer=None) -> UnitResult:
        from senselink import harness
        if tracer is not None:
            tracer.current_cell = index
        try:
            with meter.timing():
                decision = harness.decide(config)
                row = harness.estimate_error(config, decision, self.trials, seed, cell=index)
                csv = harness.rows_to_csv([row])
        except Exception as exc:
            return UnitResult([], "", 1, [f"{config.policy}: {describe(exc)}"], 1)
        finally:
            if tracer is not None:
                tracer.settle()
        return UnitResult([(config.policy, row, config)], csv, 1)

    def recheck(self) -> "SimulateWorkload":
        return self


WORKLOADS = {
    "sweep_grid": GridWorkload(tuple(GRID_POINTS), trials=200),
    "simulate_identity": SimulateWorkload(trials=4000, dense=False),
    "simulate_dense": SimulateWorkload(trials=1000, dense=True),
}

# Per-layer metrics of the traced run, keyed by span name (module.function).
BUSY = [
    "optimizer.surrogate_gradient", "optimizer.gradient_ascent", "optimizer.rate_domain",
    "optimizer.brute_force_rate", "optimizer.urllc_rate", "optimizer.round_rate",
    "optimizer.fixed_bits_rate", "harness.rows_to_csv", "channel.avg_packet_loss_exact",
    "channel.avg_packet_loss_approx", "channel.packet_loss", "channel.sample_post_mrc_snr",
    "gmm.effective_discriminant_gain", "gmm.semi_analytic_error", "gmm.sample_features",
    "gmm.discriminant_score", "gmm.classify", "quant.scalar_quantize", "quant.decode",
    "quant.klt_basis", "numerics.log_regularized_upper_gamma", "numerics.q_function",
    "numerics.poisson_binomial_pmf",
]
CALLS = [
    "optimizer.surrogate_gradient", "harness.run_trial", "channel.avg_packet_loss_exact",
    "channel.packet_loss", "gmm.effective_discriminant_gain",
    "numerics.log_regularized_upper_gamma", "numerics.q_function",
    "numerics.poisson_binomial_pmf",
]
SELF = ["harness.estimate_error", "harness.run_trial", "quant.encode"]
DECIDE_POLICIES = ["adaptive", "brute", "urllc", "bits32", "bits16", "bits4"]
PACKET_LOSS_PARENTS = ["harness.run_trial", "channel.avg_packet_loss_exact"]
DISTINCT = ["channel.avg_packet_loss_exact", "gmm.effective_discriminant_gain"]


def per_layer_metrics(s, untraced_cpu: float, traced_cpu: float) -> dict:
    """name -> (value, unit) for every per-layer metric, in raw CPU seconds."""
    from tracing import MODULES
    out = {}
    for name in BUSY:
        out[f"{name}.busy_s"] = (s.busy(name), "s")
    for name in CALLS:
        out[f"{name}.calls"] = (s.calls(name), "count")
    for name in SELF:
        out[f"{name}.self_s"] = (s.self_s(name), "s")
    for policy in DECIDE_POLICIES:
        name = f"harness.decide.{policy}"
        out[f"{name}.busy_s"] = (s.busy(name), "s")
        out[f"{name}.calls"] = (s.calls(name), "count")
        out[f"{name}.failed"] = (s.failures(name), "count")
    for parent in PACKET_LOSS_PARENTS:
        short = parent.split(".", 1)[1]
        out[f"channel.packet_loss.in_{short}.busy_s"] = (
            s.busy_under("channel.packet_loss", parent), "s")
        out[f"channel.packet_loss.in_{short}.calls"] = (
            s.calls_under("channel.packet_loss", parent), "count")
    for name in DISTINCT:
        out[f"{name}.distinct_frac"] = (s.distinct_frac(name), "ratio")
    adaptive = s.calls("harness.decide.adaptive")
    out["optimizer.surrogate_gradient.calls_per_decide"] = (
        s.calls("optimizer.surrogate_gradient") / adaptive if adaptive else 0.0, "count")
    trials = s.calls("harness.run_trial")
    out["harness.run_trial.zero_received_frac"] = (
        s.zero_received / trials if trials else 0.0, "ratio")
    for module in MODULES:
        out[f"{module}.self_s"] = (s.module_self(module), "s")
    spans_self = s.root_time()
    out["trace_overhead_s"] = (traced_cpu - untraced_cpu, "s")
    out["trace.cpu_s"] = (traced_cpu, "s")
    out["trace.untraced_cpu_s"] = (untraced_cpu, "s")
    out["trace.spans_self_s"] = (spans_self, "s")
    out["trace.outside_spans_s"] = (traced_cpu - spans_self, "s")
    out["trace.spans"] = (s.spans(), "count")
    return out


def csv_mismatches(first: str, second: str) -> int:
    a, b = first.splitlines(), second.splitlines()
    return sum(x != y for x, y in zip(a, b)) + abs(len(a) - len(b))


def check_units(units, pinned) -> tuple[int, list[str], list[str]]:
    """Failed cells (raised or failing the output check), the reasons, and
    the cells whose simulated error disagrees with their pred_exact."""
    from checks import agrees_with_prediction, check_cell
    failed, problems, off_model = 0, [], []
    for unit in units:
        failed += unit.raised_cells
        problems += [f"raised: {msg}" for msg in unit.raised]
        for key, row, config in unit.keyed_rows:
            found = check_cell(key, row, config, pinned)
            failed += bool(found)
            problems += found
            if not agrees_with_prediction(row):
                off_model.append(f"{key}: error {row.error!r} vs pred_exact "
                                 f"{row.pred_exact!r} over {row.trials} trials")
    return failed, problems, off_model


def run_metadata(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np
    import scipy

    def read(path):
        try:
            return Path(path).read_text().strip()
        except OSError:
            return None

    cpu_model = None
    for line in (read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches[f"L{read(index / 'level')} {read(index / 'type')}"] = read(index / "size")
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    head = read(ROOT / ".git" / "HEAD")
    if head and head.startswith("ref: "):
        commit = read(ROOT / ".git" / head[5:])
    elif head:
        commit = head
    lines = {p.stem: len(p.read_text().splitlines())
             for p in sorted((SRC / "senselink").glob("*.py"))}
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model, "caches": caches,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS}},
        "git_commit": commit, "source_lines": lines,
    }


def run(name: str, seed: int, seconds: float, trace: bool, imported: tuple[float, list[float]],
        workloads=WORKLOADS) -> tuple[dict, dict]:
    """Run one workload; return the result object and a sidecar of details."""
    from checks import load_pinned_bits
    from senselink import harness
    from tracing import Tracer

    workload = workloads[name]
    sample, inputs = setup_sample(workload, seed, imported)
    pinned = load_pinned_bits(name)
    details = {"setup_samples": [sample]}

    if trace:
        plain, traced = Meter(probe=False), Meter(probe=False)
        units = [workload.unit(inputs, seed, 0, plain)]
        tracer = Tracer()
        tracer.install()
        try:
            units.append(workload.unit(inputs, seed, 0, traced, tracer))
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        OUT_DIR.mkdir(exist_ok=True)
        summary.save(OUT_DIR / f"{name}-seed{seed}-spans.npz")
        values = per_layer_metrics(summary, plain.cpu, traced.cpu)
        mismatched = csv_mismatches(units[0].csv, units[1].csv)
        meters = [plain, traced]
    else:
        units, meters = [], []
        start = time.perf_counter()
        while True:
            began = time.perf_counter()
            meters.append(Meter(probe=True))
            units.append(workload.unit(inputs, seed, len(units), meters[-1]))
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - began) > seconds:
                break
        again = workload.recheck().unit(inputs, seed, 0, Meter(probe=False))
        keys = {key for key, _, _ in again.keyed_rows}
        first = harness.rows_to_csv([row for key, row, _ in units[0].keyed_rows if key in keys])
        mismatched = csv_mismatches(first, again.csv)
        probes = [p for m in meters for p in m.probes]
        scale = (PROBE_NOMINAL_S / statistics.fmean(probes)) ** PROBE_EXPONENT
        cpu = sum(m.cpu for m in meters)
        setups = details["setup_samples"]
        setups += fresh_setup_samples(name, seed, SETUP_REPEATS - 1)
        details.update({"probes_s": probes, "speed_scale": scale})
        values = {
            "setup_s": (statistics.median(setup_seconds(s) for s in setups), "s"),
            "unit_cpu_s": (cpu / len(units) * scale, "s"),
            "cells_per_s": (sum(len(u.keyed_rows) for u in units) / (cpu * scale), "1/s"),
            "trials_per_s": (sum(u.trials for u in units) / (cpu * scale), "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    failed, problems, off_model = check_units(units, pinned)
    if trace:
        values["optimizer.pred_exact_outliers"] = (
            len(off_model) / len(units), "count")
    if mismatched:
        problems.append(f"CSV differs between two runs of the same unit in {mismatched} line(s)")
    attempted = sum(u.attempted for u in units)
    failed += mismatched
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in values.items()},
    }
    details.update({
        "failed_frac": failed / attempted, "problems": problems,
        "pred_exact_outliers": off_model, "units": len(units),
        "unit_cpu_s": [m.cpu for m in meters], "unit_wall_s": [m.wall for m in meters],
        "keyed_rows": units[0].keyed_rows,
    })
    return result, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-sample", action="store_true",
                        help="only set up once and print the sample as JSON")
    args = parser.parse_args(argv)
    if args.setup_sample:
        sample, _ = setup_sample(WORKLOADS[args.workload], args.seed, import_senselink())
        print(json.dumps(sample))
        return 0
    if args.seconds is None:
        parser.error("--seconds is required")

    result, details = run(args.workload, args.seed, args.seconds, bool(args.trace),
                          import_senselink())

    sidecar = {
        "meta": run_metadata(args.workload, args.seed, args.seconds, args.trace),
        **result,
        **{k: v for k, v in details.items() if k != "keyed_rows"},
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(sidecar, indent=1) + "\n")

    for problem in details["problems"]:
        print(f"check: {problem}")
    shown = ", ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in result["metrics"].items())
    print(f"{args.workload} seed={args.seed}: failed_frac={details['failed_frac']:.4f} ratio "
          f"({result['failed']}/{result['attempted']} cells); {shown}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
