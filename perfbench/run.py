"""exthyp benchmark: one command for every metric.

Run from the root of a checkout:

    python3 perfbench/run.py --workload eval-mix --seed 1 --seconds 50 \
        --trace 0

``--seconds`` sizes the run: a fixed number of whole cycles of the workload,
about that long at the speed of the program when the benchmark was defined.
``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` runs a
fixed number of operations under the span recorder and reports the per-layer
metrics.  Human-readable lines (every metric with its unit, sample counts and
run settings) come first; the last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The program is
imported from ``src/`` of the checkout; without it the run fails.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# One caller, no added threads: numpy's BLAS pool is pinned to one thread
# before numpy is imported, in this process and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The machine's speed drifts by tens of percent within minutes (shared
# host), so every reported time is scaled to a reference speed: a fixed
# probe that does not use exthyp runs between operations, and an operation
# taking t seconds while the probe takes p counts t * PROBE_REF_S / p
# "reference seconds".  Raw times are printed beside the scaled ones.
PROBE_EVERY_S = 0.2  # operation seconds between probes
PROBE_REF_S = 0.002  # the probe's time at the reference speed
PROBE_WINDOW = 3  # probes on each side of an operation that scale it

# Set-up samples are split between the start and the end of a run, so their
# median spans the machine's state over the whole run.
SETUP_SAMPLES = (4, 3)
# Fresh interpreter, import, and one call whose ladder walks the quadrature
# levels, filling the node caches.
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import exthyp; "
    "exthyp.ext_2f1(exthyp.EXP_KERNEL, 0.5, 1.5, 3.0, 0.3, "
    "exthyp.RegPair(0.2, 0.4))"
)

# Per workload: operations in the traced run, the length of the workload's
# cycle, and the cycles a run performs per second of --seconds.  A run
# performs a fixed number of whole cycles, so which operations run, and with
# them `attempted` and `failed`, depend on the seed and --seconds alone,
# never on the speed of the machine; every run weighs the parts of the mix
# alike.  The rates make a run last about --seconds at the speed of the
# program when the benchmark was defined, on a 2-core shared host.
PLAN = {
    "conformance-full": {"traced": 2, "cycle": 1, "cycles_per_s": 0.74},
    "eval-mix": {"traced": 84, "cycle": 84, "cycles_per_s": 0.40},
}
# Every run first performs one whole cycle of operations from this seed,
# untimed and unchecked: it fills the caches, and peak memory is read after
# it.  A few rare parameter draws make the evaluators allocate several MiB
# more than the rest, so the peak over a seeded run would depend on whether
# the seed hits one; over these fixed inputs it depends on the program alone.
WARMUP_SEED = -1

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_frac": "ratio",
    "ops_per_s": "1/s",
    "exp_ops_per_s": "1/s",
    "kummer_ops_per_s": "1/s",
}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _child_env(root: str) -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


class SpeedProbe:
    """Times a fixed piece of work that does not use exthyp.

    The work mixes ufuncs over an 801-point array with a scalar Python
    loop, the two kinds of work exthyp's evaluators do, so its time tracks
    the machine's speed for both.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._grid = np.linspace(1e-3, 1.0 - 1e-3, 801)
        self.samples = []  # (operations done before the probe, seconds)

    def take(self, position: int) -> float:
        np, t = self._np, self._grid
        t0 = time.perf_counter()
        acc = 0.0
        for k in range(40):
            v = np.exp((0.5 + 0.01 * k) * np.log(t) - 0.3 / t)
            acc += float((v * np.log1p(-0.5 * t)).sum())
            s = 1.0
            for m in range(300):
                s = s * (0.5 + m) / (1.5 + m) * 0.7 + 1e-3
            acc += s
        seconds = time.perf_counter() - t0
        self.samples.append((position, seconds))
        return seconds

    def scale(self, position: int) -> float:
        """Reference seconds per second for operation number ``position``,
        from the median of the PROBE_WINDOW probes on each side of it."""
        after = bisect.bisect_right([p for p, _s in self.samples], position)
        near = self.samples[max(after - PROBE_WINDOW, 0):
                            after + PROBE_WINDOW]
        return PROBE_REF_S / statistics.median(s for _p, s in near)


def measure_setup(root: str, samples: int, discard_first: bool,
                  probe: SpeedProbe) -> tuple[list[float], list[float]]:
    """Seconds of fresh interpreters that import and warm exthyp.

    Returns (reference seconds, raw seconds).  Each interpreter is
    preceded by a probe.  With ``discard_first`` one more interpreter runs
    first, untimed: it may have to compile the bytecode.
    """
    env = _child_env(root)
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    probes = []
    for i in range(samples + discard_first):
        probes.append(probe.take(-1))
        t0 = time.perf_counter()
        # a blocking wait: waiting with a timeout polls at growing
        # intervals, which would quantize the measured time
        code = subprocess.Popen(cmd, cwd=root, env=env,
                                stdout=subprocess.DEVNULL).wait()
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with {code}")
        if i or not discard_first:
            times.append(elapsed)
    scale = PROBE_REF_S / statistics.median(probes)
    return [t * scale for t in times], times


class Tally:
    """Per-operation times and check outcomes of one phase."""

    def __init__(self):
        self.ops = []  # (kernel class, seconds, {kernel class: units})
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.max_deviation = 0.0
        self.notes = []
        self.methods = {}  # (kernel class, dispatch branch) -> calls
        self.probe = None  # a SpeedProbe scales the times when set
        self._since_probe = 0.0

    def add(self, op, seconds: float, outcome) -> None:
        self.ops.append((op.kernel, seconds, outcome.kernel_units))
        self._since_probe += seconds
        if self.probe is not None and self._since_probe >= PROBE_EVERY_S:
            self.probe.take(len(self.ops))
            self._since_probe = 0.0
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.wrong += outcome.wrong
        self.max_deviation = max(self.max_deviation, outcome.deviation)
        self.notes.extend(outcome.notes)
        if outcome.method:
            key = (op.kernel, outcome.method)
            self.methods[key] = self.methods.get(key, 0) + 1

    @classmethod
    def probed(cls) -> "Tally":
        """A tally whose times are scaled by a speed probe."""
        tally = cls()
        tally.probe = SpeedProbe()
        tally.probe.take(0)
        return tally

    def reference_seconds(self) -> float:
        return self._class_totals(None)[1]

    def _class_totals(self, kernel: str | None,
                      raw: bool = False) -> tuple[int, float]:
        """Units and operation seconds of one kernel class (None: all).

        Seconds are reference seconds unless ``raw``.  An operation
        producing units of both classes (a conformance pass) shares its time
        between them by unit count; one that produced nothing charges its
        time to its own class.
        """
        units = 0
        seconds = 0.0
        for i, (k, t, per_class) in enumerate(self.ops):
            if not raw:
                t *= self.probe.scale(i)
            total = sum(per_class.values())
            n = total if kernel is None else per_class.get(kernel, 0)
            units += n
            if total:
                seconds += t * n / total
            elif kernel is None or k == kernel:
                seconds += t
        return units, seconds

    def throughput(self, kernel: str | None = None,
                   raw: bool = False) -> float:
        """Units per second of operation time, for one class or all."""
        units, seconds = self._class_totals(kernel, raw)
        return units / seconds

    def kummer_share(self) -> str:
        units, seconds = self._class_totals("kummer", raw=True)
        all_units, all_seconds = self._class_totals(None, raw=True)
        text = f"kummer share of units {units / all_units:.3f}"
        if all(k != "mixed" for k, _t, _u in self.ops):
            text += f", of operation time {seconds / all_seconds:.3f}"
        return text


def run_ops(gen, count, tally, recorder=None) -> None:
    """Run ``count`` operations.

    Only ``op.run()`` is timed (and traced); its check runs afterwards.
    """
    for _ in range(count):
        op = next(gen)
        if recorder is not None:
            recorder.begin_operation()
            recorder.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
        except Exception as exc:  # a failed operation; the run goes on
            result = exc
        seconds = time.perf_counter() - t0
        if recorder is not None:
            recorder.active = False
        if tally is not None:
            tally.add(op, seconds, op.check(result))


def run_length(plan: dict, seconds: float) -> int:
    """Operations in an untraced run of ``seconds``: whole cycles."""
    return max(round(seconds * plan["cycles_per_s"]), 1) * plan["cycle"]


def percentile_line(label: str, values: list[float]) -> str:
    """Median and the highest of p99/p95/p90 with ten samples beyond it."""
    n = len(values)
    parts = [f"{label}: n={n}"]
    if n >= 21:
        parts.append(f"p50={1000 * statistics.median(values):.3f} ms")
        q = statistics.quantiles(values, n=100, method="inclusive")
        for pct in (99, 95, 90):
            if n * (100 - pct) / 100 >= 10:
                parts.append(f"p{pct}={1000 * q[pct - 1]:.3f} ms")
                break
    return "  ".join(parts)


def settings_line() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_text = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_text = "unknown"
    threads = " ".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS)
    return (f"settings: python {sys.version.split()[0]}  numpy "
            f"{np.__version__}  blas {blas_text}  {threads}  "
            f"nproc {os.cpu_count()}  callers 1")


def report(tally: Tally, metrics: dict, units: dict) -> None:
    """Print every metric with its unit, then the result line."""
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"attempted={tally.attempted} failed={tally.failed} "
          f"wrong={tally.wrong} max_deviation={tally.max_deviation:.3g}")
    for note in tally.notes[:20]:
        print(f"check: {note}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def untraced(args, root: str, workdir: str) -> None:
    import workloads

    plan = PLAN[args.workload]
    make = workloads.WORKLOADS[args.workload]
    probe = SpeedProbe()
    setup, setup_raw = measure_setup(root, SETUP_SAMPLES[0], True, probe)
    run_ops(make(WARMUP_SEED, workdir), plan["cycle"], None)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    tally = Tally.probed()
    run_ops(make(args.seed, workdir), run_length(plan, args.seconds), tally)
    run_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally.probe.take(len(tally.ops))
    end, end_raw = measure_setup(root, SETUP_SAMPLES[1], False, probe)
    setup += end
    setup_raw += end_raw

    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mib": rss_kib / 1024.0,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "ops_per_s": tally.throughput(),
        "exp_ops_per_s": tally.throughput("exp"),
        "kummer_ops_per_s": tally.throughput("kummer"),
    }
    probes = [s for _p, s in tally.probe.samples]
    print(settings_line())
    print(f"speed probe: n={len(probes)}  median "
          f"{1000 * statistics.median(probes):.3f} ms  reference "
          f"{1000 * PROBE_REF_S:.3f} ms")
    print(f"raw (unscaled): setup_s {statistics.median(setup_raw):.4f} s  "
          f"ops_per_s {tally.throughput(raw=True):.6g}  exp_ops_per_s "
          f"{tally.throughput('exp', raw=True):.6g}  kummer_ops_per_s "
          f"{tally.throughput('kummer', raw=True):.6g}")
    print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))
    print(f"peak resident memory after the run, checks included: "
          f"{run_rss_kib / 1024.0:.1f} MiB")
    for kernel in ("exp", "kummer", "mixed"):
        times = [t for k, t, _u in tally.ops if k == kernel]
        if times:
            print(percentile_line(f"{kernel} operation latency (raw)",
                                  times))
    print(f"input: {tally.kummer_share()}")
    for (kernel, method), n in sorted(tally.methods.items()):
        print(f"input: dispatch {kernel} {method} {n}")
    report(tally, metrics, END_TO_END_UNITS)


def twin(args, root: str, workdir: str) -> None:
    """Untraced twin of a traced run: same warm-up, same operations."""
    import workloads

    make = workloads.WORKLOADS[args.workload]
    run_ops(make(WARMUP_SEED, workdir), PLAN[args.workload]["cycle"], None)
    tally = Tally.probed()
    run_ops(make(args.seed, workdir), args.twin, tally)
    tally.probe.take(len(tally.ops))
    print(json.dumps({"reference_seconds": tally.reference_seconds()}))


def traced(args, root: str, workdir: str) -> None:
    import spans
    import workloads

    plan = PLAN[args.workload]
    make = workloads.WORKLOADS[args.workload]
    run_ops(make(WARMUP_SEED, workdir), plan["cycle"], None)

    recorder = spans.Recorder()
    recorder.install()
    tally = Tally.probed()
    run_ops(make(args.seed, workdir), plan["traced"], tally, recorder)
    tally.probe.take(len(tally.ops))

    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "1",
         "--trace", "0", "--twin", str(plan["traced"])],
        cwd=root, env=_child_env(root), check=True, timeout=170,
        capture_output=True, text=True)
    untraced_s = json.loads(
        out.stdout.strip().splitlines()[-1])["reference_seconds"]

    metrics = recorder.metrics()
    metrics["trace.overhead_frac"] = (tally.reference_seconds() / untraced_s
                                      - 1.0)
    print(settings_line())
    series = sum(metrics[f"{s}.calls"] for s in (
        "hyp.series", "appell.series", "lauricella.series"))
    integral = sum(metrics[f"{s}.calls"] for s in (
        "hyp.euler", "appell.integral", "lauricella.integral"))
    print(f"input: {plan['traced']} operations traced; series share of "
          f"evaluator calls {series / max(series + integral, 1):.3f}")
    units = {name: unit_of(name) for name in metrics}
    report(tally, metrics, units)


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PLAN))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--twin", type=int, default=0,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "exthyp", "__init__.py")):
        return _fail(f"no exthyp source under {src}; run from the root of "
                     f"a checkout")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [src, HERE]
    import exthyp

    if not os.path.abspath(exthyp.__file__).startswith(src + os.sep):
        return _fail(f"imported exthyp from {exthyp.__file__}, not {src}")

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        if args.twin:
            twin(args, root, workdir)
        elif args.trace:
            traced(args, root, workdir)
        else:
            untraced(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
