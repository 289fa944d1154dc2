"""The benchmark workloads: operation streams and their checks.

Every workload is a closed loop: one caller in one process sends its next
operation only after the previous one returned.  An operation is built from
the seed alone, runs through a public entry point of exthyp (the CLI ``main``
in-process, or the Python API) and is checked afterwards, outside the timed
region, against a second representation of the same value.

Operations carry a kernel class ("exp" or "kummer"), so throughput can be
reported per class on every workload.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from dataclasses import dataclass, field

import exthyp
import exthyp.cli

# Values are compared as |v - ref| <= CHECK_FACTOR * tol * (1 + |ref|): both
# sides are accurate to about tol, and the conformance catalog uses the same
# 10x scale for identities that compare two quadrature-based values.  A miss
# counts as a failed operation, whatever its size.
CHECK_FACTOR = 10.0


@dataclass
class Outcome:
    """What one operation produced, and what its check found."""

    # values produced (report rows or calls), per kernel class
    kernel_units: dict
    attempted: int
    failed: int
    # outputs that are wrong whatever the tolerance: a non-finite value
    # reported as converged, or a conformance verdict other than expected
    wrong: int = 0
    notes: list = field(default_factory=list)
    method: str = ""  # dispatch branch taken (eval-mix calls only)
    deviation: float = 0.0  # |value - ref| / (1 + |ref|)


@contextlib.contextmanager
def _quiet():
    """Capture the CLI's stdout and stderr; yields the stdout buffer."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        yield out


# ---------------------------------------------------------------------------
# conformance-full

# Expected verdicts: the derivation-forced "proof" variant wins every
# two-variant identity; every other identity has the single "printed" variant.
TWO_VARIANT_IDS = (
    "euler-transform", "f1-finite-sum", "f1-pfaff-transform",
    "f2-recursion-upper-shift", "fa-kummer-product-integral",
    "fa-series-vs-integral", "pfaff-transform",
    "recurrence-upper-second-plus", "weighted-derivative",
)
CATALOG_SIZE = 40


class ConformanceOp:
    """`exthyp conformance --suite all --grid full --tol 1e-8` in-process."""

    # Report rows are split by the kernel in their parameters; a pass mixes
    # both, so its time is shared between the classes by row count.
    kernel = "mixed"

    def __init__(self, report_path: str):
        self.report_path = report_path
        self.argv = ["conformance", "--suite", "all", "--grid", "full",
                     "--tol", "1e-8", "--report", report_path]

    def run(self):
        with _quiet() as out:
            code = exthyp.cli.main(self.argv)
        return code, out.getvalue()

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome({"exp": 0, "kummer": 0}, CATALOG_SIZE,
                           CATALOG_SIZE, CATALOG_SIZE, [f"raised {result!r}"])
        code, text = result
        notes = []
        verdicts = {}
        for line in text.splitlines():
            if line.startswith("["):
                status, rest = line.split("] ", 1)
                ident, rest = rest.split(" winner=", 1)
                verdicts[ident] = (status[1:], rest.split(" ", 1)[0])
        failed = 0
        if len(verdicts) != CATALOG_SIZE:
            notes.append(f"{len(verdicts)} identities reported, "
                         f"expected {CATALOG_SIZE}")
            failed += abs(CATALOG_SIZE - len(verdicts))
        for ident, (status, winner) in sorted(verdicts.items()):
            want = "proof" if ident in TWO_VARIANT_IDS else "printed"
            if status != "OK" or winner != want:
                failed += 1
                notes.append(f"{ident}: {status} winner={winner}, "
                             f"expected OK winner={want}")
        if code != 0:
            failed = max(failed, 1)
            notes.append(f"exit code {code}")
        rows = {"exp": 0, "kummer": 0}
        with open(self.report_path, encoding="utf-8") as fh:
            next(fh)
            for line in fh:
                rows["kummer" if "kernel=kummer" in line else "exp"] += 1
        return Outcome(rows, CATALOG_SIZE, failed, failed, notes)


def conformance_ops(seed: int, workdir: str):
    """The catalog is fixed, so the seed is not used."""
    path = os.path.join(workdir, "conformance-report.csv")
    while True:
        yield ConformanceOp(path)


# ---------------------------------------------------------------------------
# eval-mix

EVAL_FUNCS = ("2f1", "3f2", "beta", "f1", "f2", "fd", "fa")
EVAL_TOLS = (1e-6, 1e-10)
# calls in which every (function, kernel, side of the cut, tol) combination
# occurs once
EVAL_CYCLE = 84


# Irrational steps of the quasi-random draws: the fractional parts of the
# square roots of the first primes, one per number drawn within a call.
_STEPS = tuple(math.sqrt(p) % 1.0 for p in (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67,
    71, 73, 79, 83, 89))


class Draws:
    """The numbers drawn for one call: a seeded quasi-random sequence.

    The j-th number drawn for the c-th call at a position of the mix is
    frac(offset + c * step_j), with a seeded offset per (position, j).  Every
    call gets fresh values, and over a run each position's draws cover their
    ranges evenly (a Kronecker sequence), so the dispatch branches and the
    costly corners of each domain take about the same share of every run,
    whatever the seed.  Independent pseudo-random draws leave those shares,
    and with them a run's throughput, to chance.
    """

    def __init__(self, seed: int, position: int, cycle: int):
        self._key = f"eval-mix:{seed}:{position}"
        self._cycle = cycle
        self._j = 0

    def random(self) -> float:
        offset = random.Random(f"{self._key}:{self._j}").random()
        value = (offset + self._cycle * _STEPS[self._j]) % 1.0
        self._j += 1
        return value

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def choice(self, options):
        return options[int(self.random() * len(options))]


def _draw_kummer(draws: Draws) -> tuple[float, float]:
    a = draws.uniform(0.5, 2.5)
    return a, a + draws.uniform(0.3, 2.5)


def _draw_pfq(draws: Draws, p: int) -> tuple[list, list]:
    """Upper/lower lists with every pairing beta > alpha > 0."""
    upper = [draws.uniform(0.2, 2.5) for _ in range(p)]
    lower = [a + draws.uniform(0.3, 2.5) for a in upper[1:]]
    return upper, lower


def _coord(draws: Draws, lo: float, hi: float) -> float:
    """A coordinate whose magnitude is drawn from [lo, hi), random sign."""
    mag = draws.uniform(lo, hi)
    return mag if draws.random() < 0.5 else -mag


def _split_sum(draws: Draws, total: float) -> tuple[float, float]:
    """Two coordinates whose magnitudes sum to ``total``, random signs."""
    share = draws.random()
    x, y = total * share, total * (1.0 - share)
    return ((x if draws.random() < 0.5 else -x),
            (y if draws.random() < 0.5 else -y))


class EvalOp:
    """One independent call through the Python API.

    ``call`` evaluates with automatic dispatch; ``reference`` evaluates the
    same value through a second representation chosen from the branch the
    call took.
    """

    def __init__(self, func: str, kernel: str, tol: float, call, reference):
        self.func, self.kernel, self.tol = func, kernel, tol
        self.call, self.reference = call, reference

    def run(self):
        return self.call()

    def check(self, result) -> Outcome:
        if isinstance(result, Exception):
            return Outcome({self.kernel: 0}, 1, 1, 0,
                           [f"{self.func} ({self.kernel}): raised {result!r}"])
        units = {self.kernel: 1}
        value = complex(result.value).real
        wrong = int(result.converged and not math.isfinite(value))
        try:
            ref = self.reference(result.method)
        except Exception as exc:  # counted as a failed check
            return Outcome(units, 1, 1, wrong,
                           [f"{self.func}: reference raised {exc!r}"],
                           result.method)
        ref_value = complex(ref.value).real
        dev = abs(value - ref_value) / (1.0 + abs(ref_value))
        ok = (result.converged and ref.converged
              and dev <= CHECK_FACTOR * self.tol)  # False for NaN
        notes = [] if ok else [
            f"{self.func} ({self.kernel}, tol={self.tol:g}, "
            f"{result.method}): value={value!r} "
            f"converged={result.converged} ref={ref_value!r} "
            f"ref_converged={ref.converged} deviation={dev:.3g}"]
        return Outcome(units, 1, int(not ok), wrong, notes, result.method,
                       dev if math.isfinite(dev) else math.inf)


def _other(method: str) -> str:
    return "integral" if method == "series" else "series"


def _draw_eval(draws: Draws, func: str, kernel_class: str,
               edge: bool, tol: float) -> EvalOp:
    """Fresh parameters for one call.

    The multivariable evaluators switch from series to integral at a
    coordinate (or coordinate sum) of 0.95; with ``edge`` the arguments lie
    in [0.95, 0.97), else in [0, 0.95).  The 0.97 limit keeps the series
    convergent, so every value can be checked against it.
    """
    E = exthyp
    kern = (E.kummer_kernel(*_draw_kummer(draws)) if kernel_class == "kummer"
            else E.EXP_KERNEL)
    reg = E.RegPair(draws.uniform(0.0, 1.0), draws.uniform(0.0, 1.0))
    near = (0.95, 0.97) if edge else (0.0, 0.95)

    if func in ("2f1", "3f2"):
        p = 2 if func == "2f1" else 3
        upper, lower = _draw_pfq(draws, p)
        # 2F1: Euler integral for z < 0 or z > 0.85, series otherwise;
        # 3F2 has no path beyond |z| = 0.85
        z = (draws.uniform(-0.95, 0.95) if p == 2
             else draws.uniform(-0.85, 0.85))
        spec = E.pfq_spec(kern, upper, lower, reg)
        call = lambda: E.ext_pfq(spec, z, tol)
        ref = lambda m: E.ext_pfq(spec, z, tol, _other(m))
    elif func == "beta":
        alpha, beta = draws.uniform(0.1, 3.0), draws.uniform(0.1, 3.0)
        args = E.BetaArgs(alpha, beta)
        call = lambda: E.ext_beta(kern, args, reg, tol)
        # the shared-grid batch path of the series coefficients
        ref = lambda m: E.ext_beta_shifted_batch(kern, alpha, 1, beta, reg,
                                                 tol=tol)[0]
    elif func == "f1":
        alpha = draws.uniform(0.2, 2.5)
        params = E.AppellParams(alpha, draws.uniform(0.1, 2.0),
                                draws.uniform(0.1, 2.0),
                                alpha + draws.uniform(0.3, 2.5), math.nan,
                                reg, kern)
        x, y = _coord(draws, *near), _coord(draws, 0.0, 0.97)
        call = lambda: E.f1_eval(params, x, y, tol)
        ref = lambda m: E.f1_eval(params, x, y, tol, _other(m))
    elif func == "f2":
        b1, b2 = draws.uniform(0.2, 2.0), draws.uniform(0.2, 2.0)
        params = E.AppellParams(draws.uniform(0.2, 2.5), b1, b2,
                                b1 + draws.uniform(0.3, 2.5),
                                b2 + draws.uniform(0.3, 2.5), reg, kern)
        x, y = _split_sum(draws, draws.uniform(*near))
        call = lambda: E.f2_eval(params, x, y, tol)
        ref = lambda m: E.f2_eval(params, x, y, tol, _other(m))
    elif func == "fd":
        r = draws.choice((2, 3))
        alpha = draws.uniform(0.2, 2.5)
        xs = (_coord(draws, *near),) + tuple(
            _coord(draws, 0.0, 0.97) for _ in range(r - 1))
        params = E.LauricellaParams(
            alpha, tuple(draws.uniform(0.1, 2.0) for _ in range(r)),
            (alpha + draws.uniform(0.3, 2.5),), xs, reg, kern)
        call = lambda: E.fd_eval(params, tol)
        ref = lambda m: E.fd_eval(params, tol, _other(m))
    elif func == "fa":
        betas = (draws.uniform(0.2, 2.0), draws.uniform(0.2, 2.0))
        gammas = tuple(b + draws.uniform(0.3, 2.5) for b in betas)
        xs = _split_sum(draws, draws.uniform(0.0, 0.95))
        params = E.LauricellaParams(draws.uniform(0.2, 2.5), betas, gammas,
                                    xs, reg, kern)
        # the type A evaluator is series-only; the product-grid integral
        # is the second representation
        call = lambda: E.fa_series(params, tol)
        ref = lambda m: E.fa_integral(params, tol)
    else:
        raise ValueError(f"unknown function {func!r}")
    return EvalOp(func, kernel_class, tol, call, ref)


def eval_ops(seed: int, workdir: str = ""):
    """Round-robin over the functions; every third call uses kummer.

    Seven functions against a period of three, so each (function, kernel)
    pair recurs every 21 calls.  The argument range (edge or not) and tol
    take turns at periods of 21 and 42 calls, so every 84 calls hold each
    combination once.  Parameters are fresh on every call.
    """
    i = 0
    while True:
        func = EVAL_FUNCS[i % len(EVAL_FUNCS)]
        kernel_class = "kummer" if i % 3 == 2 else "exp"
        edge = (i // 21) % 2 == 1
        tol = EVAL_TOLS[(i // 42) % 2]
        draws = Draws(seed, i % EVAL_CYCLE, i // EVAL_CYCLE)
        i += 1
        yield _draw_eval(draws, func, kernel_class, edge, tol)


WORKLOADS = {
    "conformance-full": conformance_ops,
    "eval-mix": eval_ops,
}
