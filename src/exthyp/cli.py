"""Command-line front end.

Subcommands: eval (single values as JSON), table (argument sweeps as CSV),
hilbert (inequality checker), conformance (identity suite with CSV report).
Exit codes: 0 success, 1 malformed flags, 2 domain error or a report path
that cannot be written, 3 non-convergence, 4 conformance failure.  Output
formatting is fixed at 17 significant digits so identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys

from .appell import AppellParams, f1_eval, f2_eval
from .conformance import (SUITES, exit_code, fmt17, report_csv,
                          run_conformance, summary_lines)
from .extbeta import BetaArgs, RegPair, ext_beta, ext_gamma
from .hyp import ext_pfq, pfq_spec
from .ineq import hilbert_bilinear, HilbertParams, parse_test_function
from .kernel import parse_kernel
from .lauricella import LauricellaParams, fa_eval, fd_eval
from .mellin import ContourSpec, mb_eval
from .results import DomainError, EvalResult, check_tol

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CONFORMANCE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; flags errors are 1
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError as exc:
        raise DomainError(f"bad numeric list {text!r}") from exc


def _json_line(pairs: list[tuple[str, object]]) -> str:
    parts = []
    for key, val in pairs:
        if isinstance(val, bool):
            rendered = "true" if val else "false"
        elif isinstance(val, float):
            rendered = fmt17(val)
        elif isinstance(val, int):
            rendered = str(val)
        else:
            rendered = json.dumps(val)
        parts.append(f'"{key}": {rendered}')
    return "{" + ", ".join(parts) + "}"


def _print_result(res: EvalResult) -> int:
    value = res.value
    if isinstance(value, complex):
        value = value.real
    print(_json_line([
        ("value", float(value)),
        ("abs_err_est", float(res.abs_err_est)),
        ("method", res.method),
        ("terms_or_nodes", int(res.terms_or_nodes)),
        ("converged", bool(res.converged)),
    ]))
    return EXIT_OK if res.converged else EXIT_NO_CONVERGENCE


# The methods each function has; "auto" lets the function choose.
_METHODS = {
    "2f1": ("auto", "series", "integral", "mellin"),
    "pfq": ("auto", "series", "integral", "mellin"),
    "f1": ("auto", "series", "integral"),
    "f2": ("auto", "series", "integral"),
    "fd": ("auto", "series", "integral"),
    "fa": ("auto", "series", "integral"),
    "extbeta": ("auto",),
    "extgamma": ("auto",),
}


def _pfq_spec(args, kernel, reg: RegPair, params: list[float]):
    if args.func == "2f1":
        if len(params) != 3:
            raise DomainError("2f1 needs --params a1,a2,b1")
        return pfq_spec(kernel, params[:2], params[2:], reg)
    if ":" not in (args.params or ""):
        raise DomainError("pfq needs --params 'a1,..:b1,..'")
    up_text, lo_text = args.params.split(":", 1)
    ks = _floats(args.kshifts)
    if not all(k.is_integer() for k in ks):
        raise DomainError(f"shift multipliers must be integers, got {ks}")
    return pfq_spec(kernel, _floats(up_text), _floats(lo_text), reg,
                    ks=[int(k) for k in ks] if ks else None)


def _eval_func(args) -> EvalResult:
    kernel = parse_kernel(args.kernel)
    reg = RegPair(args.b, args.d)
    func, method = args.func, args.method
    params = _floats(args.params) if args.params and func != "pfq" else []
    tol = args.tol
    if method not in _METHODS[func]:
        raise DomainError(f"{func} has no method {method!r}")
    if func in ("2f1", "pfq"):
        spec = _pfq_spec(args, kernel, reg, params)
        if method == "mellin":
            c = _floats(args.contour)
            if len(c) > 3:
                raise DomainError("--contour takes at most c0,T,h")
            return mb_eval(spec, args.z, ContourSpec(*c) if c else None, tol)
        return ext_pfq(spec, args.z, tol, method)
    if func == "f1":
        if len(params) != 4:
            raise DomainError("f1 needs --params alpha,b1,b2,g1")
        p = AppellParams(params[0], params[1], params[2], params[3],
                         math.nan, reg, kernel)
        return f1_eval(p, args.x, args.y, tol, method)
    if func == "f2":
        if len(params) != 5:
            raise DomainError("f2 needs --params alpha,b1,b2,g1,g2")
        p = AppellParams(params[0], params[1], params[2], params[3],
                         params[4], reg, kernel)
        return f2_eval(p, args.x, args.y, tol, method)
    if func == "fd":
        r = args.r
        if len(params) != r + 2:
            raise DomainError("fd needs --params alpha,b1..br,gamma with --r")
        xs = _floats(args.xs)
        p = LauricellaParams(params[0], tuple(params[1:1 + r]),
                             (params[1 + r],), tuple(xs), reg, kernel)
        return fd_eval(p, tol, method)
    if func == "fa":
        r = args.r
        if len(params) != 2 * r + 1:
            raise DomainError("fa needs --params alpha,b1..br,g1..gr with --r")
        xs = _floats(args.xs)
        p = LauricellaParams(params[0], tuple(params[1:1 + r]),
                             tuple(params[1 + r:1 + 2 * r]), tuple(xs), reg,
                             kernel)
        return fa_eval(p, tol, method)
    if func == "extbeta":
        if len(params) != 2:
            raise DomainError("extbeta needs --params alpha,beta")
        return ext_beta(kernel, BetaArgs(params[0], params[1]), reg, tol)
    if len(params) != 1:
        raise DomainError("extgamma needs --params z")
    return ext_gamma(kernel, params[0], args.b, tol)


def cmd_eval(args) -> int:
    check_tol(args.tol)
    return _print_result(_eval_func(args))


def _with_report(path: str, run) -> int:
    """Exit code of ``run(write)``, where ``write(text)`` rewrites the report
    at ``path`` (None when there is no path).

    The path is opened before ``run`` starts, so one that cannot be written
    exits 2 before any work.  It is never opened with O_TRUNC: ext4 flushes
    the delayed-allocation blocks of a file truncated to zero when it is
    closed (``auto_da_alloc``), and for a repeated conformance report that
    flush cost more than the numerics.  ``write`` puts the new bytes over the
    old ones and then cuts a regular file to their length; a device or FIFO
    is not cut.  Until it is called the old report stays as it was, and a
    file that the run created is removed again.
    """
    if not path:
        return run(None)
    new = not os.path.lexists(path)
    try:
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    except OSError as exc:
        print(f"error: cannot write report {path}: {exc.strerror}",
              file=sys.stderr)
        return EXIT_DOMAIN

    def write(text: str) -> None:
        nonlocal new
        data = memoryview(text.encode("utf-8"))
        size = len(data)
        while data:
            data = data[os.write(fd, data):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, size)
        new = False

    try:
        return run(write)
    finally:
        os.close(fd)
        if new:
            os.unlink(path)


def cmd_table(args) -> int:
    if args.steps < 1:
        print("error: --steps must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    check_tol(args.tol)
    return _with_report(args.report,
                        lambda write: _table(args, write or sys.stdout.write))


def _table(args, write) -> int:
    rows = ["argument,value,err_est"]
    code = EXIT_OK
    for i in range(args.steps + 1):
        zi = args.frm + (args.to - args.frm) * i / args.steps
        sub = argparse.Namespace(**vars(args))
        if args.func in ("f1", "f2"):
            sub.x = zi
        elif args.func in ("fd", "fa"):
            sub.xs = ",".join([fmt17(zi)] * args.r)
        else:
            sub.z = zi
        try:
            res = _eval_func(sub)
        except DomainError as exc:
            raise DomainError(f"at argument {fmt17(zi)}: {exc}") from None
        if not res.converged:
            code = EXIT_NO_CONVERGENCE
        value = (res.value.real if isinstance(res.value, complex)
                 else res.value)
        rows.append(",".join([fmt17(zi), fmt17(float(value)),
                              fmt17(float(res.abs_err_est))]))
    write("\n".join(rows) + "\n")
    return code


def cmd_hilbert(args) -> int:
    hp = HilbertParams(args.p, args.q, args.s1, args.s2, args.a1, args.a2,
                       args.A1, args.A2, args.pt, args.qt)
    form = hilbert_bilinear(hp, parse_test_function(args.f),
                            parse_test_function(args.g))
    print(_json_line([
        ("K", float(form.constant)),
        ("lhs", float(form.lhs)),
        ("rhs", float(form.rhs)),
        ("margin", float(form.margin)),
        ("holds", bool(form.holds)),
    ]))
    return EXIT_OK if form.converged else EXIT_NO_CONVERGENCE


def cmd_conformance(args) -> int:
    check_tol(args.tol)
    return _with_report(args.report, lambda write: _conformance(args, write))


def _conformance(args, write) -> int:
    report = run_conformance(args.suite, args.grid, args.tol)
    if write:
        write(report_csv(report))
    for line in summary_lines(report):
        print(line)
    print(f"wall_clock={report.wall_clock:.2f}s "
          f"memo_hits={report.memo_hits}/{report.memo_calls}",
          file=sys.stderr)
    return exit_code(report)


def build_parser() -> _Parser:
    parser = _Parser(prog="exthyp",
                     description="kernel-regularized special functions")
    sub = parser.add_subparsers(dest="command", required=True)

    # the arguments that eval and table share
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--func", required=True, choices=list(_METHODS))
    common.add_argument("--kernel", default="exp")
    common.add_argument("--params", default="")
    common.add_argument("--kshifts", default="")
    common.add_argument("--x", type=float, default=0.0)
    common.add_argument("--y", type=float, default=0.0)
    common.add_argument("--xs", default="")
    common.add_argument("--r", type=int, default=1)
    common.add_argument("--b", type=float, default=0.0)
    common.add_argument("--d", type=float, default=0.0)
    common.add_argument("--tol", type=float, default=1e-10)
    methods = dict.fromkeys(m for ms in _METHODS.values() for m in ms)
    common.add_argument("--method", default="auto", choices=list(methods))
    common.add_argument("--contour", default="",
                        help="mellin contour c0,T,h (first steps h, h/2)")

    pe = sub.add_parser("eval", parents=[common],
                        help="single evaluation as JSON")
    pe.add_argument("--z", type=float, default=0.0)
    pe.set_defaults(run=cmd_eval)

    pt = sub.add_parser(
        "table", parents=[common],
        help="argument sweep as CSV (sweeps z; for f1/f2 it sweeps x with "
             "--y fixed, for fd/fa all arguments move together)")
    pt.add_argument("--from", dest="frm", type=float, required=True)
    pt.add_argument("--to", type=float, required=True)
    pt.add_argument("--steps", type=int, required=True)
    pt.add_argument("--report", default="")
    pt.set_defaults(run=cmd_table)

    ph = sub.add_parser("hilbert", help="inequality checker")
    ph.add_argument("--p", type=float, required=True)
    ph.add_argument("--q", type=float, required=True)
    ph.add_argument("--s1", type=float, required=True)
    ph.add_argument("--s2", type=float, required=True)
    ph.add_argument("--a1", type=float, required=True)
    ph.add_argument("--a2", type=float, required=True)
    ph.add_argument("--A1", type=float, required=True)
    ph.add_argument("--A2", type=float, required=True)
    ph.add_argument("--pt", type=float, default=0.0)
    ph.add_argument("--qt", type=float, default=0.0)
    ph.add_argument("--f", default="exp_decay:0")
    ph.add_argument("--g", default="exp_decay:0")
    ph.set_defaults(run=cmd_hilbert)

    pc = sub.add_parser("conformance", help="identity suite")
    pc.add_argument("--suite", default="all", choices=["all", *SUITES])
    pc.add_argument("--grid", default="small", choices=["small", "full"])
    pc.add_argument("--tol", type=float, default=1e-8)
    pc.add_argument("--report", default="")
    pc.set_defaults(run=cmd_conformance)

    return parser


def _apply_config(argv: list[str]) -> list[str]:
    """Inline --config JSON as flags placed before explicit ones."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 >= len(argv):
        print("error: --config needs a path", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    path = argv[i + 1]
    rest = argv[:i] + argv[i + 2:]
    try:
        with open(path, encoding="utf-8") as fh:
            config = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read config {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    if not rest:
        print("error: --config needs a subcommand", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    flags = []
    for key, val in config.items():
        if isinstance(val, bool):
            if val:
                flags.append(f"--{key}")
        else:
            flags.extend([f"--{key}", str(val)])
    return [rest[0]] + flags + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    argv = _apply_config(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
