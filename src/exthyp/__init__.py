"""Kernel-regularized special functions and their identity-conformance harness.

A regularization kernel (plain exponential or a confluent hypergeometric
factor) is inserted into the Euler integrals of the beta and gamma
functions; everything else in the library is built on the resulting
two-parameter beta values: extended Gauss and generalized hypergeometric
series, two-variable functions of the first and second kind, their
r-variable analogues of types D and A, a fractional-derivative operator, a
one-dimensional contour evaluator, and a Hardy-Hilbert inequality whose
constant is expressed through the extended Gauss values.

The `conformance` module registers every identity the library implements
and numerically adjudicates printed-vs-derived discrepancies; the `cli`
module exposes evaluation, tables, the inequality checker, and the
conformance runner.
"""

from .corefn import (
    beta_classical,
    ln_gamma,
    pochhammer,
)
from .extbeta import (
    BetaArgs,
    RegPair,
    ext_beta,
    ext_beta_shifted_batch,
    ext_gamma,
)
from .hyp import (
    PfqSpec,
    derivative,
    derivative_weighted,
    euler_step_integral,
    euler_transform,
    ext_2f1,
    ext_pfq,
    frac_deriv,
    pfaff_transform,
    pfq_spec,
    recurrence_eval,
    summation_thm,
)
from .appell import (
    AppellParams,
    f1_eval,
    f1_finite_sum,
    f1_integral,
    f1_series,
    f1_transform,
    f2_eval,
    f2_integral,
    f2_recursion,
    f2_series,
    f2_single_integral,
    f2_transform,
    lemma1_expand,
)
from .lauricella import (
    IntervalProductParams,
    LauricellaParams,
    fa_eval,
    fa_integral,
    fa_partial_series,
    fa_series,
    fa_single_integral,
    fd_equal_arguments,
    fd_eval,
    fd_integral,
    fd_laplace_product,
    fd_series,
    fd_summation_unit,
    interval_product_integral,
)
from .mellin import ContourSpec, default_contour, mb_eval
from .ineq import (
    HilbertForm,
    HilbertParams,
    TestFunction,
    bump,
    classical_point,
    exp_decay,
    hilbert_bilinear,
    hilbert_check,
    hilbert_constant,
    hilbert_equivalent,
    lemma2_identity,
    midpoint_params,
    power_cut,
    weight_F,
    weight_G,
)
from .kernel import (
    EXP_KERNEL,
    KernelSpec,
    kummer_kernel,
    parse_kernel,
)
from .quadrature import (
    QuadGrid,
    QuadResult,
    integrate_halfline,
    integrate_unit_batch,
)
from .results import (
    DomainError,
    EvalResult,
    KernelMismatchError,
    NonFiniteSampleError,
)

__version__ = "0.1.0"

import types as _types

__all__ = sorted(
    name for name, obj in list(globals().items())
    if not name.startswith("_") and not isinstance(obj, _types.ModuleType))
