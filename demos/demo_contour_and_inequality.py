"""The contour evaluator and the regularized Hardy-Hilbert inequality.

The vertical-line integral regenerates the extended series at negative
arguments; the inequality checker evaluates both sides of the bilinear
bound on closed-form test functions, recovering the constant pi at the
classical point.
"""

import math

from exthyp import (
    EXP_KERNEL,
    ContourSpec,
    RegPair,
    bump,
    classical_point,
    default_contour,
    exp_decay,
    ext_2f1,
    hilbert_check,
    hilbert_constant,
    mb_eval,
    midpoint_params,
    pfq_spec,
)

print("contour evaluation at z = -0.4 with a regularized pair:")
reg = RegPair(0.2, 0.3)
spec = pfq_spec(EXP_KERNEL, (0.8, 1.1), (2.4,), reg)
contour = default_contour(spec)
got = mb_eval(spec, -0.4, contour)
direct = ext_2f1(EXP_KERNEL, 0.8, 1.1, 2.4, -0.4, reg)
print(f"  contour (c0={contour.abscissa:.3f})  {got.value:.15f}")
print(f"  series/integral route        {direct.value:.15f}")
shifted = mb_eval(spec, -0.4, ContourSpec(contour.abscissa * 1.5))
print(f"  shifted abscissa             {shifted.value:.15f}")
print()

print("classical bilinear bound: kernel 1/(x+y), constant pi")
hp = classical_point()
print(f"  constant = {hilbert_constant(hp):.12f}   (pi = {math.pi:.12f})")
bil, _ = hilbert_check(hp, exp_decay(0.0), exp_decay(0.0))
print(f"  lhs = {bil.lhs:.12f}  rhs = {bil.rhs:.12f}  margin = "
      f"{bil.margin:.12f}")
print()

print("regularized generic point with a compact bump on one side:")
hp = midpoint_params(1.8, 2.2, 0.6, 0.6, 1.0, 1.5, 0.2, 0.2)
bil, equiv = hilbert_check(hp, exp_decay(1.0), bump(1.0, 2.0))
print(f"  constant = {bil.constant:.12f}")
print(f"  bilinear     lhs = {bil.lhs:.10f}  <=  rhs = {bil.rhs:.10f}  "
      f"({'holds' if bil.holds else 'violated'})")
print(f"  equivalent   lhs = {equiv.lhs:.10f}  <=  rhs = "
      f"{equiv.rhs:.10f}  ({'holds' if equiv.holds else 'violated'})")
