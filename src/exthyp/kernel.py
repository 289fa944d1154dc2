"""Regularization kernels inserted into the Euler-type integrals.

Two closed variants: the plain exponential, and the confluent hypergeometric
kernel with parameters (a, c).  Both have unit zeroth Taylor coefficient and
exponential-type growth on the right half line; on the left half line the
exponential kernel decays superexponentially while the confluent kernel
decays only algebraically (like |z|^-a), which is what drives the tighter
domain rules in the extended-beta module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import corefn
from .results import DomainError, refuse_non_finite

EXP_VARIANT = "exp"
KUMMER_VARIANT = "kummer"


@dataclass(frozen=True)
class KernelSpec:
    variant: str
    a: float = math.nan
    c: float = math.nan

    def __post_init__(self):
        if self.variant not in (EXP_VARIANT, KUMMER_VARIANT):
            raise DomainError(f"unknown kernel variant {self.variant!r}")
        if self.variant == KUMMER_VARIANT:
            refuse_non_finite("confluent kernel parameters", self.a, self.c)
            top = corefn._LN_GAMMA_MAX_ARG  # for the log-gammas of c, c - a
            if not (0.0 < self.a <= top and 0.0 < self.c <= top):
                raise DomainError(f"confluent kernel needs 0 < a, c <= {top:g}")

    @property
    def decay_order(self) -> float:
        """Algebraic decay rate at -infinity: Theta(z) ~ |z|^-decay_order.

        Infinite for the exponential kernel.
        """
        return math.inf if self.variant == EXP_VARIANT else self.a

    @property
    def unit_range(self) -> bool:
        """Whether Theta maps (-inf, 0] into [0, 1]: the exponential kernel,
        and the confluent kernel with c >= a > 0, whose 1F1(a; c; -w) is
        then a mean of e^(-w s) over a beta density in s (or e^-w)."""
        return self.variant == EXP_VARIANT or self.c >= self.a

    def label(self) -> str:
        if self.variant == EXP_VARIANT:
            return "exp"
        return f"kummer:{self.a:g},{self.c:g}"


EXP_KERNEL = KernelSpec(EXP_VARIANT)


def kummer_kernel(a: float, c: float) -> KernelSpec:
    return KernelSpec(KUMMER_VARIANT, float(a), float(c))


def parse_kernel(text: str) -> KernelSpec:
    """Parse the CLI/config syntax: "exp" or "kummer:a,c"."""
    text = text.strip()
    if text == "exp":
        return EXP_KERNEL
    if text.startswith("kummer:"):
        parts = text[len("kummer:"):].split(",")
        try:
            a, c = map(float, parts)
        except ValueError:
            raise DomainError(f"bad kernel syntax {text!r}; "
                              f"want kummer:a,c") from None
        return kummer_kernel(a, c)
    raise DomainError(f"bad kernel syntax {text!r}; want 'exp' or 'kummer:a,c'")


def theta_eval_arr(k: KernelSpec, z: np.ndarray) -> np.ndarray:
    """Vectorized kernel evaluation over a real array of z <= 0, the Euler
    integrals' kernel arguments: the confluent kernel refuses z > 0
    (``corefn.kummer_1f1_arr``)."""
    z = np.asarray(z, dtype=float)
    if k.variant == EXP_VARIANT:
        return np.exp(z)
    return corefn.kummer_1f1_arr(k.a, k.c, z)


def log_theta_neg_asym(k: KernelSpec, z: np.ndarray) -> np.ndarray:
    """log Theta(z) for z <= -200 (confluent kernel), algebraic branch.

    Only valid where the leading amplitude Gamma(c)/Gamma(c-a) is positive;
    used to combine overflowing power prefactors with the tiny kernel value.
    """
    w = -np.asarray(z, dtype=float)
    amp, s = corefn.kummer_algebraic_tail(k.a, k.c, w)
    if amp <= 0.0:
        raise DomainError("confluent kernel is not positive in the far tail")
    return math.log(amp) - k.a * np.log(w) + np.log(np.maximum(s, 1e-300))
