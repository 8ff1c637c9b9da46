"""Elementary numerical kernels shared by the solvers.

Signed odd roots, integer array powers and even noise moments.

One rounding rule holds for every number ``solve``, ``simulate`` and
``verify`` write: every sum over agents or paths is ``np.add.reduce`` of an
elementwise product, never a BLAS product (``@``, ``np.dot``, ``np.matmul``,
``np.einsum``), and every integer array power is ``even_power``, never a
SIMD ``pow`` through ``**``.  Products and NumPy's own reductions round alike
on every CPU.  Along a contiguous last axis the sum is NumPy's pairwise sum,
so each row of a stacked table sums to the bits of that row alone;
``agent_sum`` is that sum over agents, one contiguous row per step.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import CoefficientOverflowError, MissingMomentError

_TINY = np.nextafter(0.0, 1.0)


def _odd_root(y: np.ndarray, m: int) -> np.ndarray:
    """Real m-th root of y for odd m >= 1, preserving sign, elementwise.

    Inverts t -> t**m over the reals, so negative arguments get negative
    roots.  Two Newton polish steps keep integer cases such as (8, 3) -> 2
    exact.  m = 1 returns y itself.  Arguments are not checked: non-finite
    ones give NaN or infinite roots, with NumPy's invalid-value warning
    unless the caller's errstate silences it.
    """
    if m == 1:
        return y
    ay = np.abs(y)
    t = ay ** (1.0 / m)
    for _ in range(2):
        tm1 = even_power(t, m - 1)
        # tm1 is 0 only where y is 0, and there the error is 0 as well: the
        # floor turns that 0 / 0 into a zero step and changes no other step.
        t -= (tm1 * t - ay) / np.maximum(m * tm1, _TINY)
    return np.copysign(t, y)


def _odd_double_factorial(n: int) -> float:
    """(n)!! for odd n >= -1, e.g. 3!! = 3, 5!! = 15; inf once it overflows."""
    out = 1.0
    for k in range(n, 0, -2):
        out *= k
        if out == math.inf:
            break
    return out


def even_power(x, m: int, out: np.ndarray | None = None):
    """Elementwise x**m for an integer m >= 1, by repeated squaring.

    ``x ** m`` above m = 2 goes through ``pow``, far slower than a few
    multiplications and rounded by CPU in its SIMD kernels; here every step
    multiplies in place on one output array, real or complex.  m = 1 and 2
    match ``**`` bit for bit; higher orders agree to within a few ulps.  With
    ``out`` the result is written there with the same bits; ``out`` may be
    ``x`` itself, which is then copied first unless m is a power of two.
    """
    if m < 1:
        raise ValueError(f"power must be a positive integer, got {m}")
    if not (isinstance(x, np.ndarray) and x.dtype.kind in "fc"):
        x = np.asarray(x, dtype=complex if np.iscomplexobj(x) else float)
    if m == 1:
        return np.multiply(x, 1.0, out=out)
    if out is not None and m & (m - 1) and np.may_share_memory(x, out):
        x = x.copy()
    shift = m.bit_length() - 2  # the exponent bits below the leading one
    out = np.multiply(x, x, out=out)
    while True:
        if m >> shift & 1:
            out *= x
        if shift == 0:
            return out
        out *= out
        shift -= 1


def agent_sum(x, y):
    """Sum over agents of x * y, for (I,) or (I, K) tables: the products of
    each step laid out as one contiguous agent row and summed along it, so
    a step has the same bits alone as in a whole table.  Returns a scalar
    or a (K,) row."""
    return np.add.reduce(np.multiply(x.T, y.T, order="C"), axis=-1)


def noise_even_moment(spec, k: int, order: int) -> float:
    """E[eps_k ** order] for the disturbance at step k under a noise spec.

    k = 0 returns 0 (no disturbance is applied at the initial step).  For
    k >= 1 the per-step scale is spec.sigma[k - 1].  Closed forms:
    gaussian sigma**2j (2j-1)!!, rademacher(+-sigma) sigma**2j, uniform on
    [-w, w] with w = sigma*sqrt(3) gives w**2j / (2j+1); explicit tables are
    looked up directly.  A moment beyond the float range raises
    CoefficientOverflowError.
    """
    if order < 2 or order % 2 != 0:
        raise ValueError(f"moment order must be even and >= 2, got {order}")
    if k == 0:
        return 0.0
    if k < 1 or k > len(spec.sigma):
        raise ValueError(f"step {k} outside the noise schedule 1..{len(spec.sigma)}")
    if spec.kind == "explicit_moments":
        table = spec.moments or {}
        if order not in table:
            raise MissingMomentError(
                f"explicit-moment noise table lacks order {order}"
            )
        return float(table[order][k - 1])
    sigma = float(spec.sigma[k - 1])
    try:
        if spec.kind == "gaussian":
            moment = sigma ** order * _odd_double_factorial(order - 1)
        elif spec.kind == "rademacher":
            moment = sigma ** order
        elif spec.kind == "uniform":
            moment = sigma ** order * (3.0 ** (order // 2) / (order + 1))
        else:
            raise ValueError(f"unknown noise kind {spec.kind!r}")
    except OverflowError:
        moment = math.inf
    if not math.isfinite(moment):
        raise CoefficientOverflowError(
            f"noise moment E[eps^{order}] at step {k} overflows for sigma {sigma:g}"
        )
    return moment
