"""Elementary numerical kernels shared by the solvers.

Signed odd roots, small pivoted linear solves, integer array powers, even
noise moments, and the second-derivative sampler backing the convexity
argument that makes every per-agent best response well posed.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import MissingMomentError, NumericDomainError, SingularityError

# Relative pivot threshold below which a coupling matrix is reported singular.
PIVOT_RTOL = 1e-12
# Direct-solve residual contract: ||E g - c||_inf <= RESIDUAL_RTOL * (1 + ||c||_inf).
RESIDUAL_RTOL = 1e-10


def signed_root(y: float, m: int) -> float:
    """Real m-th root of y for odd m, preserving sign.

    Inverts t -> t**m over the reals, so negative arguments get negative
    roots.  A couple of Newton polish steps keep integer cases such as
    (8, 3) -> 2 exact.
    """
    if m < 1 or m % 2 == 0:
        raise ValueError(f"root order must be an odd positive integer, got {m}")
    y = float(y)
    if not math.isfinite(y):
        raise NumericDomainError(f"signed_root requires a finite argument, got {y}")
    if m == 1 or y == 0.0:
        return y
    ay = abs(y)
    t = ay ** (1.0 / m)
    for _ in range(2):
        tm1 = t ** (m - 1)
        err = tm1 * t - ay
        if err == 0.0:
            break
        t -= err / (m * tm1)
    return math.copysign(t, y)


def solve_linear(e, c) -> np.ndarray:
    """Solve the small dense system E g = c by scaled partial pivoting.

    Raises SingularityError when a pivot falls below PIVOT_RTOL times its
    row scale, or when the solution fails the residual contract.  Matrices
    here are agent-coupling matrices, at most a few dozen rows.
    """
    a = np.array(e, dtype=float, copy=True)
    b = np.array(c, dtype=float, copy=True)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    n = a.shape[0]
    if b.shape != (n,):
        raise ValueError(f"right-hand side shape {b.shape} does not match n={n}")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise NumericDomainError("solve_linear requires finite entries")

    a0 = a.copy()
    b0 = b.copy()
    scale = np.max(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        raise SingularityError("coupling matrix has an all-zero row")

    for col in range(n):
        ratios = np.abs(a[col:, col]) / scale[col:]
        piv = col + int(np.argmax(ratios))
        if np.abs(a[piv, col]) <= PIVOT_RTOL * scale[piv]:
            raise SingularityError(
                f"pivot {a[piv, col]:.3e} below {PIVOT_RTOL:g} of row scale "
                f"{scale[piv]:.3e} at column {col}"
            )
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
            scale[[col, piv]] = scale[[piv, col]]
        factors = a[col + 1:, col] / a[col, col]
        a[col + 1:, col:] -= np.outer(factors, a[col, col:])
        b[col + 1:] -= factors * b[col]

    g = np.empty(n)
    for row in range(n - 1, -1, -1):
        g[row] = (b[row] - a[row, row + 1:] @ g[row + 1:]) / a[row, row]

    residual = np.max(np.abs(a0 @ g - b0))
    if residual > RESIDUAL_RTOL * (1.0 + np.max(np.abs(b0))):
        raise SingularityError(
            f"direct solve residual {residual:.3e} exceeds the accuracy contract; "
            "coupling matrix is numerically singular"
        )
    return g


def _odd_double_factorial(n: int) -> float:
    """(n)!! for odd n >= -1, e.g. 3!! = 3, 5!! = 15."""
    out = 1.0
    for k in range(n, 0, -2):
        out *= k
    return out


def even_power(x, m: int) -> np.ndarray:
    """Elementwise x**m for an integer m >= 1, by repeated squaring.

    ``x ** m`` with m other than 2 goes through libm ``pow``, which is far
    slower than a few multiplications; every step here works in place on a
    single output array.  m = 1 and m = 2 match ``**`` bit for bit; higher
    orders agree to within a few ulps.
    """
    if m < 1:
        raise ValueError(f"power must be a positive integer, got {m}")
    x = np.asarray(x, dtype=float)
    bits = bin(m)[3:]  # exponent bits below the leading one
    if not bits:
        return x.copy()
    out = np.multiply(x, x)
    if bits[0] == "1":
        out *= x
    for bit in bits[1:]:
        np.multiply(out, out, out=out)
        if bit == "1":
            out *= x
    return out


def noise_even_moment(spec, k: int, order: int) -> float:
    """E[eps_k ** order] for the disturbance at step k under a noise spec.

    k = 0 returns 0 (no disturbance is applied at the initial step).  For
    k >= 1 the per-step scale is spec.sigma[k - 1].  Closed forms:
    gaussian sigma**2j (2j-1)!!, rademacher(+-sigma) sigma**2j, uniform on
    [-w, w] with w = sigma*sqrt(3) gives w**2j / (2j+1); explicit tables are
    looked up directly.
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
    half = order // 2
    if spec.kind == "gaussian":
        return sigma ** order * _odd_double_factorial(order - 1)
    if spec.kind == "rademacher":
        return sigma ** order
    if spec.kind == "uniform":
        return sigma ** order * (3.0 ** half / (order + 1))
    raise ValueError(f"unknown noise kind {spec.kind!r}")


def convexity_scan(p: int, a: float, b: float, grid) -> float:
    """Minimum over the grid of f''(z) for f(z) = z**2p + (a z + b)**2p.

    With p >= 1 and a, b != 0 the two vanishing points of the summands (0 and
    -b/a) never coincide, so the sampled second derivative stays positive;
    callers assert that.
    """
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p}")
    if a == 0.0 or b == 0.0:
        raise NumericDomainError("convexity requires a != 0 and b != 0")
    z = np.asarray(grid, dtype=float)
    if z.size == 0:
        raise ValueError("grid must be non-empty")
    if not np.all(np.isfinite(z)):
        raise NumericDomainError("grid points must be finite")
    coef = 2 * p * (2 * p - 1)
    second = coef * z ** (2 * p - 2) + coef * a * a * (a * z + b) ** (2 * p - 2)
    return float(np.min(second))
