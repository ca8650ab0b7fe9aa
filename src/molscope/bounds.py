"""Numeric evaluation of the counting bounds, in nats (natural-log units).

Every value here is the natural log of a count ("nats per design"); base-e
is used throughout the package.

The paper's per-cell integral I_d = int_0^1 log(1 + (n-1) t^d) dt is
evaluated in closed form (``integral_I``).  With a = n-1 and d >= 2,
integrating by parts and using int_0^inf dt / (1 + a t^d) =
a^(-1/d) (pi/d) / sin(pi/d) gives

    I_d = log n - d + a^(-1/d) pi / sin(pi/d) - d K,
    K = sum_{m>=0} (-1)^m b_m,   b_m = a^(-(m+1)) / (d(m+1) - 1).

For a >= 1, b_m is a moment sequence on [0, 1/a], so Algorithm 1 of Cohen,
Rodriguez Villegas and Zagier (Experimental Math. 9, 2000) sums K from
its first 24 terms with a proven remainder of at most b_0 / T_24(3) <
1e-18 b_0 (``_alternating_sum``).  For d = 1, I_1 = n log n / (n-1) - 1.

Only the general (r, c) profile buckets and c_beta are integrated by
adaptive Simpson quadrature, at one fixed absolute-error target,
DEFAULT_TOL = 1e-9, with a hard subdivision cap, so a bound is fixed by
its parameters.  A report's quadrature_error is Simpson's own error
estimate on its general buckets plus the series remainder of its I_d
terms; it omits the closed form's rounding, which is larger (I_814(1000)
is off by 2.5e-13 from a 30-digit quadrature; its remainder is 8.5e-22).
Sums run left to right, so results are bit-reproducible on every Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .arrays import CellProfile
from .errors import InvalidParams, LimitExceeded, NotPerfectSquare

DEFAULT_TOL = 1e-9
_MAX_DEPTH = 48
# mols_count_bound evaluates one I_d per d = 2..k+1, about 10 us each
MAX_INTEGRALS = 10_000
# estimate_sweep's grid
_ESTIMATE_NS = (*range(2, 51), 100, 500, 1000)


# --------------------------------------------------------------------------
# quadrature


def _adaptive_simpson(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> tuple[float, float]:
    """Integrate f on [a, b]; returns (value, absolute error estimate)."""
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def rec(a, fa, m, fm, b, fb, whole, tol, depth):
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        flm = f(lm)
        frm = f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth >= _MAX_DEPTH or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0, abs(delta) / 15.0
        lv, le = rec(a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1)
        rv, re = rec(m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1)
        return lv + rv, le + re

    return rec(a, fa, m, fm, b, fb, whole, tol, 0)


# --------------------------------------------------------------------------
# alternating series


def _cvz_weights(terms: int) -> tuple[tuple[int, ...], int]:
    """The integer weights c_k and divisor D = T_terms(3) of Algorithm 1 of
    Cohen, Rodriguez Villegas and Zagier (2000)."""
    prev, div = 1, 3  # T_0(3), T_1(3); T_(j+1) = 6 T_j - T_(j-1)
    for _ in range(terms - 1):
        prev, div = div, 6 * div - prev
    b, c, weights = -1, -div, []
    for k in range(terms):
        c = b - c
        weights.append(c)
        # an exact division: b runs through the coefficients of -T_terms(1 - 2x)
        b = 2 * (k + terms) * (k - terms) * b // ((2 * k + 1) * (k + 1))
    return tuple(weights), div


_CVZ_TERMS = 24
_CVZ_WEIGHTS, _CVZ_DIV = _cvz_weights(_CVZ_TERMS)


def _alternating_sum(b: Sequence) -> tuple:
    """(sum_{m>=0} (-1)^m b_m, bound on its remainder) from b_0 … b_23, for
    a moment sequence b_m = int_0^1 x^m dmu(x) of a positive measure mu.

    The sum is sum_k c_k b_k / D.  It misses the series by
    (1/D) int T_24(1 - 2x) / (1 + x) dmu, at most b_0 / D < 1e-18 b_0,
    since |T_24(1 - 2x)| <= 1 on [0, 1].  The arithmetic is that of the
    terms, so Fraction terms give the exact sum; a loop, as ``sum()`` of
    floats is compensated from Python 3.12 on.
    """
    total = 0
    for c, t in zip(_CVZ_WEIGHTS, b):
        total += c * t
    return total / _CVZ_DIV, b[0] / _CVZ_DIV


# --------------------------------------------------------------------------
# report plumbing


@dataclass(frozen=True)
class BoundEntry:
    """One named bound value with its provenance tag."""

    name: str
    value: float  # nats
    source: str  # operation id that produced it
    asymptotic_only: bool = False  # display-only: not a valid finite-n bound


@dataclass(frozen=True)
class BoundReport:
    """The related bound values of one (n, k) instance, which the caller
    passed in.  Its ``quadrature_error`` is no enclosure: it omits the
    closed form's rounding (see the module docstring)."""

    entries: tuple[BoundEntry, ...]
    quadrature_error: float

    def value(self, name: str) -> float:
        for e in self.entries:
            if e.name == name:
                return e.value
        raise KeyError(name)


# --------------------------------------------------------------------------
# core integrals and estimates


def _integral_I_rem(n: float, d: int) -> tuple[float, float]:
    """(I_d, bound on the remainder of its series K) in the closed form of
    the module docstring."""
    a = n - 1.0
    if d == 1:
        return n * math.log(n) / a - 1.0, 0.0
    series, rem = _alternating_sum([a ** -(m + 1) / (d * (m + 1) - 1) for m in range(_CVZ_TERMS)])
    return math.log(n) - d + a ** (-1.0 / d) * math.pi / math.sin(math.pi / d) - d * series, d * rem


def integral_I(n: float, d: int) -> float:
    """The per-cell extension integral int_0^1 log(1 + (n-1) t^d) dt, in
    closed form (see the module docstring).

    The useful domain is 2 <= d <= n; d = 1 and d > n are allowed for
    exploratory calls (callers that assert inequalities stay on the narrow
    domain).
    """
    if n < 2 or d < 1:
        raise InvalidParams("need n >= 2 and d >= 1")
    return _integral_I_rem(n, d)[0]


def closed_form_estimate(n: float, d: int) -> float:
    """Closed-form upper estimate for integral_I on 2 <= d <= n:
    log(n-1) - d + d/(n-1)^(1/d) + 3/(d (n-1)^(1/d)).

    Written as log(n-1) - d (never e**d) so it stays finite for d ~ 1000.

    Theorem: the estimate is at least I_d for every real n >= 2 and integer
    d >= 2.  Proof: with a = n-1 >= 1 and s = a^(-1/d), subtract the closed
    form of I_d (module docstring) to split the gap in two,

        estimate - I_d = [d K - log(n/(n-1))] + s [d + 3/d - pi / sin(pi/d)].

    The first part: log(n/(n-1)) = log(1 + 1/a) = sum_m (-1)^m a^(-(m+1)) / (m+1),
    so it is sum_{m>=0} (-1)^m a^(-(m+1)) / ((m+1)(d(m+1)-1)), an
    alternating series whose terms shrink (a >= 1) and whose first term is
    positive; it is >= 0.  The second part: with x = pi/d in (0, pi/2],
    pi / sin(pi/d) = d x / sin x, and x / sin x <= 1 + 3x^2/pi^2, so the
    bracket is >= d + 3/d - d - 3/d = 0.  For the last inequality, sin x >=
    x (1 - y) with y = x^2/6 <= pi^2/24 < 1, so x / sin x <= 1/(1 - y);
    1/(1 - y) is convex, so on [0, pi^2/24] it lies below its chord
    1 + y / (1 - pi^2/24), whose slope 1.70 is below 18/pi^2 = 1.82; and
    1 + 18 y / pi^2 = 1 + 3x^2/pi^2.
    """
    if n < 2 or not 2 <= d <= n:
        raise InvalidParams(f"estimate is only valid for 2 <= d <= n, n >= 2; got n={n}, d={d}")
    s = (n - 1.0) ** (-1.0 / d)
    return math.log(n - 1.0) - d + d * s + 3.0 * s / d


def estimate_grid(max_n: int) -> list[tuple[int, int]]:
    """The (n, d) points, 2 <= d <= n, at which the estimate is checked:
    n = 2 … 50, 100, 500 and 1000, truncated to n <= max_n."""
    return [(n, d) for n in _ESTIMATE_NS if n <= max_n for d in range(2, n + 1)]


def estimate_sweep(max_n: int) -> tuple[int, float]:
    """(points, worst gap) of integral_I - closed_form_estimate over
    ``estimate_grid(max_n)``.

    The estimate dominates on its whole domain (closed_form_estimate's
    theorem); the sweep shows by how much, point by point.
    """
    grid = estimate_grid(max_n)
    if not grid:
        raise InvalidParams(f"estimate sweep to n = {max_n}: nothing to compare, "
                            f"since the grid starts at n = 2")
    return len(grid), max(integral_I(n, d) - closed_form_estimate(n, d) for n, d in grid)


def extension_bound_mols(n: int, k: int) -> float:
    """Upper bound, in nats, on extensions of any k-tuple system: n^2 I_{k+2}."""
    if n < 2 or not 0 <= k <= n - 2:
        raise InvalidParams(f"need n >= 2 and 0 <= k <= n-2; got n={n}, k={k}")
    return n * n * integral_I(n, k + 2)


def _profile_buckets(profile: CellProfile) -> list[tuple[tuple[int, int], int]]:
    counts: dict[tuple[int, int], int] = {}
    for rl, cl in zip(profile.r, profile.c):
        counts[(rl, cl)] = counts.get((rl, cl), 0) + 1
    return sorted(counts.items())


def _ext_general_err(
    n: float, buckets: list[tuple[tuple[int, int], int]], d: int, tol: float
) -> tuple[float, float]:
    total = 0.0
    err = 0.0
    for (rl, cl), mult in buckets:
        a = float(rl + cl)
        b = float(n - rl - cl - 1)

        def f(t: float, a=a, b=b) -> float:
            # a = 0 adds an exact 0.0, so skipping its power changes no bit and saves time
            return math.log1p((a * t ** (d - 1) if a else 0.0) + b * t**d)

        v, e = _adaptive_simpson(f, 0.0, 1.0, tol)
        total += mult * v
        err += mult * e
    return total, err


def extension_bound_general(profile: CellProfile, d: int) -> float:
    """Per-cell extension bound for a width-d array with the given profile:
    sum over cells of int_0^1 log(1 + (r+c) t^(d-1) + (n-r-c-1) t^d) dt at DEFAULT_TOL.

    Cells are bucketed by (r, c) and each bucket integrated once; buckets
    are summed in sorted order.
    """
    if d < 3:
        raise InvalidParams("general bound applies to arrays of width >= 3")
    if profile.order < 2:
        raise InvalidParams("order must be at least 2")
    return _ext_general_err(profile.order, _profile_buckets(profile), d, DEFAULT_TOL)[0]


def log_factorial(m: int) -> float:
    """Exact-order log-factorial: sum of log i, i = 2..m (m <= 10^6)."""
    if m < 0:
        raise InvalidParams("factorial of a negative number")
    if m > 10**6:
        raise InvalidParams("log_factorial supports arguments up to 10^6")
    total = 0.0
    for i in range(2, m + 1):
        total += math.log(i)
    return total


# --------------------------------------------------------------------------
# aggregate bound reports


def c_beta(beta: float) -> float:
    """The correction factor 1 - (1/beta) int_0^beta x (1 - e^(-1/x)) dx at DEFAULT_TOL.

    The integrand extends continuously by 0 at x = 0; the result always
    lies in [0, 1] and is clamped there after a sanity window check.
    """
    if beta <= 0:
        raise InvalidParams("beta must be positive")

    def f(x: float) -> float:
        if x <= 0.0:
            return 0.0
        return -x * math.expm1(-1.0 / x)

    val, err = _adaptive_simpson(f, 0.0, beta, DEFAULT_TOL)
    c = 1.0 - val / beta
    if c < -1e-6 or c > 1.0 + 1e-6:
        raise RuntimeError(f"c(beta) left [0,1] by more than noise: {c}")
    return min(1.0, max(0.0, c))


def mols_count_bound(n: float, k: int) -> BoundReport:
    """Everything known about log of the number of k-tuple systems.

    Entries:
      summed_quadrature   n^2 sum_{d=2}^{k+1} I_d, each I_d in closed form
                          (the assertable bound)
      estimate_per_cell   k log(n-1) - (C(k+2,2)-1) + C(k+4,2) (n-1)^(-1/(k+2)),
                          an upper estimate for summed_quadrature / n^2
      regime_i            n^2 (k log n - C(k+2,2) + 1 + k^2 n^(-1/(k+2)))
      regime_ii           c(k / log n) k n^2 log n
      regime_iii          (1/2)(log k - log log n) n^2 log^2 n
      trivial             k n^2 log n
      asymptotic_reference n^2 (k log n - C(k+2,2) + 1)
    The three regime entries and the reference drop vanishing terms, so they
    are labeled asymptotic-only and are never asserted against counts.
    c_beta runs at DEFAULT_TOL; the quadrature_error is the series
    remainder of the I_d.  A k above ``MAX_INTEGRALS`` is refused with
    ``LimitExceeded``.
    """
    if n < 2 or not 1 <= k <= n - 1:
        raise InvalidParams(f"need n >= 2 and 1 <= k <= n-1; got n={n}, k={k}")
    if k > MAX_INTEGRALS:
        raise LimitExceeded(
            f"k={k} needs {k} per-cell integrals, more than the limit {MAX_INTEGRALS}"
        )
    nn = float(n) * float(n)
    logn = math.log(n)

    total = 0.0
    qerr = 0.0
    for d in range(2, k + 2):
        v, e = _integral_I_rem(n, d)
        total += v
        qerr += e
    summed = nn * total
    qerr *= nn

    s = (n - 1.0) ** (-1.0 / (k + 2))
    per_cell = k * math.log(n - 1.0) - (math.comb(k + 2, 2) - 1) + math.comb(k + 4, 2) * s

    regime_i = nn * (k * logn - math.comb(k + 2, 2) + 1 + k * k * float(n) ** (-1.0 / (k + 2)))
    beta = k / logn
    regime_ii = c_beta(beta) * k * nn * logn
    regime_iii = 0.5 * (math.log(k) - math.log(logn)) * nn * logn * logn
    trivial = k * nn * logn
    reference = nn * (k * logn - math.comb(k + 2, 2) + 1)

    entries = (
        BoundEntry("summed_quadrature", summed, "summed-quadrature"),
        BoundEntry("estimate_per_cell", per_cell, "closed-form-estimate"),
        BoundEntry("regime_i", regime_i, "regime-formula", asymptotic_only=True),
        BoundEntry("regime_ii", regime_ii, "regime-formula", asymptotic_only=True),
        BoundEntry("regime_iii", regime_iii, "regime-formula", asymptotic_only=True),
        BoundEntry("trivial", trivial, "trivial-bound"),
        BoundEntry("asymptotic_reference", reference, "asymptotic-reference", asymptotic_only=True),
    )
    return BoundReport(entries, qerr)


def extension_entries(n: int, k: int) -> tuple[BoundEntry, ...]:
    """The bound n^2 I_{k+2} of ``extension_bound_mols``, then display-only
    asymptotics with vanishing terms dropped, never valid finite-n bounds:
    the average number of extensions, n^2 (log n - (k+2)), and at k = 1 the
    most mates of a square, n^2 (log n - 2 - 1/e)."""
    entries = [BoundEntry("extension_bound", extension_bound_mols(n, k), "per-cell-integral")]
    nn = float(n) * float(n)
    logn = math.log(n)
    entries.append(BoundEntry("average_extensions", nn * (logn - (k + 2.0)),
                              "asymptotic-reference", asymptotic_only=True))
    if k == 1:
        entries.append(BoundEntry("max_mates", nn * (logn - (2.0 + 1.0 / math.e)),
                                  "asymptotic-reference", asymptotic_only=True))
    return tuple(entries)


def sudoku_extension_bound(n: int, k: int) -> BoundReport:
    """Extension bound for k-tuple box-balanced systems of order n = m^2.

    Entries:
      general_quadrature  the exact bucketed bound at profile r = c = m-1,
                          by quadrature at DEFAULT_TOL
      split_integral      n^2 I_{k+3}, with I_{k+3} in closed form
      correction_limit    n^2 * 2 log n / ((k+3) sqrt(n-1))
      split_total         split_integral + correction_limit
    The decomposition dominates the exact bound; that inequality is checked
    here to DEFAULT_TOL; a violation raises (it would mean an implementation bug).
    """
    if n < 4 or k < 0:
        raise InvalidParams("need n = m^2 >= 4 and k >= 0")
    m = math.isqrt(n)
    if m * m != n:
        raise NotPerfectSquare(f"order {n} is not a perfect square")
    nn = n * n
    d = k + 3
    # every cell has profile r = c = m-1: one bucket of n^2 cells
    general, qerr = _ext_general_err(n, [((m - 1, m - 1), nn)], d, DEFAULT_TOL)
    base, e2 = _integral_I_rem(n, d)
    base *= nn
    qerr += nn * e2
    correction = nn * 2.0 * math.log(n) / (d * math.sqrt(n - 1.0))
    split_total = base + correction
    if general > split_total + DEFAULT_TOL:
        raise RuntimeError(
            f"split form {split_total} fails to dominate exact bound {general}"
        )
    entries = (
        BoundEntry("general_quadrature", general, "general-profile-bound"),
        BoundEntry("split_integral", base, "split-form"),
        BoundEntry("correction_limit", correction, "split-form"),
        BoundEntry("split_total", split_total, "split-form"),
    )
    return BoundReport(entries, qerr)
