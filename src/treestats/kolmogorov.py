"""Exact distribution of the two-sided Kolmogorov-Smirnov statistic.

``sf(n, d)`` is ``P(D_n >= d)`` for the statistic ``D_n`` of n i.i.d.
draws tested against their own continuous law.  The method for each
``(n, d)`` follows Simard & L'Ecuyer (2011), "Computing the two-sided
Kolmogorov-Smirnov distribution", J. Stat. Softw. 39(11); ``method``
names it:

* ``one`` / ``zero``: ``n d <= 1/2`` gives 1; ``d >= 1`` gives 0, and
  so does ``n d^2 >= 370`` for n > 140, where the tail is below the
  smallest double;
* ``ruben_gambino_lower`` / ``ruben_gambino_upper``: the closed forms of
  Ruben & Gambino (1982) for ``n d <= 1`` and ``n d >= n - 1``;
* ``smirnov``: twice Smirnov's one-sided tail (the Birnbaum-Tingey sum),
  exact for ``d >= 1/2`` and used in the upper tail (``n d^2 > 4`` for
  n <= 140, ``n d^2 >= 2.2`` beyond);
* ``durbin``: Durbin's matrix in the form of Marsaglia, Tsang & Wang
  (2003, J. Stat. Softw. 8(18)), exact, for n <= 140 and ``n d^2 <= 4``,
  and for larger n while ``n d^1.5 <= 1.4``;
* ``pelz_good``: the Pelz & Good (1976) asymptotic series elsewhere.

Simard & L'Ecuyer use Pomeranz's recursion for n <= 140 and
``0.754693 < n d^2 <= 4``.  Durbin's matrix is exact there too and agrees
with it to about 2e-11 relative, so it serves that band as well.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError

__all__ = ["method", "sf"]


def method(n: int, d: float) -> str:
    """Name of the method ``sf`` uses for ``P(D_n >= d)``."""
    if d >= 1.0:
        return "zero"
    t = n * d
    if t <= 0.5:
        return "one"
    if t <= 1.0:
        return "ruben_gambino_lower"
    if t >= n - 1:
        return "ruben_gambino_upper"
    if d >= 0.5:
        return "smirnov"
    nd2 = t * d
    if n <= 140:
        return "durbin" if nd2 <= 4 else "smirnov"
    if nd2 >= 370.0:
        return "zero"
    if nd2 >= 2.2:
        return "smirnov"
    if n <= 100000 and n * d**1.5 <= 1.4:
        return "durbin"
    return "pelz_good"


def _factorial_over_power(n: int) -> tuple[float, int]:
    """``n! / n**n`` as ``(mantissa, exponent)``, a product of ``i / n``
    renormalised at every step so that it never underflows."""
    mantissa, exponent = 1.0, 0
    for i in range(1, n + 1):
        mantissa, e = math.frexp(mantissa * i / n)
        exponent += e
    return mantissa, exponent


def _ruben_gambino_lower(n: int, d: float) -> float:
    # P(D_n < d) = n!/n^n (2 n d - 1)^n for 1/(2n) < d <= 1/n
    mantissa, exponent = _factorial_over_power(n)
    return 1.0 - math.ldexp(mantissa * (2 * n * d - 1) ** n, exponent)


def _smirnov2(n: int, d: float) -> float:
    """Twice ``P(D_n^+ >= d)``, by the Birnbaum-Tingey sum

    ``d sum_j C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1)``,

    for j = 0 .. floor(n (1 - d)); its terms are positive and are summed
    from their logarithms.
    """
    j = np.arange(math.floor(n * (1 - d)) + 1)
    base = 1 - d - j / n
    keep = base > 0
    j, base = j[keep], base[keep]
    log_binom = np.array([
        math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in j.tolist()
    ])
    logs = log_binom + (n - j) * np.log(base) + (j - 1) * np.log(d + j / n) + math.log(d)
    top = logs.max()
    return 2.0 * math.exp(top) * float(np.exp(logs - top).sum())


def _durbin_cdf(n: int, d: float) -> float:
    """``P(D_n < d)`` by Durbin's matrix, for ``1/n < d < 1``.

    With ``n d = k - h`` (k an integer, 0 <= h < 1) it is
    ``n!/n^n (H^n)[k-1, k-1]`` for the ``(2k-1)``-square matrix H of
    Marsaglia, Tsang & Wang.  The power is formed by repeated squaring,
    each factor rescaled by a power of two, which is exact.
    """
    k = math.ceil(n * d)
    h = k - n * d
    m = 2 * k - 1
    inv_fact = np.array([1 / math.factorial(i) for i in range(m + 1)])
    steps = np.arange(m)[:, None] - np.arange(m)[None, :] + 1  # i - j + 1
    H = np.where(steps >= 0, inv_fact[np.clip(steps, 0, m)], 0.0)
    edge = (1 - h ** np.arange(1, m + 1)) * inv_fact[1:]  # (1 - h^i) / i!
    H[:, 0] = edge
    H[-1, :] = edge[::-1]
    H[-1, 0] = (1 - 2 * h**m + max(2 * h - 1, 0.0) ** m) * inv_fact[m]

    def rescaled(A, exponent):
        shift = math.frexp(float(np.abs(A).max()))[1]
        return np.ldexp(A, -shift), exponent + shift

    power, power_exp = np.eye(m), 0
    square, square_exp, e = H, 0, n
    while e:
        if e & 1:
            power, power_exp = rescaled(power @ square, power_exp + square_exp)
        e >>= 1
        if e:
            square, square_exp = rescaled(square @ square, 2 * square_exp)
    mantissa, exponent = _factorial_over_power(n)
    return math.ldexp(float(power[k - 1, k - 1]) * mantissa, power_exp + exponent)


def _pelz_good_cdf(n: int, d: float) -> float:
    """``P(D_n <= d)`` by the Pelz-Good series ``K0 + K1/√n + K2/n + K3/n^1.5``
    in ``z = √n d``, each K a theta-function sum as Simard & L'Ecuyer give it.

    Terms past ``k = 16 z / pi`` are below ``e^-128`` of the first and
    are left out.
    """
    z = math.sqrt(n) * d
    z2 = z * z
    k = np.arange(1, math.ceil(16 * z / math.pi) + 1)
    a = (math.pi * (k - 0.5)) ** 2
    b = (math.pi * k) ** 2
    ea = np.exp(-a / (2 * z2))
    eb = np.exp(-b / (2 * z2))
    c = math.sqrt(2 * math.pi)
    z4, z6 = z2 * z2, z2 * z2 * z2
    k0 = c / z * ea.sum()
    k1 = c / (6 * z4) * ((a - z2) * ea).sum()
    k2 = (c / (72 * z4 * z2 * z) * ((6 * z6 + 2 * z4 + (2 * z4 - 5 * z2) * a
                                     + (1 - 2 * z2) * a * a) * ea).sum()
          - c / (36 * z2 * z) * (b * eb).sum())
    k3 = (c / (6480 * z6 * z4) * (((5 - 30 * z2) * a**3 + (212 * z4 - 60 * z2) * a * a
                                   + (135 * z4 - 96 * z6) * a - 30 * z6 - 90 * z6 * z2) * ea).sum()
          + c / (216 * z6) * ((3 * z2 - b) * b * eb).sum())
    return float(k0 + k1 / math.sqrt(n) + k2 / n + k3 / (n * math.sqrt(n)))


_SF = {
    "one": lambda n, d: 1.0,
    "zero": lambda n, d: 0.0,
    "ruben_gambino_lower": _ruben_gambino_lower,
    "ruben_gambino_upper": lambda n, d: 2 * (1 - d) ** n,
    "smirnov": _smirnov2,
    "durbin": lambda n, d: 1.0 - _durbin_cdf(n, d),
    "pelz_good": lambda n, d: 1.0 - _pelz_good_cdf(n, d),
}


def sf(n: int, d: float) -> float:
    """``P(D_n >= d)``: the two-sided KS p-value of statistic d at sample size n."""
    if n < 1 or math.isnan(d):
        raise InvalidParameterError(f"need n >= 1 and a statistic d, got n={n}, d={d}")
    return min(1.0, max(0.0, _SF[method(n, d)](n, d)))
