"""The numpy-only Kolmogorov-Smirnov test against scipy as the oracle.

``treestats.kolmogorov.sf`` must reproduce ``scipy.stats.kstwo.sf`` (the
p-value of ``scipy.stats.kstest``) to 1e-10 relative or 1e-14 absolute on
every branch of its method selection, and ``mcsim.kstest`` the statistic
and p-value of ``scipy.stats.kstest``.  The statistic can differ in its
last bits: scipy's normal CDF (``ndtr``) and ``math.erfc`` are different
implementations and disagree by one ulp on many arguments.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from treestats import kolmogorov as ks
from treestats.mcsim import kstest

# On each band the method selection picks one method; d(n, u) maps u in
# (0, 1) into the band's open range of statistics for that n.
BANDS = {
    "one": ((1, 10000), "one", lambda n, u: u * 0.5 / n),
    "ruben_gambino_lower": ((1, 10000), "ruben_gambino_lower", lambda n, u: (0.5 + 0.5 * u) / n),
    "ruben_gambino_upper": ((3, 10000), "ruben_gambino_upper", lambda n, u: (n - 1 + u) / n),
    "smirnov_exact": ((3, 10000), "smirnov", lambda n, u: 0.5 + u * (0.5 - 1 / n)),
    "durbin_small_n": ((3, 140), "durbin",
                       lambda n, u: _between(1 / n, min(math.sqrt(0.754693 / n), 0.5), u)),
    "durbin_pomeranz_band": ((4, 140), "durbin",
                             lambda n, u: _between(math.sqrt(0.754693 / n),
                                                   min(math.sqrt(4 / n), 0.5), u)),
    "smirnov_tail_small_n": ((17, 140), "smirnov",
                             lambda n, u: _between(math.sqrt(4 / n), 0.5, u)),
    "durbin_large_n": ((141, 10000), "durbin",
                       lambda n, u: _between(1 / n, (1.4 / n) ** (2 / 3), u)),
    "pelz_good": ((141, 10000), "pelz_good",
                  lambda n, u: _between((1.4 / n) ** (2 / 3), math.sqrt(2.2 / n), u)),
    "smirnov_tail_large_n": ((141, 10000), "smirnov",
                             lambda n, u: _between(math.sqrt(2.2 / n),
                                                   min(math.sqrt(370 / n), 0.5), u)),
    "zero_tail": ((1481, 10000), "zero",
                  lambda n, u: _between(math.sqrt(370 / n), 0.5, u)),
    "zero_d": ((1, 10000), "zero", lambda n, u: 1 + u),
}


def _between(lo, hi, u):
    return lo + u * (hi - lo)


def assert_close(p, expected):
    assert abs(p - expected) <= max(1e-10 * expected, 1e-14), (p, expected)


@st.composite
def band_cases(draw):
    band = draw(st.sampled_from(sorted(BANDS)))
    (lo, hi), expected, d_of = BANDS[band]
    n = draw(st.integers(lo, hi))
    u = draw(st.floats(0.001, 0.999))  # away from the band edges
    return band, n, d_of(n, u), expected


def test_sf_matches_scipy_on_every_branch():
    reached = set()

    @settings(max_examples=400, deadline=None)
    @given(band_cases())
    def check(case):
        band, n, d, expected = case
        assert ks.method(n, d) == expected, (n, d)
        assert_close(ks.sf(n, d), float(stats.kstwo.sf(d, n)))
        reached.add(band)

    check()
    assert reached == set(BANDS)


@pytest.mark.parametrize("n, d0, below, above", [
    (10, 0.05, "one", "ruben_gambino_lower"),               # n d = 1/2
    (10, 0.1, "ruben_gambino_lower", "durbin"),             # n d = 1
    (10, 0.5, "durbin", "smirnov"),                         # d = 1/2
    (10, 0.9, "smirnov", "ruben_gambino_upper"),            # n d = n - 1
    (10, 1.0, "ruben_gambino_upper", "zero"),               # d = 1
    (140, math.sqrt(0.754693 / 140), "durbin", "durbin"),   # Pomeranz band starts
    (140, math.sqrt(4 / 140), "durbin", "smirnov"),         # n d^2 = 4
    (141, (1.4 / 141) ** (2 / 3), "durbin", "pelz_good"),   # n d^1.5 = 1.4
    (9000, (1.4 / 9000) ** (2 / 3), "durbin", "pelz_good"),
    (141, math.sqrt(2.2 / 141), "pelz_good", "smirnov"),    # n d^2 = 2.2
    (2000, math.sqrt(370 / 2000), "smirnov", "zero"),       # n d^2 = 370
])
def test_branch_boundaries(n, d0, below, above):
    """Over the floats around each switch point the method changes once,
    from ``below`` to ``above``, and both sides match scipy."""
    d = d0
    for _ in range(8):
        d = math.nextafter(d, 0.0)
    methods = []
    for _ in range(17):
        methods.append(ks.method(n, d))
        assert_close(ks.sf(n, d), float(stats.kstwo.sf(d, n)))
        d = math.nextafter(d, 2.0)
    switch = methods.index(above) if above != below else 8
    assert methods[0] == below and methods[-1] == above
    assert methods == [below] * switch + [above] * (17 - switch)


def test_sf_across_the_n_140_switch():
    d = math.sqrt(3 / 140)  # n d^2 = 3: Durbin at n = 140, past 2.2 at n = 141
    assert (ks.method(140, d), ks.method(141, d)) == ("durbin", "smirnov")
    for n in (140, 141):
        assert_close(ks.sf(n, d), float(stats.kstwo.sf(d, n)))


def test_small_samples_exhaustively():
    for n in range(1, 25):
        for d in np.linspace(0.0, 1.0, 101)[1:]:
            assert_close(ks.sf(n, float(d)), float(stats.kstwo.sf(d, n)))


def test_rejects_bad_arguments():
    with pytest.raises(ValueError):
        ks.sf(0, 0.5)
    with pytest.raises(ValueError):
        ks.sf(10, math.nan)


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 10000), seed=st.integers(0, 2**32 - 1),
       shift=st.floats(-0.5, 0.5), scale=st.floats(0.5, 2.0),
       law=st.sampled_from(["norm", "halfnorm"]))
def test_kstest_matches_scipy_on_draws(n, seed, shift, scale, law):
    x = shift + scale * np.random.default_rng(seed).standard_normal(n)
    if law == "halfnorm":
        x = np.abs(x)
    _check_kstest(x, law)


@settings(max_examples=150, deadline=None)
@given(values=st.lists(st.floats(-40, 40, allow_nan=False), min_size=1, max_size=60),
       law=st.sampled_from(["norm", "halfnorm"]))
def test_kstest_matches_scipy_on_any_values(values, law):
    _check_kstest(np.array(values), law)


def _check_kstest(x, law):
    d, p = kstest(x, law)
    expected = stats.kstest(x, law)
    assert math.isclose(d, expected.statistic, rel_tol=0.0, abs_tol=1e-15)
    # a last-bit change of d moves p by far less than 1e-10 of p
    assert_close(p, expected.pvalue)
