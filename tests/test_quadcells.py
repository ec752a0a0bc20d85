"""Triangulation of the exact fractional quadrature engine: high-precision
reference values, polarization consistency, and the closed-form stiffness
row."""

import math
import sys
import threading

import mpmath
import numpy as np
import pytest

from fracform import quadcells
from fracform.grids import l2_norm_sq_of_samples
from fracform.quadcells import (_lag_weight_table, _lag_weights,
                                gagliardo_of_values, hat_energy_row,
                                rho_profile)

from conftest import exact_rho

ALPHAS = [0.01, 0.1, 0.5, 0.999, 1.0, 1.001, 1.5, 1.9, 1.99]


def mp_reference_energy(values, h, alpha, dps=50):
    """50-digit reference: integrate the piecewise-cubic increment
    correlation against the kernel cell by cell with mpmath."""
    with mpmath.workdps(dps):
        v = [mpmath.mpf(x) for x in values]
        hh = mpmath.mpf(h)
        a = mpmath.mpf(alpha)
        s = [(v[i + 1] - v[i]) / hh for i in range(len(v) - 1)]
        m = len(s)
        c = [sum(s[i] * s[i + k] for i in range(m - k)) for k in range(m)]
        r2 = [2 * hh * ck for ck in c] + [mpmath.mpf(0)]
        rhop = [mpmath.mpf(0)]
        rho = [mpmath.mpf(0)]
        for k in range(m):
            rhop.append(rhop[-1] + hh * (r2[k] + r2[k + 1]) / 2)
            rho.append(rho[-1] + hh * rhop[-2]
                       + hh * hh * (2 * r2[k] + r2[k + 1]) / 6)
        total = mpmath.mpf(0)
        # singular cell in closed form (rho and rho' vanish at 0)
        d0 = r2[1] - r2[0]
        total += (r2[0] / 2 * hh ** (2 - a) / (2 - a)
                  + d0 * hh ** (2 - a) / (6 * (3 - a)))
        for k in range(1, m):
            d = r2[k + 1] - r2[k]

            def cell(t, k=k, d=d):
                poly = (rho[k] + rhop[k] * t + r2[k] * t ** 2 / 2
                        + d * t ** 3 / (6 * hh))
                return (k * hh + t) ** (-1 - a) * poly

            total += mpmath.quad(cell, [0, hh])
        seg = sum((v[i] ** 2 + v[i] * v[i + 1] + v[i + 1] ** 2)
                  for i in range(len(v) - 1)) * hh / 3
        total += 2 * seg * (m * hh) ** (-a) / a
        return float(2 * total)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_engine_matches_high_precision_reference(alpha, rng):
    vals = np.zeros(10)
    vals[1:-1] = rng.normal(size=8)
    h = 0.17
    got = gagliardo_of_values(vals, h, alpha)
    ref = mp_reference_energy(vals, h, alpha)
    assert got == pytest.approx(ref, rel=1e-13)


def mp_regularised_power(k, alpha):
    """W(k) = k^2 expm1((1-alpha) ln|k|) / (1-alpha), k^2 ln|k| at alpha = 1."""
    k = mpmath.mpf(abs(k))
    if k == 0:
        return mpmath.mpf(0)
    q = 1 - mpmath.mpf(alpha)
    if q == 0:
        return k * k * mpmath.log(k)
    return k * k * mpmath.expm1(q * mpmath.log(k)) / q


LAGS = list(range(0, 40)) + [63, 64, 65, 100, 511, 1000, 2047, 3001]


@pytest.mark.parametrize("alpha", ALPHAS)
def test_lag_weights_match_high_precision_differences(alpha):
    """Second and fourth central differences of W against 40-digit values,
    from the directly differenced small lags through the series beyond,
    for 3002 lags."""
    d2 = _lag_weights(alpha, 2, 0, LAGS[-1] + 1)[LAGS]
    d4 = _lag_weights(alpha, 4, 0, LAGS[-1] + 1)[LAGS]
    with mpmath.workdps(40):
        w = {k: mp_regularised_power(k, alpha)
             for k in range(-2, LAGS[-1] + 3)}
        d2_mp = [w[k + 1] - 2 * w[k] + w[k - 1] for k in LAGS]
        ref4 = np.array([float(w[k + 2] - 4 * w[k + 1] + 6 * w[k]
                               - 4 * w[k - 1] + w[k - 2]) for k in LAGS])
        shift = mpmath.mpf(0)
        if alpha > 1.0:
            # Returned minus the regular part p (p-1) (R^q - 1) / q + p + 1
            # of the value at the reference lag R, a constant the form
            # cannot see; the directly differenced lags 0-3 carry the
            # rounding of that shift.
            a = mpmath.mpf(alpha)
            p, q = 3 - a, 1 - a
            shift = (p * (p - 1) * mpmath.expm1(q * mpmath.log(quadcells._REF_LAG))
                     / q + p + 1)
        ref2 = np.array([float(d - shift) for d in d2_mp])
        shift = float(shift)
    if alpha <= 1.0:
        assert d2[0] == 0.0 and ref2[0] == 0.0
    assert np.allclose(d2, ref2, rtol=1e-14, atol=1e-14 * abs(shift))
    # Lags below 8 come from differencing the second differences, which
    # loses up to a few thousand ulps for alpha near 0 or 2 (still below
    # 1e-15 of the diagonal entry); from lag 8 on the series is exact to
    # rounding.
    small = np.array(LAGS) < 8
    assert np.allclose(d4[small], ref4[small], rtol=5e-12, atol=0.0)
    assert np.allclose(d4[~small], ref4[~small], rtol=1e-14, atol=0.0)


SERIES_ALPHAS = [0.001, 0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 1.95, 1.999]


@pytest.fixture
def full_horner(monkeypatch):
    """_lag_weights summing all 16 series terms at every lag, as before the
    series was cut to two terms past _TWO_TERM_LAG."""
    def weights(n, alpha, order):
        with monkeypatch.context() as m:
            m.setattr(quadcells, "_TWO_TERM_LAG", math.inf)
            return _lag_weight_table(alpha, order, 0, n)
    return weights


def _rel_err(got, ref):
    nz = ref != 0.0
    assert np.array_equal(got[~nz], ref[~nz])
    return float(np.max(np.abs(got[nz] - ref[nz]) / np.abs(ref[nz]),
                        initial=0.0))


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("alpha", SERIES_ALPHAS)
def test_two_term_series_matches_full_horner(alpha, order, full_horner):
    """Every lag below 2^20 against the full series, and arrays whose last
    lag sits on either side of the cut."""
    edge = quadcells._TWO_TERM_LAG
    for n in (edge, edge + 1, 1 << 20):
        assert _rel_err(_lag_weights(alpha, order, 0, n),
                        full_horner(n, alpha, order)) <= 1e-15


KEPT = quadcells._KEPT_LAGS
SPLIT = quadcells._SPLIT_SLOPES


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.5, 1.95])
def test_kept_tables_equal_fresh_ones(alpha, order):
    for n in (1, 9, 512, KEPT - 1, KEPT, KEPT + 1, 1 << 15):
        fresh = _lag_weight_table(alpha, order, 0, n)
        first = _lag_weights(alpha, order, 0, n)
        again = _lag_weights(alpha, order, 0, n)
        assert np.array_equal(first, fresh) and np.array_equal(again, fresh)
        if n <= KEPT:
            kept = quadcells._kept_lag_weights(alpha, order)
            assert first.base is kept and again.base is kept
            assert not first.flags.writeable
            with pytest.raises(ValueError):
                first[0] = 0.0
        else:
            assert again is not first


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("alpha", [0.05, 0.5, 1.0, 1.001, 1.5, 1.95])
def test_tables_are_prefixes_of_longer_ones(alpha, order):
    """An n-lag table is the first n lags of the kept table and of a
    2^17-lag table, bit for bit: no weight depends on the table's length."""
    long = _lag_weight_table(alpha, order, 0, 1 << 17).view(np.int64)
    kept = quadcells._kept_lag_weights(alpha, order).view(np.int64)
    assert kept.size == KEPT
    for n in (1, 7, 8, 9, 512, KEPT - 1, KEPT, KEPT + 1):
        table = _lag_weight_table(alpha, order, 0, n).view(np.int64)
        assert np.array_equal(table, long[:n]), n
        assert np.array_equal(table[:KEPT], kept[:n]), n


@pytest.mark.parametrize("alpha", [0.4321, 1.2345])
def test_energies_of_two_lengths_build_one_table(alpha):
    from fracform.energy import EnergyParams, gagliardo_energy
    from fracform.grids import GridFunction

    kept = quadcells._kept_lag_weights
    kept.cache_clear()
    for n in (9, 1000):
        f = GridFunction(-1.0, 2.0 / (n - 1), _cos2_bump(n))
        gagliardo_energy(f, EnergyParams(alpha))
    assert kept.cache_info().misses == 1


def test_hat_energy_row_is_fresh_and_writable():
    # the capacity operator adds the mass row into it in place
    first = hat_energy_row(16, 0.1, 0.7)
    want = first.copy()
    first[:2] += (1.0, 2.0)
    again = hat_energy_row(16, 0.1, 0.7)
    assert again.flags.writeable and np.array_equal(again, want)


def test_kept_tables_stay_within_eight_mib():
    kept = quadcells._kept_lag_weights
    tables = kept.cache_parameters()["maxsize"]
    assert tables * KEPT * 8 <= 8 << 20
    kept.cache_clear()
    _lag_weights(0.5, 2, KEPT, 1 << 17)
    hat_energy_row(1 << 17, 1.0, 0.5)
    assert kept.cache_info().currsize == 0
    # the form reads its first block from the kept table, only the first
    gagliardo_of_values(np.pad(np.ones(3 * KEPT), 1), 0.1, 0.5)
    assert kept.cache_info().currsize == 1
    assert kept(0.5, 2).shape == (KEPT,)
    for i in range(tables + 3):
        _lag_weights(0.01 * (i + 1), 2, 0, KEPT)
    assert kept.cache_info().currsize == tables


BLOCKED_LAGS = [KEPT - 1, KEPT + 1, 2 * KEPT - 1, 2 * KEPT + 1,
                quadcells._TWO_TERM_LAG - 1, quadcells._TWO_TERM_LAG + 1,
                1 << 17]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("alpha", SERIES_ALPHAS)
def test_blocks_concatenate_to_the_table(alpha, order):
    """Blocks of KEPT lags, as the form takes them, rebuild the whole
    table bit for bit: the direct lags, both sides of the two-term cut and,
    for alpha > 1, the shift by the reference lag."""
    for n in BLOCKED_LAGS:
        whole = _lag_weight_table(alpha, order, 0, n)
        blocks = [_lag_weight_table(alpha, order, lo, min(lo + KEPT, n))
                  for lo in range(0, n, KEPT)]
        assert np.array_equal(np.concatenate(blocks).view(np.int64),
                              whole.view(np.int64)), n


def _cos2_bump(n):
    """n samples on [-1, 1] of a cos^2 bump, zero only at the two ends."""
    x = np.linspace(-1.0, 1.0, n)
    return np.where(np.abs(x) < 0.999, np.cos(np.pi * x / 1.998) ** 2, 0.0)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 1.95])
def test_blocked_form_matches_one_table_dot(alpha):
    c = quadcells.increment_autocorr(_cos2_bump((1 << 17) + 1))
    assert c.size == 1 << 17
    h = 2.0 / (1 << 17)
    w = _lag_weight_table(alpha, 2, 0, c.size)
    whole = -quadcells._form_scale(h, alpha) * (2.0 * float(c @ w)
                                               - c[0] * w[0])
    assert quadcells._increment_form(c, h, alpha) == pytest.approx(
        whole, rel=1e-13, abs=0.0)


def test_energy_peak_memory_per_node():
    """A first exponent peaks at most 36 bytes per node above the samples
    (40 when the increments were copied into the FFT pads, 88 when the
    whole lag-weight table and the padded FFT copies were built); a second
    adds lag-weight blocks only, at most 2 MiB (20 MiB when it rebuilt the
    whole table)."""
    import tracemalloc

    from fracform.energy import EnergyParams, gagliardo_energy
    from fracform.grids import GridFunction

    n = 1 << 18
    f = GridFunction(-1.0, 2.0 / (n - 1), _cos2_bump(n))
    peaks = []
    tracemalloc.start()
    try:
        for alpha in (0.5, 1.5):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            gagliardo_energy(f, EnergyParams(alpha))
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    assert peaks[0] <= 36 * n, peaks[0] / n
    assert peaks[1] <= 2 << 20, peaks[1]


def test_energy_continuous_through_alpha_one(rng):
    vals = np.zeros(300)
    vals[1:-1] = rng.normal(size=298)
    at_one = gagliardo_of_values(vals, 0.01, 1.0)
    for alpha in (1.0 - 1e-9, 1.0 + 1e-9):
        got = gagliardo_of_values(vals, 0.01, alpha)
        assert got == pytest.approx(at_one, rel=1e-8)


def _of_slopes(route, s):
    """``route``'s correlation of the slopes of the samples v that sum s
    from 0, and those slopes: s up to rounding, exactly s for integers."""
    v = np.concatenate([[0.0], np.cumsum(s)])
    return getattr(quadcells, route)(v), np.diff(v)


@pytest.mark.parametrize("size", [1, 2, 399, 400, 401, 1023, 1024, 1025,
                                  "random"])
def test_direct_and_fft_autocorrelation_agree(size):
    # the FFT autocorrelation against direct correlation written here
    rng = np.random.default_rng(7 if size == "random" else size)
    sizes = rng.integers(1, 3000, 6) if size == "random" else [size]
    for m in sizes:
        got, s = _of_slopes("_slope_autocorr", rng.standard_normal(m))
        direct = np.correlate(s, s, mode="full")[m - 1:]
        assert got.shape == direct.shape == (m,)
        assert np.max(np.abs(got - direct)) <= 1e-12 * direct[0]


def _split_sizes():
    # three sizes drawn log-uniformly in (2^13, 2^16], one odd, one even
    m = (2.0 ** np.random.default_rng(13).uniform(13.0, 16.0, 3)).astype(int)
    return [SPLIT, SPLIT + 1, SPLIT + 2, 2 * SPLIT + 3,
            int(m[0]) | 1, int(m[1]) & ~1, int(m[2])]


@pytest.mark.parametrize("m", _split_sizes())
def test_split_autocorrelation_matches_direct(m):
    # above SPLIT slopes the halves' correlations are added; at SPLIT the one
    # whole transform runs, so the boundary is pinned from both sides
    got, s = _of_slopes("_slope_autocorr",
                        np.random.default_rng(m).standard_normal(m))
    direct = np.correlate(s, s, mode="full")[m - 1:]
    assert got.shape == direct.shape == (m,)
    assert np.max(np.abs(got - direct)) <= 1e-12 * direct[0]


def _oracle_sizes():
    return [m for j in range(4, 16) for m in (2 ** j - 1, 2 ** j, 2 ** j + 1)]


@pytest.mark.parametrize("route", ["_slope_autocorr", "_split_autocorr"])
@pytest.mark.parametrize("m", _oracle_sizes())
def test_correlation_of_integer_slopes_is_exact(route, m):
    # integer slopes correlate exactly in float64, so the rounded FFT
    # correlation is the int64 one; m = 2^j + 1 runs at N = 2m - 2 (and the
    # halves at N = 2h - 2), where the last lag (the halves' lag h - 1) is
    # written directly.  _slope_autocorr takes the halves above SPLIT.
    rng = np.random.default_rng(m)
    s = rng.integers(-1024, 1025, m)
    got, slopes = _of_slopes(route, s)
    assert np.array_equal(slopes, s)
    assert got.shape == (m,)
    if m <= 1025:
        lags = np.arange(m)
        want = np.correlate(s, s, mode="full")[m - 1:]
    else:
        h = (m + 1) // 2
        lags = np.unique(np.concatenate([[0, 1, h - 1, h, m - 1],
                                         rng.integers(0, m, 6)]))
        want = np.array([s[:m - k] @ s[k:] for k in lags])
    got = got[lags]
    assert np.array_equal(np.rint(got), want)
    assert np.max(np.abs(got - want)) <= 1e-13 * want[0]


def test_split_starts_above_its_threshold(monkeypatch):
    split = quadcells._split_autocorr
    sizes = []

    def spy(v):
        sizes.append(v.size - 1)
        return split(v)

    monkeypatch.setattr(quadcells, "_split_autocorr", spy)
    for m in (1, SPLIT - 1, SPLIT, SPLIT + 1):
        quadcells._slope_autocorr(np.arange(m + 1.0))
    assert sizes == [SPLIT + 1]


def _no_thread_starts(self):
    raise RuntimeError("can't start new thread")


@pytest.mark.parametrize("m", [SPLIT + 1, 2 * SPLIT + 3])
def test_split_is_the_same_bits_when_no_thread_starts(m, monkeypatch):
    v = np.random.default_rng(3).standard_normal(m + 1)
    threaded = quadcells._slope_autocorr(v)
    before = threading.active_count()
    monkeypatch.setattr(threading.Thread, "start", _no_thread_starts)
    inline = quadcells._slope_autocorr(v)
    assert threading.active_count() == before
    assert np.array_equal(threaded.view(np.int64), inline.view(np.int64))


def test_split_from_concurrent_callers():
    # more callers than cores, each with its own helper: every call's halves
    # write only its own buffers, so each gets the one-caller bits
    v = np.random.default_rng(4).standard_normal(SPLIT + 6)
    want = quadcells._slope_autocorr(v)
    got = [None] * 6

    def call(i):
        for _ in range(5):
            got[i] = quadcells._slope_autocorr(v)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=call, args=(i,))
                   for i in range(len(got))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(np.array_equal(g.view(np.int64), want.view(np.int64))
               for g in got)


class _HalfFailed(Exception):
    pass


@pytest.mark.parametrize("on_helper", [True, False])
def test_split_raises_a_failed_half_and_leaves_no_thread(on_helper,
                                                         monkeypatch):
    rfft = np.fft.rfft
    raised = []

    def failing(*args, **kwargs):
        here = threading.current_thread() is threading.main_thread()
        if here != on_helper:
            raised.append(threading.current_thread().name)
            raise _HalfFailed
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", failing)
    before = threading.active_count()
    with pytest.raises(_HalfFailed):
        quadcells._slope_autocorr(np.arange(SPLIT + 2.0))
    assert threading.active_count() == before
    assert len(raised) == 1


@pytest.mark.parametrize("ends", [(1.0, 0.0), (0.0, -0.5), (2.0, 2.0)])
def test_untapered_samples_rejected(ends):
    vals = np.array([ends[0], 1.0, 3.0, ends[1]])
    with pytest.raises(ValueError, match="taper"):
        gagliardo_of_values(vals, 0.1, 0.5)
    with pytest.raises(ValueError, match="taper"):
        rho_profile(vals, 0.1, [0.3])


def test_overflowing_form_scale_refused():
    # at the smallest subnormal alpha, C = 2 / (alpha (2-alpha) (3-alpha))
    # overflows: the row was NaN with a RuntimeWarning and the form inf
    with pytest.raises(ValueError, match="overflows float64"):
        hat_energy_row(8, 0.01, 5e-324)
    with pytest.raises(ValueError, match="overflows float64"):
        gagliardo_of_values(np.array([0.0, 1.0, 0.0]), 0.01, 5e-324)
    assert math.isfinite(quadcells._form_scale(0.01, 1e-300))


def test_overflowing_form_of_values_refused_without_warning(recwarn):
    # finite samples whose correlation overflows: the capacity value's form
    v = np.zeros(300)
    v[2:-2] = 1e160 * np.sin(np.arange(296.0))
    with pytest.raises(ValueError, match="overflows float64"):
        gagliardo_of_values(v, 1e-3, 0.05)
    assert [w.category for w in recwarn] == []


def test_rho_profile_matches_brute_correlation(rng):
    # against the defining integral, exact by Simpson's rule per piece: on-
    # and off-grid lags, lags at and beyond the span (rho = 2 ||u||^2), the
    # per-lag shift sums past 2048 nodes, and a fine smooth bump, whose
    # a_0 - a_m cancels to ~(m h)^2 of a_0 at short lags
    h = 0.05
    x = np.linspace(-1.0, 1.0, 16385)
    smooth = np.where(np.abs(x) < 0.9, np.cos(np.pi * x / 1.8) ** 2, 0.0)
    smooth[[0, -1]] = 0.0
    for vals in (np.pad(rng.normal(size=28), 1),
                 np.pad(rng.normal(size=2499), 1), smooth):
        n = vals.size
        steps = np.array([0.0, 1.0, 7.0, n - 2.0, 0.37, 2.5, 5.5, 100.5,
                          n / 3 + 0.25, n - 1.5, n - 1.0, 1.5 * n])
        got = rho_profile(vals, h, h * steps)
        want = [exact_rho(vals, h, h * s) for s in steps]
        assert np.allclose(got, want, rtol=1e-12, atol=0.0), n
        assert got[-2:] == pytest.approx(2.0 * l2_norm_sq_of_samples(vals, h),
                                         rel=1e-14)


def test_row_matches_polarization(rng):
    h = 0.1
    alpha = 0.7
    row = hat_energy_row(40, h, alpha)
    e0 = gagliardo_of_values(np.array([0.0, 1.0, 0.0]), h, alpha)
    for m in (1, 2, 3, 10, 30):
        vv = np.zeros(m + 3)
        vv[1] = 1.0
        vv[m + 1] += 1.0
        pol = (gagliardo_of_values(vv, h, alpha) - 2.0 * e0) / 2.0
        assert row[m] == pytest.approx(pol, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.5, 1.9])
def test_row_matches_fourth_difference_closed_form(alpha):
    row = hat_energy_row(10, 1.0, alpha)
    c = 2.0 / (alpha * (1.0 - alpha) * (2.0 - alpha) * (3.0 - alpha))

    def w(m):
        return abs(m) ** (3.0 - alpha)

    for m in range(10):
        ref = c * (w(m + 2) - 4 * w(m + 1) + 6 * w(m) - 4 * w(m - 1)
                   + w(m - 2))
        assert row[m] == pytest.approx(ref, rel=1e-9)


def test_row_log_branch_at_alpha_one():
    row = hat_energy_row(10, 1.0, 1.0)

    def w(m):
        return m * m * math.log(abs(m)) if m != 0 else 0.0

    for m in range(10):
        ref = w(m + 2) - 4 * w(m + 1) + 6 * w(m) - 4 * w(m - 1) + w(m - 2)
        assert row[m] == pytest.approx(ref, rel=1e-9)


def test_quadratic_form_equals_direct_energy(rng):
    from scipy.linalg import toeplitz

    n = 120
    h = 0.04
    vals = np.zeros(n)
    vals[1:-1] = rng.normal(size=n - 2)
    for alpha in (0.5, 1.0, 1.5):
        k = toeplitz(hat_energy_row(n, h, alpha))
        quadform = float(vals @ k @ vals)
        direct = gagliardo_of_values(vals, h, alpha)
        assert quadform == pytest.approx(direct, rel=1e-12)


def test_contraction_decreases_energy(rng):
    # removing the small band is a normal contraction, so the form decreases
    from fracform.grids import GridFunction, epsilon_contraction

    for _ in range(10):
        vals = np.zeros(50)
        vals[1:-1] = rng.normal(size=48)
        f = GridFunction(0.0, 0.1, vals)
        g = epsilon_contraction(f, float(rng.uniform(0.1, 1.0)))
        for alpha in (0.5, 1.5):
            ef = gagliardo_of_values(f.values, f.step, alpha)
            eg = gagliardo_of_values(g.values, g.step, alpha)
            assert eg <= ef + 1e-12
