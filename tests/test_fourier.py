import gc
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracform import fourier
from fracform.fourier import discrete_fourier, transform_at
from fracform.grids import GridFunction, StepFunction
from fracform.verify import random_bump_params, sample_multibump

from conftest import sample_bump


def test_zero_function_transforms_to_zero():
    f = GridFunction(0.0, 0.5, [0.0, 0.0, 0.0])
    table = discrete_fourier(f, 10.0, 64)
    assert np.all(table.amplitudes == 0.0)


def test_indicator_matches_analytic_modulus():
    # |fhat(xi)| of the indicator of [0, 1] is |2 sin(xi/2) / (xi sqrt(2 pi))|
    ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0])).sample(1 / 512)
    xi = 1.0
    expected = abs(2.0 * math.sin(xi / 2.0) / (xi * math.sqrt(2.0 * math.pi)))
    got = abs(transform_at(ind, xi)[0])
    assert got == pytest.approx(expected, abs=1e-3)


def test_translation_leaves_modulus_invariant():
    f = sample_bump(step=1.0 / 128.0)
    g = GridFunction(f.origin + 128 * f.step, f.step, f.values)  # by 1
    xi = np.linspace(-20.0, 20.0, 301)
    assert np.allclose(np.abs(transform_at(f, xi)), np.abs(transform_at(g, xi)),
                       atol=1e-13)


def test_plancherel_within_one_percent():
    f = sample_bump(width=0.7, step=1.0 / 256.0)
    table = discrete_fourier(f, 400.0, 8001)
    l2 = np.trapezoid(np.abs(table.amplitudes) ** 2, table.frequencies)
    assert l2 == pytest.approx(f.l2_norm_sq(), rel=0.01)


def test_grid_validation():
    f = sample_bump()
    with pytest.raises(ValueError):
        discrete_fourier(f, 1.0, 1)
    with pytest.raises(ValueError):
        discrete_fourier(f, -1.0, 16)


@pytest.mark.parametrize("xi_max", [0.0, math.nan, math.inf, 9e307, 1e308,
                                    np.finfo(float).max])
def test_frequency_window_must_be_finite(xi_max):
    # an infinite window gave NaN frequencies and amplitudes; from 9e307 on
    # the span 2 xi_max overflowed, and np.linspace warned twice before the
    # phase guard raised
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="xi_max"):
            discrete_fourier(sample_bump(), xi_max, 16)


def test_largest_finite_span_is_accepted():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        table = discrete_fourier(sample_bump(), 8.98e307, 16)
    assert np.all(np.isfinite(table.frequencies))


class TestKeptTable:
    """discrete_fourier keeps its last table with the function."""

    def test_kept_table_equals_a_fresh_transform(self):
        f = sample_bump(step=1.0 / 128.0)
        table = discrete_fourier(f, 64.0, 513)
        assert discrete_fourier(f, 64.0, 513) is table
        assert np.array_equal(table.frequencies, np.linspace(-64.0, 64.0, 513))
        assert np.array_equal(table.amplitudes,
                              transform_at(f, table.frequencies))
        for arr in (table.frequencies, table.amplitudes):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0
        # derived functions start without it
        assert "_fourier_table" not in vars(f.with_values(f.values))

    def test_another_window_replaces_it(self):
        f = sample_bump(step=1.0 / 128.0)
        first = discrete_fourier(f, 64.0, 513)
        for xi_max, n_freq in ((32.0, 513), (64.0, 257)):
            other = discrete_fourier(f, xi_max, n_freq)
            assert other is not first
            assert discrete_fourier(f, xi_max, n_freq) is other
            assert np.array_equal(other.amplitudes,
                                  transform_at(f, other.frequencies))
        again = discrete_fourier(f, 64.0, 513)
        assert again is not first
        assert np.array_equal(again.amplitudes, first.amplitudes)

    def test_one_transform_for_every_exponent(self, monkeypatch):
        from fracform.energy import (EnergyParams, calibrate_c_of_alpha,
                                     fourier_energy, fourier_gagliardo_ratio)
        f = sample_bump(step=1.0 / 128.0)
        fresh = GridFunction(f.origin, f.step, f.values)
        sums = []
        grid_sum = fourier._grid_sum
        monkeypatch.setattr(fourier, "_grid_sum",
                            lambda g, plan: (sums.append(plan.hat.size),
                                             grid_sum(g, plan))[1])
        for a in (0.25, 1.0, 1.9):
            p = EnergyParams(a)
            want = fourier_energy(GridFunction(f.origin, f.step, f.values), p,
                                  512.0, 8192)
            assert fourier_energy(f, p, 512.0, 8192) == want
            assert fourier_gagliardo_ratio(f, p) == \
                fourier_gagliardo_ratio(fresh, p)
            calibrate_c_of_alpha(p, f)
        # one transform of f, one of fresh and one per exponent for the
        # functions built inside the loop
        assert sums == [8192] * 5

    @pytest.mark.parametrize("call", [
        lambda f: discrete_fourier(f, 0.0, 513),
        lambda f: discrete_fourier(f, math.nan, 513),
        lambda f: discrete_fourier(f, math.inf, 513),
        lambda f: discrete_fourier(f, 64.0, 1),
        lambda f: discrete_fourier(f, 64.0, True),
        lambda f: discrete_fourier(f, 64.0, 513.0)],
        ids=["xi_max-zero", "xi_max-nan", "xi_max-inf", "n_freq-one",
             "n_freq-bool", "n_freq-float"])
    def test_guards_run_before_the_kept_table(self, call):
        f = sample_bump(step=1.0 / 128.0)
        discrete_fourier(f, 64.0, 513)
        with pytest.raises(ValueError) as fresh:
            call(GridFunction(f.origin, f.step, f.values))
        with pytest.raises(ValueError) as kept:
            call(f)
        assert str(kept.value) == str(fresh.value)

    def test_threads_sharing_a_function_get_their_own_window(self):
        # a table kept under one key must never answer another; racing
        # threads may each transform, but every table matches its request
        import sys
        import threading
        f = sample_bump(step=1.0 / 32.0)
        keys = [(16.0, 33), (24.0, 33), (16.0, 65)]
        want = {k: transform_at(f, np.linspace(-k[0], k[0], k[1]))
                for k in keys}
        wrong = []

        def work(seed):
            for i in range(150):
                k = keys[(seed + i * (seed + 1)) % len(keys)]
                table = discrete_fourier(f, *k)
                if not np.array_equal(table.amplitudes, want[k]):
                    wrong.append(k)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,))
                       for s in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []

    def test_non_compact_function_refused_with_a_kept_table(self):
        from fracform.energy import EnergyParams, fourier_energy
        f = GridFunction(0.0, 0.25, [1.0, 2.0, 1.0, 0.0])
        discrete_fourier(f, 64.0, 513)
        msgs = []
        for g in (GridFunction(f.origin, f.step, f.values), f):
            with pytest.raises(ValueError, match="taper") as err:
                fourier_energy(g, EnergyParams(0.5), 64.0, 513)
            msgs.append(str(err.value))
        assert msgs[0] == msgs[1]


def _same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64),
                                                 b.view(np.int64))


@pytest.fixture
def plans():
    fourier._kept_plan.cache_clear()
    yield fourier._kept_plan
    fourier._kept_plan.cache_clear()


def _rowless_transform(f, xi):
    """transform_at through a plan built for the one call, without weight
    rows, as for a set too large to keep."""
    g = f.trimmed(margin=0)
    plan = fourier._FrequencyPlan(g.values.size, g.step, g.origin, xi,
                                  keep=False)
    return plan.hat * fourier._grid_sum(g, plan)


def _kept_plans():
    """The plans alive once every other reference is gone: the kept ones."""
    gc.collect()
    return [o for o in gc.get_objects()
            if isinstance(o, fourier._FrequencyPlan)]


# 14 weight rows, tap starts, hat factors and the key's frequency bytes of 8
# bytes, phases of 16, per frequency; 16 plans of at most 2^11 frequencies
PLAN_BYTES_PER_FREQ = 14 * 8 + 8 + 16 + 8 + 8
KEPT_PLAN_BOUND = 16 * (1 << 11) * PLAN_BYTES_PER_FREQ


class TestKeptPlan:
    """transform_at keeps the frequency side of the gridding sum of a
    (trimmed grid, frequency set) pair in a least-recently-used cache."""

    @pytest.mark.parametrize("n", [257, 513, 1025])
    def test_calls_are_bit_identical_kept_or_not(self, plans, n):
        f = _random_grid_function(n, np.random.default_rng(n))
        for xi in (np.linspace(-200.0, 200.0, 2048),
                   np.geomspace(0.5, 200.0, 2048)):
            plans.cache_clear()
            first = transform_at(f, xi)         # kept, rows built
            second = transform_at(f, xi)        # read from the kept plan
            third = transform_at(f, xi)
            assert plans.cache_info()[:2] == (2, 1)
            want = _rowless_transform(f, xi)
            for got in (first, second, third):
                assert _same_bits(got, want)

    def test_sweep_traffic_keeps_its_repeated_keys(self, plans):
        # a spectral sweep round: 6 repeated keys (3 grids, each with a
        # uniform and a scattered 2048-frequency set), then 3 one-shot bv
        # keys at a random origin and step with 400 frequencies
        rng = np.random.default_rng(11)
        fs = [_random_grid_function(n, rng) for n in (257, 513, 1025)]
        sets = (np.linspace(-200.0, 200.0, 2048),
                np.geomspace(0.5, 200.0, 2048))
        bv = np.concatenate([-np.geomspace(1.0, 200.0, 200)[::-1],
                             np.geomspace(1.0, 200.0, 200)])
        for sweep in range(5):
            for f in fs:
                for xi in sets:
                    hits = plans.cache_info().hits
                    transform_at(f, xi)
                    assert plans.cache_info().hits == hits + (sweep > 0)
            for _ in range(3):
                g = GridFunction(rng.uniform(-1.0, 1.0),
                                 rng.uniform(0.005, 0.02),
                                 rng.standard_normal(200))
                transform_at(g, bv)
        assert plans.cache_info()[:2] == (24, 21)
        assert plans.cache_info().currsize == 16

    def test_kept_plans_stay_within_their_bound(self, plans):
        assert KEPT_PLAN_BOUND <= 4.75 * 2 ** 20
        f = sample_bump(step=1.0 / 32.0)
        grid = np.linspace(-20.0, 20.0, 1 << 11)
        for i in range(40):
            transform_at(f, grid + i)
        assert plans.cache_info()[1:] == (40, 16, 16)
        transform_at(f, np.linspace(-20.0, 20.0, (1 << 11) + 1))
        assert plans.cache_info()[1:] == (40, 16, 16)   # too large to keep
        kept = _kept_plans()
        assert len(kept) == 16
        kept_bytes = sum(p.rows.nbytes + p.start.nbytes + p.phase.nbytes
                         + p.hat.nbytes + 8 * p.start.size for p in kept)
        assert kept_bytes <= KEPT_PLAN_BOUND

    def test_kept_arrays_are_read_only(self, plans):
        f = sample_bump(step=1.0 / 64.0)
        g, xi = f.trimmed(margin=0), np.linspace(-20.0, 20.0, 33)
        key = (g.values.size, g.step, g.origin, xi.shape, xi.tobytes())
        plan = plans(*key)
        assert plans(*key) is plan
        for a in (plan.rows, plan.start, plan.phase, plan.hat):
            assert not a.flags.writeable

    def test_mutated_frequencies_get_their_own_plan(self, plans):
        f = sample_bump(step=1.0 / 64.0)
        xi = np.linspace(-20.0, 20.0, 33)
        want = transform_at(f, 2.0 * xi)
        for _ in range(3):
            transform_at(f, xi)
        xi *= 2.0                               # the caller's own array
        assert _same_bits(transform_at(f, xi), want)
        assert _same_bits(transform_at(f, xi), want)

    def test_grids_differing_in_one_key_share_no_plan(self, plans):
        f = _random_grid_function(65, np.random.default_rng(1))
        xi = np.geomspace(0.5, 60.0, 300)
        others = (GridFunction(f.origin + 0.125, f.step, f.values),
                  GridFunction(f.origin, 2.0 * f.step, f.values),
                  GridFunction(f.origin, f.step, np.append(f.values, 1.0)))
        want = [_rowless_transform(g, xi) for g in others]
        for _ in range(2):
            transform_at(f, xi)
        for g, w in zip(others, want):
            for _ in range(3):
                assert _same_bits(transform_at(g, xi), w)
        assert plans.cache_info().currsize == 4

    def test_large_sets_build_no_weight_table(self, plans):
        import tracemalloc
        f = _random_grid_function(4097, np.random.default_rng(4))
        xi = np.linspace(-500.0, 500.0, 32769)
        transform_at(f, xi)
        tracemalloc.start()
        try:
            for _ in range(2):
                transform_at(f, xi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 14 weight rows alone would be 112 bytes per frequency; the
        # call measures ~118 (FFT grid, buffers, plan and result)
        assert peak <= 150 * xi.size
        assert plans.cache_info() == (0, 0, 16, 0)

    def test_threads_get_the_one_thread_arrays(self, plans):
        # 20 keys against 16 kept plans, so threads also race evictions
        import sys
        import threading
        rng = np.random.default_rng(7)
        fs = [_random_grid_function(n, rng) for n in (33, 65, 129, 257, 513)]
        sets = [np.linspace(-50.0, 50.0, 256), np.geomspace(0.5, 50.0, 256),
                np.linspace(-30.0, 40.0, 200), rng.uniform(-40.0, 40.0, 300)]
        pairs = [(i, j) for i in range(len(fs)) for j in range(len(sets))]
        want = {(i, j): _rowless_transform(fs[i], sets[j]) for i, j in pairs}
        wrong = []

        def work(seed):
            for k in range(60):
                i, j = pairs[(seed + k * (seed + 1)) % len(pairs)]
                if not _same_bits(transform_at(fs[i], sets[j]), want[i, j]):
                    wrong.append((i, j))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,))
                       for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert wrong == []
        info = plans.cache_info()
        assert info.hits + info.misses == 240 and info.currsize <= 16


def test_exactness_against_quadrature():
    # the closed-form transform of the interpolant agrees with brute-force
    # quadrature of the same interpolant
    f = sample_bump(center=0.3, width=0.5, step=1.0 / 64.0)
    xs = np.linspace(-0.5, 1.5, 200001)
    vals = f(xs)
    for xi in (0.0, 0.7, 3.3, 19.0):
        brute = np.trapezoid(vals * np.exp(1j * xi * xs), xs) \
            / math.sqrt(2.0 * math.pi)
        assert transform_at(f, xi)[0] == pytest.approx(brute, abs=5e-9)


# -- phase sums against the explicit M x N oracle ---------------------------

def _random_grid_function(n, rng, origin=-0.3, span=1.3):
    return GridFunction(origin, span / max(n - 1, 1), rng.standard_normal(n))


def _phase_sum(f, xi):
    """sum_j v_j e^(i xi_k x_j) by the gridding sum, through a plan for f's
    grid built for the one call."""
    plan = fourier._FrequencyPlan(f.values.size, f.step, f.origin, xi,
                                  keep=False)
    return fourier._grid_sum(f, plan)


def _explicit_sum(g, xi):
    """sum_j v_j e^(i xi_k x_j) from the full matrix of explicit phases."""
    return np.exp(1j * xi[:, None] * g.x[None, :]) @ g.values


def _relative_gap(a, b, f):
    """Largest |a - b| phase-sum difference over sum |v|: a bound on the
    transforms' difference in units of h sum |v| / sqrt(2 pi), the bound on
    |fhat| that every path shares (the hat factor is at most 1)."""
    return float(np.max(np.abs(a - b))) / float(np.sum(np.abs(f.values)))


def _scattered(rng, m, f, bound=2000.0):
    """m unsorted frequencies of both signs, |xi x| <= bound on f's grid."""
    reach = max(abs(f.origin), abs(f.origin + f.step * (f.n_nodes - 1)))
    return rng.uniform(-1.0, 1.0, m) * (bound / reach)


# The phase sum, ES gridding (``_grid_sum``), against the explicit
# sum.  In the test names, ``dense`` means the explicit sum and ``chirp`` a
# uniform frequency grid.

@pytest.mark.parametrize("origin", [-0.3, 700.0])
@pytest.mark.parametrize("m", [1, 2, 2048])
@pytest.mark.parametrize("n", [2, 3, 17, 1024, 1025, 4097])
def test_dense_matches_explicit(n, m, origin):
    # prime, power-of-two and other node counts; the origin far from 0 makes
    # the centring phase xi x_c carry almost all of |xi x|
    rng = np.random.default_rng([n, m, int(origin)])
    f = _random_grid_function(n, rng, origin)
    xi = _scattered(rng, m, f)
    got = _phase_sum(f, xi)
    assert _relative_gap(got, _explicit_sum(f, xi), f) <= 1e-12


@given(m=st.integers(1, 700), n=st.integers(2, 3000),
       origin=st.floats(-500.0, 500.0), span=st.floats(0.01, 2.0),
       zero=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
@example(m=9, n=2, origin=0.0, span=1.0, zero=True, seed=1)
@example(m=9, n=3, origin=-0.5, span=1.0, zero=True, seed=2)
@example(m=1, n=2, origin=3.0, span=0.01, zero=True, seed=3)
def test_dense_matches_explicit_on_random_grids(m, n, origin, span, zero,
                                               seed):
    # frequencies of both signs with |xi h| up to 2000 / (n - 1) rad, so at
    # small n they wrap around 2 pi many times; ``zero`` puts xi = 0 first
    rng = np.random.default_rng(seed)
    f = _random_grid_function(n, rng, origin, span)
    xi = _scattered(rng, m, f)
    if zero:
        xi[0] = 0.0
    got = _phase_sum(f, xi)
    assert _relative_gap(got, _explicit_sum(f, xi), f) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_grid_at_zero_mixed_signs_and_wrapped_phases(n):
    # xi h at 0, at and around +-pi and 2 pi, and many turns past them;
    # power-of-two n sit at the least oversampling, K = 4 n
    rng = np.random.default_rng(n)
    f = _random_grid_function(n, rng, origin=0.25, span=1.0)
    turns = np.array([0.0, 0.5, 1.0, 1.0 + 1e-9, 2.0, 2.5, 7.25, 300.1])
    xi = np.concatenate([turns, -turns]) * math.pi / f.step
    got = _phase_sum(f, xi)
    assert _relative_gap(got, _explicit_sum(f, xi), f) <= 1e-12
    assert got[0] == pytest.approx(np.sum(f.values), abs=1e-13)


def test_grid_reduces_huge_phases():
    # xi h = 1e300 is reduced mod 2 pi before the tap index is taken, so the
    # index cast does not overflow (numpy warns when it does) and the sum
    # stays within |S| <= sum |v|
    f = _random_grid_function(17, np.random.default_rng(5))
    xi = np.array([1e300, -1e300, 1e200, 5e15])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _phase_sum(f, xi)
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got) <= np.sum(np.abs(f.values)) * (1 + 1e-12))


@pytest.mark.parametrize("n", [257, 513, 1025])
def test_dense_on_benchmark_shapes(n):
    # the spectral benchmark's scattered calls: a multibump-sized grid on
    # [0, 1] at 2048 geometric frequencies up to 200
    f = GridFunction(0.0, 1.0 / (n - 1),
                     np.random.default_rng(n).standard_normal(n))
    xi = np.geomspace(0.5, 200.0, 2048)
    got = _phase_sum(f, xi)
    assert _relative_gap(got, _explicit_sum(f, xi), f) <= 1e-14


@pytest.mark.parametrize("n, size", [(341, 1024), (1365, 4096),
                                     (342, 2048), (1366, 8192)])
def test_dense_at_the_ends_of_the_oversampling(n, size):
    # K / n just above 3 and just below 6: the kernel's beta is fixed at its
    # value for 3x oversampling, the least K >= 3 n gives
    f = GridFunction(0.0, 1.0 / (n - 1),
                     np.random.default_rng(n).standard_normal(n))
    xi = np.geomspace(0.5, 200.0, 2048)
    assert fourier._FrequencyPlan(n, f.step, f.origin, xi,
                                  keep=False).size == size
    assert _relative_gap(_phase_sum(f, xi), _explicit_sum(f, xi), f) <= 1e-14
    rng = np.random.default_rng([n, size])
    g = _random_grid_function(n, rng)
    xi = _scattered(rng, 2048, g, bound=2000.0)
    assert _relative_gap(_phase_sum(g, xi), _explicit_sum(g, xi), g) <= 1e-12


@pytest.mark.parametrize("where", ["zero", "middle", "last"])
def test_kernel_integral_table_against_mpmath(where):
    # Phi(u) = int_-1^1 exp(beta (sqrt(1 - z^2) - 1)) cos(u z) dz by
    # mpmath's tanh-sinh quadrature at 50 digits, a route that shares no
    # code with the Gauss-Legendre sums of the table
    import mpmath
    table = fourier._es_table(1 << 15)
    i = {"zero": 0, "middle": table.size // 2, "last": table.size - 1}[where]
    u = i * (fourier._TAPS * math.pi / (1 << 15))
    with mpmath.workdps(50):
        beta, u = mpmath.mpf(fourier._BETA), mpmath.mpf(u)
        want = 2 * mpmath.quad(
            lambda z: mpmath.exp(beta * (mpmath.sqrt(1 - z * z) - 1))
            * mpmath.cos(u * z), [0, 0.5, 1])
        assert abs(table[i] - want) <= 2e-15 * want
    assert not table.flags.writeable


@pytest.mark.parametrize("size", [1 << 13, 1 << 16])
def test_kernel_coefficients_equal_a_direct_evaluation(size):
    # a grid below 2^15 points reads the 2^15-point table at a stride, a
    # larger one its own table; either way the products i a are the same
    # bits as the direct |j| a
    n = size // 3
    j = np.arange(-(n // 2), n - n // 2)
    direct = fourier._es_integral(np.abs(j)
                                  * (fourier._TAPS * math.pi / size))
    assert _same_bits(fourier._es_coefficients(size, j), direct)


def test_a_large_grid_builds_its_table_once(monkeypatch):
    # 16385 nodes need K = 2^16 points: the first call may build that
    # table, a repeat reads it, with no quadrature, and gives the same bits
    f = GridFunction(0.0, 1.0 / 16384,
                     np.random.default_rng(16385).standard_normal(16385))
    xi = np.geomspace(0.5, 200.0, 2048)
    first = transform_at(f, xi)
    misses = fourier._es_table.cache_info().misses

    def refused(u):
        raise AssertionError("Phi evaluated again")
    monkeypatch.setattr(fourier, "_es_integral", refused)
    assert _same_bits(transform_at(f, xi), first)
    assert fourier._es_table.cache_info().misses == misses
    for top in (1 << 15, 1 << 16):
        assert not fourier._es_table(top).flags.writeable


def _cellwise_transform(f, xi):
    """fhat of the interpolant by an 8-point Gauss-Legendre rule on every
    grid cell, a route to the same integral that shares no code with
    fourier.py: e^(i xi (x_c + h s_q)) = e^(i xi x_c) e^(i xi h s_q) for
    cell c's left node x_c and the rule's points s_q in [0, 1]."""
    t, w = np.polynomial.legendre.leggauss(8)
    s = 0.5 * (t + 1.0)
    v, h = f.values, f.step
    left = f.origin + h * np.arange(v.size - 1)
    # the interpolant at each cell's points, times the rule's weights
    wq = 0.5 * h * w * ((1.0 - s) * v[:-1, None] + s * v[1:, None])
    cells = np.exp(1j * np.outer(xi, left)) @ wq
    return np.sum(cells * np.exp(1j * np.outer(xi, h * s)), axis=1) \
        / math.sqrt(2 * math.pi)


@pytest.mark.parametrize("n", [257, 513, 1025])
def test_transform_matches_cellwise_quadrature(n):
    # the spectral benchmark's gate on its scattered calls, at all of the
    # sweep's 2048 geometric frequencies: <= 1e-10 h sum |v|
    params = random_bump_params(np.random.default_rng(n), 4, (0.15, 0.85),
                                (0.05, 0.15), (-1.0, 1.0))
    f = sample_multibump(params, 1.0 / (n - 1), 0.0, 1.0)
    assert f.n_nodes == n
    xi = np.geomspace(0.5, 200.0, 2048)
    err = np.max(np.abs(transform_at(f, xi) - _cellwise_transform(f, xi)))
    assert err <= 1e-10 * f.step * np.sum(np.abs(f.values))


# -- uniform frequency grids --------------------------------------------------

def _uniform_gap(f, xi):
    return _relative_gap(_phase_sum(f, xi), _explicit_sum(f, xi), f)


GRIDS = {
    "symmetric": (-200.0, 200.0),
    "asymmetric": (-30.0, 170.0),
    "offset": (100.0, 250.0),
    "decreasing": (80.0, -40.0),
}


@pytest.mark.parametrize("grid", sorted(GRIDS))
@pytest.mark.parametrize("m, n", [(2, 2), (2, 7), (3, 3), (3, 8), (64, 65),
                                  (65, 64), (4096, 3), (3, 4096), (2, 4097),
                                  (1001, 129), (2048, 1025)])
def test_chirp_matches_dense(grid, m, n):
    rng = np.random.default_rng([m, n])
    f = _random_grid_function(n, rng)
    xi = np.linspace(*GRIDS[grid], m)
    assert _uniform_gap(f, xi) <= 1e-12


@given(m=st.integers(2, 700), n=st.integers(2, 700),
       lo=st.floats(-300.0, 300.0), width=st.floats(-200.0, 200.0),
       origin=st.floats(-2.0, 2.0), span=st.floats(0.01, 2.0),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
@example(m=21, n=2, lo=0.0, width=2.225073858507203e-309, origin=0.0,
         span=1.0, seed=0)  # a grid of subnormal width
def test_chirp_matches_dense_on_random_grids(m, n, lo, width, origin, span,
                                             seed):
    # |xi x| <= 2000, so each sum's own phase rounding (eps |xi x|, the
    # explicit sum's included) stays well inside the tolerance
    f = _random_grid_function(n, np.random.default_rng(seed), origin, span)
    xi = np.linspace(lo, lo + width, m)
    assert _uniform_gap(f, xi) <= 1e-12


def _perturbed(xi):
    """xi with one frequency moved by 8 ulps of max |xi|."""
    out = xi.copy()
    out[xi.size // 3] += 8 * np.spacing(np.max(np.abs(xi)))
    return out


@pytest.mark.parametrize("case", ["uniform", "two-frequencies", "perturbed",
                                  "geometric"])
def test_path_choice_and_agreement(case):
    # uniform, nearly uniform and scattered frequencies take the one path
    rng = np.random.default_rng(7)
    f = _random_grid_function(257, rng)
    uniform = np.linspace(-150.0, 210.0, 999)
    xi = {"two-frequencies": np.array([-3.0, 5.0]),
          "perturbed": _perturbed(uniform),
          "geometric": np.geomspace(0.5, 200.0, 999)}.get(case, uniform)
    h = f.step
    hat = np.sinc(xi * h / (2.0 * math.pi)) ** 2
    expected = h / math.sqrt(2.0 * math.pi) * hat * _explicit_sum(f, xi)
    got = transform_at(f, xi)
    scale = h * np.sum(np.abs(f.values)) / math.sqrt(2.0 * math.pi)
    assert np.max(np.abs(got - expected)) <= 1e-12 * scale


@pytest.mark.parametrize("grid", ["uniform", "scattered"])
def test_unit_tent_closed_form(grid):
    # the unit tent 1 - |x| on [-1, 1] is one hat: fhat = sinc^2 / sqrt(2 pi);
    # the grids and the bound are the spectral benchmark's
    m = 64
    tent = GridFunction(-1.0, 1.0 / m, 1.0 - np.abs(np.linspace(-1, 1, 2 * m + 1)))
    xi = (np.linspace(-50.0, 50.0, 1001) if grid == "uniform"
          else np.geomspace(0.01, 500.0, 1001))
    exact = np.sinc(xi / (2 * math.pi)) ** 2 / math.sqrt(2 * math.pi)
    assert np.max(np.abs(transform_at(tent, xi) - exact)) <= 1e-12
    if grid == "uniform":
        table = discrete_fourier(tent, 50.0, 1001)
        assert np.max(np.abs(table.amplitudes - exact)) <= 1e-12


@pytest.mark.parametrize("grid", ["uniform", "scattered"])
def test_single_hat_closed_form(grid):
    # one nonzero sample is one hat of half-width 1 centred at x = 1
    f = GridFunction(0.0, 1.0, [0.0, 1.0, 0.0])
    xi = (np.linspace(-30.0, 30.0, 401) if grid == "uniform"
          else np.random.default_rng(3).uniform(-30.0, 30.0, 401))
    exact = (np.sinc(xi / (2 * math.pi)) ** 2 * np.exp(1j * xi)
             / math.sqrt(2 * math.pi))
    assert np.max(np.abs(transform_at(f, xi) - exact)) <= 1e-15


@pytest.mark.parametrize("n", [3, 17, 257, 1025, 4097])
def test_amplitude_independent_of_the_other_frequencies(n):
    # a frequency's amplitude is the same bits whichever other frequencies
    # are requested with it, in whatever order: permuted, a sorted subset
    # of a uniform grid, and one frequency at a time
    rng = np.random.default_rng(n)
    f = _random_grid_function(n, rng)
    xi = np.linspace(-150.0, 210.0, 999)
    full = transform_at(f, xi)
    perm = rng.permutation(xi.size)
    assert np.array_equal(transform_at(f, xi[perm]), full[perm])
    subset = np.sort(rng.choice(xi.size, 100, replace=False))
    assert np.array_equal(transform_at(f, xi[subset]), full[subset])
    for k in rng.choice(xi.size, 5, replace=False):
        assert transform_at(f, xi[k])[0] == full[k]
