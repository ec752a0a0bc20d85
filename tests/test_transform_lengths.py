"""The FFT lengths that capacity solves and energies run, counted.

Each circular embedding is the least power of two that holds its lags
(``quadcells._circular_size``): N >= 2m - 2 for m slopes, N >= m - 1 for
the halves above 2^13 slopes, N >= 2n - 2 for the E1 operator on n nodes.
Counts, unlike times, are the same on every machine, so a change that
doubles a transform, or builds a kept operator twice, fails here."""

from collections import Counter

import numpy as np
import pytest

from fracform import scalecap
from fracform.energy import EnergyParams, gagliardo_energy
from fracform.grids import GridFunction, IntervalSet
from fracform.levy import LevyTriplet, PowerLawDensity, levy_gagliardo_energy
from fracform.quadcells import gagliardo_of_values
from fracform.scalecap import capacity_estimate, concentration_test


@pytest.fixture
def lengths(monkeypatch):
    """(name, length) of every numpy.fft rfft, irfft and hfft call, and
    the iteration count of every CG solve; a fresh kept operator cache."""
    calls = Counter()
    iterations = []

    def counted(name, fn, default):
        def call(a, n=None, *args, **kwargs):
            calls[name, default(np.shape(a)[-1]) if n is None else n] += 1
            return fn(a, n, *args, **kwargs)
        return call

    for name, default in (("rfft", lambda k: k),
                          ("irfft", lambda k: 2 * (k - 1)),
                          ("hfft", lambda k: 2 * (k - 1))):
        monkeypatch.setattr(np.fft, name,
                            counted(name, getattr(np.fft, name), default))
    cg = scalecap._cg

    def counted_cg(*args):
        x, history = cg(*args)
        iterations.append(len(history) - 1)
        return x, history

    monkeypatch.setattr(scalecap, "_cg", counted_cg)
    scalecap._kept_e1_operator.cache_clear()
    yield calls, iterations
    scalecap._kept_e1_operator.cache_clear()


def _solve(operator: int, iterations: int) -> Counter:
    """One solve at N = operator: the right-hand side, a preconditioner and
    an operator product per iteration, and the residual check."""
    products = 2 + 2 * iterations
    return Counter({("rfft", operator): products,
                    ("irfft", operator): products})


def _value(n: int) -> Counter:
    """The equilibrium value's increment autocorrelation."""
    return Counter({("rfft", n): 1, ("irfft", n): 1})


@pytest.mark.parametrize("nodes, operator, value", [
    (2048, 4096, 4096),     # 2050 samples, 2049 slopes: 4096, not 8192
    (1025, 2048, 4096)])    # 1025 nodes: N = 2n - 2 = 2048, not 4096
def test_capacity_estimate(lengths, nodes, operator, value):
    calls, iterations = lengths
    capacity_estimate(IntervalSet.of((-0.3, 0.1)), 0.5, (-2.0, 2.0),
                      4.0 / (nodes - 1))
    assert calls == (Counter({("hfft", operator): 1})
                     + _solve(operator, iterations[0]) + _value(value))


def test_concentration_test_builds_one_operator(lengths):
    calls, iterations = lengths
    g = IntervalSet.of((-0.9, -0.5), (-0.2, 0.3), (0.6, 0.7))
    concentration_test(g, 0.5, (-1.0, 1.0), 8.0 / 2047)   # 2048 nodes
    assert len(iterations) == 2
    assert calls == (Counter({("hfft", 4096): 1})
                     + _solve(4096, iterations[0]) + _value(4096)
                     + _solve(4096, iterations[1]) + _value(4096))


@pytest.mark.parametrize("samples, counts", [
    (2050, {("rfft", 4096): 1, ("irfft", 4096): 1}),
    # above 2^13 slopes the halves: 32769 slopes at N = 32768, not 65536
    (32770, {("rfft", 32768): 2, ("irfft", 32768): 2})])
def test_gagliardo_of_values(lengths, samples, counts):
    calls, _ = lengths
    v = np.sin(np.linspace(0.0, np.pi, samples)) ** 2
    v[0] = v[-1] = 0.0
    gagliardo_of_values(v, 1.0 / samples, 0.5)
    assert calls == Counter(counts)


@pytest.mark.parametrize("samples, counts", [
    (2050, {("rfft", 4096): 1, ("irfft", 4096): 1}),
    (32770, {("rfft", 32768): 2, ("irfft", 32768): 2})])
def test_first_energy_transforms_once_and_warm_ones_never(lengths, samples,
                                                          counts):
    calls, _ = lengths
    v = np.sin(np.linspace(0.0, np.pi, samples)) ** 2
    v[0] = v[-1] = 0.0
    f = GridFunction(0.0, 1.0 / samples, v)
    gagliardo_energy(f, EnergyParams(0.5))
    assert calls == Counter(counts)
    gagliardo_energy(f, EnergyParams(1.5))
    levy_gagliardo_energy(f, LevyTriplet(density=PowerLawDensity(0.7)))
    assert calls == Counter(counts)
