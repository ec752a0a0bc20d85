import math

import numpy as np
import pytest

from fracform.grids import GridFunction


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def cos2_bump(center, width, height=1.0):
    """Raised-cosine bump: exact zeros outside |x - center| < width."""
    def fn(x):
        mask = np.abs(x - center) < width
        out = np.zeros_like(x)
        out[mask] = height * np.cos(np.pi * (x[mask] - center)
                                    / (2.0 * width)) ** 2
        return out
    return fn


def sample_bump(center=0.0, width=1.0, height=1.0, step=1.0 / 256.0):
    return GridFunction.from_callable(cos2_bump(center, width, height),
                                      center - width, center + width, step,
                                      pad=4)


def indicator(g, x):
    """1.0 on the open pieces of the interval set g, 0.0 elsewhere."""
    x = np.asarray(x, dtype=float)[..., None]
    e = g.endpoints()
    return np.any((x > e[:, 0]) & (x < e[:, 1]), axis=-1).astype(float)


def exact_rho(values, h, tau):
    """rho(tau) = int (u(y + tau) - u(y))^2 dy for the interpolant u of the
    samples, by Simpson's rule on the merged breakpoints of u and
    u(. + tau), which is exact for the piecewise-quadratic integrand.  With
    tau = (k + f) h, each cell of y splits at the local offset 1 - f;
    positions stay cell-local, so no breakpoint is rounded."""
    v = np.asarray(values, dtype=float)
    n = v.size
    k = math.floor(tau / h)
    f = tau / h - k
    c = np.arange(-k - 2, n + 1)          # y in [c h, (c + 1) h]

    def u(idx, s):
        """u at local offset s of the cells idx."""
        at = lambda i: np.where((i >= 0) & (i < n), v[np.clip(i, 0, n - 1)],
                                0.0)
        return at(idx) + (at(idx + 1) - at(idx)) * s

    parts = []
    # y + tau lies in cell c + k up to offset 1 - f, then in cell c + k + 1
    for lo, hi, j, shift in ((0.0, 1.0 - f, c + k, f),
                             (1.0 - f, 1.0, c + k + 1, f - 1.0)):
        if hi > lo:
            g = [(u(j, s + shift) - u(c, s)) ** 2
                 for s in (lo, 0.5 * (lo + hi), hi)]
            parts.extend(h * (hi - lo) * (g[0] + 4.0 * g[1] + g[2]) / 6.0)
    return math.fsum(parts)
