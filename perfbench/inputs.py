"""Seeded input generators.

Every input the benchmark passes to fracform is built here with numpy alone,
so a change to the program cannot change what is measured.  Sizes, exponents
and counts are fixed by the workloads; the seed moves only positions,
widths, amplitudes and random-walk steps.
"""

from __future__ import annotations

import numpy as np


def bump_values(x, rng, k=4, signed=True):
    """A positive sin^2(pi x) envelope over [0, 1] plus k raised-cosine
    bumps cos^2(pi (x-c) / 2w) on |x - c| < w.  The envelope keeps the
    support the whole window, so the work a call does does not depend on
    the seed."""
    v = rng.uniform(0.5, 1.0) * np.sin(np.pi * x) ** 2
    for _ in range(k):
        c = rng.uniform(0.25, 0.75)
        w = rng.uniform(0.05, 0.2)
        a = rng.uniform(0.5, 1.5) * (rng.choice((-1.0, 1.0)) if signed else 1.0)
        inside = np.abs(x - c) < w
        v[inside] += a * np.cos(0.5 * np.pi * (x[inside] - c) / w) ** 2
    return v


def multibump(grids, n, rng, k=4, signed=True):
    """Multibump grid function with n nodes on [0, 1], exact zeros at both
    ends and nonzero at every interior node."""
    x = np.linspace(0.0, 1.0, n)
    v = bump_values(x, rng, k, signed)
    v[0] = v[-1] = 0.0
    return grids.GridFunction(0.0, 1.0 / (n - 1), v)


def rough_walk(grids, n, rng):
    """Tapered random walk: positive inside, exact zeros at both ends, with
    one excursion per local maximum."""
    w = np.cumsum(rng.standard_normal(n))
    w = w - w.min() + 1.0
    v = w * np.sin(np.pi * np.arange(n) / (n - 1))
    v[0] = v[-1] = 0.0
    return grids.GridFunction(0.0, 1.0 / (n - 1), v)


def plateau_values(n_ramp, n_top, pad=4):
    """Linear-ramp plateau samples: 0, ramp up over n_ramp cells, n_top + 1
    nodes at exactly 1, ramp down, 0; total variation 2."""
    up = np.arange(n_ramp + 1) / n_ramp
    return np.concatenate([np.zeros(pad), up[:-1], np.ones(n_top + 1),
                           up[::-1][1:], np.zeros(pad)])


def tent(grids, m):
    """The unit tent 1 - |x| on [-1, 1], sampled with step 1/m."""
    x = np.linspace(-1.0, 1.0, 2 * m + 1)
    return grids.GridFunction(-1.0, 1.0 / m, 1.0 - np.abs(x))


def local_maxima(v) -> int:
    """Strict local maxima of a sampled function, plateaus counted once."""
    v = np.asarray(v)
    u = v[np.concatenate([[True], v[1:] != v[:-1]])]
    return int(np.count_nonzero((u[1:-1] > u[:-2]) & (u[1:-1] > u[2:])))


def island_pairs(rng, count, r0, q=0.6):
    """Disjoint islands at dyadic centers of (-1, 1) with geometrically
    shrinking, jittered radii."""
    centers = [0.0, 0.5, -0.5, 0.25, -0.25, 0.75, -0.75, 0.125, -0.125,
               0.375, -0.375, 0.625, -0.625, 0.875, -0.875][:count]
    pairs = []
    for i, c in enumerate(centers):
        r = r0 * q ** i * rng.uniform(0.9, 1.1)
        pairs.append((c - r, c + r))
    return pairs
