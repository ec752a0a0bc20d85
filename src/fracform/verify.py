"""Verification suites: each check exercises one acceptance property of the
library end to end and returns a verdict record.

The checks are deterministic given the seed; randomized families draw from a
single named generator.  Check functions are shared between the command-line
runner and the test suite so there is exactly one implementation of each
criterion.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .energy import (EnergyParams, _gauss_segments, check_erased_bound,
                     gagliardo_energy, hardy_boundary_identity,
                     indicator_energy_closed_form)
from .grids import GridFunction, IntervalSet, PlateauSpec, StepFunction, \
    grid_nodes, make_plateau
from .ladder import (bv_fourier_bound_check, is_erased_function,
                     ladder_decompose, step_rate_experiment)
from .levy import (LevyTriplet, PowerLawDensity, growth_exponent_fit,
                   levy_gagliardo_energy, levy_indicator_energy, levy_symbol,
                   plateau_energy_bound_check)
from .scalecap import (FatCantorSpec, build_fat_cantor, capacity_estimate,
                       compose_scale, concentration_test,
                       duality_pairing_check, scale_from_open_set)

__all__ = ["VerdictRecord", "CHECKS", "SUITES", "run_suite", "list_checks"]

PASS = "PASS"
FAIL = "FAIL"
INCONCLUSIVE = "INCONCLUSIVE"
DIVERGENT_EXPECTED = "DIVERGENT-as-expected"


@dataclass(frozen=True)
class VerdictRecord:
    """One verification outcome: what was measured against what tolerance."""

    check_id: str
    status: str
    measured: tuple
    tolerance: float
    runtime_ms: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status in (PASS, DIVERGENT_EXPECTED)


# -- shared random families -----------------------------------------------------


def sample_multibump(params, step, lo, hi) -> GridFunction:
    """Sum of raised-cosine bumps with exact zeros outside each support."""
    x = grid_nodes(lo, hi, step)
    vals = np.zeros(x.size)
    for c, w, h in params:
        mask = np.abs(x - c) < w
        vals[mask] += h * np.cos(np.pi * (x[mask] - c) / (2.0 * w)) ** 2
    vals[0] = 0.0
    vals[-1] = 0.0
    return GridFunction(lo, step, vals)


def random_bump_params(rng, n_bumps, center_range, width_range, height_range):
    return tuple((float(rng.uniform(*center_range)),
                  float(rng.uniform(*width_range)),
                  float(rng.uniform(*height_range))) for _ in range(n_bumps))


def _erased_pair(family_rng, step):
    """A source function and a strictly partial erased function of it."""
    while True:
        params = random_bump_params(family_rng, int(family_rng.integers(3, 7)),
                                    (0.0, 4.0), (0.2, 0.7), (0.2, 1.2))
        g = sample_multibump(params, step, -0.8, 4.8)
        tree = ladder_decompose(g, max_nodes=64, sup_tol=1e-12)
        if tree.n_nodes >= 2:
            break
    k = int(family_rng.integers(1, min(5, tree.n_nodes)))
    return g, tree.partial_sum(k)


# -- the individual checks -------------------------------------------------------


def check_indicator_closed_form(rng) -> tuple:
    """Indicator energies against the closed form, 9 cases, by two routes:
    the jump-pair value, and the sampled trace, whose aligned grids (step
    L/c) fall short of the limit like h^(1-alpha), extrapolated from its last
    two entries e1, e2 with the known ratio r as (e2 - r e1)/(1 - r)."""
    worst = 0.0
    for alpha in (0.3, 0.5, 0.7):
        p = EnergyParams(alpha=alpha)
        r = 2.0 ** (alpha - 1.0)
        for length in (0.5, 1.0, 2.0):
            ind = StepFunction(np.array([0.0, length]), np.array([1.0]))
            rep = gagliardo_energy(ind, p, refine_levels=10)
            (_, e1), (_, e2) = rep.refinement_trace[-2:]
            exact = indicator_energy_closed_form(0.0, length, alpha)
            for value in (rep.value, (e2 - r * e1) / (1.0 - r)):
                worst = max(worst, abs(value - exact) / exact)
    status = PASS if worst < 0.01 else FAIL
    return status, (worst,), 0.01, \
        "max relative error over 9 cases of the value and the sampled route"


def check_indicator_divergence(rng) -> tuple:
    """Jump rule flags the indicator for alpha >= 1, and its samples grow.

    Second route: the energies sampled at 4 * 2^k cells grow by 15% or more
    at three refinements running, the rule's geometric symptom."""
    ind = StepFunction(np.array([0.0, 1.0]), np.array([1.0]))
    refinements = []
    ok = True
    for alpha in (1.0, 1.5):
        p = EnergyParams(alpha=alpha)
        rep = gagliardo_energy(ind, p)
        ests = [gagliardo_energy(ind.sample(1.0 / (4 * 2 ** k)), p).value
                for k in range(7)]
        grew = [b / a >= 1.15 for a, b in zip(ests, ests[1:])]
        used = next((k + 3 for k in range(len(grew) - 2)
                     if all(grew[k:k + 3])), len(ests))
        refinements.append(float(used))
        ok = ok and rep.divergent and rep.refinement_trace == () and used <= 6
    status = DIVERGENT_EXPECTED if ok else FAIL
    return status, tuple(refinements), 6.0, \
        "refinements until the sampled energies grew 15% three times running"


def check_hardy_identity(rng) -> tuple:
    """Exterior-kernel identity on random bumps, both exponent regimes."""
    worst = 0.0
    for alpha in (0.3, 1.5):
        for _ in range(10):
            params = random_bump_params(rng, int(rng.integers(1, 4)),
                                        (0.25, 0.75), (0.05, 0.12),
                                        (0.3, 1.5))
            f = sample_multibump(params, 1.0 / 512.0, 0.05, 0.95)
            lhs, rhs = hardy_boundary_identity(f, 0.0, 1.0, alpha)
            worst = max(worst, abs(lhs - rhs) / rhs)
    status = PASS if worst < 0.005 else FAIL
    return status, (worst,), 0.005, "max relative defect over 20 bumps"


def check_step_rate(rng) -> tuple:
    """Fitted decay slope of the dyadic step approximation at alpha = 0.5.

    The stated band [-0.6, -0.4] asserts tightness of the upper bound; the
    measured decay of the energy itself is faster (about alpha - 2), so this
    check records an honest failure whenever that is what the data shows."""
    f = GridFunction.from_callable(
        lambda u: np.clip(1.0 - np.abs(2.0 * u - 1.0), 0.0, None),
        0.0, 1.0, 1.0 / 256.0, pad=4)
    result = step_rate_experiment(f, 0.5, 3, 8)
    status = PASS if -0.6 <= result.slope <= -0.4 else FAIL
    return status, (result.slope,), 0.1, \
        "slope of log2(energy error) vs n; band center -0.5"


def check_erased_bound_family(rng) -> tuple:
    """Erased-pair norm ratios: finite, and stable under grid refinement."""
    measured = []
    ok = True
    for alpha in (0.5, 1.5):
        p = EnergyParams(alpha=alpha)
        family_seed = int(rng.integers(2 ** 32))
        maxima = []
        for step in (1.0 / 256.0, 1.0 / 512.0):
            family_rng = np.random.default_rng(family_seed)
            worst = 0.0
            for _ in range(25):
                g, f = _erased_pair(family_rng, step)
                _, _, ratio = check_erased_bound(f, g, p)
                if not math.isfinite(ratio):
                    ok = False
                worst = max(worst, ratio)
            maxima.append(worst)
        drift = abs(maxima[0] - maxima[1]) / maxima[1]
        measured.extend([maxima[1], drift])
        ok = ok and drift < 0.10
    status = PASS if ok else FAIL
    return status, tuple(measured), 0.10, \
        "per alpha: max ratio at fine grid, drift across refinement"


def check_ladder_convergence(rng) -> tuple:
    """Four-bump decomposition: gap, erasedness, and E1 boundedness."""
    step = 1.0 / 64.0
    params = ((0.5, 0.45, 1.0), (1.5, 0.5, 0.8), (2.5, 0.4, 1.2),
              (3.5, 0.5, 0.6))
    f = sample_multibump(params, step, -0.5, 4.5)
    tree = ladder_decompose(f, max_nodes=64, sup_tol=1e-3)
    gap = tree.sup_gap()
    sums = [tree.partial_sum(k) for k in range(1, tree.n_nodes + 1)]
    erased_ok = all(is_erased_function(ps, f)[0] for ps in sums)
    ratios = []
    for alpha in (0.5, 1.5):
        p = EnergyParams(alpha=alpha)
        norms = [gagliardo_energy(ps, p).e1_norm for ps in sums]
        ratios.append(max(norms) / min(norms))
    ok = (tree.converged and gap < 1e-3 and erased_ok
          and all(r < 3.0 for r in ratios))
    status = PASS if ok else FAIL
    return status, (gap, *ratios), 3.0, \
        "sup gap and E1 max/min at both exponents"


def check_bv_fourier_bound(rng) -> tuple:
    """|xi| |fhat(xi)| <= 2 on |xi| in [1, 200] for 100 random plateaus."""
    xi = np.concatenate([-np.geomspace(1.0, 200.0, 200)[::-1],
                         np.geomspace(1.0, 200.0, 200)])
    profiles = ("linear", "smooth", "concave")
    worst = -np.inf
    for i in range(100):
        a = float(rng.uniform(-1.0, 1.0))
        b = a + float(rng.uniform(0.3, 2.0))
        rho = float(rng.uniform(0.05, 1.0))
        spec = PlateauSpec(a, b, rho, profiles[i % 3])
        f = make_plateau(spec, rho / 32.0)
        worst = max(worst, bv_fourier_bound_check(f, xi) + 2.0)
    status = PASS if worst <= 2.0 + 1e-3 else FAIL
    return status, (worst,), 2.001, "max of |xi| |fhat| over the family"


def check_capacity_scaling(rng) -> tuple:
    """Dyadic capacity ratios against the power law at the dual exponent."""
    alpha_star = 0.5
    caps = {}
    residuals = []
    for r in (0.2, 0.1, 0.05):
        est = capacity_estimate(IntervalSet.of((-r, r)), alpha_star,
                                (-16.0 * r, 16.0 * r), 32.0 * r / 2047.0)
        caps[r] = est.value
        residuals.append(est.residual)
    expected = 2.0 ** 0.5
    ratios = (caps[0.2] / caps[0.1], caps[0.1] / caps[0.05])
    ok = (all(expected * 0.85 <= q <= expected * 1.15 for q in ratios)
          and max(residuals) < 1e-8)
    status = PASS if ok else FAIL
    return status, (*ratios, max(residuals)), 0.15, \
        "cap ratios at r = 0.2, 0.1 and the worst solver residual"


def check_properness(rng) -> tuple:
    """Concentration ratio: small-budget island set vs the full line."""
    spec = FatCantorSpec(alpha=1.5, budget=0.1)
    g = build_fat_cantor(spec, 63)
    _, _, ratio = concentration_test(g, 0.5, (-1.0, 1.0), 2.0 / 1000.0)
    _, _, ratio_full = concentration_test(IntervalSet.real_line(), 0.5,
                                          (-1.0, 1.0), 2.0 / 1000.0)
    # certification is one-sided: a ratio near 1 is never read as a
    # negative verdict, only as inconclusive
    if ratio_full != 1.0:
        status = FAIL
    elif ratio < 0.9:
        status = PASS
    else:
        status = INCONCLUSIVE
    return status, (ratio, ratio_full), 0.9, \
        "island-set ratio (< 0.9 certifies) and the full-line ratio (= 1)"


def check_duality_pairing(rng) -> tuple:
    """Integration-by-parts pairing on random (f, phi, scale) triples."""
    step = 1.0 / 512.0
    scales = [scale_from_open_set(IntervalSet.real_line()),
              scale_from_open_set(build_fat_cantor(
                  FatCantorSpec(alpha=1.5, budget=0.3), 31),
                  density_window=(-1.0, 1.0))]
    worst = 0.0
    for i in range(20):
        s = scales[i % 2]
        span = float(s(1.4)[0] - s(-1.4)[0])
        c = float(s(rng.uniform(-0.8, 0.8))[0])
        w = float(rng.uniform(0.05, 0.2)) * max(span, 1e-3)
        lip_fn = GridFunction.from_callable(
            lambda u: np.clip(1.0 - np.abs((u - c) / w), 0.0, None),
            c - 2.0 * w, c + 2.0 * w, w / 64.0, pad=4)
        comp = compose_scale(lip_fn, s, (-1.5, 1.5), step=step)
        cphi = float(rng.uniform(-1.0, 1.0))
        phi = GridFunction.from_callable(
            lambda u: np.exp(-6.0 * (u - cphi) ** 2) * np.cos(3.0 * u)
            * np.clip(1.0 - np.abs(u / 1.45), 0.0, None),
            -1.5, 1.5, step, pad=0)
        lhs, rhs = duality_pairing_check(comp.function, s, phi)
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(lhs)))
    status = PASS if worst <= 1e-4 else FAIL
    return status, (worst,), 1e-4, "max scaled pairing defect over 20 triples"


def _density_symbol_integral(xi: float, alpha: float) -> float:
    """int_0^inf (1 - cos(xi x)) x^(-1-alpha) dx: series on (0, x0] with
    x0 = min(1, 1/|xi|), Gauss panels on (x0, T] and an expansion past T.
    The fixed rule gives no error estimate; check 11 bounds its error."""
    xi = abs(xi)
    if xi == 0.0:
        return 0.0
    x0 = min(1.0, 1.0 / xi)

    # Series on (0, x0]: sum (-1)^(k+1) xi^(2k) x0^(2k-alpha) / ((2k)! (2k-alpha))
    inner = 0.0
    term_base = 1.0  # holds (xi x0)^(2k) / (2k)! across iterations
    for k in range(1, 60):
        term_base *= (xi * x0) ** 2 / ((2 * k) * (2 * k - 1))
        term = ((-1.0) ** (k + 1)) * term_base * x0 ** (-alpha) / (2 * k - alpha)
        inner += term
        if abs(term) < 1e-17 * max(abs(inner), 1e-300):
            break

    # Outer (x0, T]: 1 in closed form; cos on the union of half-period
    # panels (the oscillation) and ratio-1.5 panels (the decay near x0).
    t_far = x0 + max(200.0 * 2.0 * math.pi / xi, 50.0)
    plain = (x0 ** (-alpha) - t_far ** (-alpha)) / alpha
    geometric = x0 * 1.5 ** np.arange(math.log(t_far / x0) / math.log(1.5))
    xq, wq = _gauss_segments(np.append(np.union1d(
        np.arange(x0, t_far, math.pi / xi), geometric), t_far))
    osc = float(np.sum(wq * np.cos(xi * xq) * xq ** (-1.0 - alpha)))
    # Far tail (T, inf): int x^(-1-alpha) dx minus an oscillatory remainder,
    # three terms of its expansion by integration by parts; the first term
    # left out is below (3 + alpha)^3 / (xi T)^3 of the first, and xi T > 1200.
    tail_plain = t_far ** (-alpha) / alpha
    s, c, r = math.sin(xi * t_far), math.cos(xi * t_far), 1.0 / (xi * t_far)
    tail_osc = (t_far ** (-alpha) * r
                * (s - (1.0 + alpha) * c * r
                   - (1.0 + alpha) * (2.0 + alpha) * s * r * r))
    return inner + plain - osc + tail_plain + tail_osc


def check_levy_identities(rng) -> tuple:
    """Two-atom indicator energy, plateau bound sweep, symbol slopes, and
    the density symbol against its per-frequency integral."""
    atoms = LevyTriplet(atoms=((1.0, 1.0),))
    ind = levy_indicator_energy(0.0, 2.0, atoms)
    ind_ok = ind == 4.0

    bounds = []
    for rho in (1.0, 0.1, 0.01):
        energy, bound = plateau_energy_bound_check(
            PlateauSpec(0.0, 1.0, rho), atoms)
        bounds.append(bound)
    bound_ok = all(b == bounds[0] for b in bounds)

    slope_err = symbol_err = 0.0
    probe = np.array([-150.0, 0.3, 1.0, 7.5])
    for alpha in (0.5, 1.5):
        t = LevyTriplet(density=PowerLawDensity(alpha=alpha))
        curve = levy_symbol(t, np.geomspace(1.0, 200.0, 60))
        fit = growth_exponent_fit(curve, 1.0)
        slope_err = max(slope_err, abs(fit.alpha_hat - alpha) / alpha)
        direct = np.array([2.0 * _density_symbol_integral(s, alpha)
                           for s in probe])
        psi = levy_symbol(t, probe).psi_values
        symbol_err = max(symbol_err, float(np.max(np.abs(psi - direct)
                                                  / direct)))
    ok = ind_ok and bound_ok and slope_err < 0.02 and symbol_err < 1e-10
    status = PASS if ok else FAIL
    return status, (ind, bounds[0], slope_err, symbol_err), 0.02, \
        "indicator value, uniform bound, worst symbol-slope error, worst " \
        "symbol error against per-frequency quadrature (bound 1e-10)"


def check_plateau_dichotomy(rng) -> tuple:
    """Sharp-plateau energy sweep over rho in {1, 0.1, 0.01}: bounded for the
    finite-variation cases, growing at least 2x per sweep step at 1.5."""
    rhos = (1.0, 0.1, 0.01)

    def sweep(energy_of):
        return [energy_of(make_plateau(PlateauSpec(0.0, 1.0, r), r / 64.0))
                for r in rhos]

    p05 = EnergyParams(alpha=0.5)
    e05 = sweep(lambda f: gagliardo_energy(f, p05).value)
    var05 = abs(e05[-1] - e05[-2]) / e05[-2]

    atoms = LevyTriplet(atoms=((1.0, 1.0),))
    eat = sweep(lambda f: levy_gagliardo_energy(f, atoms).value)
    varat = abs(eat[-1] - eat[-2]) / eat[-2]

    p15 = EnergyParams(alpha=1.5)
    e15 = sweep(lambda f: gagliardo_energy(f, p15).value)
    growth = min(e15[i + 1] / e15[i] for i in range(len(e15) - 1))

    ok = var05 < 0.20 and varat < 0.20 and growth >= 2.0
    status = PASS if ok else FAIL
    return status, (var05, varat, growth), 0.20, \
        "tail variations (bounded cases) and min growth per step (1.5)"


# -- registry and runner -----------------------------------------------------------

CHECKS = (
    ("indicator-closed-form", 1, check_indicator_closed_form),
    ("indicator-divergence", 2, check_indicator_divergence),
    ("boundary-kernel-identity", 3, check_hardy_identity),
    ("step-approximation-rate", 4, check_step_rate),
    ("erased-bound-family", 5, check_erased_bound_family),
    ("ladder-convergence", 6, check_ladder_convergence),
    ("bv-fourier-bound", 7, check_bv_fourier_bound),
    ("capacity-scaling", 8, check_capacity_scaling),
    ("properness-certificate", 9, check_properness),
    ("duality-pairing", 10, check_duality_pairing),
    ("jump-form-identities", 11, check_levy_identities),
    ("plateau-dichotomy", 12, check_plateau_dichotomy),
)

SUITES = {
    "core": ("indicator-closed-form", "indicator-divergence",
             "ladder-convergence", "jump-form-identities",
             "plateau-dichotomy"),
    "all": tuple(cid for cid, _, _ in CHECKS),
    "properness": ("properness-certificate",),
}


def list_checks():
    return [(cid, num, fn.__doc__.splitlines()[0] if fn.__doc__ else "")
            for cid, num, fn in CHECKS]


def run_check(check_id: str, seed: int) -> VerdictRecord:
    for cid, _num, fn in CHECKS:
        if cid == check_id:
            rng = np.random.default_rng(seed)
            start = time.monotonic()
            status, measured, tolerance, detail = fn(rng)
            elapsed_ms = int(1000 * (time.monotonic() - start))
            return VerdictRecord(cid, status, tuple(float(m) for m in measured),
                                 float(tolerance), elapsed_ms, detail)
    raise KeyError(f"unknown check id {check_id!r}")


def run_suite(suite: str, seed: int):
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}; choose from {sorted(SUITES)}")
    return [run_check(cid, seed) for cid in SUITES[suite]]
