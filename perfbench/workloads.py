"""The four workloads.

Each workload has a warm-up (one small call into every layer it uses), a
sweep round (many calls on small inputs; the benchmark repeats whole rounds
with fresh seeded inputs), a solve phase (a few fixed calls on large inputs)
and correctness checks that run after the timed pass.  Calls go through
``rec(name, fn, *args)``, which times them; calls of one name are of one
kind (same sizes and exponents), whose least latency over the run is what
counts (see worker.py).  ``rec.note`` keeps an input for the checks.  Only round 0 and the solve phase keep their results.
``round_s`` is the nominal length of one sweep round on the reference
machine; a run makes ceil(seconds / round_s) rounds, a number that depends
on nothing but ``--seconds``.

The checks compare against closed forms, exact identities and properties the
method must have, computed here with numpy and scipy.special; none compares
against stored outputs.  Each returns (name, ok, detail).
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import gamma

from inputs import (bump_values, island_pairs, local_maxima, multibump,
                    plateau_values, rough_walk, tent)


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-300)


def _l2(v, h):
    """Exact L2 norm squared of the interpolant of samples v with step h."""
    return float(h * np.sum(v[:-1] ** 2 + v[:-1] * v[1:] + v[1:] ** 2) / 3.0)


class Workload:
    """One workload: ``warmup()``, ``sweep_round(rec, rng)``,
    ``solve(rec, rng)`` and ``checks(kept, rng)`` over the fracform package
    ``ff``; subclasses set ``round_s``, a sweep round's nominal length."""

    def __init__(self, ff):
        self.ff = ff


class Energies(Workload):
    """Kernel-side energies: quadcells autocorrelation and lag-cell
    integration under energy's refinement; no Fourier, CG or ladder code."""

    name = "energies"
    round_s = 0.2
    ALPHAS = (0.05, 0.5, 0.999, 1.0, 1.001, 1.5, 1.95)
    # 2049 and 2050 nodes give 2048 and 2049 slopes, straddling the switch
    # from direct to FFT autocorrelation.
    GRID_SIZES = (512, 1024, 2049, 2050, 4096)
    STEP_ALPHAS = (0.3, 0.7, 1.0, 1.5)
    # At alpha = 1 a plateau's energy diverges only logarithmically; the
    # ratio test flags it on some seeds and not on others, so the number of
    # refinement levels, and the call's cost, would depend on the seed.
    PLATEAU_ALPHAS = (0.3, 0.7, 1.5)
    LEVY_ALPHAS = (0.6, 1.4)
    HARDY_ALPHAS = (0.3, 1.5)
    SOLVE_EXPONENTS = (18, 19, 20)
    SOLVE_ALPHAS = (0.5, 1.5)

    def warmup(self):
        en, gr, lv = self.ff.energy, self.ff.grids, self.ff.levy
        f = multibump(gr, 65, np.random.default_rng(0))
        en.gagliardo_energy(f, en.EnergyParams(0.5))
        en.gagliardo_energy(gr.StepFunction(np.array([0.0, 1.0]),
                                            np.array([1.0])),
                            en.EnergyParams(0.5), refine_levels=3)
        lv.levy_gagliardo_energy(f, lv.LevyTriplet(
            atoms=((0.25, 1.0),), density=lv.PowerLawDensity(0.5)))
        en.hardy_boundary_identity(f, -0.1, 1.1, 0.5)
        self.ff.quadcells.hat_energy_row(8, 0.1, 0.5)

    def sweep_round(self, rec, rng):
        en, gr, lv = self.ff.energy, self.ff.grids, self.ff.levy
        for n in self.GRID_SIZES:
            f = multibump(gr, n, rng)
            for a in self.ALPHAS:
                rec(f"grid{n}-a{a}", en.gagliardo_energy, f,
                    en.EnergyParams(a))

        lo = rng.uniform(-1.0, 1.0)
        length = rng.uniform(0.5, 2.0)
        rec.note("indicator-length", length)
        ind = gr.StepFunction(np.array([lo, lo + length]), np.array([1.0]))
        bps = lo + np.cumsum(rng.uniform(0.2, 0.6, 4))
        plateau = gr.StepFunction(bps, np.array([0.5, 1.0, 0.5])
                                  * rng.uniform(0.5, 1.5))
        for a in self.STEP_ALPHAS:
            rec(f"indicator-a{a}", en.gagliardo_energy, ind,
                en.EnergyParams(a))
        for a in self.PLATEAU_ALPHAS:
            rec(f"plateau-a{a}", en.gagliardo_energy, plateau,
                en.EnergyParams(a))

        f = multibump(gr, 1025, rng)
        atoms = tuple((f.step * int(k), float(m)) for k, m in
                      zip(rng.integers(1, 400, 3), rng.uniform(0.2, 2.0, 3)))
        coef = float(rng.uniform(0.5, 2.0))
        rec.note("levy-input", (f, atoms, coef))
        for a in self.LEVY_ALPHAS:
            t = lv.LevyTriplet(atoms=atoms,
                               density=lv.PowerLawDensity(a, coef))
            rec(f"levy-a{a}", lv.levy_gagliardo_energy, f, t)

        g = multibump(gr, 257, rng)
        for a in self.HARDY_ALPHAS:
            rec(f"hardy-a{a}", en.hardy_boundary_identity, g, 0.0, 1.0, a)

    def solve(self, rec, rng):
        en, gr = self.ff.energy, self.ff.grids
        sub = int(rng.integers(2 ** 63))
        for e in self.SOLVE_EXPONENTS:
            n = 2 ** e + 1
            x = np.linspace(0.0, 1.0, n)
            v = bump_values(x, np.random.default_rng(sub))
            v[0] = v[-1] = 0.0
            f = gr.GridFunction(0.0, 1.0 / (n - 1), v)
            del x, v
            for a in self.SOLVE_ALPHAS:
                rec(f"solve{e}-a{a}", en.gagliardo_energy, f,
                    en.EnergyParams(a))
            del f

    def checks(self, kept, rng):
        ff = self.ff
        en, gr, qc = ff.energy, ff.grids, ff.quadcells
        out = []

        grid = [kept[f"grid{n}-a{a}"].value for n in self.GRID_SIZES
                for a in self.ALPHAS]
        out.append(("grid-energies-positive",
                    all(math.isfinite(e) and e > 0 for e in grid), ""))

        length = kept["indicator-length"]
        for a in self.STEP_ALPHAS:
            rep = kept[f"indicator-a{a}"]
            if a < 1:
                exact = 4.0 / (a * (1.0 - a)) * length ** (1.0 - a)
                err = _rel(rep.value, exact)
                out.append((f"indicator-closed-form-a{a}",
                            not rep.divergent and err <= 0.01,
                            f"rel err {err:.3g}"))
            else:
                out.append((f"indicator-divergent-a{a}", rep.divergent, ""))
        for a in self.PLATEAU_ALPHAS:
            rep = kept[f"plateau-a{a}"]
            ok = rep.divergent if a > 1 else (
                not rep.divergent and math.isfinite(rep.value)
                and rep.value > 0)
            out.append((f"plateau-divergence-flag-a{a}", ok, ""))

        n = 1025
        h = 1.0 / (n - 1)
        f = multibump(gr, n, rng)
        g = multibump(gr, n, rng)
        for a in (0.5, 1.0, 1.5):
            p = en.EnergyParams(a)

            def energy(values):
                return en.gagliardo_energy(gr.GridFunction(0.0, h, values),
                                           p).value
            ef, eg = energy(f.values), energy(g.values)
            defect = (energy(f.values + g.values) + energy(f.values - g.values)
                      - 2.0 * ef - 2.0 * eg)
            scale = 2.0 * ef + 2.0 * eg
            out.append((f"parallelogram-a{a}", abs(defect) <= 1e-10 * scale,
                        f"rel defect {abs(defect) / scale:.3g}"))

        lam = float(rng.uniform(0.5, 3.0))
        for a in self.ALPHAS:
            p = en.EnergyParams(a)
            e1 = en.gagliardo_energy(f, p).value
            e2 = en.gagliardo_energy(gr.GridFunction(0.0, lam * h, f.values),
                                     p).value
            err = _rel(e2, lam ** (1.0 - a) * e1)
            out.append((f"dilation-a{a}", err <= 1e-10, f"rel err {err:.3g}"))

        u = multibump(gr, 385, rng).values
        hu = 1.0 / 384
        idx = np.arange(u.size)
        for a in (0.3, 1.0, 1.7):
            row = qc.hat_energy_row(u.size, hu, a)
            quad = float(u @ row[np.abs(idx[:, None] - idx[None, :])] @ u)
            direct = qc.gagliardo_of_values(u, hu, a)
            err = _rel(quad, direct)
            out.append((f"toeplitz-quadratic-form-a{a}", err <= 1e-10,
                        f"rel err {err:.3g}"))

        lf, atoms, coef = kept["levy-input"]
        v = lf.values
        for a in self.LEVY_ALPHAS:
            expected = coef * en.gagliardo_energy(lf, en.EnergyParams(a)).value
            for x, m in atoms:
                k = int(round(x / lf.step))
                d = np.concatenate([v, np.zeros(k)]) \
                    - np.concatenate([np.zeros(k), v])
                expected += 2.0 * m * _l2(d, lf.step)
            err = _rel(kept[f"levy-a{a}"].value, expected)
            out.append((f"levy-atoms-plus-density-a{a}", err <= 1e-10,
                        f"rel err {err:.3g}"))

        for a in self.HARDY_ALPHAS:
            lhs, rhs = kept[f"hardy-a{a}"]
            err = _rel(lhs, rhs)
            out.append((f"hardy-identity-a{a}", err <= 0.005,
                        f"rel defect {err:.3g}"))

        for a in self.SOLVE_ALPHAS:
            es = [kept[f"solve{e}-a{a}"].value for e in self.SOLVE_EXPONENTS]
            err = max(_rel(e, es[-1]) for e in es[:-1])
            out.append((f"solve-resolution-convergence-a{a}", err <= 1e-5,
                        f"max rel change {err:.3g}"))
        return out


class Capacity(Workload):
    """Riesz capacity: the Toeplitz CG solve in scalecap, with quadcells
    entering through the hat stiffness row; plus the per-element loops of
    the scale-function helpers."""

    name = "capacity"
    round_s = 0.5
    ALPHA_STARS = (0.25, 0.5, 0.9, 1.0)
    SWEEP_CELLS = 2047
    SOLVE_CELLS = 32767
    SOLVE_ALPHA_STAR = 0.5
    STEP = 1.0 / 512.0

    def _targets(self, rng, cells):
        """(label, pairs, domain, step) for the single-interval, union and
        island targets."""
        r = float(rng.uniform(0.08, 0.12))
        c1, c2 = -rng.uniform(0.5, 0.7), rng.uniform(0.5, 0.7)
        r1, r2 = rng.uniform(0.09, 0.11, 2)
        union = [(c1 - r1, c1 + r1), (c2 - r2, c2 + r2)]
        islands = island_pairs(rng, 7, 0.08)
        return [("single", [(-r, r)], (-16.0 * r, 16.0 * r), 32.0 * r / cells),
                ("union", union, (-2.0, 2.0), 4.0 / cells),
                ("islands", islands, (-2.0, 2.0), 4.0 / cells)]

    def warmup(self):
        gr, sc = self.ff.grids, self.ff.scalecap
        sc.capacity_estimate(gr.IntervalSet.of((-0.2, 0.2)), 0.5, (-1.0, 1.0),
                             1.0 / 64.0)
        g = sc.build_fat_cantor(sc.FatCantorSpec(1.5, 0.3), 3)
        s = sc.scale_from_open_set(g, density_window=(-1.0, 1.0))
        lip, phi = self._pairing_inputs(gr, np.random.default_rng(0))
        comp = sc.compose_scale(lip, s, (-1.5, 1.5), step=self.STEP)
        sc.duality_pairing_check(comp.function, s, phi)
        sc.concentration_test(g, 0.5, (-1.0, 1.0), 0.05)

    def _pairing_inputs(self, gr, rng):
        c = rng.uniform(-0.2, 0.2)
        w = rng.uniform(0.05, 0.15)
        u = np.linspace(c - 2.0 * w, c + 2.0 * w, 257)
        lip = gr.GridFunction(u[0], u[1] - u[0],
                              np.clip(1.0 - np.abs((u - c) / w), 0.0, None))
        x = -1.5 + self.STEP * np.arange(1537)
        cphi = rng.uniform(-1.0, 1.0)
        phi = gr.GridFunction(-1.5, self.STEP,
                              np.exp(-6.0 * (x - cphi) ** 2) * np.cos(3.0 * x)
                              * np.clip(1.0 - np.abs(x / 1.45), 0.0, None))
        return lip, phi

    def sweep_round(self, rec, rng):
        gr, sc = self.ff.grids, self.ff.scalecap
        targets = self._targets(rng, self.SWEEP_CELLS)
        rec.note("targets", targets)
        for label, pairs, domain, step in targets:
            target = gr.IntervalSet(tuple(pairs))
            for a in self.ALPHA_STARS:
                rec(f"{label}-a{a}", sc.capacity_estimate, target, a, domain,
                    step)

        spec = sc.FatCantorSpec(alpha=float(rng.uniform(1.2, 1.8)),
                                budget=float(rng.uniform(0.2, 0.4)))
        g = rec("fat-cantor", sc.build_fat_cantor, spec, 31)
        s = rec("scale", sc.scale_from_open_set, g, 0.0, (-1.0, 1.0))
        lip, phi = self._pairing_inputs(gr, rng)
        comp = rec("compose", sc.compose_scale, lip, s, (-1.5, 1.5),
                   self.STEP)
        rec("pairing", sc.duality_pairing_check, comp.function, s, phi)

    def solve(self, rec, rng):
        gr, sc = self.ff.grids, self.ff.scalecap
        targets = self._targets(rng, self.SOLVE_CELLS)
        for label, pairs, domain, step in targets:
            rec(f"solve-{label}", sc.capacity_estimate,
                gr.IntervalSet(tuple(pairs)), self.SOLVE_ALPHA_STAR, domain,
                step)
        g = gr.IntervalSet(((-math.inf, -1.0), (1.0, math.inf),
                            *island_pairs(rng, 15, 0.05)))
        rec("concentration", sc.concentration_test, g, 0.5, (-1.0, 1.0),
            2.0 / 1000.0)

    def _e1(self, w, h, a):
        return self.ff.quadcells.gagliardo_of_values(w, h, a) + _l2(w, h)

    def checks(self, kept, rng):
        gr, sc = self.ff.grids, self.ff.scalecap
        out = []
        targets = kept["targets"]
        estimates = {k: v for k, v in kept.items()
                     if isinstance(v, sc.CapacityEstimate)}
        worst_res = max(e.residual for e in estimates.values())
        worst_clamp = max(e.clamp_violation for e in estimates.values())
        out.append(("cg-residual", worst_res <= 1e-8,
                    f"worst residual {worst_res:.3g}"))
        out.append(("clamp-violation", worst_clamp == 0.0,
                    f"worst {worst_clamp:.3g}"))

        _, pairs, domain, step = targets[1]
        for a in self.ALPHA_STARS:
            whole = kept[f"union-a{a}"].value
            parts = [sc.capacity_estimate(gr.IntervalSet.of(p), a, domain,
                                          step).value for p in pairs]
            tol = 1e-9 * whole
            out.append((f"monotone-a{a}", max(parts) <= whole + tol, ""))
            out.append((f"subadditive-a{a}", whole <= sum(parts) + tol,
                        f"cap {whole:.6g} vs parts {parts[0]:.6g}"
                        f" + {parts[1]:.6g}"))

        (_, ((_, r),), _, _) = targets[0]
        for a in self.ALPHA_STARS:
            if a >= 1.0:
                continue
            half = sc.capacity_estimate(gr.IntervalSet.of((-r / 2, r / 2)), a,
                                        (-8.0 * r, 8.0 * r),
                                        16.0 * r / self.SWEEP_CELLS).value
            ratio = kept[f"single-a{a}"].value / half
            expected = 2.0 ** (1.0 - a)
            out.append((f"dyadic-scaling-a{a}",
                        abs(ratio - expected) <= 0.15 * expected,
                        f"ratio {ratio:.4g} vs {expected:.4g}"))

        _, pairs, _, _ = targets[2]
        for a in self.ALPHA_STARS:
            est = kept[f"islands-a{a}"]
            eq = est.equilibrium
            u, h, x = eq.values, eq.step, eq.x
            pinned = np.zeros(u.size, dtype=bool)
            for lo, hi in pairs:
                pinned |= (x >= lo - 1e-9 * h) & (x <= hi + 1e-9 * h)
            pinned[0] = pinned[-1] = True
            v = np.where(pinned, 0.0, rng.standard_normal(u.size))
            base = self._e1(u, h, a)
            worst = min(self._e1(u + s * 1e-3 * v, h, a) - base
                        for s in (1.0, -1.0))
            out.append((f"minimizer-perturbation-a{a}",
                        worst >= -1e-12 * base, f"min change {worst:.3g}"))

        lhs, rhs = kept["pairing"]
        defect = abs(lhs - rhs)
        out.append(("pairing-defect", defect <= 1e-4 * (1.0 + abs(lhs)),
                    f"defect {defect:.3g}"))

        _, _, ratio_full = sc.concentration_test(gr.IntervalSet.real_line(),
                                                 0.5, (-1.0, 1.0), 2.0 / 1000.0)
        out.append(("full-line-concentration", ratio_full == 1.0,
                    f"ratio {ratio_full!r}"))
        _, _, ratio = kept["concentration"]
        out.append(("island-concentration-in-unit-interval",
                    0.0 < ratio <= 1.0, f"ratio {ratio:.4g}"))
        return out


class Spectral(Workload):
    """Fourier side: dense phase sums in fourier.transform_at and the
    per-frequency quadrature in levy.levy_symbol."""

    name = "spectral"
    round_s = 0.49
    SIZES = (257, 513, 1025)
    N_FREQ = 2048
    XI_MAX = 200.0
    DENSITY = ((0.5, 100), (1.0, 150), (1.5, 200))
    PROFILES = ("linear", "smooth", "concave")
    SOLVE_NODES = 4097
    SOLVE_FREQ = 32769
    SOLVE_XI_MAX = 500.0
    CALIBRATE_ALPHAS = (0.25, 0.5, 1.0, 1.5, 1.9)
    SOLVE_SYMBOL = (1.2, 4001)

    def _bv_xi(self):
        return np.concatenate([-np.geomspace(1.0, 200.0, 200)[::-1],
                               np.geomspace(1.0, 200.0, 200)])

    def warmup(self):
        ff = self.ff
        gr, fo, lv, en = ff.grids, ff.fourier, ff.levy, ff.energy
        f = tent(gr, 8)
        fo.transform_at(f, np.linspace(-5.0, 5.0, 16))
        fo.transform_at(f, np.geomspace(0.5, 5.0, 16))
        ff.ladder.bv_fourier_bound_check(
            gr.GridFunction(0.0, 0.1, plateau_values(4, 4)), self._bv_xi())
        gr.make_plateau(gr.PlateauSpec(0.0, 1.0, 0.5), 0.1)
        curve = lv.levy_symbol(lv.LevyTriplet(density=lv.PowerLawDensity(0.5)),
                               np.geomspace(1.0, 10.0, 12))
        lv.levy_symbol(lv.LevyTriplet(atoms=((1.0, 1.0),)), np.ones(3))
        lv.growth_exponent_fit(curve, 1.0)
        en.calibrate_c_of_alpha(en.EnergyParams(0.5), f)

    def _cal_bump(self):
        """cos^2(pi x / 2) on [-1, 1] with step 1/256; not seeded, so the
        calibration check gives the same verdict in every run."""
        x = np.linspace(-1.0, 1.0, 513)
        v = np.cos(0.5 * np.pi * x) ** 2
        v[0] = v[-1] = 0.0
        return self.ff.grids.GridFunction(-1.0, 1.0 / 256.0, v)

    def sweep_round(self, rec, rng):
        ff = self.ff
        gr, fo, lv = ff.grids, ff.fourier, ff.levy
        uniform = np.linspace(-self.XI_MAX, self.XI_MAX, self.N_FREQ)
        scattered = np.geomspace(0.5, self.XI_MAX, self.N_FREQ)
        for n in self.SIZES:
            f = multibump(gr, n, rng)
            rec.note(f"input{n}", f)
            rec(f"uniform{n}", fo.transform_at, f, uniform)
            rec(f"scattered{n}", fo.transform_at, f, scattered)

        xi = self._bv_xi()
        for i, (n_ramp, n_top) in enumerate(((16, 64), (32, 96), (48, 128))):
            f = gr.GridFunction(rng.uniform(-1.0, 1.0),
                                rng.uniform(0.005, 0.02),
                                plateau_values(n_ramp, n_top))
            rec(f"bv{i}", ff.ladder.bv_fourier_bound_check, f, xi)
        for i, profile in enumerate(self.PROFILES):
            a = rng.uniform(-1.0, 1.0)
            rho = rng.uniform(0.05, 1.0)
            spec = gr.PlateauSpec(a, a + (i + 2) * rho, rho, profile)
            rec(f"plateau{i}", gr.make_plateau, spec, rho / 32.0)

        atoms = tuple(zip(rng.uniform(0.05, 2.0, 3), rng.uniform(0.2, 2.0, 3)))
        xi = np.linspace(0.5, 100.0, 150)
        rec.note("atoms-input", (atoms, xi))
        rec("atoms", lv.levy_symbol, lv.LevyTriplet(atoms=atoms), xi)
        for a, count in self.DENSITY:
            coef = float(rng.uniform(0.5, 2.0))
            rec.note(f"coef-a{a}", coef)
            curve = rec(f"density-a{a}", lv.levy_symbol,
                        lv.LevyTriplet(density=lv.PowerLawDensity(a, coef)),
                        np.geomspace(1.0, 200.0, count))
            rec(f"fit-a{a}", lv.growth_exponent_fit, curve, 1.0)

    def solve(self, rec, rng):
        ff = self.ff
        gr, fo, lv, en = ff.grids, ff.fourier, ff.levy, ff.energy
        f = multibump(gr, self.SOLVE_NODES, rng)
        xi = np.linspace(-self.SOLVE_XI_MAX, self.SOLVE_XI_MAX,
                         self.SOLVE_FREQ)
        rec.note("solve-transform-input", (f, xi))
        rec("solve-transform", fo.transform_at, f, xi)
        bump = self._cal_bump()
        rec.note("calibration-bump", bump)
        for a in self.CALIBRATE_ALPHAS:
            rec(f"calibrate-a{a}", en.calibrate_c_of_alpha,
                en.EnergyParams(a), bump)
        a, count = self.SOLVE_SYMBOL
        coef = float(rng.uniform(0.5, 2.0))
        rec.note("solve-coef", coef)
        rec("solve-symbol", lv.levy_symbol,
            lv.LevyTriplet(density=lv.PowerLawDensity(a, coef)),
            np.linspace(0.5, 400.0, count))

    @staticmethod
    def _cellwise_transform(f, xi):
        """Transform of the interpolant by 8-point Gauss-Legendre rules on
        every grid cell: an independent route to the same integral."""
        t, w = np.polynomial.legendre.leggauss(8)
        v, h = f.values, f.step
        x0 = f.origin + h * np.arange(v.size - 1)
        s = 0.5 * (t + 1.0)
        xq = (x0[:, None] + h * s[None, :]).ravel()
        fq = ((1.0 - s)[None, :] * v[:-1, None]
              + s[None, :] * v[1:, None]).ravel()
        wq = np.tile(0.5 * h * w, v.size - 1)
        return np.exp(1j * np.outer(xi, xq)) @ (wq * fq) / math.sqrt(2 * math.pi)

    @staticmethod
    def _c_alpha(a):
        return math.pi / 2 if a == 1.0 else \
            gamma(1.0 - a) * math.cos(math.pi * a / 2) / a

    def _density_err(self, curve, a, coef):
        psi = coef * np.abs(curve.xi_grid) ** a * 2.0 * self._c_alpha(a)
        return float(np.max(np.abs(curve.psi_values - psi) / psi))

    def checks(self, kept, rng):
        ff = self.ff
        gr, fo, en = ff.grids, ff.fourier, ff.energy
        out = []

        f = tent(gr, 64)
        for label, xi in (("uniform", np.linspace(-50.0, 50.0, 1001)),
                          ("scattered", np.geomspace(0.01, 500.0, 1001))):
            exact = np.sinc(xi / (2 * math.pi)) ** 2 / math.sqrt(2 * math.pi)
            err = float(np.max(np.abs(fo.transform_at(f, xi) - exact)))
            out.append((f"unit-tent-{label}", err <= 1e-12,
                        f"max abs err {err:.3g}"))

        samples = [(kept[f"input{n}"], np.linspace(-self.XI_MAX, self.XI_MAX,
                                                   self.N_FREQ),
                    kept[f"uniform{n}"], f"uniform{n}") for n in self.SIZES]
        samples += [(kept[f"input{n}"], np.geomspace(0.5, self.XI_MAX,
                                                     self.N_FREQ),
                     kept[f"scattered{n}"], f"scattered{n}")
                    for n in self.SIZES]
        g, xi = kept["solve-transform-input"]
        samples.append((g, xi, kept["solve-transform"], "solve"))
        for g, xi, amps, label in samples:
            pick = np.sort(rng.choice(xi.size, 32, replace=False))
            ref = self._cellwise_transform(g, xi[pick])
            scale = g.step * float(np.sum(np.abs(g.values)))
            err = float(np.max(np.abs(amps[pick] - ref)))
            out.append((f"transform-cellwise-{label}", err <= 1e-10 * scale,
                        f"max abs err {err:.3g}"))

        atoms, xi = kept["atoms-input"]
        exact = sum(2.0 * m * (1.0 - np.cos(xi * x)) for x, m in atoms)
        err = float(np.max(np.abs(kept["atoms"].psi_values - exact)))
        out.append(("atom-symbol-cosine-sum",
                    err <= 1e-12 * sum(4.0 * m for _, m in atoms),
                    f"max abs err {err:.3g}"))

        for a, _ in self.DENSITY:
            err = self._density_err(kept[f"density-a{a}"], a,
                                    kept[f"coef-a{a}"])
            out.append((f"density-symbol-closed-form-a{a}", err <= 1e-9,
                        f"max rel err {err:.3g}"))
            fit = kept[f"fit-a{a}"]
            out.append((f"growth-fit-a{a}", abs(fit.alpha_hat - a) <= 1e-3 * a,
                        f"alpha_hat {fit.alpha_hat:.8g}"))
        a, _ = self.SOLVE_SYMBOL
        err = self._density_err(kept["solve-symbol"], a, kept["solve-coef"])
        out.append(("solve-density-symbol-closed-form", err <= 1e-9,
                    f"max rel err {err:.3g}"))

        worst = max(kept[f"bv{i}"] for i in range(3))
        out.append(("bv-fourier-bound", worst <= 0.0,
                    f"max |xi||fhat| - 2 = {worst:.4g}"))
        for i in range(len(self.PROFILES)):
            v = kept[f"plateau{i}"].values
            tv = float(np.sum(np.abs(np.diff(v))))
            out.append((f"make-plateau-{i}",
                        abs(tv - 2.0) <= 1e-9 and v.min() >= 0.0
                        and v.max() == 1.0, f"total variation {tv!r}"))

        bump = kept["calibration-bump"]
        v, h = bump.values, bump.step
        tv1 = float(np.sum(np.abs(np.diff(v))))
        tv2 = float(np.sum(np.abs(np.diff(v, 2))) / h)
        xi_max = 512.0
        above, within = [], []
        for a in self.CALIBRATE_ALPHAS:
            tails = [tv2 ** 2 / math.pi * xi_max ** (a - 3.0) / (3.0 - a)]
            if a < 1.0:
                tails.append(tv1 ** 2 / math.pi * xi_max ** (a - 1.0)
                             / (1.0 - a))
            gag = en.gagliardo_energy(bump, en.EnergyParams(a)).value
            exact = 1.0 / (4.0 * self._c_alpha(a))
            excess = (kept[f"calibrate-a{a}"].c_of_alpha - exact) / exact
            tail = min(tails) / gag / exact
            above.append(excess >= -1e-9)
            within.append((excess <= tail + 1e-9,
                           f"a={a}: excess {excess:.3g}, tail bound "
                           f"{tail:.3g}"))
        out.append(("calibrated-ratio-at-least-exact", all(above), ""))
        # One operation: whether the excess over 1/(4c) stays within the
        # tail bound that fourier_energy adds, at every exponent.
        out.append(("calibrated-ratio-within-tail-bound",
                    all(ok for ok, _ in within),
                    "; ".join(d for ok, d in within if not ok)))
        return out


class Ladder(Workload):
    """Excursion trees: ladder_decompose and partial-sum reconstruction on
    tapered random walks, whose local maxima each start an excursion."""

    name = "ladder"
    round_s = 0.8
    ROUGH_SIZES = (1024, 2048)
    BUMP_SIZES = (1024, 4096)
    ERASED_ALPHAS = (0.5, 1.5)
    SOLVE_SIZES = (2 ** 14, 2 ** 15)
    SOLVE_PARTIAL_SUMS = 12

    def warmup(self):
        la, en = self.ff.ladder, self.ff.energy
        f = rough_walk(self.ff.grids, 64, np.random.default_rng(0))
        tree = la.ladder_decompose(f, 64, 0.0)
        ps = tree.partial_sum(1)
        la.is_erased_function(ps, f)
        star, _ = la.ladder_star(f)
        la.arm_split(star)
        en.check_erased_bound(ps, f, en.EnergyParams(0.5))

    LABELS = tuple(f"rough{n}" for n in ROUGH_SIZES) \
        + tuple(f"bumps{n}" for n in BUMP_SIZES)

    def sweep_round(self, rec, rng):
        la, en, gr = self.ff.ladder, self.ff.energy, self.ff.grids
        inputs = [rough_walk(gr, n, rng) for n in self.ROUGH_SIZES]
        inputs += [multibump(gr, n, rng, k=6, signed=False)
                   for n in self.BUMP_SIZES]
        for label, f in zip(self.LABELS, inputs):
            rec.note(f"input-{label}", f)
            tree = rec(f"tree-{label}", la.ladder_decompose, f, f.n_nodes, 0.0)
            n_nodes = tree.n_nodes
            mid_k = max(1, n_nodes // 2)
            for k in range(1, n_nodes + 1):
                # Calls of one kind: the same tree input, k in the same
                # sixteenth of 1..K.
                ps = rec(f"partial-sum-{label}-{16 * k // (n_nodes + 1)}",
                         tree.partial_sum, k)
                if k == mid_k:
                    mid = ps
            rec(f"erased-{label}", la.is_erased_function, mid, f)
            star, _ = rec(f"star-{label}", la.ladder_star, f)
            rec.note(f"star-{label}", star)
            rec(f"arms-{label}", la.arm_split, star)
            for a in self.ERASED_ALPHAS:
                rec(f"erased-bound-{label}-a{a}", en.check_erased_bound, mid,
                    f, en.EnergyParams(a))

    def solve(self, rec, rng):
        la, gr = self.ff.ladder, self.ff.grids
        for n in self.SOLVE_SIZES:
            f = rough_walk(gr, n, rng)
            rec.note(f"solve-input{n}", f)
            tree = rec(f"solve-tree{n}", la.ladder_decompose, f, n, 0.0)
            ks = np.unique(np.round(np.geomspace(1, tree.n_nodes,
                                                 self.SOLVE_PARTIAL_SUMS)))
            rec.note(f"solve-ks{n}", ks)
            for k in ks:
                rec(f"solve-psum{n}-{int(k)}", tree.partial_sum, int(k))

    def checks(self, kept, rng):
        out = []
        trees = [(label, kept[f"input-{label}"], kept[f"tree-{label}"])
                 for label in self.LABELS]
        trees += [(f"solve{n}", kept[f"solve-input{n}"],
                   kept[f"solve-tree{n}"]) for n in self.SOLVE_SIZES]
        for label, f, tree in trees:
            maxima = local_maxima(f.values)
            out.append((f"nodes-equal-local-maxima-{label}",
                        tree.n_nodes == maxima,
                        f"{tree.n_nodes} nodes, {maxima} maxima"))
            gaps = np.array([g for _, g in tree.trace])
            out.append((f"sup-gap-nonincreasing-{label}",
                        bool(np.all(np.diff(gaps) <= 0.0)), ""))
            final = tree.partial_sum()
            out.append((f"final-partial-sum-is-f-{label}",
                        bool(np.array_equal(final.values, f.values)), ""))

        for label, f, tree in trees[:len(self.LABELS)]:
            fv = f.values
            ok = True
            for k in range(1, tree.n_nodes + 1):
                ps = tree.partial_sum(k).values
                ok = ok and bool(np.all(ps >= 0.0) and np.all(ps <= fv))
            out.append((f"partial-sums-between-0-and-f-{label}", ok, ""))
            ok, _ = kept[f"erased-{label}"]
            out.append((f"partial-sum-is-erased-{label}", bool(ok), ""))
            star = kept[f"star-{label}"].values
            out.append((f"star-below-f-{label}", bool(np.all(star <= fv)), ""))
            left, right = (a.values for a in kept[f"arms-{label}"])
            mono = bool(np.all(np.diff(left) >= 0) and np.all(np.diff(right)
                                                              >= 0))
            ulp = np.spacing(np.maximum(np.abs(star), np.abs(left)))
            recover = bool(np.all(np.abs((left - right) - star) <= ulp))
            out.append((f"arm-split-{label}", mono and recover, ""))
            for a in self.ERASED_ALPHAS:
                _, _, ratio = kept[f"erased-bound-{label}-a{a}"]
                out.append((f"erased-bound-ratio-{label}-a{a}",
                            math.isfinite(ratio) and ratio > 0.0,
                            f"ratio {ratio:.4g}"))

        for n in self.SOLVE_SIZES:
            fv = kept[f"solve-input{n}"].values
            ok = all(bool(np.all(ps.values >= 0.0) and np.all(ps.values <= fv))
                     for ps in (kept[f"solve-psum{n}-{int(k)}"]
                                for k in kept[f"solve-ks{n}"]))
            out.append((f"solve-partial-sums-between-0-and-f-{n}", ok, ""))
        return out


WORKLOADS = {cls.name: cls for cls in (Energies, Capacity, Spectral, Ladder)}
