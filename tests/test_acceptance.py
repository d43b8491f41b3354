"""Acceptance gate: nine numbered end-to-end checks at fixed tolerances.

Each test prints one "[criterion N] PASS/FAIL" line with measured numbers
and timing, then asserts.  Criteria and tolerances are frozen; if a check
fails, the printed line carries the measured values.
"""

import time

import numpy as np
import pytest

from vortexladder import perturbation, rp
from vortexladder.freefermion import (
    CouplingConfig,
    assemble_skew,
    big_loop_gap,
    many_body_spectrum,
    mode_spectrum,
    sector_sweep,
    sector_union_spectrum,
)
from vortexladder.gauge import GaugeConfig
from vortexladder.lattice import build_ladder
from vortexladder.presets import make_couplings
from vortexladder.spin_ed import (
    build_spin_hamiltonian,
    compare_spectra,
    cycle_operators,
    dense_spectrum,
)


def _report(capsys, num: int, ok: bool, detail: str, elapsed: float) -> None:
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail} ({elapsed:.1f}s)")


def _random_couplings(ladder, rng) -> CouplingConfig:
    # uniform in (0, 2]: 2*(1 - U[0,1))
    return CouplingConfig({b.pair: 2.0 * (1.0 - rng.random()) for b in ladder.bonds})


def test_criterion_1_open_spectra_match_sector_union(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    failures = []
    draws = 0
    for n in (2, 3):
        ladder = build_ladder(n, "open")
        for _ in range(10):
            draws += 1
            cc = _random_couplings(ladder, rng)
            spin = dense_spectrum(build_spin_hamiltonian(ladder, cc)).eigenvalues
            union = sector_union_spectrum(ladder, cc)
            comp = compare_spectra(spin, union, tol=1e-8)
            if not comp.equal:
                failures.append((n, len(comp.only_a), len(comp.only_b)))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120
    _report(capsys, 1, ok,
            f"{draws - len(failures)}/{draws} open draws (N=2,3): deduplicated "
            f"spin and sector-union spectra identical at 1e-8", elapsed)
    assert not failures, failures
    assert elapsed < 120


def test_criterion_2_closed_union_has_extra_values(capsys):
    t0 = time.perf_counter()
    ladder = build_ladder(2, "closed")
    cc = make_couplings("decaying-top-closed", ladder, jx=1.0, jy=0.2, jz=2.0)
    spin = dense_spectrum(build_spin_hamiltonian(ladder, cc)).eigenvalues
    union = sector_union_spectrum(ladder, cc)
    dist = np.abs(union[:, None] - spin[None, :]).min(axis=1)
    worst = float(dist.max())
    elapsed = time.perf_counter() - t0
    ok = worst > 1e-6 and elapsed < 30
    _report(capsys, 2, ok,
            f"closed N=2: union value at distance {worst:.3e} from every spin "
            f"eigenvalue (need > 1e-6)", elapsed)
    assert worst > 1e-6
    assert elapsed < 30


def test_criterion_3_closed_ground_energies_coincide(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    worst = 0.0
    draws = 0
    for n in (2, 3):
        ladder = build_ladder(n, "closed")
        for _ in range(10):
            draws += 1
            cc = _random_couplings(ladder, rng)
            spin0 = float(dense_spectrum(build_spin_hamiltonian(ladder, cc)).eigenvalues[0])
            fermi0 = sector_sweep(ladder, cc).argmin.energy
            worst = max(worst, abs(spin0 - fermi0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 300
    _report(capsys, 3, ok,
            f"{draws} closed draws (N=2,3): max |min spin - min fermion| = "
            f"{worst:.3e} (need <= 1e-8)", elapsed)
    assert worst <= 1e-8
    assert elapsed < 300


def _cycle_sign_oracle(ladder, values) -> dict[str, int]:
    """Expected argmin sector: sgn of the coupling product around each cycle."""
    out = {}
    for name, loop in ladder.cycles.items():
        prod = 1.0
        for a, b in zip(loop, loop[1:] + loop[:1]):
            prod *= values[(a, b) if a < b else (b, a)]
        out[name] = 1 if prod > 0 else -1
    return out


def _private_top_bond(n_cells: int, k: int) -> tuple[int, int]:
    """A bond lying on plaquette p_k and on no other cycle."""
    if k % 2:  # cell plaquette: its top x bond
        m = (k + 1) // 2
        return (4 * m - 2, 4 * m - 1)
    j = k // 2  # junction plaquette: its top y bond
    if j == n_cells:
        return (2, 4 * n_cells - 1)
    return (4 * j - 1, 4 * j + 2)


def test_criterion_4_vortex_free_argmin_and_single_flip(capsys):
    t0 = time.perf_counter()
    checks = 0
    bad = []
    for boundary in ("open", "closed"):
        for n in range(2, 9):
            ladder = build_ladder(n, boundary)
            for sign in (1.0, -1.0):
                cc = CouplingConfig.homogeneous(ladder, sign * 1.0, sign * 0.7, sign * 1.3)
                got = sector_sweep(ladder, cc).argmin.sector.values
                want = _cycle_sign_oracle(ladder, cc.values)
                checks += 1
                if got != want or any(v != 1 for v in want.values()):
                    bad.append((boundary, n, sign, got))
            # flip one plaquette through a bond only that cycle uses
            k = 1 if n % 2 == 0 else 2
            flipped = dict(CouplingConfig.homogeneous(ladder, 1.0, 0.7, 1.3).values)
            pair = _private_top_bond(n, k)
            flipped[pair] = -flipped[pair]
            cc2 = CouplingConfig(flipped)
            got = sector_sweep(ladder, cc2).argmin.sector.values
            want = _cycle_sign_oracle(ladder, flipped)
            checks += 1
            if got != want or want[f"p{k}"] != -1 or sum(v == -1 for v in want.values()) != 1:
                bad.append((boundary, n, f"flip p{k}", got))
    elapsed = time.perf_counter() - t0
    ok = not bad and elapsed < 120
    _report(capsys, 4, ok,
            f"{checks - len(bad)}/{checks} sweeps (open+closed, N=2..8): argmin "
            f"sector equals sgn(coupling product) per cycle, incl. single-plaquette flips",
            elapsed)
    assert not bad, bad
    assert elapsed < 120


def _richardson(at: dict[float, float]) -> float:
    """t -> 0 limit of x(t) = x0 + a t + b t^2 from t = 0.01, 0.02, 0.04."""
    return (8.0 * at[0.01] - 6.0 * at[0.02] + at[0.04]) / 3.0


def test_criterion_5_third_order_gap_formulas_n3(capsys):
    # A third-order formula promises exact = formula * (1 + beta_p t + O(t^2)),
    # i.e. agreement as t -> 0.  At N=3 beta_p reaches ~34 (end spins 1 and 12
    # split only at O(t^3)), so the tolerances apply to the t -> 0 limit.
    t0 = time.perf_counter()
    ladder = build_ladder(3, "open")
    ts = (0.04, 0.02, 0.01)
    rel: dict[float, dict[str, float]] = {}
    exact: dict[float, dict[str, float]] = {}
    dev: dict[float, dict[str, float]] = {}
    for t in ts:
        split = perturbation.PerturbationSplit.from_uniform(ladder, 1.0, t)
        validation = perturbation.validate_against_ed(ladder, split)
        rel[t] = {r.plaquette: r.rel_err for r in validation.rows}
        exact[t] = {r.plaquette: r.delta_e_exact for r in validation.rows}
        dev[t] = {r.plaquette: r.delta_e_exact / r.delta_e_formula - 1.0 for r in validation.rows}
    plaquettes = sorted(rel[ts[0]])
    decreasing = all(
        rel[0.04][p] > rel[0.02][p] > rel[0.01][p] for p in plaquettes
    )
    max_rel = max(rel[0.01].values())
    max_dev0 = max(abs(_richardson({t: dev[t][p] for t in ts})) for p in plaquettes)
    small = max_dev0 < 1e-2
    ratio = exact[0.01]["p1"] / exact[0.01]["p2"]
    ratio0 = _richardson({t: exact[t]["p1"] / exact[t]["p2"] for t in ts})
    ratio_ok = abs(ratio0 / 4.0 - 1.0) <= 0.05
    elapsed = time.perf_counter() - t0
    ok = decreasing and small and ratio_ok and elapsed < 600
    _report(capsys, 5, ok,
            f"N=3 open, t=0.04/0.02/0.01: rel err decreasing={decreasing}; "
            f"max rel err at t=0.01 = {max_rel:.3f}, extrapolated to t->0 = "
            f"{max_dev0:.2e} (need < 1e-2)={small}; boundary/bulk gap ratio "
            f"{ratio:.4f} at t=0.01, {ratio0:.4f} at t->0 vs 4 within 5%={ratio_ok}",
            elapsed)
    assert decreasing, {p: [rel[t][p] for t in ts] for p in plaquettes}
    assert small, f"max relative error extrapolated to t->0 is {max_dev0:.4f}"
    assert ratio_ok, f"boundary/bulk ratio extrapolated to t->0 is {ratio0:.4f}, formula ratio 4"
    assert elapsed < 600


def _log_linear_fit(points):
    """(slope, r2) of log(gap) vs N; requires >= 3 points."""
    xs = np.array([n for n, _ in points], dtype=float)
    ys = np.log([g for _, g in points])
    slope, intercept = np.polyfit(xs, ys, 1)
    resid = ys - (slope * xs + intercept)
    return float(slope), 1.0 - float((resid**2).sum()) / float(((ys - ys.mean()) ** 2).sum())


def test_criterion_6_big_loop_gap_decays_exponentially(capsys):
    t0 = time.perf_counter()
    cells = list(range(4, 41))
    gaps = []
    for n in cells:
        ladder = build_ladder(n, "closed")
        cc = make_couplings("decaying-top-closed", ladder, jx=1.0, jy=0.2, jz=2.0)
        gaps.append(big_loop_gap(ladder, cc, ["BL"])[0].gap)
    decreasing = all(b < a for a, b in zip(gaps, gaps[1:]))
    first_bad = next((cells[i + 1] for i in range(len(gaps) - 1)
                      if gaps[i + 1] >= gaps[i]), None)
    tail = [(n, g) for n, g in zip(cells, gaps) if n >= 10]
    # log-gap is only defined while the gap is positive; once it underflows
    # the linearity claim fails outright, so fit what is fittable and flag it
    fit_valid = all(g > 0 for _, g in tail)
    slope, r2 = _log_linear_fit([(n, g) for n, g in tail if g > 0])
    resolved = [(n, g) for n, g in tail if g > 1e-11]
    pre_slope, pre_r2 = _log_linear_fit(resolved)
    elapsed = time.perf_counter() - t0
    ok = decreasing and fit_valid and slope < 0 and r2 >= 0.99 and elapsed < 60
    _report(capsys, 6, ok,
            f"closed N=4..40: BL gap strictly decreasing={decreasing}"
            f"{'' if first_bad is None else f' (first violation N={first_bad})'}; "
            f"log-gap slope {slope:.4f}, R^2 = {r2:.6f} on N>=10"
            f"{'' if fit_valid else ' (positive-gap subset only: gap underflows to <= 0)'}; "
            f"resolved prefix N={resolved[0][0]}..{resolved[-1][0]}: "
            f"slope {pre_slope:.4f}, R^2 = {pre_r2:.6f}", elapsed)
    assert decreasing, f"gap stops decreasing at N={first_bad}: noise floor ~1e-13"
    assert fit_valid and slope < 0 and r2 >= 0.99
    assert elapsed < 60


def test_criterion_7_reflection_positivity_suite(capsys):
    t0 = time.perf_counter()
    n = 8
    rng = np.random.default_rng(1007)
    theta = rp.mirror_theta(n)
    weights = {}
    for i in range(1, 5):
        for j in range(i + 1, 5):
            w = float(rng.uniform(-1, 1))
            weights[(i, j)] = w
            weights[(n + 1 - j, n + 1 - i)] = w
    for i in range(1, 5):
        weights[(i, n + 1 - i)] = float(rng.uniform(0.5, 1.5))
    H = rp.quadratic(n, weights)
    hm, h0, hp = rp.split_by_side(H)
    h1, h2 = rp.doubled_hamiltonians(hm, h0, hp, theta)
    betas = (0.5, 1.0, 2.0)

    min_functional = min(
        rp.rp_functional(rp.random_even_element(rng, n), H, theta, beta=beta)
        for _ in range(200)
        for beta in betas
    )
    worst_margin_rel = max(
        rp.trace_bound_check(H, h1, h2, beta=beta).margin
        / rp.trace_bound_check(H, h1, h2, beta=beta).rhs
        for beta in betas
    )
    energy = rp.energy_inequality_check(H, h1, h2, tol=1e-9)
    elapsed = time.perf_counter() - t0
    ok = (min_functional >= -1e-10 and worst_margin_rel <= 1e-8
          and energy.holds and abs(energy.gap) <= 1e-9 and elapsed < 60)
    _report(capsys, 7, ok,
            f"8 Majoranas, 200 even elements x betas {betas}: min functional "
            f"{min_functional:.3e} (need >= -1e-10); trace margin/rhs "
            f"{worst_margin_rel:.3e} (need <= 1e-8); symmetric energy gap "
            f"{energy.gap:.3e}", elapsed)
    assert min_functional >= -1e-10
    assert worst_margin_rel <= 1e-8
    assert energy.holds and abs(energy.gap) <= 1e-9
    assert elapsed < 60


def test_criterion_8_many_body_spectrum_vs_fock_oracle(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1008)
    rep = rp.fock_majoranas(8)
    worst = 0.0
    draws = 0
    for boundary in ("open", "closed"):
        ladder = build_ladder(2, boundary)  # 8 Majorana sites
        for _ in range(50):
            draws += 1
            cc = CouplingConfig({b.pair: float(rng.uniform(-2, 2)) for b in ladder.bonds})
            u = {b.pair: int(rng.integers(0, 2)) * 2 - 1 for b in ladder.bonds}
            skew = assemble_skew(ladder, cc, GaugeConfig(u))
            many = np.sort(many_body_spectrum(mode_spectrum(skew)))
            a = skew.matrix
            h = np.zeros((rep.dim, rep.dim), dtype=complex)
            for k in range(8):
                for l in range(k + 1, 8):
                    if a[k, l] != 0.0:
                        h += 1j * a[k, l] * (rep.matrices[k] @ rep.matrices[l])
            fock = np.linalg.eigvalsh(h)
            worst = max(worst, float(np.abs(many - fock).max()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 60
    _report(capsys, 8, ok,
            f"{draws} (J,u) draws, N=2 open+closed: many-body spectrum vs dense "
            f"Fock diagonalization, max deviation {worst:.3e} (need <= 1e-10)",
            elapsed)
    assert worst <= 1e-10
    assert elapsed < 60


def test_criterion_9_loop_operators_exact_algebra(capsys):
    t0 = time.perf_counter()
    checked = 0
    for boundary in ("open", "closed"):
        for n in range(2, 7):
            ladder = build_ladder(n, boundary)
            cc = CouplingConfig.homogeneous(ladder, 1.1, 0.7, 1.3)
            h = build_spin_hamiltonian(ladder, cc)
            ops = cycle_operators(ladder)
            names = list(ops)
            for b in ops.values():
                assert (b * b).is_identity
                assert b.dagger().equals(b)
                assert h.commutator(b).is_zero
                checked += 3
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    assert ops[names[i]].commutator(ops[names[j]]).is_zero
                    checked += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10
    _report(capsys, 9, ok,
            f"{checked} exact identities (squares, hermiticity, commutators) "
            f"over N=2..6, both boundaries, all in integer phase arithmetic",
            elapsed)
    assert elapsed < 10
