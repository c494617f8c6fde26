"""End-to-end acceptance runs: exact constructions, arithmetic, property suites.

Every test here prints a single [PASS]/[FAIL] verdict line to the real stdout
so the outcomes stay visible under pytest's capture; the assertions after the
print carry the same conditions.
"""

import math
import sys
import time

import numpy as np
import pytest

from qsblab.cli import main
from qsblab.hilbert import PureState, SpaceLayout, basis_state, random_pure
from qsblab.metrics import fidelity_pure, property_sweep
from qsblab.optimize import (
    OptimizeConfig,
    objective_value_and_grads,
    optimize_qsb,
)
from qsblab.qsb import (
    CLONING_CEILING,
    asymptotic_ladder,
    chain_constants,
    cloner_baseline,
    default_probe_states,
    extract_product_approx,
    lambda_max_rank2,
    max_overlap_pair,
    measure_eps,
    overlap_lower_bound,
    perfect_qsb_construct,
    perturbed_perfect_instance,
    product_floors,
    search_probes,
)


def _verdict(capsys, name: str, ok: bool, detail: str) -> None:
    # capsys.disabled() lifts pytest's fd capture so the line lands on the
    # real stdout even in quiet runs
    with capsys.disabled():
        line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
        print(line, file=sys.__stdout__, flush=True)


def _haar_iso(rows, cols, rng):
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@pytest.fixture(scope="module")
def trivial_shared_run():
    """One full-budget search at d_S=2, d_A=1: shared by two criteria below."""
    cfg = OptimizeConfig(d_s=2, d_a=1, d_b=2, d_c=2, restarts=16, seed=42)
    t0 = time.perf_counter()
    point = optimize_qsb(cfg)
    return point, time.perf_counter() - t0


def test_construction_sweep(capsys):
    # every source that fits in the shared subsystem broadcasts exactly
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240817)
    worst = 1.0
    cases = 0
    for d_a in range(1, 5):
        for d_s in range(1, d_a + 1):
            for d_b in range(1, 4):
                for d_c in range(1, 4):
                    inst = perfect_qsb_construct(d_s, d_a, d_b, d_c)
                    states = [random_pure(inst.source_layout, rng) for _ in range(100)]
                    _, f_ab, f_ac = measure_eps(inst, np.stack([s.amplitudes for s in states], axis=1))
                    worst = min(worst, f_ab.min(), f_ac.min())
                    cases += 1
    elapsed = time.perf_counter() - t0
    ok = cases == 90 and worst >= 1.0 - 1e-10 and elapsed < 30.0
    _verdict(
        capsys,
        "construction_sweep",
        ok,
        f"{cases} cases x 100 inputs, max deficit {1.0 - worst:.2e} (tol 1e-10), {elapsed:.1f}s / 30s",
    )
    assert cases == 90
    assert worst >= 1.0 - 1e-10
    assert elapsed < 30.0


def test_cloning_ceiling(trivial_shared_run, capsys):
    # with no shared subsystem the task degenerates to symmetric cloning
    point, opt_elapsed = trivial_shared_run
    t0 = time.perf_counter()
    lay = SpaceLayout([("Q", 2)])
    rng = np.random.default_rng(7)
    states = [basis_state(lay, 0), basis_state(lay, 1)]
    states += [random_pure(lay, rng) for _ in range(100)]
    cloner_dev = 0.0
    for psi in states:
        rho_b, rho_c = cloner_baseline(psi)
        cloner_dev = max(
            cloner_dev,
            abs(fidelity_pure(rho_b, psi) - CLONING_CEILING),
            abs(fidelity_pure(rho_c, psi) - CLONING_CEILING),
        )
    elapsed = opt_elapsed + (time.perf_counter() - t0)
    best = point.best_worst_fidelity
    in_window = CLONING_CEILING - 1e-4 <= best <= CLONING_CEILING + 1e-3
    # d_S > d_A inserts no perfect seed, so all 16 restarts start from Haar draws;
    # each one, not only the winner, must reach the ceiling and stop converged
    worst = min(point.restart_values)
    restarts_ok = worst >= CLONING_CEILING - 1e-5 and point.stop_reasons == ("converged",) * 16
    ok = in_window and restarts_ok and cloner_dev <= 1e-9 and elapsed < 120.0
    _verdict(
        capsys,
        "cloning_ceiling",
        ok,
        f"best {best:.7f} in [5/6-1e-4, 5/6+1e-3], worst restart 5/6{worst - CLONING_CEILING:+.2e} "
        f"(tol -1e-5), stops {sorted(set(point.stop_reasons))}, cloner dev {cloner_dev:.1e} (tol 1e-9), "
        f"{elapsed:.1f}s / 120s",
    )
    assert in_window
    assert restarts_ok
    assert cloner_dev <= 1e-9
    assert elapsed < 120.0


def test_threshold_arithmetic(tmp_path, monkeypatch, capsys):
    # the CLI must reproduce the threshold arithmetic bit for bit
    monkeypatch.chdir(tmp_path)
    ok = True
    shown = []
    for d in (1, 2, 10, 10**21):
        assert main(["threshold", "--da", str(d)]) == 0
        out = capsys.readouterr().out
        fixed = 0.6e-175
        dimensional = 2.4e-14 / float(d) ** 8
        expected = min(fixed, dimensional)
        ok = ok and f"eps_zero {expected!r}" in out
        ok = ok and f"fixed {fixed!r}" in out and f"dimensional {dimensional!r}" in out
        shown.append(f"d_A={d}:{expected!r}")
    # min-crossover: the fixed candidate rules until the dimensional one
    # drops beneath it at astronomically large d_A
    ok = ok and min(0.6e-175, 2.4e-14 / float(10) ** 8) == 0.6e-175
    ok = ok and min(0.6e-175, 2.4e-14 / float(10**21) ** 8) == 2.4e-14 / float(10**21) ** 8
    _verdict(capsys, "threshold_arithmetic", ok, "exact reprs for " + ", ".join(shown))
    assert ok


# rounded single-power forms the collapsed ladder must reproduce within 2%
SINGLE_POWER_FORMS = {
    "eps_dprime_b": (4.9, 1.0 / 4.0),
    "eps_dprime_c": (7.1, 1.0 / 16.0),
    "eps_tprime_b": (11.4, 1.0 / 8.0),
    "eps_tprime_c": (15.2, 1.0 / 32.0),
    "shared_closeness": (19.4, 1.0 / 16.0),
    "eps_iv_b": (3.8, 1.0 / 64.0),
    "eps_iv_c": (3.9, 1.0 / 128.0),
}


def test_chain_constants_ladder(capsys):
    rep = chain_constants(1e-16, 2)
    exact_ok = (
        rep.constants["eps_prime_b"] == 2.0 * math.sqrt(1e-16)
        and rep.constants["eps_prime_b"] == 2e-8
        and rep.constants["eps_dprime_b"] == 2.0 * math.sqrt(rep.constants["eps_prime_b"]) + rep.constants["eps_prime_b"]
    )
    ladder = asymptotic_ladder()
    eps = 1e-32
    worst = 0.0
    exp_ok = True
    for key, (c_ref, e_ref) in SINGLE_POWER_FORMS.items():
        c, e = ladder[key]
        exp_ok = exp_ok and e == e_ref
        ratio = (c * eps**e) / (c_ref * eps**e_ref)
        worst = max(worst, abs(ratio - 1.0))
    ok = exact_ok and exp_ok and worst <= 0.02
    _verdict(
        capsys,
        "chain_constants_ladder",
        ok,
        f"exact constants at eps=1e-16, ladder dev {worst:.4f} (tol 0.02) at eps=1e-32",
    )
    assert exact_ok
    assert exp_ok
    assert worst <= 0.02


def test_fidelity_property_suite(capsys):
    t0 = time.perf_counter()
    failures = property_sweep(10_000, 16, seed=20240817)
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _verdict(
        capsys,
        "fidelity_property_suite",
        ok,
        f"10000 samples x 7 inequalities, {len(failures)} failures, {elapsed:.1f}s / 60s",
    )
    assert failures == []
    assert elapsed < 60.0


def test_overlap_crowding(capsys):
    rng = np.random.default_rng(11)
    worst_slack = float("inf")
    for _ in range(1000):
        d = int(rng.integers(1, 7))
        m = int(rng.integers(7, 13))
        lay = SpaceLayout([("Q", d)])
        vecs = [random_pure(lay, rng) for _ in range(m)]
        _, val = max_overlap_pair(vecs)
        worst_slack = min(worst_slack, val - overlap_lower_bound(m, d))
    ok = worst_slack >= -1e-12
    _verdict(
        capsys,
        "overlap_crowding",
        ok,
        f"1000 draws (m in 7..12, d in 1..6), min slack {worst_slack:.2e} (tol -1e-12)",
    )
    assert worst_slack >= -1e-12


def test_extraction_floors(capsys):
    rates = np.geomspace(1e-6, 1e-2, 100)
    dims_cycle = [
        (1, 1, 2, 2),
        (2, 2, 2, 2),
        (1, 2, 1, 2),
        (2, 3, 2, 1),
        (3, 3, 2, 2),
        (2, 2, 1, 1),
    ]
    violations = 0
    checked = 0
    for i, rate in enumerate(rates):
        dims = dims_cycle[i % len(dims_cycle)]
        inst = perturbed_perfect_instance(*dims, float(rate))
        probes = default_probe_states(inst.d_s, seed=i, haar_count=10)
        eps_hat, _, _ = measure_eps(inst, probes)
        floors = product_floors(eps_hat)
        targets = [basis_state(inst.source_layout, k) for k in range(dims[0])]
        if dims[0] > 1:
            targets.append(PureState(inst.source_layout, probes[:, dims[0]]))  # first balanced superposition
        for psi in targets:
            ext = extract_product_approx(inst, psi)
            checked += 1
            if ext.fidelity_ab < max(floors["floor_ab"], 0.0) - 1e-12:
                violations += 1
            if ext.fidelity_ac < max(floors["floor_ac"], 0.0) - 1e-12:
                violations += 1
            if ext.fidelity_product_abc < max(floors["floor_abc"], 0.0) - 1e-12:
                violations += 1
    ok = violations == 0
    _verdict(
        capsys,
        "extraction_floors",
        ok,
        f"100 noisy instances, {checked} extractions, {violations} floor violations",
    )
    assert violations == 0


def test_lambda_max_closed_form(capsys):
    rng = np.random.default_rng(13)
    n = 10_000
    a2 = rng.uniform(0.0, 1.0, n)
    b2 = 1.0 - a2
    f12 = rng.uniform(0.0, 1.0, n)
    ph1 = rng.uniform(0.0, 2.0 * np.pi, n)
    ph2 = rng.uniform(0.0, 2.0 * np.pi, n)
    # realise each overlap in dim 2 and diagonalise the weighted projector sum
    mats = np.zeros((n, 2, 2))
    mats[:, 0, 0] = a2 + b2 * f12
    off = b2 * np.sqrt(f12 * (1.0 - f12))
    mats[:, 0, 1] = off
    mats[:, 1, 0] = off
    mats[:, 1, 1] = b2 * (1.0 - f12)
    tops = np.linalg.eigvalsh(mats)[:, -1]
    worst = 0.0
    for i in range(n):
        alpha = math.sqrt(a2[i]) * np.exp(1j * ph1[i])
        beta = math.sqrt(b2[i]) * np.exp(1j * ph2[i])
        worst = max(worst, abs(lambda_max_rank2(alpha, beta, float(f12[i])) - tops[i]))
    ok = worst <= 1e-10
    _verdict(
        capsys,
        "lambda_max_closed_form",
        ok,
        f"10000 instances, max |closed - eigensolver| {worst:.2e} (tol 1e-10)",
    )
    assert worst <= 1e-10


def test_oracle_consistency_measure(trivial_shared_run, capsys):
    point, _ = trivial_shared_run
    devs = [abs(point.restart_values[point.winner_restart] - point.best_worst_fidelity)]
    devs.append(abs((1.0 - point.eps_hat) - point.best_worst_fidelity))
    for cfg in (
        OptimizeConfig(
            d_s=2, d_a=2, d_b=1, d_c=1, restarts=2, max_iters=150,
            haar_count=20, phase_count=4, seed=3,
        ),
        OptimizeConfig(
            d_s=2, d_a=1, d_b=2, d_c=2, restarts=3, max_iters=200,
            haar_count=30, phase_count=4, seed=4,
        ),
    ):
        p = optimize_qsb(cfg)
        devs.append(abs(p.restart_values[p.winner_restart] - p.best_worst_fidelity))
        devs.append(abs((1.0 - p.eps_hat) - p.best_worst_fidelity))
    worst = max(devs)
    ok = worst <= 1e-8
    _verdict(
        capsys,
        "oracle_consistency_measure",
        ok,
        f"3 searches, max |reported - re-measured| {worst:.2e} (tol 1e-8)",
    )
    assert worst <= 1e-8


def test_oracle_consistency_gradient(capsys):
    cfg = OptimizeConfig(
        d_s=2, d_a=1, d_b=2, d_c=2, env_dim=2,
        haar_count=10, phase_count=4,
    )
    d_a, d_b, d_c, d_e = cfg.dims4
    rng = np.random.default_rng(17)
    h = 1e-5
    worst_rel = 0.0
    failures = 0
    forms = set()
    # 8 columns at d_S = 2 give the search the Gram operand; 3 < d_S^2 columns
    # give it the outer products, the form every search at d_S >= 5 runs
    for n_cols in (8, 3):
        for _ in range(100):
            u = _haar_iso(d_a * d_b * d_c * d_e, cfg.d_s, rng)
            vab = _haar_iso(d_a * d_b, cfg.d_s, rng)
            vac = _haar_iso(d_a * d_c, cfg.d_s, rng)
            g = rng.normal(size=(cfg.d_s, n_cols)) + 1j * rng.normal(size=(cfg.d_s, n_cols))
            cols = g / np.linalg.norm(g, axis=0, keepdims=True)
            forms.add(search_probes(cols).dtype.kind)
            mats = [u, vab, vac]
            _, g_u, g_ab, g_ac = objective_value_and_grads(u, vab, vac, cols, cfg.dims4, temp=30.0)
            for which, grad in ((0, g_u), (1, g_ab), (2, g_ac)):
                i = int(rng.integers(mats[which].shape[0]))
                j = int(rng.integers(mats[which].shape[1]))
                for direction, part in ((1.0, np.real), (1.0j, np.imag)):
                    plus = [m.copy() for m in mats]
                    minus = [m.copy() for m in mats]
                    plus[which][i, j] += direction * h
                    minus[which][i, j] -= direction * h
                    fd = (
                        objective_value_and_grads(*plus, cols, cfg.dims4, temp=30.0)[0]
                        - objective_value_and_grads(*minus, cols, cfg.dims4, temp=30.0)[0]
                    ) / (2.0 * h)
                    want = 2.0 * part(grad[i, j])
                    err = abs(fd - want)
                    if err > max(1e-4 * abs(want), 1e-8):
                        failures += 1
                    worst_rel = max(worst_rel, err / max(abs(want), 1e-8))
    ok = failures == 0 and forms == {"f", "c"}
    _verdict(
        capsys,
        "oracle_consistency_gradient",
        ok,
        f"2 probe forms x 100 iterates x 6 directional checks, {failures} mismatches, "
        f"worst rel {worst_rel:.2e}",
    )
    assert forms == {"f", "c"}  # the Gram operand and the outer products
    assert failures == 0
