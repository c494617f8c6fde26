"""Riemannian search over broadcast instances: gradients, restarts, frontier."""

import numpy as np
import pytest

import qsblab.optimize as optimize_module
import qsblab.qsb as qsb_module
from qsblab.errors import InvariantViolation, TooLarge
from qsblab.optimize import (
    FrontierPoint,
    OptimizeConfig,
    branch_values,
    frontier_sweep,
    objective_value_and_grads,
    optimize_qsb,
)
from qsblab.qsb import QsbInstance, perfect_qsb_construct, probe_matrix, search_probes

SMALL = dict(haar_count=20, phase_count=4)


def _haar(rows, cols, rng):
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _params_for(cfg, rng):
    d_a, d_b, d_c, d_e = cfg.dims4
    return (
        _haar(d_a * d_b * d_c * d_e, cfg.d_s, rng),
        _haar(d_a * d_b, cfg.d_s, rng),
        _haar(d_a * d_c, cfg.d_s, rng),
    )


def _probe_cols(cfg, rng, n=12):
    g = rng.normal(size=(cfg.d_s, n)) + 1j * rng.normal(size=(cfg.d_s, n))
    return g / np.linalg.norm(g, axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_requires_representation_isometries():
    with pytest.raises(InvariantViolation):
        OptimizeConfig(d_s=2, d_a=1, d_b=1, d_c=1)
    with pytest.raises(InvariantViolation):
        OptimizeConfig(d_s=5, d_a=2, d_b=2, d_c=1)
    OptimizeConfig(d_s=4, d_a=2, d_b=2, d_c=2)  # 4 <= 2*2 on both pairs


def test_config_env_bounds_and_default():
    assert OptimizeConfig(d_s=2, d_a=2, d_b=2, d_c=2).resolved_env == 16
    assert OptimizeConfig(d_s=2, d_a=1, d_b=2, d_c=2).resolved_env == 8
    assert OptimizeConfig(d_s=2, d_a=2, d_b=1, d_c=1, env_dim=3).resolved_env == 3
    with pytest.raises(InvariantViolation):
        OptimizeConfig(d_s=2, d_a=2, d_b=1, d_c=1, env_dim=0)
    with pytest.raises(InvariantViolation):
        OptimizeConfig(d_s=2, d_a=2, d_b=1, d_c=1, env_dim=9)  # above d_s*d_a*d_b*d_c


def test_config_size_cap():
    with pytest.raises(TooLarge):
        OptimizeConfig(d_s=2, d_a=8, d_b=8, d_c=8)  # 512 * env 16 = 8192


def test_config_misc_guards():
    with pytest.raises(InvariantViolation):
        OptimizeConfig(d_s=2, d_a=2, d_b=2, d_c=2, restarts=0)
    with pytest.raises(InvariantViolation):
        OptimizeConfig(d_s=2, d_a=2, d_b=2, d_c=2, haar_count=-1)


def test_sample_spec_census(monkeypatch):
    drawn = []

    def recording(*args):
        drawn.append(qsb_module.default_probe_states(*args))
        return drawn[-1]

    monkeypatch.setattr(optimize_module, "default_probe_states", recording)
    optimize_qsb(OptimizeConfig(2, 1, 2, 2, env_dim=2, restarts=1, max_iters=1, haar_count=5, phase_count=3))
    assert [cols.shape for cols in drawn] == [(2, 2 + 1 * 3 + 5)]


def test_frontier_point_validation_and_csv():
    inst = perfect_qsb_construct(1, 1, 1, 1)
    with pytest.raises(InvariantViolation):
        FrontierPoint(
            dims=(1, 1, 1, 1),
            best_worst_fidelity=1.5,
            best_instance=inst,
            iterations_used=0,
            winner_restart=0,
            eps_hat=0.0,
            restarts=1,
            seed=0,
            max_fidelity_seen=1.0,
        )
    pt = FrontierPoint(
        dims=(1, 1, 1, 1),
        best_worst_fidelity=1.0,
        best_instance=inst,
        iterations_used=0,
        winner_restart=0,
        eps_hat=0.0,
        restarts=1,
        seed=0,
        max_fidelity_seen=1.0,
    )
    row = pt.csv_row()
    assert len(row) == len(FrontierPoint.CSV_HEADER)
    assert row[4] == repr(1.0)  # full-precision fidelity column


# ---------------------------------------------------------------------------
# geometry of the update
# ---------------------------------------------------------------------------


def _step(v, g, t):
    """The search's update of an isometry v along the gradient g: tangent step, then retraction."""
    return optimize_module._qr_positive(v + t * optimize_module._tangent(v, g))


def test_zero_gradient_step_is_identity():
    rng = np.random.default_rng(0)
    v = _haar(4, 2, rng)
    out = _step(v, np.zeros((4, 2), dtype=np.complex128), 0.3)
    assert np.max(np.abs(out - v)) <= 1e-12


def test_step_preserves_isometry():
    rng = np.random.default_rng(1)
    for _ in range(10):
        v = _haar(8, 3, rng)
        g = rng.normal(size=(8, 3)) + 1j * rng.normal(size=(8, 3))
        out = _step(v, g, 0.7)
        assert np.max(np.abs(out.conj().T @ out - np.eye(3))) <= 1e-10


def test_step_beyond_the_retraction_range_is_refused(monkeypatch):
    # a rank-1 gradient is the worst case: Cholesky QR loses ~|t xi|^2 * 1e-16,
    # which at |t xi| = STEP_CAP still leaves the columns orthonormal to 1e-11
    rng = np.random.default_rng(5)
    v = _haar(8, 2, rng)
    g = np.outer(rng.normal(size=8) + 1j * rng.normal(size=8), [1.0, 0.5])
    size = np.linalg.norm(optimize_module._tangent(v, g))
    out = _step(v, g, 0.999 * optimize_module.STEP_CAP / size)
    assert np.max(np.abs(out.conj().T @ out - np.eye(2))) <= 1e-11

    # the same worst case inside the search, scaled far past the cap: the line
    # search retracts no trial beyond the range, so every trial is an isometry
    tangent = optimize_module._tangent
    retract = optimize_module._qr_positive
    errors: list[float] = []

    def steep_rank_one_tangent(x, g):
        xi = tangent(x, g)[..., :1]
        xi = xi - x @ (x.conj().swapaxes(-1, -2) @ xi)
        return 1e8 * xi * np.array([1.0, 0.5])

    def checked_retraction(m):
        q = retract(m)
        errors.append(float(np.max(np.abs(q[0].conj().T @ q[0] - np.eye(q.shape[-1])))))
        return q

    monkeypatch.setattr(optimize_module, "_tangent", steep_rank_one_tangent)
    monkeypatch.setattr(optimize_module, "_qr_positive", checked_retraction)
    cfg = OptimizeConfig(2, 1, 2, 2, env_dim=2, restarts=1, max_iters=5, **SMALL)
    cols = _probe_cols(cfg, np.random.default_rng(6), n=30)
    optimize_module._run_restart(cfg, probe_matrix(cols), _params_for(cfg, rng), 0)
    assert errors and max(errors) <= 1e-11


def _householder_positive(m):
    q, r = np.linalg.qr(m)
    d = np.diag(r)
    return q * (d / np.abs(d))


@pytest.mark.parametrize("dims", [(2, 1, 2, 2, 8), (3, 2, 2, 2, 16), (4, 3, 2, 2, 16)])
def test_cholesky_retraction_matches_householder(dims):
    # the search retracts its zero-padded (U, V_AB, V_AC) stack in one call
    d_s, d_a, d_b, d_c, d_e = dims
    rows = (d_a * d_b * d_c * d_e, d_a * d_b, d_a * d_c)
    rng = np.random.default_rng(sum(dims))
    x = np.zeros((3, rows[0], d_s), dtype=np.complex128)
    g = np.zeros_like(x)
    for k, n in enumerate(rows):
        x[k, :n] = _haar(n, d_s, rng)
        g[k, :n] = rng.normal(size=(n, d_s)) + 1j * rng.normal(size=(n, d_s))
    xi = optimize_module._tangent(x, g)
    xi /= np.linalg.norm(xi)
    for t in (1e-8, 1e-3, 0.5, 3.0, 10.0):
        m = x + t * xi
        q = optimize_module._qr_positive(m)
        for k, n in enumerate(rows):
            assert np.max(np.abs(q[k, :n] - _householder_positive(m[k, :n]))) <= 1e-13
            assert np.max(np.abs(q[k].conj().T @ q[k] - np.eye(d_s))) <= 1e-13
            assert np.all(q[k, n:] == 0.0)


def test_full_restart_returns_isometries():
    cfg = OptimizeConfig(2, 1, 2, 2, env_dim=8, restarts=1, max_iters=2000, **SMALL)
    cols = _probe_cols(cfg, np.random.default_rng(8), n=30)
    init = _params_for(cfg, np.random.default_rng(9))
    out = optimize_module._run_restart(cfg, probe_matrix(cols), init, 0)
    assert out.iterations == cfg.max_iters
    for m in out.params:
        assert np.max(np.abs(m.conj().T @ m - np.eye(cfg.d_s))) <= 1e-12


def test_gradient_steps_ascend():
    cfg = OptimizeConfig(d_s=2, d_a=1, d_b=2, d_c=2, env_dim=2, **SMALL)
    rng = np.random.default_rng(3)
    improved = 0
    for _ in range(40):
        u, vab, vac = _params_for(cfg, rng)
        cols = _probe_cols(cfg, rng)
        before, g_u, g_ab, g_ac = objective_value_and_grads(
            u, vab, vac, cols, cfg.dims4, temp=40.0
        )
        step = 1e-3
        u2, vab2, vac2 = (_step(m, g, step) for m, g in ((u, g_u), (vab, g_ab), (vac, g_ac)))
        after, *_ = objective_value_and_grads(u2, vab2, vac2, cols, cfg.dims4, temp=40.0)
        if after >= before - 1e-12:
            improved += 1
    assert improved >= 38  # ascent direction, up to rare curvature flukes


def test_gradients_match_finite_differences():
    cfg = OptimizeConfig(d_s=2, d_a=1, d_b=2, d_c=2, env_dim=2, **SMALL)
    rng = np.random.default_rng(4)
    h = 1e-5
    for trial in range(10):
        u, vab, vac = _params_for(cfg, rng)
        cols = _probe_cols(cfg, rng, n=8)

        def value(mats):
            return objective_value_and_grads(*mats, cols, cfg.dims4, temp=30.0)[0]

        _, g_u, g_ab, g_ac = objective_value_and_grads(u, vab, vac, cols, cfg.dims4, temp=30.0)
        for which, grad in ((0, g_u), (1, g_ab), (2, g_ac)):
            mats = [u.copy(), vab.copy(), vac.copy()]
            m = mats[which]
            i = int(rng.integers(m.shape[0]))
            j = int(rng.integers(m.shape[1]))
            for direction, part in ((1.0, np.real), (1.0j, np.imag)):
                plus = [x.copy() for x in mats]
                minus = [x.copy() for x in mats]
                plus[which][i, j] += direction * h
                minus[which][i, j] -= direction * h
                fd = (value(plus) - value(minus)) / (2.0 * h)
                want = 2.0 * part(grad[i, j])
                assert fd == pytest.approx(want, rel=1e-4, abs=1e-8)


def _einsum_reference(u, vab, vac, cols, dims4, temp):
    # the kernel written directly as contractions over the probe axis
    d_a, d_b, d_c, d_e = dims4
    d_s, n = cols.shape
    t = (u @ cols).reshape(d_a, d_b, d_c, d_e, n)
    pab = (vab @ cols).reshape(d_a, d_b, n)
    pac = (vac @ cols).reshape(d_a, d_c, n)
    wb = np.einsum("abn,abcen->cen", pab.conj(), t)
    wc = np.einsum("acn,abcen->ben", pac.conj(), t)
    f_ab = np.einsum("cen,cen->n", wb, wb.conj()).real
    f_ac = np.einsum("ben,ben->n", wc, wc.conj()).real
    f = np.concatenate([f_ab, f_ac])
    e = np.exp(-temp * (f - f.min()))
    value = f.min() - np.log(e.sum()) / temp
    w_ab, w_ac = e[:n] / e.sum(), e[n:] / e.sum()
    pc = cols.conj()
    g_u = np.einsum("n,abn,cen,sn->abces", w_ab, pab, wb, pc) + np.einsum(
        "n,acn,ben,sn->abces", w_ac, pac, wc, pc
    )
    g_vab = np.einsum("n,cen,abcen,sn->abs", w_ab, wb.conj(), t, pc)
    g_vac = np.einsum("n,ben,abcen,sn->acs", w_ac, wc.conj(), t, pc)
    grads = (g_u.reshape(-1, d_s), g_vab.reshape(-1, d_s), g_vac.reshape(-1, d_s))
    return f_ab, f_ac, value, grads


@pytest.mark.parametrize(
    "d_s, d_a, d_b, d_c, d_e",
    [(2, 1, 2, 2, 8), (3, 2, 2, 2, 16), (3, 1, 3, 3, 16), (4, 3, 2, 2, 5), (2, 2, 1, 3, 4)],
)
def test_kernel_matches_einsum_reference(d_s, d_a, d_b, d_c, d_e):
    cfg = OptimizeConfig(d_s=d_s, d_a=d_a, d_b=d_b, d_c=d_c, env_dim=d_e)
    rng = np.random.default_rng(d_s * 1000 + d_a * 100 + d_b * 10 + d_c)
    for _ in range(3):
        u, vab, vac = _params_for(cfg, rng)
        cols = _probe_cols(cfg, rng, n=25)
        f_ab, f_ac, value, grads = _einsum_reference(u, vab, vac, cols, cfg.dims4, 25.0)
        (got_ab, got_ac), _ = branch_values(u, vab, vac, probe_matrix(cols), cfg.dims4)
        got_value, *got_grads = objective_value_and_grads(u, vab, vac, cols, cfg.dims4, 25.0)
        assert np.max(np.abs(got_ab - f_ab)) <= 1e-13
        assert np.max(np.abs(got_ac - f_ac)) <= 1e-13
        # the one-shot contraction behind measure_eps and chain_verify
        inst = QsbInstance.from_stinespring(u, vab, vac, d_a, d_b, d_c)
        _, once_ab, once_ac = qsb_module.measure_eps(inst, cols)
        assert np.max(np.abs(once_ab - f_ab)) <= 1e-13
        assert np.max(np.abs(once_ac - f_ac)) <= 1e-13
        assert abs(got_value - value) <= 1e-13
        for got, want in zip(got_grads, grads):
            assert got.shape == want.shape
            assert np.max(np.abs(got - want)) <= 1e-13


@pytest.mark.parametrize("operand", ["probe_matrix", "_outer_columns"])
@pytest.mark.parametrize(
    "d_s, d_a, d_b, d_c, d_e",
    [(2, 1, 2, 2, 8), (3, 2, 2, 2, 16), (3, 1, 3, 3, 16), (4, 3, 2, 2, 5), (2, 2, 1, 3, 4)],
)
def test_both_search_contractions_match_reference(monkeypatch, operand, d_s, d_a, d_b, d_c, d_e):
    # a search runs the Gram form or |K P|^2 by its shape; either one gives
    # the reference values and gradients
    monkeypatch.setattr(optimize_module, "search_probes", getattr(qsb_module, operand))
    cfg = OptimizeConfig(d_s=d_s, d_a=d_a, d_b=d_b, d_c=d_c, env_dim=d_e)
    rng = np.random.default_rng(d_s * 1000 + d_a * 100 + d_b * 10 + d_c + 1)
    u, vab, vac = _params_for(cfg, rng)
    cols = _probe_cols(cfg, rng, n=25)
    _, _, value, grads = _einsum_reference(u, vab, vac, cols, cfg.dims4, 25.0)
    got_value, *got_grads = objective_value_and_grads(u, vab, vac, cols, cfg.dims4, 25.0)
    assert abs(got_value - value) <= 1e-13
    for got, want in zip(got_grads, grads):
        assert np.max(np.abs(got - want)) <= 1e-13


def test_search_contraction_follows_the_shape():
    def cols(d_s, n):
        return _probe_cols(OptimizeConfig(d_s, d_s, 1, 1), np.random.default_rng(n), n=n)

    # default probes up to d_s = 4: a cache-sized probe matrix, n >= d_s^2
    assert np.isrealobj(search_probes(cols(2, 210)))
    assert np.isrealobj(search_probes(cols(4, 252)))
    # fewer probes than d_s^2, or a probe matrix above GRAM_FLOATS
    assert np.iscomplexobj(search_probes(cols(8, 8)))
    assert np.iscomplexobj(search_probes(cols(4, qsb_module.GRAM_FLOATS // 512 + 1)))
    assert np.iscomplexobj(search_probes(cols(5, 285)))
    # so a large source still searches, on the outer products
    cfg = OptimizeConfig(d_s=16, d_a=4, d_b=4, d_c=4, env_dim=1, restarts=1, max_iters=2)
    point = optimize_qsb(cfg)
    assert point.iterations_used == 2 and 0.0 <= point.best_worst_fidelity <= 1.0


# ---------------------------------------------------------------------------
# the full search
# ---------------------------------------------------------------------------


def test_optimize_reaches_perfect_when_source_fits():
    cfg = OptimizeConfig(
        d_s=2, d_a=2, d_b=1, d_c=1, restarts=2, max_iters=100, **SMALL, seed=1
    )
    point = optimize_qsb(cfg)
    assert point.best_worst_fidelity >= 1.0 - 1e-6
    assert point.dims == (2, 2, 1, 1)
    assert len(point.restart_values) == 2
    # restart 0 starts at the perfect construction and stops there
    assert point.stop_reasons[0] == "perfect"
    assert point.to_json()["stop_reasons"] == list(point.stop_reasons)
    assert len(point.stop_reasons) == 2
    assert point.eps_hat == pytest.approx(1.0 - point.best_worst_fidelity, abs=1e-15)


def test_optimize_winner_consistency():
    cfg = OptimizeConfig(
        d_s=2, d_a=1, d_b=2, d_c=2, restarts=3, max_iters=120, **SMALL, seed=2
    )
    point = optimize_qsb(cfg)
    # the winner's in-search value and the posthoc measurement run the same
    # kernel on the same probe set; only the round trip through 1 - eps remains
    assert point.restart_values[point.winner_restart] == pytest.approx(
        point.best_worst_fidelity, abs=1e-12
    )
    assert point.max_fidelity_seen >= point.best_worst_fidelity - 1e-12


def test_optimize_is_deterministic():
    cfg = OptimizeConfig(
        d_s=2, d_a=1, d_b=2, d_c=2, restarts=2, max_iters=60, **SMALL, seed=3
    )
    p1 = optimize_qsb(cfg)
    p2 = optimize_qsb(cfg)
    assert p1.restart_values == p2.restart_values
    assert p1.best_worst_fidelity == p2.best_worst_fidelity
    assert p1.winner_restart == p2.winner_restart


# the pins from before a restart scored its final iterate; scoring one more
# point can only raise a restart's value
UNSCORED_FINAL_PINS = {
    (2, 1, 2, 2): (0.8325817318774063, 0.8325815930337223, 0.8325850897156093),
    (3, 2, 2, 2): (0.7904707681557958, 0.789592381901554),
}


@pytest.mark.parametrize(
    "dims, seed, restarts, want_values, want_winner",
    [
        (
            (2, 1, 2, 2),
            2,
            3,
            (0.8325915953210995, 0.8325914684566003, 0.8325967530412275),
            2,
        ),
        ((3, 2, 2, 2), 7, 2, (0.790527642118506, 0.7896764583364716), 0),
    ],
)
def test_search_trajectory_is_pinned(dims, seed, restarts, want_values, want_winner):
    # reference trajectories: any change to what a search iteration
    # computes (objective, gradient, line search, retraction) moves them
    cfg = OptimizeConfig(
        *dims, restarts=restarts, max_iters=300, **SMALL, seed=seed
    )
    point = optimize_qsb(cfg)
    assert point.restart_values == pytest.approx(want_values, rel=0, abs=1e-12)
    assert all(v >= f for v, f in zip(point.restart_values, UNSCORED_FINAL_PINS[dims]))
    assert point.winner_restart == want_winner
    assert point.iterations_used == 300
    assert point.stop_reasons[want_winner] == "max_iters"


@pytest.mark.parametrize(
    "dims, seed, operand, want_value",
    [
        # d_b < d_c and d_a > 1 on the Gram form: K_B carries padding rows
        ((3, 2, 2, 3), 11, "search_probes", 0.784989107170103),
        # d_b > d_c on |K P|^2, which the default probes never pick at d_s = 2
        ((2, 1, 3, 2), 12, "_outer_columns", 0.8327535410271729),
    ],
)
def test_asymmetric_search_trajectory_is_pinned(monkeypatch, dims, seed, operand, want_value):
    # reference trajectories outside the symmetric, Gram-form pins above
    monkeypatch.setattr(optimize_module, "search_probes", getattr(qsb_module, operand))
    cfg = OptimizeConfig(*dims, restarts=1, max_iters=300, **SMALL, seed=seed)
    point = optimize_qsb(cfg)
    assert point.restart_values == pytest.approx((want_value,), rel=0, abs=1e-12)
    assert point.iterations_used == 300
    assert point.stop_reasons == ("max_iters",)


def test_no_point_is_evaluated_twice(monkeypatch):
    # one evaluation of the start point, then one per Armijo trial: the
    # accepted trial's values carry over to the next iteration
    restarts: list[dict] = []
    run_restart = optimize_module._run_restart
    evaluate = optimize_module.branch_values
    retract = optimize_module._qr_positive

    def recording_restart(*args, **kwargs):
        restarts.append({"points": [], "trials": 0})
        return run_restart(*args, **kwargs)

    def recording_values(u, vab, vac, *rest):
        restarts[-1]["points"].append((u.tobytes(), vab.tobytes(), vac.tobytes()))
        return evaluate(u, vab, vac, *rest)

    def counting_retraction(m):
        restarts[-1]["trials"] += 1
        return retract(m)

    monkeypatch.setattr(optimize_module, "_run_restart", recording_restart)
    monkeypatch.setattr(optimize_module, "branch_values", recording_values)
    monkeypatch.setattr(optimize_module, "_qr_positive", counting_retraction)
    cfg = OptimizeConfig(2, 1, 2, 2, restarts=3, max_iters=300, **SMALL, seed=2)
    optimize_qsb(cfg)
    assert len(restarts) == 3
    for r in restarts:
        assert len(set(r["points"])) == len(r["points"])
        assert len(r["points"]) == 1 + r["trials"]
        assert r["trials"] >= cfg.max_iters  # each iteration tries at least one step


def test_optimize_rejects_bad_warm_start():
    cfg = OptimizeConfig(
        d_s=2, d_a=2, d_b=1, d_c=1, restarts=1, max_iters=10, **SMALL
    )
    bad = (np.eye(3, dtype=np.complex128),) * 3
    with pytest.raises(InvariantViolation):
        optimize_qsb(cfg, initial_points=[bad])


def test_frontier_monotone_qubit():
    cfg = OptimizeConfig(
        d_s=2, d_a=1, d_b=2, d_c=2, restarts=2, max_iters=200, **SMALL, seed=5
    )
    points = frontier_sweep(2, [1, 2], 2, 2, config=cfg)
    assert len(points) == 2
    vals = [p.best_worst_fidelity for p in points]
    assert vals[1] >= vals[0] - 1e-9  # also enforced inside the sweep
    # a trivial shared subsystem cannot beat symmetric cloning
    assert 0.70 <= vals[0] <= 5.0 / 6.0 + 0.01
    # once the source fits in the shared subsystem the task is exactly solvable
    assert vals[1] >= 1.0 - 1e-6


def test_frontier_monotone_qutrit():
    cfg = OptimizeConfig(
        d_s=3,
        d_a=3,
        d_b=3,
        d_c=3,
        restarts=2,
        max_iters=150,
        haar_count=30,
        phase_count=4,
        seed=6,
    )
    points = frontier_sweep(3, [1, 2, 3], 3, 3, config=cfg)
    vals = [p.best_worst_fidelity for p in points]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 1.0 - 1e-6


def test_frontier_rejects_empty_range():
    with pytest.raises(InvariantViolation):
        frontier_sweep(2, [], 2, 2)
