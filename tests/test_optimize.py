"""Riemannian search over broadcast instances: gradients, restarts, frontier."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import qsblab.optimize as optimize_module
import qsblab.qsb as qsb_module
from _reference import stage_objective
from qsblab.errors import InvariantViolation, TooLarge
from qsblab.optimize import (
    FrontierPoint,
    OptimizeConfig,
    branch_values,
    frontier_sweep,
    optimize_qsb,
)
from qsblab.qsb import (
    QsbInstance,
    perfect_qsb_construct,
    probe_matrix,
    search_probes,
    werner_cloner_construct,
)

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
    for kwargs, match in (
        (dict(restarts=0), "restarts = 0 must be >= 1"),
        (dict(max_iters=0), "max_iters = 0 must be >= 1"),
        (dict(haar_count=-1), "haar_count = -1 must be >= 0"),
        (dict(phase_count=-1), "phase_count = -1 must be >= 0"),
        (dict(d_b=0), "d_b = 0 must be >= 1"),
    ):
        with pytest.raises(InvariantViolation, match=match):
            OptimizeConfig(**{"d_s": 2, "d_a": 2, "d_b": 2, "d_c": 2, **kwargs})


def test_config_and_sweep_take_only_integer_counts(monkeypatch):
    # a float, even 2.0, or a bool is refused, not truncated: restarts=1.5 is
    # no count of restarts, and [1.7, 2.2] names no shared dimensions; the
    # sweep refuses before it evaluates anything
    monkeypatch.setattr(optimize_module, "branch_values", lambda *args: 1 / 0)
    for name in ("d_s", "d_a", "d_b", "d_c", "env_dim", "restarts", "max_iters",
                 "haar_count", "phase_count"):
        kwargs = dict(d_s=2, d_a=1, d_b=2, d_c=2, env_dim=8)
        for value in (float(kwargs.get(name, 2)), 1.5, True):
            with pytest.raises(TypeError, match=f"{name} .* not an integer"):
                OptimizeConfig(**{**kwargs, name: value})
    cfg = OptimizeConfig(np.int64(2), 1, 2, 2, restarts=np.int32(1), max_iters=10, **SMALL)
    assert type(cfg.d_s) is int and type(cfg.restarts) is int
    for values in ([1.7, 2.2], [1, 2.0], [True]):
        with pytest.raises(TypeError, match="d_a .* not an integer"):
            frontier_sweep(cfg, values)


def test_a_decreasing_frontier_is_an_invariant_violation(monkeypatch):
    # each point is seeded with the previous winner, so its best cannot fall
    # below it; a search that returns less anyway is reported, not smoothed over
    bests = iter((0.9, 0.8))
    monkeypatch.setattr(
        optimize_module,
        "optimize_qsb",
        lambda cfg, seeds=(): SimpleNamespace(best_worst_fidelity=next(bests), best_instance=None),
    )
    with pytest.raises(InvariantViolation, match="frontier decreased with growing shared dimension"):
        frontier_sweep(OptimizeConfig(2, 1, 2, 2, **SMALL), [1, 2])


def test_config_seed_follows_the_integer_rule():
    # a bool is no seed 1 and a float no seed; a negative seed is refused here,
    # not deep in numpy's default_rng
    for value in (True, 1.0):
        with pytest.raises(TypeError, match="seed .* not an integer"):
            OptimizeConfig(2, 1, 2, 2, seed=value)
    with pytest.raises(InvariantViolation, match="seed = -1 must be >= 0"):
        OptimizeConfig(2, 1, 2, 2, seed=-1)
    assert type(OptimizeConfig(2, 1, 2, 2, seed=np.int64(7)).seed) is int


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

    def steep_rank_one_tangent(x, g, xc, out):
        xi = tangent(x, g)[..., :1]
        xi = xi - x @ (x.conj().swapaxes(-1, -2) @ xi)
        return 1e8 * xi * np.array([1.0, 0.5])

    def checked_retraction(m, out):
        q = retract(m, out)
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


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_lapack_gufuncs_match_the_linalg_wrappers(k):
    # the retraction calls numpy's private gufuncs; a numpy release that
    # renames or changes them fails here, not in a search
    rng = np.random.default_rng(k)
    b = rng.normal(size=(3, k + 2, k)) + 1j * rng.normal(size=(3, k + 2, k))
    a = b.conj().swapaxes(-1, -2) @ b
    l = optimize_module._cholesky_lo(a)
    assert np.array_equal(l, np.linalg.cholesky(a))
    assert np.array_equal(optimize_module._inv(l), np.linalg.inv(l))


@pytest.mark.parametrize("dims", [(2, 1, 2, 2, 8), (3, 2, 2, 2, 16), (4, 3, 2, 2, 16)])
def test_retraction_matches_the_linalg_wrappers(dims):
    # bit for bit, so the search's trajectories are those of np.linalg
    d_s, d_a, d_b, d_c, d_e = dims
    rows = (d_a * d_b * d_c * d_e, d_a * d_b, d_a * d_c)
    rng = np.random.default_rng(sum(dims))
    x = np.zeros((3, rows[0], d_s), dtype=np.complex128)
    g = np.zeros_like(x)
    for k, n in enumerate(rows):
        x[k, :n] = _haar(n, d_s, rng)
        g[k, :n] = rng.normal(size=(n, d_s)) + 1j * rng.normal(size=(n, d_s))
    xi = optimize_module._tangent(x, g)
    for t in (1e-8, 1e-3, 0.5, 3.0, 10.0, 100.0):
        m = x + t / np.linalg.norm(xi) * xi
        l = np.linalg.cholesky(m.conj().swapaxes(-1, -2) @ m)
        want = m @ np.linalg.inv(l).conj().swapaxes(-1, -2)
        assert np.array_equal(optimize_module._qr_positive(m), want)


def test_full_restart_returns_isometries():
    cfg = OptimizeConfig(2, 1, 2, 2, env_dim=8, restarts=1, max_iters=2000, **SMALL)
    cols = _probe_cols(cfg, np.random.default_rng(8), n=30)
    init = _params_for(cfg, np.random.default_rng(9))
    out = optimize_module._run_restart(cfg, probe_matrix(cols), init, 0)
    assert out.stop_reason == "converged" and out.iterations < cfg.max_iters
    for m in out.params:
        assert np.max(np.abs(m.conj().T @ m - np.eye(cfg.d_s))) <= 1e-12


def _value_along(x, xi, t, cols, dims4, temp):
    """The stage's soft minimum at _qr_positive(x + t xi), a point its line search tries."""
    x_t = optimize_module._qr_positive(x + t * xi)
    return stage_objective(*optimize_module._unpad(x_t, dims4), cols, dims4, temp)[0]


def test_gradient_steps_ascend():
    cfg = OptimizeConfig(d_s=2, d_a=1, d_b=2, d_c=2, env_dim=2, **SMALL)
    rng = np.random.default_rng(3)
    improved = 0
    for _ in range(40):
        u, vab, vac = _params_for(cfg, rng)
        cols = _probe_cols(cfg, rng)
        before, _, x, xi, _ = stage_objective(u, vab, vac, cols, cfg.dims4, temp=40.0)
        after = _value_along(x, xi, 1e-3, cols, cfg.dims4, temp=40.0)
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
            return stage_objective(*mats, cols, cfg.dims4, temp=30.0)[0]

        _, (g_u, g_ab, g_ac), *_ = stage_objective(u, vab, vac, cols, cfg.dims4, temp=30.0)
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


@pytest.mark.parametrize("n_cols", [8, 3])
def test_armijo_slope_is_the_derivative_along_the_retraction(n_cols):
    # the slope the Armijo test reads is the soft minimum's derivative along the
    # curve the line search retracts; 8 columns at d_S = 2 give the Gram
    # operand, 3 < d_S^2 the outer products
    cfg = OptimizeConfig(d_s=2, d_a=1, d_b=2, d_c=2, env_dim=2, **SMALL)
    rng = np.random.default_rng(n_cols)
    h = 1e-5
    for _ in range(20):
        u, vab, vac = _params_for(cfg, rng)
        cols = _probe_cols(cfg, rng, n=n_cols)
        assert search_probes(cols).dtype.kind == ("f" if n_cols == 8 else "c")
        _, _, x, xi, slope = stage_objective(u, vab, vac, cols, cfg.dims4, temp=30.0)
        plus, minus = (_value_along(x, xi, t, cols, cfg.dims4, temp=30.0) for t in (h, -h))
        assert (plus - minus) / (2.0 * h) == pytest.approx(slope, rel=1e-6)


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
        got_value, got_grads, *_ = stage_objective(u, vab, vac, cols, cfg.dims4, 25.0)
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
    got_value, got_grads, *_ = stage_objective(u, vab, vac, cols, cfg.dims4, 25.0)
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


def test_optimize_is_deterministic():
    cfg = OptimizeConfig(
        d_s=2, d_a=1, d_b=2, d_c=2, restarts=2, max_iters=60, **SMALL, seed=3
    )
    p1 = optimize_qsb(cfg)
    p2 = optimize_qsb(cfg)
    assert p1.restart_values == p2.restart_values
    assert p1.best_worst_fidelity == p2.best_worst_fidelity
    assert p1.winner_restart == p2.winner_restart


@pytest.mark.parametrize(
    "dims, seed, restarts, want_values, want_winner, want_iters, want_stop",
    [
        (
            (2, 1, 2, 2),
            2,
            3,
            (0.8333262140849929, 0.8333262654971818, 0.833326429125689),
            2,
            223,
            "converged",
        ),
        ((3, 2, 2, 2), 7, 2, (0.7958165467943976, 0.7980663837468127), 1, 300, "max_iters"),
    ],
    ids=["2-1-2-2-seed2", "3-2-2-2-seed7"],
)
def test_search_trajectory_is_pinned(
    dims, seed, restarts, want_values, want_winner, want_iters, want_stop
):
    # reference trajectories: any change to what a search iteration
    # computes (objective, gradient, line search, retraction, ladder) moves them
    cfg = OptimizeConfig(
        *dims, restarts=restarts, max_iters=300, **SMALL, seed=seed
    )
    point = optimize_qsb(cfg)
    assert point.restart_values == pytest.approx(want_values, rel=0, abs=1e-12)
    assert point.winner_restart == want_winner
    assert point.iterations_used == want_iters
    # 300 iterations give each of the ten stages 30: the qubit search converges
    # within them, and at (3,2,2,2) the top stage ends on its cap
    assert point.stop_reasons == (want_stop,) * restarts


@pytest.mark.parametrize(
    "dims, seed, operand, want_value, want_iters, want_stop",
    [
        # d_b < d_c and d_a > 1 on the Gram form: K_B carries padding rows
        ((3, 2, 2, 3), 11, "search_probes", 0.7928521993239374, 300, "max_iters"),
        # d_b > d_c on |K P|^2, which the default probes never pick at d_s = 2
        ((2, 1, 3, 2), 12, "_outer_columns", 0.8333282936418351, 197, "converged"),
    ],
    ids=["3-2-2-3-gram", "2-1-3-2-outer"],
)
def test_asymmetric_search_trajectory_is_pinned(
    monkeypatch, dims, seed, operand, want_value, want_iters, want_stop
):
    # reference trajectories outside the symmetric, Gram-form pins above
    monkeypatch.setattr(optimize_module, "search_probes", getattr(qsb_module, operand))
    cfg = OptimizeConfig(*dims, restarts=1, max_iters=300, **SMALL, seed=seed)
    point = optimize_qsb(cfg)
    assert point.restart_values == pytest.approx((want_value,), rel=0, abs=1e-12)
    assert point.iterations_used == want_iters
    assert point.stop_reasons == (want_stop,)


@pytest.mark.parametrize(
    "d, seed",
    [
        pytest.param(2, 42, id="2"),
        pytest.param(3, 42, id="3"),
        pytest.param(3, 1, id="3-seed1"),
        pytest.param(3, 2, id="3-seed2"),
        pytest.param(4, 42, id="4"),
    ],
)
def test_search_converges_to_the_cloning_ceiling(d, seed):
    # at d_A = 1 the task is symmetric cloning, whose ceiling is Werner's
    # (d+3)/(2(d+1)); the top stage's soft minimum sits within log(2n)/TEMP_MAX
    # of the hard one, and the search stops there on its own
    point = optimize_qsb(OptimizeConfig(d, 1, d, d, restarts=1, seed=seed))
    assert abs(point.best_worst_fidelity - (d + 3) / (2 * (d + 1))) <= 2e-5
    assert point.stop_reasons == ("converged",)


def test_budget_is_only_a_cap():
    # every stage of this search ends on the gradient test, so a larger
    # budget changes nothing it reports
    cfg = OptimizeConfig(2, 1, 2, 2, env_dim=8, restarts=1, max_iters=2000, haar_count=200, seed=42)
    point = optimize_qsb(cfg)
    assert point.stop_reasons == ("converged",)
    assert point.to_json() == optimize_qsb(replace(cfg, max_iters=4000)).to_json()
    # pinned: this is the ceiling-search benchmark's own call, so any change to
    # what its search computes shows here
    assert point.iterations_used == 101
    assert point.best_worst_fidelity == pytest.approx(0.8333297225379448, rel=0, abs=1e-12)


def test_a_budget_below_the_stage_count_is_spent_and_kept():
    # one iteration per stage until the budget is spent; the later stages are
    # empty, and the stop reads max_iters
    assert optimize_module.STAGES > 5
    point = optimize_qsb(OptimizeConfig(2, 1, 2, 2, restarts=1, max_iters=5, **SMALL))
    assert point.iterations_used == 5
    assert point.stop_reasons == ("max_iters",)


def test_a_line_search_that_finds_no_ascent_ends_the_restart(monkeypatch):
    # every trial point reads lower than the start, so the first iteration's
    # backtracking runs out, and the start stays the best point
    starts = []
    evaluate = optimize_module.branch_values

    def lower_after_the_start(*args):
        f, cached = evaluate(*args)
        if not starts:
            starts.append(float(f.min()))
            return f, cached
        return f - 1.0, cached

    monkeypatch.setattr(optimize_module, "branch_values", lower_after_the_start)
    point = optimize_qsb(OptimizeConfig(2, 1, 2, 2, restarts=1, max_iters=300, **SMALL))
    assert point.stop_reasons == ("line_search_exhausted",)
    assert point.iterations_used == 1
    assert point.restart_values == (starts[0],)


def test_step_rule_needs_few_iterations_and_trials(monkeypatch):
    # the BB step is mostly accepted at once: a step rule that guesses and
    # backtracks took 218 iterations at about 1.4 trials each here
    trials = []
    retract = optimize_module._qr_positive

    def counting_retraction(m, out):
        trials.append(1)
        return retract(m, out)

    monkeypatch.setattr(optimize_module, "_qr_positive", counting_retraction)
    point = optimize_qsb(OptimizeConfig(2, 1, 2, 2, env_dim=8, restarts=1, seed=42))
    assert point.stop_reasons == ("converged",)
    assert point.iterations_used < 150
    assert len(trials) < 1.25 * point.iterations_used


def test_no_point_is_evaluated_twice(monkeypatch):
    # one evaluation of the start point, then one per Armijo trial: the
    # accepted trial's values, its soft minimum among them, carry over to the
    # next iteration, and a soft minimum is taken again only when a stage's
    # new temperature changes it
    restarts: list[dict] = []
    run_restart = optimize_module._run_restart
    evaluate = optimize_module.branch_values
    retract = optimize_module._qr_positive
    soft_min = optimize_module._soft_min

    def recording_restart(*args, **kwargs):
        restarts.append({"points": [], "trials": 0, "soft_mins": 0})
        out = run_restart(*args, **kwargs)
        restarts[-1]["iterations"] = out.iterations
        return out

    def recording_values(u, vab, vac, *rest):
        restarts[-1]["points"].append((u.tobytes(), vab.tobytes(), vac.tobytes()))
        return evaluate(u, vab, vac, *rest)

    def counting_retraction(m, out):
        restarts[-1]["trials"] += 1
        return retract(m, out)

    def counting_soft_min(*args):
        restarts[-1]["soft_mins"] += 1
        return soft_min(*args)

    monkeypatch.setattr(optimize_module, "_run_restart", recording_restart)
    monkeypatch.setattr(optimize_module, "branch_values", recording_values)
    monkeypatch.setattr(optimize_module, "_qr_positive", counting_retraction)
    monkeypatch.setattr(optimize_module, "_soft_min", counting_soft_min)
    cfg = OptimizeConfig(2, 1, 2, 2, restarts=3, max_iters=300, **SMALL, seed=2)
    optimize_qsb(cfg)
    assert len(restarts) == 3
    for r in restarts:
        assert len(set(r["points"])) == len(r["points"])
        assert len(r["points"]) == 1 + r["trials"]
        assert r["trials"] >= r["iterations"]  # each iteration tries at least one step
        assert r["soft_mins"] <= len(r["points"]) - 1 + optimize_module.STAGES
    # pinned: a retraction that moves any step changes how many trials it takes
    assert [r["trials"] for r in restarts] == [217, 205, 230]


@pytest.mark.parametrize("operand", [probe_matrix, qsb_module._outer_columns])
def test_every_direction_takes_the_one_gradient(monkeypatch, operand):
    # the gradient counterpart of test_no_point_is_evaluated_twice: each
    # direction of a restart comes from branch_grads, the gradient the gates
    # check, on either probe operand, and from no second composition of it
    calls = {"directions": 0, "grads": 0}
    direction, grads = optimize_module._direction, optimize_module.branch_grads

    def counting_direction(*args):
        calls["directions"] += 1
        return direction(*args)

    def counting_grads(*args):
        calls["grads"] += 1
        return grads(*args)

    monkeypatch.setattr(optimize_module, "_direction", counting_direction)
    monkeypatch.setattr(optimize_module, "branch_grads", counting_grads)
    cfg = OptimizeConfig(2, 1, 2, 2, env_dim=4, restarts=1, max_iters=300, **SMALL)
    cols = _probe_cols(cfg, np.random.default_rng(12), n=30)
    init = _params_for(cfg, np.random.default_rng(13))
    out = optimize_module._run_restart(cfg, operand(cols), init, 0)
    assert calls["directions"] >= out.iterations > 0
    assert calls["grads"] == calls["directions"]


def _arrays(obj):
    """Every array an object of the restart's scratch holds, views included."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _arrays(item)
    elif hasattr(obj, "__dict__"):
        yield from _arrays(list(vars(obj).values()))


def test_a_restart_owns_what_it_returns(monkeypatch):
    # a restart writes every iterate into the two slots it allocates, and returns
    # a copy of its best point: neither its own later trials nor a later restart
    # can change what it returned, and no instance shares memory with a slot
    scratch, slots = optimize_module._scratch, []

    def recording_scratch(*args):
        slots.append(scratch(*args))
        return slots[-1]

    monkeypatch.setattr(optimize_module, "_scratch", recording_scratch)
    cfg = OptimizeConfig(3, 2, 2, 3, env_dim=4, restarts=2, max_iters=60, **SMALL)
    probes = probe_matrix(_probe_cols(cfg, np.random.default_rng(14), n=30))
    rng = np.random.default_rng(15)
    first = optimize_module._run_restart(cfg, probes, _params_for(cfg, rng), 0)
    kept = [m.copy() for m in first.params]
    optimize_module._run_restart(cfg, probes, _params_for(cfg, rng), 1)
    assert all(np.array_equal(m, k) for m, k in zip(first.params, kept))
    f, _ = branch_values(*first.params, probes, cfg.dims4)
    assert float(f.min()) == first.best_hard

    inst = optimize_qsb(cfg).best_instance
    assert len(slots) == 4
    scratch_arrays = list(_arrays(slots))
    for m in (*first.params, inst.u, inst.v_abs, inst.v_acs):
        assert not any(np.shares_memory(m, a) for a in scratch_arrays)


def test_optimize_rejects_bad_warm_start(monkeypatch):
    # refused before any evaluation: a seed that does not fit the search space
    # would otherwise run, or fail, deep inside the search
    def no_evaluation(*args):
        raise AssertionError("the search ran")

    monkeypatch.setattr(optimize_module, "branch_values", no_evaluation)
    cfg = OptimizeConfig(2, 1, 2, 2, env_dim=2, restarts=1, max_iters=10, **SMALL)
    fits = werner_cloner_construct(2)  # (2, 1, 2, 2) with d_e = 2
    for bad in (werner_cloner_construct(3), perfect_qsb_construct(2, 2, 2, 2)):  # d_s, d_a
        with pytest.raises(InvariantViolation, match="seed 1 with dims .* does not fit"):
            optimize_qsb(cfg, seeds=[fits, bad])
    with pytest.raises(InvariantViolation, match=r"seed 0 with dims \(2, 1, 2, 2, 2\)"):
        optimize_qsb(replace(cfg, env_dim=1), seeds=[fits])  # a larger d_e

    # a matrix off the manifold never becomes a seed: the instance refuses it
    u, vab, vac = _params_for(cfg, np.random.default_rng(3))
    with pytest.raises(InvariantViolation, match="completeness violated"):
        QsbInstance.from_stinespring(3 * u, vab, vac, 1, 2, 2)
    vac[1, 0] = np.nan
    with pytest.raises(InvariantViolation, match="isometry of v_acs violated by nan"):
        QsbInstance.from_stinespring(u, vab, vac, 1, 2, 2)


@pytest.mark.parametrize("d, d_bc", [(2, 2), (2, 3), (3, 3)])
def test_werner_seed_starts_and_ends_at_the_cloning_ceiling(monkeypatch, d, d_bc):
    # Werner's cloner, zero-padded into B and C where the search's are larger,
    # is the first restart's start; a search never ends below its start
    ceiling = (d + 3) / (2 * (d + 1))
    starts = []
    values = optimize_module.branch_values

    def recording_values(*args):
        f, cached = values(*args)
        starts.append(float(f.min()))
        return f, cached

    monkeypatch.setattr(optimize_module, "branch_values", recording_values)
    cfg = OptimizeConfig(d, 1, d_bc, d_bc, restarts=2, max_iters=100, **SMALL)
    point = optimize_qsb(cfg, seeds=[werner_cloner_construct(d)])
    assert starts[0] >= ceiling - 1e-12
    assert point.restart_values[0] >= ceiling - 1e-12
    assert point.best_worst_fidelity >= ceiling - 1e-12


def test_frontier_monotone_qubit():
    cfg = OptimizeConfig(
        d_s=2, d_a=1, d_b=2, d_c=2, restarts=2, max_iters=200, **SMALL, seed=5
    )
    points = frontier_sweep(cfg, [1, 2])
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
    points = frontier_sweep(cfg, [1, 2, 3])
    vals = [p.best_worst_fidelity for p in points]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))
    assert vals[-1] >= 1.0 - 1e-6


def test_frontier_sweep_honours_env_dim():
    cfg = OptimizeConfig(2, 1, 2, 2, env_dim=2, restarts=1, max_iters=5)
    assert [p.best_instance.d_e for p in frontier_sweep(cfg, [1, 2])] == [2, 2]
    # without one, each point sizes its own environment
    points = frontier_sweep(replace(cfg, env_dim=None), [1, 2])
    assert [p.best_instance.d_e for p in points] == [8, 16]


def test_frontier_sweep_refuses_a_range_past_the_cap_before_any_search(monkeypatch):
    # d_A = 5 gives 5 * 8 * 8 * 16 = 5120 > 4096: refused before d_A = 3 and 4 are searched
    calls = []
    monkeypatch.setattr(optimize_module, "optimize_qsb", lambda cfg, seeds=(): calls.append(cfg))
    with pytest.raises(TooLarge, match="total dimension 5120 exceeds 4096"):
        frontier_sweep(OptimizeConfig(8, 3, 8, 8), range(3, 6))
    assert calls == []


def test_frontier_rejects_empty_range(monkeypatch):
    with pytest.raises(InvariantViolation):
        frontier_sweep(OptimizeConfig(d_s=2, d_a=1, d_b=2, d_c=2), [])
    # a shared dimension below 1 is refused before any point is searched
    monkeypatch.setattr(optimize_module, "branch_values", lambda *args: 1 / 0)
    with pytest.raises(InvariantViolation, match="d_a = 0 must be >= 1"):
        frontier_sweep(OptimizeConfig(d_s=2, d_a=1, d_b=2, d_c=2), [0, 1])
