"""Closeness measures: fixed-value oracles, exact inequalities, Uhlmann partners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsblab import hilbert, metrics
from qsblab.errors import BadPurification, LayoutMismatch
from qsblab.hilbert import (
    RANK_CUTOFF,
    DensityMatrix,
    PureState,
    SpaceLayout,
    basis_state,
    haar_density_matrix,
    haar_vector,
    partial_trace,
    purify,
    random_density,
    random_pure,
    tensor,
    validate_density,
)
from qsblab.metrics import (
    PROPERTY_NAMES,
    BoundCheck,
    check_fvdg,
    check_monotonicity,
    check_triangle,
    check_triangle_pure,
    fidelity,
    fidelity_pure,
    fidelity_states,
    max_eig_convexity,
    property_sweep,
    trace_distance,
    uhlmann_partner,
)

QUBIT = SpaceLayout([("Q", 2)])


def _diag(p):
    return DensityMatrix(QUBIT, np.diag(np.asarray(p, dtype=np.complex128)))


def test_commuting_diagonal_oracle():
    # (sqrt(.45) + sqrt(.05))^2 = 0.8 and half the l1 gap is 0.4, both exact.
    rho = _diag([0.5, 0.5])
    sigma = _diag([0.9, 0.1])
    assert fidelity(rho, sigma) == pytest.approx(0.8, abs=1e-12)
    assert trace_distance(rho, sigma) == pytest.approx(0.4, abs=1e-12)


def test_fidelity_self_and_orthogonal():
    rho = random_density(SpaceLayout([("Q", 4)]), 3, 11)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-10)
    e0, e1 = basis_state(QUBIT, 0), basis_state(QUBIT, 1)
    assert fidelity_states(e0, e1) == 0.0
    assert fidelity_pure(e0.density(), e1) == pytest.approx(0.0, abs=1e-14)


def test_pure_special_cases_agree():
    lay = SpaceLayout([("Q", 3)])
    rho = random_density(lay, 2, 5)
    psi = random_pure(lay, 6)
    direct = fidelity_pure(rho, psi)
    general = fidelity(rho, psi.density())
    assert direct == pytest.approx(general, abs=1e-8)

    phi = random_pure(lay, 7)
    assert fidelity_states(psi, phi) == pytest.approx(
        fidelity(psi.density(), phi.density()), abs=1e-9
    )


def test_layout_mismatch_rejected():
    other = DensityMatrix(SpaceLayout([("R", 2)]), np.eye(2, dtype=np.complex128) / 2)
    with pytest.raises(LayoutMismatch):
        fidelity(_diag([0.5, 0.5]), other)
    with pytest.raises(LayoutMismatch):
        trace_distance(_diag([0.5, 0.5]), other)
    with pytest.raises(LayoutMismatch):
        fidelity_pure(other, basis_state(QUBIT, 0))


@given(d=st.integers(2, 6), seed=st.integers(0, 10**6))
@settings(max_examples=40)
def test_fidelity_symmetric_and_in_range(d, seed):
    rng = np.random.default_rng(seed)
    lay = SpaceLayout([("Q", d)])
    a = random_density(lay, int(rng.integers(1, d + 1)), rng)
    b = random_density(lay, int(rng.integers(1, d + 1)), rng)
    f_ab, f_ba = fidelity(a, b), fidelity(b, a)
    assert 0.0 <= f_ab <= 1.0
    assert f_ab == pytest.approx(f_ba, abs=1e-8)
    assert trace_distance(a, b) == pytest.approx(trace_distance(b, a), abs=1e-10)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40)
def test_triangle_chains_hold(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    lay = SpaceLayout([("Q", d)])
    states = [random_density(lay, int(rng.integers(1, d + 1)), rng) for _ in range(3)]
    chk = check_triangle(*states)
    assert chk.satisfied and chk.slack >= -1e-9

    psi = random_pure(lay, rng)
    chk_p = check_triangle_pure(states[0], states[1], psi)
    assert chk_p.satisfied and chk_p.slack >= -1e-9


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40)
def test_monotone_under_discard(seed):
    rng = np.random.default_rng(seed)
    lay = SpaceLayout([("Q", int(rng.integers(2, 4))), ("R", int(rng.integers(2, 4)))])
    a = random_density(lay, int(rng.integers(1, lay.total_dim + 1)), rng)
    b = random_density(lay, int(rng.integers(1, lay.total_dim + 1)), rng)
    chk = check_monotonicity(a, b, ["Q"])
    assert chk.satisfied
    # marginal fidelity really is the lhs recorded on the check
    assert chk.lhs == pytest.approx(
        fidelity(partial_trace(a, ["Q"]), partial_trace(b, ["Q"])), abs=1e-12
    )


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40)
def test_distance_fidelity_sandwich(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(2, 7))
    lay = SpaceLayout([("Q", d)])
    a = random_density(lay, int(rng.integers(1, d + 1)), rng)
    b = random_density(lay, int(rng.integers(1, d + 1)), rng)
    lower, upper = check_fvdg(a, b)
    assert lower.satisfied and upper.satisfied


def test_sandwich_tight_for_pure_pair():
    # D = sqrt(1 - F) exactly when both states are pure.
    lay = SpaceLayout([("Q", 3)])
    a = random_pure(lay, 1).density()
    b = random_pure(lay, 2).density()
    _, upper = check_fvdg(a, b)
    assert abs(upper.slack) < 1e-9


def test_uhlmann_partner_achieves_fidelity():
    for d, seed in [(2, 0), (3, 1), (4, 2)]:
        lay = SpaceLayout([("Q", d)])
        rng = np.random.default_rng(seed)
        rho = random_density(lay, d, rng)
        sigma = random_density(lay, int(rng.integers(1, d + 1)), rng)
        phi = purify(rho, "E")
        chi = uhlmann_partner(rho, sigma, phi)
        assert chi.layout == phi.layout
        assert abs(phi.overlap(chi)) ** 2 == pytest.approx(fidelity(rho, sigma), abs=1e-8)
        # the partner really purifies sigma
        marg = partial_trace(chi.density(), ["Q"])
        assert float(np.max(np.abs(marg.matrix - sigma.matrix))) < 1e-8


def test_uhlmann_partner_covers_support_the_overlap_misses():
    # a rank-1 rho purified into a 3-dim environment leaves the cross operator
    # rank 1, so two support directions of sigma are completed isometrically
    lay = SpaceLayout([("Q", 3)])
    rng = np.random.default_rng(4)
    for _ in range(3):
        v = random_pure(lay, rng)
        phi = tensor(v, basis_state(SpaceLayout([("E", 3)]), 0))
        sigma = random_density(lay, 3, rng)
        chi = uhlmann_partner(v.density(), sigma, phi)
        assert abs(phi.overlap(chi)) ** 2 == pytest.approx(fidelity_pure(sigma, v), abs=1e-12)
        marg = partial_trace(chi.density(), ["Q"])
        assert float(np.max(np.abs(marg.matrix - sigma.matrix))) < 1e-12


def test_uhlmann_partner_rejections():
    lay = SpaceLayout([("Q", 2)])
    rho = random_density(lay, 2, 3)
    sigma = random_density(lay, 2, 4)
    with pytest.raises(BadPurification):
        uhlmann_partner(rho, sigma, random_pure(lay, 5))  # no environment at all
    big = SpaceLayout([("Q", 2), ("E", 2)])
    with pytest.raises(BadPurification):
        uhlmann_partner(rho, sigma, random_pure(big, 6))  # wrong marginal
    pure_rho = basis_state(lay, 0).density()
    skinny = purify(pure_rho, "E")  # rank-1 source, environment dim 1
    with pytest.raises(BadPurification):
        uhlmann_partner(pure_rho, sigma, skinny)


def test_convexity_ceilings():
    lay = SpaceLayout([("Q", 4)])
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_density(lay, int(rng.integers(1, 5)), rng)
        psi = random_pure(lay, rng)
        rep = max_eig_convexity(rho, psi)
        f = fidelity_pure(rho, psi)
        assert rep.eigen_bound.satisfied
        assert rep.component_bound.satisfied
        assert rep.lambda_max >= f - 1e-9
        assert rep.best_overlap >= f - 1e-9
        assert rep.best_eigenvalue > RANK_CUTOFF  # the best overlap is over the support
        assert rep.tighter.lhs == min(rep.eigen_bound.lhs, rep.component_bound.lhs)


def test_convexity_near_pure_picks_top_eigenvector():
    # rho close to |0><0|: the best-overlap eigenvector is the dominant one.
    lay = SpaceLayout([("Q", 2)])
    mat = np.diag([0.99, 0.01]).astype(np.complex128)
    rep = max_eig_convexity(DensityMatrix(lay, mat), basis_state(lay, 0))
    assert rep.best_eigenvalue == pytest.approx(rep.lambda_max)
    assert abs(rep.best_eigenvector.overlap(rep.top_eigenvector)) == pytest.approx(1.0)


def test_bound_check_semantics():
    chk = BoundCheck.of(0.5, 0.25, label="demo")
    assert chk.slack == pytest.approx(0.25)
    assert chk.satisfied and not chk.vacuous
    # tolerance rescues tiny negative slack, nothing more
    assert BoundCheck.of(1.0, 1.0 + 5e-10).satisfied
    assert not BoundCheck.of(1.0, 1.0 + 5e-9).satisfied
    assert BoundCheck.of(0.0, 1.0, tol=2.0).satisfied
    row = BoundCheck.of(0.2, 0.1, label="r").row(seed=7)
    assert row[0] == "r" and row[-1] == 7 and len(row) == 7
    assert len(BoundCheck.of(0.2, 0.1).row()) == 6


def test_property_sweep_clean_small():
    assert property_sweep(1000, 16, seed=7) == []


def test_property_sweep_subset_names():
    assert property_sweep(50, 8, seed=3, names=("fvdg",)) == []


def _rand_state(rng, lay):
    return random_density(lay, int(rng.integers(1, lay.total_dim + 1)), rng)


def _sweep_reference(samples, dims_cap, seed):
    """Every check of property_sweep, drawn and evaluated one state object at a time."""
    rng = np.random.default_rng(seed)
    out = {}
    for i in range(samples):
        d = int(rng.integers(2, dims_cap + 1))
        lay = SpaceLayout([("Q", d)])
        out[i, "triangle"] = check_triangle(
            _rand_state(rng, lay), _rand_state(rng, lay), _rand_state(rng, lay)
        )
        out[i, "triangle_pure"] = check_triangle_pure(
            _rand_state(rng, lay), _rand_state(rng, lay), random_pure(lay, rng)
        )
        d1 = int(rng.integers(2, max(2, int(np.sqrt(dims_cap))) + 1))
        d2 = int(rng.integers(2, max(2, dims_cap // d1) + 1))
        lay2 = SpaceLayout([("Q", d1), ("R", d2)])
        out[i, "monotonicity"] = check_monotonicity(
            _rand_state(rng, lay2), _rand_state(rng, lay2), ["Q"]
        )
        dp = int(rng.integers(2, 5))
        layp = SpaceLayout([("Q", dp)])
        r1 = random_density(layp, dp, rng)
        s1 = random_density(layp, dp, rng)
        phi = purify(r1, "E")
        overlap = abs(phi.overlap(uhlmann_partner(r1, s1, phi))) ** 2
        out[i, "partner_overlap"] = BoundCheck.of(overlap, fidelity(r1, s1), tol=1e-8)
        rep = max_eig_convexity(_rand_state(rng, lay), random_pure(lay, rng))
        out[i, "component_ceiling"] = rep.component_bound
        out[i, "eigenvalue_ceiling"] = rep.eigen_bound
        lower, upper = check_fvdg(_rand_state(rng, lay), _rand_state(rng, lay))
        out[i, "fvdg_lower"], out[i, "fvdg_upper"] = lower, upper
    return out


@pytest.mark.parametrize("seed", [7, 11])
def test_batched_sweep_matches_object_path(seed):
    ref = _sweep_reference(200, 16, seed)
    seen = set()
    for idx, label, lhs, rhs, tol in metrics._sweep_checks(200, 16, seed, PROPERTY_NAMES):
        for k, i in enumerate(idx):
            want = ref[i, label]
            assert lhs[k] == pytest.approx(want.lhs, abs=1e-12, rel=0), (i, label)
            assert rhs[k] == pytest.approx(want.rhs, abs=1e-12, rel=0), (i, label)
            assert BoundCheck.of(lhs[k], rhs[k], tol=tol).satisfied == want.satisfied
            seen.add((i, label))
    assert seen == set(ref)


def test_property_sweep_reports_failures_in_sample_order(monkeypatch):
    # a tolerance no check can meet turns every check into a failure
    monkeypatch.setattr(metrics, "_SLACK_TOL", -5.0)
    monkeypatch.setattr(metrics, "_PARTNER_TOL", -5.0)
    monkeypatch.setattr(metrics, "_SWEEP_BLOCK", 3)
    failures = property_sweep(7, 6, seed=5)
    assert [c.label for c in failures] == list(metrics._CHECK_LABELS) * 7
    ref = _sweep_reference(7, 6, seed=5)
    want = [ref[i, label].lhs for i in range(7) for label in metrics._CHECK_LABELS]
    assert [c.lhs for c in failures] == pytest.approx(want, abs=1e-12, rel=0)
    fvdg_only = property_sweep(4, 6, seed=5, names=("fvdg",))
    assert [c.label for c in fvdg_only] == ["fvdg_lower", "fvdg_upper"] * 4


def test_fidelity_against_pure_state_is_exact_on_rank_deficient_states():
    # F(rho, |u><u|) = <u|rho|u> exactly; sub-cutoff eigenvalues of either
    # side (rounding residue, or exact zeros of a clipped state) must not
    # enter F through their square roots
    rng = np.random.default_rng(2024)
    kinds = set()
    for _ in range(500):
        d = int(rng.integers(2, 9))
        lay = SpaceLayout([("Q", d)])
        m = haar_density_matrix(rng, d, int(rng.integers(1, d)))
        kinds.add(bool(validate_density(m)[1][-1] < 0.0))
        rho = DensityMatrix(lay, m)
        u = haar_vector(rng, d)
        exact = float(np.real(u.conj() @ rho.matrix @ u))
        target = DensityMatrix(lay, np.outer(u, u.conj()))
        assert fidelity(rho, target) == pytest.approx(exact, abs=1e-12, rel=0)
        assert fidelity(target, rho) == pytest.approx(exact, abs=1e-12, rel=0)
    assert kinds == {True, False}  # clipped and unclipped states both covered


def test_component_ceiling_ignores_the_kernel_basis():
    # rho = |0><0| on C^3, psi in its kernel: F = 0, and no kernel
    # eigenvector may stand in for the best overlap
    lay = SpaceLayout([("Q", 3)])
    psi = PureState(lay, np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0))
    rho = basis_state(lay, 0).density()
    rep = max_eig_convexity(rho, psi)
    assert fidelity_pure(rho, psi) == 0.0
    assert rep.best_overlap == 0.0
    assert rep.best_eigenvalue == pytest.approx(1.0)
    w, v = validate_density(rho.matrix[None])[1:]
    rows = metrics._evaluate("ceilings", 3, rho.matrix[None, None], w[None], v[None],
                             psi.amplitudes[None, None], PROPERTY_NAMES)
    assert dict((label, lhs[0]) for label, lhs, _, _ in rows)["component_ceiling"] == 0.0


@pytest.fixture
def diagonalised(monkeypatch):
    """Record the stack size of every eigh_desc call made through hilbert or metrics."""
    sizes = []
    inner = hilbert.eigh_desc

    def counted(mat):
        sizes.append(int(np.prod(np.shape(mat)[:-2])))
        return inner(mat)

    monkeypatch.setattr(hilbert, "eigh_desc", counted)
    monkeypatch.setattr(metrics, "eigh_desc", counted, raising=False)
    return sizes


def test_density_matrix_is_diagonalised_once(diagonalised):
    lay = SpaceLayout([("Q", 3)])
    u = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)) + 0j)[0]
    tiny = (u * np.array([0.7, 0.3 + 1e-12, -1e-12])) @ u.conj().T
    rho = DensityMatrix(lay, tiny)
    assert not np.array_equal(rho.matrix, tiny)  # clipped and rebuilt
    sigma = random_density(lay, 3, 5)
    assert len(diagonalised) == 2
    phi = purify(rho)
    fidelity(rho, sigma)
    max_eig_convexity(rho, random_pure(lay, 6))
    uhlmann_partner(rho, rho, phi)
    uhlmann_partner(sigma, rho, purify(sigma))
    w = rho.eigenvalues()
    assert len(diagonalised) == 2
    assert w[-1] == 0.0  # the kept eigenvalues are those of the rebuilt matrix


def test_sweep_diagonalises_each_drawn_state_once(diagonalised):
    pools = metrics._draw_block(np.random.default_rng(9), 50, 16, PROPERTY_NAMES)
    buckets = [(prop, e) for by_key in pools.values() for (prop, _), e in by_key.items()]
    drawn = sum(len(ms) for _, e in buckets for _, ms, _ in e)
    marginal = [len(e) for prop, e in buckets if prop == "monotonicity"]
    list(metrics._sweep_checks(50, 16, 9, PROPERTY_NAMES))
    # one call per dimension pool and per stack of monotonicity marginals
    assert len(diagonalised) == len(pools) + len(marginal) < len(buckets)
    assert sum(diagonalised) == drawn + 2 * sum(marginal)
