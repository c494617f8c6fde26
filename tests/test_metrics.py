"""Closeness measures: fixed-value oracles, exact inequalities, Uhlmann partners."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import partial_trace, pure_density, purify, random_density
from qsblab import hilbert, metrics
from qsblab.errors import InvariantViolation
from qsblab.hilbert import (
    RANK_CUTOFF,
    DensityMatrix,
    PureState,
    SpaceLayout,
    basis_state,
    haar_density_matrix,
    random_pure,
    validate_density,
)
from qsblab.metrics import (
    BoundCheck,
    _overlaps,
    _partner,
    _trace_distance,
    fidelity,
    fidelity_pure,
    property_sweep,
)
from qsblab.qsb import _bounds, overlap_lower_bound

QUBIT = SpaceLayout([("Q", 2)])


def _diag(p):
    return DensityMatrix(QUBIT, np.diag(np.asarray(p, dtype=np.complex128)))


def test_commuting_diagonal_oracle():
    # (sqrt(.45) + sqrt(.05))^2 = 0.8 and half the l1 gap is 0.4, both exact.
    rho = _diag([0.5, 0.5])
    sigma = _diag([0.9, 0.1])
    assert fidelity(rho, sigma) == pytest.approx(0.8, abs=1e-12)
    assert _trace_distance(rho.matrix, sigma.matrix) == pytest.approx(0.4, abs=1e-12)


def test_fidelity_self_and_orthogonal():
    rho = random_density(SpaceLayout([("Q", 4)]), 3, 11)
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    assert _trace_distance(rho.matrix, rho.matrix) == pytest.approx(0.0, abs=1e-10)
    e0, e1 = basis_state(QUBIT, 0), basis_state(QUBIT, 1)
    assert fidelity_pure(pure_density(e0), e1) == pytest.approx(0.0, abs=1e-14)


def test_pure_special_cases_agree():
    lay = SpaceLayout([("Q", 3)])
    rho = random_density(lay, 2, 5)
    psi = random_pure(lay, 6)
    direct = fidelity_pure(rho, psi)
    general = fidelity(rho, pure_density(psi))
    assert direct == pytest.approx(general, abs=1e-8)


def test_layout_mismatch_rejected():
    other = DensityMatrix(SpaceLayout([("R", 2)]), np.eye(2, dtype=np.complex128) / 2)
    with pytest.raises(InvariantViolation, match=r"layouts differ: \('Q',\) vs \('R',\)"):
        fidelity(_diag([0.5, 0.5]), other)
    with pytest.raises(InvariantViolation, match="state layouts differ"):
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
    assert _trace_distance(a.matrix, b.matrix) == pytest.approx(
        _trace_distance(b.matrix, a.matrix), abs=1e-10
    )


@pytest.mark.parametrize("cap, examples", [(6, 80), (9, 40)])
def test_small_sweeps_find_no_violation(cap, examples):
    # every inequality of the sweep, on 3 samples per seed at a dims cap of 6 or 9
    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=examples)
    def sweep(seed):
        assert property_sweep(3, cap, seed) == []

    sweep()


def _labelled_rows_hold(seed, cap, labels):
    # every one of the 3 samples gets a row of each label, and each row holds
    seen = {label: set() for label in labels}
    for idx, label, lhs, rhs, tol in metrics._sweep_checks(3, cap, seed):
        if label in seen:
            assert np.all(lhs - rhs >= -tol), label
            seen[label].update(idx.tolist())
    assert all(s == {0, 1, 2} for s in seen.values()), seen


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40)
def test_triangle_chains_hold(seed):
    _labelled_rows_hold(seed, 6, ("triangle", "triangle_pure"))


@given(seed=st.integers(0, 10**6))
@settings(max_examples=40)
def test_distance_fidelity_sandwich(seed):
    _labelled_rows_hold(seed, 6, ("fvdg_lower", "fvdg_upper"))


def test_sandwich_tight_for_pure_pair():
    # D = sqrt(1 - F) exactly when both states are pure.
    lay = SpaceLayout([("Q", 3)])
    a = pure_density(random_pure(lay, 1))
    b = pure_density(random_pure(lay, 2))
    d = _trace_distance(a.matrix, b.matrix)
    assert abs(np.sqrt(1.0 - fidelity(a, b)) - d) < 1e-9


def _partner_of(rho, sigma, m):
    """Uhlmann partner of the purification m (d_a, d_e) of rho, for sigma."""
    return _partner(m[None], rho.matrix[None], *(x[None] for x in sigma._eigh))[0]


def test_uhlmann_partner_achieves_fidelity():
    for d, seed in [(2, 0), (3, 1), (4, 2)]:
        lay = SpaceLayout([("Q", d)])
        rng = np.random.default_rng(seed)
        rho = random_density(lay, d, rng)
        sigma = random_density(lay, int(rng.integers(1, d + 1)), rng)
        phi = purify(rho.matrix)
        chi = _partner_of(rho, sigma, phi)
        assert abs(np.vdot(phi, chi)) ** 2 == pytest.approx(fidelity(rho, sigma), abs=1e-8)
        # the partner really purifies sigma
        assert float(np.max(np.abs(chi @ chi.conj().T - sigma.matrix))) < 1e-8


def test_uhlmann_partner_covers_support_the_overlap_misses():
    # a rank-1 rho purified into a 3-dim environment leaves the cross operator
    # rank 1; the polar factor is still unitary, so the partner covers the two
    # support directions of sigma that the overlap misses
    lay = SpaceLayout([("Q", 3)])
    rng = np.random.default_rng(4)
    for _ in range(3):
        v = random_pure(lay, rng)
        phi = np.kron(v.amplitudes, np.eye(3)[0]).reshape(3, 3)
        sigma = random_density(lay, 3, rng)
        chi = _partner_of(pure_density(v), sigma, phi)
        assert abs(np.vdot(phi, chi)) ** 2 == pytest.approx(fidelity_pure(sigma, v), abs=1e-12)
        assert float(np.max(np.abs(chi @ chi.conj().T - sigma.matrix))) < 1e-12


def test_uhlmann_partner_rejections():
    lay = SpaceLayout([("Q", 2)])
    rho = random_density(lay, 2, 3)
    sigma = random_density(lay, 2, 4)
    wrong = random_pure(SpaceLayout([("Q", 4)]), 6).amplitudes.reshape(2, 2)
    with pytest.raises(InvariantViolation, match="supplied state does not purify rho_a"):
        _partner_of(rho, sigma, wrong)  # purifies some other state
    pure_rho = pure_density(basis_state(lay, 0))
    skinny = purify(pure_rho.matrix)  # rank-1 source, environment dim 1
    with pytest.raises(InvariantViolation, match=r"purification of shape \(2, 1\): m must be square"):
        _partner_of(pure_rho, sigma, skinny)
    # a true purification of a rank-2 rho into a 2-dim environment is refused
    # as not square, even where sigma's rank would fit it
    lay = SpaceLayout([("Q", 3)])
    rho, sigma = random_density(lay, 2, 7), random_density(lay, 2, 8)
    narrow = purify(rho.matrix)
    assert narrow.shape == (3, 2)
    with pytest.raises(InvariantViolation, match="square"):
        _partner_of(rho, sigma, narrow)


def test_partner_overlap_of_a_rank_deficient_state():
    # the sweep purifies at full width, so a first state of rank 2 at d = 3
    # against a full-rank sigma still reaches F(rho, sigma)
    lay = SpaceLayout([("Q", 3)])
    rho, sigma = random_density(lay, 2, 11), random_density(lay, 3, 12)
    assert int(np.sum(rho._eigh[0] > RANK_CUTOFF)) == 2
    mats = np.stack([rho.matrix, sigma.matrix])[None]
    w = np.stack([rho._eigh[0], sigma._eigh[0]])[None]
    v = np.stack([rho._eigh[1], sigma._eigh[1]])[None]
    f = [metrics._fidelity(metrics._root(w[:, 0], v[:, 0]), metrics._root(w[:, 1], v[:, 1]))]
    ((label, lhs, rhs, tol),) = metrics._evaluate("partner_overlap", mats, w, v, None, f, [])
    assert label == "partner_overlap" and tol == metrics._PARTNER_TOL
    assert lhs[0] == pytest.approx(fidelity(rho, sigma), abs=1e-8)
    assert rhs[0] == pytest.approx(fidelity(rho, sigma), abs=1e-12)


def test_convexity_ceilings():
    # F(rho; psi) is a convex mix of the support overlaps |<v_k|psi>|^2, so
    # both the top eigenvalue and the best support overlap bound it
    lay = SpaceLayout([("Q", 4)])
    rng = np.random.default_rng(9)
    for _ in range(20):
        rho = random_density(lay, int(rng.integers(1, 5)), rng)
        psi = random_pure(lay, rng)
        w, v = rho._eigh
        overlaps = _overlaps(w, v, psi.amplitudes)
        f = fidelity_pure(rho, psi)
        assert w[0] >= f - 1e-9
        assert overlaps.max() >= f - 1e-9
        assert w[np.argmax(overlaps)] > RANK_CUTOFF  # the best overlap is over the support


def test_convexity_near_pure_picks_top_eigenvector():
    # rho close to |0><0|: the best-overlap eigenvector is the dominant one.
    rho = DensityMatrix(QUBIT, np.diag([0.99, 0.01]).astype(np.complex128))
    w, v = rho._eigh
    assert np.argmax(_overlaps(w, v, basis_state(QUBIT, 0).amplitudes)) == 0


def test_bound_check_semantics():
    chk = BoundCheck.of(0.5, 0.25, label="demo")
    assert chk.slack == pytest.approx(0.25)
    assert chk.satisfied and not chk.vacuous
    # tolerance rescues tiny negative slack, nothing more
    assert BoundCheck.of(1.0, 1.0 + 5e-10).satisfied
    assert not BoundCheck.of(1.0, 1.0 + 5e-9).satisfied
    assert BoundCheck.of(0.0, 1.0, tol=2.0).satisfied


def test_bound_check_rows_rule():
    # slack exactly -1e-9 sits on the tolerance and holds; a NaN side fails
    edge, nan = BoundCheck.rows(["edge", "nan"], [0.0, float("nan")], [1e-9, 0.5])
    assert edge.slack == -1e-9 and edge.satisfied
    assert not nan.satisfied
    # of is the builder's one-row call
    assert BoundCheck.of(np.float64(0.5), 0.25, label="demo", vacuous=True) == BoundCheck.rows(
        ["demo"], [0.5], [0.25], vacuous=True
    )[0]


def test_chain_rows_clamp_mark_vacuity_and_orient():
    # a floor at exactly 0 and a ceiling at exactly 1 constrain nothing
    assert all(c.vacuous for c in _bounds(["f0", "f1"], [0.2, 0.7], 0.0))
    assert all(c.vacuous for c in _bounds(["c"], [0.4], 1.0, floor=False))
    # a floor above 1 is clamped to 1 and enforced
    (high,) = _bounds(["high"], [0.9], 1.5)
    assert (high.lhs, high.rhs, high.satisfied, high.vacuous) == (0.9, 1.0, False, False)
    # enforced=False makes a row vacuous whatever its bound
    (waived,) = _bounds(["waived"], [0.1], 0.5, enforced=False)
    assert waived.vacuous and not waived.satisfied
    # a ceiling puts the bound on the left: value <= bound
    under, over = _bounds(["under", "over"], [0.3, 0.7], 0.5, floor=False)
    assert (under.lhs, under.rhs, under.satisfied, under.vacuous) == (0.5, 0.3, True, False)
    assert (over.lhs, over.rhs, over.satisfied) == (0.5, 0.7, False)


def test_bound_check_fields_are_read_only():
    chk = BoundCheck.of(0.5, 0.25, label="demo")
    with pytest.raises(AttributeError):
        chk.satisfied = False


def test_property_sweep_takes_the_package_seed_rule():
    with pytest.raises(InvariantViolation, match="seed = -1 must be >= 0"):
        property_sweep(1, 2, seed=-1)
    with pytest.raises(TypeError, match="seed True is a bool"):
        property_sweep(1, 2, seed=True)


@pytest.mark.parametrize(
    "call, exc, match",
    [
        # a float or bool count or dimension is refused, not truncated
        (lambda: overlap_lower_bound(3.5, 2), TypeError, "m 3.5 is not an integer"),
        (lambda: overlap_lower_bound(3, True), TypeError, "d True is a bool"),
        (lambda: overlap_lower_bound(3, 2.0), TypeError, "d 2.0 is not an integer"),
        (lambda: property_sweep(True, 8, 1), TypeError, "samples True is a bool"),
        (lambda: property_sweep(50, True, 1), TypeError, "dims_cap True is a bool"),
        (lambda: property_sweep(50, 8.5, 1), TypeError, "dims_cap 8.5 is not an integer"),
        # the CLI's --samples >= 0 and --dims >= 2, refused by name: no empty
        # "all good" list, and no bare numpy error from the draw
        (lambda: property_sweep(-5, 8, 1), InvariantViolation, "samples = -5 must be >= 0"),
        (lambda: property_sweep(50, 1, 1), InvariantViolation, "dims_cap = 1 must be >= 2"),
    ],
    ids=["m-float", "d-bool", "d-float", "samples-bool", "dims-bool", "dims-float", "samples-negative", "dims-1"],
)
def test_counts_and_dimensions_follow_the_integer_rule(call, exc, match):
    with pytest.raises(exc, match=match):
        call()


def test_property_sweep_clean_small():
    assert property_sweep(1000, 16, seed=7) == []


def _chain_floor(f_first, f_second):
    return 1.0 - np.sqrt(max(1.0 - f_first, 0.0)) - np.sqrt(max(1.0 - f_second, 0.0))


def _sweep_draw(samples, dims_cap, seed):
    """The sweep's instances from its own draw, block by block, as
    {(sample, bucket property): (dims, unvalidated states, Haar vector or None)}."""
    rng = np.random.default_rng(seed)
    drawn = {}
    for start in range(0, samples, metrics._SWEEP_BLOCK):
        count = min(metrics._SWEEP_BLOCK, samples - start)
        for states, buckets in metrics._draw_block(rng, count, dims_cap):
            end = 0
            for prop, dims, idx, vecs in buckets:
                k = metrics._STATES[prop]
                for j, i in enumerate(idx):
                    vec = None if vecs is None else vecs[j, 0]
                    drawn[start + i, prop] = (dims, states[end + k * j : end + k * (j + 1)], vec)
                end += k * len(idx)
    return drawn


def _sweep_reference(samples, dims_cap, seed):
    """Every check of property_sweep on the sweep's own instances, evaluated one
    state object at a time; marginals, purifications and trace distances on
    plain arrays."""
    out = {}
    for (i, prop), (dims, mats, vec) in _sweep_draw(samples, dims_cap, seed).items():
        lay = SpaceLayout([(f"Q{k}", x) for k, x in enumerate(dims)])
        states = [DensityMatrix(lay, m) for m in mats]
        psi = None if vec is None else PureState(lay, vec)
        if prop == "triangle":
            rho, omega, sigma = states
            out[i, "triangle"] = BoundCheck.of(
                np.sqrt(fidelity(rho, omega)), _chain_floor(fidelity(rho, sigma), fidelity(sigma, omega))
            )
        elif prop == "triangle_pure":
            rho, sigma = states
            out[i, "triangle_pure"] = BoundCheck.of(
                fidelity_pure(rho, psi), _chain_floor(fidelity(rho, sigma), fidelity_pure(sigma, psi))
            )
        elif prop == "monotonicity":
            (d1, d2), (a, b) = dims, states
            qa, qb = (DensityMatrix(SpaceLayout([("Q", d1)]), partial_trace(x.matrix, (d1, d2), [0])) for x in (a, b))
            out[i, "monotonicity"] = BoundCheck.of(fidelity(qa, qb), fidelity(a, b))
        elif prop == "partner_overlap":
            r1, s1 = states
            phi = purify(r1.matrix)
            overlap = abs(np.vdot(phi, _partner_of(r1, s1, phi))) ** 2
            out[i, "partner_overlap"] = BoundCheck.of(overlap, fidelity(r1, s1), tol=1e-8)
        elif prop == "ceilings":
            (rho,) = states
            w, v = rho._eigh
            best = np.max((np.abs(v.conj().T @ psi.amplitudes) ** 2)[w > RANK_CUTOFF])
            f = fidelity_pure(rho, psi)
            out[i, "component_ceiling"] = BoundCheck.of(best, f)
            out[i, "eigenvalue_ceiling"] = BoundCheck.of(w[0], f)
        else:
            a, b = states
            f = fidelity(a, b)
            dist = 0.5 * np.sum(np.abs(np.linalg.eigvalsh(a.matrix - b.matrix)))
            out[i, "fvdg_lower"] = BoundCheck.of(dist, 1.0 - np.sqrt(f))
            out[i, "fvdg_upper"] = BoundCheck.of(np.sqrt(1.0 - f), dist)
    return out


@pytest.mark.parametrize("seed", [7, 11])
def test_batched_sweep_matches_object_path(seed):
    ref = _sweep_reference(200, 16, seed)
    seen = set()
    for idx, label, lhs, rhs, tol in metrics._sweep_checks(200, 16, seed):
        for k, i in enumerate(idx):
            want = ref[i, label]
            assert lhs[k] == pytest.approx(want.lhs, abs=1e-12, rel=0), (i, label)
            assert rhs[k] == pytest.approx(want.rhs, abs=1e-12, rel=0), (i, label)
            assert BoundCheck.of(lhs[k], rhs[k], tol=tol).satisfied == want.satisfied
            seen.add((i, label))
    assert seen == set(ref)


def test_batched_sweep_matches_object_path_one_sample_per_block(monkeypatch):
    # single-sample blocks leave pools of monotonicity or partner buckets only,
    # whose pure-state gather is empty
    monkeypatch.setattr(metrics, "_SWEEP_BLOCK", 1)
    pools = list(metrics._draw_block(np.random.default_rng(7), 1, 16))
    assert any({p for p, *_ in bs} <= {"monotonicity", "partner_overlap"} for _, bs in pools)
    test_batched_sweep_matches_object_path(7)


def test_sweep_scores_each_pool_with_one_svd(monkeypatch):
    # one _fidelity call per dimension pool and per reduced dimension of a
    # block's monotonicity marginals, one _fidelity_pure call per pool at most
    calls = {"_fidelity": 0, "_fidelity_pure": 0}
    for name in calls:
        inner = getattr(metrics, name)

        def counted(*args, name=name, inner=inner):
            calls[name] += 1
            return inner(*args)

        monkeypatch.setattr(metrics, name, counted)
    monkeypatch.setattr(metrics, "_SWEEP_BLOCK", 20)
    rng = np.random.default_rng(9)
    pools = reduced = 0
    for count in (20, 20, 10):
        block = list(metrics._draw_block(rng, count, 16))
        pools += len(block)
        reduced += len({dims[0] for _, bs in block for prop, dims, _, _ in bs if prop == "monotonicity"})
    list(metrics._sweep_checks(50, 16, 9))
    assert calls["_fidelity"] == pools + reduced
    assert 0 < calls["_fidelity_pure"] <= pools


def test_property_sweep_reports_failures_in_sample_order(monkeypatch):
    # a tolerance no check can meet turns every check into a failure
    monkeypatch.setattr(metrics, "TOL", -5.0)
    monkeypatch.setattr(metrics, "_PARTNER_TOL", -5.0)
    monkeypatch.setattr(metrics, "_SWEEP_BLOCK", 3)
    failures = property_sweep(7, 6, seed=5)
    assert [c.label for c in failures] == list(metrics._CHECK_LABELS) * 7
    ref = _sweep_reference(7, 6, seed=5)
    want = [ref[i, label].lhs for i in range(7) for label in metrics._CHECK_LABELS]
    assert [c.lhs for c in failures] == pytest.approx(want, abs=1e-12, rel=0)


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
        kinds.add(bool(np.linalg.eigvalsh(m)[0] < 0.0))
        rho = DensityMatrix(lay, m)
        u = random_pure(lay, rng).amplitudes
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
    rho = pure_density(basis_state(lay, 0))
    assert fidelity_pure(rho, psi) == 0.0
    assert np.max(_overlaps(*rho._eigh, psi.amplitudes)) == 0.0
    w, v = validate_density(rho.matrix[None])[1:]
    f_pure = [np.array([fidelity_pure(rho, psi)])]
    rows = metrics._evaluate("ceilings", rho.matrix[None, None], w[None], v[None], psi.amplitudes[None, None], [], f_pure)
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
    fidelity(rho, sigma)
    fidelity(sigma, rho)
    w = rho._eigh[0]
    assert len(diagonalised) == 2
    assert w[-1] == 0.0  # the kept eigenvalues are those of the rebuilt matrix


def test_sweep_diagonalises_each_drawn_state_once(diagonalised):
    pools = list(metrics._draw_block(np.random.default_rng(9), 50, 16))
    buckets = [b for _, bs in pools for b in bs]
    drawn = sum(len(states) for states, _ in pools)
    marginal = [len(idx) for prop, _, idx, _ in buckets if prop == "monotonicity"]
    reduced = {dims[0] for prop, dims, _, _ in buckets if prop == "monotonicity"}
    list(metrics._sweep_checks(50, 16, 9))
    # one call per dimension pool and per reduced dimension of the monotonicity marginals
    assert len(diagonalised) == len(pools) + len(reduced) == 18 < len(pools) + len(marginal) == 29
    assert sum(diagonalised) == drawn + 2 * sum(marginal)


def test_sweep_draws_what_it_promises(monkeypatch):
    calls = []  # (ranks, states) of every stacked draw
    inner = metrics.haar_density_matrix

    def recorded(rng, dim, ranks):
        calls.append((ranks, inner(rng, dim, ranks)))
        return calls[-1][1]

    monkeypatch.setattr(metrics, "haar_density_matrix", recorded)
    for cap in (16, 2, 3):
        calls.clear()
        drawn = _sweep_draw(300, cap, 21)
        assert sum(len(ranks) for ranks, _ in calls) == 300 * sum(metrics._STATES.values())
        for ranks, states in calls:
            assert np.abs(states - states.conj().swapaxes(-1, -2)).max() <= 1e-12
            assert np.abs(np.trace(states, axis1=-2, axis2=-1) - 1.0).max() <= 1e-12
            assert np.array_equal(np.sum(np.linalg.eigvalsh(states) > RANK_CUTOFF, axis=-1), ranks)
        assert set(drawn) == {(i, prop) for i in range(300) for prop in metrics._STATES}
        for (_, prop), (dims, mats, vec) in drawn.items():
            n = mats.shape[-1]
            assert n == np.prod(dims) and min(dims) >= 2 and (vec is None or vec.shape == (n,))
            assert max(dims) <= cap, (cap, prop, dims)  # the documented cap per factor
            if prop == "partner_overlap":
                assert n <= 4
                assert np.all(np.sum(np.linalg.eigvalsh(mats) > RANK_CUTOFF, axis=-1) == n)
            else:
                assert n <= max(cap, 4)  # d <= cap; d1 d2 <= cap for monotonicity, or 2 x 2


def test_sweep_repeats_its_checks_for_a_seed():
    first, second = (list(metrics._sweep_checks(120, 12, 4)) for _ in range(2))
    assert len(first) == len(second)
    for (i1, l1, lhs1, rhs1, t1), (i2, l2, lhs2, rhs2, t2) in zip(first, second):
        assert (l1, t1) == (l2, t2)
        assert np.array_equal(i1, i2) and np.array_equal(lhs1, lhs2) and np.array_equal(rhs1, rhs2)
