"""Layouts, states, operators and the bookkeeping they enforce."""

import json

import numpy as np
import pytest

from _reference import random_density
from qsblab import hilbert
from qsblab.errors import InvariantViolation
from qsblab.hilbert import (
    RANK_CUTOFF,
    DensityMatrix,
    PureState,
    SpaceLayout,
    _mat_from_json,
    _mat_to_json,
    _purification,
    basis_state,
    check_isometry,
    eigh_desc,
    haar_density_matrix,
    haar_isometry_matrix,
    phase_fix,
    random_pure,
    validate_density,
)


def test_layout_basics():
    lay = SpaceLayout([("A", 2), ("B", 3)])
    assert lay.total_dim == 6
    assert lay.labels == ("A", "B")


def test_layout_rejects_duplicates_and_bad_dims():
    with pytest.raises(InvariantViolation, match=r"duplicate labels in layout: \['A', 'A'\]"):
        SpaceLayout([("A", 2), ("A", 3)])
    with pytest.raises(InvariantViolation, match="subsystem 'A' dim = 0 must be >= 1"):
        SpaceLayout([("A", 0)])
    with pytest.raises(InvariantViolation, match="at least one subsystem"):
        SpaceLayout([])
    # a label that is not a string is refused, not renamed by str()
    for label in (None, 7, ["A"]):
        with pytest.raises(TypeError, match="not a string"):
            SpaceLayout([(label, 2)])


def test_basis_state_refuses_an_index_outside_the_space():
    lay = SpaceLayout([("Q", 2)])
    # numpy indexing would wrap -1 around to |1>, and fail at 2 with a bare IndexError
    for index in (-1, 2):
        with pytest.raises(InvariantViolation, match=r"outside \[0, 2\)"):
            basis_state(lay, index)
    with pytest.raises(TypeError, match="not an integer"):
        basis_state(lay, 1.0)
    assert basis_state(lay, 1).amplitudes.tolist() == [0, 1]


def test_as_int_takes_an_optional_lower_bound():
    # no bound leaves a negative value alone; a numpy integer comes back a
    # Python int; a bool is refused as a bool even under a bound it would meet
    assert hilbert.as_int(-5, "x") == -5
    got = hilbert.as_int(np.int64(3), "x", 1)
    assert got == 3 and type(got) is int
    with pytest.raises(TypeError, match="x True is a bool"):
        hilbert.as_int(True, "x", 0)
    assert hilbert.as_int(2, "x", 2) == 2
    with pytest.raises(InvariantViolation, match="x = 1 must be >= 2"):
        hilbert.as_int(1, "x", 2)


def test_layout_json_roundtrip():
    lay = SpaceLayout([("S", 5), ("E", 2)])
    assert SpaceLayout(lay.to_json()) == lay


def test_pure_state_norm_enforced():
    lay = SpaceLayout([("A", 2)])
    with pytest.raises(InvariantViolation):
        PureState(lay, np.array([1.0, 1.0]))
    with pytest.raises(InvariantViolation):
        PureState(lay, np.array([np.nan, 0.0]))
    with pytest.raises(InvariantViolation, match="3 amplitudes for layout of dim 2"):
        PureState(lay, np.ones(3) / np.sqrt(3))
    psi = PureState(lay, np.array([1.0, 1.0]) / np.sqrt(2))
    assert abs(abs(np.vdot(psi.amplitudes, basis_state(lay, 0).amplitudes)) ** 2 - 0.5) < 1e-12


def test_density_validation(rng):
    lay = SpaceLayout([("A", 3)])
    with pytest.raises(InvariantViolation):
        DensityMatrix(lay, np.diag([0.9, 0.2, -0.1]).astype(complex))
    with pytest.raises(InvariantViolation):
        DensityMatrix(lay, np.diag([0.5, 0.2, 0.2]).astype(complex))  # trace 0.9
    m = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
    with pytest.raises(InvariantViolation):
        DensityMatrix(SpaceLayout([("A", 2)]), m)  # not hermitian
    with pytest.raises(InvariantViolation, match=r"matrix shape \(2, 2\) for layout of dim 3"):
        DensityMatrix(lay, np.eye(2, dtype=complex) / 2)


def test_density_keeps_exact_input():
    lay = SpaceLayout([("A", 2)])
    mat = np.diag([0.75, 0.25]).astype(complex)
    rho = DensityMatrix(lay, mat)
    assert np.array_equal(rho.matrix, mat)


def test_isometry_validation(rng):
    # 3 -> 2 has more inputs than outputs, so no matrix of that shape is an isometry
    with pytest.raises(InvariantViolation):
        check_isometry(np.zeros((2, 3)), "isometry")
    with pytest.raises(InvariantViolation, match="isometry violated"):
        check_isometry(np.ones((3, 2)), "isometry")
    with pytest.raises(InvariantViolation, match="violated by nan"):
        check_isometry(np.full((3, 2), np.nan), "isometry")
    v = haar_isometry_matrix(rng, 3, 2)
    check_isometry(v, "isometry")
    gram = v.conj().T @ v
    assert np.abs(gram - np.eye(2)).max() < 1e-12


def test_purify_roundtrip(rng):
    rho = random_density(SpaceLayout([("A", 2), ("B", 3)]), 6, rng)
    m = _purification(*rho._eigh)
    assert np.abs(m @ m.conj().T - rho.matrix).max() < 1e-10


def test_eigh_desc_ordering(rng):
    m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = m + m.conj().T
    vals, vecs = eigh_desc(m)
    assert all(vals[i] >= vals[i + 1] - 1e-12 for i in range(4))
    recon = (vecs * vals) @ vecs.conj().T
    assert np.abs(recon - m).max() < 1e-9


@pytest.mark.parametrize("d", range(2, 17))
def test_lapack_gufuncs_match_the_linalg_wrappers(d):
    # eigh_desc and the fidelity and trace-distance kernels call numpy's private
    # gufuncs; a numpy release that renames or changes them fails here
    rng = np.random.default_rng(d)
    g = rng.standard_normal((6, d, d)) + 1j * rng.standard_normal((6, d, d))
    g[3:, :, d // 2 :] = 0.0  # rank-deficient members
    herm = g @ g.conj().swapaxes(-1, -2)
    herm[1] -= np.trace(herm[1]) * np.eye(d) / d  # indefinite
    lapack = hilbert._umath_linalg
    w, v = lapack.eigh_lo(herm, signature="D->dD")
    want_w, want_v = np.linalg.eigh(herm)
    assert np.array_equal(w, want_w) and np.array_equal(v, want_v)
    assert np.array_equal(lapack.eigvalsh_lo(herm, signature="D->d"), np.linalg.eigvalsh(herm))
    for m in (herm, herm @ g):
        assert np.array_equal(lapack.svd(m, signature="D->d"), np.linalg.svd(m, compute_uv=False))


@pytest.mark.parametrize("d", range(2, 17))
def test_eigh_desc_stack_matches_each_matrix(rng, d):
    g = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    stack = g @ g.conj().swapaxes(-1, -2)
    stack[1] = np.diag(np.arange(d, 0, -1.0))  # eigenvectors are basis vectors
    vals, vecs = eigh_desc(stack)
    for k in range(5):
        alone = eigh_desc(stack[k])
        assert np.array_equal(vals[k], alone[0])
        assert np.array_equal(vecs[k], alone[1])
    assert np.all(np.diff(vals, axis=-1) <= 0)


def _phase_fix_loop(vec):
    # one vector at a time, the first entry above the cutoff decides the phase
    for x in vec:
        if abs(x) > RANK_CUTOFF:
            return vec * (np.conj(x) / abs(x))
    return vec


def test_phase_fix_first_entry_positive():
    v = np.array([0.0, -0.6 + 0.8j, 0.1]) * 1.0
    w = phase_fix(v)
    # first entry above cutoff becomes real positive
    assert abs(w[1].imag) < 1e-12 and w[1].real > 0


@pytest.mark.parametrize("d", range(2, 17))
def test_phase_fix_stack_matches_loop(rng, d):
    vecs = rng.standard_normal((5, d, d)) + 1j * rng.standard_normal((5, d, d))
    vecs[0, 1, : d // 2] = 1e-13 * (1 + 1j)  # leading entries below RANK_CUTOFF
    vecs[2, 0] = 0.0  # the all-zero vector stays as it is
    fixed = phase_fix(vecs)
    for k in range(5):
        alone = phase_fix(vecs[k])
        for j in range(d):
            assert np.array_equal(alone[j], fixed[k, j])
            # scalar and array complex division may round the phase differently
            loop = _phase_fix_loop(vecs[k, j])
            tol = 8 * np.finfo(float).eps * np.linalg.norm(loop)
            assert np.abs(fixed[k, j] - loop).max() <= tol
    assert np.array_equal(fixed[2, 0], np.zeros(d))
    first = fixed[0, 1, d // 2]
    assert abs(first.imag) < 1e-15 * abs(first) and first.real > 0


def test_validate_density_rejects_what_density_matrix_rejects(rng):
    lay = SpaceLayout([("A", 3)])
    good = random_density(lay, 3, rng).matrix
    non_hermitian = good + np.array([[0, 1e-6, 0], [0, 0, 0], [0, 0, 0]])
    off_trace = good * 0.9
    negative = np.diag([0.6, 0.4 + 1e-6, -1e-6]).astype(complex)
    nan_diagonal = good.copy()
    nan_diagonal[1, 1] = np.nan
    inf_entry = good.copy()
    inf_entry[0, 0] = np.inf
    for bad in (non_hermitian, off_trace, negative, nan_diagonal, inf_entry):
        with pytest.raises(InvariantViolation) as alone:
            DensityMatrix(lay, bad)
        with pytest.raises(InvariantViolation) as stacked:
            validate_density(np.stack([good, bad, good]))
        assert str(stacked.value) == str(alone.value)


def test_validate_density_clips_like_density_matrix(rng):
    lay = SpaceLayout([("A", 3)])
    g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = np.linalg.qr(g)[0]
    tiny = (u * np.array([0.7, 0.3 + 1e-12, -1e-12])) @ u.conj().T
    good = random_density(lay, 2, rng).matrix
    mats, vals, vecs = validate_density(np.stack([good, tiny]))
    assert vals[1, -1] == 0.0  # the member's negative eigenvalue, clipped
    assert np.array_equal(mats[1], DensityMatrix(lay, tiny).matrix)
    assert not np.array_equal(mats[1], tiny)
    assert np.array_equal(mats[0], good)
    assert np.linalg.eigvalsh(mats[1])[0] >= -1e-15
    # clipping has one home: every pair handed out is one DensityMatrix keeps, bit for bit
    assert np.all(vals >= 0.0)
    for k, m in enumerate((good, tiny)):
        w, v = DensityMatrix(lay, m)._eigh
        assert np.array_equal(vals[k], w) and np.array_equal(vecs[k], v)


def test_state_json_roundtrips(rng):
    # instance files carry isometries; states and density matrices are never written
    lay = SpaceLayout([("A", 2), ("B", 2)])
    v = haar_isometry_matrix(rng, lay.total_dim, 2)
    data = json.loads(json.dumps({"out": lay.to_json(), "matrix": _mat_to_json(v)}))
    assert SpaceLayout(data["out"]) == lay
    assert _mat_from_json(data["matrix"]).tobytes() == v.tobytes()
    with pytest.raises(TypeError):
        _mat_from_json({"0": [[1.0, 0.0]]})


def test_random_density_rank_control(rng):
    assert np.sum(np.linalg.eigvalsh(haar_density_matrix(rng, 5, 2)) > 1e-10) == 2
    ranks = np.array([[1, 2, 3], [4, 5, 2]])
    stack = haar_density_matrix(rng, 5, ranks)
    assert stack.shape == (2, 3, 5, 5)
    assert np.array_equal(np.sum(np.linalg.eigvalsh(stack) > RANK_CUTOFF, axis=-1), ranks)


def test_random_density_follows_the_induced_measure():
    # E tr(rho^2) = (d + r) / (d r + 1) for the rank-r induced measure on C^d
    # (Zyczkowski and Sommers 2001): 2/3 at d = 4, r = 2
    rho = haar_density_matrix(np.random.default_rng(3), 4, np.full(20_000, 2))
    purity = np.sum(np.abs(rho) ** 2, axis=(-2, -1))
    sigma = purity.std() / np.sqrt(len(purity))
    assert abs(purity.mean() - 6 / 9) < 5 * sigma
    assert np.abs(rho.mean(axis=0) - np.eye(4) / 4).max() < 0.01  # unitarily invariant


def test_random_sampling_deterministic():
    lay = SpaceLayout([("A", 3)])
    a = random_pure(lay, 7).amplitudes
    b = random_pure(lay, 7).amplitudes
    assert np.array_equal(a, b)


def test_one_seed_rule():
    # a Generator passes through; any other seed is an integer >= 0
    gen = np.random.default_rng(3)
    assert hilbert._as_rng(gen) is gen
    lay = SpaceLayout([("A", 3)])
    assert np.array_equal(random_pure(lay, np.int64(7)).amplitudes, random_pure(lay, 7).amplitudes)
    for bad in (True, 7.0, "7", None):
        with pytest.raises(TypeError, match="seed"):
            random_pure(lay, bad)
    with pytest.raises(InvariantViolation, match="seed = -1 must be >= 0"):
        random_pure(lay, -1)
