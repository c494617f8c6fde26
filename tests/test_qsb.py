"""Shared broadcasting: constructions, deficit measurement, and the chain argument."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsblab.channels as channels_module
from qsblab.channels import KrausChannel, apply
from qsblab.errors import (
    BadAmplitudes,
    BadDim,
    BadEpsilon,
    BoundVacuous,
    ChainNotApplicable,
    DegenerateResidual,
    EmptyInput,
    InvariantViolation,
    LayoutMismatch,
    NoPerfectQsb,
)
from qsblab.hilbert import (
    DensityMatrix,
    Isometry,
    PureState,
    SpaceLayout,
    apply_isometry,
    basis_state,
    eigh_desc,
    partial_trace,
    purify,
    random_pure,
    tensor,
)
from qsblab.metrics import BoundCheck, fidelity_pure, fidelity_states
from qsblab.qsb import (
    CLONING_CEILING,
    ProductApprox,
    QsbInstance,
    _best_phase,
    _ceiling_check,
    _check_orthonormal_basis,
    _floor_check,
    _superposition_coeffs,
    asymptotic_ladder,
    broadcast_fidelities,
    chain_constants,
    chain_verify,
    cloner_baseline,
    default_probe_states,
    epsilon_threshold,
    extract_product_approx,
    gram_schmidt_residual,
    lambda_max_rank2,
    max_overlap_pair,
    measure_eps,
    overlap_lower_bound,
    perfect_qsb_construct,
    perturbed_perfect_instance,
    product_floors,
)


def _haar_iso(rows, cols, rng):
    g = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_instance(d_s, d_a, d_b, d_c, seed, env=1, labels=("A", "B", "C")):
    """Haar-random pieces (no optimisation): a Stinespring isometry S -> ABCE
    split into env Kraus operators, isometric for env = 1."""
    rng = np.random.default_rng(seed)
    a, b, c = labels
    lay_s = SpaceLayout([("S", d_s)])
    lay_abc = SpaceLayout([(a, d_a), (b, d_b), (c, d_c)])
    u = _haar_iso(d_a * d_b * d_c * env, d_s, rng).reshape(d_a * d_b * d_c, env, d_s)
    chan = KrausChannel(lay_s, lay_abc, tuple(u[:, e, :] for e in range(env)))
    vab = Isometry(lay_s, SpaceLayout([(a, d_a), (b, d_b)]), _haar_iso(d_a * d_b, d_s, rng))
    vac = Isometry(lay_s, SpaceLayout([(a, d_a), (c, d_c)]), _haar_iso(d_a * d_c, d_s, rng))
    return QsbInstance(chan, vab, vac)


# the chain-verify benchmark's dimensions, with a Stinespring environment of d_s
BENCH_DIMS = ((3, 1, 3, 3), (3, 2, 2, 2), (4, 2, 2, 2), (4, 3, 2, 2))


# ---------------------------------------------------------------------------
# perfect construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 1), (1, 1, 1, 1), (3, 4, 2, 3)])
def test_perfect_construction_has_no_deficit(dims):
    inst = perfect_qsb_construct(*dims)
    probes = default_probe_states(inst.source_layout, seed=0, haar_count=20)
    eps_hat, pairs = measure_eps(inst, probes)
    assert eps_hat <= 1e-12
    assert all(p.worst >= 1.0 - 1e-12 for p in pairs)


def test_perfect_construction_rejections():
    with pytest.raises(NoPerfectQsb):
        perfect_qsb_construct(3, 2, 2, 2)
    with pytest.raises(InvariantViolation):
        perfect_qsb_construct(2, 2, 0, 2)


def test_instance_validation():
    inst = perfect_qsb_construct(2, 2, 2, 2)
    lay_s = inst.source_layout
    # two-subsystem channel output is not a broadcast channel
    lay_ab = SpaceLayout([("A", 2), ("B", 2)])
    chan2 = KrausChannel(lay_s, lay_ab, (np.kron(np.eye(2), np.array([[1.0], [0.0]])),))
    with pytest.raises(InvariantViolation):
        QsbInstance(chan2, inst.v_abs, inst.v_acs)
    # representation landing on the wrong pair
    with pytest.raises(LayoutMismatch):
        QsbInstance(inst.channel, inst.v_acs, inst.v_acs)


def test_instance_json_roundtrip():
    inst = perturbed_perfect_instance(2, 2, 2, 2, 0.05)
    back = QsbInstance.from_json(inst.to_json())
    probes = default_probe_states(inst.source_layout, seed=1, haar_count=10)
    e1, _ = measure_eps(inst, probes)
    e2, _ = measure_eps(back, probes)
    assert e1 == pytest.approx(e2, abs=1e-12)
    assert back.d_s == 2 and back.d_a == 2 and back.d_b == 2 and back.d_c == 2


# ---------------------------------------------------------------------------
# deficit measurement
# ---------------------------------------------------------------------------


def test_measure_eps_guards():
    inst = perfect_qsb_construct(2, 2, 2, 2)
    with pytest.raises(EmptyInput):
        measure_eps(inst, [])
    with pytest.raises(LayoutMismatch):
        measure_eps(inst, [random_pure(SpaceLayout([("X", 2)]), 0)])


def test_measure_eps_monotone_in_probe_set():
    inst = _random_instance(2, 2, 2, 2, seed=3)
    probes = default_probe_states(inst.source_layout, seed=4, haar_count=30)
    e_small, _ = measure_eps(inst, probes[:5])
    e_full, _ = measure_eps(inst, probes)
    assert e_full >= e_small - 1e-15


def test_fidelities_match_slow_path():
    inst = _random_instance(2, 2, 2, 2, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(10):
        psi = random_pure(inst.source_layout, rng)
        fast = broadcast_fidelities(inst, psi)
        rho = apply(inst.channel, psi.density())
        slow_ab = fidelity_pure(partial_trace(rho, ["A", "B"]), apply_isometry(inst.v_abs, psi))
        slow_ac = fidelity_pure(partial_trace(rho, ["A", "C"]), apply_isometry(inst.v_acs, psi))
        assert fast.f_ab == pytest.approx(slow_ab, abs=1e-10)
        assert fast.f_ac == pytest.approx(slow_ac, abs=1e-10)


def _kraus_loop_fidelities(instance, cols):
    # reference: the receiver fidelities summed Kraus operator by Kraus operator
    d_a, d_b, d_c = instance.d_a, instance.d_b, instance.d_c
    n = cols.shape[1]
    psi_ab = (instance.v_abs.matrix @ cols).reshape(d_a, d_b, n)
    psi_ac = (instance.v_acs.matrix @ cols).reshape(d_a, d_c, n)
    f_ab = np.zeros(n)
    f_ac = np.zeros(n)
    for k in instance.channel.kraus_ops:
        t = (k @ cols).reshape(d_a, d_b, d_c, n)
        w = np.einsum("abn,abcn->cn", psi_ab.conj(), t)
        f_ab += np.einsum("cn,cn->n", w, w.conj()).real
        w = np.einsum("acn,abcn->bn", psi_ac.conj(), t)
        f_ac += np.einsum("bn,bn->n", w, w.conj()).real
    return np.clip(f_ab, 0.0, 1.0), np.clip(f_ac, 0.0, 1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _random_instance(3, 2, 2, 2, seed=11),  # one Kraus operator
        lambda: perturbed_perfect_instance(2, 2, 2, 2, 0.05),
        lambda: perturbed_perfect_instance(3, 3, 2, 2, 0.2),
        lambda: _random_instance(3, 2, 2, 2, seed=12, labels=("A", "B", "E")),
    ]
    + [lambda dims=dims: _random_instance(*dims, seed=13, env=dims[0]) for dims in BENCH_DIMS],
)
def test_measure_eps_matches_kraus_loop(make):
    inst = make()
    probes = default_probe_states(inst.source_layout, seed=14, haar_count=40)
    eps_hat, pairs = measure_eps(inst, probes)
    f_ab, f_ac = _kraus_loop_fidelities(inst, np.stack([p.amplitudes for p in probes], axis=1))
    assert np.max(np.abs(np.array([p.f_ab for p in pairs]) - f_ab)) <= 1e-13
    assert np.max(np.abs(np.array([p.f_ac for p in pairs]) - f_ac)) <= 1e-13
    assert eps_hat == pytest.approx(1.0 - min(f_ab.min(), f_ac.min()), abs=1e-13)
    one = broadcast_fidelities(inst, probes[-1])
    assert (one.f_ab, one.f_ac) == pytest.approx((f_ab[-1], f_ac[-1]), abs=1e-13)


def _loop_probe_states(layout, seed, haar_count, phase_count):
    # reference: the probe family built one state at a time
    rng = np.random.default_rng(seed)
    d = layout.total_dim
    probes = [basis_state(layout, k) for k in range(d)]
    root2 = 1.0 / np.sqrt(2.0)
    for i in range(d):
        for j in range(i + 1, d):
            for p in range(phase_count):
                amps = np.zeros(d, dtype=np.complex128)
                amps[i] = root2
                amps[j] = root2 * np.exp(2j * np.pi * p / phase_count)
                probes.append(PureState(layout, amps))
    for _ in range(haar_count):
        probes.append(random_pure(layout, rng))
    return probes, rng.random()


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("phase_count", [0, 4, 8])
@pytest.mark.parametrize("haar_count", [0, 7, 200])
def test_default_probe_states_are_bit_identical_to_the_loop(d, phase_count, haar_count):
    lay = SpaceLayout([("S", d)])
    for seed in (0, 42, 7919):
        want, next_draw = _loop_probe_states(lay, seed, haar_count, phase_count)
        rng = np.random.default_rng(seed)
        got = default_probe_states(lay, rng, haar_count=haar_count, phase_count=phase_count)
        assert len(got) == len(want)
        assert all(g.layout == lay for g in got)
        assert all(np.array_equal(g.amplitudes, w.amplitudes) for g, w in zip(got, want))
        assert rng.random() == next_draw  # the same draws, nothing more


def test_default_probe_states_census():
    lay = SpaceLayout([("S", 3)])
    probes = default_probe_states(lay, seed=0, haar_count=7, phase_count=4)
    assert len(probes) == 3 + 3 * 4 + 7  # basis + pairs x phases + haar
    again = default_probe_states(lay, seed=0, haar_count=7, phase_count=4)
    assert all(
        np.array_equal(p.amplitudes, q.amplitudes) for p, q in zip(probes, again)
    )


def test_superposition_coeffs_are_bit_identical_to_the_loop():
    # reference: one normalised Gaussian pair per draw
    for phase_count, extra, seed in ((8, 24, 0), (4, 7, 5), (0, 30, 42), (3, 0, 1)):
        rng = np.random.default_rng(seed)
        root2 = 1.0 / math.sqrt(2.0)
        al = [root2] * phase_count
        be = [root2 * np.exp(2j * np.pi * p / phase_count) for p in range(phase_count)]
        for _ in range(extra):
            g = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            g = g / np.linalg.norm(g)
            al.append(g[0])
            be.append(g[1])
        mine = np.random.default_rng(seed)
        got_al, got_be = _superposition_coeffs(phase_count, extra, mine)
        assert np.array_equal(got_al, np.array(al, dtype=np.complex128))
        assert np.array_equal(got_be, np.array(be, dtype=np.complex128))
        assert mine.random() == rng.random()


def test_perturbed_deficit_is_exact():
    for dims, w in [((2, 2, 2, 2), 0.01), ((2, 2, 3, 2), 0.05)]:
        inst = perturbed_perfect_instance(*dims, w)
        probes = default_probe_states(inst.source_layout, seed=2, haar_count=25)
        eps_hat, _ = measure_eps(inst, probes)
        d_a, d_b, d_c = dims[1], dims[2], dims[3]
        expect = w * (1.0 - 1.0 / (d_a * max(d_b, d_c)))
        assert eps_hat == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# product extraction
# ---------------------------------------------------------------------------


def test_extraction_beats_floors_both_branches():
    inst = perturbed_perfect_instance(2, 2, 2, 2, 1e-6)
    probes = default_probe_states(inst.source_layout, seed=7, haar_count=10)
    eps_hat, _ = measure_eps(inst, probes)
    assert eps_hat > 0.0
    states = [basis_state(inst.source_layout, k) for k in range(2)] + [probes[3]]
    for branch in ("B", "C"):
        floors = product_floors(eps_hat, branch)
        for psi in states:
            ext = extract_product_approx(inst, psi, branch)
            assert ext.primary_branch == branch
            assert ext.fidelity_ab >= max(floors["floor_ab"], 0.0) - 1e-12
            assert ext.fidelity_ac >= max(floors["floor_ac"], 0.0) - 1e-12
            assert ext.fidelity_product_abc >= max(floors["floor_abc"], 0.0) - 1e-12


def _object_extract(instance, psi, primary_branch):
    # reference: the extraction through state objects; the channel output is
    # purified by its own eigendecomposition and the marginals traced out.
    # Returns the ProductApprox and the top eigenvalue gap of each marginal.
    lbl_a, lbl_b, lbl_c = instance.channel.output_layout.labels
    lbl_x, lbl_y = (lbl_b, lbl_c) if primary_branch == "B" else (lbl_c, lbl_b)
    psi_ab = apply_isometry(instance.v_abs, psi)
    psi_ac = apply_isometry(instance.v_acs, psi)
    psi_ay = psi_ac if primary_branch == "B" else psi_ab
    rho_abc = apply(instance.channel, psi.density())
    pure = purify(rho_abc, env_label="E")
    dims = pure.layout.dims
    pos = [pure.layout.index_of(l) for l in (lbl_a, lbl_y)]
    small = psi_ay.amplitudes.conj().reshape([dims[i] for i in pos])
    v_xe = np.einsum(small, pos, pure.amplitudes.reshape(dims), [0, 1, 2, 3], [i for i in range(4) if i not in pos])
    psi_xe = PureState(pure.layout.subset([lbl_x, "E"]), v_xe.reshape(-1) / np.linalg.norm(v_xe))

    def top(rho):
        w, v = eigh_desc(rho.matrix)
        return PureState(rho.layout, v[:, 0]), (w[0] - w[1] if len(w) > 1 else np.inf)

    (phi_a, g_a), (phi_x, g_x), (phi_y, g_y) = (
        top(partial_trace(psi_ay.density(), [lbl_a])),
        top(partial_trace(psi_xe.density(), [lbl_x])),
        top(partial_trace(psi_ay.density(), [lbl_y])),
    )
    (phi_b, g_b), (phi_c, g_c) = ((phi_x, g_x), (phi_y, g_y))[:: 1 if primary_branch == "B" else -1]
    ext = ProductApprox(
        phi_a=phi_a,
        phi_b=phi_b,
        phi_c=phi_c,
        fidelity_product_abc=fidelity_pure(rho_abc, tensor(tensor(phi_a, phi_b), phi_c)),
        fidelity_ab=fidelity_states(psi_ab, tensor(phi_a, phi_b)),
        fidelity_ac=fidelity_states(psi_ac, tensor(phi_a, phi_c)),
        primary_branch=primary_branch,
    )
    return ext, (g_a, g_b, g_c)


@pytest.mark.parametrize("primary_branch", ["B", "C"])
@pytest.mark.parametrize(
    "make",
    [
        lambda dims=dims, env=env: _random_instance(*dims, seed=40 + env, env=env)
        for dims in BENCH_DIMS
        for env in (1, dims[0])
    ]
    + [
        lambda: perturbed_perfect_instance(2, 2, 2, 2, 1e-6),
        lambda: perturbed_perfect_instance(3, 3, 2, 2, 1e-3),
    ],
)
def test_extraction_matches_object_path(make, primary_branch):
    inst = make()
    rng = np.random.default_rng(41)
    states = [basis_state(inst.source_layout, k) for k in range(inst.d_s)]
    states += [random_pure(inst.source_layout, rng) for _ in range(3)]
    for psi in states:
        got = extract_product_approx(inst, psi, primary_branch)
        want, gaps = _object_extract(inst, psi, primary_branch)
        assert got.primary_branch == primary_branch
        for name in ("fidelity_product_abc", "fidelity_ab", "fidelity_ac"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12), name
        for name, gap in zip(("phi_a", "phi_b", "phi_c"), gaps):
            g, w = getattr(got, name), getattr(want, name)
            assert g.layout == w.layout
            if gap > 1e-6:
                assert np.max(np.abs(g.amplitudes - w.amplitudes)) <= 1e-10, name


def test_extraction_guards():
    inst = perfect_qsb_construct(2, 2, 2, 2)
    psi = basis_state(inst.source_layout, 0)
    with pytest.raises(InvariantViolation):
        extract_product_approx(inst, psi, primary_branch="A")
    with pytest.raises(LayoutMismatch):
        extract_product_approx(inst, random_pure(SpaceLayout([("X", 2)]), 0))


def test_product_floor_values_and_swap():
    fb = product_floors(1e-8, "B")
    assert fb["floor_ab"] == pytest.approx(1.0 - 2e-4, abs=1e-12)
    assert fb["floor_ac"] == pytest.approx(1.0 - 3.4 * 1e-1, abs=1e-12)
    assert fb["floor_abc"] == pytest.approx(1.0 - 3.0 * 1e-1, abs=1e-12)
    fc = product_floors(1e-8, "C")
    assert fc["floor_ac"] == fb["floor_ab"] and fc["floor_ab"] == fb["floor_ac"]
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(BadEpsilon):
            product_floors(bad)


# ---------------------------------------------------------------------------
# overlap geometry
# ---------------------------------------------------------------------------


def test_overlap_lower_bound_values():
    assert overlap_lower_bound(3, 2) == pytest.approx(0.5)
    assert overlap_lower_bound(5, 2) == pytest.approx(math.sqrt(3.0 / 8.0))
    with pytest.raises(BoundVacuous):
        overlap_lower_bound(2, 2)
    with pytest.raises(InvariantViolation):
        overlap_lower_bound(0, 2)


def test_max_overlap_pair_finds_planted_pair():
    lay = SpaceLayout([("Q", 4)])
    vecs = [basis_state(lay, k) for k in range(3)]
    amps = np.zeros(4, dtype=np.complex128)
    amps[0] = math.sqrt(0.9)
    amps[1] = math.sqrt(0.1)
    vecs.append(PureState(lay, amps))
    (i, j), val = max_overlap_pair(vecs)
    assert (i, j) == (0, 3)
    assert val == pytest.approx(math.sqrt(0.9), abs=1e-12)


def test_max_overlap_pair_guards():
    lay = SpaceLayout([("Q", 2)])
    with pytest.raises(EmptyInput):
        max_overlap_pair([basis_state(lay, 0)])
    with pytest.raises(LayoutMismatch):
        max_overlap_pair([basis_state(lay, 0), basis_state(SpaceLayout([("R", 2)]), 0)])


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30)
def test_crowded_vectors_always_meet_bound(seed):
    # m > d forces a close pair; the scan must find one at or above the bound
    rng = np.random.default_rng(seed)
    lay = SpaceLayout([("Q", 2)])
    vecs = [random_pure(lay, rng) for _ in range(5)]
    _, val = max_overlap_pair(vecs)  # raises internally if the bound fails
    assert val >= overlap_lower_bound(5, 2) - 1e-12


def test_gram_schmidt_residual_geometry():
    lay = SpaceLayout([("Q", 3)])
    phi1 = random_pure(lay, 8)
    phi2 = random_pure(lay, 9)
    res = gram_schmidt_residual(phi1, phi2, 0.0)
    assert abs(phi1.overlap(res)) < 1e-12
    assert np.linalg.norm(res.amplitudes) == pytest.approx(1.0)
    rot = gram_schmidt_residual(phi1, phi2, 0.7)
    assert np.allclose(rot.amplitudes, np.exp(0.7j) * res.amplitudes)
    with pytest.raises(DegenerateResidual):
        gram_schmidt_residual(phi1, phi1, 0.0)


@given(
    a=st.floats(0.05, 0.95),
    f12=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * math.pi),
)
@settings(max_examples=60)
def test_lambda_max_matches_eigensolver(a, f12, phase):
    alpha = math.sqrt(a) * np.exp(1j * phase)
    beta = math.sqrt(1.0 - a)
    # realise the overlap exactly in dim 2
    v1 = np.array([1.0, 0.0], dtype=np.complex128)
    v2 = np.array([math.sqrt(f12), math.sqrt(max(1.0 - f12, 0.0))], dtype=np.complex128)
    m = abs(alpha) ** 2 * np.outer(v1, v1.conj()) + abs(beta) ** 2 * np.outer(v2, v2.conj())
    top = float(np.linalg.eigvalsh(m)[-1])
    assert lambda_max_rank2(alpha, beta, f12) == pytest.approx(top, abs=1e-10)


def test_lambda_max_balanced_tiny_overlap_is_stable():
    # catastrophic-cancellation regime: naive 1 - 4|ab|^2(1-f) loses all digits
    val = lambda_max_rank2(1 / math.sqrt(2), 1 / math.sqrt(2), 1e-16)
    assert val == pytest.approx(0.5 * (1.0 + 1e-8), abs=1e-15)


def test_lambda_max_guards():
    with pytest.raises(BadAmplitudes):
        lambda_max_rank2(1.0, 1.0, 0.5)
    with pytest.raises(BadAmplitudes):
        lambda_max_rank2(1.0, 0.0, 1.5)


# ---------------------------------------------------------------------------
# cloning baseline
# ---------------------------------------------------------------------------


def test_cloner_hits_five_sixths_everywhere():
    lay = SpaceLayout([("Q", 2)])
    rng = np.random.default_rng(10)
    states = [basis_state(lay, 0), basis_state(lay, 1)] + [random_pure(lay, rng) for _ in range(10)]
    for psi in states:
        rho_b, rho_c = cloner_baseline(psi)
        assert fidelity_pure(rho_b, psi) == pytest.approx(CLONING_CEILING, abs=1e-12)
        assert fidelity_pure(rho_c, psi) == pytest.approx(CLONING_CEILING, abs=1e-12)
        assert np.allclose(rho_b.matrix, rho_c.matrix, atol=1e-12)


def test_cloner_rejects_non_qubits():
    with pytest.raises(BadDim):
        cloner_baseline(random_pure(SpaceLayout([("Q", 3)]), 0))


# ---------------------------------------------------------------------------
# chain constants and thresholds
# ---------------------------------------------------------------------------


def test_chain_constants_exact_values():
    rep = chain_constants(1e-16, 2)
    assert rep.eps_prime_b == 2e-8
    assert rep.eps_prime_c == pytest.approx(3.4e-2, rel=1e-12)
    assert rep.eps_dprime_b == 2.0 * math.sqrt(2e-8) + 2e-8
    assert rep.eps_tprime_b == pytest.approx(
        3.0 * math.sqrt(2e-8) + math.sqrt(rep.eps_dprime_b) + rep.eps_dprime_b, rel=1e-14
    )
    assert rep.shared_closeness_deficit == pytest.approx(
        4.0 * (math.sqrt(2e-8) + math.sqrt(rep.eps_tprime_b)), rel=1e-14
    )
    assert rep.eps_iv_b == pytest.approx(3.8 * (1e-16) ** (1 / 64), rel=1e-12)
    assert rep.eps_iv_c == pytest.approx(3.9 * (1e-16) ** (1 / 128), rel=1e-12)
    assert rep.admissible_b and not rep.admissible_c
    assert rep.eps_zero == 0.6e-175

    data = rep.to_json()
    assert data["constants"]["eps_prime_b"] == 2e-8
    assert data["all_satisfied"] is True  # no checks recorded yet
    assert rep.csv_rows() == []


def test_chain_constants_guards():
    for bad in (0.0, -1e-3, 1.1):
        with pytest.raises(BadEpsilon):
            chain_constants(bad, 2)
    with pytest.raises(InvariantViolation):
        chain_constants(1e-4, 0)


def test_asymptotic_ladder_bounds_exact_constants():
    ladder = asymptotic_ladder()
    exps = {k: e for k, (_, e) in ladder.items()}
    assert exps == {
        "eps_prime_b": 1 / 2,
        "eps_prime_c": 1 / 8,
        "eps_dprime_b": 1 / 4,
        "eps_dprime_c": 1 / 16,
        "eps_tprime_b": 1 / 8,
        "eps_tprime_c": 1 / 32,
        "shared_closeness": 1 / 16,
        "eps_iv_b": 1 / 64,
        "eps_iv_c": 1 / 128,
    }
    # collapsing onto the weakest exponent can only raise the value
    for eps in (1e-3, 1e-8, 1e-20):
        rep = chain_constants(eps, 2)
        exact = {
            "eps_prime_b": rep.eps_prime_b,
            "eps_prime_c": rep.eps_prime_c,
            "eps_dprime_b": rep.eps_dprime_b,
            "eps_dprime_c": rep.eps_dprime_c,
            "eps_tprime_b": rep.eps_tprime_b,
            "eps_tprime_c": rep.eps_tprime_c,
            "shared_closeness": rep.shared_closeness_deficit,
        }
        for key, val in exact.items():
            c, e = ladder[key]
            assert val <= c * eps ** e + 1e-12, key


def test_epsilon_threshold_regimes():
    thr, fixed, dim = epsilon_threshold(1)
    assert thr == fixed == 0.6e-175 and dim == 2.4e-14
    thr2, fixed2, dim2 = epsilon_threshold(2)
    assert thr2 == fixed2 and dim2 == pytest.approx(2.4e-14 / 256.0)
    # the dimension-dependent candidate only takes over for astronomically
    # large shared subsystems (d_a^8 beyond ~4e161)
    thr_big, _, dim_big = epsilon_threshold(10**21)
    assert thr_big == dim_big == pytest.approx(2.4e-14 / 1e168)
    with pytest.raises(InvariantViolation):
        epsilon_threshold(0)


# ---------------------------------------------------------------------------
# chain verification
# ---------------------------------------------------------------------------


def test_chain_verify_guards():
    inst = perfect_qsb_construct(2, 2, 2, 2)
    basis = [basis_state(inst.source_layout, k) for k in range(2)]
    with pytest.raises(ChainNotApplicable):
        chain_verify(inst, basis, 0.0)
    with pytest.raises(BadEpsilon):
        chain_verify(inst, basis, 1.5, allow_trivial=True)
    with pytest.raises(InvariantViolation):
        chain_verify(inst, basis[:1], 0.0, allow_trivial=True)
    with pytest.raises(InvariantViolation):
        chain_verify(inst, [basis[0], basis[0]], 0.0, allow_trivial=True)


def test_chain_verify_trivial_instance_all_clear():
    inst = perturbed_perfect_instance(2, 2, 2, 2, 1e-6)
    basis = [basis_state(inst.source_layout, k) for k in range(2)]
    report = chain_verify(inst, basis, 0.0, allow_trivial=True, seed=1)
    assert report.all_satisfied
    assert report.selected_pair is not None
    assert report.eps >= 1e-6 * (1.0 - 0.25) - 1e-12  # at least the measured deficit
    assert not report.cloning_contradiction
    # conditional floors are recorded but vacuous without the crowding premise
    labels = {c.label: c for c in report.checks}
    assert labels["shared_closeness_floor"].vacuous
    assert any(l.startswith("product_floor_ab[") and not c.vacuous for l, c in labels.items())


def test_chain_verify_enforced_on_optimized_instance():
    from qsblab.optimize import OptimizeConfig, SampleSpec, optimize_qsb

    cfg = OptimizeConfig(
        d_s=3,
        d_a=2,
        d_b=2,
        d_c=2,
        restarts=2,
        max_iters=250,
        sample_spec=SampleSpec(haar_count=40),
        seed=0,
    )
    point = optimize_qsb(cfg)
    inst = point.best_instance
    basis = [basis_state(inst.source_layout, k) for k in range(3)]
    report = chain_verify(inst, basis, point.eps_hat, seed=2)
    assert report.all_satisfied
    assert report.selected_pair is not None
    # crowding on the shared subsystem is enforced here: three copies in dim 2
    labels = {c.label: c for c in report.checks}
    crowd = labels["crowding_overlap_floor"]
    assert not crowd.vacuous and crowd.satisfied
    sel = labels["selected_pair_fidelity_floor"]
    assert not sel.vacuous and sel.lhs >= 0.25 - 1e-9


def _per_sample_chain(instance, basis, eps_hat, primary_branch, seed):
    # reference: chain_verify with one state object per sampled input, the
    # channel applied to each and its marginal traced out
    d_s, d_a = instance.d_s, instance.d_a
    _check_orthonormal_basis(basis, d_s)
    rng = np.random.default_rng(seed)
    extractions = [_object_extract(instance, b, primary_branch)[0] for b in basis]
    phi_as = [e.phi_a for e in extractions]
    phi_bs = [e.phi_b for e in extractions]
    phi_cs = [e.phi_c for e in extractions]
    (k1, k2), a_overlap = max_overlap_pair(phi_as)
    coeffs = list(zip(*_superposition_coeffs(8, 24, rng)))
    sup_states = []
    for al, be in coeffs:
        amps = al * basis[k1].amplitudes + be * basis[k2].amplitudes
        sup_states.append(PureState(instance.source_layout, amps / np.linalg.norm(amps)))
    eps_run, _ = measure_eps(instance, basis + sup_states)
    eps_eff = min(max(max(eps_hat, eps_run), 1e-300), 1.0)
    consts = chain_constants(eps_eff, d_a)
    checks = []
    floors = product_floors(eps_eff, primary_branch)
    for k, e in enumerate(extractions):
        checks.append(_floor_check(f"product_floor_abc[{k}]", e.fidelity_product_abc, 1.0 - 3.0 * eps_eff ** 0.125))
        checks.append(_floor_check(f"product_floor_ab[{k}]", e.fidelity_ab, floors["floor_ab"]))
        checks.append(_floor_check(f"product_floor_ac[{k}]", e.fidelity_ac, floors["floor_ac"]))
    for branch, phis, cap in (("b", phi_bs, consts.eps_dprime_b), ("c", phi_cs, consts.eps_dprime_c)):
        for i in range(d_s):
            for j in range(i + 1, d_s):
                val = abs(phi_as[i].overlap(phi_as[j])) * abs(phis[i].overlap(phis[j]))
                checks.append(_ceiling_check(f"pair_product_overlap_{branch}[{i},{j}]", val, cap))
    guaranteed = d_s > d_a
    checks.append(
        BoundCheck.of(
            a_overlap ** 2,
            1.0 / float(d_a) ** 2 if guaranteed else 0.0,
            label="selected_pair_fidelity_floor",
            vacuous=not guaranteed,
        )
    )
    if guaranteed:
        checks.append(
            BoundCheck.of(a_overlap, overlap_lower_bound(d_s, d_a) - 1e-12, label="crowding_overlap_floor")
        )
    checks.append(
        _floor_check(
            "shared_closeness_floor",
            a_overlap ** 2,
            1.0 - consts.shared_closeness_deficit,
            enforced=guaranteed and consts.admissible_b,
        )
    )
    theta, degenerate = {}, []
    for branch, phis, v_rep, edp, etp, eiv, admissible, lbl in (
        ("b", phi_bs, instance.v_abs, consts.eps_dprime_b, consts.eps_tprime_b, consts.eps_iv_b, consts.admissible_b, "B"),
        ("c", phi_cs, instance.v_acs, consts.eps_dprime_c, consts.eps_tprime_c, consts.eps_iv_c, consts.admissible_c, "C"),
    ):
        cond = guaranteed and admissible
        x1, x2 = phis[k1], phis[k2]
        checks.append(
            _ceiling_check(f"outer_overlap_ceiling_{branch}", abs(x1.overlap(x2)), math.sqrt(edp), enforced=cond)
        )
        try:
            resid0 = gram_schmidt_residual(x1, x2, 0.0)
        except DegenerateResidual:
            degenerate.append(branch)
            continue
        t1 = np.kron(phi_as[k1].amplitudes, x1.amplitudes)
        t2 = np.kron(phi_as[k2].amplitudes, resid0.amplitudes)
        psi_reps = [apply_isometry(v_rep, s) for s in sup_states]
        xs = np.array([np.conj(al) * np.vdot(t1, p.amplitudes) for (al, _), p in zip(coeffs, psi_reps)])
        ys = np.array([np.conj(be) * np.vdot(t2, p.amplitudes) for (_, be), p in zip(coeffs, psi_reps)])
        offsets = np.abs(xs) ** 2 + np.abs(ys) ** 2
        cross = xs * np.conj(ys)
        th, _ = _best_phase(offsets, cross)
        theta[branch] = th
        for i, f in enumerate(offsets + 2.0 * np.real(cross * np.exp(1j * th))):
            checks.append(_floor_check(f"superposition_floor_{branch}[{i}]", float(f), 1.0 - etp, enforced=cond))
        resid = gram_schmidt_residual(x1, x2, th)
        rho_x = [partial_trace(apply(instance.channel, s.density()), [lbl]).matrix for s in sup_states]
        parts = [(al * x1.amplitudes, be * resid.amplitudes, r) for (al, be), r in zip(coeffs, rho_x)]
        offs = np.array([np.real(np.vdot(u, r @ u) + np.vdot(v, r @ v)) for u, v, r in parts])
        crs = np.array([np.vdot(u, r @ v) for u, v, r in parts])
        thp, _ = _best_phase(offs, crs)
        theta[branch + "_prime"] = thp
        for i, f in enumerate(offs + 2.0 * np.real(crs * np.exp(1j * thp))):
            checks.append(_floor_check(f"copy_map_floor_{branch}[{i}]", float(f), 1.0 - eiv, enforced=cond))
    return consts.eps, (k1, k2), checks, theta, degenerate


@pytest.mark.parametrize("primary_branch", ["B", "C"])
@pytest.mark.parametrize(
    "make",
    [
        lambda dims=dims, env=env: _random_instance(*dims, seed=20 + env, env=env)
        for dims in BENCH_DIMS
        for env in (1, dims[0])
    ]
    + [
        lambda: perturbed_perfect_instance(2, 2, 2, 2, 1e-6),
        lambda: perturbed_perfect_instance(3, 3, 2, 2, 1e-3),
    ],
)
def test_chain_verify_matches_per_sample_reference(make, primary_branch):
    inst = make()
    basis = [basis_state(inst.source_layout, k) for k in range(inst.d_s)]
    report = chain_verify(inst, basis, 0.0, primary_branch=primary_branch, seed=5, allow_trivial=True)
    eps, pair, checks, theta, degenerate = _per_sample_chain(inst, basis, 0.0, primary_branch, seed=5)
    assert report.eps == pytest.approx(eps, rel=1e-12, abs=1e-15)
    assert report.selected_pair == pair
    assert list(report.residual_degenerate) == degenerate
    assert [c.label for c in report.checks] == [c.label for c in checks]
    for got, want in zip(report.checks, checks):
        assert (got.satisfied, got.vacuous) == (want.satisfied, want.vacuous), got.label
        assert got.lhs == pytest.approx(want.lhs, abs=1e-7), got.label
        assert got.rhs == pytest.approx(want.rhs, abs=1e-7), got.label
    assert report.theta.keys() == theta.keys()


def test_chain_verify_applies_no_channel_and_builds_no_density_matrix(monkeypatch):
    # basis states and superpositions alike go through the Stinespring matrix
    calls = []
    apply_channel = channels_module.apply
    validate = DensityMatrix.__post_init__

    def counting_apply(channel, rho):
        calls.append("apply")
        return apply_channel(channel, rho)

    def counting_validate(self):
        calls.append("DensityMatrix")
        validate(self)

    monkeypatch.setattr(channels_module, "apply", counting_apply)
    monkeypatch.setattr(DensityMatrix, "__post_init__", counting_validate)
    inst = _random_instance(4, 2, 2, 2, seed=30, env=4)
    basis = [basis_state(inst.source_layout, k) for k in range(4)]
    for branch in ("B", "C"):
        chain_verify(inst, basis, 0.0, primary_branch=branch, seed=1)
    assert calls == []
    basis[0].density()  # the counter does see a construction
    assert calls == ["DensityMatrix"]


def test_chain_verify_rejects_bad_branch_and_foreign_basis():
    inst = _random_instance(3, 2, 2, 2, seed=31)
    basis = [basis_state(inst.source_layout, k) for k in range(3)]
    with pytest.raises(InvariantViolation):
        chain_verify(inst, basis, 0.0, primary_branch="A")
    other = SpaceLayout([("X", 3)])
    with pytest.raises(LayoutMismatch):
        chain_verify(inst, [basis_state(other, k) for k in range(3)], 0.0)


def test_extraction_rejects_an_output_orthogonal_to_the_secondary_image():
    # the channel parks C in |0>, the A-C representation expects |1> there
    base = perfect_qsb_construct(2, 2, 2, 2)
    m_ac = np.zeros((4, 2), dtype=np.complex128)
    m_ac[[1, 3], [0, 1]] = 1.0
    inst = QsbInstance(base.channel, base.v_abs, Isometry(base.source_layout, base.v_acs.output_layout, m_ac))
    basis = [basis_state(inst.source_layout, k) for k in range(2)]
    with pytest.raises(InvariantViolation, match="orthogonal to the secondary"):
        extract_product_approx(inst, basis[0], "B")
    with pytest.raises(InvariantViolation, match="orthogonal to the secondary"):
        chain_verify(inst, basis, 0.0, allow_trivial=True)
    assert extract_product_approx(inst, basis[0], "C").fidelity_ab == pytest.approx(1.0, abs=1e-15)


def test_chain_verify_accepts_an_output_named_e():
    # the purification's environment is the Kraus index, not a label, so an
    # output subsystem named E no longer clashes with it
    inst = _random_instance(3, 2, 2, 2, seed=32, env=3, labels=("A", "B", "E"))
    basis = [basis_state(inst.source_layout, k) for k in range(3)]
    plain = _random_instance(3, 2, 2, 2, seed=32, env=3)
    got, want = chain_verify(inst, basis, 0.0, seed=3), chain_verify(plain, basis, 0.0, seed=3)
    assert [(c.label, c.lhs, c.rhs) for c in got.checks] == [(c.label, c.lhs, c.rhs) for c in want.checks]


def _grid_max(offsets, cross, points=8192):
    grid = np.linspace(0.0, 2.0 * np.pi, points, endpoint=False)
    return (offsets[:, None] + 2.0 * np.real(cross[:, None] * np.exp(1j * grid))).min(axis=0).max()


def _worst_at(offsets, cross, theta):
    return float((offsets + 2.0 * np.real(cross * np.exp(1j * theta))).min())


def _phase_case(seed, m=32):
    rng = np.random.default_rng(seed)
    offsets = rng.random(m) + 1.0
    cross = 0.2 * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
    return offsets, cross


def test_best_phase_reaches_the_exact_max_min():
    # a golden-section search around the best of 256 grid cells stopped at
    # 0.7800822 here; an 8192-point grid reaches 0.7825357
    offsets, cross = _phase_case(341)
    theta, val = _best_phase(offsets, cross)
    assert val == pytest.approx(0.7825726, abs=1e-7)
    assert val >= _grid_max(offsets, cross) - 1e-12
    assert _worst_at(offsets, cross, theta) == pytest.approx(val, abs=1e-14)


@pytest.mark.parametrize("m", [2, 5, 32])
def test_best_phase_beats_a_fine_grid(m):
    for seed in range(200):
        offsets, cross = _phase_case(1000 + seed, m)
        theta, val = _best_phase(offsets, cross)
        assert 0.0 <= theta < 2.0 * np.pi
        assert val >= _grid_max(offsets, cross) - 1e-12, seed
        assert _worst_at(offsets, cross, theta) == pytest.approx(val, abs=1e-14)


def test_best_phase_edge_cases():
    # no coherence anywhere: the value is the smallest offset at any phase
    theta, val = _best_phase(np.array([0.9, 0.7, 0.8]), np.zeros(3, dtype=np.complex128))
    assert 0.0 <= theta < 2.0 * np.pi and val == 0.7
    # one sample: its own peak
    theta, val = _best_phase(np.array([0.5]), np.array([0.1j]))
    assert theta == pytest.approx(1.5 * np.pi) and val == pytest.approx(0.7, abs=1e-15)
    # two identical samples give identical curves and no crossing
    theta, val = _best_phase(np.array([0.5, 0.5]), np.array([0.1 + 0.1j, 0.1 + 0.1j]))
    assert theta == pytest.approx(1.75 * np.pi) and val == pytest.approx(0.5 + 0.2 * math.sqrt(2.0), abs=1e-15)
    # a peak at -0.0 or just below zero still comes back in [0, 2 pi)
    for c in (1.0 + 0.0j, 1.0 + 1e-17j, 1.0 - 1e-300j):
        theta, _ = _best_phase(np.array([0.5]), np.array([c]))
        assert 0.0 <= theta < 2.0 * np.pi
