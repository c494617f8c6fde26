"""Shared broadcasting: constructions, deficit measurement, and the chain argument."""

import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qsblab.qsb as qsb_module
from _reference import channel_action, kraus_ops, partial_trace, pure_density, purify
from qsblab.errors import ChainNotApplicable, InvariantViolation, NoPerfectQsb
from qsblab.hilbert import (
    DensityMatrix,
    PureState,
    SpaceLayout,
    basis_state,
    eigh_desc,
    haar_isometry_matrix,
    random_pure,
)
from qsblab.metrics import BoundCheck, fidelity_pure
from qsblab.optimize import OptimizeConfig, optimize_qsb
from qsblab.qsb import (
    CLONING_CEILING,
    ProductApprox,
    QsbInstance,
    _best_phase,
    _closest_pair,
    asymptotic_ladder,
    chain_constants,
    chain_verify,
    cloner_baseline,
    default_probe_states,
    epsilon_threshold,
    extract_product_approx,
    lambda_max_rank2,
    max_overlap_pair,
    measure_eps,
    overlap_lower_bound,
    perfect_qsb_construct,
    perturbed_perfect_instance,
    product_floors,
    split_clone_construct,
    werner_cloner_construct,
)


def _random_instance(d_s, d_a, d_b, d_c, seed, env=1, labels=("A", "B", "C")):
    """Haar-random pieces (no optimisation): a Stinespring isometry S -> ABCE
    with env Kraus operators, isometric for env = 1."""
    rng = np.random.default_rng(seed)
    return QsbInstance(
        SpaceLayout([("S", d_s)]),
        SpaceLayout(zip(labels, (d_a, d_b, d_c))),
        haar_isometry_matrix(rng, d_a * d_b * d_c * env, d_s),
        haar_isometry_matrix(rng, d_a * d_b, d_s),
        haar_isometry_matrix(rng, d_a * d_c, d_s),
    )


def _kraus(instance):
    return kraus_ops(instance.u, instance.output_layout.total_dim)


def _swap_private(instance):
    """The instance with its private outputs B and C exchanged, V_AB and V_AC
    with them: the way to make C the purification-route receiver."""
    d_a, d_b, d_c = instance.d_a, instance.d_b, instance.d_c
    u = instance.u.reshape(d_a, d_b, d_c, -1).transpose(0, 2, 1, 3)
    return QsbInstance.from_stinespring(u.reshape(-1, instance.d_s), instance.v_acs, instance.v_abs, d_a, d_c, d_b)


# the chain-verify benchmark's dimensions, with a Stinespring environment of d_s
BENCH_DIMS = ((3, 1, 3, 3), (3, 2, 2, 2), (4, 2, 2, 2), (4, 3, 2, 2))


# ---------------------------------------------------------------------------
# perfect construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 1), (1, 1, 1, 1), (3, 4, 2, 3)])
def test_perfect_construction_has_no_deficit(dims):
    inst = perfect_qsb_construct(*dims)
    probes = default_probe_states(inst.d_s, seed=0, haar_count=20)
    eps_hat, f_ab, f_ac = measure_eps(inst, probes)
    assert eps_hat <= 1e-12
    assert np.all(np.minimum(f_ab, f_ac) >= 1.0 - 1e-12)


def test_perfect_construction_rejections():
    with pytest.raises(NoPerfectQsb):
        perfect_qsb_construct(3, 2, 2, 2)
    with pytest.raises(InvariantViolation):
        perfect_qsb_construct(2, 2, 0, 2)


def test_constructors_take_the_integer_rule_and_name_a_bad_dimension():
    for make, err, match in (
        (lambda: perfect_qsb_construct(2.0, 2, 1, 1), TypeError, "d_s 2.0 is not an integer"),
        (lambda: werner_cloner_construct(2.0), TypeError, "d 2.0 is not an integer"),
        (lambda: perturbed_perfect_instance(2, 2, 2, 2.0, 0.1), TypeError, "d_c 2.0 is not an integer"),
        (lambda: werner_cloner_construct(True), TypeError, "d True is a bool"),
        (lambda: werner_cloner_construct(0), InvariantViolation, "d = 0 must be >= 1"),
        (lambda: perturbed_perfect_instance(2, 2, 0, 2, 0.1), InvariantViolation, "d_b = 0 must be >= 1"),
        (lambda: split_clone_construct(2, 1, 0), InvariantViolation, "d_prime = 0 must be >= 1"),
        (lambda: perturbed_perfect_instance(2, 2, 2, 2, True), TypeError, "weight True is a bool"),
    ):
        with pytest.raises(err, match=match):
            make()
    # numpy's integers are integers: the same instance as from ints
    two = np.int64(2)
    for a, b in (
        (werner_cloner_construct(two), werner_cloner_construct(2)),
        (perturbed_perfect_instance(two, two, 1, two, 0.1), perturbed_perfect_instance(2, 2, 1, 2, 0.1)),
    ):
        assert a.output_layout == b.output_layout and np.array_equal(a.u, b.u)


def test_instance_validation():
    base = perfect_qsb_construct(2, 2, 2, 2)
    # a two-subsystem channel output is not a broadcast channel
    with pytest.raises(InvariantViolation, match="exactly three subsystems"):
        replace(base, output_layout=SpaceLayout([("A", 2), ("B", 4)]))
    # nor is a channel whose input is a pair of subsystems
    with pytest.raises(InvariantViolation, match="single subsystem"):
        replace(base, source_layout=SpaceLayout([("S", 1), ("T", 2)]))
    # each representation must be an isometry of the right shape
    for bad in (np.ones((4, 2)), np.full((4, 2), np.nan)):
        with pytest.raises(InvariantViolation, match="isometry of v_abs violated"):
            replace(base, v_abs=bad)
    with pytest.raises(InvariantViolation, match="isometry of v_acs violated by nan"):
        replace(base, v_acs=np.full((4, 2), np.nan))
    with pytest.raises(InvariantViolation, match=r"v_acs shape \(2, 2\), expected \(4, 2\)"):
        replace(base, v_acs=np.eye(2))


def test_instance_json_roundtrip():
    for inst in (
        perturbed_perfect_instance(2, 2, 2, 2, 0.05),
        perturbed_perfect_instance(3, 3, 2, 2, 1e-2),  # through mix's QR compression
        werner_cloner_construct(3),
        _random_instance(3, 2, 2, 2, seed=12, env=3, labels=("A", "B", "E")),
    ):
        data = inst.to_json()
        back = QsbInstance.from_json(json.loads(json.dumps(data)))
        assert (back.source_layout, back.output_layout) == (inst.source_layout, inst.output_layout)
        for got, want in ((back.u, inst.u), (back.v_abs, inst.v_abs), (back.v_acs, inst.v_acs)):
            assert got.tobytes() == want.tobytes()
        # file Kraus operator e is the E = e slice of u
        assert len(data["kraus"]) == inst.d_e
        d_o = inst.output_layout.total_dim
        for e, k in enumerate(data["kraus"]):
            op = np.array([[complex(*z) for z in row] for row in k])
            assert np.array_equal(op, inst.u.reshape(d_o, inst.d_e, inst.d_s)[:, e])


# ---------------------------------------------------------------------------
# deficit measurement
# ---------------------------------------------------------------------------


def test_measure_eps_guards():
    inst = perfect_qsb_construct(2, 2, 2, 2)
    with pytest.raises(InvariantViolation, match="measure_eps needs at least one probe state"):
        measure_eps(inst, np.zeros((2, 0)))
    with pytest.raises(InvariantViolation, match=r"probe array of shape \(3, 1\), expected \(2, n\)"):
        measure_eps(inst, random_pure(SpaceLayout([("X", 3)]), 0).amplitudes[:, None])
    # every column must be a unit vector, and a NaN is not one
    for bad in (np.ones(2), np.array([np.nan, 0.0])):
        with pytest.raises(InvariantViolation, match="state norm"):
            measure_eps(inst, np.stack([np.array([1.0, 0.0]), bad], axis=1))


def test_unit_columns_are_checked_in_one_place():
    # a state and a probe column are held to one rule with one message, and
    # neither a NaN nor an overflowing entry warns on the way to it
    inst = perfect_qsb_construct(2, 2, 2, 2)
    lay = SpaceLayout([("S", 2)])
    for v in (np.array([1.1, 0.0]), np.array([np.nan, 0.0]), np.array([1e200, 0.0])):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvariantViolation, match="state norm") as alone:
                PureState(lay, v)
            with pytest.raises(InvariantViolation) as probe:
                measure_eps(inst, v[:, None])
        assert str(probe.value) == str(alone.value)


def test_measure_eps_monotone_in_probe_set():
    inst = _random_instance(2, 2, 2, 2, seed=3)
    probes = default_probe_states(inst.d_s, seed=4, haar_count=30)
    e_small, _, _ = measure_eps(inst, probes[:, :5])
    e_full, _, _ = measure_eps(inst, probes)
    assert e_full >= e_small - 1e-15


def test_fidelities_match_slow_path():
    inst = _random_instance(2, 2, 2, 2, seed=5)
    rng = np.random.default_rng(6)
    for _ in range(10):
        psi = random_pure(inst.source_layout, rng)
        _, fast_ab, fast_ac = measure_eps(inst, psi.amplitudes[:, None])
        rho = channel_action(_kraus(inst), np.outer(psi.amplitudes, psi.amplitudes.conj()))
        dims = (inst.d_a, inst.d_b, inst.d_c)
        t_ab, t_ac = inst.v_abs @ psi.amplitudes, inst.v_acs @ psi.amplitudes
        slow_ab = np.vdot(t_ab, partial_trace(rho, dims, [0, 1]) @ t_ab).real
        slow_ac = np.vdot(t_ac, partial_trace(rho, dims, [0, 2]) @ t_ac).real
        assert fast_ab[0] == pytest.approx(slow_ab, abs=1e-10)
        assert fast_ac[0] == pytest.approx(slow_ac, abs=1e-10)


def _kraus_loop_fidelities(instance, cols):
    # reference: the receiver fidelities summed Kraus operator by Kraus operator
    d_a, d_b, d_c = instance.d_a, instance.d_b, instance.d_c
    n = cols.shape[1]
    psi_ab = (instance.v_abs @ cols).reshape(d_a, d_b, n)
    psi_ac = (instance.v_acs @ cols).reshape(d_a, d_c, n)
    f_ab = np.zeros(n)
    f_ac = np.zeros(n)
    for k in _kraus(instance):
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
    probes = default_probe_states(inst.d_s, seed=14, haar_count=40)
    eps_hat, got_ab, got_ac = measure_eps(inst, probes)
    f_ab, f_ac = _kraus_loop_fidelities(inst, probes)
    assert np.max(np.abs(got_ab - f_ab)) <= 1e-13
    assert np.max(np.abs(got_ac - f_ac)) <= 1e-13
    assert eps_hat == pytest.approx(1.0 - min(f_ab.min(), f_ac.min()), abs=1e-13)
    _, one_ab, one_ac = measure_eps(inst, probes[:, -1:])
    assert (one_ab[0], one_ac[0]) == pytest.approx((f_ab[-1], f_ac[-1]), abs=1e-13)


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
        got = default_probe_states(d, rng, haar_count=haar_count, phase_count=phase_count)
        assert got.shape == (d, len(want))
        assert np.array_equal(got, np.stack([w.amplitudes for w in want], axis=1))
        assert rng.random() == next_draw  # the same draws, nothing more


def test_default_probe_states_census():
    probes = default_probe_states(3, seed=0, haar_count=7, phase_count=4)
    assert probes.shape == (3, 3 + 3 * 4 + 7)  # basis + pairs x phases + haar
    again = default_probe_states(3, seed=0, haar_count=7, phase_count=4)
    assert np.array_equal(probes, again)


def test_default_probe_states_refuse_bad_dims_counts_and_seeds():
    for kwargs, match in (
        (dict(d_s=0), "d_s = 0 must be >= 1"),
        (dict(haar_count=-1), "haar_count = -1 must be >= 0"),
        (dict(phase_count=-1), "phase_count = -1 must be >= 0"),
    ):
        with pytest.raises(InvariantViolation, match=match):
            default_probe_states(**{"d_s": 2, "seed": 0, **kwargs})
    for kwargs in (dict(d_s=2.0), dict(haar_count=1.5), dict(phase_count=True), dict(seed=True)):
        with pytest.raises(TypeError, match="not an integer"):
            default_probe_states(**{"d_s": 2, "seed": 0, **kwargs})
    with pytest.raises(InvariantViolation, match="seed = -1 must be >= 0"):
        default_probe_states(2, -1)
    # a numpy integer seed is the same seed
    assert np.array_equal(default_probe_states(2, np.int64(3), 5), default_probe_states(2, 3, 5))


def test_default_probe_states_on_a_layout():
    lay = SpaceLayout([("S", 3)])
    states = default_probe_states(lay, seed=5, haar_count=20)
    assert all(isinstance(p, PureState) and p.layout == lay for p in states)
    cols = default_probe_states(3, seed=5, haar_count=20)
    assert np.array_equal(np.stack([p.amplitudes for p in states], axis=1), cols)


def test_default_probe_states_are_fresh_arrays_over_a_read_only_cached_block():
    # the seed-free head is built once per shape; every call still returns
    # its own writable array, so a caller that writes one changes no other
    for haar_count in (0, 5):
        a, b = (default_probe_states(3, 0, haar_count) for _ in range(2))
        fixed = qsb_module._fixed_probe_columns(3, 8)
        assert not fixed.flags.writeable
        assert a.flags.writeable and b.flags.writeable
        assert not np.shares_memory(a, b) and not np.shares_memory(a, fixed)
        assert np.array_equal(a[:, : fixed.shape[1]], fixed)
        a[:] = 0.0
        assert np.array_equal(default_probe_states(3, 0, haar_count), b)
    # bounded: a caller sweeping d_s keeps only the last few blocks and index pairs
    for d in range(2, 12):
        default_probe_states(d, 0, 0)
    for cache, size in ((qsb_module._fixed_probe_columns, 4), (qsb_module._pairs, 8)):
        assert cache.cache_info().currsize == cache.cache_info().maxsize == size


def test_chain_labels_are_one_read_only_table_per_shape():
    labels = qsb_module._chain_labels(3, 32)
    assert labels is qsb_module._chain_labels(3, 32)
    with pytest.raises(TypeError):
        labels["product_floor_ab"] = ()
    assert labels["product_floor_ab"] == ("product_floor_ab[0]", "product_floor_ab[1]", "product_floor_ab[2]")
    assert labels["pair_product_overlap_c"] == (
        "pair_product_overlap_c[0,1]", "pair_product_overlap_c[0,2]", "pair_product_overlap_c[1,2]"
    )
    assert labels["outer_overlap_ceiling_b"] == ("outer_overlap_ceiling_b",)
    assert labels["copy_map_floor_c"][-1] == "copy_map_floor_c[31]"
    # every indexed row of a report takes its label from the table
    rows = [c.label for c in chain_verify(_random_instance(3, 2, 2, 2, seed=1), 0.0).checks]
    table = {label for family in labels.values() for label in family}
    assert table <= set(rows)
    assert len(rows) == len(table) + 3  # the selected pair, crowding and closeness rows


def test_perturbed_deficit_is_exact():
    for dims, w in [((2, 2, 2, 2), 0.01), ((2, 2, 3, 2), 0.05)]:
        inst = perturbed_perfect_instance(*dims, w)
        probes = default_probe_states(inst.d_s, seed=2, haar_count=25)
        eps_hat, _, _ = measure_eps(inst, probes)
        d_a, d_b, d_c = dims[1], dims[2], dims[3]
        expect = w * (1.0 - 1.0 / (d_a * max(d_b, d_c)))
        assert eps_hat == pytest.approx(expect, abs=1e-10)


# ---------------------------------------------------------------------------
# product extraction
# ---------------------------------------------------------------------------


def test_extraction_beats_floors_both_branches():
    inst = perturbed_perfect_instance(2, 2, 2, 2, 1e-6)
    probes = default_probe_states(inst.d_s, seed=7, haar_count=10)
    eps_hat, _, _ = measure_eps(inst, probes)
    assert eps_hat > 0.0
    states = [basis_state(inst.source_layout, k) for k in range(2)]
    states.append(PureState(inst.source_layout, probes[:, 3]))
    floors = product_floors(eps_hat)
    # C takes the tight floor on the instance with B and C swapped
    for make in (inst, _swap_private(inst)):
        for psi in states:
            ext = extract_product_approx(make, psi)
            assert ext.fidelity_ab >= max(floors["floor_ab"], 0.0) - 1e-12
            assert ext.fidelity_ac >= max(floors["floor_ac"], 0.0) - 1e-12
            assert ext.fidelity_product_abc >= max(floors["floor_abc"], 0.0) - 1e-12


def _object_extract(instance, psi):
    # reference: the extraction on plain arrays; the channel output is
    # purified by its own eigendecomposition and the marginals traced out.
    # Returns the ProductApprox and the top eigenvalue gap of each marginal.
    d_a, d_b, d_c = instance.d_a, instance.d_b, instance.d_c
    layouts = [SpaceLayout([sub]) for sub in instance.output_layout.subsystems]
    psi_ab = instance.v_abs @ psi.amplitudes
    psi_ac = instance.v_acs @ psi.amplitudes
    rho_abc = channel_action(_kraus(instance), np.outer(psi.amplitudes, psi.amplitudes.conj()))
    pure = purify(rho_abc).reshape(d_a, d_b, d_c, -1)
    v_be = np.einsum("ac,abce->be", psi_ac.conj().reshape(d_a, d_c), pure).reshape(-1)
    v_be /= np.linalg.norm(v_be)

    def top(rho):
        w, v = eigh_desc(rho)
        return v[:, 0], (w[0] - w[1] if len(w) > 1 else np.inf)

    ac = np.outer(psi_ac, psi_ac.conj())
    (phi_a, g_a), (phi_b, g_b), (phi_c, g_c) = (
        top(partial_trace(ac, (d_a, d_c), [0])),
        top(partial_trace(np.outer(v_be, v_be.conj()), (d_b, len(v_be) // d_b), [0])),
        top(partial_trace(ac, (d_a, d_c), [1])),
    )
    product = np.kron(np.kron(phi_a, phi_b), phi_c)
    ext = ProductApprox(
        phi_a=PureState(layouts[0], phi_a),
        phi_b=PureState(layouts[1], phi_b),
        phi_c=PureState(layouts[2], phi_c),
        fidelity_product_abc=np.vdot(product, rho_abc @ product).real,
        fidelity_ab=abs(np.vdot(psi_ab, np.kron(phi_a, phi_b))) ** 2,
        fidelity_ac=abs(np.vdot(psi_ac, np.kron(phi_a, phi_c))) ** 2,
    )
    return ext, (g_a, g_b, g_c)


# "C" runs the instance with B and C swapped, which makes C the primary receiver
@pytest.mark.parametrize("primary", ["B", "C"])
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
def test_extraction_matches_object_path(make, primary):
    inst = make() if primary == "B" else _swap_private(make())
    rng = np.random.default_rng(41)
    states = [basis_state(inst.source_layout, k) for k in range(inst.d_s)]
    states += [random_pure(inst.source_layout, rng) for _ in range(3)]
    for psi in states:
        got = extract_product_approx(inst, psi)
        want, gaps = _object_extract(inst, psi)
        for name in ("fidelity_product_abc", "fidelity_ab", "fidelity_ac"):
            assert getattr(got, name) == pytest.approx(getattr(want, name), abs=1e-12), name
        for name, gap in zip(("phi_a", "phi_b", "phi_c"), gaps):
            g, w = getattr(got, name), getattr(want, name)
            assert g.layout == w.layout
            if gap > 1e-6:
                assert np.max(np.abs(g.amplitudes - w.amplitudes)) <= 1e-10, name


def test_extraction_guards():
    inst = perfect_qsb_construct(2, 2, 2, 2)
    with pytest.raises(InvariantViolation, match="input does not live on the source layout"):
        extract_product_approx(inst, random_pure(SpaceLayout([("X", 2)]), 0))


def test_product_floor_values():
    fb = product_floors(1e-8)
    assert fb["floor_ab"] == pytest.approx(1.0 - 2e-4, abs=1e-12)
    assert fb["floor_ac"] == pytest.approx(1.0 - 3.4 * 1e-1, abs=1e-12)
    assert fb["floor_abc"] == pytest.approx(1.0 - 3.0 * 1e-1, abs=1e-12)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(InvariantViolation, match=rf"eps = {bad} outside \(0, 1\]"):
            product_floors(bad)


# ---------------------------------------------------------------------------
# overlap geometry
# ---------------------------------------------------------------------------


def test_overlap_lower_bound_values():
    assert overlap_lower_bound(3, 2) == pytest.approx(0.5)
    assert overlap_lower_bound(5, 2) == pytest.approx(math.sqrt(3.0 / 8.0))
    with pytest.raises(InvariantViolation, match="2 vectors fit orthogonally in dim 2"):
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
    with pytest.raises(InvariantViolation, match="need at least two vectors to compare"):
        max_overlap_pair([basis_state(lay, 0)])
    with pytest.raises(InvariantViolation, match="all vectors must share one layout"):
        max_overlap_pair([basis_state(lay, 0), basis_state(SpaceLayout([("R", 2)]), 0)])
    # three vectors in dim 2 cannot all be orthogonal: a zero overlap table
    # falls below overlap_lower_bound(3, 2) = 0.5, which only a defect can do
    with pytest.raises(InvariantViolation, match="numerical defect"):
        _closest_pair(np.zeros((3, 3)), 2)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30)
def test_crowded_vectors_always_meet_bound(seed):
    # m > d forces a close pair; the scan must find one at or above the bound
    rng = np.random.default_rng(seed)
    lay = SpaceLayout([("Q", 2)])
    vecs = [random_pure(lay, rng) for _ in range(5)]
    _, val = max_overlap_pair(vecs)  # raises internally if the bound fails
    assert val >= overlap_lower_bound(5, 2) - 1e-12


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
    with pytest.raises(InvariantViolation, match=r"\|alpha\|\^2 \+ \|beta\|\^2 = 2.0 must be 1"):
        lambda_max_rank2(1.0, 1.0, 0.5)
    with pytest.raises(InvariantViolation, match=r"\|alpha\|\^2 \+ \|beta\|\^2 = nan must be 1"):
        lambda_max_rank2(float("nan"), 0.0, 0.5)
    with pytest.raises(InvariantViolation, match=r"f12 = 1.5 outside \[0, 1\]"):
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


def test_cloner_gives_three_quarters_on_a_qutrit():
    lay = SpaceLayout([("Q", 3)])
    rng = np.random.default_rng(11)
    for psi in [basis_state(lay, 2)] + [random_pure(lay, rng) for _ in range(5)]:
        for rho in cloner_baseline(psi):
            assert fidelity_pure(rho, psi) == pytest.approx(0.75, abs=1e-12)


@pytest.mark.parametrize("d_s,d_a,d_p", [(3, 2, 2), (4, 2, 2), (6, 2, 3), (6, 3, 2), (8, 2, 4), (8, 4, 2)])
def test_split_clone_reads_its_formula_between_the_ends(d_s, d_a, d_p):
    inst = split_clone_construct(d_s, d_a, d_p)
    assert (inst.d_s, inst.d_a, inst.d_b, inst.d_c, inst.d_e) == (d_s, d_a, d_p, d_p, d_p)
    eta = (d_p + 2) / (2.0 * (d_p + 1))
    value = eta + (1.0 - eta) / (d_p * min(d_a, d_p))
    # (|1> + |d'>)/sqrt(2) embeds as (|0>|1> + |1>|0>)/sqrt(2) on A (x) S': A marginal I/2
    psi = np.zeros((d_s, 1))
    psi[[1, d_p], 0] = 1.0 / math.sqrt(2.0)
    _, f_ab, f_ac = measure_eps(inst, psi)
    assert max(abs(f_ab[0] - value), abs(f_ac[0] - value)) <= 1e-12
    # no input reads below it: 2e4 Haar inputs, in chunks of 5e3
    rng = np.random.default_rng(d_s * 100 + d_a * 10 + d_p)
    for _ in range(4):
        _, f_ab, f_ac = measure_eps(inst, default_probe_states(d_s, rng, 5000, 0)[:, d_s:])
        assert min(f_ab.min(), f_ac.min()) >= value - 1e-12


def test_split_clone_needs_room_for_the_source_and_integer_dimensions():
    with pytest.raises(InvariantViolation, match="cannot hold a source of dim 3"):
        split_clone_construct(3, 1, 2)
    with pytest.raises(TypeError, match="d_prime 2.0 is not an integer"):
        split_clone_construct(3, 2, 2.0)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_werner_cloner_reaches_the_optimal_cloning_fidelity(d):
    inst = werner_cloner_construct(d)
    assert (inst.d_s, inst.d_a, inst.d_b, inst.d_c, inst.d_e) == (d, 1, d, d, d)
    assert np.max(np.abs(inst.u.conj().T @ inst.u - np.eye(d))) <= 1e-15
    # every probe, on both branches, reads (d+3)/(2(d+1))
    _, f_ab, f_ac = measure_eps(inst, default_probe_states(d, seed=d, haar_count=500))
    f = np.array([f_ab, f_ac])
    assert np.max(np.abs(f - (d + 3) / (2.0 * (d + 1)))) <= 1e-12


def test_werner_cloner_is_the_buzek_hillery_copier_at_d_2():
    # Buzek and Hillery, PRA 54, 1844 (1996), copies then ancilla:
    # |0> -> sqrt(2/3)|000> + sqrt(1/6)(|011> + |101>)
    # |1> -> sqrt(2/3)|111> + sqrt(1/6)(|010> + |100>)
    want = np.zeros((8, 2))
    want[[0b000, 0b011, 0b101], 0] = math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0)
    want[[0b111, 0b010, 0b100], 1] = math.sqrt(2.0 / 3.0), math.sqrt(1.0 / 6.0), math.sqrt(1.0 / 6.0)
    assert np.array_equal(werner_cloner_construct(2).u, want)


@pytest.mark.parametrize(
    "make",
    [
        lambda: perturbed_perfect_instance(3, 3, 2, 2, 1e-3),
        lambda: optimize_qsb(
            OptimizeConfig(3, 2, 2, 3, env_dim=5, restarts=1, max_iters=20, haar_count=10)
        ).best_instance,
    ],
)
def test_from_stinespring_rebuilds_an_instance_bit_for_bit(make):
    inst = make()
    back = QsbInstance.from_stinespring(inst.u, inst.v_abs, inst.v_acs, inst.d_a, inst.d_b, inst.d_c)
    assert (back.source_layout, back.output_layout) == (inst.source_layout, inst.output_layout)
    for got, want in ((back.u, inst.u), (back.v_abs, inst.v_abs), (back.v_acs, inst.v_acs)):
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# chain constants and thresholds
# ---------------------------------------------------------------------------


def test_chain_constants_exact_values():
    rep = chain_constants(1e-16, 2)
    assert rep.constants["eps_prime_b"] == 2e-8
    assert rep.constants["eps_prime_c"] == pytest.approx(3.4e-2, rel=1e-12)
    assert rep.constants["eps_dprime_b"] == 2.0 * math.sqrt(2e-8) + 2e-8
    assert rep.constants["eps_tprime_b"] == pytest.approx(
        3.0 * math.sqrt(2e-8) + math.sqrt(rep.constants["eps_dprime_b"]) + rep.constants["eps_dprime_b"], rel=1e-14
    )
    assert rep.constants["shared_closeness_deficit"] == pytest.approx(
        4.0 * (math.sqrt(2e-8) + math.sqrt(rep.constants["eps_tprime_b"])), rel=1e-14
    )
    assert rep.constants["eps_iv_b"] == pytest.approx(3.8 * (1e-16) ** (1 / 64), rel=1e-12)
    assert rep.constants["eps_iv_c"] == pytest.approx(3.9 * (1e-16) ** (1 / 128), rel=1e-12)
    assert rep.admissible_b and not rep.admissible_c
    assert rep.eps_zero == 0.6e-175

    data = rep.to_json()
    assert data["constants"]["eps_prime_b"] == 2e-8
    assert data["all_satisfied"] is True and data["checks"] == []  # no checks recorded yet


def test_chain_report_schema():
    # the report file's key order, which the JSON writer keeps
    data = chain_verify(perturbed_perfect_instance(2, 2, 2, 2, 1e-6), 0.0, allow_trivial=True).to_json()
    assert list(data) == [
        "eps", "d_a", "constants", "eps_zero", "eps_zero_candidates", "admissible_b",
        "admissible_c", "asymptotic", "selected_pair", "theta", "residual_degenerate",
        "cloning_contradiction", "all_satisfied", "checks",
    ]
    assert list(data["constants"]) == [
        "eps_prime_b", "eps_prime_c", "eps_dprime_b", "eps_dprime_c", "eps_tprime_b",
        "eps_tprime_c", "eps_iv_b", "eps_iv_c", "shared_closeness_deficit",
    ]
    assert data["checks"] and all(
        list(c) == ["label", "lhs", "rhs", "slack", "satisfied", "vacuous"] for c in data["checks"]
    )
    assert data["asymptotic"] == {k: list(v) for k, v in asymptotic_ladder().items()}


def test_a_chain_report_file_is_its_callers_own():
    # the ladder's JSON form is built once per process and all_satisfied once
    # per report, yet a caller that edits one report's file object reaches no other
    ladder = {k: list(v) for k, v in asymptotic_ladder().items()}
    first, second = (chain_verify(perturbed_perfect_instance(2, 2, 2, 2, eps), 0.0, allow_trivial=True)
                     for eps in (1e-6, 1e-4))
    data = first.to_json()
    data["asymptotic"]["eps_prime_b"][0] = -1.0
    data["asymptotic"].clear()
    data["constants"].clear()
    assert second.to_json()["asymptotic"] == ladder
    again = first.to_json()
    assert again["asymptotic"] == ladder and again["constants"] == first.constants != {}
    assert "all_satisfied" in vars(first)  # kept from its first read
    assert again["all_satisfied"] is first.all_satisfied is True


def test_chain_constants_guards():
    for bad in (0.0, -1e-3, 1.1):
        with pytest.raises(InvariantViolation, match=rf"eps = {bad} outside \(0, 1\]"):
            chain_constants(bad, 2)
    with pytest.raises(InvariantViolation):
        chain_constants(1e-4, 0)


def test_chain_constants_and_threshold_take_an_integer_d_a():
    for bad in (2.5, 2.0, True):
        with pytest.raises(TypeError, match="d_a .* not an integer"):
            epsilon_threshold(bad)
        with pytest.raises(TypeError, match="d_a .* not an integer"):
            chain_constants(0.5, bad)
    rep = chain_constants(0.5, np.int64(2))
    assert type(rep.d_a) is int and rep.to_json()["d_a"] == 2
    # eps is checked first, then d_a >= 1, by epsilon_threshold's one check
    with pytest.raises(InvariantViolation, match=r"eps = 0.0 outside \(0, 1\]"):
        chain_constants(0.0, 0)
    with pytest.raises(InvariantViolation, match="d_a = 0 must be >= 1"):
        chain_constants(0.5, 0)


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
            "eps_prime_b": rep.constants["eps_prime_b"],
            "eps_prime_c": rep.constants["eps_prime_c"],
            "eps_dprime_b": rep.constants["eps_dprime_b"],
            "eps_dprime_c": rep.constants["eps_dprime_c"],
            "eps_tprime_b": rep.constants["eps_tprime_b"],
            "eps_tprime_c": rep.constants["eps_tprime_c"],
            "shared_closeness": rep.constants["shared_closeness_deficit"],
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


def test_fixed_threshold_is_the_papers_figure_above_the_tables_crossing():
    # the C-branch copy-map floor 1 - c eps^e first reaches the cloning ceiling at ((1 - 5/6) / c)^(1/e)
    c, e = qsb_module._CHAIN["eps_iv_c"]
    crossing = ((1.0 - CLONING_CEILING) / c) ** (1.0 / e)
    assert crossing == pytest.approx(5.50e-176, rel=1e-3)
    for d_a in (1, 2, 3):
        _, fixed, _ = epsilon_threshold(d_a)
        assert fixed == 0.6e-175 > crossing
        # at the printed figure the table's C floor is short of 5/6; just below the crossing both pass it
        assert 1.0 - chain_constants(fixed, d_a).constants["eps_iv_c"] < CLONING_CEILING
        below = chain_constants(0.999 * crossing, d_a).constants
        assert min(1.0 - below["eps_iv_b"], 1.0 - below["eps_iv_c"]) > CLONING_CEILING


def test_table_copy_map_deficits_are_no_stronger_than_the_ladder():
    # a rounded coefficient below the nested collapse would claim a floor the chain does not prove
    ladder = asymptotic_ladder()
    for x, nested in (("b", 3.7795), ("c", 3.8771)):
        c, e = qsb_module._CHAIN["eps_iv_" + x]
        assert e == ladder["eps_iv_" + x][1]
        assert c >= ladder["eps_iv_" + x][0] == pytest.approx(nested, abs=1e-4)


def test_every_chain_reader_takes_its_constants_from_the_table(monkeypatch):
    patch = {
        "eps_prime_b": (4.0, 1 / 2), "product": (5.0, 1 / 8), "eps_iv_c": (7.0, 1 / 128),
        "fixed": 1e-3, "dimensional": (3.0, 8), "pair": (0.01, 2),
    }
    for key, value in patch.items():
        monkeypatch.setitem(qsb_module._CHAIN, key, value)
    assert product_floors(1e-8)["floor_ab"] == 1.0 - 4.0 * math.sqrt(1e-8)
    assert product_floors(2**-80)["floor_abc"] == 1.0 - 5.0 * 2**-10
    rep = chain_constants(1e-8, 2)
    assert rep.constants["eps_prime_b"] == 4.0 * math.sqrt(1e-8)
    assert rep.constants["eps_dprime_b"] == 2.0 * math.sqrt(4e-4) + 4e-4
    assert rep.constants["eps_iv_c"] == 7.0 * 1e-8 ** (1 / 128)
    assert epsilon_threshold(1) == (1e-3, 1e-3, 3.0)
    assert epsilon_threshold(2)[2] == 3.0 / 256.0
    # the selected pair's floor 0.01 / d_A^2 is also the cap on eps'': 0.0404 is past it
    assert not rep.admissible_b
    rows = chain_verify(_random_instance(3, 2, 2, 2, seed=1), 0.0).checks
    assert [c.rhs for c in rows if c.label == "selected_pair_fidelity_floor"] == [0.01 / 4.0]
    assert asymptotic_ladder()["eps_prime_b"] == (4.0, 1 / 2)


# ---------------------------------------------------------------------------
# chain verification
# ---------------------------------------------------------------------------


def test_chain_verify_guards():
    inst = perfect_qsb_construct(2, 2, 2, 2)
    with pytest.raises(ChainNotApplicable):
        chain_verify(inst, 0.0)
    with pytest.raises(InvariantViolation, match=r"eps_hat = 1.5 outside \[0, 1\]"):
        chain_verify(inst, 1.5, allow_trivial=True)
    # a one-dimensional source has no pair to build the chain on; it is
    # refused before anything else is looked at, even with allow_trivial
    tiny = perfect_qsb_construct(1, 1, 1, 1)
    with pytest.raises(ChainNotApplicable, match="two basis states"):
        chain_verify(tiny, 0.0, allow_trivial=True)
    with pytest.raises(ChainNotApplicable):
        chain_verify(tiny, 1.5, allow_trivial=True)


def test_chain_verify_trivial_instance_all_clear():
    inst = perturbed_perfect_instance(2, 2, 2, 2, 1e-6)
    report = chain_verify(inst, 0.0, allow_trivial=True, seed=1)
    assert report.all_satisfied
    assert report.selected_pair is not None
    assert report.eps >= 1e-6 * (1.0 - 0.25) - 1e-12  # at least the measured deficit
    assert not report.cloning_contradiction
    # conditional floors are recorded but vacuous without the crowding premise
    labels = {c.label: c for c in report.checks}
    assert labels["shared_closeness_floor"].vacuous
    assert any(l.startswith("product_floor_ab[") and not c.vacuous for l, c in labels.items())


def test_chain_verify_enforced_on_optimized_instance():
    cfg = OptimizeConfig(
        d_s=3,
        d_a=2,
        d_b=2,
        d_c=2,
        restarts=2,
        max_iters=250,
        haar_count=40,
        seed=0,
    )
    point = optimize_qsb(cfg)
    inst = point.best_instance
    report = chain_verify(inst, point.eps_hat, seed=2)
    assert report.all_satisfied
    assert report.selected_pair is not None
    # crowding on the shared subsystem is enforced here: three copies in dim 2
    labels = {c.label: c for c in report.checks}
    crowd = labels["crowding_overlap_floor"]
    assert not crowd.vacuous and crowd.satisfied
    sel = labels["selected_pair_fidelity_floor"]
    assert not sel.vacuous and sel.lhs >= 0.25 - 1e-9


def _ref_floor(label, value, floor, enforced=True):
    return BoundCheck.of(value, min(max(floor, 0.0), 1.0), label=label, vacuous=floor <= 0.0 or not enforced)


def _ref_ceiling(label, value, ceiling, enforced=True):
    return BoundCheck.of(min(max(ceiling, 0.0), 1.0), value, label=label, vacuous=ceiling >= 1.0 or not enforced)


def _overlap(phi, chi):
    return complex(np.vdot(phi.amplitudes, chi.amplitudes))


def _per_sample_chain(instance, basis, eps_hat, seed):
    # reference: chain_verify with one state object per sampled input, the
    # channel applied to each and its marginal traced out; its pair scan,
    # residuals and floor clamps are its own
    d_s, d_a = instance.d_s, instance.d_a
    for i in range(d_s):
        for j in range(d_s):
            assert abs(abs(_overlap(basis[i], basis[j])) - (i == j)) <= 1e-9
    extractions = [_object_extract(instance, b)[0] for b in basis]
    phi_as = [e.phi_a for e in extractions]
    phi_bs = [e.phi_b for e in extractions]
    phi_cs = [e.phi_c for e in extractions]
    (k1, k2), a_overlap = (0, 1), -1.0
    for i in range(d_s):
        for j in range(i + 1, d_s):
            if abs(_overlap(phi_as[i], phi_as[j])) > a_overlap:
                (k1, k2), a_overlap = (i, j), abs(_overlap(phi_as[i], phi_as[j]))
    coeffs = list(zip(*default_probe_states(2, seed, 24)[:, 2:]))
    sup_states = []
    for al, be in coeffs:
        amps = al * basis[k1].amplitudes + be * basis[k2].amplitudes
        sup_states.append(PureState(instance.source_layout, amps / np.linalg.norm(amps)))
    eps_run, _, _ = measure_eps(instance, np.stack([s.amplitudes for s in basis + sup_states], axis=1))
    eps_eff = min(max(max(eps_hat, eps_run), 1e-300), 1.0)
    consts = chain_constants(eps_eff, d_a)
    checks = []
    floors = product_floors(eps_eff)
    for k, e in enumerate(extractions):
        checks.append(_ref_floor(f"product_floor_abc[{k}]", e.fidelity_product_abc, 1.0 - 3.0 * eps_eff ** 0.125))
        checks.append(_ref_floor(f"product_floor_ab[{k}]", e.fidelity_ab, floors["floor_ab"]))
        checks.append(_ref_floor(f"product_floor_ac[{k}]", e.fidelity_ac, floors["floor_ac"]))
    for branch, phis, cap in (("b", phi_bs, consts.constants["eps_dprime_b"]), ("c", phi_cs, consts.constants["eps_dprime_c"])):
        for i in range(d_s):
            for j in range(i + 1, d_s):
                val = abs(_overlap(phi_as[i], phi_as[j])) * abs(_overlap(phis[i], phis[j]))
                checks.append(_ref_ceiling(f"pair_product_overlap_{branch}[{i},{j}]", val, cap))
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
        _ref_floor(
            "shared_closeness_floor",
            a_overlap ** 2,
            1.0 - consts.constants["shared_closeness_deficit"],
            enforced=guaranteed and consts.admissible_b,
        )
    )
    theta, degenerate = {}, []
    for branch, phis, v_rep, edp, etp, eiv, admissible, keep in (
        ("b", phi_bs, instance.v_abs, consts.constants["eps_dprime_b"], consts.constants["eps_tprime_b"], consts.constants["eps_iv_b"], consts.admissible_b, 1),
        ("c", phi_cs, instance.v_acs, consts.constants["eps_dprime_c"], consts.constants["eps_tprime_c"], consts.constants["eps_iv_c"], consts.admissible_c, 2),
    ):
        cond = guaranteed and admissible
        x1, x2 = phis[k1], phis[k2]
        c = _overlap(x1, x2)
        checks.append(_ref_ceiling(f"outer_overlap_ceiling_{branch}", abs(c), math.sqrt(edp), enforced=cond))
        if abs(c) >= 1.0 - 1e-9:
            degenerate.append(branch)
            continue
        resid = PureState(x1.layout, (x2.amplitudes - c * x1.amplitudes) / math.sqrt(1.0 - abs(c) ** 2))
        assert abs(_overlap(x1, resid)) <= 1e-12
        t1 = np.kron(phi_as[k1].amplitudes, x1.amplitudes)
        t2 = np.kron(phi_as[k2].amplitudes, resid.amplitudes)
        psi_reps = [v_rep @ s.amplitudes for s in sup_states]
        xs = np.array([np.conj(al) * np.vdot(t1, p) for (al, _), p in zip(coeffs, psi_reps)])
        ys = np.array([np.conj(be) * np.vdot(t2, p) for (_, be), p in zip(coeffs, psi_reps)])
        offsets = np.abs(xs) ** 2 + np.abs(ys) ** 2
        cross = xs * np.conj(ys)
        th, _ = _best_phase(offsets, cross)
        theta[branch] = th
        for i, f in enumerate(offsets + 2.0 * np.real(cross * np.exp(1j * th))):
            checks.append(_ref_floor(f"superposition_floor_{branch}[{i}]", float(f), 1.0 - etp, enforced=cond))
        resid = PureState(x1.layout, np.exp(1j * th) * resid.amplitudes)
        dims = (instance.d_a, instance.d_b, instance.d_c)
        outs = [channel_action(_kraus(instance), pure_density(s).matrix) for s in sup_states]
        rho_x = [partial_trace(r, dims, [keep]) for r in outs]
        parts = [(al * x1.amplitudes, be * resid.amplitudes, r) for (al, be), r in zip(coeffs, rho_x)]
        offs = np.array([np.real(np.vdot(u, r @ u) + np.vdot(v, r @ v)) for u, v, r in parts])
        crs = np.array([np.vdot(u, r @ v) for u, v, r in parts])
        thp, _ = _best_phase(offs, crs)
        theta[branch + "_prime"] = thp
        for i, f in enumerate(offs + 2.0 * np.real(crs * np.exp(1j * thp))):
            checks.append(_ref_floor(f"copy_map_floor_{branch}[{i}]", float(f), 1.0 - eiv, enforced=cond))
    return consts.eps, (k1, k2), checks, theta, degenerate


# "C" runs the instance with B and C swapped, which makes C the primary receiver
@pytest.mark.parametrize("primary", ["B", "C"])
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
def test_chain_verify_matches_per_sample_reference(make, primary):
    inst = make() if primary == "B" else _swap_private(make())
    basis = [basis_state(inst.source_layout, k) for k in range(inst.d_s)]
    report = chain_verify(inst, 0.0, seed=5, allow_trivial=True)
    eps, pair, checks, theta, degenerate = _per_sample_chain(inst, basis, 0.0, seed=5)
    assert report.eps == pytest.approx(eps, rel=1e-12, abs=1e-15)
    assert report.selected_pair == pair
    assert list(report.residual_degenerate) == degenerate
    assert [c.label for c in report.checks] == [c.label for c in checks]
    for got, want in zip(report.checks, checks):
        assert (got.satisfied, got.vacuous) == (want.satisfied, want.vacuous), got.label
        assert got.lhs == pytest.approx(want.lhs, abs=1e-7), got.label
        assert got.rhs == pytest.approx(want.rhs, abs=1e-7), got.label
    assert report.theta.keys() == theta.keys()


def test_chain_verify_takes_the_package_seed_rule():
    inst = werner_cloner_construct(2)
    with pytest.raises(InvariantViolation, match="seed = -1 must be >= 0"):
        chain_verify(inst, 0.0, seed=-1)
    with pytest.raises(TypeError, match="seed True is a bool"):
        chain_verify(inst, 0.0, seed=True)
    assert chain_verify(inst, 0.0, seed=np.int64(1)) == chain_verify(inst, 0.0, seed=1)


def test_chain_verify_applies_no_channel_and_builds_no_density_matrix(monkeypatch):
    # basis states and superpositions alike go through the Stinespring matrix,
    # and past its arguments the chain builds no state object at all
    calls = []
    for cls in (DensityMatrix, PureState):
        def counting_validate(self, validate=cls.__post_init__, name=cls.__name__):
            calls.append(name)
            validate(self)

        monkeypatch.setattr(cls, "__post_init__", counting_validate)
    inst = _random_instance(4, 2, 2, 2, seed=30, env=4)
    basis = [basis_state(inst.source_layout, k) for k in range(4)]
    swapped = _swap_private(inst)
    calls.clear()
    for make in (inst, swapped):
        chain_verify(make, 0.0, seed=1)
    assert calls == []
    pure_density(basis[0])  # the counter does see a construction
    assert calls == ["DensityMatrix"]


@pytest.mark.parametrize("dims", BENCH_DIMS)
def test_one_shot_measurements_build_no_probe_matrix(monkeypatch, dims):
    # probe_matrix costs n * d_s^4 to build and only pays back over a search's
    # thousands of evaluations; a single measurement contracts |K P|^2 instead
    def refuse(cols):
        raise AssertionError("one-shot measurement built the search's probe matrix")

    monkeypatch.setattr(qsb_module, "probe_matrix", refuse)
    inst = _random_instance(*dims, seed=32, env=dims[0])
    eps, f_ab, _ = measure_eps(inst, default_probe_states(inst.d_s, 3, haar_count=20))
    assert 0.0 < eps <= 1.0 and len(f_ab) == dims[0] + 8 * dims[0] * (dims[0] - 1) // 2 + 20
    for make in (inst, _swap_private(inst)):
        assert chain_verify(make, 0.0, seed=1).checks


def test_extraction_rejects_an_output_orthogonal_to_the_secondary_image():
    # the channel parks C in |0>, the A-C representation expects |1> there
    base = perfect_qsb_construct(2, 2, 2, 2)
    m_ac = np.zeros((4, 2), dtype=np.complex128)
    m_ac[[1, 3], [0, 1]] = 1.0
    inst = replace(base, v_acs=m_ac)
    basis = [basis_state(inst.source_layout, k) for k in range(2)]
    with pytest.raises(InvariantViolation, match="orthogonal to the secondary"):
        extract_product_approx(inst, basis[0])
    with pytest.raises(InvariantViolation, match="orthogonal to the secondary"):
        chain_verify(inst, 0.0, allow_trivial=True)
    # with B and C swapped the secondary image is the old V_AB one, which the output meets
    assert extract_product_approx(_swap_private(inst), basis[0]).fidelity_ac == pytest.approx(1.0, abs=1e-15)


def test_chain_verify_accepts_an_output_named_e():
    # the purification's environment is the Kraus index, not a label, so an
    # output subsystem named E no longer clashes with it
    inst = _random_instance(3, 2, 2, 2, seed=32, env=3, labels=("A", "B", "E"))
    plain = _random_instance(3, 2, 2, 2, seed=32, env=3)
    got, want = chain_verify(inst, 0.0, seed=3), chain_verify(plain, 0.0, seed=3)
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
