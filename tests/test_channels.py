"""Channels as Stinespring matrices: the instance's checks on them, their Kraus
form in instance files, and their mixtures as (d_out, d_e, d_in) tensors."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference import channel_action, kraus_ops, partial_trace, random_density
from qsblab.channels import depolarizing_channel, mix
from qsblab.errors import InvariantViolation
from qsblab.hilbert import DensityMatrix, SpaceLayout, haar_isometry_matrix, random_pure
from qsblab.qsb import QsbInstance


def _haar_stinespring(din, dout, denv, seed):
    """A Haar-random isometry from dim din into (O, E), the environment E last."""
    return haar_isometry_matrix(np.random.default_rng(seed), dout * denv, din)


def _random_channel(din, dout, denv, seed):
    """The (dout, denv, din) Stinespring tensor of _haar_stinespring."""
    return _haar_stinespring(din, dout, denv, seed).reshape(dout, denv, din)


def _ops(t):
    """The Kraus family of a (d_out, d_e, d_in) tensor."""
    return t.swapaxes(0, 1)


def _qubit_instance(u):
    """A (2, 2, 1, 1) instance with Stinespring matrix u and identity representations."""
    eye = np.eye(2)
    return QsbInstance.from_stinespring(u, eye, eye, 2, 1, 1)


def test_kraus_family_must_be_complete():
    with pytest.raises(InvariantViolation, match="completeness violated by 0.75"):
        _qubit_instance(0.5 * np.eye(2))
    with pytest.raises(InvariantViolation, match="completeness violated by nan"):
        _qubit_instance(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvariantViolation, match="at least one Kraus operator"):
        _qubit_instance(np.zeros((0, 2)))
    # rows must come in whole output blocks, one per environment index
    with pytest.raises(InvariantViolation, match=r"Stinespring shape \(3, 2\), expected \(2 \* d_e, 2\)"):
        _qubit_instance(np.eye(3, 2))
    # canonical maximum d_in * d_out on the family size
    too_many = np.tile(np.eye(2) / np.sqrt(5.0), (1, 5)).reshape(-1, 2)
    with pytest.raises(InvariantViolation, match="exceed the canonical maximum 4"):
        _qubit_instance(too_many)


def test_kraus_ops_frozen():
    u = np.eye(2)
    inst = _qubit_instance(u)
    for m in (inst.u, inst.v_abs, inst.v_acs):
        with pytest.raises(ValueError):
            m[0, 0] = 5.0
    # the instance keeps a copy, so the caller's array stays the caller's
    u[0, 0] = 5.0
    assert inst.u[0, 0] == 1.0


def test_identity_and_depolarizing_action():
    rho = random_density(SpaceLayout([("Q", 3)]), 2, 0).matrix
    out = channel_action(_ops(np.eye(3).reshape(3, 1, 3)), rho)
    assert np.allclose(out, rho, atol=1e-12)

    flat = channel_action(_ops(depolarizing_channel(3, 2)), rho)
    assert np.allclose(flat, np.eye(2) / 2.0, atol=1e-12)


def test_depolarizing_matches_loop():
    loop = []
    for i in range(2):
        for j in range(3):
            k = np.zeros((2, 3), dtype=np.complex128)
            k[i, j] = 1.0 / np.sqrt(2)
            loop.append(k)
    ops = _ops(depolarizing_channel(3, 2))
    assert len(ops) == len(loop)
    for k, ref in zip(ops, loop):
        assert k.dtype == ref.dtype and k.tobytes() == ref.tobytes()


@given(
    din=st.integers(2, 3),
    dout=st.integers(2, 3),
    denv=st.integers(1, 3),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=25)
def test_stinespring_roundtrip_choi_distance(din, dout, denv, seed):
    assume(dout * denv >= din)
    u = _haar_stinespring(din, dout, denv, seed)
    # the tensor's E slices act as Tr_E U X U^H on every |i><j|, which fixes the map
    units = np.eye(din * din).reshape(-1, din, din)
    traced = [partial_trace(u @ x @ u.conj().T, (dout, denv), [0]) for x in units]
    assert np.max(np.abs(channel_action(_ops(u.reshape(dout, denv, din)), units) - traced)) <= 1e-10


@given(
    din=st.integers(2, 3), dout=st.integers(2, 3), seed=st.integers(0, 10**6)
)
@settings(max_examples=25)
def test_choi_roundtrip_and_trace(din, dout, seed):
    # the depolariser's din * dout operators overflow the cap, so mix compresses the
    # family; its action on every |i><j| (the Choi matrix) must survive, tracing to delta_ij
    chan = _random_channel(din, dout, 2, seed)
    dep = depolarizing_channel(din, dout)
    back = mix(chan, dep, 0.25)
    assert back.shape == (dout, din * dout, din)
    units = np.eye(din * din).reshape(-1, din, din)  # every |i><j|, which fixes the map
    out = channel_action(_ops(back), units)
    want = 0.75 * channel_action(_ops(chan), units) + 0.25 * channel_action(_ops(dep), units)
    assert np.max(np.abs(out - want)) <= 1e-10
    traces = np.trace(out, axis1=-2, axis2=-1).reshape(din, din)
    assert np.max(np.abs(traces - np.eye(din))) <= 1e-9


def test_stinespring_env_goes_last():
    # an instance file lists Kraus operator e as the E = e slice of u: output
    # index (o, e) is row o * d_e + e, the Kraus index varying fastest
    u = _haar_stinespring(2, 4, 2, 3)
    inst = QsbInstance.from_stinespring(u, np.eye(4, 2), np.eye(2), 2, 2, 1)
    kraus = [np.array([[complex(*z) for z in row] for row in k]) for k in inst.to_json()["kraus"]]
    assert len(kraus) == inst.d_e == 2
    for e, k in enumerate(kraus):
        assert np.array_equal(k, u.reshape(4, 2, 2)[:, e])


def test_channel_json_roundtrip():
    # a file's Kraus list is read back as u, operator e the E = e slice, and written out again
    ops = _ops(_random_channel(2, 3, 2, 13))
    eye = np.eye(3, 2)
    data = QsbInstance.from_stinespring(np.eye(6, 2), eye, eye, 3, 1, 1).to_json()
    data["kraus"] = [[[[z.real, z.imag] for z in row] for row in k] for k in ops]
    inst = QsbInstance.from_json(data)
    assert inst.d_e == 2 and np.array_equal(kraus_ops(inst.u, 3), ops)
    assert inst.to_json() == data


def test_mix_is_convex_in_action():
    a = _random_channel(2, 2, 2, 6)
    b = _random_channel(2, 2, 2, 7)
    rho = random_density(SpaceLayout([("S", 2)]), 2, 8).matrix
    for w in (0.0, 0.3, 1.0):
        blended = channel_action(_ops(mix(a, b, w)), rho)
        expect = (1 - w) * channel_action(_ops(a), rho) + w * channel_action(_ops(b), rho)
        assert np.allclose(blended, expect, atol=1e-10)


def test_mix_rejections():
    a = _random_channel(2, 2, 2, 9)
    b = _random_channel(2, 3, 2, 10)
    with pytest.raises(InvariantViolation, match="channels must share input and output dimensions"):
        mix(a, b, 0.5)
    with pytest.raises(InvariantViolation):
        mix(a, a, 1.5)


def test_mix_refuses_a_bool_weight():
    # numpy's bool is no number either: np.True_ would mix as weight 1
    a = _random_channel(2, 2, 2, 9)
    for weight in (False, np.True_):
        with pytest.raises(TypeError, match=f"weight {weight} is a bool"):
            mix(a, a, weight)


def test_channel_outputs_valid_states():
    chan = _random_channel(3, 3, 2, 14)
    psi = random_pure(SpaceLayout([("S", 3)]), 15)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    out = DensityMatrix(SpaceLayout([("O", 3)]), channel_action(_ops(chan), rho))
    # DensityMatrix constructor re-validates trace and positivity
    assert float(np.real(np.trace(out.matrix))) == pytest.approx(1.0, abs=1e-10)
    assert out._eigh[0][-1] >= -1e-10
