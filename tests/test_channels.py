"""Kraus channels, their Stinespring matrices and their mixtures."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _reference import channel_action, partial_trace, random_density
from qsblab.channels import KrausChannel, _stinespring_matrix, depolarizing_channel, mix
from qsblab.errors import InvariantViolation, LayoutMismatch
from qsblab.hilbert import DensityMatrix, SpaceLayout, haar_isometry_matrix, random_pure


def _haar_stinespring(din, dout, denv, seed):
    """A Haar-random isometry from dim din into (O, E), the environment E last."""
    return haar_isometry_matrix(np.random.default_rng(seed), dout * denv, din)


def _random_channel(din, dout, denv, seed):
    """The channel S -> O whose Kraus operator e is the E = e slice of _haar_stinespring."""
    u = _haar_stinespring(din, dout, denv, seed).reshape(dout, denv, din)
    return KrausChannel(SpaceLayout([("S", din)]), SpaceLayout([("O", dout)]), tuple(u.swapaxes(0, 1)))


def test_kraus_family_must_be_complete():
    lay = SpaceLayout([("Q", 2)])
    with pytest.raises(InvariantViolation):
        KrausChannel(lay, lay, (0.5 * np.eye(2),))
    with pytest.raises(InvariantViolation):
        KrausChannel(lay, lay, (np.array([[np.nan, 0.0], [0.0, 1.0]]),))
    with pytest.raises(InvariantViolation):
        KrausChannel(lay, lay, ())
    with pytest.raises(LayoutMismatch):
        KrausChannel(lay, lay, (np.eye(3),))
    # canonical maximum din*dout on the family size
    too_many = tuple(np.eye(2) / np.sqrt(5.0) for _ in range(5))
    with pytest.raises(InvariantViolation):
        KrausChannel(lay, lay, too_many)


def test_kraus_ops_frozen():
    lay = SpaceLayout([("Q", 2)])
    chan = KrausChannel(lay, lay, (np.eye(2),))
    with pytest.raises(ValueError):
        chan.kraus_ops[0][0, 0] = 5.0


def test_identity_and_depolarizing_action():
    lay = SpaceLayout([("Q", 3)])
    rho = random_density(lay, 2, 0).matrix
    out = channel_action(KrausChannel(lay, lay, (np.eye(3),)).kraus_ops, rho)
    assert np.allclose(out, rho, atol=1e-12)

    lay_out = SpaceLayout([("R", 2)])
    flat = channel_action(depolarizing_channel(lay, lay_out).kraus_ops, rho)
    assert np.allclose(flat, np.eye(2) / 2.0, atol=1e-12)


def test_depolarizing_matches_loop():
    lay_in, lay_out = SpaceLayout([("Q", 3)]), SpaceLayout([("R", 2)])
    loop = []
    for i in range(2):
        for j in range(3):
            k = np.zeros((2, 3), dtype=np.complex128)
            k[i, j] = 1.0 / np.sqrt(2)
            loop.append(k)
    ops = depolarizing_channel(lay_in, lay_out).kraus_ops
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
    chan = _random_channel(din, dout, denv, seed)
    # the Stinespring matrix is the isometry the family was read from, bit for bit
    assert np.array_equal(_stinespring_matrix(chan), u)
    # and the family acts as Tr_E U X U^H on every |i><j|, which fixes the map
    units = np.eye(din * din).reshape(-1, din, din)
    traced = [partial_trace(u @ x @ u.conj().T, (dout, denv), [0]) for x in units]
    assert np.max(np.abs(channel_action(chan.kraus_ops, units) - traced)) <= 1e-10


@given(
    din=st.integers(2, 3), dout=st.integers(2, 3), seed=st.integers(0, 10**6)
)
@settings(max_examples=25)
def test_choi_roundtrip_and_trace(din, dout, seed):
    # the depolariser's din * dout operators overflow the cap, so mix compresses the
    # family; its action on every |i><j| (the Choi matrix) must survive, tracing to delta_ij
    chan = _random_channel(din, dout, 2, seed)
    dep = depolarizing_channel(chan.input_layout, chan.output_layout)
    back = mix(chan, dep, 0.25)
    assert len(back.kraus_ops) == din * dout
    units = np.eye(din * din).reshape(-1, din, din)  # every |i><j|, which fixes the map
    out = channel_action(back.kraus_ops, units)
    want = 0.75 * channel_action(chan.kraus_ops, units) + 0.25 * channel_action(dep.kraus_ops, units)
    assert np.max(np.abs(out - want)) <= 1e-10
    traces = np.trace(out, axis1=-2, axis2=-1).reshape(din, din)
    assert np.max(np.abs(traces - np.eye(din))) <= 1e-9


def test_stinespring_env_goes_last():
    chan = _random_channel(2, 2, 2, 3)
    # output index (o, e) is row o * r + e: the Kraus index varies fastest
    u = _stinespring_matrix(chan).reshape(chan.output_layout.total_dim, len(chan.kraus_ops), -1)
    for e, k in enumerate(chan.kraus_ops):
        assert np.array_equal(u[:, e, :], k)


def test_mix_is_convex_in_action():
    a = _random_channel(2, 2, 2, 6)
    b = _random_channel(2, 2, 2, 7)
    rho = random_density(a.input_layout, 2, 8).matrix
    for w in (0.0, 0.3, 1.0):
        blended = channel_action(mix(a, b, w).kraus_ops, rho)
        expect = (1 - w) * channel_action(a.kraus_ops, rho) + w * channel_action(b.kraus_ops, rho)
        assert np.allclose(blended, expect, atol=1e-10)


def test_mix_rejections():
    a = _random_channel(2, 2, 2, 9)
    b = _random_channel(2, 3, 2, 10)
    with pytest.raises(LayoutMismatch):
        mix(a, b, 0.5)
    with pytest.raises(InvariantViolation):
        mix(a, a, 1.5)


def test_channel_json_roundtrip():
    chan = _random_channel(2, 3, 2, 13)
    back = KrausChannel.from_json(chan.to_json())
    assert back.input_layout == chan.input_layout
    assert back.output_layout == chan.output_layout
    units = np.eye(4).reshape(-1, 2, 2)
    d = np.max(np.abs(channel_action(chan.kraus_ops, units) - channel_action(back.kraus_ops, units)))
    assert d <= 1e-12


def test_channel_outputs_valid_states():
    chan = _random_channel(3, 3, 2, 14)
    psi = random_pure(chan.input_layout, 15)
    rho = np.outer(psi.amplitudes, psi.amplitudes.conj())
    out = DensityMatrix(chan.output_layout, channel_action(chan.kraus_ops, rho))
    # DensityMatrix constructor re-validates trace and positivity
    assert float(np.real(np.trace(out.matrix))) == pytest.approx(1.0, abs=1e-10)
    assert out._eigh[0][-1] >= -1e-10
