"""Labelled finite-dimensional Hilbert spaces and the operations on them.

Subsystems are identified by string labels; a layout is an ordered list of
(label, dim) pairs and fixes the tensor order. All matrices are row-major,
and the composite index follows the layout order (first label varies
slowest), which makes np.kron and .reshape line up with the convention.

Every invariant holds to one tolerance, TOL. validate_density diagonalises a
density matrix once and hands out its eigenpairs clipped at zero; a DensityMatrix
keeps them, and the metrics read them instead of diagonalising again. Maps are plain
matrices: haar_isometry_matrix draws one, check_isometry validates one (as check_unit_columns
does state vectors), and _mat_to_json/_mat_from_json carry one through an instance file.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvariantViolation

# The one tolerance of every invariant, and of a checked inequality's slack.
TOL = 1e-9

# Eigenvalues below this are treated as numerically zero (rank decisions,
# Kraus extraction, matrix square roots).
RANK_CUTOFF = 1e-12


def _lapack(name: str, private, public):
    """`private`, a call of numpy's private LAPACK gufunc `name`, if this numpy
    names it, else `public`, the np.linalg call that wraps the same gufunc."""
    return private if hasattr(_umath_linalg, name) else public


# The five LAPACK gufuncs the package calls, bound once. np.linalg's wrappers
# call the same ones with the same signatures, bit for bit, but cost more on
# small blocks. A private gufunc gives NaN where its wrapper raises LinAlgError.
_eigh_lo = _lapack("eigh_lo", lambda m: _umath_linalg.eigh_lo(m, signature="D->dD"), np.linalg.eigh)
_eigvalsh_lo = _lapack(
    "eigvalsh_lo", lambda m: _umath_linalg.eigvalsh_lo(m, signature="D->d"), np.linalg.eigvalsh
)
_svdvals = _lapack("svd", lambda m: _umath_linalg.svd(m, signature="D->d"), np.linalg.svdvals)
_cholesky_lo = _lapack(
    "cholesky_lo", lambda m: _umath_linalg.cholesky_lo(m, signature="D->D"), np.linalg.cholesky
)
_inv = _lapack("inv", lambda m: _umath_linalg.inv(m, signature="D->D"), np.linalg.inv)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


def _as_rng(seed: int | np.random.Generator) -> np.random.Generator:
    """A Generator passes through; any other seed must be an integer >= 0 (as_int)."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(as_int(seed, "seed", 0))


def check_isometry(m: np.ndarray, what: str) -> None:
    """Raise InvariantViolation unless |M^H M - 1| <= TOL.

    A matrix with more columns than rows always fails, and a non-finite or
    overflowing entry gives a non-finite error, which fails too.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        err = float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[1]))))
    if not err <= TOL:
        raise InvariantViolation(f"{what} violated by {err}")


def check_unit_columns(cols: np.ndarray) -> None:
    """Raise InvariantViolation unless each column of cols (d, n) has norm 1 to TOL. A NaN
    fails, and so does an overflowing entry: einsum gives it an infinite norm, without warning."""
    nrm = np.sqrt(np.einsum("sn,sn->n", cols.conj(), cols).real)
    bad = ~(np.abs(nrm - 1.0) <= TOL)
    if np.count_nonzero(bad):
        raise InvariantViolation(f"state norm {nrm[bad][0]} deviates from 1 beyond {TOL}")


def _c2j(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _mat_to_json(m: np.ndarray) -> list[list[list[float]]]:
    return [[_c2j(z) for z in row] for row in m]


def _mat_from_json(data) -> np.ndarray:
    # a JSON object would iterate as its keys, so only arrays are read
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise TypeError("matrix is not a JSON array of arrays")
    m = np.array([[complex(re, im) for re, im in row] for row in data], dtype=np.complex128)
    # complex() reads a JSON true as 1, but a bool is no number
    if bool in {type(x) for row in data for z in row for x in z}:
        raise TypeError("matrix entry is a bool, not a number")
    return m


def phase_fix(vec: np.ndarray) -> np.ndarray:
    """Rotate the global phase of each vector on the last axis of a stack so
    its first entry above RANK_CUTOFF is real positive.

    A vector with no entry above the cutoff is returned unchanged.
    """
    x = vec[..., :1]
    # look further only when some vector starts below the cutoff
    if np.count_nonzero(np.abs(x) > RANK_CUTOFF) < x.size:
        big = np.abs(vec) > RANK_CUTOFF
        first = (*np.indices(big.shape[:-1], sparse=True), big.argmax(axis=-1))
        x = np.where(big[first], vec[first], 1.0)[..., None]
    return vec * (x.conj() / np.abs(x))


def eigh_desc(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian (..., d, d) stack, eigenvalues
    descending, eigenvector columns phase-fixed.

    LAPACK reads only the lower triangle, so pass an exactly Hermitian stack
    (symmetrise one that is Hermitian only up to rounding). The ordering
    plus phase convention makes every downstream extraction deterministic
    for a given input matrix; each member of a stack gets exactly the
    result it gets alone. LAPACK's gufunc is called directly,
    without np.linalg's wrapper, on the stack as complex: a member that does
    not converge comes back as NaN, not LinAlgError. validate_density refuses
    a NaN eigenvalue, and a NaN vector fails every check that reads it.
    """
    vals, vecs = _eigh_lo(mat)
    vecs = phase_fix(vecs[..., ::-1].swapaxes(-1, -2)).swapaxes(-1, -2)
    return vals[..., ::-1], vecs


def validate_density(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """DensityMatrix's checks on a (..., d, d) stack, diagonalising each member once.

    Raises InvariantViolation, naming the first offending member, if any
    member is not Hermitian to TOL, else if any trace is off 1 by more than
    TOL, else if any eigenvalue lies below -TOL. Eigenvalues in [-TOL, 0) are
    clipped to zero and their members rebuilt in place, so pass a complex128
    stack the caller owns. Returns the matrices and eigh_desc of their Hermitian
    parts (m + m^H) / 2, clipped: the exact eigenpairs of the returned matrices.
    """
    m = np.asarray(m, dtype=np.complex128)
    mh = m.conj().swapaxes(-1, -2)
    # a non-finite entry gives a non-finite residual, which the tests reject
    with np.errstate(over="ignore", invalid="ignore"):
        herm_err = np.abs(m - mh).max(axis=(-2, -1))
        tr = m.trace(axis1=-2, axis2=-1)
    # each test is "not within tolerance", so a NaN fails it
    bad = ~(herm_err <= TOL)
    if np.count_nonzero(bad):
        raise InvariantViolation(f"hermiticity violated by {float(herm_err[bad][0])}")
    bad = ~(np.abs(tr - 1.0) <= TOL)
    if np.count_nonzero(bad):
        raise InvariantViolation(f"trace {complex(tr[bad][0])} deviates from 1 beyond {TOL}")
    w, v = eigh_desc((m + mh) / 2.0)
    lo = w[..., -1]
    bad = ~(lo >= -TOL)
    if np.count_nonzero(bad):
        raise InvariantViolation(f"negative eigenvalue {float(lo[bad][0])} below -{TOL}")
    clip = lo < 0.0
    w = np.maximum(w, 0.0)
    if np.count_nonzero(clip):
        vc = v[clip]
        m[clip] = (vc * w[clip][..., None, :]) @ vc.conj().swapaxes(-1, -2)
    return m, w, v


def as_int(value, what: str, low: int | None = None) -> int:
    """value as an int, at least low when low is given: the one rule for every
    dimension, count and seed. A bool, float or string is refused, not
    truncated: 2.5 is no 2, and neither is 2.0 nor True a count."""
    if isinstance(value, bool):
        raise TypeError(f"{what} {value} is a bool, not an integer")
    try:
        value = operator.index(value)
    except TypeError:
        raise TypeError(f"{what} {value!r} is not an integer") from None
    if low is not None and value < low:
        raise InvariantViolation(f"{what} = {value} must be >= {low}")
    return value


@dataclass(frozen=True)
class SpaceLayout:
    """Ordered collection of (label, dim) subsystems."""

    subsystems: tuple[tuple[str, int], ...]

    def __init__(self, subsystems: Iterable[tuple[str, int]]):
        subs = []
        for lbl, dim in subsystems:
            # a null or numeric label is refused, not renamed: None is no label "None"
            if not isinstance(lbl, str):
                raise TypeError(f"subsystem label {lbl!r} is not a string")
            subs.append((lbl, as_int(dim, f"subsystem {lbl!r} dim", 1)))
        subs = tuple(subs)
        if not subs:
            raise InvariantViolation("layout needs at least one subsystem")
        labels = [lbl for lbl, _ in subs]
        if len(set(labels)) != len(labels):
            raise InvariantViolation(f"duplicate labels in layout: {labels}")
        object.__setattr__(self, "subsystems", subs)

    @cached_property
    def total_dim(self) -> int:
        n = 1
        for _, d in self.subsystems:
            n *= d
        return n

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lbl for lbl, _ in self.subsystems)

    def to_json(self) -> list[list]:
        return [[lbl, d] for lbl, d in self.subsystems]


@dataclass(frozen=True)
class PureState:
    """Unit vector on a layout. Immutable once constructed."""

    layout: SpaceLayout
    amplitudes: np.ndarray = field(repr=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=np.complex128).ravel()
        if amp.shape[0] != self.layout.total_dim:
            raise InvariantViolation(
                f"{amp.shape[0]} amplitudes for layout of dim {self.layout.total_dim}"
            )
        check_unit_columns(amp[:, None])
        object.__setattr__(self, "amplitudes", _frozen(amp))


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, positive semidefinite, unit-trace matrix on a layout.

    Construction symmetrises nothing: hermiticity must already hold to TOL.
    validate_density clips eigenvalues in [-TOL, 0) to zero, rebuilding the matrix
    only then; anything more negative is an error. Its clipped eigh_desc pairs
    are kept in _eigh: the exact eigenpairs of the stored matrix.
    """

    layout: SpaceLayout
    matrix: np.ndarray = field(repr=False)
    _eigh: tuple[np.ndarray, np.ndarray] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128)  # validation may rebuild it in place
        n = self.layout.total_dim
        if m.shape != (n, n):
            raise InvariantViolation(f"matrix shape {m.shape} for layout of dim {n}")
        m, w, v = validate_density(m)
        for a in (m, w, v):
            a.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_eigh", (w, v))


def _purification(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Unit-norm matrices sum_i sqrt(w_i) |v_i><i| from a stack of validate_density's
    clipped eigh_desc pairs: square purifications, the environment as the last index."""
    block = v * np.sqrt(w[..., None, :])
    return block / np.linalg.norm(block, axis=(-2, -1), keepdims=True)


def basis_state(layout: SpaceLayout, index: int) -> PureState:
    index = as_int(index, "basis index")
    # a negative index would wrap around to the end, not be refused
    if not 0 <= index < layout.total_dim:
        raise InvariantViolation(f"basis index {index} outside [0, {layout.total_dim})")
    amps = np.zeros(layout.total_dim, dtype=np.complex128)
    amps[index] = 1.0
    return PureState(layout, amps)


# ---------------------------------------------------------------------------
# Haar sampling
# ---------------------------------------------------------------------------


def haar_isometry_matrix(rng: np.random.Generator, dout: int, din: int) -> np.ndarray:
    """Haar-distributed isometry via QR of a Ginibre matrix.

    R's diagonal phases are divided out, which is what makes the column
    distribution actually uniform rather than QR-convention dependent.
    """
    q, r = np.linalg.qr(rng.standard_normal((dout, din)) + 1j * rng.standard_normal((dout, din)))
    d = np.diag(r)
    ph = d / np.abs(d)
    return q * ph


def _haar_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random unit vectors as rows of an (n, d) array; row k holds the
    amplitudes of the k-th random_pure drawn from the same stream."""
    g = rng.standard_normal((n, 2, d))
    g = g[:, 0] + 1j * g[:, 1]
    # per-row dots in the order np.linalg.norm takes them
    re, im = g.real[:, None, :], g.imag[:, None, :]
    return g / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]


def haar_density_matrix(rng: np.random.Generator, dim: int, ranks) -> np.ndarray:
    """Unvalidated (*shape of ranks, dim, dim) density matrices G G^H / tr, each G a (dim, dim)
    Ginibre matrix with its columns from its rank r on zero: the rank-r induced measure."""
    g = rng.standard_normal((*np.shape(ranks), dim, dim, 2)).view(np.complex128)[..., 0]
    g *= np.arange(dim) < np.expand_dims(ranks, (-2, -1))
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[..., None, None]


def random_pure(layout: SpaceLayout, seed: int | np.random.Generator) -> PureState:
    return PureState(layout, _haar_rows(_as_rng(seed), 1, layout.total_dim)[0])
