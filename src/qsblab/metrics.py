"""Distance and closeness measures between states, plus their exact inequalities.

Fidelity here is the squared-arccos-free convention F = (Tr sqrt(sqrt(rho)
sigma sqrt(rho)))^2, so F(rho, |psi><psi|) reduces to <psi|rho|psi>.

The kernels behind fidelity, trace distance and the Uhlmann partner work on
(..., d, d) stacks; fidelity and fidelity_pure apply them to one pair of
state objects, fidelity with the eigenpairs each DensityMatrix kept from its
validation.

The SVD and eigvalsh kernels call LAPACK's gufuncs as hilbert binds them,
without np.linalg's wrappers. Their inputs are validated finite, and a stack
that does not converge gives NaN rather than LinAlgError: the NaN fails the
check row it reaches, as every check is "not within tolerance", so it never
passes silently.

property_sweep checks the inequalities between these measures on random
instances and reports each failure as a BoundCheck recording both sides; nothing
is silently clamped away, and a check's slack holds to TOL (the partner
overlap's to _PARTNER_TOL). It buckets each block of samples by property and
dimension and draws all states of one dimension as one Ginibre stack, so a seed
always checks the same instances. Each such pool is validated, and so
diagonalised, once (validate_density's pairs come clipped), and scored as one
stack: one root build, one SVD for every fidelity pair of its buckets and one
product for every pure-state fidelity. The monotonicity marginals of a block are
scored once per reduced dimension. A BoundCheck is built only for a failure.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

import numpy as np

from .errors import InvariantViolation
from .hilbert import (
    RANK_CUTOFF,
    TOL,
    DensityMatrix,
    PureState,
    as_int,
    haar_density_matrix,
    validate_density,
    _as_rng,
    _eigvalsh_lo,
    _haar_rows,
    _purification,
    _svdvals,
)


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Square roots from eigh_desc pairs of a stack, eigenvalues up to RANK_CUTOFF as zero."""
    roots = np.sqrt(np.where(w > RANK_CUTOFF, w, 0.0))
    return (v * roots[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _fidelity(root_rho: np.ndarray, root_sigma: np.ndarray) -> np.ndarray:
    """Fidelities of two (..., d, d) stacks given their square roots."""
    s = _svdvals(root_sigma @ root_rho)
    return np.clip(np.sum(s, axis=-1) ** 2, 0.0, 1.0)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Closeness of two mixed states, (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared nuclear norm of sqrt(sigma) sqrt(rho): the
    singular values of that product are the eigenvalue square roots the
    definition asks for, but SVD reaches them without the precision loss
    of rooting near-zero eigenvalues of the triple product.
    """
    if rho.layout != sigma.layout:
        raise InvariantViolation(f"layouts differ: {rho.layout.labels} vs {sigma.layout.labels}")
    return float(_fidelity(_root(*rho._eigh), _root(*sigma._eigh)))


def _fidelity_pure(rho: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi|rho|psi> for a (..., d, d) stack against a (..., d) stack."""
    val = (psi.conj()[..., None, :] @ (rho @ psi[..., None]))[..., 0, 0].real
    return np.clip(val, 0.0, 1.0)


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi|rho|psi>, the mixed-vs-pure special case."""
    if rho.layout != psi.layout:
        raise InvariantViolation("state layouts differ")
    return float(_fidelity_pure(rho.matrix, psi.amplitudes))


def _trace_distance(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Half the trace norm of rho - sigma for (..., d, d) stacks."""
    diff = rho - sigma
    w = _eigvalsh_lo((diff + diff.conj().swapaxes(-1, -2)) / 2.0)
    return np.clip(0.5 * np.sum(np.abs(w), axis=-1), 0.0, 1.0)


class BoundCheck(NamedTuple):
    """One verified inequality: satisfied iff lhs >= rhs - tol, TOL by default.

    A tuple, so a chain report's hundred-odd rows cost what tuples cost; its
    fields are read-only, as a frozen dataclass's were.
    """

    label: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    vacuous: bool = False

    @classmethod
    def of(
        cls,
        lhs: float,
        rhs: float,
        label: str = "",
        vacuous: bool = False,
        tol: float = TOL,
    ) -> "BoundCheck":
        return cls.rows((label,), (float(lhs),), (float(rhs),), vacuous, tol)[0]

    @classmethod
    def rows(
        cls,
        labels: Iterable[str],
        lhs: Iterable[float],
        rhs: Iterable[float],
        vacuous: bool = False,
        tol: float = TOL,
    ) -> list["BoundCheck"]:
        """A family's rows, one per label, zipped with its lhs and rhs floats (a side
        every row shares as itertools.repeat): the one place the rule is applied."""
        sides = zip(labels, lhs, rhs)
        return [cls(label, a, b, (s := a - b), s >= -tol, vacuous) for label, a, b in sides]


def _dsqrt(x):
    return np.sqrt(np.maximum(x, 0.0))


def _chain_rhs(f_first, f_second):
    """Floor 1 - sqrt(1-F1) - sqrt(1-F2) that chaining through a middle state gives."""
    return 1.0 - _dsqrt(1.0 - f_first) - _dsqrt(1.0 - f_second)


def _fvdg_bounds(f):
    """Fuchs-van de Graaf sandwich 1 - sqrt(F) <= D <= sqrt(1 - F): (floor, ceiling)."""
    return 1.0 - _dsqrt(f), _dsqrt(1.0 - f)


def _partner(m: np.ndarray, rho: np.ndarray, w_sig: np.ndarray, v_sig: np.ndarray) -> np.ndarray:
    """Uhlmann partners sqrt(sigma) W (n, d, d) for a stack of square purification
    matrices m (n, d, d) of rho (n, d, d), against the states sigma with eigh_desc
    pairs (w_sig, v_sig); W = V U^H is the polar factor of m^H sqrt(sigma) = U S V^H.

    W is unitary, so the partner purifies sigma whatever the ranks, and
    <m|partner> = Tr S is the nuclear norm that fidelity squares. Each partner
    is rescaled to unit norm, which it has up to rounding.
    """
    reduced = m @ m.conj().swapaxes(-1, -2)
    if float(np.max(np.abs(reduced - rho))) > 1e-8:
        raise InvariantViolation("supplied state does not purify rho_a")
    if m.shape[-1] != m.shape[-2]:
        raise InvariantViolation(f"purification of shape {m.shape[-2:]}: m must be square")
    sqrt_sigma = _root(w_sig, v_sig)
    u, _, vh = np.linalg.svd(m.conj().swapaxes(-1, -2) @ sqrt_sigma)
    partner = sqrt_sigma @ (vh.conj().swapaxes(-1, -2) @ u.conj().swapaxes(-1, -2))
    return partner / np.linalg.norm(partner, axis=(-2, -1), keepdims=True)


def _overlaps(w: np.ndarray, v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """|<v_k|psi>|^2 for each eigh_desc pair with w_k > RANK_CUTOFF, else 0, on stacks."""
    o = np.abs((v.conj().swapaxes(-1, -2) @ psi[..., None])[..., 0]) ** 2
    return np.where(w > RANK_CUTOFF, o, 0.0)


# ---------------------------------------------------------------------------
# randomized property sweep (shared by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------

# Every check a sample reports, in the order property_sweep returns them.
_CHECK_LABELS = (
    "triangle",
    "triangle_pure",
    "monotonicity",
    "partner_overlap",
    "component_ceiling",
    "eigenvalue_ceiling",
    "fvdg_lower",
    "fvdg_upper",
)

# Samples drawn and evaluated together; bounds the sweep's memory at any
# sample count while leaving each dimension bucket a stack worth batching.
_SWEEP_BLOCK = 512

_PARTNER_TOL = 1e-8

# States per sample of each bucket property; triangle_pure and ceilings also draw a Haar vector.
_STATES = {"triangle": 3, "triangle_pure": 2, "monotonicity": 2, "partner_overlap": 2, "ceilings": 1, "fvdg": 2}

# The fidelities each bucket property scores, as positions of states in a sample:
# pairs of states, and states against the sample's Haar vector.
_PAIRS = dict.fromkeys(_STATES, ((0, 1),)) | {"triangle": ((0, 1), (0, 2), (2, 1)), "ceilings": ()}
_PURE = dict.fromkeys(_STATES, ()) | {"triangle_pure": (0, 1), "ceilings": (0,)}


def _draw_block(rng: np.random.Generator, count: int, dims_cap: int):
    """Yield `count` samples as one (states, buckets) pool per matrix dimension n.

    states, an unvalidated (N, n, n) stack, holds its buckets' states in order, a sample's
    together; a bucket is (property, dims, sample indices, Haar vectors (samples, 1, n) or
    None). Ranks are uniform in [1, n], except that partner_overlap states are full rank
    and of dimension at most min(4, dims_cap).
    """
    d = rng.integers(2, dims_cap + 1, size=count)
    d1 = rng.integers(2, max(2, int(np.sqrt(dims_cap))) + 1, size=count)
    d2 = rng.integers(2, np.maximum(2, dims_cap // d1) + 1)
    dp = rng.integers(2, min(4, dims_cap) + 1, size=count)
    # each bucket's dims as one integer per sample; (d1, d2) is d1 * (dims_cap + 1) + d2
    codes = {"monotonicity": d1 * (dims_cap + 1) + d2, "partner_overlap": dp}
    pools: dict[int, list] = {}  # n: [(property, dims, sample indices)]
    for prop in _STATES:
        code = codes.get(prop, d)
        for c in np.unique(code):
            dims = divmod(int(c), dims_cap + 1) if prop == "monotonicity" else (int(c),)
            pools.setdefault(math.prod(dims), []).append((prop, dims, np.flatnonzero(code == c)))
    for n, mine in sorted(pools.items()):
        lowest = [n if prop == "partner_overlap" else 1 for prop, _, _ in mine]
        sizes = [len(idx) * _STATES[prop] for prop, _, idx in mine]
        states = haar_density_matrix(rng, n, rng.integers(np.repeat(lowest, sizes), n + 1))
        vecs = (_haar_rows(rng, len(i), n)[:, None] if p in ("triangle_pure", "ceilings") else None for p, _, i in mine)
        yield states, [b + (v,) for b, v in zip(mine, vecs)]


def _evaluate(prop: str, mats, w, v, vecs, f, f_pure):
    """(label, lhs, rhs, tol) rows for one validated bucket that is not monotonicity,
    from its fidelities: f[k] of its k-th _PAIRS pair and f_pure[k] of its k-th _PURE
    state, each over its samples."""
    if prop == "ceilings":
        best = _overlaps(w[:, 0], v[:, 0], vecs[:, 0]).max(axis=-1)
        return [("component_ceiling", best, f_pure[0], TOL), ("eigenvalue_ceiling", w[:, 0, 0], f_pure[0], TOL)]
    if prop == "partner_overlap":
        # phi purifies the first state, chi is its Uhlmann partner for the second
        phi = _purification(w[:, 0], v[:, 0])
        chi = _partner(phi, mats[:, 0], w[:, 1], v[:, 1])
        lhs = np.abs(np.sum(phi.conj() * chi, axis=(-2, -1))) ** 2
        return [("partner_overlap", lhs, f[0], _PARTNER_TOL)]
    if prop == "triangle":
        return [("triangle", _dsqrt(f[0]), _chain_rhs(f[1], f[2]), TOL)]
    if prop == "triangle_pure":
        return [("triangle_pure", f_pure[0], _chain_rhs(f[0], f_pure[1]), TOL)]
    dist = _trace_distance(mats[:, 0], mats[:, 1])
    floor, ceiling = _fvdg_bounds(f[0])
    return [("fvdg_lower", dist, floor, TOL), ("fvdg_upper", ceiling, dist, TOL)]


def _split(values: np.ndarray, parts: list) -> list:
    """values of the concatenated parts, split back into one array per (index, ...) part."""
    return np.split(values, np.cumsum([len(part[0]) for part in parts])[:-1])


def _sweep_checks(samples: int, dims_cap: int, seed: int):
    """Yield (sample indices, label, lhs, rhs, tol) for every check of the sweep,
    _SWEEP_BLOCK samples per draw.

    The matrices of one dimension are validated, and so diagonalised, as one pool
    laid out bucket after bucket, so each bucket is a view of the pool. The pool's
    roots are built once; the fidelity pairs of all its buckets, gathered by their
    positions in the pool, are one _fidelity call and its pure-state fidelities one
    _fidelity_pure call. The block's monotonicity marginals are validated, rooted
    and scored once per reduced dimension d1, after the block's pools.
    """
    rng = _as_rng(seed)
    for start in range(0, samples, _SWEEP_BLOCK):
        count = min(_SWEEP_BLOCK, samples - start)
        marginals: dict[int, list] = {}  # d1: [(sample indices, partial traces, joint fidelities)]
        for states, buckets in _draw_block(rng, count, dims_cap):
            mats, w, v = pool = validate_density(states)
            root = _root(w, v)
            views, pairs, pure = [], [], []
            end = 0
            for prop, _, idx, vecs in buckets:
                begin, end = end, end + len(idx) * _STATES[prop]
                views.append([a[begin:end].reshape(len(idx), -1, *a.shape[1:]) for a in pool])
                at = np.arange(begin, end, _STATES[prop])  # each sample's first state
                pairs += [(at + i, at + j) for i, j in _PAIRS[prop]]
                pure += [(at + i, vecs[:, 0]) for i in _PURE[prop]]
            f = iter(_split(_fidelity(*(root[np.concatenate(x)] for x in zip(*pairs))), pairs))
            f_pure = iter(())  # a pool of monotonicity and partner buckets only has none
            if pure:
                k, psi = (np.concatenate(x) for x in zip(*pure))
                f_pure = iter(_split(_fidelity_pure(mats[k], psi), pure))
            for (prop, dims, idx, vecs), (b_mats, b_w, b_v) in zip(buckets, views):
                b_f = [next(f) for _ in _PAIRS[prop]]
                b_pure = [next(f_pure) for _ in _PURE[prop]]
                if prop == "monotonicity":
                    d1, d2 = dims
                    traced = np.trace(b_mats.reshape(len(idx), 2, d1, d2, d1, d2), axis1=3, axis2=5)
                    marginals.setdefault(d1, []).append((start + idx, traced, b_f[0]))
                    continue
                for label, lhs, rhs, tol in _evaluate(prop, b_mats, b_w, b_v, vecs, b_f, b_pure):
                    yield start + idx, label, lhs, rhs, tol
        for parts in marginals.values():
            idx, traced, f_joint = (np.concatenate(x) for x in zip(*parts))
            root_q = _root(*validate_density(traced)[1:])
            yield idx, "monotonicity", _fidelity(root_q[:, 0], root_q[:, 1]), f_joint, TOL


def property_sweep(samples: int, dims_cap: int, seed: int) -> list[BoundCheck]:
    """Run `samples` random instances of each inequality.

    Returns the failing checks (empty list = all good), ordered by sample and
    then by inequality. Each factor's dimension is drawn from [2, dims_cap].
    Both counts follow as_int's rule; samples < 0 or dims_cap < 2 is refused.
    """
    samples, dims_cap = as_int(samples, "samples", 0), as_int(dims_cap, "dims_cap", 2)
    failures = []
    for idx, label, lhs, rhs, tol in _sweep_checks(samples, dims_cap, seed):
        for k in np.flatnonzero(~(lhs - rhs >= -tol)):
            check = BoundCheck.of(lhs[k], rhs[k], label=label, tol=tol)
            failures.append((idx[k], _CHECK_LABELS.index(label), check))
    failures.sort(key=lambda f: f[:2])
    return [check for _, _, check in failures]
