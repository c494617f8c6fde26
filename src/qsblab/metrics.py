"""Distance and closeness measures between states, plus their exact inequalities.

Fidelity here is the squared-arccos-free convention F = (Tr sqrt(sqrt(rho)
sigma sqrt(rho)))^2, so F(rho, |psi><psi|) reduces to <psi|rho|psi>.

The kernels behind fidelity, trace distance and the Uhlmann partner work on
(..., d, d) stacks; fidelity and fidelity_pure apply them to one pair of
state objects, fidelity with the eigenpairs each DensityMatrix kept from its
validation.

property_sweep checks the inequalities between these measures on random
instances and reports each failure as a BoundCheck recording both sides;
nothing is silently clamped away. It buckets each block of samples by property
and dimension and draws all states of one dimension as one Ginibre stack, so a
seed always checks the same instances. Validating that pool once diagonalises
each state exactly once; each bucket is checked as one stack on its slice of
the pool and builds a BoundCheck only for a failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import BadPurification, LayoutMismatch
from .hilbert import (
    RANK_CUTOFF,
    TOL_NUM,
    DensityMatrix,
    PureState,
    haar_density_matrix,
    validate_density,
    _haar_rows,
    _purification,
)

_SLACK_TOL = TOL_NUM


def _root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Square roots from eigh_desc pairs of a stack, eigenvalues up to RANK_CUTOFF as zero."""
    roots = np.sqrt(np.where(w > RANK_CUTOFF, w, 0.0))
    return (v * roots[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _fidelity(root_rho: np.ndarray, root_sigma: np.ndarray) -> np.ndarray:
    """Fidelities of two (..., d, d) stacks given their square roots."""
    s = np.linalg.svd(root_sigma @ root_rho, compute_uv=False)
    return np.clip(np.sum(s, axis=-1) ** 2, 0.0, 1.0)


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Closeness of two mixed states, (Tr sqrt(sqrt(rho) sigma sqrt(rho)))^2.

    Evaluated as the squared nuclear norm of sqrt(sigma) sqrt(rho): the
    singular values of that product are the eigenvalue square roots the
    definition asks for, but SVD reaches them without the precision loss
    of rooting near-zero eigenvalues of the triple product.
    """
    if rho.layout != sigma.layout:
        raise LayoutMismatch(f"layouts differ: {rho.layout.labels} vs {sigma.layout.labels}")
    return float(_fidelity(_root(*rho._eigh), _root(*sigma._eigh)))


def _fidelity_pure(rho: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """<psi|rho|psi> for a (..., d, d) stack against a (..., d) stack."""
    val = (psi.conj()[..., None, :] @ (rho @ psi[..., None]))[..., 0, 0].real
    return np.clip(val, 0.0, 1.0)


def fidelity_pure(rho: DensityMatrix, psi: PureState) -> float:
    """<psi|rho|psi>, the mixed-vs-pure special case."""
    if rho.layout != psi.layout:
        raise LayoutMismatch("state layouts differ")
    return float(_fidelity_pure(rho.matrix, psi.amplitudes))


def _trace_distance(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Half the trace norm of rho - sigma for (..., d, d) stacks."""
    diff = rho - sigma
    w = np.linalg.eigvalsh((diff + diff.conj().swapaxes(-1, -2)) / 2.0)
    return np.clip(0.5 * np.sum(np.abs(w), axis=-1), 0.0, 1.0)


@dataclass(frozen=True)
class BoundCheck:
    """One verified inequality: satisfied iff lhs >= rhs - tolerance."""

    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    label: str = ""
    vacuous: bool = False

    @classmethod
    def of(
        cls,
        lhs: float,
        rhs: float,
        label: str = "",
        vacuous: bool = False,
        tol: float = _SLACK_TOL,
    ) -> "BoundCheck":
        lhs = float(lhs)
        rhs = float(rhs)
        slack = lhs - rhs
        return cls(lhs, rhs, slack, slack >= -tol, label, vacuous)


def _dsqrt(x):
    return np.sqrt(np.maximum(x, 0.0))


def _chain_rhs(f_first, f_second):
    """Floor 1 - sqrt(1-F1) - sqrt(1-F2) that chaining through a middle state gives."""
    return 1.0 - _dsqrt(1.0 - f_first) - _dsqrt(1.0 - f_second)


def _fvdg_bounds(f):
    """Fuchs-van de Graaf sandwich 1 - sqrt(F) <= D <= sqrt(1 - F): (floor, ceiling)."""
    return 1.0 - _dsqrt(f), _dsqrt(1.0 - f)


def _partner(m: np.ndarray, rho: np.ndarray, w_sig: np.ndarray, v_sig: np.ndarray) -> np.ndarray:
    """Uhlmann partner matrices (n, d_a, d_e) for a stack of purification
    matrices m (n, d_a, d_e) of rho (n, d_a, d_a), against the states sigma
    with eigh_desc pairs (w_sig, v_sig)."""
    reduced = m @ m.conj().swapaxes(-1, -2)
    if float(np.max(np.abs(reduced - rho))) > 1e-8:
        raise BadPurification("supplied state does not purify rho_a")
    d_e = m.shape[-1]
    rank_sigma = np.sum(w_sig > RANK_CUTOFF, axis=-1)
    if np.any(rank_sigma > d_e):
        raise BadPurification(
            f"environment dim {d_e} below rank {rank_sigma.max()} of sigma_a"
        )

    sqrt_sigma = _root(w_sig, v_sig)
    u, s, vh = np.linalg.svd(m.conj().swapaxes(-1, -2) @ sqrt_sigma)  # of (d_e, d_a)
    k = s.shape[-1]
    # Row-space basis of the cross operator, zeroed past its rank.
    row = vh[:, :k].conj().swapaxes(-1, -2) * (s > RANK_CUTOFF)[:, None, :]
    w_map = row @ u[:, :, :k].conj().swapaxes(-1, -2)  # (n, d_a, d_e), isometric on row space

    # Cover any support directions of sigma the cross operator misses.
    resid = np.linalg.norm(v_sig - row @ (row.conj().swapaxes(-1, -2) @ v_sig), axis=-2)
    in_support = np.arange(v_sig.shape[-1]) < rank_sigma[:, None]
    for i in np.flatnonzero(np.any((resid > 1e-10) & in_support, axis=-1)):
        proj = row[i] @ row[i].conj().T
        spare_out = u[i][:, int(np.sum(s[i] > RANK_CUTOFF)) :]
        extra = []
        for col in v_sig[i].T[: rank_sigma[i]]:
            res = col - proj @ col
            for z in extra:
                res = res - z * np.vdot(z, col)
            nrm = np.linalg.norm(res)
            if nrm > 1e-10:
                extra.append(res / nrm)
        for j, z in enumerate(extra):
            w_map[i] += np.outer(z, spare_out[:, j].conj())

    partner = sqrt_sigma @ w_map
    return partner / np.linalg.norm(partner, axis=(-2, -1), keepdims=True)


def _overlaps(w: np.ndarray, v: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """|<v_k|psi>|^2 for each eigh_desc pair with w_k > RANK_CUTOFF, else 0, on stacks."""
    o = np.abs((v.conj().swapaxes(-1, -2) @ psi[..., None])[..., 0]) ** 2
    return np.where(w > RANK_CUTOFF, o, 0.0)


# ---------------------------------------------------------------------------
# randomized property sweep (shared by the CLI and the acceptance suite)
# ---------------------------------------------------------------------------

PROPERTY_NAMES = (
    "triangle",
    "triangle_pure",
    "monotonicity",
    "partner_overlap",
    "component_ceiling",
    "eigenvalue_ceiling",
    "fvdg",
)


# Every check a sample reports, in the order property_sweep returns them.
_CHECK_LABELS = PROPERTY_NAMES[:-1] + ("fvdg_lower", "fvdg_upper")

# Samples drawn and evaluated together; bounds the sweep's memory at any
# sample count while leaving each dimension bucket a stack worth batching.
_SWEEP_BLOCK = 512

_PARTNER_TOL = 1e-8

# States per sample of each bucket property; triangle_pure and ceilings also draw a Haar vector.
_STATES = {"triangle": 3, "triangle_pure": 2, "monotonicity": 2, "partner_overlap": 2, "ceilings": 1, "fvdg": 2}


def _draw_block(rng: np.random.Generator, count: int, dims_cap: int, names: Sequence[str]):
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
        if prop in names or prop == "ceilings" and not {"component_ceiling", "eigenvalue_ceiling"}.isdisjoint(names):
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


def _validated(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """validate_density on a stack, eigenvalues clipped at zero as a DensityMatrix keeps them."""
    mats, w, v = validate_density(mats)
    return mats, np.maximum(w, 0.0), v


def _evaluate(prop: str, dims, mats, w, v, vecs: np.ndarray, names: Sequence[str]):
    """(label, lhs, rhs, tol) rows for one validated bucket; lhs and rhs run over its samples."""
    if prop == "ceilings":
        f = _fidelity_pure(mats[:, 0], vecs[:, 0])
        rows = []
        if "component_ceiling" in names:
            best = _overlaps(w[:, 0], v[:, 0], vecs[:, 0]).max(axis=-1)
            rows.append(("component_ceiling", best, f, _SLACK_TOL))
        if "eigenvalue_ceiling" in names:
            rows.append(("eigenvalue_ceiling", w[:, 0, 0], f, _SLACK_TOL))
        return rows
    root = _root(w, v)
    if prop == "partner_overlap":
        # phi purifies the first state, chi is its Uhlmann partner for the second
        lhs = np.empty(len(mats))
        ranks = np.maximum(np.sum(w[:, 0] > RANK_CUTOFF, axis=-1), 1)
        for rank in np.unique(ranks):
            sel = ranks == rank
            phi = _purification(w[sel, 0], v[sel, 0], rank)
            chi = _partner(phi, mats[sel, 0], w[sel, 1], v[sel, 1])
            lhs[sel] = np.abs(np.sum(phi.conj() * chi, axis=(-2, -1))) ** 2
        return [("partner_overlap", lhs, _fidelity(root[:, 0], root[:, 1]), _PARTNER_TOL)]
    if prop == "triangle":
        lhs = _dsqrt(_fidelity(root[:, 0], root[:, 1]))
        rhs = _chain_rhs(_fidelity(root[:, 0], root[:, 2]), _fidelity(root[:, 2], root[:, 1]))
        return [("triangle", lhs, rhs, _SLACK_TOL)]
    if prop == "triangle_pure":
        lhs = _fidelity_pure(mats[:, 0], vecs[:, 0])
        rhs = _chain_rhs(_fidelity(root[:, 0], root[:, 1]), _fidelity_pure(mats[:, 1], vecs[:, 0]))
        return [("triangle_pure", lhs, rhs, _SLACK_TOL)]
    f = _fidelity(root[:, 0], root[:, 1])
    if prop == "monotonicity":
        d1, d2 = dims
        joint = mats.reshape(len(mats), 2, d1, d2, d1, d2)
        _, w_q, v_q = _validated(np.trace(joint, axis1=3, axis2=5))
        root_q = _root(w_q, v_q)
        return [("monotonicity", _fidelity(root_q[:, 0], root_q[:, 1]), f, _SLACK_TOL)]
    dist = _trace_distance(mats[:, 0], mats[:, 1])
    floor, ceiling = _fvdg_bounds(f)
    return [("fvdg_lower", dist, floor, _SLACK_TOL), ("fvdg_upper", ceiling, dist, _SLACK_TOL)]


def _sweep_checks(samples: int, dims_cap: int, seed: int, names: Sequence[str]):
    """Yield (sample indices, label, lhs, rhs, tol) for every check of the sweep,
    one bucket at a time, _SWEEP_BLOCK samples per draw.

    The matrices of one dimension are validated, and so diagonalised, as one
    pool laid out bucket after bucket, so each bucket is a view of the pool.
    """
    rng = np.random.default_rng(seed)
    for start in range(0, samples, _SWEEP_BLOCK):
        count = min(_SWEEP_BLOCK, samples - start)
        for states, buckets in _draw_block(rng, count, dims_cap, names):
            pool = _validated(states)
            end = 0
            for prop, dims, idx, vecs in buckets:
                begin, end = end, end + len(idx) * _STATES[prop]
                mats, w, v = (a[begin:end].reshape(len(idx), -1, *a.shape[1:]) for a in pool)
                for label, lhs, rhs, tol in _evaluate(prop, dims, mats, w, v, vecs, names):
                    yield start + idx, label, lhs, rhs, tol


def property_sweep(
    samples: int, dims_cap: int, seed: int, names: Sequence[str] = PROPERTY_NAMES
) -> list[BoundCheck]:
    """Run `samples` random instances of each named inequality.

    Returns the failing checks (empty list = all good), ordered by sample and
    then by inequality. Each factor's dimension is drawn from [2, dims_cap].
    """
    failures = []
    for idx, label, lhs, rhs, tol in _sweep_checks(samples, dims_cap, seed, names):
        for k in np.flatnonzero(~(lhs - rhs >= -tol)):
            check = BoundCheck.of(lhs[k], rhs[k], label=label, tol=tol)
            failures.append((idx[k], _CHECK_LABELS.index(label), check))
    failures.sort(key=lambda f: f[:2])
    return [check for _, _, check in failures]
