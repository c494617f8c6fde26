"""The random state draw and the search stage's objective that several tests
share, and textbook references on plain arrays that use none of the package's
kernels."""

import math

import numpy as np

import qsblab.optimize as optimize
from qsblab.hilbert import DensityMatrix, haar_density_matrix


def random_density(layout, rank, seed):
    """DensityMatrix of a Haar-random purification with the given rank; seed is a Generator or an int."""
    return DensityMatrix(layout, haar_density_matrix(np.random.default_rng(seed), layout.total_dim, rank))


def stage_objective(u, vab, vac, cols, dims4, temp):
    """The search stage's soft minimum at (U, V_AB, V_AC) and the probe columns
    cols, its gradients w.r.t. conj(U, V_AB, V_AC), the padded point x, its
    tangent ascent direction xi and its Armijo slope: the stage's own
    evaluation and direction, on the matrices zero-padded into a restart's slot."""
    probes = optimize.search_probes(cols)
    slot, _, g, grads = optimize._scratch(probes, *u.shape, dims4)
    for k, m in enumerate((u, vab, vac)):
        slot.x[k, : m.shape[0]] = m
    f, cached, hard = optimize._evaluate(slot, probes, dims4)
    e = np.empty_like(f)
    value, z = optimize._soft_min(f, hard, temp, e)
    xi, slope = optimize._direction(slot, g, grads, cached, e, z)
    return value, optimize._unpad(g, dims4), slot.x, xi, slope


def pure_density(psi):
    """|psi><psi| of a PureState, as a DensityMatrix on its layout."""
    return DensityMatrix(psi.layout, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def kraus_ops(u, d_out):
    """The Kraus family of a Stinespring matrix u from S into (O, E), the environment last."""
    return u.reshape(d_out, -1, u.shape[1]).swapaxes(0, 1)


def channel_action(kraus_ops, rho):
    """sum_i K_i rho K_i^H, on one matrix or a stack."""
    return sum(k @ rho @ k.conj().T for k in kraus_ops)


def partial_trace(rho, dims, keep):
    """Marginal of rho on the factors at the indices in keep, in increasing order."""
    n = len(dims)
    col = [n + i if i in keep else i for i in range(n)]
    out = np.einsum(rho.reshape(*dims, *dims), [*range(n), *col], [*keep, *(n + i for i in keep)])
    d = math.prod(dims[i] for i in keep)
    return out.reshape(d, d)


def purify(rho):
    """(d, r) amplitudes m with m m^H = rho, r the number of eigenvalues above 1e-12."""
    w, v = np.linalg.eigh(rho)
    keep = w > 1e-12
    return v[:, keep] * np.sqrt(w[keep])
