"""Shared broadcasting of pure states into two overlapping receivers.

A broadcast instance is a channel from a source S into three subsystems
A, B, C together with two representation isometries: receiver I reads the
pair (A, B), receiver II the pair (A, C), and each should see the source
state as the corresponding isometric image. Perfect operation is possible
exactly when the source fits inside the shared part (d_S <= d_A); the
machinery below constructs that regime, measures the worst-case fidelity
deficit everywhere else, and evaluates the chain of bounds that turns a
small deficit at d_S > d_A into a contradiction with the optimal-cloning
ceiling of 5/6.

Both receiver fidelities come from one kernel, branch_values: it contracts
the channel's Stinespring matrix with the two representation isometries and
meets the inputs only through their outer products (probe_matrix).
measure_eps, the search in optimize and chain_verify all run it.

The chain reads everything else from the Stinespring image U|psi> too: as an
(A, B, C, E) tensor it already purifies the channel output, so the product
extraction takes its marginals from it directly, and the phase of each
two-level family is set by an exact max-min over closed-form candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .channels import KrausChannel, _stinespring_matrix, depolarizing_channel, mix
from .errors import (
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
from .hilbert import (
    DensityMatrix,
    Isometry,
    PureState,
    SpaceLayout,
    eigh_desc,
    _as_rng,
)
from .metrics import BoundCheck

# Worst-case ceiling for universal qubit cloning: no input-independent
# 1 -> 2 copier pushes both copy fidelities above this value.
CLONING_CEILING = 5.0 / 6.0


@dataclass(frozen=True)
class QsbInstance:
    """A broadcast channel plus the two representation isometries."""

    channel: KrausChannel
    v_abs: Isometry
    v_acs: Isometry

    def __post_init__(self):
        cin = self.channel.input_layout
        cout = self.channel.output_layout
        if len(cin.subsystems) != 1:
            raise InvariantViolation("channel input must be a single subsystem")
        if len(cout.subsystems) != 3:
            raise InvariantViolation("channel output must have exactly three subsystems")
        a, b, c = cout.subsystems
        if self.v_abs.input_layout != cin or self.v_acs.input_layout != cin:
            raise LayoutMismatch("representation isometries must start on the source")
        if self.v_abs.output_layout.subsystems != (a, b):
            raise LayoutMismatch("first representation must land on the (shared, I) pair")
        if self.v_acs.output_layout.subsystems != (a, c):
            raise LayoutMismatch("second representation must land on the (shared, II) pair")

    @property
    def d_s(self) -> int:
        return self.channel.input_layout.total_dim

    @property
    def d_a(self) -> int:
        return self.channel.output_layout.subsystems[0][1]

    @property
    def d_b(self) -> int:
        return self.channel.output_layout.subsystems[1][1]

    @property
    def d_c(self) -> int:
        return self.channel.output_layout.subsystems[2][1]

    @property
    def source_layout(self) -> SpaceLayout:
        return self.channel.input_layout

    def to_json(self) -> dict:
        data = self.channel.to_json()
        data["v_abs"] = self.v_abs.to_json()
        data["v_acs"] = self.v_acs.to_json()
        return data

    @classmethod
    def from_json(cls, data: dict) -> "QsbInstance":
        channel = KrausChannel.from_json(
            {"in": data["in"], "out": data["out"], "kraus": data["kraus"]}
        )
        return cls(
            channel,
            Isometry.from_json(data["v_abs"]),
            Isometry.from_json(data["v_acs"]),
        )


def perfect_qsb_construct(d_s: int, d_a: int, d_b: int, d_c: int) -> QsbInstance:
    """Exact broadcast for d_s <= d_a: embed into the shared subsystem.

    The channel sends |k_S> to |k_A> with both private subsystems parked in
    their ground states, and each representation isometry embeds the source
    the same way, so both receivers see the input with fidelity one.
    """
    for name, d in (("d_s", d_s), ("d_a", d_a), ("d_b", d_b), ("d_c", d_c)):
        if d < 1:
            raise InvariantViolation(f"{name} = {d} must be >= 1")
    if d_s > d_a:
        raise NoPerfectQsb(
            f"source dim {d_s} exceeds shared dim {d_a}: perfect shared "
            "broadcasting needs the source to fit in the shared subsystem"
        )
    lay_s = SpaceLayout([("S", d_s)])
    lay_abc = SpaceLayout([("A", d_a), ("B", d_b), ("C", d_c)])
    lay_ab = SpaceLayout([("A", d_a), ("B", d_b)])
    lay_ac = SpaceLayout([("A", d_a), ("C", d_c)])

    m_abc = np.zeros((d_a * d_b * d_c, d_s), dtype=np.complex128)
    m_ab = np.zeros((d_a * d_b, d_s), dtype=np.complex128)
    m_ac = np.zeros((d_a * d_c, d_s), dtype=np.complex128)
    for k in range(d_s):
        m_abc[k * d_b * d_c, k] = 1.0
        m_ab[k * d_b, k] = 1.0
        m_ac[k * d_c, k] = 1.0

    channel = KrausChannel(lay_s, lay_abc, (m_abc,))
    return QsbInstance(
        channel,
        Isometry(lay_s, lay_ab, m_ab),
        Isometry(lay_s, lay_ac, m_ac),
    )


@dataclass(frozen=True)
class FidelityPair:
    """The two receiver fidelities for one input state."""

    f_ab: float
    f_ac: float

    @property
    def worst(self) -> float:
        return min(self.f_ab, self.f_ac)


def probe_matrix(cols: np.ndarray) -> np.ndarray:
    """P[s' * d_s + s, n] = conj(cols[s', n]) cols[s, n] for source columns (d_s, n)."""
    d_s, n = cols.shape
    return (cols.conj()[:, None, :] * cols[None, :, :]).reshape(d_s * d_s, n)


def branch_values(
    u: np.ndarray,
    vab: np.ndarray,
    vac: np.ndarray,
    p: np.ndarray,
    dims4: tuple[int, int, int, int],
):
    """Both receiver fidelities and the cached factors for gradients.

    u is a Stinespring matrix S -> ABCE (environment last), vab/vac the
    representation matrices and p the probe_matrix of the inputs. With
    K_B[ce, s', s] = sum_ab conj(V_AB[ab, s']) U[abce, s], W_B = K_B @ P and
    f_AB[n] = sum_ce |W_B[ce, n]|^2; the C branch swaps U's B and C axes.
    """
    d_a, d_b, d_c, d_e = dims4
    d_s = vab.shape[1]
    u_b = u.reshape(d_a * d_b, -1)
    u_c = u.reshape(d_a, d_b, d_c, -1).transpose(0, 2, 1, 3).reshape(d_a * d_c, -1)
    wb, wc = (
        (v.conj().T @ ur).reshape(d_s, -1, d_s).transpose(1, 0, 2).reshape(-1, d_s * d_s) @ p
        for v, ur in ((vab, u_b), (vac, u_c))
    )
    f_ab, f_ac = ((w.real**2 + w.imag**2).sum(axis=0) for w in (wb, wc))
    return f_ab, f_ac, (dims4, u_b, u_c, vab, vac, p, wb, wc)


def _deficit(
    instance: QsbInstance, u: np.ndarray, cols: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Worst fidelity deficit over source columns (d_s, n), and both receiver
    fidelities per column, clipped to [0, 1]; u is the channel's
    _stinespring_matrix."""
    dims4 = (instance.d_a, instance.d_b, instance.d_c, len(instance.channel.kraus_ops))
    f_ab, f_ac, _ = branch_values(
        u,
        instance.v_abs.matrix,
        instance.v_acs.matrix,
        probe_matrix(cols),
        dims4,
    )
    f_ab, f_ac = np.clip(f_ab, 0.0, 1.0), np.clip(f_ac, 0.0, 1.0)
    return max(1.0 - float(min(f_ab.min(), f_ac.min())), 0.0), f_ab, f_ac


def broadcast_fidelities(instance: QsbInstance, psi: PureState) -> FidelityPair:
    """F(rho_AB; |psi_AB>) and F(rho_AC; |psi_AC>) for one input."""
    if psi.layout != instance.source_layout:
        raise LayoutMismatch("input does not live on the source layout")
    return measure_eps(instance, [psi])[1][0]


def measure_eps(
    instance: QsbInstance, states: Sequence[PureState]
) -> tuple[float, list[FidelityPair]]:
    """Largest fidelity deficit seen over the supplied probe states.

    The fidelities come from branch_values on the channel's Stinespring
    matrix, the kernel the search maximises, so a searched instance
    re-measures to its in-search value. The result is a lower estimate of
    the true worst-case deficit: it only sees the states it is given. Feed
    it default_probe_states (or better) for a usable estimate.
    """
    states = list(states)
    if not states:
        raise EmptyInput("measure_eps needs at least one probe state")
    for s in states:
        if s.layout != instance.source_layout:
            raise LayoutMismatch("probe state does not live on the source layout")
    cols = np.stack([s.amplitudes for s in states], axis=1)
    eps_hat, f_ab, f_ac = _deficit(instance, _stinespring_matrix(instance.channel), cols)
    return eps_hat, [FidelityPair(float(x), float(y)) for x, y in zip(f_ab, f_ac)]


def default_probe_states(
    layout: SpaceLayout,
    seed: int | np.random.Generator,
    haar_count: int = 200,
    phase_count: int = 8,
) -> list[PureState]:
    """Probe family: basis, balanced two-level superpositions, Haar samples.

    The balanced states run over all index pairs with phase_count relative
    phases; they catch coherence loss the basis alone cannot see. Each Haar
    sample is bit-identical to random_pure's from the same rng stream.
    """
    d = layout.total_dim
    i, j = np.triu_indices(d, 1)
    pairs = np.zeros((len(i), phase_count, d), dtype=np.complex128)
    pairs[np.arange(len(i)), :, i] = 1.0 / np.sqrt(2.0)
    pairs[np.arange(len(i)), :, j] = 1.0 / np.sqrt(2.0) * _phases(phase_count)
    haar = _haar_rows(_as_rng(seed), haar_count, d)
    return [PureState(layout, c) for c in np.concatenate([np.eye(d), pairs.reshape(-1, d), haar])]


def _phases(count: int) -> np.ndarray:
    """exp(2 pi i p / count) for p < count, each as the scalar expression gives it."""
    return np.array([np.exp(2j * np.pi * p / count) for p in range(count)], dtype=np.complex128)


def _haar_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    """n Haar-random unit vectors as rows of an (n, d) array, each bit-identical
    to the haar_vector drawn next from the same stream."""
    g = rng.standard_normal((n, 2, d))
    g = g[:, 0] + 1j * g[:, 1]
    # per-row dots in the order np.linalg.norm takes them
    re, im = g.real[:, None, :], g.imag[:, None, :]
    return g / np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))[:, 0]


# ---------------------------------------------------------------------------
# product-state extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductApprox:
    """Single-subsystem states approximating a broadcast output as a product.

    phi_a/phi_b/phi_c live on the individual output subsystems. The achieved
    fidelities are recorded against the full output state and against both
    representation images.
    """

    phi_a: PureState
    phi_b: PureState
    phi_c: PureState
    fidelity_product_abc: float
    fidelity_ab: float
    fidelity_ac: float
    primary_branch: str = "B"


def _extract(
    instance: QsbInstance, image: np.ndarray, cols: np.ndarray, primary_branch: str
) -> tuple[np.ndarray, ...]:
    """extract_product_approx for source columns (d_s, n), on raw arrays.

    image = U @ cols for the channel's _stinespring_matrix U. As an
    (A, B, C, E) tensor each column purifies that input's channel output, and
    every purification has the same marginals on A, B and C. Returns phi_a,
    phi_b, phi_c as (n, d) stacks of top eigenvectors in the eigh_desc gauge,
    then the fidelities f_abc, f_ab, f_ac per column.
    """
    if primary_branch not in ("B", "C"):
        raise InvariantViolation(f"primary_branch must be 'B' or 'C', got {primary_branch!r}")
    d_a, d_b, d_c = instance.d_a, instance.d_b, instance.d_c
    n = cols.shape[1]
    out = image.T.reshape(n, d_a, d_b, d_c, -1)
    psi_ab = (instance.v_abs.matrix @ cols).T.reshape(n, d_a, d_b)
    psi_ac = (instance.v_acs.matrix @ cols).T.reshape(n, d_a, d_c)
    # the secondary image psi_ay and the purification with (A, Y) leading
    if primary_branch == "B":
        psi_ay, out_ay = psi_ac, out.transpose(0, 1, 3, 2, 4)
    else:
        psi_ay, out_ay = psi_ab, out
    d_y, d_x = psi_ay.shape[2], out_ay.shape[3]
    # Factorise the purification against the secondary image: the partial
    # overlap is (up to norm) the best pure companion on (X, E).
    m_xe = (psi_ay.reshape(n, 1, -1).conj() @ out_ay.reshape(n, d_a * d_y, -1)).reshape(n, d_x, -1)
    nrm = np.linalg.norm(m_xe, axis=(1, 2))
    if np.count_nonzero(nrm < 1e-12):
        raise InvariantViolation(
            "purified output is orthogonal to the secondary representation image"
        )
    m_xe = m_xe / nrm[:, None, None]
    # marginals on A, X and Y as M M^H, zero-padded into one eigh_desc stack
    dims = (d_a, d_x, d_y)
    marg = np.zeros((3, n, max(dims), max(dims)), dtype=np.complex128)
    for k, mat in enumerate((psi_ay, m_xe, psi_ay.swapaxes(1, 2))):
        marg[k, :, : dims[k], : dims[k]] = mat @ mat.conj().swapaxes(1, 2)
    top = eigh_desc(marg)[1][..., 0]
    phi_a, phi_x, phi_y = (top[k, :, : dims[k]] for k in range(3))
    phi_b, phi_c = (phi_x, phi_y) if primary_branch == "B" else (phi_y, phi_x)

    prod = (phi_a[:, :, None, None] * phi_b[:, None, :, None] * phi_c[:, None, None, :]).reshape(n, 1, -1)
    w = prod.conj() @ out.reshape(n, d_a * d_b * d_c, -1)
    f_abc = (w.real**2 + w.imag**2).sum(axis=(1, 2))
    f_ab, f_ac = (
        np.abs(((phi_a[:, :, None] * phi[:, None, :]).conj() * psi).sum(axis=(1, 2))) ** 2
        for phi, psi in ((phi_b, psi_ab), (phi_c, psi_ac))
    )
    return phi_a, phi_b, phi_c, np.minimum(f_abc, 1.0), np.minimum(f_ab, 1.0), np.minimum(f_ac, 1.0)


def extract_product_approx(
    instance: QsbInstance, psi: PureState, primary_branch: str = "B"
) -> ProductApprox:
    """Pull near-product structure out of one broadcast output.

    phi_a and the secondary receiver's state are top eigenvectors of the
    marginals of the secondary representation image; the primary receiver's
    state comes from factorising the channel's Stinespring image U|psi>, a
    purification of its output, against that image. primary_branch chooses
    which of the two private subsystems gets the purification route (the
    bound there is tighter).
    """
    if psi.layout != instance.source_layout:
        raise LayoutMismatch("input does not live on the source layout")
    col = psi.amplitudes.reshape(-1, 1)
    *phis, f_abc, f_ab, f_ac = _extract(
        instance, _stinespring_matrix(instance.channel) @ col, col, primary_branch
    )
    subs = instance.channel.output_layout.subsystems
    phi_a, phi_b, phi_c = (PureState(SpaceLayout([sub]), v[0]) for sub, v in zip(subs, phis))
    return ProductApprox(
        phi_a=phi_a,
        phi_b=phi_b,
        phi_c=phi_c,
        fidelity_product_abc=float(f_abc[0]),
        fidelity_ab=float(f_ab[0]),
        fidelity_ac=float(f_ac[0]),
        primary_branch=primary_branch,
    )


def product_floors(eps: float, primary_branch: str = "B") -> dict[str, float]:
    """Extraction guarantees at deficit eps, before clamping.

    The purification-route receiver keeps 1 - 2*sqrt(eps); the direct-route
    receiver and the full product keep 1 - 3.4*eps^(1/8) and 1 - 3*eps^(1/8).
    """
    if not 0.0 < eps <= 1.0:
        raise BadEpsilon(f"eps = {eps} outside (0, 1]")
    tight = 1.0 - 2.0 * math.sqrt(eps)
    loose = 1.0 - 3.4 * eps ** 0.125
    product = 1.0 - 3.0 * eps ** 0.125
    if primary_branch == "B":
        return {"floor_ab": tight, "floor_ac": loose, "floor_abc": product}
    return {"floor_ab": loose, "floor_ac": tight, "floor_abc": product}


# ---------------------------------------------------------------------------
# overlap geometry
# ---------------------------------------------------------------------------


def overlap_lower_bound(m: int, d: int) -> float:
    """Any m unit vectors in dim d < m contain a pair with overlap above this.

    The bound sqrt((m-d)/(d(m-1))) comes from Tr[rho^2] >= 1/d for the
    uniform mixture of the vectors; below is the witness scan that finds
    the pair.
    """
    if m < 1 or d < 1:
        raise InvariantViolation(f"need positive counts, got m={m}, d={d}")
    if m <= d:
        raise BoundVacuous(f"{m} vectors fit orthogonally in dim {d}")
    return math.sqrt((m - d) / (d * (m - 1.0)))


def max_overlap_pair(vectors: Sequence[PureState]) -> tuple[tuple[int, int], float]:
    """Exhaustive scan for the largest pairwise overlap |<phi_i|phi_j>|."""
    vecs = list(vectors)
    if len(vecs) < 2:
        raise EmptyInput("need at least two vectors to compare")
    lay = vecs[0].layout
    for v in vecs[1:]:
        if v.layout != lay:
            raise LayoutMismatch("all vectors must share one layout")
    best = (0, 1)
    best_val = -1.0
    for i in range(len(vecs)):
        for j in range(i + 1, len(vecs)):
            val = abs(vecs[i].overlap(vecs[j]))
            if val > best_val:
                best_val = val
                best = (i, j)
    m, d = len(vecs), lay.total_dim
    if m > d:
        bound = overlap_lower_bound(m, d)
        if best_val < bound - 1e-12:
            raise InvariantViolation(
                f"max overlap {best_val} below the guaranteed {bound}; "
                "this indicates a numerical defect"
            )
    return best, float(best_val)


def gram_schmidt_residual(phi1: PureState, phi2: PureState, theta: float) -> PureState:
    """Normalised component of phi2 orthogonal to phi1, rotated by exp(i theta)."""
    if phi1.layout != phi2.layout:
        raise LayoutMismatch("residual needs a common layout")
    c = phi1.overlap(phi2)
    if abs(c) >= 1.0 - 1e-9:
        raise DegenerateResidual(f"vectors nearly parallel (overlap {abs(c)})")
    res = phi2.amplitudes - c * phi1.amplitudes
    res = res / np.linalg.norm(res)
    return PureState(phi1.layout, np.exp(1j * theta) * res)


def lambda_max_rank2(alpha: complex, beta: complex, f12: float) -> float:
    """Top eigenvalue of |a|^2 P1 + |b|^2 P2 when F(phi1;phi2) = f12.

    Closed form (1 + sqrt(1 - 4|ab|^2(1-f12)))/2; the mixture lives in the
    two-dimensional span so the determinant fixes both eigenvalues.
    """
    a2 = abs(alpha) ** 2
    b2 = abs(beta) ** 2
    if abs(a2 + b2 - 1.0) > 1e-9:
        raise BadAmplitudes(f"|alpha|^2 + |beta|^2 = {a2 + b2} must be 1")
    if not -1e-12 <= f12 <= 1.0 + 1e-12:
        raise BadAmplitudes(f"f12 = {f12} outside [0, 1]")
    f12 = min(max(f12, 0.0), 1.0)
    # (a2-b2)^2 + 4 a2 b2 f12 equals 1 - 4 a2 b2 (1-f12) on the simplex but
    # has no cancellation, so the sqrt stays accurate near the balanced point.
    disc = (a2 - b2) ** 2 + 4.0 * a2 * b2 * f12
    return 0.5 * (a2 + b2 + math.sqrt(disc))


# ---------------------------------------------------------------------------
# qubit cloning baseline
# ---------------------------------------------------------------------------


def _cloner_isometry() -> np.ndarray:
    """Symmetric universal qubit copier, source -> (copy1, copy2, ancilla)."""
    v = np.zeros((8, 2), dtype=np.complex128)
    s23 = math.sqrt(2.0 / 3.0)
    s16 = math.sqrt(1.0 / 6.0)
    # |0> -> s23|000> + s16(|011> + |101>);  |1> -> s23|111> + s16(|010> + |100>)
    v[0b000, 0] = s23
    v[0b011, 0] = s16
    v[0b101, 0] = s16
    v[0b111, 1] = s23
    v[0b010, 1] = s16
    v[0b100, 1] = s16
    return v


def cloner_baseline(psi: PureState) -> tuple[DensityMatrix, DensityMatrix]:
    """Marginals of the optimal symmetric universal cloner on a qubit.

    Both outputs are returned on the input's own layout so their fidelity
    against |psi> can be read off directly; it equals 5/6 for every input.
    """
    if psi.layout.total_dim != 2:
        raise BadDim("cloning baseline is defined for qubit inputs")
    t = (_cloner_isometry() @ psi.amplitudes).reshape(2, 2, 2)
    rho_b = np.einsum("bca,dca->bd", t, t.conj())
    rho_c = np.einsum("bca,bda->cd", t, t.conj())
    return (
        DensityMatrix(psi.layout, rho_b),
        DensityMatrix(psi.layout, rho_c),
    )


# ---------------------------------------------------------------------------
# deficit chain
# ---------------------------------------------------------------------------


def epsilon_threshold(d_a: int) -> tuple[float, float, float]:
    """Deficit below which broadcasting at d_S > d_A is ruled out.

    Two candidates: a fixed ceiling from pushing the chain floors past the
    cloning value, and a dimension-dependent admissibility ceiling. The
    threshold is their minimum; returns (threshold, fixed, dimensional).
    """
    if d_a < 1:
        raise InvariantViolation(f"d_a = {d_a} must be >= 1")
    fixed = 0.6e-175
    dimensional = 2.4e-14 / float(d_a) ** 8
    return min(fixed, dimensional), fixed, dimensional


def _collapse(*terms: tuple[float, float]) -> tuple[float, float]:
    """Upper-bound a sum of c*eps^e terms by one term at the weakest exponent."""
    return (sum(c for c, _ in terms), min(e for _, e in terms))


def _root_term(term: tuple[float, float]) -> tuple[float, float]:
    c, e = term
    return (math.sqrt(c), e / 2.0)


def asymptotic_ladder() -> dict[str, tuple[float, float]]:
    """Leading (coefficient, exponent) form of every chain constant.

    Each constant is a nested expression in eps; collapsing all terms onto
    the weakest exponent (valid for eps <= 1) gives the single-power form
    quoted alongside the exact values.
    """
    pb = (2.0, 1.0 / 2.0)
    pc = (3.4, 1.0 / 8.0)

    def dprime(p):
        return _collapse((2.0 * math.sqrt(p[0]), p[1] / 2.0), p)

    def tprime(p, d):
        return _collapse((3.0 * math.sqrt(p[0]), p[1] / 2.0), _root_term(d), d)

    dpb = dprime(pb)
    dpc = dprime(pc)
    tpb = tprime(pb, dpb)
    tpc = tprime(pc, dpc)
    shared = _collapse(
        (4.0 * math.sqrt(pb[0]), pb[1] / 2.0),
        (4.0 * math.sqrt(tpb[0]), tpb[1] / 2.0),
    )

    def iv(t):
        inner = _collapse(_root_term(t), _root_term(shared))
        return _collapse((1.0, 1.0 / 2.0), _root_term(inner))

    return {
        "eps_prime_b": pb,
        "eps_prime_c": pc,
        "eps_dprime_b": dpb,
        "eps_dprime_c": dpc,
        "eps_tprime_b": tpb,
        "eps_tprime_c": tpc,
        "shared_closeness": shared,
        "eps_iv_b": iv(tpb),
        "eps_iv_c": iv(tpc),
    }


@dataclass(frozen=True)
class EpsilonChainReport:
    """Constants and verified inequalities of the deficit chain at one eps.

    Floors are recorded unclamped in the constants and clamped inside the
    checks; a vacuous check (floor <= 0 or ceiling >= 1) is kept for the
    record but excluded from all_satisfied.
    """

    eps: float
    d_a: int
    eps_prime_b: float
    eps_prime_c: float
    eps_dprime_b: float
    eps_dprime_c: float
    eps_tprime_b: float
    eps_tprime_c: float
    eps_iv_b: float
    eps_iv_c: float
    shared_closeness_deficit: float
    eps_zero: float
    eps_zero_candidates: tuple[float, float]
    admissible_b: bool
    admissible_c: bool
    asymptotic: dict[str, tuple[float, float]] = field(repr=False)
    checks: tuple[BoundCheck, ...] = ()
    selected_pair: tuple[int, int] | None = None
    theta: dict[str, float] = field(default_factory=dict)
    residual_degenerate: tuple[str, ...] = ()
    cloning_contradiction: bool = False

    @property
    def all_satisfied(self) -> bool:
        return all(c.satisfied for c in self.checks if not c.vacuous)

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "d_a": self.d_a,
            "constants": {
                "eps_prime_b": self.eps_prime_b,
                "eps_prime_c": self.eps_prime_c,
                "eps_dprime_b": self.eps_dprime_b,
                "eps_dprime_c": self.eps_dprime_c,
                "eps_tprime_b": self.eps_tprime_b,
                "eps_tprime_c": self.eps_tprime_c,
                "eps_iv_b": self.eps_iv_b,
                "eps_iv_c": self.eps_iv_c,
                "shared_closeness_deficit": self.shared_closeness_deficit,
            },
            "eps_zero": self.eps_zero,
            "eps_zero_candidates": list(self.eps_zero_candidates),
            "admissible_b": self.admissible_b,
            "admissible_c": self.admissible_c,
            "asymptotic": {k: list(v) for k, v in self.asymptotic.items()},
            "selected_pair": list(self.selected_pair) if self.selected_pair else None,
            "theta": dict(self.theta),
            "residual_degenerate": list(self.residual_degenerate),
            "cloning_contradiction": self.cloning_contradiction,
            "all_satisfied": self.all_satisfied,
            "checks": [
                {
                    "label": c.label,
                    "lhs": c.lhs,
                    "rhs": c.rhs,
                    "slack": c.slack,
                    "satisfied": c.satisfied,
                    "vacuous": c.vacuous,
                }
                for c in self.checks
            ],
        }

    def csv_rows(self) -> list[list]:
        return [c.row() for c in self.checks]


def chain_constants(eps: float, d_a: int) -> EpsilonChainReport:
    """All deficit-chain constants at a given eps and shared dimension."""
    if not 0.0 < eps <= 1.0:
        raise BadEpsilon(f"eps = {eps} outside (0, 1]")
    if d_a < 1:
        raise InvariantViolation(f"d_a = {d_a} must be >= 1")
    ep_b = 2.0 * math.sqrt(eps)
    ep_c = 3.4 * eps ** 0.125
    edp_b = 2.0 * math.sqrt(ep_b) + ep_b
    edp_c = 2.0 * math.sqrt(ep_c) + ep_c
    etp_b = 3.0 * math.sqrt(ep_b) + math.sqrt(edp_b) + edp_b
    etp_c = 3.0 * math.sqrt(ep_c) + math.sqrt(edp_c) + edp_c
    shared = 4.0 * (math.sqrt(ep_b) + math.sqrt(etp_b))
    iv_b = 3.8 * eps ** (1.0 / 64.0)
    iv_c = 3.9 * eps ** (1.0 / 128.0)
    eps_zero, fixed, dimensional = epsilon_threshold(d_a)
    cap = 1.0 / float(d_a) ** 2
    return EpsilonChainReport(
        eps=eps,
        d_a=d_a,
        eps_prime_b=ep_b,
        eps_prime_c=ep_c,
        eps_dprime_b=edp_b,
        eps_dprime_c=edp_c,
        eps_tprime_b=etp_b,
        eps_tprime_c=etp_c,
        eps_iv_b=iv_b,
        eps_iv_c=iv_c,
        shared_closeness_deficit=shared,
        eps_zero=eps_zero,
        eps_zero_candidates=(fixed, dimensional),
        admissible_b=edp_b <= cap,
        admissible_c=edp_c <= cap,
        asymptotic=asymptotic_ladder(),
    )


def _floor_check(label: str, value: float, floor: float, enforced: bool = True) -> BoundCheck:
    clamped = min(max(floor, 0.0), 1.0)
    return BoundCheck.of(value, clamped, label=label, vacuous=floor <= 0.0 or not enforced)


def _ceiling_check(
    label: str, value: float, ceiling: float, enforced: bool = True
) -> BoundCheck:
    clamped = min(max(ceiling, 0.0), 1.0)
    return BoundCheck.of(clamped, value, label=label, vacuous=ceiling >= 1.0 or not enforced)


def _best_phase(offsets: np.ndarray, cross: np.ndarray) -> tuple[float, float]:
    """Exact maximiser over a global phase theta of the worst sample value
    min_i offsets_i + 2 Re(cross_i exp(i theta)).

    The minimum of these sinusoids peaks at one curve's own peak,
    exp(i theta) = conj(c_i) / |c_i|, or where two curves cross,
    exp(i theta) = conj(c_i - c_j) / |c_i - c_j| (x +- i sqrt(1 - x^2)) with
    x = (o_j - o_i) / (2 |c_i - c_j|) in [-1, 1]. Every candidate is evaluated
    in one pass; returns (theta in [0, 2 pi), value).
    """
    upper = np.arange(len(offsets))[:, None] < np.arange(len(offsets))
    diff = (cross[:, None] - cross)[upper]
    gap, span = (offsets - offsets[:, None])[upper], 2.0 * np.abs(diff)
    # pairs whose curves meet; identical curves (span 0) need no crossing
    meet = (span > 0.0) & (np.abs(gap) <= span)
    x = gap[meet] / span[meet]
    turn, sine = diff[meet].conj() / (0.5 * span[meet]), 1j * np.sqrt(1.0 - x * x)
    z = np.concatenate([np.exp(-1j * np.angle(cross)), turn * (x + sine), turn * (x - sine)])
    # o_i + 2 Re(c_i) cos(theta) - 2 Im(c_i) sin(theta) for every sample and candidate
    coef = np.stack([offsets, 2.0 * cross.real, -2.0 * cross.imag], axis=1)
    vals = (coef @ np.stack([np.ones(len(z)), z.real, z.imag])).min(axis=0)
    k = int(np.argmax(vals))
    # a tiny negative angle can round to exactly 2 pi under the first %
    return float(np.angle(z[k]) % (2.0 * np.pi) % (2.0 * np.pi)), float(vals[k])


def _superposition_coeffs(
    phase_count: int, extra: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """(alpha, beta) of the sampled two-level inputs: balanced with phase_count
    relative phases, then extra normalised Gaussian pairs."""
    root2 = 1.0 / math.sqrt(2.0)
    g = _haar_rows(rng, extra, 2)
    return (
        np.concatenate([np.full(phase_count, root2, dtype=np.complex128), g[:, 0]]),
        np.concatenate([root2 * _phases(phase_count), g[:, 1]]),
    )


def _check_orthonormal_basis(basis: Sequence[PureState], d_s: int) -> None:
    if len(basis) != d_s:
        raise InvariantViolation(f"basis has {len(basis)} elements for dim {d_s}")
    for i in range(d_s):
        for j in range(i, d_s):
            ov = abs(basis[i].overlap(basis[j]))
            target = 1.0 if i == j else 0.0
            if abs(ov - target) > 1e-9:
                raise InvariantViolation("supplied basis is not orthonormal")


def chain_verify(
    instance: QsbInstance,
    basis: Sequence[PureState],
    eps_hat: float,
    primary_branch: str = "B",
    phase_count: int = 8,
    extra_superpositions: int = 24,
    seed: int = 0,
    allow_trivial: bool = False,
) -> EpsilonChainReport:
    """Run the whole deficit-chain argument numerically on one instance.

    Extracts near-product structure for every basis element from the
    channel's Stinespring image, checks the pairwise-overlap ceilings,
    selects the closest shared-subsystem pair, builds the orthogonal
    residuals with exactly maximised phases, and verifies the superposition
    and copy-map floors on sampled two-level inputs. The constants are
    evaluated at the larger of eps_hat and the deficit this run itself
    measures, so every floor is a genuine consequence.
    """
    basis = list(basis)
    d_s, d_a = instance.d_s, instance.d_a
    if d_s <= d_a and not allow_trivial:
        raise ChainNotApplicable(
            f"chain needs a source ({d_s}) strictly larger than the shared part ({d_a})"
        )
    if not 0.0 <= eps_hat <= 1.0:
        raise BadEpsilon(f"eps_hat = {eps_hat} outside [0, 1]")
    _check_orthonormal_basis(basis, d_s)
    if any(b.layout != instance.source_layout for b in basis):
        raise LayoutMismatch("input does not live on the source layout")
    rng = np.random.default_rng(seed)

    u = _stinespring_matrix(instance.channel)
    basis_cols = np.stack([b.amplitudes for b in basis], axis=1)
    phi_a, phi_b, phi_c, f_abc, f_ab, f_ac = _extract(
        instance, u @ basis_cols, basis_cols, primary_branch
    )
    subs = instance.channel.output_layout.subsystems

    # Pair selection on the shared subsystem happens before any deficit
    # information is used; it only needs the extracted states.
    (k1, k2), a_overlap = max_overlap_pair([PureState(SpaceLayout(subs[:1]), v) for v in phi_a])

    # the sampled inputs alpha|k1> + beta|k2>, one per column
    al, be = _superposition_coeffs(phase_count, extra_superpositions, rng)
    sup = np.outer(basis_cols[:, k1], al) + np.outer(basis_cols[:, k2], be)
    sup /= np.linalg.norm(sup, axis=0)

    eps_run, _, _ = _deficit(instance, u, np.concatenate([basis_cols, sup], axis=1))
    eps_eff = min(max(max(eps_hat, eps_run), 1e-300), 1.0)
    consts = chain_constants(eps_eff, d_a)

    checks: list[BoundCheck] = []

    # per-element extraction floors
    floors = product_floors(eps_eff, primary_branch)
    for k in range(d_s):
        checks.append(
            _floor_check(f"product_floor_abc[{k}]", float(f_abc[k]), 1.0 - 3.0 * eps_eff ** 0.125)
        )
        checks.append(_floor_check(f"product_floor_ab[{k}]", float(f_ab[k]), floors["floor_ab"]))
        checks.append(_floor_check(f"product_floor_ac[{k}]", float(f_ac[k]), floors["floor_ac"]))

    # pairwise product-overlap ceilings, from the Gram matrices of the states
    gram_a = np.abs(phi_a.conj() @ phi_a.T)
    for branch, phis, cap in (
        ("b", phi_b, consts.eps_dprime_b),
        ("c", phi_c, consts.eps_dprime_c),
    ):
        vals = gram_a * np.abs(phis.conj() @ phis.T)
        for i in range(d_s):
            for j in range(i + 1, d_s):
                checks.append(
                    _ceiling_check(f"pair_product_overlap_{branch}[{i},{j}]", float(vals[i, j]), cap)
                )

    # Shared-pair guarantees exist only for d_s > d_a (vector crowding);
    # everything downstream of the selected pair inherits that condition.
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
            BoundCheck.of(
                a_overlap,
                overlap_lower_bound(d_s, d_a) - 1e-12,
                label="crowding_overlap_floor",
            )
        )
    checks.append(
        _floor_check(
            "shared_closeness_floor",
            a_overlap ** 2,
            1.0 - consts.shared_closeness_deficit,
            enforced=guaranteed and consts.admissible_b,
        )
    )

    # residual construction and the superposition / copy-map floors
    theta: dict[str, float] = {}
    degenerate: list[str] = []
    cloning_votes: dict[str, bool] = {}
    # channel outputs of the sampled inputs, axes (A, B, C, E, sample)
    m = sup.shape[1]
    out = (u @ sup).reshape(d_a, instance.d_b, instance.d_c, -1, m)

    for branch, axis, phis, v_rep, edp, etp, eiv, admissible in (
        ("b", 1, phi_b, instance.v_abs, consts.eps_dprime_b, consts.eps_tprime_b, consts.eps_iv_b, consts.admissible_b),
        ("c", 2, phi_c, instance.v_acs, consts.eps_dprime_c, consts.eps_tprime_c, consts.eps_iv_c, consts.admissible_c),
    ):
        cond = guaranteed and admissible
        x1, x2 = (PureState(SpaceLayout([subs[axis]]), phis[k]) for k in (k1, k2))
        checks.append(
            _ceiling_check(
                f"outer_overlap_ceiling_{branch}",
                abs(x1.overlap(x2)),
                math.sqrt(edp),
                enforced=cond,
            )
        )
        try:
            resid0 = gram_schmidt_residual(x1, x2, 0.0)
        except DegenerateResidual:
            degenerate.append(branch)
            continue

        # representation targets: alpha |phi_A1 x1> + beta |phi_A2 resid>
        t1 = np.outer(phi_a[k1], x1.amplitudes).ravel()
        t2 = np.outer(phi_a[k2], resid0.amplitudes).ravel()
        reps = v_rep.matrix @ sup
        xs = al.conj() * (t1.conj() @ reps)
        ys = be.conj() * (t2.conj() @ reps)
        offsets = np.abs(xs) ** 2 + np.abs(ys) ** 2
        cross = xs * np.conj(ys)
        th, _ = _best_phase(offsets, cross)
        theta[branch] = th
        f_sup = offsets + 2.0 * np.real(cross * np.exp(1j * th))
        for i, f in enumerate(f_sup):
            checks.append(
                _floor_check(
                    f"superposition_floor_{branch}[{i}]", float(f), 1.0 - etp, enforced=cond
                )
            )

        # copy map W: span{k1, k2} -> H_X and its floors on the marginal, from
        # <x|rho_X|y> = sum over the other axes of (x^H out) conj(y^H out)
        resid = gram_schmidt_residual(x1, x2, th)
        o = np.moveaxis(out, axis, 0).reshape(out.shape[axis], -1)
        hx = (x1.amplitudes.conj() @ o).reshape(-1, m)
        hr = (resid.amplitudes.conj() @ o).reshape(-1, m)
        rho_xx, rho_rr = ((np.abs(h) ** 2).sum(axis=0) for h in (hx, hr))
        offs = np.abs(al) ** 2 * rho_xx + np.abs(be) ** 2 * rho_rr
        crs = al.conj() * be * (hx * hr.conj()).sum(axis=0)
        thp, _ = _best_phase(offs, crs)
        theta[branch + "_prime"] = thp
        f_copy = offs + 2.0 * np.real(crs * np.exp(1j * thp))
        for i, f in enumerate(f_copy):
            checks.append(
                _floor_check(f"copy_map_floor_{branch}[{i}]", float(f), 1.0 - eiv, enforced=cond)
            )
        cloning_votes[branch] = cond and (1.0 - eiv) > CLONING_CEILING

    return replace(
        consts,
        checks=tuple(checks),
        selected_pair=(k1, k2),
        theta=theta,
        residual_degenerate=tuple(degenerate),
        cloning_contradiction=bool(cloning_votes) and all(cloning_votes.get(x, False) for x in ("b", "c")),
    )


def perturbed_perfect_instance(
    d_s: int, d_a: int, d_b: int, d_c: int, noise: float
) -> QsbInstance:
    """Perfect construction with its channel mixed toward full depolarising.

    The representation isometries stay exact; only the channel is noisy,
    so the worst-case deficit is exactly noise * (1 - 1/(d_a * max(d_b, d_c))):
    the branch holding the larger private subsystem recovers the least.
    """
    base = perfect_qsb_construct(d_s, d_a, d_b, d_c)
    dep = depolarizing_channel(base.channel.input_layout, base.channel.output_layout)
    noisy = mix(base.channel, dep, noise)
    return QsbInstance(noisy, base.v_abs, base.v_acs)
