"""Shared broadcasting of pure states into two overlapping receivers.

A broadcast instance is a channel from a source S into three subsystems
A, B, C together with two representation isometries, held as the channel's
Stinespring matrix and the two isometry matrices: receiver I reads the
pair (A, B), receiver II the pair (A, C), and each should see the source
state as the corresponding isometric image. Perfect operation is possible
exactly when the source fits inside the shared part (d_S <= d_A); the
machinery below constructs that regime, measures the worst-case fidelity
deficit everywhere else, and evaluates the chain of bounds that turns a
small deficit at d_S > d_A into a contradiction with the optimal-cloning
ceiling of 5/6.

A probe set is one complex (d_s, n) array, an input per column, from
default_probe_states to measure_eps, which validates it at that boundary; the
single-state functions take and return validated PureStates.

Both receiver fidelities come from one kernel, branch_values, as one (2, n)
stack over the n inputs, and the search's gradient from its companion
branch_grads: the channel's Stinespring matrix contracted with the two
representation isometries is a factor stack K, which meets the inputs only
through their outer products p = conj(psi) (x) psi, as f = |K p|^2. The two
forms in which both kernels take the probes are explained once, at
search_probes.

The chain reads everything else from the Stinespring image U|psi> too: as an
(A, B, C, E) tensor it already purifies the channel output, so the product
extraction takes its marginals from it directly, and the phase of each
two-level family is set by an exact max-min over closed-form candidates.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Sequence

import numpy as np

from .channels import depolarizing_channel, mix
from .errors import ChainNotApplicable, InvariantViolation, NoPerfectQsb
from .hilbert import (
    DensityMatrix,
    PureState,
    SpaceLayout,
    TOL,
    as_int,
    check_isometry,
    check_unit_columns,
    eigh_desc,
    _as_rng,
    _frozen,
    _haar_rows,
    _mat_from_json,
    _mat_to_json,
)
from .metrics import BoundCheck

# Worst-case ceiling for universal qubit cloning: no input-independent
# 1 -> 2 copier pushes both copy fidelities above this value.
CLONING_CEILING = 5.0 / 6.0

# Every constant of the deficit chain (QUANTUM SHARED BROADCASTING, arXiv
# 0710.2487), written once: the extraction deficits (c, e), c * eps^e, of B, C
# and the full product; the copy-map deficits, rounded up from their nested
# forms (asymptotic_ladder); the paper's threshold figure; and (c, k) entries
# c / d_A^k, the dimensional candidate and the selected pair's fidelity floor.
_CHAIN = {
    "eps_prime_b": (2.0, 1 / 2), "eps_prime_c": (3.4, 1 / 8), "product": (3.0, 1 / 8),
    "eps_iv_b": (3.8, 1 / 64), "eps_iv_c": (3.9, 1 / 128),
    "fixed": 0.6e-175, "dimensional": (2.4e-14, 8), "pair": (1.0, 2),
}

# The chain's arithmetic (root, add, scale) on floats, and on (c, e) terms,
# whose sum collapses onto the weakest exponent: an upper bound for eps <= 1.
_FLOATS = (math.sqrt, operator.add, operator.mul)
_TERMS = (
    lambda t: (math.sqrt(t[0]), t[1] / 2.0),
    lambda s, t: (s[0] + t[0], min(s[1], t[1])),
    lambda k, t: (k * t[0], t[1]),
)


def _deficit(key: str, eps: float) -> float:
    """_CHAIN's c * eps^e; a square root is math.sqrt, correctly rounded where ** is not."""
    c, e = _CHAIN[key]
    return c * (math.sqrt(eps) if e == 0.5 else eps ** e)


def _per_dim(key: str, d_a: int) -> float:
    """_CHAIN's c / d_a^k; past float range, the exact quotient rounded once."""
    c, k = _CHAIN[key]
    try:
        return c / float(d_a) ** k
    except OverflowError:
        num, den = c.as_integer_ratio()
        return num / (den * d_a**k)


# Largest probe matrix (float64 entries, 1 MiB) the search contracts in the
# Gram form: the form streams all of it twice per iteration, and above this
# size it measured slower than |K P|^2 (see search_probes).
GRAM_FLOATS = 2**17


@dataclass(frozen=True)
class QsbInstance:
    """A broadcast channel S -> ABC and the two representation isometries, as matrices.

    u is the channel's Stinespring matrix S -> ABCE with the environment
    last: Kraus operator e is u.reshape(d_a * d_b * d_c, d_e, d_s)[:, e].
    v_abs maps S into the (A, B) pair of output_layout and v_acs into (A, C).
    Construction checks every shape against the layouts and caps d_e at
    d_s * d_a * d_b * d_c, bounds |M^H M - 1| by TOL for all three
    matrices (for u that is the completeness of the Kraus family), and
    stores read-only copies.
    """

    source_layout: SpaceLayout
    output_layout: SpaceLayout
    u: np.ndarray = field(repr=False)
    v_abs: np.ndarray = field(repr=False)
    v_acs: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.source_layout.subsystems) != 1:
            raise InvariantViolation("channel input must be a single subsystem")
        if len(self.output_layout.subsystems) != 3:
            raise InvariantViolation("channel output must have exactly three subsystems")
        d_s, d_o = self.source_layout.total_dim, self.output_layout.total_dim
        u, vab, vac = (_frozen(m) for m in (self.u, self.v_abs, self.v_acs))
        if u.ndim != 2 or u.shape[1] != d_s or u.shape[0] % d_o:
            raise InvariantViolation(f"Stinespring shape {u.shape}, expected ({d_o} * d_e, {d_s})")
        d_e = u.shape[0] // d_o
        if d_e < 1:
            raise InvariantViolation("channel needs at least one Kraus operator")
        if d_e > d_s * d_o:
            raise InvariantViolation(
                f"{d_e} Kraus operators exceed the canonical maximum {d_s * d_o}"
            )
        d_a, d_b, d_c = (d for _, d in self.output_layout.subsystems)
        for key, m, rows in (("v_abs", vab, d_a * d_b), ("v_acs", vac, d_a * d_c)):
            if m.shape != (rows, d_s):
                raise InvariantViolation(f"{key} shape {m.shape}, expected {(rows, d_s)}")
        for what, m in (("completeness", u), ("isometry of v_abs", vab), ("isometry of v_acs", vac)):
            check_isometry(m, what)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v_abs", vab)
        object.__setattr__(self, "v_acs", vac)

    @property
    def d_s(self) -> int:
        return self.source_layout.total_dim

    @property
    def d_a(self) -> int:
        return self.output_layout.subsystems[0][1]

    @property
    def d_b(self) -> int:
        return self.output_layout.subsystems[1][1]

    @property
    def d_c(self) -> int:
        return self.output_layout.subsystems[2][1]

    @property
    def d_e(self) -> int:
        return self.u.shape[0] // self.output_layout.total_dim

    def _pairs(self) -> dict[str, tuple]:
        """The output pair each representation lands on, by field name."""
        a, b, c = self.output_layout.subsystems
        return {"v_abs": (a, b), "v_acs": (a, c)}

    def to_json(self) -> dict:
        """The instance file: the channel as its Kraus list, each representation
        with its own in/out layouts."""
        ops = self.u.reshape(-1, self.d_e, self.d_s).swapaxes(0, 1)
        data = {
            "in": self.source_layout.to_json(),
            "out": self.output_layout.to_json(),
            "kraus": [_mat_to_json(k) for k in ops],
        }
        for key, pair in self._pairs().items():
            data[key] = {
                "in": self.source_layout.to_json(),
                "out": SpaceLayout(pair).to_json(),
                "matrix": _mat_to_json(getattr(self, key)),
            }
        return data

    @classmethod
    def from_stinespring(
        cls, u: np.ndarray, vab: np.ndarray, vac: np.ndarray, d_a: int, d_b: int, d_c: int
    ) -> "QsbInstance":
        """The instance on source S and outputs (A, B, C) with these matrices."""
        abc = SpaceLayout([("A", d_a), ("B", d_b), ("C", d_c)])
        return cls(SpaceLayout([("S", u.shape[1])]), abc, u, vab, vac)

    @classmethod
    def from_json(cls, data: dict) -> "QsbInstance":
        """Inverse of to_json; each representation's in/out layouts must be
        the source and its output pair."""
        source, output = SpaceLayout(data["in"]), SpaceLayout(data["out"])
        kraus = data["kraus"]
        # a JSON object would iterate as its keys, so only an array is read
        if not isinstance(kraus, list):
            raise TypeError("kraus is not a JSON array")
        ops = [_mat_from_json(k) for k in kraus]
        shape = (output.total_dim, source.total_dim)
        for k in ops:
            if k.shape != shape:
                raise InvariantViolation(f"Kraus shape {k.shape}, expected {shape}")
        u = np.array(ops, dtype=np.complex128).reshape(-1, *shape).swapaxes(0, 1)
        vab, vac = (_mat_from_json(data[key]["matrix"]) for key in ("v_abs", "v_acs"))
        inst = cls(source, output, u.reshape(-1, shape[1]), vab, vac)
        for key, pair in inst._pairs().items():
            rep = data[key]
            if SpaceLayout(rep["in"]) != source or SpaceLayout(rep["out"]).subsystems != pair:
                labels = [lbl for lbl, _ in pair]
                raise InvariantViolation(f"{key} must map the source into the output pair {labels}")
        return inst


def split_clone_construct(d_s: int, d_a: int, d_prime: int) -> QsbInstance:
    """Split-and-clone as a (d_s, d_a, d_prime, d_prime) instance with d_E = d_prime.

    S embeds into A (x) S' as its first d_s basis vectors, A stays shared, and
    Werner's optimal symmetric 1 -> 2 cloner W copies S' into B and C
    (Werner, PRA 58, 1827 (1998)); V_AB = V_AC = the embedding. Each branch
    reads at least eta + (1 - eta)/(d' min(d_a, d')), eta = (d'+2)/(2(d'+1)).
    """
    d_s, d_a, d_p = map(as_int, (d_s, d_a, d_prime), ("d_s", "d_a", "d_prime"), (1,) * 3)
    if d_a * d_p < d_s:
        raise InvariantViolation(f"A (x) S' of dim {d_a} * {d_p} cannot hold a source of dim {d_s}")
    emb = np.eye(d_a * d_p, d_s, dtype=np.complex128)
    # W|i> = sqrt(2/(d'+1)) sum_j Sym(|i>|j>) (x) |j>_E, and Sym[b, c, i, j] =
    # (delta_bi delta_cj + delta_bj delta_ci) / 2 is symmetric in (i, j), so it
    # is already W's [b, c, e, i] tensor up to the scale
    t = np.eye(d_p * d_p, dtype=np.complex128).reshape(d_p, d_p, d_p, d_p)
    w = math.sqrt(2.0 / (d_p + 1)) * (0.5 * (t + t.transpose(0, 1, 3, 2)))
    u = np.einsum("bcet,ats->abces", w, emb.reshape(d_a, d_p, d_s)).reshape(-1, d_s)
    return QsbInstance.from_stinespring(u, emb, emb, d_a, d_p, d_p)


def _embed_params(inst: QsbInstance, dims4: tuple[int, int, int, int]) -> tuple[np.ndarray, ...]:
    """An instance's matrices zero-padded to dims4 = (d_a, d_b, d_c, d_e), each
    at least the instance's own: orthonormal columns and the same action."""
    d_s, (a0, b0, c0, e0) = inst.d_s, (inst.d_a, inst.d_b, inst.d_c, inst.d_e)
    u = np.zeros((*dims4, d_s), dtype=np.complex128)
    u[:a0, :b0, :c0, :e0] = inst.u.reshape(a0, b0, c0, e0, d_s)
    vab, vac = (np.zeros((dims4[0], d, d_s), dtype=np.complex128) for d in dims4[1:3])
    vab[:a0, :b0] = inst.v_abs.reshape(a0, b0, d_s)
    vac[:a0, :c0] = inst.v_acs.reshape(a0, c0, d_s)
    return u.reshape(-1, d_s), vab.reshape(-1, d_s), vac.reshape(-1, d_s)


def perfect_qsb_construct(d_s: int, d_a: int, d_b: int, d_c: int) -> QsbInstance:
    """Exact broadcast for d_s <= d_a: split_clone_construct(d_s, d_a, 1) embeds
    the source into the shared subsystem, and zero-padded into (d_b, d_c) it parks
    both private subsystems in their ground states. Both receivers read one."""
    d_s, d_a, d_b, d_c = map(as_int, (d_s, d_a, d_b, d_c), ("d_s", "d_a", "d_b", "d_c"), (1,) * 4)
    if d_s > d_a:
        raise NoPerfectQsb(
            f"source dim {d_s} exceeds shared dim {d_a}: perfect shared "
            "broadcasting needs the source to fit in the shared subsystem"
        )
    base = split_clone_construct(d_s, d_a, 1)
    return QsbInstance.from_stinespring(*_embed_params(base, (d_a, d_b, d_c, 1)), d_a, d_b, d_c)


def werner_cloner_construct(d: int) -> QsbInstance:
    """Werner's optimal symmetric 1 -> 2 cloner, split_clone_construct(d, 1, d).

    Both receivers read (d+3)/(2(d+1)) on every input, the largest value a
    universal 1 -> 2 cloner reaches; at d = 2 it is the Buzek-Hillery copier, 5/6.
    """
    d = as_int(d, "d", 1)
    return split_clone_construct(d, 1, d)


def _outer_columns(cols: np.ndarray) -> np.ndarray:
    """P[s' * d_s + s, n] = conj(cols[s', n]) cols[s, n] for source columns (d_s, n)."""
    d_s, n = cols.shape
    return (cols.conj()[:, None, :] * cols[None, :, :]).reshape(d_s * d_s, n)


def probe_matrix(cols: np.ndarray) -> np.ndarray:
    """Real (n, 2 d_s^4) matrix whose row n is the float view of p p^H, where
    p = conj(cols[:, n]) (x) cols[:, n] is column n of the outer products."""
    p = np.ascontiguousarray(_outer_columns(cols).T)
    n, d2 = p.shape
    return (p[:, :, None] * p.conj()[:, None, :]).reshape(n, d2 * d2).view(np.float64)


def search_probes(cols: np.ndarray) -> np.ndarray:
    """The probe operand a search hands branch_values for source columns (d_s, n).

    branch_values and branch_grads read two operand forms, told apart by dtype.
    The complex (d_s^2, n) outer products P, p = conj(psi) (x) psi, give
    f = |K P|^2 and the gradient's A = sum_n w[n] p_n p_n^H as (P w) P^H;
    measure_eps and chain_verify, which evaluate their probes once, use P. The
    real (n, 2 d_s^4) probe_matrix F of the p p^H gives f[n] = p^H H p =
    Re <H, p p^H>, H = K^H K, as one real product of H's float view with F,
    and A as w @ F viewed complex. F trades |K P|^2's n * R * d_s^2 complex
    products, R = max(d_b, d_c) * d_e, for building H (R * d_s^4) and
    streaming F twice per iteration; it costs n * d_s^4 to build, so only a
    search hands it in, where it pays: at least d_s^2 probes to amortise H,
    and F within GRAM_FLOATS, which holds the default probes up to d_s = 4.
    """
    d_s, n = cols.shape
    if n >= d_s * d_s and n * 2 * d_s**4 <= GRAM_FLOATS:
        return probe_matrix(cols)
    return _outer_columns(cols)


def branch_values(
    u: np.ndarray,
    vab: np.ndarray,
    vac: np.ndarray,
    probes: np.ndarray,
    dims4: tuple[int, int, int, int],
):
    """Both receiver fidelities as one (2, n) stack, and the factor tuple branch_grads reads.

    u is a Stinespring matrix S -> ABCE (environment last), vab/vac the
    representation matrices. K_B[ce, s s'] = sum_ab conj(U[abce, s]) V_AB[ab, s']
    maps p = conj(psi) (x) psi to the conjugated overlaps of V_AB psi with
    U psi over AB, so f_AB = |K_B p|^2; K_C swaps U's B and C axes. Each is
    one product with a transposed view of conj(U), written into one
    zero-padded (2, max(d_b, d_c) * d_e, d_s^2) stack K whose zero rows add
    nothing to either contraction. probes is either operand form of
    search_probes.
    """
    d_a, d_b, d_c, d_e = dims4
    d_s = vab.shape[1]
    uc = u.conj()
    uc_c = uc.reshape(d_a, d_b, d_c, -1).transpose(0, 2, 1, 3).reshape(d_a * d_c, -1)
    k = np.zeros((2, max(d_b, d_c) * d_e * d_s, d_s), dtype=np.complex128)
    np.matmul(uc.reshape(d_a * d_b, -1).T, vab, out=k[0, : d_c * d_e * d_s])
    np.matmul(uc_c.T, vac, out=k[1, : d_b * d_e * d_s])
    k = k.reshape(2, -1, d_s * d_s)
    if probes.dtype == np.float64:
        h = k.conj().swapaxes(1, 2) @ k
        f = np.dot(h.reshape(2, -1).view(np.float64), probes.T)
    else:
        w = (k.reshape(-1, d_s * d_s) @ probes).view(np.float64)
        np.square(w, out=w)
        f = w.reshape(2, -1, 2 * probes.shape[1]).sum(axis=1)
        f = f[:, 0::2] + f[:, 1::2]
    return f, (k, u, uc_c, vab, vac, probes, dims4)


def branch_grads(cached: tuple, w: np.ndarray, out: tuple[np.ndarray, ...]) -> None:
    """Gradients of sum_n w[0, n] f_ab[n] + w[1, n] f_ac[n] w.r.t. conj(U, V_AB, V_AC).

    cached is the factor tuple branch_values returned for the point, and out
    holds three C-contiguous arrays of U's, V_AB's and V_AC's shapes, which
    receive the gradients. With A = sum_n w[n] p_n p_n^H per branch, read from the probe
    operand (search_probes), one product gives both branches' G = K A as
    [ce s, s'] matrices. As K_B is conj(U_B)^T V_AB for U_B = U[ab, ce s],
    g_U = V_AB conj(G_B)^T and g_VAB = U_B G_B; C's terms add likewise, with
    U's B and C axes swapped.
    """
    k, u, uc_c, vab, vac, probes, (d_a, d_b, d_c, d_e) = cached
    g_u, g_vab, g_vac = out
    d_s = vab.shape[1]
    if probes.dtype == np.float64:
        a = np.dot(w, probes).view(np.complex128).reshape(2, d_s * d_s, d_s * d_s)
    else:
        a = (probes * w[:, None, :]) @ probes.conj().T
    gk = (k @ a).reshape(2, -1, d_s)
    gh = gk.conj().swapaxes(1, 2)
    rb, rc = d_c * d_e * d_s, d_b * d_e * d_s
    np.matmul(vab, gh[0, :, :rb], out=g_u.reshape(d_a * d_b, -1))
    g_u = g_u.reshape(d_a, d_b, d_c, -1)
    g_u += np.dot(vac, gh[1, :, :rc]).reshape(d_a, d_c, d_b, -1).transpose(0, 2, 1, 3)
    np.matmul(u.reshape(d_a * d_b, -1), gk[0, :rb], out=g_vab)
    np.conjugate(np.dot(uc_c, gh[1, :, :rc].T), out=g_vac)


def measure_eps(instance: QsbInstance, cols: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest fidelity deficit over the probe columns cols (d_s, n), each a
    unit vector to TOL (check_unit_columns), and both receiver fidelities
    per column, clipped to [0, 1].

    The fidelities come from branch_values on the instance's matrices, the
    kernel the search maximises, so a searched instance re-measures to its
    in-search value up to roundoff. The result is a lower estimate of the true worst-case deficit: it only
    sees the states it is given, such as default_probe_states.
    """
    cols = np.ascontiguousarray(cols, dtype=np.complex128)
    if cols.size == 0:
        raise InvariantViolation("measure_eps needs at least one probe state")
    if cols.ndim != 2 or cols.shape[0] != instance.d_s:
        raise InvariantViolation(f"probe array of shape {cols.shape}, expected ({instance.d_s}, n)")
    check_unit_columns(cols)
    dims4 = (instance.d_a, instance.d_b, instance.d_c, instance.d_e)
    f, _ = branch_values(instance.u, instance.v_abs, instance.v_acs, _outer_columns(cols), dims4)
    f = np.clip(f, 0.0, 1.0)
    return max(1.0 - float(f.min()), 0.0), f[0], f[1]


@functools.lru_cache(maxsize=8)
def _pairs(m: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(m, 1), the pairs i < j in row order, built once per m and read-only."""
    i, j = np.triu_indices(m, 1)
    i.flags.writeable = j.flags.writeable = False
    return i, j


def default_probe_states(
    d_s: int | SpaceLayout,
    seed: int | np.random.Generator,
    haar_count: int = 200,
    phase_count: int = 8,
) -> np.ndarray | list[PureState]:
    """Probe family as the columns of a (d_s, n) array: basis, balanced
    two-level superpositions, Haar samples.

    The balanced states run over all index pairs with phase_count relative
    phases; they catch coherence loss the basis alone cannot see. Each Haar
    sample is bit-identical to random_pure's from the same rng stream. The
    seed-free columns come from a per-shape cache (_fixed_probe_columns); the
    array returned is always a fresh, writable one. Given a layout in place
    of d_s, the same set comes back as PureStates on it, the form
    bench/tests/test_bench_oracle.py still reads.
    """
    if isinstance(d_s, SpaceLayout):
        cols = default_probe_states(d_s.total_dim, seed, haar_count, phase_count)
        return [PureState(d_s, c) for c in cols.T]
    names = ("d_s", "haar_count", "phase_count")
    d_s, haar_count, phase_count = map(as_int, (d_s, haar_count, phase_count), names, (1, 0, 0))
    haar = _haar_rows(_as_rng(seed), haar_count, d_s)
    return np.concatenate([_fixed_probe_columns(d_s, phase_count), haar.T], axis=1)


@functools.lru_cache(maxsize=4)
def _fixed_probe_columns(d_s: int, phase_count: int) -> np.ndarray:
    """The seed-free head of default_probe_states: the basis, then every pair
    i < j at each relative phase, built once per shape and read-only."""
    # each relative phase exp(2 pi i p / phase_count) as the scalar expression gives it
    phases = np.array([np.exp(2j * np.pi * p / phase_count) for p in range(phase_count)])
    i, j = _pairs(d_s)
    pairs = np.zeros((len(i), phase_count, d_s), dtype=np.complex128)
    pairs[np.arange(len(i)), :, i] = 1.0 / np.sqrt(2.0)
    pairs[np.arange(len(i)), :, j] = 1.0 / np.sqrt(2.0) * phases
    cols = np.concatenate([np.eye(d_s), pairs.reshape(-1, d_s).T], axis=1)
    cols.flags.writeable = False
    return cols


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


def _extract(instance: QsbInstance, cols: np.ndarray) -> tuple[np.ndarray, ...]:
    """extract_product_approx for source columns (d_s, n), on raw arrays.

    As an (A, B, C, E) tensor each column of the Stinespring image U @ cols
    purifies that input's channel output, and every purification has the
    same marginals on A, B and C. Returns phi_a, phi_b, phi_c as (n, d)
    stacks of top eigenvectors in the eigh_desc gauge, then the fidelities
    f_abc, f_ab, f_ac per column.
    """
    d_a, d_b, d_c = instance.d_a, instance.d_b, instance.d_c
    n = cols.shape[1]
    out = (instance.u @ cols).T.reshape(n, d_a, d_b, d_c, -1)
    psi_ab = (instance.v_abs @ cols).T.reshape(n, d_a, d_b)
    psi_ac = (instance.v_acs @ cols).T.reshape(n, d_a, d_c)
    # Factorise the purification, (A, C) leading, against the secondary image
    # psi_ac: the partial overlap is (up to norm) the best pure companion on (B, E).
    out_ac = out.transpose(0, 1, 3, 2, 4).reshape(n, d_a * d_c, -1)
    m_be = (psi_ac.reshape(n, 1, -1).conj() @ out_ac).reshape(n, d_b, -1)
    nrm = np.linalg.norm(m_be, axis=(1, 2))
    if np.count_nonzero(nrm < 1e-12):
        raise InvariantViolation(
            "purified output is orthogonal to the secondary representation image"
        )
    m_be = m_be / nrm[:, None, None]
    # marginals on A, B and C as M M^H, zero-padded into one eigh_desc stack
    dims = (d_a, d_b, d_c)
    marg = np.zeros((3, n, max(dims), max(dims)), dtype=np.complex128)
    for k, mat in enumerate((psi_ac, m_be, psi_ac.swapaxes(1, 2))):
        marg[k, :, : dims[k], : dims[k]] = mat @ mat.conj().swapaxes(1, 2)
    top = eigh_desc((marg + marg.conj().swapaxes(-1, -2)) / 2.0)[1][..., 0]
    phi_a, phi_b, phi_c = (top[k, :, : dims[k]] for k in range(3))

    prod = (phi_a[:, :, None, None] * phi_b[:, None, :, None] * phi_c[:, None, None, :]).reshape(n, 1, -1)
    w = prod.conj() @ out.reshape(n, d_a * d_b * d_c, -1)
    f_abc = (w.real**2 + w.imag**2).sum(axis=(1, 2))
    f_ab, f_ac = (
        np.abs(((phi_a[:, :, None] * phi[:, None, :]).conj() * psi).sum(axis=(1, 2))) ** 2
        for phi, psi in ((phi_b, psi_ab), (phi_c, psi_ac))
    )
    return phi_a, phi_b, phi_c, np.minimum(f_abc, 1.0), np.minimum(f_ab, 1.0), np.minimum(f_ac, 1.0)


def extract_product_approx(instance: QsbInstance, psi: PureState) -> ProductApprox:
    """Pull near-product structure out of one broadcast output.

    phi_a and phi_c are top eigenvectors of the marginals of the secondary
    representation image V_AC|psi>; phi_b comes from factorising the
    channel's Stinespring image U|psi>, a purification of its output, against
    that image. B, the primary receiver, gets this purification route and
    the tighter bound. To make C primary, run on the instance with B and C
    swapped: relabel the private outputs and exchange V_AB and V_AC.
    """
    if psi.layout != instance.source_layout:
        raise InvariantViolation("input does not live on the source layout")
    col = psi.amplitudes.reshape(-1, 1)
    *phis, f_abc, f_ab, f_ac = _extract(instance, col)
    subs = instance.output_layout.subsystems
    phi_a, phi_b, phi_c = (PureState(SpaceLayout([sub]), v[0]) for sub, v in zip(subs, phis))
    return ProductApprox(
        phi_a=phi_a,
        phi_b=phi_b,
        phi_c=phi_c,
        fidelity_product_abc=float(f_abc[0]),
        fidelity_ab=float(f_ab[0]),
        fidelity_ac=float(f_ac[0]),
    )


def product_floors(eps: float) -> dict[str, float]:
    """Extraction guarantees at deficit eps, before clamping.

    B, the purification-route receiver, keeps 1 - eps'_b; C, the
    direct-route receiver, and the full product keep 1 - eps'_c and one minus
    the product deficit, all from _CHAIN.
    """
    if not 0.0 < eps <= 1.0:
        raise InvariantViolation(f"eps = {eps} outside (0, 1]")
    return {
        "floor_ab": 1.0 - _deficit("eps_prime_b", eps),
        "floor_ac": 1.0 - _deficit("eps_prime_c", eps),
        "floor_abc": 1.0 - _deficit("product", eps),
    }


# ---------------------------------------------------------------------------
# overlap geometry
# ---------------------------------------------------------------------------

_CROWDING_SLACK = 1e-12  # how far rounding may put a computed largest overlap below overlap_lower_bound


def overlap_lower_bound(m: int, d: int) -> float:
    """Any m unit vectors in dim d < m contain a pair with overlap above this.

    The bound sqrt((m-d)/(d(m-1))) comes from Tr[rho^2] >= 1/d for the
    uniform mixture of the vectors; below is the witness scan that finds
    the pair.
    """
    m, d = as_int(m, "m", 1), as_int(d, "d", 1)
    if m <= d:
        raise InvariantViolation(f"{m} vectors fit orthogonally in dim {d}")
    return math.sqrt((m - d) / (d * (m - 1.0)))


def _closest_pair(overlaps: np.ndarray, d: int) -> tuple[tuple[int, int], float]:
    """The pair i < j with the largest overlaps[i, j] = |<phi_i|phi_j>|, the first
    in row order on a tie, for m vectors in dim d.

    For m > d the value must reach overlap_lower_bound(m, d); falling short
    is a numerical defect and raises.
    """
    m = overlaps.shape[0]
    i, j = _pairs(m)
    k = int(np.argmax(overlaps[i, j]))
    best = float(overlaps[i[k], j[k]])
    if m > d:
        bound = overlap_lower_bound(m, d)
        if best < bound - _CROWDING_SLACK:
            raise InvariantViolation(
                f"max overlap {best} below the guaranteed {bound}; "
                "this indicates a numerical defect"
            )
    return (int(i[k]), int(j[k])), best


def max_overlap_pair(vectors: Sequence[PureState]) -> tuple[tuple[int, int], float]:
    """Exhaustive scan for the largest pairwise overlap |<phi_i|phi_j>|."""
    vecs = list(vectors)
    if len(vecs) < 2:
        raise InvariantViolation("need at least two vectors to compare")
    lay = vecs[0].layout
    for v in vecs[1:]:
        if v.layout != lay:
            raise InvariantViolation("all vectors must share one layout")
    rows = np.stack([v.amplitudes for v in vecs])
    return _closest_pair(np.abs(rows.conj() @ rows.T), lay.total_dim)


def lambda_max_rank2(alpha: complex, beta: complex, f12: float) -> float:
    """Top eigenvalue of |a|^2 P1 + |b|^2 P2 when F(phi1;phi2) = f12.

    Closed form (1 + sqrt(1 - 4|ab|^2(1-f12)))/2; the mixture lives in the
    two-dimensional span so the determinant fixes both eigenvalues.
    """
    a2 = abs(alpha) ** 2
    b2 = abs(beta) ** 2
    # "not within tolerance", so a NaN fails it
    if not abs(a2 + b2 - 1.0) <= TOL:
        raise InvariantViolation(f"|alpha|^2 + |beta|^2 = {a2 + b2} must be 1")
    if not -1e-12 <= f12 <= 1.0 + 1e-12:
        raise InvariantViolation(f"f12 = {f12} outside [0, 1]")
    f12 = min(max(f12, 0.0), 1.0)
    # (a2-b2)^2 + 4 a2 b2 f12 equals 1 - 4 a2 b2 (1-f12) on the simplex but
    # has no cancellation, so the sqrt stays accurate near the balanced point.
    disc = (a2 - b2) ** 2 + 4.0 * a2 * b2 * f12
    return 0.5 * (a2 + b2 + math.sqrt(disc))


# ---------------------------------------------------------------------------
# cloning baseline
# ---------------------------------------------------------------------------


def cloner_baseline(psi: PureState) -> tuple[DensityMatrix, DensityMatrix]:
    """Both copies of Werner's optimal symmetric cloner on psi.

    The marginals on B and C are read from werner_cloner_construct's
    Stinespring image U|psi> and returned on the input's own layout, so their
    fidelity against |psi> can be read off directly; it equals
    (d+3)/(2(d+1)) for every input of dimension d, 5/6 for a qubit.
    """
    d = psi.layout.total_dim
    inst = werner_cloner_construct(d)
    t = (inst.u @ psi.amplitudes).reshape(d, d, d)
    rho_b = np.einsum("bce,dce->bd", t, t.conj())
    rho_c = np.einsum("bce,bde->cd", t, t.conj())
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

    The fixed candidate, 0.6e-175, is the paper's rounded figure. The
    constants of _CHAIN reach the cloning contradiction only below it: the
    C-branch copy-map floor 1 - 3.9 eps^(1/128) passes 5/6 below
    ((1/6) / 3.9)^128, about 5.50e-176, and at 0.6e-175 it is 0.83322.
    """
    fixed, dimensional = _CHAIN["fixed"], _per_dim("dimensional", as_int(d_a, "d_a", 1))
    return min(fixed, dimensional), fixed, dimensional


def _nested(ep_b, ep_c, root, add, scale) -> tuple[dict, object]:
    """eps'' = 2 sqrt(eps') + eps' and eps''' = 3 sqrt(eps') + sqrt(eps'') + eps''
    per branch, in report order from eps'_b, and the shared-closeness deficit
    4 (sqrt(eps'_b) + sqrt(eps'''_b)), in the arithmetic (root, add, scale)."""
    ep = {"b": ep_b, "c": ep_c}
    edp = {x: add(scale(2.0, root(e)), e) for x, e in ep.items()}
    etp = {x: add(add(scale(3.0, root(ep[x])), root(e)), e) for x, e in edp.items()}
    steps = (("prime", ep), ("dprime", edp), ("tprime", etp))
    consts = {f"eps_{k}_{x}": v for k, d in steps for x, v in d.items()}
    return consts, scale(4.0, add(root(ep_b), root(etp["b"])))


def asymptotic_ladder() -> dict[str, tuple[float, float]]:
    """Leading (coefficient, exponent) form of every chain constant.

    Each constant is a nested expression in eps; collapsing all terms onto
    the weakest exponent (valid for eps <= 1) gives the single-power form.
    Here eps_iv = sqrt(eps) + sqrt(sqrt(eps''') + sqrt(shared)), which _CHAIN rounds up.
    """
    root, add, scale = _TERMS
    consts, shared = _nested(_CHAIN["eps_prime_b"], _CHAIN["eps_prime_c"], root, add, scale)
    ladder = {**consts, "shared_closeness": shared}
    for x in "bc":
        ladder["eps_iv_" + x] = add(root((1.0, 1.0)), root(add(root(consts["eps_tprime_" + x]), root(shared))))
    return ladder


_LADDER = asymptotic_ladder()  # built once: every chain report carries it


@dataclass(frozen=True)
class EpsilonChainReport:
    """Constants and verified inequalities of the deficit chain at one eps.

    constants holds the nine chain deficits under their report keys,
    eps_prime_b ... eps_iv_c and shared_closeness_deficit. Floors are recorded
    unclamped in the constants and clamped inside the checks; a vacuous check
    (floor <= 0 or ceiling >= 1) is kept for the record but excluded from
    all_satisfied.
    """

    eps: float
    d_a: int
    constants: dict[str, float]
    eps_zero: float
    eps_zero_candidates: tuple[float, float]
    admissible_b: bool
    admissible_c: bool
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
            "constants": dict(self.constants),
            "eps_zero": self.eps_zero,
            "eps_zero_candidates": list(self.eps_zero_candidates),
            "admissible_b": self.admissible_b,
            "admissible_c": self.admissible_c,
            "asymptotic": {k: list(v) for k, v in _LADDER.items()},
            "selected_pair": list(self.selected_pair) if self.selected_pair else None,
            "theta": dict(self.theta),
            "residual_degenerate": list(self.residual_degenerate),
            "cloning_contradiction": self.cloning_contradiction,
            "all_satisfied": self.all_satisfied,
            "checks": [dict(zip(BoundCheck._fields, c)) for c in self.checks],
        }


def chain_constants(eps: float, d_a: int) -> EpsilonChainReport:
    """All deficit-chain constants at a given eps and shared dimension."""
    if not 0.0 < eps <= 1.0:
        raise InvariantViolation(f"eps = {eps} outside (0, 1]")
    d_a = as_int(d_a, "d_a", 1)
    consts, shared = _nested(_deficit("eps_prime_b", eps), _deficit("eps_prime_c", eps), *_FLOATS)
    ivs = {k: _deficit(k, eps) for k in ("eps_iv_b", "eps_iv_c")}
    eps_zero, fixed, dimensional = epsilon_threshold(d_a)
    cap = _per_dim("pair", d_a)
    return EpsilonChainReport(
        eps=eps,
        d_a=d_a,
        constants={**consts, **ivs, "shared_closeness_deficit": shared},
        eps_zero=eps_zero,
        eps_zero_candidates=(fixed, dimensional),
        admissible_b=consts["eps_dprime_b"] <= cap,
        admissible_c=consts["eps_dprime_c"] <= cap,
    )


def _bounds(
    labels: Sequence[str], values: Sequence[float], bound: float, floor=True, enforced=True
) -> list[BoundCheck]:
    """One BoundCheck per value against a common bound clamped into [0, 1]:
    value >= bound for a floor, value <= bound for a ceiling. The family is
    vacuous where its unclamped bound constrains nothing (a floor <= 0, a
    ceiling >= 1) or where enforced is False."""
    clamped = itertools.repeat(min(max(bound, 0.0), 1.0))
    vacuous = (bound <= 0.0 if floor else bound >= 1.0) or not enforced
    lhs, rhs = (values, clamped) if floor else (clamped, values)
    return BoundCheck.rows(labels, lhs, rhs, vacuous)


def _best_phase(offsets: np.ndarray, cross: np.ndarray) -> tuple[float, float]:
    """Exact maximiser over a global phase theta of the worst sample value
    min_i offsets_i + 2 Re(cross_i exp(i theta)).

    The minimum of these sinusoids peaks at one curve's own peak,
    exp(i theta) = conj(c_i) / |c_i|, or where two curves cross,
    exp(i theta) = conj(c_i - c_j) / |c_i - c_j| (x +- i sqrt(1 - x^2)) with
    x = (o_j - o_i) / (2 |c_i - c_j|) in [-1, 1]. Every candidate is evaluated
    in one pass; returns (theta in [0, 2 pi), value).
    """
    i, j = _pairs(len(offsets))
    diff = cross[i] - cross[j]
    gap, span = offsets[j] - offsets[i], 2.0 * np.abs(diff)
    # pairs whose curves meet; identical curves (span 0) need no crossing
    meet = (span > 0.0) & (np.abs(gap) <= span)
    x = gap[meet] / span[meet]
    turn, sine = diff[meet].conj() / (0.5 * span[meet]), 1j * np.sqrt(1.0 - x * x)
    z = np.concatenate([np.exp(-1j * np.angle(cross)), turn * (x + sine), turn * (x - sine)])
    # o_i + 2 Re(c_i) cos(theta) - 2 Im(c_i) sin(theta) for every sample and candidate
    # both operands filled in place, cheaper than np.stack at these sizes
    coef = np.empty((len(offsets), 3))
    coef[:, 0], coef[:, 1], coef[:, 2] = offsets, 2.0 * cross.real, -2.0 * cross.imag
    trig = np.ones((3, len(z)))
    trig[1], trig[2] = z.real, z.imag
    vals = (coef @ trig).min(axis=0)
    k = int(np.argmax(vals))
    # a tiny negative angle can round to exactly 2 pi under the first %
    return float(np.angle(z[k]) % (2.0 * np.pi) % (2.0 * np.pi)), float(vals[k])


@functools.lru_cache(maxsize=4)
def _chain_labels(d_s: int, m: int) -> MappingProxyType:
    """chain_verify's row labels at source dim d_s and m sampled inputs, one
    tuple per family in row order: product_floor_x[k] (x in abc, ab, ac) per
    basis element k, and per branch y in b, c, pair_product_overlap_y[p,q] per
    pair p < q, outer_overlap_ceiling_y, and superposition_floor_y[n] and
    copy_map_floor_y[n] per sample n. Built once per shape and read-only.
    """
    samples = [f"[{n}]" for n in range(m)]
    index = {
        "product_floor": [f"[{k}]" for k in range(d_s)],
        "pair_product_overlap": [f"[{p},{q}]" for p, q in zip(*(ix.tolist() for ix in _pairs(d_s)))],
        "outer_overlap_ceiling": [""],
        "superposition_floor": samples,
        "copy_map_floor": samples,
    }
    return MappingProxyType({
        f"{family}_{x}": tuple(f"{family}_{x}{ix}" for ix in ixs)
        for family, ixs in index.items()
        for x in (("abc", "ab", "ac") if family == "product_floor" else "bc")
    })


def check_chain_premise(instance: QsbInstance, allow_trivial: bool) -> None:
    """Raise ChainNotApplicable unless the chain can run on the instance: it
    needs d_S >= 2 and, unless allow_trivial, d_S > d_A."""
    d_s, d_a = instance.d_s, instance.d_a
    if d_s < 2:
        raise ChainNotApplicable(f"chain needs two basis states, the source has dim {d_s}")
    if d_s <= d_a and not allow_trivial:
        raise ChainNotApplicable(
            f"chain needs a source ({d_s}) strictly larger than the shared part ({d_a})"
        )


def chain_verify(
    instance: QsbInstance,
    eps_hat: float,
    seed: int = 0,
    allow_trivial: bool = False,
) -> EpsilonChainReport:
    """Run the whole deficit-chain argument numerically on one instance.

    Extracts near-product structure for every computational basis state
    from the channel's Stinespring image, checks the pairwise-overlap ceilings,
    selects the closest shared-subsystem pair, builds the orthogonal
    residuals with exactly maximised phases, and verifies the superposition
    and copy-map floors on sampled two-level inputs alpha|k1> + beta|k2>,
    whose (alpha, beta) are the columns of default_probe_states(2, seed, 24)
    without its basis columns. The constants are evaluated at the larger of
    eps_hat and the deficit this run itself measures, so every floor is a
    genuine consequence. It works on raw arrays and builds no state object.
    """
    d_s, d_a = instance.d_s, instance.d_a
    check_chain_premise(instance, allow_trivial)
    if not 0.0 <= eps_hat <= 1.0:
        raise InvariantViolation(f"eps_hat = {eps_hat} outside [0, 1]")
    basis_cols = np.eye(d_s, dtype=np.complex128)

    phi_a, phi_b, phi_c, f_abc, f_ab, f_ac = _extract(instance, basis_cols)

    # Pair selection on the shared subsystem happens before any deficit
    # information is used; it only needs the extracted states.
    gram_a = np.abs(phi_a.conj() @ phi_a.T)
    (k1, k2), a_overlap = _closest_pair(gram_a, d_a)

    # the sampled inputs alpha|k1> + beta|k2>: the qubit probes without their basis columns
    al, be = default_probe_states(2, seed, 24)[:, 2:]
    sup = np.outer(basis_cols[:, k1], al) + np.outer(basis_cols[:, k2], be)
    sup /= np.linalg.norm(sup, axis=0)

    eps_run, _, _ = measure_eps(instance, np.concatenate([basis_cols, sup], axis=1))
    eps_eff = min(max(max(eps_hat, eps_run), 1e-300), 1.0)
    consts = chain_constants(eps_eff, d_a)

    # per-element extraction floors, the rows running abc, ab, ac for each basis element in turn
    floors = product_floors(eps_eff)
    m = sup.shape[1]
    labels = _chain_labels(d_s, m)
    families = [
        _bounds(labels["product_floor_" + x], f.tolist(), floors["floor_" + x])
        for x, f in (("abc", f_abc), ("ab", f_ab), ("ac", f_ac))
    ]
    checks = [c for row in zip(*families) for c in row]

    # pairwise product-overlap ceilings, from the Gram matrices of the states
    i, j = _pairs(d_s)
    for branch, phis in (("b", phi_b), ("c", phi_c)):
        vals = (gram_a * np.abs(phis.conj() @ phis.T))[i, j].tolist()
        ceiling = consts.constants["eps_dprime_" + branch]
        checks += _bounds(labels["pair_product_overlap_" + branch], vals, ceiling, floor=False)

    # Shared-pair guarantees exist only for d_s > d_a (vector crowding);
    # everything downstream of the selected pair inherits that condition.
    guaranteed = d_s > d_a
    pair_floor = _per_dim("pair", d_a) if guaranteed else 0.0  # a zero floor is vacuous
    checks += _bounds(["selected_pair_fidelity_floor"], [a_overlap ** 2], pair_floor)
    if guaranteed:
        checks += _bounds(["crowding_overlap_floor"], [a_overlap], overlap_lower_bound(d_s, d_a) - _CROWDING_SLACK)
    closeness = 1.0 - consts.constants["shared_closeness_deficit"]
    enforced = guaranteed and consts.admissible_b
    checks += _bounds(["shared_closeness_floor"], [a_overlap ** 2], closeness, enforced=enforced)

    # residual construction and the superposition / copy-map floors
    theta: dict[str, float] = {}
    degenerate: list[str] = []
    cloning_votes: dict[str, bool] = {}
    # channel outputs of the sampled inputs, axes (A, B, C, E, sample)
    out = (instance.u @ sup).reshape(d_a, instance.d_b, instance.d_c, -1, m)

    for branch, axis, phis, v_rep, admissible in (
        ("b", 1, phi_b, instance.v_abs, consts.admissible_b),
        ("c", 2, phi_c, instance.v_acs, consts.admissible_c),
    ):
        cond = guaranteed and admissible
        x1, x2 = phis[k1], phis[k2]
        c = complex(np.vdot(x1, x2))
        ceiling = math.sqrt(consts.constants["eps_dprime_" + branch])
        checks += _bounds(labels["outer_overlap_ceiling_" + branch], [abs(c)], ceiling, floor=False, enforced=cond)
        # the normalised component of x2 orthogonal to x1, undefined if nearly parallel
        if abs(c) >= 1.0 - TOL:
            degenerate.append(branch)
            continue
        resid0 = x2 - c * x1
        resid0 /= np.linalg.norm(resid0)

        # representation targets: alpha |phi_A1 x1> + beta |phi_A2 resid>
        t1 = np.outer(phi_a[k1], x1).ravel()
        t2 = np.outer(phi_a[k2], resid0).ravel()
        reps = v_rep @ sup
        xs = al.conj() * (t1.conj() @ reps)
        ys = be.conj() * (t2.conj() @ reps)
        offsets = np.abs(xs) ** 2 + np.abs(ys) ** 2
        cross = xs * np.conj(ys)
        th, _ = _best_phase(offsets, cross)
        theta[branch] = th
        f_sup = offsets + 2.0 * np.real(cross * np.exp(1j * th))
        floor = 1.0 - consts.constants["eps_tprime_" + branch]
        checks += _bounds(labels["superposition_floor_" + branch], f_sup.tolist(), floor, enforced=cond)

        # copy map W: span{k1, k2} -> H_X and its floors on the marginal, from
        # <x|rho_X|y> = sum over the other axes of (x^H out) conj(y^H out)
        resid = np.exp(1j * th) * resid0
        o = np.moveaxis(out, axis, 0).reshape(out.shape[axis], -1)
        hx = (x1.conj() @ o).reshape(-1, m)
        hr = (resid.conj() @ o).reshape(-1, m)
        rho_xx, rho_rr = ((np.abs(h) ** 2).sum(axis=0) for h in (hx, hr))
        offs = np.abs(al) ** 2 * rho_xx + np.abs(be) ** 2 * rho_rr
        crs = al.conj() * be * (hx * hr.conj()).sum(axis=0)
        thp, _ = _best_phase(offs, crs)
        theta[branch + "_prime"] = thp
        f_copy = offs + 2.0 * np.real(crs * np.exp(1j * thp))
        floor = 1.0 - consts.constants["eps_iv_" + branch]
        checks += _bounds(labels["copy_map_floor_" + branch], f_copy.tolist(), floor, enforced=cond)
        cloning_votes[branch] = cond and floor > CLONING_CEILING

    return replace(
        consts,
        checks=tuple(checks),
        selected_pair=(k1, k2),
        theta=theta,
        residual_degenerate=tuple(degenerate),
        cloning_contradiction=bool(cloning_votes) and all(cloning_votes.get(x, False) for x in ("b", "c")),
    )


def perturbed_perfect_instance(d_s: int, d_a: int, d_b: int, d_c: int, noise: float) -> QsbInstance:
    """Perfect construction with its channel mixed toward full depolarising.

    The representation isometries stay exact; only the channel is noisy,
    so the worst-case deficit is exactly noise * (1 - 1/(d_a * max(d_b, d_c))):
    the branch holding the larger private subsystem recovers the least.
    """
    base = perfect_qsb_construct(d_s, d_a, d_b, d_c)
    d_s, d_o = base.d_s, base.output_layout.total_dim
    noisy = mix(base.u.reshape(d_o, 1, d_s), depolarizing_channel(d_s, d_o), noise)
    return replace(base, u=noisy.reshape(-1, d_s))
