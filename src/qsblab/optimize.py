"""Variational search for the best broadcast instance at fixed dimensions.

The channel is parameterized by a Stinespring isometry U: S -> ABCE and the
two representations by free isometries, so every iterate is a valid instance
by construction and the search runs unconstrained on the isometry manifold.
Worst-case fidelity over a fixed probe family, the (d_s, n) columns of
default_probe_states, is maximized through a temperature-annealed soft
minimum of qsb.branch_values, the kernel that measure_eps also runs, on the
probe operand qsb.search_probes picks for the search's shape; the reported
value is always the hard minimum measure_eps re-measures on the returned
instance from the same columns. Both receivers' fidelities travel as the
kernel's one (2, n) stack; a point's hard minimum is taken once, when it is
evaluated. A restart keeps (U, V_AB, V_AC) in one zero-padded (3, N_U, d_s)
stack. Its retraction, Cholesky QR, gives exactly the positive-diagonal QR
factor, as a tangent step M = X + t xi has M^H M = I + t^2 xi^H xi >= I; its
orthonormality error grows like (1 + |t xi|^2) * 1e-16, so the line search
never tries a step with |t xi| > STEP_CAP.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, TooLarge
from .hilbert import haar_isometry_matrix
from .qsb import (
    QsbInstance,
    branch_values,
    default_probe_states,
    measure_eps,
    perfect_qsb_construct,
    search_probes,
)

DIM_CAP = 4096
ENV_CAP = 16
STEP_CAP = 100.0  # largest |t xi| the search retracts: error <= ~1e-12
STEP_INIT = 0.5  # the first Armijo step of a restart
TEMP_INIT, TEMP_FINAL = 10.0, 1000.0  # soft-min temperature, geometric over the iterations


@dataclass(frozen=True)
class OptimizeConfig:
    d_s: int
    d_a: int
    d_b: int
    d_c: int
    env_dim: int | None = None
    restarts: int = 16
    max_iters: int = 2000
    haar_count: int = 200  # the probe columns the objective and the final measurement see
    phase_count: int = 8
    seed: int = 42

    def __post_init__(self):
        for name in ("d_s", "d_a", "d_b", "d_c"):
            if getattr(self, name) < 1:
                raise InvariantViolation(f"{name} must be >= 1")
        if self.restarts < 1 or self.max_iters < 1:
            raise InvariantViolation("restarts and max_iters must be >= 1")
        if self.haar_count < 0 or self.phase_count < 0:
            raise InvariantViolation("sample counts must be nonnegative")
        # representation isometries must exist
        if self.d_s > self.d_a * self.d_b or self.d_s > self.d_a * self.d_c:
            raise InvariantViolation(
                f"no isometry embeds dim {self.d_s} into the receiver pairs "
                f"({self.d_a}x{self.d_b}, {self.d_a}x{self.d_c})"
            )
        env = self.resolved_env
        if env < 1 or env > self.d_s * self.d_a * self.d_b * self.d_c:
            raise InvariantViolation(
                f"env_dim {env} outside [1, d_s*d_a*d_b*d_c]; larger adds nothing"
            )
        if self.d_a * self.d_b * self.d_c * env > DIM_CAP:
            raise TooLarge(
                f"total dimension {self.d_a * self.d_b * self.d_c * env} exceeds {DIM_CAP}"
            )

    @property
    def resolved_env(self) -> int:
        if self.env_dim is not None:
            return self.env_dim
        return min(self.d_s * self.d_a * self.d_b * self.d_c, ENV_CAP)

    @property
    def dims4(self) -> tuple[int, int, int, int]:
        return (self.d_a, self.d_b, self.d_c, self.resolved_env)


@dataclass(frozen=True)
class FrontierPoint:
    """Best instance found at one dimension tuple, with its certificate."""

    dims: tuple[int, int, int, int]
    best_worst_fidelity: float
    best_instance: QsbInstance
    iterations_used: int
    winner_restart: int
    eps_hat: float
    restarts: int
    seed: int
    max_fidelity_seen: float
    restart_values: tuple[float, ...] = ()
    stop_reasons: tuple[str, ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.best_worst_fidelity <= 1.0:
            raise InvariantViolation(
                f"best_worst_fidelity {self.best_worst_fidelity} outside [0, 1]"
            )

    CSV_HEADER = ("d_s", "d_a", "d_b", "d_c", "best_fidelity", "restarts", "seed")

    def csv_row(self) -> list:
        return [*self.dims, repr(self.best_worst_fidelity), self.restarts, self.seed]

    def to_json(self) -> dict:
        return {
            "dims": list(self.dims),
            "best_worst_fidelity": self.best_worst_fidelity,
            "eps_hat": self.eps_hat,
            "iterations_used": self.iterations_used,
            "winner_restart": self.winner_restart,
            "restarts": self.restarts,
            "seed": self.seed,
            "max_fidelity_seen": self.max_fidelity_seen,
            "restart_values": list(self.restart_values),
            "stop_reasons": list(self.stop_reasons),
            "best_instance": self.best_instance.to_json(),
        }


# ---------------------------------------------------------------------------
# objective and gradients
# ---------------------------------------------------------------------------


def _soft_min(f: np.ndarray, hard: float, temp: float) -> tuple[float, np.ndarray, float]:
    """Soft minimum of the (2, n) fidelity stack f with hard minimum `hard`, and
    its weights e / z as the shifted exponentials e and their sum z."""
    e = np.exp((hard - f) * temp)
    z = float(e.sum())
    return hard - math.log(z) / temp, e, z


def _weighted_grads(cached: tuple, w: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradients of sum_n w[0, n] f_ab[n] + w[1, n] f_ac[n] w.r.t. conj(U, V_AB, V_AC).

    `cached` is the factor tuple `branch_values` returns for the point, and
    the real rows of the padded (3, N_U, d_s) stack g receive the gradients.
    With A = sum_n w[n] p_n p_n^H per branch, read as (w @ F).view(complex128)
    from a probe matrix F or as (P w) P^H from outer products P, one product
    gives both branches' G = K A as [ce s, s'] matrices. As K_B is
    conj(U_B)^T V_AB for U_B = U[ab, ce s], g_U = V_AB conj(G_B)^T and
    g_VAB = U_B G_B; C's terms add likewise, with U's B and C axes swapped.
    """
    k, u, uc_c, vab, vac, probes, gram, (d_a, d_b, d_c, d_e) = cached
    d_s = vab.shape[1]
    if gram:
        a = (w @ probes).view(np.complex128).reshape(2, d_s * d_s, d_s * d_s)
    else:
        a = (probes * w[:, None, :]) @ probes.conj().T
    gk = (k @ a).reshape(2, -1, d_s)
    gh = gk.conj().swapaxes(1, 2)
    rb, rc = d_c * d_e * d_s, d_b * d_e * d_s
    np.matmul(vab, gh[0, :, :rb], out=g[0].reshape(d_a * d_b, -1))
    g_u = g[0].reshape(d_a, d_b, d_c, -1)
    g_u += (vac @ gh[1, :, :rc]).reshape(d_a, d_c, d_b, -1).transpose(0, 2, 1, 3)
    np.matmul(u.reshape(d_a * d_b, -1), gk[0, :rb], out=g[1, : vab.shape[0]])
    np.conjugate(uc_c @ gh[1, :, :rc].T, out=g[2, : vac.shape[0]])
    return g


def objective_value_and_grads(
    u: np.ndarray,
    vab: np.ndarray,
    vac: np.ndarray,
    psi_cols: np.ndarray,
    dims4: tuple[int, int, int, int],
    temp: float,
):
    """Smoothed objective and its conjugate-coordinate gradients.

    The gradients are with respect to conj(M), so a real perturbation of an
    entry moves the objective by 2*Re(g) per unit and an imaginary one by
    2*Im(g); that is the convention the finite-difference check uses.
    """
    f, cached = branch_values(u, vab, vac, search_probes(psi_cols), dims4)
    value, e, z = _soft_min(f, float(f.min()), temp)
    g = _weighted_grads(cached, e / z, np.zeros((3, *u.shape), dtype=np.complex128))
    return value, g[0], g[1, : vab.shape[0]], g[2, : vac.shape[0]]


def _qr_positive(m: np.ndarray) -> np.ndarray:
    """Positive-diagonal thin QR factor M L^-H, L L^H = M^H M, of a (..., N, k) stack."""
    l = np.linalg.cholesky(m.conj().swapaxes(-1, -2) @ m)
    return m @ np.linalg.inv(l).conj().swapaxes(-1, -2)


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project g onto the tangent space at the (..., N, k) isometry stack v."""
    vg = v.conj().swapaxes(-1, -2) @ g
    return g - v @ ((vg + vg.conj().swapaxes(-1, -2)) * 0.5)


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------


@dataclass
class _RestartOutcome:
    index: int
    best_hard: float
    params: tuple[np.ndarray, np.ndarray, np.ndarray]
    iterations: int
    max_seen: float
    stop_reason: str


def _run_restart(
    config: OptimizeConfig,
    probes: np.ndarray,
    init: tuple[np.ndarray, np.ndarray, np.ndarray],
    index: int,
) -> _RestartOutcome:
    rows = tuple(m.shape[0] for m in init)

    def unpad(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return s[0], s[1, : rows[1]], s[2, : rows[2]]

    # every step maps the stack's zero padding rows to zero rows
    x = np.zeros((3, rows[0], config.d_s), dtype=np.complex128)
    for k, m in enumerate(init):
        x[k, : rows[k]] = m
    g = np.zeros_like(x)
    temps = np.geomspace(TEMP_INIT, TEMP_FINAL, config.max_iters)
    step = STEP_INIT
    best_hard = -np.inf
    best_x = x
    max_seen = 0.0
    iters = 0
    f, cached = branch_values(*unpad(x), probes, config.dims4)
    hard = float(f.min())

    for it in range(config.max_iters):
        iters = it + 1
        temp = float(temps[it])
        value, e, z = _soft_min(f, hard, temp)
        max_seen = max(max_seen, float(f.max()))
        if hard > best_hard:
            best_hard = hard
            best_x = x
        if best_hard >= 1.0 - 1e-9:
            stop = "perfect"
            break

        xi = _tangent(x, _weighted_grads(cached, np.divide(e, z, out=e), g))
        gnorm2 = float(np.vdot(xi, xi).real)
        if math.sqrt(gnorm2) < 1e-10:
            stop = "grad_small"
            break

        # Armijo backtracking on the smoothed objective; directional
        # derivative along the tangent triple is 2*gnorm2. A trial needs only
        # its soft value; the accepted one's f and hard minimum carry over.
        step = min(step * 1.3, 10.0)
        trial = min(step, STEP_CAP / math.sqrt(gnorm2))
        while trial > 1e-14:
            x2 = _qr_positive(x + trial * xi)
            f2, cached2 = branch_values(*unpad(x2), probes, config.dims4)
            hard2 = float(f2.min())
            if _soft_min(f2, hard2, temp)[0] >= value + 1e-4 * trial * 2.0 * gnorm2:
                x, f, cached, hard, step = x2, f2, cached2, hard2, trial
                break
            trial *= 0.5
        else:
            stop = "line_search_exhausted"
            break
    else:
        # the budget ran out right after an accepted step: score that point too
        stop = "max_iters"
        max_seen = max(max_seen, float(f.max()))
        if hard > best_hard:
            best_hard = hard
            best_x = x

    return _RestartOutcome(index, best_hard, unpad(best_x), iters, max_seen, stop)


def _random_init(
    config: OptimizeConfig, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    d_a, d_b, d_c, d_e = config.dims4
    d_s = config.d_s
    return (
        haar_isometry_matrix(rng, d_a * d_b * d_c * d_e, d_s),
        haar_isometry_matrix(rng, d_a * d_b, d_s),
        haar_isometry_matrix(rng, d_a * d_c, d_s),
    )


def optimize_qsb(
    config: OptimizeConfig,
    initial_points: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]] = (),
) -> FrontierPoint:
    """Best instance over restarts; deterministic for a fixed config.

    Restart slots are filled first by the analytic perfect construction
    (when one exists), then by supplied warm starts, then by Haar-random
    draws. Ties between restarts break toward the lower index.
    """
    rng = np.random.default_rng((config.seed, 977))
    cols = default_probe_states(config.d_s, rng, config.haar_count, config.phase_count)
    operand = search_probes(cols)

    d_a, d_b, d_c, d_e = config.dims4
    inits: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    if config.d_s <= d_a:
        inits.append(_embed_params(perfect_qsb_construct(config.d_s, d_a, d_b, d_c), d_a, d_e))
    for u, vab, vac in initial_points:
        want = (
            (d_a * d_b * d_c * d_e, config.d_s),
            (d_a * d_b, config.d_s),
            (d_a * d_c, config.d_s),
        )
        got = (u.shape, vab.shape, vac.shape)
        if got != want:
            raise InvariantViolation(f"warm start shapes {got} do not match {want}")
        inits.append((u, vab, vac))
    idx = 0
    while len(inits) < config.restarts:
        rng = np.random.default_rng((config.seed, idx))
        inits.append(_random_init(config, rng))
        idx += 1

    outcomes = [_run_restart(config, operand, init, i) for i, init in enumerate(inits)]

    winner = max(outcomes, key=lambda o: (o.best_hard, -o.index))
    instance = QsbInstance.from_stinespring(*winner.params, config.d_a, config.d_b, config.d_c)
    eps_hat, _, _ = measure_eps(instance, cols)
    return FrontierPoint(
        dims=(config.d_s, config.d_a, config.d_b, config.d_c),
        best_worst_fidelity=1.0 - eps_hat,
        best_instance=instance,
        iterations_used=winner.iterations,
        winner_restart=winner.index,
        eps_hat=eps_hat,
        restarts=len(inits),
        seed=config.seed,
        max_fidelity_seen=max(o.max_seen for o in outcomes),
        restart_values=tuple(o.best_hard for o in outcomes),
        stop_reasons=tuple(o.stop_reason for o in outcomes),
    )


def _embed_params(
    inst: QsbInstance, d_a: int, d_e: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """An instance's matrices zero-padded to shared dim d_a >= inst.d_a and
    environment d_e >= inst.d_e, the private dimensions kept.

    The padded matrices keep orthonormal columns and reproduce the instance's
    action exactly, so a search started there starts no worse.
    """
    a0, d_b, d_c, e0, d_s = inst.d_a, inst.d_b, inst.d_c, inst.d_e, inst.d_s
    u = np.zeros((d_a, d_b, d_c, d_e, d_s), dtype=np.complex128)
    u[:a0, :, :, :e0] = inst.u.reshape(a0, d_b, d_c, e0, d_s)
    vab = np.zeros((d_a, d_b, d_s), dtype=np.complex128)
    vab[:a0] = inst.v_abs.reshape(a0, d_b, d_s)
    vac = np.zeros((d_a, d_c, d_s), dtype=np.complex128)
    vac[:a0] = inst.v_acs.reshape(a0, d_c, d_s)
    return u.reshape(-1, d_s), vab.reshape(-1, d_s), vac.reshape(-1, d_s)


def frontier_sweep(
    d_s: int,
    d_a_values: Sequence[int],
    d_b: int,
    d_c: int,
    config: OptimizeConfig | None = None,
) -> list[FrontierPoint]:
    """Optimize along increasing shared dimension, warm-starting each point.

    The previous winner is zero-padded into the next search space, which
    makes the best-fidelity sequence non-decreasing by construction; a
    decrease is reported as an invariant violation rather than smoothed over.
    """
    values = sorted(set(int(v) for v in d_a_values))
    if not values:
        raise InvariantViolation("empty shared-dimension range")
    points: list[FrontierPoint] = []
    for d_a in values:
        if config is None:
            cfg = OptimizeConfig(d_s=d_s, d_a=d_a, d_b=d_b, d_c=d_c)
        else:
            cfg = replace(config, d_s=d_s, d_a=d_a, d_b=d_b, d_c=d_c, env_dim=None)
        warm = [_embed_params(points[-1].best_instance, d_a, cfg.resolved_env)] if points else []
        point = optimize_qsb(cfg, initial_points=warm)
        if points and point.best_worst_fidelity < points[-1].best_worst_fidelity - 1e-9:
            raise InvariantViolation(
                "frontier decreased with growing shared dimension despite embedding"
            )
        points.append(point)
    return points
