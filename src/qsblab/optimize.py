"""Variational search for the best broadcast instance at fixed dimensions.

The channel is parameterized by a Stinespring isometry U: S -> ABCE and the
two representations by free isometries, so every iterate is a valid instance
by construction and the search runs unconstrained on the isometry manifold.
Worst-case fidelity over a fixed probe family, the (d_s, n) columns of
default_probe_states, is maximized through a temperature-annealed soft
minimum of qsb.branch_values, the kernel that measure_eps also runs, along
its gradient qsb.branch_grads, both on the probe operand qsb.search_probes
picks for the search's shape (its docstring explains the two forms). The
temperature climbs a fixed ladder TEMPS, TEMP_INIT * TEMP_RATIO^j capped at
TEMP_MAX. A stage ends when the tangent gradient norm falls below GRAD_TOL,
or after its ceil(max_iters / STAGES) share of the budget, so max_iters is
only a cap. Each iteration's first trial step is the Barzilai-Borwein step
t = Re<s,s> / (-Re<s,y>), s and y the changes in the point and in the tangent
gradient since the stage's last iteration, capped at 10; at a stage's first
iteration, or if Re<s,y> >= 0, the last accepted step grows by 1.3 instead.
The Armijo test is nonmonotone: it compares against the smallest soft value
of the stage's last MEMORY iterations. Both memories restart with each
temperature, as the objective changes with it. A restart has converged
when its top stage ends on the gradient test; there its soft minimum lies
within log(2n)/TEMP_MAX of the hard minimum of its 2n values, about 6e-5
for the default n = 210 at d_s = 2.
The reported value is always the hard minimum measure_eps re-measures on
the returned instance from the same columns. Both receivers' fidelities
travel as the kernel's one (2, n) stack; a point's hard and soft minimum
are each taken once, when it is evaluated, and only a new stage's
temperature retakes the soft one. A restart keeps (U, V_AB, V_AC) in one
zero-padded (3, N_U, d_s) stack. Its retraction, Cholesky QR, gives exactly the positive-diagonal QR
factor, as a tangent step M = X + t xi has M^H M = I + t^2 xi^H xi >= I; its
orthonormality error grows like (1 + |t xi|^2) * 1e-16, so the line search
never tries a step with |t xi| > STEP_CAP. It calls LAPACK's gufuncs as hilbert binds them
(np.linalg's wrappers cost more on these blocks) and cannot fail, as every restart
starts from a validated instance, zero-padded into the search's dimensions, or a Haar draw.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InvariantViolation, TooLarge
from .hilbert import TOL, as_int, haar_isometry_matrix, _cholesky_lo, _inv
from .qsb import (QsbInstance, _embed_params, branch_grads, branch_values,
                  default_probe_states, measure_eps, search_probes, split_clone_construct)

DIM_CAP = 4096
ENV_CAP = 16
STEP_CAP = 100.0  # largest |t xi| the search retracts: error <= ~1e-12
STEP_INIT = 0.5  # the first Armijo step of a restart
TEMP_INIT, TEMP_RATIO, TEMP_MAX = 10.0, 3.0, 1e5  # the soft-min temperature ladder
STAGES = 1 + math.ceil(math.log(TEMP_MAX / TEMP_INIT, TEMP_RATIO))
TEMPS = tuple(min(TEMP_INIT * TEMP_RATIO**j, TEMP_MAX) for j in range(STAGES))
GRAD_TOL = 1e-5  # a stage ends once the tangent gradient norm falls below this
MEMORY = 10  # the iterations whose soft values the nonmonotone Armijo test looks back over


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
        # a float or bool count is refused, not truncated: restarts=1.5 is no 2 restarts
        for name, low in (("d_s", 1), ("d_a", 1), ("d_b", 1), ("d_c", 1), ("env_dim", None),
                          ("restarts", 1), ("max_iters", 1), ("haar_count", 0),
                          ("phase_count", 0), ("seed", 0)):
            if name != "env_dim" or self.env_dim is not None:
                object.__setattr__(self, name, as_int(getattr(self, name), name, low))
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
            "restart_values": list(self.restart_values),
            "stop_reasons": list(self.stop_reasons),
            "best_instance": self.best_instance.to_json(),
        }


# ---------------------------------------------------------------------------
# objective and gradients
# ---------------------------------------------------------------------------


def _soft_min(f: np.ndarray, hard: float, temp: float, e: np.ndarray) -> tuple[float, float]:
    """Soft minimum of the (2, n) fidelity stack f with hard minimum `hard`, and
    the sum z of its shifted exponentials, written into e; its weights are e / z."""
    np.exp(np.multiply(np.subtract(hard, f, out=e), temp, out=e), out=e)
    z = float(np.add.reduce(e, None))
    return hard - math.log(z) / temp, z


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
    e = np.empty_like(f)
    value, z = _soft_min(f, float(f.min()), temp, e)
    grads = (np.empty_like(u), np.empty_like(vab), np.empty_like(vac))
    branch_grads(cached, e / z, grads)
    return value, *grads


def _qr_positive(m: np.ndarray) -> np.ndarray:
    """Positive-diagonal thin QR factor M L^-H, L L^H = M^H M, of a (..., N, k) stack.

    np.linalg's LAPACK gufuncs as hilbert binds them, minus the wrappers, costlier
    than LAPACK on small blocks. They give NaN, not LinAlgError, on a Gram not
    positive definite; here M^H M >= I.
    """
    r = _inv(_cholesky_lo(m.conj().swapaxes(-1, -2) @ m))
    return m @ np.conjugate(r, out=r).swapaxes(-1, -2)


def _tangent(v: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Project g onto the tangent space at the (..., N, k) isometry stack v."""
    vg = v.conj().swapaxes(-1, -2) @ g
    vg += vg.conj().swapaxes(-1, -2)
    p = v @ np.multiply(vg, 0.5, out=vg)
    return np.subtract(g, p, out=p)


# ---------------------------------------------------------------------------
# the search itself
# ---------------------------------------------------------------------------


@dataclass
class _RestartOutcome:
    index: int
    best_hard: float
    params: tuple[np.ndarray, np.ndarray, np.ndarray]
    iterations: int
    stop_reason: str


def _run_restart(
    config: OptimizeConfig,
    probes: np.ndarray,
    init: tuple[np.ndarray, np.ndarray, np.ndarray],
    index: int,
) -> _RestartOutcome:
    rows = tuple(m.shape[0] for m in init)
    dims4 = config.dims4

    def unpad(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return s[0], s[1, : rows[1]], s[2, : rows[2]]

    # every step maps the stack's zero padding rows to zero rows
    x = np.zeros((3, rows[0], config.d_s), dtype=np.complex128)
    for k, m in enumerate(init):
        x[k, : rows[k]] = m
    g, x_t = np.zeros_like(x), np.empty_like(x)  # gradient and trial point, written in place
    grads = unpad(g)  # branch_grads writes these views; g's padding rows stay zero
    cap = -(-config.max_iters // STAGES)  # one stage's share of the budget
    step = STEP_INIT
    f, cached = branch_values(*unpad(x), probes, dims4)
    hard = float(np.minimum.reduce(f, None))
    best_hard, best_x = hard, x
    e = np.empty_like(f)  # the current point's soft-min exponentials, then each trial's
    iters = 0

    # a stage that ends on its cap hands over to the next; once the budget is
    # spent, every later stage is empty and the stop reads max_iters
    for temp in TEMPS:
        stage_end = min(iters + cap, config.max_iters)
        # the objective changes with the temperature, so both memories and the
        # point's soft minimum restart; within a stage each carries over
        soft = deque(maxlen=MEMORY)
        last = None  # the stage's previous (x, xi), for the BB step
        value, z = _soft_min(f, hard, temp, e)
        while True:
            if best_hard >= 1.0 - TOL:
                stop = "perfect"
                break
            if iters == stage_end:
                stop = "max_iters"
                break
            branch_grads(cached, np.divide(e, z, out=e), grads)
            xi = _tangent(x, g)
            gnorm2 = float(np.vdot(xi, xi).real)
            if gnorm2 < GRAD_TOL * GRAD_TOL:
                stop = "converged"
                break
            iters += 1

            # BB1 step from s = x_k - x_{k-1}, y = xi_k - xi_{k-1}; ascent needs
            # Re<s, y> < 0, and otherwise the last accepted step grows by 1.3
            bb = 0.0
            if last is not None:
                s = x - last[0]
                sy = float(np.vdot(s, xi - last[1]).real)
                if sy < 0.0:
                    bb = float(np.vdot(s, s).real) / -sy
            step = min(bb if bb > 0.0 else step * 1.3, 10.0)
            last = (x, xi)
            soft.append(value)
            floor = min(soft)

            # nonmonotone Armijo backtracking on the smoothed objective, against
            # the smallest of the stage's last MEMORY soft values; directional
            # derivative along the tangent triple is 2*gnorm2. The accepted
            # trial's f, hard and soft minimum carry over to the next iteration.
            trial = min(step, STEP_CAP / math.sqrt(gnorm2))
            while trial > 1e-14:
                x2 = _qr_positive(np.add(x, np.multiply(xi, trial, out=x_t), out=x_t))
                f2, cached2 = branch_values(x2[0], x2[1, : rows[1]], x2[2, : rows[2]], probes, dims4)
                hard2 = float(np.minimum.reduce(f2, None))
                value2, z2 = _soft_min(f2, hard2, temp, e)
                if value2 >= floor + 1e-4 * trial * 2.0 * gnorm2:
                    x, f, cached, hard, value, z, step = x2, f2, cached2, hard2, value2, z2, trial
                    break
                trial *= 0.5
            else:
                stop = "line_search_exhausted"
                break
            if hard > best_hard:
                best_hard, best_x = hard, x
        if stop in ("perfect", "line_search_exhausted"):
            break

    return _RestartOutcome(index, best_hard, unpad(best_x), iters, stop)


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


def optimize_qsb(config: OptimizeConfig, seeds: Sequence[QsbInstance] = ()) -> FrontierPoint:
    """Best instance over restarts; deterministic for a fixed config.

    Each seed starts one restart, zero-padded into the search's dimensions:
    the perfect broadcast split_clone_construct(d_s, d_a, 1) first when
    d_s <= d_a, then the given seeds, then Haar-random draws up to
    config.restarts. A seed needs the search's d_s and no d_a, d_b, d_c or
    d_e above it. Ties between restarts break toward the lower index.
    """
    dims = (config.d_s, *config.dims4)
    seeds = list(seeds)
    for j, inst in enumerate(seeds):
        got = (inst.d_s, inst.d_a, inst.d_b, inst.d_c, inst.d_e)
        if got[0] != dims[0] or any(g > w for g, w in zip(got, dims)):
            raise InvariantViolation(f"seed {j} with dims {got} does not fit the search's {dims}")
    if config.d_s <= config.d_a:
        seeds.insert(0, split_clone_construct(config.d_s, config.d_a, 1))
    rng = np.random.default_rng((config.seed, 977))
    cols = default_probe_states(config.d_s, rng, config.haar_count, config.phase_count)
    operand = search_probes(cols)

    inits = [_embed_params(inst, config.dims4) for inst in seeds]
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
        restart_values=tuple(o.best_hard for o in outcomes),
        stop_reasons=tuple(o.stop_reason for o in outcomes),
    )


def frontier_sweep(config: OptimizeConfig, d_a_values: Sequence[int]) -> list[FrontierPoint]:
    """Optimize config at each shared dimension in d_a_values, increasing,
    seeding each point with the previous winner; every point runs at
    config.env_dim, or sizes its own environment when that is None.

    The seed is zero-padded into the next search space, which
    makes the best-fidelity sequence non-decreasing by construction; a
    decrease is reported as an invariant violation rather than smoothed over.
    Every point's config is built, and so checked, before the first search.
    """
    values = sorted(set(as_int(v, "d_a", 1) for v in d_a_values))
    if not values:
        raise InvariantViolation("empty shared-dimension range")
    points: list[FrontierPoint] = []
    for cfg in [replace(config, d_a=d_a) for d_a in values]:
        point = optimize_qsb(cfg, seeds=[p.best_instance for p in points[-1:]])
        if points and point.best_worst_fidelity < points[-1].best_worst_fidelity - TOL:
            raise InvariantViolation(
                "frontier decreased with growing shared dimension despite embedding"
            )
        points.append(point)
    return points
