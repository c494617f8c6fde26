"""Variational search for the best broadcast instance at fixed dimensions.

The channel is parameterized by a Stinespring isometry U: S -> ABCE and the
two representations by free isometries, so every iterate is a valid instance
by construction and the search runs unconstrained on the isometry manifold.
Worst-case fidelity over a fixed probe family, the (d_s, n) columns of
default_probe_states, is maximized through a temperature-annealed soft
minimum of qsb.branch_values, the kernel that measure_eps also runs, along
its gradient qsb.branch_grads, both on the probe operand qsb.search_probes
picks for the search's shape (its docstring explains the two forms). The
stage and the gradient tests reach the objective through the same two
functions: _evaluate (values, factors, hard minimum) and _direction (the
tangent ascent direction and its Armijo slope). A restart is a ladder
over one stage function: each temperature of TEMPS, TEMP_INIT *
TEMP_RATIO^j capped at TEMP_MAX, runs one stage, an ascent of the soft
minimum at that temperature that returns its iteration count and its stop
reason. A stage that ends on the gradient test (tangent gradient
norm below GRAD_TOL) or after its ceil(max_iters / STAGES) share of the
budget hands over to the next, so max_iters is only a cap; a perfect point
or an exhausted line search ends the restart. Each iteration's first trial
step is the Barzilai-Borwein step t = Re<s,s> / (-Re<s,y>), s and y the
changes in the point and in the tangent gradient since the stage's last
iteration, capped at 10; at a stage's first iteration, or if Re<s,y> >= 0,
the last accepted step grows by 1.3 instead.
The Armijo test is nonmonotone: it compares against the smallest soft value
of the stage's last MEMORY iterations. Both memories are the stage's own,
as the objective changes with the temperature. A restart has converged
when its top stage ends on the gradient test; there its soft minimum lies
within log(2n)/TEMP_MAX of the hard minimum of its 2n values, about 6e-5
for the default n = 210 at d_s = 2.
The reported value is always the hard minimum measure_eps re-measures on
the returned instance from the same columns. Both receivers' fidelities
travel as the kernel's one (2, n) stack; a point's hard and soft minimum
are each taken once, when it is evaluated, and only a new stage's
temperature retakes the soft one. A restart keeps (U, V_AB, V_AC) in one
zero-padded (3, N_U, d_s) stack and allocates what its iterations write
once (_scratch): two slots, each a point with its conjugate, which the kernel
and the tangent projection both read, the direction at it and the arrays
branch_values writes there; one gradient with the arrays branch_grads
writes; and a copy of the best point, refreshed whenever it improves and
never a slot. The slots alternate between the accepted point and the Armijo
trial: a trial is retracted into the idle slot and evaluated there, and its
acceptance swaps the two, so the previous point and direction, which the
BB step reads, stay in the idle slot until the next trial.
The retraction, Cholesky QR, gives exactly the positive-diagonal QR
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
from .qsb import (QsbInstance, _GradArrays, _ValueArrays, _embed_params, branch_grads,
                  branch_values, default_probe_states, measure_eps, search_probes,
                  split_clone_construct)

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
# the objective: one evaluation and one ascent direction
# ---------------------------------------------------------------------------


def _soft_min(f: np.ndarray, hard: float, temp: float, e: np.ndarray) -> tuple[float, float]:
    """Soft minimum of the (2, n) fidelity stack f with hard minimum `hard`, and
    the sum z of its shifted exponentials, written into e; its weights are e / z."""
    np.exp(np.multiply(np.subtract(hard, f, out=e), temp, out=e), out=e)
    z = float(np.add.reduce(e, None))
    return hard - math.log(z) / temp, z


def _unpad(s: np.ndarray, dims4: tuple[int, int, int, int]) -> tuple[np.ndarray, ...]:
    """The (U, V_AB, V_AC) views of a zero-padded (3, N_U, d_s) stack."""
    d_a, d_b, d_c, _ = dims4
    return s[0], s[1, : d_a * d_b], s[2, : d_a * d_c]


@dataclass
class _Slot:
    """One evaluated point's arrays, written in place: the padded point x, its
    unpadded views, its conjugate xc, the direction xi at it, and the arrays
    branch_values writes there."""

    x: np.ndarray
    views: tuple[np.ndarray, ...]
    xc: np.ndarray
    xi: np.ndarray
    values: _ValueArrays


def _scratch(probes: np.ndarray, n_u: int, d_s: int,
             dims4: tuple[int, int, int, int]) -> tuple[_Slot, _Slot, np.ndarray, _GradArrays]:
    """Everything a restart's iterations write, allocated once: two evaluation
    slots, which the accepted point and the Armijo trial alternate between, and
    the padded gradient g with the arrays branch_grads writes. Every padding
    row of a slot's x and of g stays zero."""
    def slot() -> _Slot:
        x = np.zeros((3, n_u, d_s), dtype=np.complex128)
        xc = np.zeros_like(x)
        return _Slot(x, _unpad(x, dims4), xc, np.empty_like(x), _ValueArrays(xc[0], probes, dims4))

    g = np.zeros((3, n_u, d_s), dtype=np.complex128)
    return slot(), slot(), g, _GradArrays(*_unpad(g, dims4), probes, dims4)


def _evaluate(slot: _Slot, probes: np.ndarray, dims4: tuple[int, int, int, int]):
    """Both receivers' fidelities at the slot's point as one (2, n) stack, the
    factor tuple branch_grads reads, and their hard minimum. The point's
    conjugate, which the kernel and the tangent projection read, is taken here."""
    np.conjugate(slot.x, out=slot.xc)
    f, cached = branch_values(*slot.views, probes, dims4, slot.values)
    return f, cached, float(np.minimum.reduce(f, None))


def _direction(slot: _Slot, g: np.ndarray, grads: _GradArrays, cached: tuple, e: np.ndarray,
               z: float) -> tuple[np.ndarray, float]:
    """Tangent ascent direction xi of the soft minimum at the slot's point, and its slope.

    e and z are _soft_min's exponentials and their sum there; e becomes the
    weights in place. branch_grads writes the gradients w.r.t. conj(U, V_AB,
    V_AC) into the unpadded views of g (grads), whose padding rows stay zero: a
    real perturbation of an entry moves the soft minimum by 2 Re(g) per unit,
    an imaginary one by 2 Im(g). xi is written into the slot. As g - xi is
    normal to the tangent space, the slope along _qr_positive(x + t xi) at
    t = 0, which the Armijo test reads, is 2 Re<g, xi> = 2 |xi|^2.
    """
    branch_grads(cached, np.divide(e, z, out=e), grads)
    xi = _tangent(slot.x, g, slot.xc, slot.xi)
    return xi, 2.0 * float(np.vdot(xi, xi).real)


def _qr_positive(m: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Positive-diagonal thin QR factor M L^-H, L L^H = M^H M, of a (..., N, k) stack,
    written into out when given (not m itself), which holds conj(M) until then.

    np.linalg's LAPACK gufuncs as hilbert binds them, minus the wrappers, costlier
    than LAPACK on small blocks. They give NaN, not LinAlgError, on a Gram not
    positive definite; here M^H M >= I.
    """
    r = _inv(_cholesky_lo(np.conjugate(m, out=out).swapaxes(-1, -2) @ m))
    return np.matmul(m, np.conjugate(r, out=r).swapaxes(-1, -2), out=out)


def _tangent(v: np.ndarray, g: np.ndarray, vc: np.ndarray | None = None,
             out: np.ndarray | None = None) -> np.ndarray:
    """Project g onto the tangent space at the (..., N, k) isometry stack v; vc
    is conj(v) and out receives the result, where the caller has them."""
    vg = (v.conj() if vc is None else vc).swapaxes(-1, -2) @ g
    vg += vg.conj().swapaxes(-1, -2)
    p = np.matmul(v, np.multiply(vg, 0.5, out=vg), out=out)
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
    dims4 = config.dims4
    cur, idle, g, grads = _scratch(probes, init[0].shape[0], config.d_s, dims4)
    for k, m in enumerate(init):
        cur.x[k, : m.shape[0]] = m
    x_t, s, y = np.empty_like(cur.x), np.empty_like(cur.x), np.empty_like(cur.x)
    f, cached, hard = _evaluate(cur, probes, dims4)
    best_hard, best_x, step = hard, cur.x.copy(), STEP_INIT  # best_x: a copy, never a slot
    e = np.empty_like(f)  # the current point's soft-min exponentials, then each trial's

    def stage(temp: float, budget: int) -> tuple[int, str]:
        """Ascend the soft minimum at temp by at most budget BB1 steps under the
        nonmonotone Armijo test; return the steps taken and the stop reason."""
        nonlocal cur, idle, f, cached, hard, step, best_hard  # carried from stage to stage
        soft = deque(maxlen=MEMORY)
        last = None  # the stage's previous (x, xi), the idle slot's until its next trial
        value, z = _soft_min(f, hard, temp, e)
        for done in range(budget):
            if best_hard >= 1.0 - TOL:
                return done, "perfect"
            xi, slope = _direction(cur, g, grads, cached, e, z)
            if slope < 2.0 * GRAD_TOL * GRAD_TOL:  # |xi| < GRAD_TOL
                return done, "converged"

            # BB1 step from s = x_k - x_{k-1}, y = xi_k - xi_{k-1}; ascent needs
            # Re<s, y> < 0, and otherwise the last accepted step grows by 1.3
            bb = 0.0
            if last is not None:
                np.subtract(cur.x, last[0], out=s)
                sy = float(np.vdot(s, np.subtract(xi, last[1], out=y)).real)
                if sy < 0.0:
                    bb = float(np.vdot(s, s).real) / -sy
            step = min(bb if bb > 0.0 else step * 1.3, 10.0)
            last = (cur.x, xi)
            soft.append(value)
            floor = min(soft)

            # nonmonotone Armijo backtracking on the smoothed objective, against
            # the smallest of the stage's last MEMORY soft values. Each trial is
            # retracted into the idle slot, and acceptance swaps the slots: the
            # accepted trial's f, hard and soft minimum carry over to the next iteration.
            trial = min(step, STEP_CAP / math.sqrt(0.5 * slope))
            while trial > 1e-14:
                _qr_positive(np.add(cur.x, np.multiply(xi, trial, out=x_t), out=x_t), idle.x)
                f2, cached2, hard2 = _evaluate(idle, probes, dims4)
                value2, z2 = _soft_min(f2, hard2, temp, e)
                if value2 >= floor + 1e-4 * trial * slope:
                    cur, idle = idle, cur
                    f, cached, hard, value, z, step = f2, cached2, hard2, value2, z2, trial
                    break
                trial *= 0.5
            else:
                return done + 1, "line_search_exhausted"
            if hard > best_hard:
                best_hard = hard
                np.copyto(best_x, cur.x)
        return budget, "perfect" if best_hard >= 1.0 - TOL else "max_iters"

    # the ladder: a stage that converges or spends its share hands over to the
    # next; once the budget is spent, every later stage is empty and reads max_iters
    cap, iters = -(-config.max_iters // STAGES), 0  # cap: one stage's share of the budget
    for temp in TEMPS:
        done, stop = stage(temp, min(cap, config.max_iters - iters))
        iters += done
        if stop in ("perfect", "line_search_exhausted"):
            break
    return _RestartOutcome(index, best_hard, _unpad(best_x, dims4), iters, stop)


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
