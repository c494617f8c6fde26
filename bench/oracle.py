"""Output oracles that share no code with qsblab.

Fidelities are recomputed from the instance JSON with a plain numpy Kraus
contraction, on a probe family rebuilt here from the documented recipe
(basis states, balanced two-level states at `phase_count` relative phases,
then Haar states drawn from the same generator). Every check returns None
when the output is right and a one-line reason when it is not.
"""

from __future__ import annotations

import math

import numpy as np

CLONING_CEILING = 5.0 / 6.0
CEILING_WINDOW = (CLONING_CEILING - 0.01, CLONING_CEILING + 1e-3)
AGREE_TOL = 1e-8


def _matrix(rows) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows])


def probe_columns(d: int, rng: np.random.Generator, haar_count: int, phase_count: int = 8) -> np.ndarray:
    """The probe family of `qsblab.qsb.default_probe_states`, as (d, n) columns."""
    cols = [np.eye(d)[:, k] for k in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            for p in range(phase_count):
                v = np.zeros(d, dtype=complex)
                v[i] = v[j] = 1.0 / math.sqrt(2.0)
                v[j] *= np.exp(2j * math.pi * p / phase_count)
                cols.append(v)
    for _ in range(haar_count):
        re = rng.standard_normal(d)
        im = rng.standard_normal(d)
        v = re + 1j * im
        cols.append(v / np.linalg.norm(v))
    return np.array(cols, dtype=complex).T


def branch_fidelities(instance: dict, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(rho_AB, V_AB psi) and F(rho_AC, V_AC psi) for each column of psi.

    For a pure target the fidelity is <t|rho|t>, and with rho = sum_k
    K psi psi^dag K^dag traced over the third factor it is the squared norm
    of the partial overlap <t| (K psi), summed over Kraus operators.
    """
    (_, d_a), (_, d_b), (_, d_c) = instance["out"]
    n = psi.shape[1]
    t_ab = (_matrix(instance["v_abs"]["matrix"]) @ psi).reshape(d_a * d_b, n)
    t_ac = (_matrix(instance["v_acs"]["matrix"]) @ psi).reshape(d_a, d_c, n)
    f_ab = np.zeros(n)
    f_ac = np.zeros(n)
    for rows in instance["kraus"]:
        out = (_matrix(rows) @ psi).reshape(d_a, d_b, d_c, n)
        over_ab = (t_ab.conj()[:, None, :] * out.reshape(d_a * d_b, d_c, n)).sum(axis=0)
        f_ab += (np.abs(over_ab) ** 2).sum(axis=0)
        over_ac = (t_ac.conj()[:, None, :, :] * out).sum(axis=(0, 2))
        f_ac += (np.abs(over_ac) ** 2).sum(axis=0)
    return f_ab, f_ac


def worst_fidelity(instance: dict, psi: np.ndarray) -> float:
    f_ab, f_ac = branch_fidelities(instance, psi)
    return float(min(f_ab.min(), f_ac.min()))


def check_ceiling(rc: int, frontier: dict | None, seed: int, haar_count: int) -> str | None:
    """`optimize` at (2,1,2,2): reported best recomputed to 1e-8 and inside the 5/6 window."""
    if rc != 0:
        return f"optimize exited with {rc}"
    if frontier is None:
        return "optimize wrote no frontier file"
    inst = frontier["best_instance"]
    d_s = inst["in"][0][1]
    psi = probe_columns(d_s, np.random.default_rng((seed, 977)), haar_count)
    best = frontier["best_worst_fidelity"]
    mine = worst_fidelity(inst, psi)
    if not abs(best - mine) <= AGREE_TOL:
        return f"best_worst_fidelity {best!r} but the probes give {mine!r}"
    lo, hi = CEILING_WINDOW
    if not lo <= best <= hi:
        return f"best_worst_fidelity {best!r} outside [{lo}, {hi}]"
    return None


def check_properties(rc: int, stdout: str) -> str | None:
    """`properties`: exit code 0 and the all-clear line."""
    if rc != 0:
        return f"properties exited with {rc}"
    if not stdout.startswith("properties ok"):
        return "properties did not print 'properties ok'"
    return None


def printed_value(stdout: str, key: str) -> str | None:
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) == 2 and parts[0] == key:
            return parts[1]
    return None


def check_chain(rc: int, stdout: str, instance: dict, seed: int, samples: int) -> str | None:
    """`verify --chain`: exit 0, `all_satisfied True`, eps_hat to its printed 6 digits."""
    if rc != 0:
        return f"verify exited with {rc}"
    if printed_value(stdout, "all_satisfied") != "True":
        return "verify did not print 'all_satisfied True'"
    text = printed_value(stdout, "eps_hat")
    if text is None:
        return "verify printed no eps_hat"
    d_s = instance["in"][0][1]
    psi = probe_columns(d_s, np.random.default_rng(seed), samples)
    mine = max(1.0 - worst_fidelity(instance, psi), 0.0)
    printed = float(text)
    # `{:.6g}` keeps six significant digits: allow half a unit in the last one.
    half_ulp = 0.5 * 10.0 ** (math.floor(math.log10(abs(mine))) - 5) if mine > 0 else 5e-7
    if not abs(printed - mine) <= half_ulp * (1 + 1e-9) + 1e-15:
        return f"eps_hat printed {text} but the probes give {mine!r}"
    return None
