"""Completely positive trace-preserving maps as Stinespring tensors.

A channel from dim d_in into dim d_out is held as its (d_out, d_e, d_in)
Stinespring tensor, the environment E between output and input: slice
[:, e, :] is Kraus operator e, and reshaped to (d_out * d_e, d_in) it is the
Stinespring matrix qsb.QsbInstance stores and validates. Two channels mix by
concatenating their weighted Kraus families along E.
"""

from __future__ import annotations

import numpy as np

from .errors import InvariantViolation


def mix(a: np.ndarray, b: np.ndarray, weight: float) -> np.ndarray:
    """Convex combination (1-w)·a + w·b: the family {sqrt(1-w) A_i} ∪ {sqrt(w) B_j}.

    A family longer than the cap of d_in·d_out operators is compressed by
    one thin QR. With X the (n, d_in·d_out) matrix whose rows are the
    conjugated, row-vectorised operators, X = QR gives X^H X = R^H R, so the
    columns of R^H are a family with the same Choi matrix, hence the same map.
    """
    if a.shape[::2] != b.shape[::2]:
        raise InvariantViolation("channels must share input and output dimensions")
    if isinstance(weight, (bool, np.bool_)):
        raise TypeError(f"mixing weight {weight} is a bool, not a number")
    if not 0.0 <= weight <= 1.0:
        raise InvariantViolation(f"mixing weight {weight} outside [0, 1]")
    ops = np.concatenate((np.sqrt(1.0 - weight) * a, np.sqrt(weight) * b), axis=1)
    dout, n, din = ops.shape
    if n > din * dout:
        x = ops.swapaxes(0, 1).reshape(n, -1).conj()
        ops = np.linalg.qr(x, mode="r").conj().reshape(-1, dout, din).swapaxes(0, 1)
    return ops


def depolarizing_channel(din: int, dout: int) -> np.ndarray:
    """Erase everything: every input goes to the maximally mixed output."""
    # operator i * din + j is scale |i><j|: row i * din + j of the identity
    ops = 1.0 / np.sqrt(dout) * np.eye(dout * din, dtype=np.complex128)
    return ops.reshape(-1, dout, din).swapaxes(0, 1)
