"""Completely positive trace-preserving maps in Kraus form.

A channel's Stinespring matrix stacks its Kraus family with the environment
as the last output index; qsb.QsbInstance.from_stinespring reads a broadcast
channel back from one. Two channels mix by concatenating their weighted Kraus
families. Construction bounds the completeness residual |sum K^H K - 1|, so
every KrausChannel is trace preserving to TOL_ISO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from .errors import InvariantViolation, LayoutMismatch
from .hilbert import TOL_ISO, SpaceLayout, _mat_from_json, _mat_to_json


@dataclass(frozen=True)
class KrausChannel:
    """CPT map given by a finite Kraus family (sum K†K = 1)."""

    input_layout: SpaceLayout
    output_layout: SpaceLayout
    kraus_ops: tuple[np.ndarray, ...] = field(repr=False)

    def __post_init__(self):
        din = self.input_layout.total_dim
        dout = self.output_layout.total_dim
        ops = tuple(np.asarray(k, dtype=np.complex128) for k in self.kraus_ops)
        if not ops:
            raise InvariantViolation("channel needs at least one Kraus operator")
        if len(ops) > din * dout:
            raise InvariantViolation(
                f"{len(ops)} Kraus operators exceed the canonical maximum {din * dout}"
            )
        for k in ops:
            if k.shape != (dout, din):
                raise LayoutMismatch(f"Kraus shape {k.shape}, expected {(dout, din)}")
        acc = np.zeros((din, din), dtype=np.complex128)
        # a non-finite or overflowing entry gives a non-finite err, which fails
        with np.errstate(over="ignore", invalid="ignore"):
            for k in ops:
                acc += k.conj().T @ k
            err = float(np.max(np.abs(acc - np.eye(din))))
        if not err <= TOL_ISO:
            raise InvariantViolation(f"completeness violated by {err}")
        frozen = []
        for k in ops:
            kk = k.copy()
            kk.setflags(write=False)
            frozen.append(kk)
        object.__setattr__(self, "kraus_ops", tuple(frozen))

    def to_json(self) -> dict:
        return {
            "in": self.input_layout.to_json(),
            "out": self.output_layout.to_json(),
            "kraus": [_mat_to_json(k) for k in self.kraus_ops],
        }

    @classmethod
    def from_json(cls, data: dict) -> "KrausChannel":
        kraus = data["kraus"]
        # a JSON object would iterate as its keys, so only an array is read
        if not isinstance(kraus, list):
            raise TypeError("kraus is not a JSON array")
        return cls(
            SpaceLayout(data["in"]),
            SpaceLayout(data["out"]),
            tuple(_mat_from_json(k) for k in kraus),
        )


def _stinespring_matrix(channel: KrausChannel) -> np.ndarray:
    """The Stinespring matrix: with r Kraus operators, output index (o, e) is row o * r + e."""
    return np.stack(channel.kraus_ops, axis=1).reshape(-1, channel.input_layout.total_dim)


def mix(a: KrausChannel, b: KrausChannel, weight: float) -> KrausChannel:
    """Convex combination (1-w)·a + w·b: the family {sqrt(1-w) A_i} ∪ {sqrt(w) B_j}.

    A family longer than the cap of d_in·d_out operators is compressed by
    one thin QR. With X the (n, d_in·d_out) matrix whose rows are the
    conjugated, row-vectorised operators, X = QR gives X^H X = R^H R, so the
    columns of R^H are a family with the same Choi matrix, hence the same map.
    """
    if a.input_layout != b.input_layout or a.output_layout != b.output_layout:
        raise LayoutMismatch("channels must share input and output layouts")
    if not 0.0 <= weight <= 1.0:
        raise InvariantViolation(f"mixing weight {weight} outside [0, 1]")
    ops = np.concatenate(
        (np.sqrt(1.0 - weight) * np.array(a.kraus_ops), np.sqrt(weight) * np.array(b.kraus_ops))
    )
    n, dout, din = ops.shape
    if n > din * dout:
        ops = np.linalg.qr(ops.reshape(n, -1).conj(), mode="r").conj().reshape(-1, dout, din)
    return KrausChannel(a.input_layout, a.output_layout, tuple(ops))


def depolarizing_channel(
    input_layout: SpaceLayout, output_layout: SpaceLayout
) -> KrausChannel:
    """Erase everything: every input goes to the maximally mixed output."""
    din = input_layout.total_dim
    dout = output_layout.total_dim
    # operator i * din + j is scale |i><j|: row i * din + j of the identity
    ops = 1.0 / np.sqrt(dout) * np.eye(dout * din).reshape(-1, dout, din)
    return KrausChannel(input_layout, output_layout, tuple(ops))
