"""Exception types raised across the package.

Everything derives from QsbError (a ValueError) so callers can catch the
whole family at once; the CLI maps QsbError to its invariant-violation
exit code.
"""

from __future__ import annotations


class QsbError(ValueError):
    """Base class for all validation and contract failures."""


class InvariantViolation(QsbError):
    """A constructed object failed one of its defining checks."""


class LabelClash(QsbError):
    """A layout names two subsystems with one label."""


class LayoutMismatch(QsbError):
    """Two operands live on different layouts."""


class BadPurification(QsbError):
    """Supplied purification is inconsistent with the reduced state."""


class NoPerfectQsb(QsbError):
    """Perfect shared broadcasting is impossible at these dimensions."""


class EmptyInput(QsbError):
    """An operation received an empty collection where states were required."""


class BoundVacuous(QsbError):
    """The requested bound carries no information at these parameters."""


class BadAmplitudes(QsbError):
    """Superposition amplitudes are not normalised (or arguments out of range)."""


class BadEpsilon(QsbError):
    """Fidelity deficit outside (0, 1]."""


class ChainNotApplicable(QsbError):
    """The deficit chain needs a source strictly larger than the shared output."""


class TooLarge(QsbError):
    """Problem size exceeds the configured dimension cap."""
