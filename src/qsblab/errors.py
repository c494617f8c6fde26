"""Exception types raised across the package, every one a QsbError (a ValueError).

A class exists only if an `except` clause in the package names it, or it is the
base or the one generic type, InvariantViolation, which every other refusal
raises. The CLI exits 2 on NoPerfectQsb and ChainNotApplicable ("impossible:"),
4 on TooLarge ("too large:") and 4 on any other QsbError ("invariant violation:").
"""


class QsbError(ValueError):
    """Base class for all validation and contract failures."""


class InvariantViolation(QsbError):
    """An input or a constructed object failed one of its defining checks."""


class NoPerfectQsb(QsbError):
    """Perfect shared broadcasting is impossible at these dimensions."""


class ChainNotApplicable(QsbError):
    """The deficit chain needs a source strictly larger than the shared output."""


class TooLarge(QsbError):
    """Problem size exceeds the configured dimension cap."""
