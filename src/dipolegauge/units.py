"""Unit constants threaded through every dimensional formula."""

import math
from dataclasses import dataclass

__all__ = ["UnitSystem", "NATURAL"]


@dataclass(frozen=True)
class UnitSystem:
    """Values of hbar, epsilon_0 and the speed of light.

    Defaults are natural units (all one), which keeps convergence studies free
    of extreme floating-point scales.  Every function that produces a
    dimensional number takes the constants from an instance of this class
    rather than from module globals, so alternative systems are a matter of
    passing a different instance.
    """

    hbar: float = 1.0
    epsilon0: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "epsilon0", "c"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value) or value <= 0.0:
                raise ValueError(f"{name} must be finite and positive, got {value}")


NATURAL = UnitSystem()
