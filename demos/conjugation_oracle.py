"""Closed-form operator conjugation checked against a truncated-Fock oracle.

When [X, Y] commutes with X, the conjugation series terminates:

    e^X Y e^(-X) = Y + [X, Y]

and the corresponding flow-averaged identity carries half that weight:

    (d/dt averaged over the switch) -> Y + (1/2) [X, Y].

Both identities are exact statements of the operator algebra.  This script
verifies the first one numerically against dense matrix exponentials on a
truncated Fock space, all from one eigendecomposition of the generator, and
prints the half-weight contrast of the second.
"""

import numpy as np

from dipolegauge import (
    FockOracleConfig,
    OperatorPolynomial,
    adjoint_action,
    commutator,
    fock_adjoint_oracle_scan,
    fock_matrix,
    time_derivative_conjugation,
)


def main():
    lower = OperatorPolynomial.annihilation(0)
    raise_ = OperatorPolynomial.creation(0)
    y = lower + raise_

    truncation = 40
    interior = 20
    cfg = FockOracleConfig(modes=(0,), truncations=(truncation,))
    print(f"Fock truncation {truncation}, comparing the interior block "
          f"(indices < {interior})")
    print()
    print(f"{'xi':>6} {'[X, Y]':>10} {'interior deviation':>20}")
    # X = xi G for the one generator G: a single eigendecomposition of G gives
    # the interior block of e^X Y e^(-X) for every xi
    generator = raise_ - lower
    xis = (0.1, 0.3, 1.0)
    blocks = fock_adjoint_oracle_scan(generator, y, cfg, xis, interior)
    for xi, oracle in zip(xis, blocks):
        x = xi * generator
        central = commutator(x, y)
        closed = fock_matrix(adjoint_action(x, y), cfg)
        deviation = np.max(np.abs(closed[:interior, :interior] - oracle))
        print(f"{xi:>6.2f} {central.scalar_part.real:>10.3f} {deviation:>20.3e}")

    print()
    print("the deviation grows with xi because the matrix truncation, not the")
    print("identity, is approximate: e^X spreads amplitude toward the edge")
    print()

    # the half-weight contrast: conjugation shifts Y by the full commutator,
    # the switch-averaged derivative by half of it
    xi = 0.5
    x = xi * (raise_ - lower)
    full_shift = (adjoint_action(x, y) - y).scalar_part.real
    half_shift = (time_derivative_conjugation(x, y) - y).scalar_part.real
    print(f"xi = {xi}: conjugation shift = {full_shift:+.3f}, "
          f"flow-averaged shift = {half_shift:+.3f}")
    print(f"ratio = {full_shift / half_shift:.1f} (exactly 2 by construction)")


if __name__ == "__main__":
    main()
