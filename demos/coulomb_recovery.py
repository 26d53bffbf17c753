"""Recovering the Coulomb field from a line-integral gauge generator.

For a point charge, the gauge exponent is a line integral of the vector
potential along a path from the origin to a distant removal point.  Its
commutator with the electric field integrates the gradient kernel of
rho / rho^3, so the result depends only on the path endpoints and tends to
minus the Coulomb field as the removal point recedes.  The transformed
picture's field is then purely transverse.

This script shows the endpoint-distance convergence, the exactness of the
endpoint antiderivative, and the path independence between a straight path
and an axis-aligned staircase.
"""

import numpy as np

from dipolegauge import (
    commutator_line_integral,
    coulomb_field,
    line_integral_endpoint,
    path_independence_residual,
    staircase_path,
    straight_path,
)


def main():
    r = np.array([0.6, -0.8, 1.2])
    e_c = coulomb_field(r, 1.0)
    scale = np.linalg.norm(e_c)
    print(f"field point r = {r}, |E_c(r)| = {scale:.5f}")
    print()

    # the deviation from -E_c is the endpoint term, decaying like 1/factor^2
    print(f"{'endpoint factor':>16} {'|correction + E_c| / |E_c|':>28}")
    for factor in (25.0, 50.0, 100.0, 200.0, 400.0):
        path = straight_path(r, endpoint_factor=factor)
        corr = commutator_line_integral(path, r)
        print(f"{factor:>16.0f} {np.linalg.norm(corr + e_c) / scale:>28.3e}")
    print()
    print("quadrupling the factor divides the deviation by about 16: the")
    print("truncation error is the endpoint term, of order 1/factor^2")
    print()

    # the quadrature route against the exact endpoint antiderivative
    path = straight_path(r, endpoint_factor=200.0)
    quad = commutator_line_integral(path, r)
    exact = line_integral_endpoint(path, r)
    print(f"Gauss-Legendre rule vs endpoint formula: "
          f"max dev {np.max(np.abs(quad - exact)):.3e}")

    # interior independence: straight vs staircase with shared endpoints
    residual = path_independence_residual(
        straight_path(r, endpoint_factor=200.0),
        staircase_path(r, endpoint_factor=200.0),
        r,
    )
    print(f"straight vs staircase residual: {residual:.3e}")
    print()
    print("the kernel is a total gradient, so any two paths sharing their")
    print("endpoints give the same correction; reshaping the interior of the")
    print("path moves nothing but quadrature noise")


if __name__ == "__main__":
    main()
