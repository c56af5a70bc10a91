"""Walk through the spin-r operator algebra.

Builds the ladder operators for a few spins, checks the commutation
relations and the Casimir identity, shows the double-valuedness of
half-integer rotations, and verifies the coherent-state resolution of
the identity by sphere quadrature.
"""

import numpy as np

from avq import spin


def main():
    for label, two_r in (("1/2", 1), ("1", 2), ("3/2", 3)):
        ops = spin.spin_operators(two_r)
        comm = ops.az @ ops.plus - ops.plus @ ops.az - ops.plus
        cas = ops.casimir() - ops.r * (ops.r + 1) * np.eye(ops.dim)
        print(f"spin {label}: dim {ops.dim}, "
              f"[A0,A+] - A+ residual {np.max(np.abs(comm)):.1e}, "
              f"Casimir residual {np.max(np.abs(cas)):.1e}")

    print()
    for label, two_r in (("1/2", 1), ("1", 2)):
        u = spin.rotation(two_r, [0.0, 0.0, 1.0], 2.0 * np.pi)
        sign = np.real(u[0, 0] / abs(u[0, 0]))
        print(f"spin {label}: a full 2*pi turn is {sign:+.0f} * identity")

    print()
    a = spin.unit([1.0, 1.0, 1.0])
    v = spin.coherent_state(1, a)
    residual = spin.component_operator(1, a) @ v + 0.5 * v
    print(f"coherent state along (1,1,1)/sqrt3: {np.round(v, 4)}")
    print(f"  (a.A + 1/2) v residual: {np.max(np.abs(residual)):.1e}")
    print(f"  overlap with the antipodal coherent state: "
          f"{abs(np.vdot(v, spin.coherent_state(1, -a))):.1e}")

    print()
    for label, two_r in (("1/2", 1), ("1", 2), ("3/2", 3), ("2", 4)):
        dev = spin.resolution_deviation(two_r, 24)
        print(f"spin {label}: sphere-quadrature resolution of identity "
              f"deviates by {dev:.1e}")


if __name__ == "__main__":
    main()
