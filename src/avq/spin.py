"""Spin-r operator algebra: ladder operators, rotations, coherent states.

The representation is labeled by ``two_r`` (twice the spin quantum number),
dimension d = two_r + 1.  Basis order is m = +r down to -r, so the z
component is diag(r, r-1, ..., -r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import hilbert
from .errors import DomainError, NotFinite, NotInteger
from .inference import require_finite

DIRECTION_TOL = 1e-12


def _whole(value, what: str) -> int:
    """``value`` as an int.  Integral values pass, as floats or numpy
    scalars too; a bool, a non-integral value or a non-number raises
    NotInteger, and a negative value DomainError."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if isinstance(value, (bool, np.bool_)) or whole is None or whole != value:
        raise NotInteger(f"{what} must be an integer, got {value!r}")
    if whole < 0:
        raise DomainError(f"{what} must be a nonnegative integer")
    return whole


def as_direction(a) -> np.ndarray:
    v = np.asarray(a, dtype=float).reshape(3)
    hilbert.require(abs(np.linalg.norm(v) - 1.0), DIRECTION_TOL, DomainError,
                    "direction |norm - 1|")
    return v


def unit(a) -> np.ndarray:
    """Normalize a 3-vector to a unit direction."""
    v = np.asarray(a, dtype=float).reshape(3)
    if not np.isfinite(v).all():
        raise NotFinite(f"direction {v} is not finite")
    nrm = np.linalg.norm(v)
    if nrm == 0.0:
        raise DomainError("cannot normalize the zero vector")
    return v / nrm


@dataclass(frozen=True)
class SpinOperators:
    two_r: int
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    plus: np.ndarray
    minus: np.ndarray

    @property
    def r(self) -> float:
        return self.two_r / 2.0

    @property
    def dim(self) -> int:
        return self.two_r + 1

    @property
    def m_values(self) -> np.ndarray:
        """m = +r, r-1, ..., -r in basis order."""
        return self.r - np.arange(self.dim)

    def casimir(self) -> np.ndarray:
        return self.ax @ self.ax + self.ay @ self.ay + self.az @ self.az

    def along(self, a) -> np.ndarray:
        n = as_direction(a)
        return n[0] * self.ax + n[1] * self.ay + n[2] * self.az


# Ladders below this dimension are built once and kept: callers with many
# small cases pay mostly for building them, while a large ladder costs
# memory to keep and little time to rebuild next to the eigendecompositions
# done with it.  The cache holds at most 16 ladders, about 0.12 MB.
CACHED_DIM = 16


def spin_operators(two_r: int) -> SpinOperators:
    """Ladder construction in the canonical basis |r;m>, m = +r..-r.

    The arrays are read-only: ladders of dimension up to ``CACHED_DIM``
    are cached, and every caller shares them.
    """
    two_r = _whole(two_r, "two_r")
    return (_cached_ladder if two_r < CACHED_DIM else _ladder)(two_r)


def _ladder(two_r: int) -> SpinOperators:
    r = two_r / 2.0
    m = r - np.arange(two_r + 1)
    az = np.diag(m).astype(complex)
    # raising: |r;m> -> sqrt(r(r+1) - m(m+1)) |r;m+1>; m+1 sits one row up
    plus = np.diag(np.sqrt(r * (r + 1) - m[1:] * (m[1:] + 1)), 1).astype(complex)
    minus = hilbert.dagger(plus)
    ax = (plus + minus) / 2.0
    ay = (plus - minus) / 2.0j
    for a in (ax, ay, az, plus, minus):
        a.setflags(write=False)
    return SpinOperators(two_r, ax, ay, az, plus, minus)


_cached_ladder = cache(_ladder)


def rotation(two_r: int, n, omega: float) -> np.ndarray:
    """exp[i omega (n . A)]: rotation by omega about the unit axis n."""
    require_finite("omega", omega)
    ops = spin_operators(two_r)
    h = ops.along(n)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * omega * w)) @ hilbert.dagger(v)


def algebra_residuals(two_r: int) -> dict:
    """Max-norm residuals of the spin-r algebra: the commutation relations
    [A_z, A_+] = A_+, [A_z, A_-] = -A_- and [A_-, A_+] = -2 A_z, the
    Casimir A.A = r(r+1) I, and the 2 pi turn exp(2 pi i A_z) = (-1)^(2r) I,
    whose sign is reported with it."""
    ops = spin_operators(two_r)
    eye = hilbert.identity(ops.dim)
    commutators = (ops.az @ ops.plus - ops.plus @ ops.az - ops.plus,
                   ops.az @ ops.minus - ops.minus @ ops.az + ops.minus,
                   ops.minus @ ops.plus - ops.plus @ ops.minus + 2.0 * ops.az)
    sign = -1.0 if two_r % 2 else 1.0
    full_turn = rotation(two_r, [0.0, 0.0, 1.0], 2.0 * np.pi)
    return {
        "commutation_residual": float(max(np.max(np.abs(c)) for c in commutators)),
        "casimir_residual": float(np.max(np.abs(
            ops.casimir() - ops.r * (ops.r + 1) * eye))),
        "full_turn_sign": sign,
        "full_turn_residual": float(np.max(np.abs(full_turn - sign * eye))),
    }


def rotation_matrix(n, omega: float) -> np.ndarray:
    """The 3x3 rotation R with rotation(g)^dag (a.A) rotation(g) = (R a).A.

    Conjugating by exp[i omega n.A] rotates measurement directions by
    +omega about n (Rodrigues form; the sign is pinned by the covariance
    tests).
    """
    require_finite("omega", omega)
    nv = as_direction(n)
    k = np.array([[0.0, -nv[2], nv[1]],
                  [nv[2], 0.0, -nv[0]],
                  [-nv[1], nv[0], 0.0]])
    return np.eye(3) + np.sin(omega) * k + (1.0 - np.cos(omega)) * (k @ k)


def component_operator(two_r: int, a) -> np.ndarray:
    """Spin component along the unit direction a; spectrum -r..+r."""
    return spin_operators(two_r).along(a)


def coherent_states(two_r: int, dirs) -> np.ndarray:
    """Rows: the lowest-weight states of the unit directions in ``dirs``.

    For a = (sin t cos f, sin t sin f, cos t) the eigenvector of the a
    component with eigenvalue -r has, at basis index k (m = r - k), the
    amplitude sqrt(C(2r, k)) sin(t/2)^(2r-k) cos(t/2)^k (-e^(if))^k
    (Radcliffe 1971; Arecchi, Courtens, Gilmore and Thomas 1972).  No
    global phase is fixed here.  The binomials are exact floats, which
    holds up to 2r = 1020.
    """
    two_r = _whole(two_r, "two_r")
    a = np.asarray(dirs, dtype=float).reshape(-1, 3)
    hilbert.require(np.abs(np.linalg.norm(a, axis=1) - 1.0).max(initial=0.0),
                    DIRECTION_TOL, DomainError, "direction |norm - 1|")
    k = np.arange(two_r + 1)
    half = np.arctan2(np.hypot(a[:, :1], a[:, 1:2]), a[:, 2:]) / 2.0
    binom = np.array([math.comb(two_r, j) for j in k], dtype=float)
    phase = np.exp(1j * (np.arctan2(a[:, 1:2], a[:, :1]) + np.pi) * k)
    return np.sqrt(binom) * np.sin(half) ** (two_r - k) * np.cos(half) ** k * phase


def coherent_state(two_r: int, a) -> np.ndarray:
    """Lowest-weight state for the direction a, in the closed form above.

    It is the eigenvector of the a component with eigenvalue -r, the image
    of |r;-r> under the rotation taking z to a; that eigenvalue property is
    the contract the tests pin.  The global phase is fixed by making the
    first amplitude above 1e-12 in modulus real positive.
    """
    return _canonical_phase(coherent_states(two_r, as_direction(a))[0])


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    idx = np.nonzero(np.abs(v) > 1e-12)[0]
    if len(idx) == 0:
        return v
    lead = v[idx[0]]
    return v * (np.conj(lead) / np.abs(lead))


def resolution_deviation(two_r: int, order: int) -> float:
    """Max-norm deviation of (d/4pi) * integral |a><a| dOmega from I.

    Product quadrature: Gauss-Legendre in cos(theta), uniform azimuth
    (trapezoid, exact for the trigonometric polynomials involved); all
    order^2 nodes enter one product A^T diag(w) conj(A).
    """
    two_r, order = _whole(two_r, "two_r"), _whole(order, "order")
    d = two_r + 1
    if d == 1:
        return 0.0
    if order < two_r + 2:
        raise DomainError(f"quadrature order {order} < 2r+2 = {two_r + 2}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    phis = 2.0 * np.pi * np.arange(order) / order
    c, phi = np.repeat(nodes, order), np.tile(phis, order)
    s = np.sqrt(1.0 - c * c)
    amps = coherent_states(two_r, np.stack([s * np.cos(phi), s * np.sin(phi), c], 1))
    w = np.repeat(weights, order) * (2.0 * np.pi / order) * d / (4.0 * np.pi)
    acc = (amps.T * w) @ amps.conj()
    return float(np.max(np.abs(acc - np.eye(d))))


def parse_spin(text: str) -> int:
    """Parse '1', '1/2', '0.5', '3/2' ... into two_r.

    Anything but a finite nonnegative half-integer, such as 'inf', 'nan' or
    '1/0', raises DomainError.
    """
    parts = text.split("/")
    try:
        num = float(parts[0])
        den = float(parts[1]) if len(parts) == 2 else 1.0
    except ValueError:
        num = den = math.nan
    twice = 2.0 * num / den if den != 0 else math.nan
    if (len(parts) > 2 or not all(map(math.isfinite, (num, den, twice)))
            or twice < 0 or abs(twice - round(twice)) > 1e-9):
        raise DomainError(f"spin must be a nonnegative half-integer, got {text!r}")
    return round(twice)
