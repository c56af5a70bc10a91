"""Spin-r operator algebra: ladder operators, rotations, coherent states.

The representation is labeled by ``two_r`` (twice the spin quantum number),
dimension d = two_r + 1.  Basis order is m = +r down to -r, so the z
component is diag(r, r-1, ..., -r).  The ladders and every direction
component are filled from the cached diagonals of ``_bands``.  A
direction is three real components: any other size raises DimMismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import hilbert
from .errors import DimMismatch, DomainError, NotFinite, NotInteger, require_finite

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


def _direction_array(a, shape) -> np.ndarray:
    """``a`` as floats of ``shape``, 3 for one direction or (-1, 3) for
    rows of them; a size that does not fit raises DimMismatch, and a
    component that is not a real number NotFinite."""
    v = hilbert._as_numbers(a, float, "direction components")
    try:
        return v.reshape(shape)
    except ValueError:
        raise DimMismatch(f"a direction has 3 components, got {v.size} numbers") from None


def as_direction(a) -> np.ndarray:
    v = _direction_array(a, 3)
    hilbert.require(abs(np.linalg.norm(v) - 1.0), DIRECTION_TOL, DomainError,
                    "direction |norm - 1|")
    return v


def unit(a) -> np.ndarray:
    """Normalize a 3-vector to a unit direction."""
    v = _direction_array(a, 3)
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


def spin_operators(two_r: int) -> SpinOperators:
    """Ladder construction in the canonical basis |r;m>, m = +r..-r: each
    call fills new arrays from ``_bands``, so a caller may write to them."""
    two_r = _whole(two_r, "two_r")
    *bands, where = _bands(two_r)
    return SpinOperators(two_r, *(b[where] for b in bands))


def rotation(two_r: int, n, omega: float) -> np.ndarray:
    """exp[i omega (n . A)]: rotation by omega about the unit axis n."""
    require_finite("omega", omega)
    w, v = np.linalg.eigh(component_operator(two_r, n))
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


@lru_cache(maxsize=64)
def _bands(two_r: int) -> tuple:
    """(ax, ay, az, plus, minus, where): the diagonal, superdiagonal and
    subdiagonal entries of A_x, A_y, A_z, A_+ and A_-, each followed by
    their one off-band entry, as read-only complex vectors of length
    3d - 1, and the (d, d) index of each matrix entry in them.  An entry
    of a sum of these operators computed on the vectors has the bits of
    the same entry of the dense sum, signed zeros included.  About 0.1 MB
    at 2r = 100."""
    d = two_r + 1
    r = two_r / 2.0
    m = r - np.arange(d)
    # raising: |r;m> -> sqrt(r(r+1) - m(m+1)) |r;m+1>; m+1 sits one row up
    c = np.sqrt(r * (r + 1) - m[1:] * (m[1:] + 1))
    diag, band = np.zeros(d), np.zeros(d - 1)
    plus = np.concatenate([diag, c, band, [0.0]]).astype(complex)
    minus = np.conj(np.concatenate([diag, band, c, [0.0]]).astype(complex))
    az = np.concatenate([m, band, band, [0.0]]).astype(complex)
    where = np.full(d * d, 3 * d - 2)
    where[np.r_[0:d * d:d + 1, 1:d * d:d + 1, d:d * d:d + 1]] = np.arange(3 * d - 2)
    bands = ((plus + minus) / 2.0, (plus - minus) / 2.0j, az, plus, minus,
             where.reshape(d, d))
    for b in bands:
        b.setflags(write=False)
    return bands


def component_operator(two_r: int, a) -> np.ndarray:
    """Spin component n . A along the unit direction a; spectrum -r..+r.

    n . A is tridiagonal: it is filled from its three diagonals and one
    off-band entry, O(d) arithmetic, with the bits of the dense sum
    n0 A_x + n1 A_y + n2 A_z."""
    two_r = _whole(two_r, "two_r")
    n = as_direction(a)
    ax, ay, az, _, _, where = _bands(two_r)
    return (n[0] * ax + n[1] * ay + n[2] * az)[where]


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
    a = _direction_array(dirs, (-1, 3))
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
    return _canonical_phase(coherent_states(two_r, _direction_array(a, 3))[0])


def _canonical_phase(v: np.ndarray) -> np.ndarray:
    idx = np.nonzero(np.abs(v) > 1e-12)[0]
    if len(idx) == 0:
        return v
    lead = v[idx[0]]
    return v * (np.conj(lead) / np.abs(lead))


@lru_cache(maxsize=8)
def _sphere_quadrature(order: int) -> tuple:
    """(directions, weights) of the product quadrature on the sphere:
    Gauss-Legendre in cos(theta), uniform azimuth (trapezoid, exact for
    the trigonometric polynomials involved).  They depend on the order
    alone, so they are computed once per order; read-only."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    phis = 2.0 * np.pi * np.arange(order) / order
    c, phi = np.repeat(nodes, order), np.tile(phis, order)
    s = np.sqrt(1.0 - c * c)
    quadrature = (np.stack([s * np.cos(phi), s * np.sin(phi), c], 1),
                  np.repeat(weights, order) * (2.0 * np.pi / order))
    for a in quadrature:
        a.setflags(write=False)
    return quadrature


def resolution_deviation(two_r: int, order: int) -> float:
    """Max-norm deviation of (d/4pi) * integral |a><a| dOmega from I.

    All order^2 nodes of ``_sphere_quadrature`` enter one product
    A^T diag(w) conj(A).
    """
    two_r, order = _whole(two_r, "two_r"), _whole(order, "order")
    d = two_r + 1
    if d == 1:
        return 0.0
    if order < two_r + 2:
        raise DomainError(f"quadrature order {order} < 2r+2 = {two_r + 2}")
    directions, weights = _sphere_quadrature(order)
    amps = coherent_states(two_r, directions)
    acc = (amps.T * (weights * d / (4.0 * np.pi))) @ amps.conj()
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
