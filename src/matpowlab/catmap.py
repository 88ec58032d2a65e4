"""Quantized torus automorphisms: translations, propagators, eigenspace defects."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

import numpy as np
import scipy.linalg
from numpy.linalg import eigh

from .counting import count_Q
from .errors import (
    BudgetExceeded,
    CompositeModulus,
    DegenerateParameters,
    DependentVectors,
    EvenModulus,
    InvariantViolated,
    NonRealObservable,
    SingularLowerLeft,
    UndecidedVerdict,
    over_budget,
)
from .ffield import _is_prime, make_field
from .matgrp import MatEntity, is_diagonalizable, matrix_order

# Compared, once scaled by the budget (errors.over_budget), with the N of an
# eigenbasis(): one dense N x N Hermitian eigh plus the block Schurs, and N**3
# is the estimated work of a skip.  512 is a budget choice, not a method limit.
EIGEN_DIM_CAP = 512
# Eigenvalues of U closer than CLUSTER_TOL share one eigenspace.
CLUSTER_TOL = 1e-8
# Sorted cosines further apart than this start a new block in eigenbasis();
# the block's eigenvectors are then accurate to about eps / _BLOCK_GAP.
_BLOCK_GAP = 1e-3
# Largest entry of U Z - Z Lambda and of a block's Z* Z - I that eigenbasis() accepts.
_EIGEN_TOL = 1e-9
# Phase-grid resolution for the numerical radius (even, so that the phases
# theta and theta + pi pair up); a grid maximum g brackets the radius in
# [g, g / cos(pi / PHASE_GRID)], about 1e-5 relative wide.
PHASE_GRID = 720
_PHASES = np.exp(1j * (np.arange(PHASE_GRID) * (2 * np.pi / PHASE_GRID)))

_REALITY_TOL = 1e-12


class Observable:
    """Trigonometric polynomial on the torus, stored by Fourier coefficients."""

    __slots__ = ("fourier", "real")

    def __init__(self, fourier: dict, real: bool = True) -> None:
        table = {}
        for key, coeff in fourier.items():
            a1, a2 = key
            table[(int(a1), int(a2))] = complex(coeff)
        if real:
            for (a1, a2), coeff in table.items():
                mirror = table.get((-a1, -a2), 0j)
                if abs(mirror - coeff.conjugate()) > _REALITY_TOL:
                    raise NonRealObservable(
                        f"coefficient at {(-a1, -a2)} must conjugate the one at {(a1, a2)}"
                    )
        self.fourier = table
        self.real = real

    @property
    def mean(self) -> complex:
        """Zero-mode coefficient, which is the average over the torus."""
        return self.fourier.get((0, 0), 0j)

    def __repr__(self) -> str:
        return f"Observable(modes={len(self.fourier)}, real={self.real})"


class CatMatrix:
    """Integer 2x2 torus automorphism: unit determinant, hyperbolic, even products."""

    __slots__ = ("a11", "a12", "a21", "a22")

    def __init__(self, a11: int, a12: int, a21: int, a22: int) -> None:
        for v in (a11, a12, a21, a22):
            if not isinstance(v, int):
                raise ValueError(f"entries must be integers, got {v!r}")
        if a11 * a22 - a12 * a21 != 1:
            raise DegenerateParameters("determinant must be one")
        if abs(a11 + a22) <= 2:
            raise DegenerateParameters("trace must exceed two in absolute value")
        if a11 * a12 % 2 != 0 or a21 * a22 % 2 != 0:
            raise DegenerateParameters("row products must both be even")
        self.a11, self.a12, self.a21, self.a22 = a11, a12, a21, a22

    @property
    def trace(self) -> int:
        return self.a11 + self.a22

    def image_of(self, a: tuple) -> tuple:
        """Image of an integer row pair under right multiplication."""
        a1, a2 = a
        return (a1 * self.a11 + a2 * self.a21, a1 * self.a12 + a2 * self.a22)

    def mod_matrix(self, p: int) -> MatEntity:
        """Reduction to the 2x2 matrix over the prime field."""
        ctx = make_field(p)
        return MatEntity.from_ints(ctx, [[self.a11, self.a12], [self.a21, self.a22]])

    def __repr__(self) -> str:
        return f"CatMatrix([[{self.a11}, {self.a12}], [{self.a21}, {self.a22}]])"


class EigenSpace(NamedTuple):
    eigenvalue: complex
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[1]


@dataclass(frozen=True)
class MatrixElementReport:
    """Eigenfunction matrix-element power against the orbit-count ceiling."""

    p: int
    nu: int
    a: tuple
    tau: int
    orbit_count: int
    sup_abs: float
    sup_power: float
    bound: float
    ratio: float
    passed: bool


def translation_op(N: int, a: tuple) -> np.ndarray:
    """Phase-twisted shift operator; the pair a matters modulo 2N, not N."""
    if N < 1:
        raise ValueError(f"modulus must be positive, got {N}")
    a1, a2 = int(a[0]), int(a[1])
    u = np.arange(N)
    half = np.exp(1j * np.pi * ((a1 * a2) % (2 * N)) / N)
    row_phase = half * np.exp(2j * np.pi * ((a2 * u) % N) / N)
    mat = np.zeros((N, N), dtype=np.complex128)
    mat[u, (u + a1) % N] = row_phase
    return mat


def quantize(N: int, f: Observable) -> np.ndarray:
    """Coefficient-weighted sum of translation operators for each Fourier mode.

    T(a)* = T(-a), so a real observable, whose coefficient at -a conjugates the
    one at a (Observable checks this), quantizes to a Hermitian matrix.
    """
    total = np.zeros((N, N), dtype=np.complex128)
    for a, coeff in f.fourier.items():
        if coeff != 0:
            total += coeff * translation_op(N, a)
    return total


def _require_odd_prime(N: int) -> None:
    if N % 2 == 0:
        raise EvenModulus(f"modulus must be odd, got {N}")
    if not _is_prime(N):
        raise CompositeModulus(f"modulus must be an odd prime, got {N}")


def cat_unitary(N: int, A: CatMatrix) -> np.ndarray:
    """Quadratic-kernel propagator implementing the automorphism on wavefunctions."""
    _require_odd_prime(N)
    if gcd(A.a21, N) != 1:
        raise SingularLowerLeft(f"lower-left entry {A.a21} shares a factor with {N}")
    c = pow(2 * A.a21 % N, -1, N)
    q = np.arange(N, dtype=np.int64)
    col = q[None, :]
    row = q[:, None]
    expo = (c * ((A.a11 % N) * col * col - 2 * col * row + (A.a22 % N) * row * row)) % N
    table = np.exp(2j * np.pi * np.arange(N) / N)
    mat = table[expo] / np.sqrt(N)
    # Global phase: rotate so the first nonzero entry of column zero is real positive.
    first = mat[:, 0]
    k = int(np.argmax(np.abs(first) > 1e-12))
    return mat * (abs(first[k]) / first[k])


def egorov_defect(U: np.ndarray, A: CatMatrix, a: tuple) -> float:
    """Phase-minimized Frobenius distance between U* T(a) U and T(a A)."""
    N = len(U)
    lhs = U.conj().T @ translation_op(N, a) @ U
    rhs = translation_op(N, A.image_of(a))
    overlap = np.trace(rhs.conj().T @ lhs)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.linalg.norm(lhs - phase * rhs))


def eigenbasis(U: np.ndarray, budget: float = 1.0) -> list:
    """Eigenvalue clusters with bases orthonormal under the mean-weighted product.

    For a unitary U the Hermitian part H = (U + U*) / 2 commutes with U and
    has the eigenvalues cos(theta).  One eigh of H cuts C^N into U-invariant
    blocks wherever consecutive cosines differ by more than _BLOCK_GAP, and U
    compressed to each block is diagonalized by a small complex Schur, one
    batched call per block size.  Raises InvariantViolated when the eigen
    residual U Z - Z Lambda, a block's Gram matrix Z* Z - I or some
    ||lambda| - 1| exceeds _EIGEN_TOL.  The blocks span orthogonal eigh
    columns, so passing all three checks shows U = Z Lambda Z* is unitary.
    """
    U = np.asarray(U, dtype=np.complex128)
    if U.ndim != 2 or U.shape[0] != U.shape[1]:
        raise ValueError(f"eigenbasis needs a square matrix, got shape {U.shape}")
    N = len(U)
    if err := over_budget("eigenbasis dimension", N, EIGEN_DIM_CAP, budget, work=N**3):
        raise err
    cosines, herm_vecs = eigh((U + U.conj().T) / 2)
    images = U @ herm_vecs
    blocks = np.split(np.arange(N), np.flatnonzero(np.diff(cosines) > _BLOCK_GAP) + 1)
    eigs = np.empty(N, dtype=np.complex128)
    vecs = np.empty((N, N), dtype=np.complex128)
    for size in sorted({len(block) for block in blocks}):
        cols = np.array([block for block in blocks if len(block) == size])
        # (blocks, N, size) stacks of the block vectors and their images under U.
        sub = np.moveaxis(herm_vecs[:, cols], 0, 1)
        moved = np.moveaxis(images[:, cols], 0, 1)
        tri, rot = scipy.linalg.schur(np.conj(sub.transpose(0, 2, 1)) @ moved,
                                      output="complex", check_finite=False)
        vals = np.diagonal(tri, axis1=1, axis2=2)
        block_vecs = sub @ rot
        residual = np.max(np.abs(moved @ rot - block_vecs * vals[:, None, :]))
        gram = np.conj(block_vecs.transpose(0, 2, 1)) @ block_vecs - np.eye(size)
        defect = max(residual, float(np.max(np.abs(gram))),
                     float(np.max(np.abs(np.abs(vals) - 1))))
        if not defect <= _EIGEN_TOL:
            raise InvariantViolated(
                f"eigenbasis defect {defect:.3e} exceeds {_EIGEN_TOL} on {size}-blocks"
            )
        eigs[cols] = vals
        vecs[:, cols] = np.moveaxis(block_vecs, 1, 0)
    order = np.argsort(np.angle(eigs), kind="stable")
    ring = eigs[order]
    clusters = np.split(order, np.flatnonzero(np.abs(np.diff(ring)) > CLUSTER_TOL) + 1)
    # The circle wraps: the last cluster may continue into the first one.
    if len(clusters) > 1 and abs(ring[0] - ring[-1]) <= CLUSTER_TOL:
        clusters[0] = np.concatenate((clusters.pop(), clusters[0]))
    scaled = vecs * np.sqrt(N)
    spaces = []
    for members in clusters:
        rep = complex(np.mean(eigs[members]))
        rep /= abs(rep)
        spaces.append(EigenSpace(rep, scaled[:, members]))
    return spaces


def _compressions(U: np.ndarray, op: np.ndarray, budget: float) -> list:
    """Z_k* op Z_k / N for each eigenspace basis Z_k of the N x N propagator U, in
    eigenbasis order.

    The bases are stacked into one N x N matrix Z, so all compressions are the
    diagonal blocks of a single product Z* op Z / N.
    """
    N = len(U)
    spaces = eigenbasis(U, budget)
    stacked = np.concatenate([basis for _, basis in spaces], axis=1)
    full = stacked.conj().T @ op @ stacked / N
    ends = np.cumsum([space.dim for space in spaces])
    return [full[end - space.dim:end, end - space.dim:end] for space, end in zip(spaces, ends)]


def delta_Nf(U: np.ndarray, f: Observable, budget: float = 1.0) -> float:
    """Largest deviation of an eigenfunction average from the torus average, over
    the eigenfunctions of the N x N propagator U (see cat_unitary)."""
    if not f.real:
        raise NonRealObservable("the defect is defined for real observables only")
    # Dropping the zero mode subtracts the average exactly, mode by mode.
    centered = Observable(
        {a: c for a, c in f.fourier.items() if a != (0, 0)}, real=True
    )
    return max(float(np.max(np.abs(np.linalg.eigvalsh((comp + comp.conj().T) / 2))))
               for comp in _compressions(U, quantize(len(U), centered), budget))


def _numerical_radius(comp: np.ndarray) -> float:
    """Grid maximum of the top eigenvalue of the rotated Hermitian parts, floored at 0.

    The rotated part of C at phase theta is H(theta) = (e^{i theta} C + e^{-i theta} C*) / 2,
    taken over the PHASE_GRID phases.  A 1x1 block is its real part and a 2x2 block
    the closed-form top eigenvalue; larger blocks run eigvalsh on the first half of
    the grid only, as lambda_max(H(theta + pi)) = -lambda_min(H(theta)).
    """
    dim = comp.shape[0]
    spin = (_PHASES if dim <= 2 else _PHASES[:PHASE_GRID // 2])[:, None, None]
    herm = (spin * comp + np.conj(spin) * comp.conj().T) / 2
    if dim == 1:
        top = herm[:, 0, 0].real
    elif dim == 2:
        a, d = herm[:, 0, 0].real, herm[:, 1, 1].real
        top = (a + d) / 2 + np.hypot((a - d) / 2, np.abs(herm[:, 0, 1]))
    else:
        vals = np.linalg.eigvalsh(herm)
        top = np.maximum(vals[:, -1], -vals[:, 0])
    return max(0.0, float(top.max()))


def _element_sup(U: np.ndarray, a: tuple, budget: float) -> float:
    """Largest numerical radius of T(a) compressed to an eigenspace of the propagator U."""
    return max(_numerical_radius(comp)
               for comp in _compressions(U, translation_op(len(U), a), budget))


def matrix_element_check(A: CatMatrix, p: int, a: tuple, nus: tuple,
                         budget: float = 1.0) -> list:
    """Check the eigenfunction matrix-element power against the orbit-count ceiling, per nu.

    Returns one entry per exponent of nus, in order: a MatrixElementReport,
    passed iff the radius bracket [g, g / cos(pi / PHASE_GRID)] lies within the
    ceiling and failed (not raised) iff g^(2 nu) lies above it; an
    UndecidedVerdict when the bracket straddles the ceiling; or the
    BudgetExceeded that skipped the exponent.  Each exponent's orbit count
    (count_Q, whose tau cap budget scales) runs before the eigenbasis is
    touched; the propagator, its eigenbasis (EIGEN_DIM_CAP, scaled by the same
    budget) and the sup radius do not depend on nu, so each runs at most once.
    """
    if not all(nu in (2, 3) for nu in nus):
        raise ValueError(f"every nu must be 2 or 3, got {nus}")
    _require_odd_prime(p)
    a1, a2 = int(a[0]) % p, int(a[1]) % p
    img1, img2 = A.image_of((a1, a2))
    if (a1 * (img2 % p) - a2 * (img1 % p)) % p == 0:
        raise DependentVectors("the pair and its image must be independent mod p")
    reduced = A.mod_matrix(p)
    if not is_diagonalizable(reduced):
        raise DegenerateParameters("reduction mod p must be diagonalizable")
    tau = matrix_order(reduced)
    sup_abs = None  # the sup radius, or the BudgetExceeded of a capped eigenbasis
    reports = []
    for nu in nus:
        try:
            orbit_count = count_Q(reduced, nu, budget).value
        except BudgetExceeded as err:
            reports.append(err)
            continue
        if sup_abs is None:
            try:
                sup_abs = _element_sup(cat_unitary(p, A), (a1, a2), budget)
            except BudgetExceeded as err:
                sup_abs = err
        if isinstance(sup_abs, BudgetExceeded):
            reports.append(sup_abs)
            continue
        bound = p * orbit_count / tau ** (2 * nu)
        sup_power = sup_abs ** (2 * nu)
        if sup_power <= bound < (sup_abs / np.cos(np.pi / PHASE_GRID)) ** (2 * nu):
            reports.append(UndecidedVerdict(
                f"nu = {nu}: the radius bracket straddles the ceiling {bound}"))
            continue
        reports.append(MatrixElementReport(
            p=p,
            nu=nu,
            a=(a1, a2),
            tau=tau,
            orbit_count=orbit_count,
            sup_abs=sup_abs,
            sup_power=sup_power,
            bound=bound,
            ratio=sup_power / bound if bound else float("inf"),
            passed=sup_power <= bound,
        ))
    return reports
