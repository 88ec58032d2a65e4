"""Quantized torus automorphisms: translations, propagators, eigenspace defects."""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .counting import count_Q
from .errors import (
    BudgetExceeded,
    CompositeModulus,
    DegenerateParameters,
    DependentVectors,
    EvenModulus,
    NonRealObservable,
    SingularLowerLeft,
)
from .ffield import _is_prime, make_field
from .matgrp import MatEntity, is_diagonalizable, matrix_order

# Dense eigen-decomposition cap and clustering tolerance for eigenbasis().
EIGEN_DIM_CAP = 512
CLUSTER_TOL = 1e-8
# Phase-grid resolution for the numerical radius; the grid under-reads the
# radius by at most a factor cos(pi / PHASE_GRID), about 1e-5 relative.
PHASE_GRID = 720

_UNITARY_TOL = 1e-9
_HERMITIAN_TOL = 1e-12
_REALITY_TOL = 1e-12


class QState:
    """Wavefunction on Z_N, normalized so the mean square amplitude is one."""

    __slots__ = ("modulus", "amplitudes")

    def __init__(self, modulus: int, amplitudes) -> None:
        if modulus < 1:
            raise ValueError(f"modulus must be positive, got {modulus}")
        amps = np.asarray(amplitudes, dtype=np.complex128)
        if amps.shape != (modulus,):
            raise ValueError(f"expected {modulus} amplitudes, got shape {amps.shape}")
        total = float(np.sum(np.abs(amps) ** 2))
        if abs(total - modulus) > 1e-9:
            raise ValueError(f"state norm mismatch: sum of squares {total}, need {modulus}")
        self.modulus = modulus
        self.amplitudes = amps

    @staticmethod
    def normalized(modulus: int, amplitudes) -> "QState":
        """Scale an arbitrary nonzero vector onto the unit sphere of the mean-square product."""
        amps = np.asarray(amplitudes, dtype=np.complex128)
        total = float(np.sum(np.abs(amps) ** 2))
        if total == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return QState(modulus, amps * np.sqrt(modulus / total))

    def inner(self, other: "QState") -> complex:
        """Mean-weighted scalar product, conjugating the second argument."""
        if self.modulus != other.modulus:
            raise ValueError("states live on different moduli")
        return complex(np.sum(self.amplitudes * np.conj(other.amplitudes)) / self.modulus)

    def __repr__(self) -> str:
        return f"QState(N={self.modulus})"


class QOperator:
    """Dense operator on length-N wavefunctions with an optional structure tag."""

    __slots__ = ("modulus", "entries", "kind")

    def __init__(self, modulus: int, entries, kind: str = "generic") -> None:
        if kind not in ("generic", "unitary", "hermitian"):
            raise ValueError(f"unknown operator kind {kind!r}")
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.shape != (modulus, modulus):
            raise ValueError(f"expected {modulus}x{modulus} entries, got {mat.shape}")
        if kind == "unitary":
            defect = np.linalg.norm(mat @ mat.conj().T - np.eye(modulus))
            if defect > _UNITARY_TOL:
                raise ValueError(f"unitarity defect {defect:.3e} exceeds {_UNITARY_TOL}")
        elif kind == "hermitian":
            defect = float(np.max(np.abs(mat - mat.conj().T)))
            if defect > _HERMITIAN_TOL:
                raise ValueError(f"hermiticity defect {defect:.3e} exceeds {_HERMITIAN_TOL}")
        self.modulus = modulus
        self.entries = mat
        self.kind = kind

    def adjoint(self) -> "QOperator":
        """Conjugate transpose, keeping the unitary or hermitian tag."""
        return QOperator(self.modulus, self.entries.conj().T, self.kind)

    def apply(self, state: QState) -> np.ndarray:
        """Raw image vector of a state; not re-normalized."""
        if state.modulus != self.modulus:
            raise ValueError("state and operator moduli differ")
        return self.entries @ state.amplitudes

    def __matmul__(self, other: "QOperator") -> "QOperator":
        if not isinstance(other, QOperator):
            return NotImplemented
        if self.modulus != other.modulus:
            raise ValueError("operator moduli differ")
        return QOperator(self.modulus, self.entries @ other.entries)

    def __repr__(self) -> str:
        return f"QOperator(N={self.modulus}, kind={self.kind!r})"


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

    def mode_mass(self) -> float:
        """Total absolute mass of the nonzero modes."""
        return float(sum(abs(c) for a, c in self.fourier.items() if a != (0, 0)))

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


def translation_op(N: int, a: tuple) -> QOperator:
    """Phase-twisted shift operator; the pair a matters modulo 2N, not N."""
    if N < 1:
        raise ValueError(f"modulus must be positive, got {N}")
    a1, a2 = int(a[0]), int(a[1])
    u = np.arange(N)
    half = np.exp(1j * np.pi * ((a1 * a2) % (2 * N)) / N)
    row_phase = half * np.exp(2j * np.pi * ((a2 * u) % N) / N)
    mat = np.zeros((N, N), dtype=np.complex128)
    mat[u, (u + a1) % N] = row_phase
    return QOperator(N, mat, kind="unitary")


def quantize(N: int, f: Observable) -> QOperator:
    """Coefficient-weighted sum of translation operators for each Fourier mode."""
    total = np.zeros((N, N), dtype=np.complex128)
    for a, coeff in f.fourier.items():
        if coeff != 0:
            total += coeff * translation_op(N, a).entries
    return QOperator(N, total, kind="hermitian" if f.real else "generic")


def _require_odd_prime(N: int) -> None:
    if N % 2 == 0:
        raise EvenModulus(f"modulus must be odd, got {N}")
    if not _is_prime(N):
        raise CompositeModulus(f"modulus must be an odd prime, got {N}")


def cat_unitary(N: int, A: CatMatrix) -> QOperator:
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
    mat = mat * (abs(first[k]) / first[k])
    return QOperator(N, mat, kind="unitary")


def egorov_defect(U: QOperator, A: CatMatrix, a: tuple) -> float:
    """Phase-minimized Frobenius distance between U* T(a) U and T(a A)."""
    N = U.modulus
    lhs = U.entries.conj().T @ translation_op(N, a).entries @ U.entries
    rhs = translation_op(N, A.image_of(a)).entries
    overlap = np.trace(rhs.conj().T @ lhs)
    phase = overlap / abs(overlap) if abs(overlap) > 1e-12 else 1.0
    return float(np.linalg.norm(lhs - phase * rhs))


def eigenbasis(U: QOperator, max_dim: int = EIGEN_DIM_CAP) -> list:
    """Eigenvalue clusters with bases orthonormal under the mean-weighted product."""
    if U.kind != "unitary":
        raise ValueError("eigenbasis requires a unitary-tagged operator")
    N = U.modulus
    if N > max_dim:
        raise BudgetExceeded(
            f"dense eigen-decomposition capped at {max_dim}, got {N}",
            estimated_work=N**3,
        )
    schur_t, schur_z = scipy.linalg.schur(U.entries, output="complex")
    eigs = np.diag(schur_t)
    order = np.argsort(np.angle(eigs), kind="stable")
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        if abs(eigs[idx] - eigs[clusters[-1][-1]]) <= CLUSTER_TOL:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    # The circle wraps: the last cluster may continue into the first one.
    if len(clusters) > 1 and abs(eigs[clusters[0][0]] - eigs[clusters[-1][-1]]) <= CLUSTER_TOL:
        clusters[0] = clusters.pop() + clusters[0]
    scale = np.sqrt(N)
    spaces = []
    for members in clusters:
        rep = complex(np.mean(eigs[members]))
        rep /= abs(rep)
        spaces.append(EigenSpace(rep, schur_z[:, members] * scale))
    return spaces


def delta_Nf(A: CatMatrix, N: int, f: Observable, max_dim: int = EIGEN_DIM_CAP) -> float:
    """Largest deviation of an eigenfunction average from the torus average."""
    if not f.real:
        raise NonRealObservable("the defect is defined for real observables only")
    # Dropping the zero mode subtracts the average exactly, mode by mode.
    centered = Observable(
        {a: c for a, c in f.fourier.items() if a != (0, 0)}, real=True
    )
    op = quantize(N, centered).entries
    best = 0.0
    for _, basis in eigenbasis(cat_unitary(N, A), max_dim=max_dim):
        comp = basis.conj().T @ op @ basis / N
        comp = (comp + comp.conj().T) / 2
        vals = np.linalg.eigvalsh(comp)
        best = max(best, float(np.max(np.abs(vals))))
    return best


def _numerical_radius(comp: np.ndarray, grid: int = PHASE_GRID) -> float:
    """Grid maximum of the top eigenvalue of the rotated Hermitian parts, floored at 0."""
    spin = np.exp(1j * (np.arange(grid) * (2 * np.pi / grid)))[:, None, None]
    herm = (spin * comp + np.conj(spin) * comp.conj().T) / 2
    return max(0.0, float(np.linalg.eigvalsh(herm)[:, -1].max()))


def matrix_element_check(A: CatMatrix, p: int, a: tuple, nu: int, max_dim: int = EIGEN_DIM_CAP,
                         max_tau: int | None = None) -> MatrixElementReport:
    """Check the eigenfunction matrix-element power against the orbit-count ceiling.

    A power above the ceiling is reported with passed=False, not raised;
    max_tau caps the orbit count (count_Q) and max_dim the eigenbasis.
    """
    if nu not in (2, 3):
        raise ValueError(f"nu must be 2 or 3, got {nu}")
    _require_odd_prime(p)
    a1, a2 = int(a[0]) % p, int(a[1]) % p
    img1, img2 = A.image_of((a1, a2))
    if (a1 * (img2 % p) - a2 * (img1 % p)) % p == 0:
        raise DependentVectors("the pair and its image must be independent mod p")
    reduced = A.mod_matrix(p)
    if not is_diagonalizable(reduced):
        raise DegenerateParameters("reduction mod p must be diagonalizable")
    tau = matrix_order(reduced)
    orbit_count = count_Q(reduced, nu, max_tau).value
    bound = p * orbit_count / tau ** (2 * nu)
    shift = translation_op(p, (a1, a2)).entries
    sup_abs = 0.0
    for _, basis in eigenbasis(cat_unitary(p, A), max_dim=max_dim):
        comp = basis.conj().T @ shift @ basis / p
        sup_abs = max(sup_abs, _numerical_radius(comp))
    sup_power = sup_abs ** (2 * nu)
    return MatrixElementReport(
        p=p,
        nu=nu,
        a=(a1, a2),
        tau=tau,
        orbit_count=orbit_count,
        sup_abs=sup_abs,
        sup_power=sup_power,
        bound=bound,
        ratio=sup_power / bound if bound else float("inf"),
        passed=sup_power <= bound * (1 + 1e-6),
    )
