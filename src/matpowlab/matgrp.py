"""Square matrices and vectors over a FieldCtx: orders, eigenvalues, independence.

MatEntity and VecEntity are values; computation runs on their flat residues
(residue_map), and Krylov independence is a determinant of residue rows by
elimination, checked for a whole stack of (v, A) pairs at once. Characteristic
polynomials use per-dimension closed forms (n <= 3). Roots are located by
discriminant analysis (n = 2), or for n = 3 by one Horner evaluation of the
cubic on the residue rows of every field element (residue_product), each root
then peeled off by synthetic division; eigenvalues land in the quadratic
extension when needed. Diagonalizability and orders are read off those
eigenvalues; only n >= 4 or eigenvalues beyond the quadratic extension fall
back to capped power iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetExceeded,
    DegenerateParameters,
    InvariantViolated,
    MixedContext,
    NormNotOne,
    OrderCapExceeded,
    UnsupportedDimension,
    WrongDegree,
    ZeroElement,
    ZeroVector,
)
from .ffield import (FFElem, FieldCtx, _decode_keys, is_square, mul_matrix, mult_order,
                     residue_orbit, residue_inverse, residue_product, sqrt, trace_norm)

ORDER_ITERATION_CAP = 10 ** 6
_ROOT_SCAN_CAP = 10 ** 6
_ROOT_SCAN_BLOCK = 2 ** 16


class VecEntity:
    """Immutable row or column vector over a FieldCtx (a value, no arithmetic)."""

    __slots__ = ("ctx", "entries", "orientation")

    def __init__(self, entries, orientation: str = "row"):
        entries = tuple(entries)
        if not entries:
            raise ZeroVector("empty vector")
        if orientation not in ("row", "column"):
            raise ValueError(f"bad orientation {orientation!r}")
        ctx = entries[0].ctx
        for x in entries:
            if x.ctx is not ctx and x.ctx != ctx:
                raise MixedContext("vector entries from different fields")
        self.ctx = ctx
        self.entries = entries
        self.orientation = orientation

    @property
    def n(self) -> int:
        return len(self.entries)

    def __bool__(self):
        return any(self.entries)

    def __eq__(self, other):
        if not isinstance(other, VecEntity):
            return NotImplemented
        return (
            self.ctx == other.ctx
            and self.orientation == other.orientation
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.ctx, self.orientation, self.entries))

    def __repr__(self):
        shape = "row" if self.orientation == "row" else "col"
        return f"VecEntity({shape}, {list(self.entries)!r})"

    def residues(self) -> tuple[int, ...]:
        """Flat canonical coordinates, length n * degree."""
        out = []
        for x in self.entries:
            out.extend(x.residues())
        return tuple(out)


class MatEntity:
    """Immutable n x n matrix over a FieldCtx (a value), with cached eigen analysis."""

    __slots__ = ("ctx", "n", "rows", "_charpoly", "_order", "_det", "_maps")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise ValueError("matrix must be square and nonempty")
        ctx = rows[0][0].ctx
        for r in rows:
            for x in r:
                if x.ctx is not ctx and x.ctx != ctx:
                    raise MixedContext("matrix entries from different fields")
        self.ctx = ctx
        self.n = n
        self.rows = rows
        self._charpoly = None
        self._order = None
        self._det = None
        self._maps = {}

    # ---- construction helpers -------------------------------------------------

    @staticmethod
    def from_ints(ctx: FieldCtx, rows) -> MatEntity:
        return MatEntity([[ctx.elem(v) for v in r] for r in rows])

    @staticmethod
    def identity(ctx: FieldCtx, n: int) -> MatEntity:
        return MatEntity(
            [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]
        )

    # ---- value semantics and invariants ---------------------------------------

    def __eq__(self, other):
        if not isinstance(other, MatEntity):
            return NotImplemented
        return self.ctx == other.ctx and self.rows == other.rows

    def __hash__(self):
        return hash((self.ctx, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(repr(x) for x in r) for r in self.rows)
        return f"MatEntity[{body}]"

    def is_identity(self) -> bool:
        return self == MatEntity.identity(self.ctx, self.n)

    def trace(self) -> FFElem:
        acc = self.ctx.zero
        for i in range(self.n):
            acc = acc + self.rows[i][i]
        return acc

    def det(self) -> FFElem:
        """Determinant: ad - bc and the six-term expansion for n <= 3, else
        elimination on residue rows (residue_dets)."""
        if self._det is None:
            r = self.rows
            if self.n == 1:
                self._det = r[0][0]
            elif self.n == 2:
                self._det = r[0][0] * r[1][1] - r[0][1] * r[1][0]
            elif self.n == 3:
                self._det = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
                             - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
                             + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
            else:
                residues = np.array(self.residues()).reshape(1, self.n, self.n, -1)
                self._det = self.ctx.elem(*residue_dets(residues, self.ctx)[0].tolist())
        return self._det

    def residues(self) -> tuple[int, ...]:
        """Row-major flat canonical coordinates, length n^2 * degree."""
        out = []
        for r in self.rows:
            for x in r:
                out.extend(x.residues())
        return tuple(out)


# ---- flat residue layout ------------------------------------------------------------


def residue_map(A: MatEntity, side: str) -> np.ndarray:
    """Integer matrix of v -> v A (side "row") or v -> A v ("column") on flat residues.

    Entry i of a vector fills residue coordinates i d .. i d + d - 1 (d the
    degree). The column side is a ring map from n x n matrices over F_q into
    integer matrices mod p: block (i, j) is mul_matrix(A[i][j]). Each side
    is built once per matrix and cached on it, read-only.
    """
    if side not in A._maps:
        n, d = A.n, A.ctx.degree
        blocks = np.empty((n, n, d, d), dtype=np.int64)
        for i, row in enumerate(A.rows):
            for j, x in enumerate(row):
                blocks[i, j] = mul_matrix(x)
        if side == "row":
            blocks = blocks.transpose(1, 0, 2, 3)
        flat = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
        flat.flags.writeable = False
        A._maps[side] = flat
    return A._maps[side]


def check_vector_orbit(v: VecEntity, A: MatEntity):
    """Reject an orbit of v under A that is trivial or mixes fields or dimensions."""
    if not v:
        raise ZeroVector("orbit of the zero vector is trivial")
    if v.ctx != A.ctx:
        raise MixedContext("vector and matrix field contexts differ")
    if v.n != A.n:
        raise ValueError("dimension mismatch")


# ---- characteristic polynomial and eigenvalues ------------------------------------


@dataclass
class CharPolyData:
    """Monic characteristic polynomial plus its factorization shape.

    coeffs: ascending coefficients, length n + 1, leading term one.
    tag: split | irreducible | repeated | mixed.
    eigenvalues: all n roots with multiplicity in eigen_ctx, or None when they
    live beyond a quadratic extension of the base field.
    """

    coeffs: tuple
    tag: str
    eigenvalues: tuple | None
    eigen_ctx: FieldCtx | None


def _quadratic_roots(c0, c1, ctx):
    """Roots of X^2 + c1 X + c0 over ctx, or its quadratic extension, or None."""
    inv2 = ctx.elem(2).inverse()
    disc = c1 * c1 - ctx.elem(4) * c0
    if not disc:
        lam = -c1 * inv2
        return (lam, lam), ctx, True
    if is_square(disc):
        s = sqrt(disc)
        return ((-c1 + s) * inv2, (-c1 - s) * inv2), ctx, False
    if ctx.degree == 2:
        return None, None, False  # roots would need a quartic extension
    ext = ctx.ext_field()
    # disc = r * w^2 with w = sqrt(disc / r) in F_p, so sqrt(disc) = w * omega
    w = sqrt(ctx.elem(disc.c0 * pow(ext.r, ctx.p - 2, ctx.p)))
    s = ext.elem(0, w.c0)
    c1e, inv2e = ext.lift(c1), ext.lift(inv2)
    return ((-c1e + s) * inv2e, (-c1e - s) * inv2e), ext, False


def char_poly_factor(A: MatEntity) -> CharPolyData:
    """Characteristic polynomial with factorization tag and eigenvalues (n <= 3)."""
    if A._charpoly is not None:
        return A._charpoly
    ctx, n = A.ctx, A.n
    if n > 3:
        raise UnsupportedDimension(f"eigen analysis implemented for n <= 3, got {n}")
    one = ctx.one
    if n == 1:
        lam = A.rows[0][0]
        data = CharPolyData((-lam, one), "split", (lam,), ctx)
    elif n == 2:
        tr, det = A.trace(), A.det()
        coeffs = (det, -tr, one)
        roots, ectx, rep = _quadratic_roots(det, -tr, ctx)
        if roots is None:
            data = CharPolyData(coeffs, "irreducible", None, None)
        else:
            tag = "repeated" if rep else ("split" if ectx == ctx else "irreducible")
            data = CharPolyData(coeffs, tag, roots, ectx)
    else:
        tr = A.trace()
        m2 = _principal_minor_sum(A)
        det = A.det()
        coeffs = (-det, m2, -tr, one)
        data = _cubic_factor(coeffs, ctx)
    A._charpoly = data
    return data


def _principal_minor_sum(A: MatEntity) -> FFElem:
    acc = A.ctx.zero
    r = A.rows
    for i in range(3):
        for j in range(i + 1, 3):
            acc = acc + r[i][i] * r[j][j] - r[i][j] * r[j][i]
    return acc


def _synthetic_division(coeffs, z):
    """Quotient (ascending coefficients) and remainder of a polynomial by X - z."""
    acc, quotient = coeffs[-1], []
    for c in reversed(coeffs[:-1]):
        quotient.append(acc)
        acc = c + z * acc
    return quotient[::-1], acc


def _cubic_factor(coeffs, ctx) -> CharPolyData:
    """Factor the monic cubic: its roots in F_q come from one Horner evaluation
    on the residue rows of the field's elements (index order, blocks of
    _ROOT_SCAN_BLOCK), and each is peeled off with its multiplicity by
    synthetic division; one root leaves a monic quadratic cofactor."""
    if ctx.q > _ROOT_SCAN_CAP:
        raise BudgetExceeded(
            f"cubic root scan over q = {ctx.q} exceeds {_ROOT_SCAN_CAP}",
            estimated_work=ctx.q,
        )
    p = ctx.p
    residues = np.array([c.residues() for c in coeffs], dtype=np.int64)
    roots = []
    for start in range(0, ctx.q, _ROOT_SCAN_BLOCK):
        w = np.arange(start, min(start + _ROOT_SCAN_BLOCK, ctx.q))
        x = _decode_keys(w, p, ctx.degree)
        value = residues[-1]
        for c in residues[-2::-1]:
            value = (residue_product(value, x, ctx) + c) % p
        hits = np.flatnonzero(~value.any(axis=1))[:3 - len(roots)]
        roots.extend(ctx.from_index(start + int(i)) for i in hits)
        if len(roots) == 3:
            break
    with_mult, rem = [], list(coeffs)
    for z in roots:
        quotient, remainder = _synthetic_division(rem, z)
        if remainder:
            raise InvariantViolated(f"scanned root {z!r} left a nonzero remainder")
        while not remainder:
            rem = quotient
            with_mult.append(z)
            quotient, remainder = _synthetic_division(rem, z)
    k = len(with_mult)
    if k == 3:
        tag = "repeated" if len(set(with_mult)) < 3 else "split"
        return CharPolyData(tuple(coeffs), tag, tuple(with_mult), ctx)
    if k == 0:
        return CharPolyData(tuple(coeffs), "irreducible", None, None)
    # one base root and a monic quadratic cofactor rem (k == 2 is impossible over
    # a field); the scan found no root of rem in F_q, so its discriminant is nonzero
    qroots, ectx, _ = _quadratic_roots(rem[0], rem[1], ctx)
    if qroots is None:
        return CharPolyData(tuple(coeffs), "mixed", None, None)
    lifted = tuple([ectx.lift(with_mult[0])] + list(qroots))
    return CharPolyData(tuple(coeffs), "mixed", lifted, ectx)


def is_diagonalizable(A: MatEntity) -> bool:
    """True iff A is diagonalizable over an extension field (semisimple).

    Distinct eigenvalues make the minimal polynomial squarefree. Repeated ones
    (n <= 3) lie in F_q, and then A is semisimple iff the product of (A - lam I)
    over the distinct eigenvalues lam vanishes. The product is taken mod p on
    the column residue map, which is injective and sends lam I to
    kron(I_n, mul_matrix(lam)).
    """
    data = char_poly_factor(A)
    if data.tag != "repeated":
        return True
    M = residue_map(A, "column")
    vanished = np.eye(M.shape[0], dtype=np.int64)
    for lam in set(data.eigenvalues):
        shifted = M - np.kron(np.eye(A.n, dtype=np.int64), mul_matrix(lam))
        vanished = vanished @ shifted % A.ctx.p
    return not vanished.any()


def frobenius_orders(values) -> list[int]:
    """mult_order of each value, once per Frobenius orbit {x, x^p}: the
    automorphism x -> x^p keeps orders, so conjugates share theirs."""
    known = {}
    for x in values:
        if x not in known:
            known[x] = known[x.frobenius()] = mult_order(x)
    return [known[x] for x in values]


def matrix_order(A: MatEntity) -> int:
    """Order of A in GL_n, read off its eigenvalues when they lie in F_{q^2}.

    A = S U (Jordan-Chevalley): S semisimple of order lcm(ord lam_i), prime to
    p, and U unipotent, of order p unless A is diagonalizable, since
    (U - I)^n = 0 with n <= 3 <= p. One mult_order per Frobenius orbit of
    eigenvalues. Other matrices are iterated on their residue map under a cap.
    """
    if A._order is not None:
        return A._order
    if not A.det():
        raise DegenerateParameters("singular matrix has no multiplicative order")
    eigenvalues = char_poly_factor(A).eigenvalues if A.n <= 3 else None
    if eigenvalues is not None:
        tau = math.lcm(*frobenius_orders(eigenvalues))
        if not is_diagonalizable(A):
            tau *= A.ctx.p
    else:
        M = residue_map(A, "row")
        identity = np.eye(M.shape[0], dtype=np.int64)
        B, tau = M, 1
        while not np.array_equal(B, identity):
            B = B @ M % A.ctx.p
            tau += 1
            if tau > ORDER_ITERATION_CAP:
                raise OrderCapExceeded(f"order exceeds the cap {ORDER_ITERATION_CAP}")
    A._order = tau
    return tau


def det_order(A: MatEntity) -> int:
    """Multiplicative order t of det(A)."""
    d = A.det()
    if not d:
        raise DegenerateParameters("singular matrix")
    return mult_order(d)


def independence_check(v: VecEntity, A: MatEntity) -> bool:
    """Whether v, vA, ..., vA^(n-1) (rows) or v, Av, ... (columns) span F_q^n,
    i.e. the Krylov matrix with these n vectors as rows has nonzero determinant."""
    return bool(independence_checks([(v, A)])[0])


def residue_dets(mats: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Residues (N, degree) of the determinants of a stack (N, n, n, degree) of
    matrices over ctx with reduced entries, by Gaussian elimination on the
    whole stack at once.

    Column by column, each matrix takes its first nonzero entry on or below
    the diagonal as pivot (a row swap negates the determinant), multiplies it
    into the determinant and clears the rows below it with residue_product:
    O(n^3) products for every n and both degrees. A singular matrix meets a
    zero pivot, whose residue_inverse is 0, and keeps determinant 0.
    """
    p, n = ctx.p, mats.shape[1]
    m = np.array(mats, dtype=np.int64)
    det = np.zeros((len(m), ctx.degree), dtype=np.int64)
    det[:, 0] = 1
    stack = np.arange(len(m))
    for col in range(n):
        pivot = col + m[:, col:, col].any(axis=-1).argmax(axis=1)
        swapped = pivot != col
        det[swapped] = -det[swapped] % p
        m[stack, col], m[stack, pivot] = m[stack, pivot], m[stack, col]
        lead = m[:, col, col]
        det = residue_product(det, lead, ctx)
        if col + 1 < n:
            inverse = residue_inverse(lead, ctx)[:, None]
            factors = residue_product(m[:, col + 1:, col], inverse, ctx)
            m[:, col + 1:] = (m[:, col + 1:]
                              - residue_product(factors[:, :, None], m[:, None, col], ctx)) % p
    return det


def independence_checks(pairs) -> np.ndarray:
    """independence_check of every (v, A) pair, for pairs over one field with one n.

    The Krylov rows of all pairs are one stack of residue_orbit walks, and
    their determinants one stacked residue_dets.
    """
    pairs = list(pairs)
    if not pairs:
        return np.zeros(0, dtype=bool)
    ctx, n = pairs[0][1].ctx, pairs[0][1].n
    for v, A in pairs:
        check_vector_orbit(v, A)
        if A.ctx != ctx:
            raise MixedContext("pairs live in different fields")
        if A.n != n:
            raise ValueError("pairs of different dimensions")
    starts = np.array([v.residues() for v, _ in pairs], dtype=np.int64)
    maps = np.stack([residue_map(A, v.orientation) for v, A in pairs])
    orbit = residue_orbit(maps, starts, n - 1, ctx.p)
    krylov = np.concatenate((starts[:, None, :], orbit), axis=1)
    return residue_dets(krylov.reshape(len(pairs), n, n, ctx.degree), ctx).any(axis=1)


def companion_realization(lam: FFElem, a: FFElem):
    """Rewrite x -> Tr(a lam^x) as a_vec A^x b_vec with A the trace companion in SL2.

    lam must lie on the norm-one subgroup of F_{p^2}; the returned data live
    over F_p.
    """
    ctx = lam.ctx
    if ctx.degree != 2:
        raise WrongDegree("companion realization needs a quadratic-extension element")
    if not a:
        raise ZeroElement("coefficient a must be nonzero")
    if a.ctx != ctx:
        raise MixedContext("a and lam must share a field")
    u, nrm = trace_norm(lam)
    if nrm != nrm.ctx.one:
        raise NormNotOne(f"norm of {lam!r} is {nrm!r}, need 1")
    base = ctx.base_field()
    A = sl2_companion(base, u.c0)
    tr_a, _ = trace_norm(a)
    tr_alam, _ = trace_norm(a * lam)
    a_vec = VecEntity([tr_a, tr_alam], "row")
    b_vec = VecEntity([base.one, base.zero], "column")
    return a_vec, b_vec, A


def sl2_companion(ctx: FieldCtx, u: int) -> MatEntity:
    """The determinant-one companion matrix [[0, -1], [1, u]] with trace u."""
    return MatEntity(
        [
            [ctx.zero, -ctx.one],
            [ctx.one, ctx.elem(u)],
        ]
    )
