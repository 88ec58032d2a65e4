"""Square matrices and vectors over a FieldCtx: orders, eigenvalues, independence.

MatEntity and VecEntity are values; computation runs on their flat residues
(residue_map), and Krylov independence is a determinant of residue rows by
elimination, checked for a whole stack of residue starts and maps at once
(krylov_independent; independence_checks on (v, A) pairs). Characteristic
polynomials use per-dimension closed forms (n <= 3). Every monic quadratic has
its roots from one array root finder over residue rows (_quadratic_roots: an
Euler test and one residue_sqrt on the discriminants), called with one row by
char_poly_factor (n = 2, and the quadratic cofactor of an n = 3 cubic). For
n = 3 the base roots come from one Horner evaluation of the cubic on the
residue rows of every field element (residue_product), each root then peeled
off by synthetic division; eigenvalues land in the quadratic extension when
needed. Diagonalizability and orders are read off those eigenvalues; only
n >= 4 or eigenvalues beyond the quadratic extension fall back to capped
power iteration. The SL_2 companions of a prime come as one array trace
table (sl2_table): their classes, orders and residue maps from one walk of
each centralizer torus, with no matrix and no root finder per trace. It
keeps both walks, and torus(class, tau) reads from them by stride the tau
rows that stand for the power orbit of every A_u of that key.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateParameters,
    InvariantViolated,
    MixedContext,
    OrderCapExceeded,
    UnsupportedDimension,
    WrongDegree,
    ZeroVector,
    over_budget,
)
from .ffield import (FFElem, FieldCtx, _decode_keys, mul_matrix, mult_order, residue_inverse,
                     residue_orbit, residue_power, residue_product, residue_sqrt,
                     subgroup_of_order, subgroup_walk)

# Compared with the step count of matrix_order's iteration B -> B M (n >= 4, or
# eigenvalues beyond F_{p^2}): one residue matmul per step.
ORDER_ITERATION_CAP = 10 ** 6
# Compared with q: the n = 3 root scan evaluates the cubic at every element of F_q.
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


def _quadratic_roots(low: np.ndarray, ctx: FieldCtx) -> list:
    """(tag, roots, eigen_ctx) of each monic X^2 + c1 X + c0 over ctx, for a
    stack (N, 2, degree) of the residue rows (c0, c1), from one array pass.

    An Euler test on D = c1^2 - 4 c0 gives the tag (0 repeated, a square
    split, else irreducible), and one residue_sqrt the s = sqrt(D), or over
    F_p the s = sqrt(D / r) w in F_{p^2} (D / r is then a square of F_p);
    the roots are (-c1 + s) / 2, then (-c1 - s) / 2. Over F_{p^2} a
    non-square D leaves roots and eigen_ctx None: they would need a quartic
    extension.
    """
    p, ext = ctx.p, ctx.ext_field()
    c0, c1 = low[:, 0], low[:, 1]
    disc = (residue_product(c1, c1, ctx) - 4 * c0) % p
    euler = residue_power(disc, ctx.group_order // 2, ctx)[:, :1]
    # a non-square D of F_p is r (D / r); over F_{p^2} its roots are not taken
    scale = pow(ext.r, p - 2, p) if ctx.degree == 1 else 0
    radicand = np.where(euler == p - 1, disc * scale % p, disc)
    half = (p + 1) // 2
    center = -c1 * half % p
    offset = residue_sqrt(radicand, ctx) * half % p
    out = []
    for square, plus, minus, m, s in zip(euler[:, 0].tolist(), ((center + offset) % p).tolist(),
                                         ((center - offset) % p).tolist(),
                                         center[:, 0].tolist(), offset[:, 0].tolist()):
        if square in (0, 1):
            tag = "split" if square else "repeated"
            out.append((tag, (ctx.elem(*plus), ctx.elem(*minus)), ctx))
        elif ctx.degree == 1:
            out.append(("irreducible", (ext.elem(m, s), ext.elem(m, -s)), ext))
        else:
            out.append(("irreducible", None, None))
    return out


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
        coeffs = (A.det(), -A.trace(), one)
        low = np.array([[c.residues() for c in coeffs[:2]]], dtype=np.int64)
        data = CharPolyData(coeffs, *_quadratic_roots(low, ctx)[0])
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
    if err := over_budget("cubic root scan q", ctx.q, _ROOT_SCAN_CAP):
        raise err
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
    low = np.array([[c.residues() for c in rem[:2]]], dtype=np.int64)
    _, qroots, ectx = _quadratic_roots(low, ctx)[0]
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


def krylov_independent(starts: np.ndarray, maps: np.ndarray, ctx: FieldCtx) -> np.ndarray:
    """Whether s, M s, ..., M^(n-1) s span F_q^n, for each residue row s of
    starts (N, n degree) and its residue map M of maps (N, n degree, n degree)
    over ctx: the Krylov matrix with these n vectors as rows has nonzero
    determinant.  A zero start is never independent.

    The Krylov rows are one stack of residue_orbit walks, and their
    determinants one stacked residue_dets.
    """
    n = starts.shape[1] // ctx.degree
    orbit = residue_orbit(maps, starts, n - 1, ctx.p)
    krylov = np.concatenate((starts[:, None, :], orbit), axis=1)
    return residue_dets(krylov.reshape(len(starts), n, n, ctx.degree), ctx).any(axis=1)


def independence_checks(pairs) -> np.ndarray:
    """Whether v, vA, ..., vA^(n-1) (rows) or v, Av, ... (columns) span F_q^n
    for every (v, A) pair over one field with one n: krylov_independent on
    the residues of each v and the residue_map of A on v's side.
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
    return krylov_independent(starts, maps, ctx)


def sl2_companion(ctx: FieldCtx, u: int) -> MatEntity:
    """The determinant-one companion matrix [[0, -1], [1, u]] with trace u."""
    return MatEntity.from_ints(ctx, [[0, -1], [1, u]])


class SL2Table(NamedTuple):
    """The SL_2 trace table of a prime (sl2_table), indexed by the trace u.

    tags: the class of A_u, "split", "irreducible" or "repeated" (u = +-2);
    tau: the order of A_u, an int; maps: the (p, 2, 2) column residue maps
    A_u over F_p (the row maps are their transposes); tori: for each class
    its torus walk, one residue row per power z^k, k = 1..size, of its
    generator: (g^k, g^-k) over F_p x F_p (split, size p - 1, g primitive in
    F_p) and w^k over F_{p^2} (irreducible, size p + 1, w of norm one).
    """

    ctx: FieldCtx
    tags: list
    tau: list
    maps: np.ndarray
    tori: dict

    def torus(self, tag: str, tau: int) -> np.ndarray:
        """The tau rows z^s, z^2s, ..., z^(tau s) = 1 (s = size / tau) of the
        order-tau subgroup of the class's torus, read from its walk by stride.
        The powers of A_u lie in F_p[A_u], which is F_p x F_p (split) or
        F_{p^2} (irreducible), so for every A_u of the (class, tau) key these
        rows are its power orbit up to an F_p-linear bijection.  A class with
        no torus, or a tau that does not divide its size, raises ValueError."""
        walk = self.tori.get(tag)
        if walk is None or tau < 1 or len(walk) % tau:
            raise ValueError(f"the {tag!r} torus has no subgroup of order {tau}")
        step = len(walk) // tau
        return walk[step - 1::step]


def sl2_table(ctx: FieldCtx) -> SL2Table:
    """The classes, orders, residue maps and torus walks of every
    sl2_companion(ctx, u) over F_p, u = 0, ..., p - 1, from one array pass
    over the traces: no matrix is built and no root is found.

    Each torus is one subgroup_walk, the subgroup of order p - 1 of F_p* or
    p + 1 of F_{p^2}*, kept as the table's tori. Its k-th row z^k has the
    trace u = z^k + z^-k of the A_u whose eigenvalues are z^(+-k), so the
    walk gives that A_u its class and its order, (p - 1) / gcd(k, p - 1)
    (split) or (p + 1) / gcd(k, p + 1) (irreducible). At u = +-2 the
    eigenvalue +-1 repeats and A_u is no scalar, so its class is repeated
    and its order p ord(+-1).
    """
    if ctx.degree != 1:
        raise WrongDegree("the trace table is built over a prime field")
    p, ext = ctx.p, ctx.ext_field()
    tags = np.empty(p, dtype=object)
    tau = np.empty(p, dtype=np.int64)
    tori = {}
    for tag, field, size in (("split", ctx, p - 1), ("irreducible", ext, p + 1)):
        walk = subgroup_walk(subgroup_of_order(field, size))
        inverse = residue_inverse(walk, field)
        trace = (walk + inverse)[:, 0] % p
        tags[trace] = tag
        tau[trace] = size // np.gcd(np.arange(1, size + 1), size)
        tori[tag] = np.hstack((walk, inverse)) if tag == "split" else walk
    tags[[2, p - 2]] = "repeated"
    tau[[2, p - 2]] *= p
    maps = np.zeros((p, 2, 2), dtype=np.int64)
    maps[:, 0, 1], maps[:, 1, 0], maps[:, 1, 1] = p - 1, 1, np.arange(p)
    return SL2Table(ctx, tags.tolist(), tau.tolist(), maps, tori)
