"""Independent brute-force oracles used to freeze expected values.

Everything here enumerates literally (tuples, repeated multiplication,
per-point evaluation) and avoids the production code paths on purpose.
Keep these dumb; speed comes from the small parameters only. The second
routes at the end (the eigenvalue reduction, the companion realization)
are built on the public kernels instead: each reaches a known value by a
different identity, so agreement checks the identity and the kernel.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math

import numpy as np

from matpowlab.charsums import analyze_instance, evaluate_bounds, matrix_exp_sum
from matpowlab.counting import sequence_energy
from matpowlab.errors import BudgetExceeded
from matpowlab.ffield import make_field
from matpowlab.harness import EXPERIMENT_NAMES, derive_stream
from matpowlab.matgrp import (VecEntity, char_poly_factor, is_diagonalizable, matrix_order,
                              sl2_companion)


# ---- vectors and matrices as tuples (rows) of FFElem --------------------------------


def add(u, v):
    """Entrywise sum of two vectors."""
    return tuple(a + b for a, b in zip(u, v))


def dot(u, v):
    """Coordinate dot product of two vectors."""
    return sum((a * b for a, b in zip(u, v)), u[0].ctx.zero)


def vec_mat(v, A):
    """The row vector v times the matrix with rows A."""
    return tuple(dot(v, col) for col in zip(*A))


def mat_add(A, B):
    return tuple(add(r, s) for r, s in zip(A, B))


def mat_mul(A, B):
    return tuple(vec_mat(r, B) for r in A)


def diagonal(entries):
    entries = list(entries)
    zero = entries[0].ctx.zero
    return tuple(tuple(x if i == j else zero for j in range(len(entries)))
                 for i, x in enumerate(entries))


def scalar(c, n):
    """c times the n x n identity."""
    return diagonal([c] * n)


def mat_inv(A):
    """Inverse by Gauss-Jordan elimination on [A | I]; ValueError if A is singular."""
    n = len(A)
    one = A[0][0].ctx.one
    aug = [list(r) + list(e) for r, e in zip(A, scalar(one, n))]
    for col in range(n):
        pivot = next((i for i in range(col, n) if aug[i][col]), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = aug[col][col].inverse()
        aug[col] = [inv * a for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col]:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return tuple(tuple(r[n:]) for r in aug)


def mat_pow(A, e):
    """A^e by e multiplications; a negative e powers the inverse."""
    if e < 0:
        return mat_pow(mat_inv(A), -e)
    out = scalar(A[0][0].ctx.one, len(A))
    for _ in range(e):
        out = mat_mul(out, A)
    return out


def rank(rows_in) -> int:
    """Rank of a list of FFElem rows by Gauss-Jordan elimination."""
    rows = [list(r) for r in rows_in]
    if not rows:
        return 0
    m, n = len(rows), len(rows[0])
    rk = 0
    for col in range(n):
        pivot = next((i for i in range(rk, m) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rk], rows[pivot] = rows[pivot], rows[rk]
        inv = rows[rk][col].inverse()
        rows[rk] = [inv * a for a in rows[rk]]
        for i in range(m):
            if i != rk and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rk])]
        rk += 1
        if rk == m:
            break
    return rk


def poly_eval_matrix(c, A):
    """c(A) for ascending coefficients c and matrix rows A, by Horner's rule."""
    acc = scalar(c[-1], len(A))
    for k in range(len(c) - 2, -1, -1):
        acc = mat_add(mat_mul(acc, A), scalar(c[k], len(A)))
    return acc


def naive_mult_order(x):
    """Order by repeated multiplication until the identity returns."""
    one = x.ctx.one
    y = x
    k = 1
    while y != one:
        y = y * x
        k += 1
        if k > x.ctx.group_order:
            raise AssertionError("order search ran past the group order")
    return k


def naive_least_nonresidue(p):
    """Least non-square mod p by building the full square set."""
    squares = {(a * a) % p for a in range(1, p)}
    for r in range(2, p):
        if r not in squares:
            return r
    raise AssertionError(f"no non-residue mod {p}")


def naive_primitive_root(ctx):
    """First element in index order whose powers reach every nonzero element."""
    return next(x for x in ctx.iter_elements() if x and naive_mult_order(x) == ctx.group_order)


@functools.cache
def naive_nonresidue(ctx):
    """First element in index order outside the full set of squares (cached per field)."""
    squares = {x * x for x in ctx.iter_elements()}
    return next(x for x in ctx.iter_elements() if x not in squares)


def naive_sqrt(x, z=None):
    """A square root by scalar Tonelli-Shanks on FFElem, z the field's first
    non-square (naive_nonresidue unless given); None if x is no square."""
    ctx = x.ctx
    if not x:
        return ctx.zero
    if x ** (ctx.group_order // 2) != ctx.one:
        return None
    t, s = ctx.group_order, 0
    while t % 2 == 0:
        t //= 2
        s += 1
    c = (naive_nonresidue(ctx) if z is None else z) ** t
    u = x ** t
    root = x ** ((t + 1) // 2)
    m = s
    while u != ctx.one:
        i, v = 0, u
        while v != ctx.one:
            v = v * v
            i += 1
        b = c ** (2 ** (m - i - 1))
        m = i
        c = b * b
        u = u * c
        root = root * b
    return root


def naive_quadratic_roots(c0, c1):
    """(tag, roots, eigen_ctx) of X^2 + c1 X + c0 by the scalar quadratic formula.

    The roots are (-c1 + s) / 2, then (-c1 - s) / 2, with s = naive_sqrt(D)
    for a square D = c1^2 - 4 c0 (tag repeated when D = 0, else split). Over
    F_p a non-square D is r (D / r), r the least non-residue, and
    s = naive_sqrt(D / r) w lives in F_{p^2} (w^2 = r); over F_{p^2} the
    roots and their field are None.
    """
    ctx = c0.ctx
    inv2 = ctx.elem(2).inverse()
    disc = c1 * c1 - 4 * c0
    s = naive_sqrt(disc)
    if s is not None:
        return ("split" if disc else "repeated"), ((-c1 + s) * inv2, (-c1 - s) * inv2), ctx
    if ctx.degree == 2:
        return "irreducible", None, None
    ext = ctx.ext_field()
    s = ext.elem(0, naive_sqrt(disc / naive_least_nonresidue(ctx.p)).c0)
    c1e, inv2e = ext.lift(c1), ext.lift(inv2)
    return "irreducible", ((-c1e + s) * inv2e, (-c1e - s) * inv2e), ext


def naive_matrix_order(rows_mod_p, p):
    """Order of an integer matrix mod p by repeated multiplication."""
    n = len(rows_mod_p)
    ident = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)
        ]

    cur = [row[:] for row in rows_mod_p]
    k = 1
    cap = p ** (n * n) + 1
    while cur != ident:
        cur = matmul(cur, rows_mod_p)
        k += 1
        if k > cap:
            raise AssertionError("matrix order search did not terminate")
    return k


def naive_matrix_order_obj(A):
    """Order of the matrix with FFElem rows A, by iterating B -> B A to the identity."""
    n, ctx = len(A), A[0][0].ctx
    ident = scalar(ctx.one, n)
    B, k = tuple(map(tuple, A)), 1
    while B != ident:
        B = mat_mul(B, A)
        k += 1
        if k > ctx.q ** (n * n):
            raise AssertionError("matrix order search did not terminate")
    return k


def naive_is_semisimple(rows_mod_p, p):
    """Whether an integer matrix (n <= 3) is diagonalizable over an extension of F_p.

    Its eigenvalues lie in F_{p^k} with k <= 3, all inside F_{p^6}, so a
    semisimple A satisfies A^(p^6) = A; conversely A^(p^6) = A means the
    squarefree X^(p^6) - X kills A. The power is taken by square-and-multiply
    on plain integer lists.
    """
    n = len(rows_mod_p)

    def matmul(a, b):
        return [
            [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(n)]
            for i in range(n)
        ]

    base = [[x % p for x in row] for row in rows_mod_p]
    out = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    e = p ** 6
    while e:
        if e & 1:
            out = matmul(out, base)
        base = matmul(base, base)
        e >>= 1
    return out == [[x % p for x in row] for row in rows_mod_p]


def naive_det(rows):
    """Determinant by signed permutation expansion."""
    n = len(rows)
    ctx = rows[0][0].ctx
    total = ctx.zero
    for perm in itertools.permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = ctx.one
        for i in range(n):
            term = term * rows[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def naive_count_Q(powers, nu):
    """Count solutions of sum(first nu powers) == sum(last nu powers) by raw tuple enumeration.

    `powers` is the list [A^1, ..., A^tau] of vectors or matrix rows of FFElem;
    each of the tau^(2 nu) exponent tuples is checked independently.
    """
    tau = len(powers)
    plus = mat_add if isinstance(powers[0][0], tuple) else add

    def tuple_sum(tup):
        acc = powers[tup[0]]
        for idx in tup[1:]:
            acc = plus(acc, powers[idx])
        return acc

    count = 0
    for left in itertools.product(range(tau), repeat=nu):
        s_left = tuple_sum(left)
        for right in itertools.product(range(tau), repeat=nu):
            if s_left == tuple_sum(right):
                count += 1
    return count


def naive_count_Q_fast(keys, nu):
    """Same count as naive_count_Q but pairing via sorted key comparison.

    `keys` maps each power to a flat integer-residue tuple; sums of tuples are
    compared componentwise mod p. Still enumerates all tau^nu combinations on
    each side; only the final pairing is vectorized.
    """
    arr, p = keys
    tau = arr.shape[0]
    sums = arr
    for _ in range(nu - 1):
        sums = (sums[:, None, :] + arr[None, :, :]) % p
        sums = sums.reshape(-1, arr.shape[1])
    # lexicographic sort, then count equal runs on both sides of the pairing
    view = np.ascontiguousarray(sums)
    order = np.lexsort(view.T[::-1])
    v = view[order]
    change = np.any(v[1:] != v[:-1], axis=1)
    starts = np.flatnonzero(np.r_[True, change])
    ends = np.r_[starts[1:], v.shape[0]]
    runs = ends - starts
    return int(np.sum(runs.astype(object) ** 2))


def naive_char_sum(terms):
    """Exact-ish reference sum via math.fsum on real and imaginary parts."""
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


def naive_field_trace(y):
    """Tr(y) = y + y^p + ... over the degree's Frobenius conjugates, as an int mod p."""
    acc, conj = y.ctx.zero, y
    for _ in range(y.ctx.degree):
        acc = acc + conj
        conj = conj ** y.ctx.p
    if acc.c1:
        raise AssertionError(f"trace of {y!r} left the base field")
    return acc.c0


def naive_extension_independent(v, A):
    """Whether v, vA (rows) or v, Av (columns), ... span after lifting into F_{p^2}.

    The orbit is multiplied out entry by entry in the extension and its rank
    is taken by the elimination above, so nothing is shared with the code
    under test.
    """
    ext = v.ctx.ext_field()
    n = A.n
    M = [[ext.lift(x) for x in row] for row in A.rows]
    if v.orientation == "column":
        M = [list(col) for col in zip(*M)]  # A v is v A^T written as a row
    cur = [ext.lift(x) for x in v.entries]
    vecs = []
    for _ in range(n):
        vecs.append(cur)
        cur = [sum((cur[i] * M[i][j] for i in range(n)), ext.zero) for j in range(n)]
    return rank(vecs) == n


def naive_subgroup_sum(G, coeff, alpha):
    """Sum over u in G of e_p(Tr(alpha coeff(u))), term by term in FFElem arithmetic."""
    return naive_char_sum([
        cmath.exp(2j * math.pi * naive_field_trace(alpha * coeff(G.generator ** k)) / G.ctx.p)
        for k in range(1, G.order + 1)])


def naive_moment(family, G, m, alpha):
    """Sum of |S|^m over every coefficient a (Gauss) or pair (a, b) (Kloosterman).

    Each complete sum S = sum over u in G of e_p(Tr(alpha c(u))), with
    c(u) = a u or a u + b / u, is enumerated term by term.
    """
    field = list(G.ctx.iter_elements())
    if family == "gauss":
        sums = [naive_subgroup_sum(G, lambda u: a * u, alpha) for a in field]
    else:
        sums = [naive_subgroup_sum(G, lambda u: a * u + b / u, alpha)
                for a in field for b in field]
    return math.fsum(abs(x) ** m for x in sums)


def naive_point_count(ctx, s, a, b):
    """Count curve points by evaluating the defining polynomial at every (x, y)."""
    count = 0
    for x in ctx.iter_elements():
        xs = x ** s
        for y in ctx.iter_elements():
            ys = y ** s
            f = (xs + ys + a) * (xs + ys + b * xs * ys) - xs * ys
            if not f:
                count += 1
    return count


def curve_eval(spec, x, y):
    """The curve polynomial (x^s + y^s + a)(x^s + y^s + b x^s y^s) - x^s y^s at one point."""
    xs, ys = x ** spec.s, y ** spec.s
    return (xs + ys + spec.a) * (xs + ys + spec.b * xs * ys) - xs * ys


def naive_product_eq_count(xi0, xis, lambdas, tau):
    """Count x in [1, tau] with prod(xi_j - lambda_j^x) == xi0, one power at a time."""
    count = 0
    for x in range(1, tau + 1):
        prod = xis[0].ctx.one
        for xi, lam in zip(xis, lambdas):
            prod = prod * (xi - lam ** x)
        if prod == xi0:
            count += 1
    return count


def naive_sumset_cover(orbit, p, k_max):
    """(covered_at, missing) for S_1 = set(orbit), S_{k+1} = S_k + S_1 in F_p^d.

    `orbit` is a list of residue tuples; every sumset is a Python set of
    tuples built by adding each pair componentwise mod p.
    """
    first = set(orbit)
    space = p ** len(orbit[0])
    current = first
    missing = []
    for k in range(1, k_max + 1):
        missing.append(space - len(current))
        if len(current) == space:
            return k, tuple(missing)
        current = {tuple((a + b) % p for a, b in zip(s, t)) for s in current for t in first}
    return None, tuple(missing)


# ---- cat-map spectra ----------------------------------------------------------------


def schur_eigenbasis(mat, cluster_tol):
    """[(eigenvalue, orthonormal basis)] of a unitary matrix from one full complex Schur.

    The Schur vectors of a normal matrix are eigenvectors; they are grouped by
    angle, consecutive eigenvalues within cluster_tol sharing a group, and the
    last group joins the first when the circle wraps.
    """
    import scipy.linalg

    tri, vecs = scipy.linalg.schur(mat, output="complex")
    eigs = np.diag(tri)
    order = np.argsort(np.angle(eigs), kind="stable")
    clusters = [[int(order[0])]]
    for idx in order[1:]:
        if abs(eigs[idx] - eigs[clusters[-1][-1]]) <= cluster_tol:
            clusters[-1].append(int(idx))
        else:
            clusters.append([int(idx)])
    if len(clusters) > 1 and abs(eigs[clusters[0][0]] - eigs[clusters[-1][-1]]) <= cluster_tol:
        clusters[0] = clusters.pop() + clusters[0]
    return [(complex(np.mean(eigs[members])), vecs[:, members]) for members in clusters]


def per_cluster_compressions(spaces, op):
    """[basis* op basis / N] for each (eigenvalue, basis) of eigenbasis(), one product per cluster."""
    n = len(op)
    return [basis.conj().T @ op @ basis / n for _, basis in spaces]


def grid_numerical_radius(comp, grid):
    """max(0, max over grid phases theta of the top eigenvalue of Re(e^{i theta} comp))."""
    spin = np.exp(1j * (np.arange(grid) * (2 * np.pi / grid)))[:, None, None]
    herm = (spin * comp + np.conj(spin) * comp.conj().T) / 2
    return max(0.0, float(np.linalg.eigvalsh(herm)[:, -1].max()))


# ---- second routes on the public kernels --------------------------------------------


def trace_norm(x):
    """Frobenius trace 2 c0 and norm c0^2 - r c1^2 of a degree-2 element, in F_p."""
    base = make_field(x.ctx.p)
    return base.elem(2 * x.c0), base.elem(x.c0 * x.c0 - x.ctx.r * x.c1 * x.c1)


def count_Q_eigen(A, nu):
    """count_Q(A, nu).value through the eigenvalues of a diagonalizable A.

    A^x = P diag(lam_i^x) P^-1 with one P for every x, so sums of powers
    agree exactly when the sums of the eigenvalue rows (lam_1^x, ..., lam_n^x)
    do, and the count is the energy of those rows.
    """
    lams = char_poly_factor(A).eigenvalues
    if lams is None or not is_diagonalizable(A):
        raise ValueError("the eigenvalue reduction needs a diagonalizable matrix")
    rows = [[c for lam in lams for c in (lam ** x).residues()]
            for x in range(1, matrix_order(A) + 1)]
    return sequence_energy(rows, A.ctx.p, nu)


def companion_realization(lam, a):
    """(a_vec, b_vec, A) over F_p with a_vec A^x b_vec = Tr(a lam^x), for lam of norm one.

    A = [[0, -1], [1, Tr lam]] is the trace companion in SL2: t_x = Tr(a lam^x)
    obeys t_(x+1) = Tr(lam) t_x - t_(x-1) once lam^p = 1 / lam, and a_vec
    holds (t_0, t_1).
    """
    base = make_field(lam.ctx.p)
    a_vec = VecEntity([trace_norm(a)[0], trace_norm(a * lam)[0]], "row")
    b_vec = VecEntity([base.one, base.zero], "column")
    return a_vec, b_vec, sl2_companion(base, trace_norm(lam)[0].c0)


def per_sample_sums_rows(cfg, p):
    """The sums rows of prime p as tuples in InstanceRecord field order, one
    sample at a time on the entity API: matrix_exp_sum, analyze_instance and
    evaluate_bounds of each drawn (a, b) on each companion A_u whose class
    passes the filter (u = +-2 repeat, and belong to none) and whose order
    lies in the tau window; a skipped sum is one row naming its budget."""
    ctx = make_field(p)
    tag = EXPERIMENT_NAMES.index("sums")

    def nonzero_pair(stream):
        while True:
            pair = (stream.below(p), stream.below(p))
            if pair != (0, 0):
                return [ctx.elem(x) for x in pair]

    rows = []
    for u in range(p):
        A = sl2_companion(ctx, u)
        klass, tau = char_poly_factor(A).tag, matrix_order(A)
        if klass == "repeated" or cfg.class_filter not in ("all", klass):
            continue
        if tau < cfg.tau_min or (cfg.tau_max is not None and tau > cfg.tau_max):
            continue
        head = ("sums", p, p, 2, u, klass, tau, 1)
        for j in range(cfg.samples):
            stream = derive_stream(cfg.seed, tag, p, u, j)
            a = VecEntity(nonzero_pair(stream), "row")
            b = VecEntity(nonzero_pair(stream), "column")
            quantity = f"matrix-sum-{j}"
            try:
                result = matrix_exp_sum(a, b, A, cfg.budget)
            except BudgetExceeded as err:
                rows.append(head + (quantity, None, None, None, "budget",
                                    float(err.estimated_work), None, "skipped", 0.0))
                continue
            value = complex(result.value)
            for entry in evaluate_bounds(result, analyze_instance(a, b, A)):
                rows.append(head + (quantity, value.real, value.imag, abs(value), entry.name,
                                    entry.value, entry.ratio, entry.status, 0.0))
    return rows
