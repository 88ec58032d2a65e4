import itertools

import numpy as np
import pytest

from matpowlab import matgrp
from matpowlab.errors import (
    DegenerateParameters,
    InvariantViolated,
    MixedContext,
    OrderCapExceeded,
    UnsupportedDimension,
    WrongDegree,
    ZeroVector,
)
from matpowlab.ffield import _is_prime, make_field, mult_order, residue_product, subgroup_of_order
from matpowlab.matgrp import (
    MatEntity,
    VecEntity,
    char_poly_factor,
    det_order,
    independence_checks,
    is_diagonalizable,
    matrix_order,
    residue_map,
    sl2_companion,
    sl2_table,
)
from matpowlab.counting import count_Q

from oracles import (
    companion_realization,
    count_Q_eigen,
    diagonal,
    dot,
    mat_add,
    mat_inv,
    mat_mul,
    mat_pow,
    naive_det,
    naive_is_semisimple,
    naive_matrix_order,
    naive_matrix_order_obj,
    naive_quadratic_roots,
    poly_eval_matrix,
    rank,
    scalar,
    trace_norm,
    vec_mat,
)


def _random_matrix(ctx, n, rng):
    """A seeded random invertible n x n matrix with entries anywhere in ctx."""
    while True:
        A = MatEntity([[ctx.from_index(int(rng.integers(ctx.q))) for _ in range(n)]
                       for _ in range(n)])
        if A.det():
            return A


def _random_field_matrix(ctx, n, rng):
    """A seeded random n x n matrix with entries anywhere in ctx (may be singular)."""
    return MatEntity([[ctx.from_index(int(rng.integers(ctx.q))) for _ in range(n)]
                      for _ in range(n)])


def test_det_matches_permutation_expansion():
    # closed forms for n <= 3 and elimination on residue arrays for n = 4, 5,
    # over F_5, F_11, F_9, F_25; the coordinates are Python ints either way
    rng = np.random.default_rng(7)
    for p, degree in ((5, 1), (11, 1), (3, 2), (5, 2)):
        ctx = make_field(p, degree)
        for n in (1, 2, 3, 4, 5):
            for _ in range(20):
                rows = [[ctx.from_index(int(rng.integers(0, ctx.q))) for _ in range(n)]
                        for _ in range(n)]
                A = MatEntity(rows)
                assert A.det() == naive_det(rows)
                assert type(A.det().c0) is int and type(A.det().c1) is int


def _permuted_triangular(ctx, n, rng):
    """Rows of an upper-triangular matrix with a random diagonal, each row plus
    a random multiple of the row above it (top down), put in a random order, and
    its determinant: the sign of the order times the diagonal product."""
    diagonal = [ctx.from_index(int(rng.integers(ctx.q))) for _ in range(n)]
    upper = [[diagonal[i] if j == i else
              ctx.from_index(int(rng.integers(ctx.q))) if j > i else ctx.zero
              for j in range(n)] for i in range(n)]
    for i in range(1, n):
        c = ctx.from_index(int(rng.integers(ctx.q)))
        upper[i] = [x + c * y for x, y in zip(upper[i], upper[i - 1])]
    order = [int(i) for i in rng.permutation(n)]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    det = ctx.one if inversions % 2 == 0 else -ctx.one
    for x in diagonal:
        det = det * x
    return [upper[i] for i in order], det


@pytest.mark.parametrize("p, degree", [(5, 1), (101, 1), (3, 2), (7, 2)])
def test_det_of_large_matrices_by_elimination(p, degree):
    # n up to 16, where a permutation expansion would be out of reach; zero
    # diagonal entries make singular cases, and shuffled rows need swaps
    ctx = make_field(p, degree)
    rng = np.random.default_rng(p * degree)
    for n in (4, 7, 12, 16):
        for _ in range(6):
            rows, det = _permuted_triangular(ctx, n, rng)
            assert MatEntity(rows).det() == det
    stack = [_permuted_triangular(ctx, 9, rng) for _ in range(5)]
    mats = np.array([[[x.residues() for x in row] for row in rows] for rows, _ in stack])
    got = matgrp.residue_dets(mats, ctx)
    assert [ctx.elem(*d) for d in got.tolist()] == [det for _, det in stack]
    # the 12-cycle permutation matrix: det -1, and order 12 by capped iteration
    cycle = MatEntity.from_ints(ctx, [[int(j == (i + 1) % 12) for j in range(12)]
                                      for i in range(12)])
    assert cycle.det() == -ctx.one and det_order(cycle) == 2 and matrix_order(cycle) == 12


def test_char_poly_frozen_examples():
    ctx = make_field(5)
    rot = sl2_companion(ctx, 0)  # X^2 + 1 splits mod 5: roots 2 and 3
    data = char_poly_factor(rot)
    assert data.tag == "split"
    assert {x.c0 for x in data.eigenvalues} == {2, 3}
    irr = sl2_companion(ctx, 1)  # X^2 - X + 1 has non-residue discriminant mod 5
    data = char_poly_factor(irr)
    assert data.tag == "irreducible"
    assert data.eigen_ctx == make_field(5, 2)
    rep = MatEntity.from_ints(ctx, [[1, 1], [0, 1]])  # (X - 1)^2
    assert char_poly_factor(rep).tag == "repeated"


def test_char_poly_agrees_with_det_of_shift():
    # P(x) = det(x I - A) pointwise over the whole field
    rng = np.random.default_rng(11)
    for p in (5, 7):
        ctx = make_field(p)
        for n in (1, 2, 3):
            for _ in range(10):
                A = _random_matrix(ctx, n, rng)
                coeffs = char_poly_factor(A).coeffs
                for x in ctx.iter_elements():
                    shifted = mat_add(scalar(x, n), [[-a for a in r] for r in A.rows])
                    # P(x) as the 1 x 1 matrix P((x))
                    assert poly_eval_matrix(coeffs, ((x,),)) == ((naive_det(shifted),),)


def test_eigenvalues_satisfy_char_poly():
    # over F_p and F_{p^2}: a 2 x 2 matrix takes the scalar quadratic formula's
    # tag, roots in order and root field, and over F_{p^2} it has no
    # eigenvalues exactly when it is irreducible there
    rng = np.random.default_rng(13)
    for p, degree in ((5, 1), (7, 1), (11, 1), (5, 2), (7, 2)):
        ctx = make_field(p, degree)
        for n in (2, 3):
            tags = set()
            for _ in range(25):
                A = _random_matrix(ctx, n, rng)
                data = char_poly_factor(A)
                tags.add(data.tag)
                if n == 2:
                    r = A.rows
                    want = naive_quadratic_roots(naive_det(r), -(r[0][0] + r[1][1]))
                    assert (data.tag, data.eigenvalues, data.eigen_ctx) == want
                    assert (data.eigenvalues is None) == (degree == 2
                                                          and data.tag == "irreducible")
                if data.eigenvalues is None:
                    continue
                assert all(type(c) is int for lam in data.eigenvalues for c in (lam.c0, lam.c1))
                ectx = data.eigen_ctx
                assert len(data.eigenvalues) == n
                for lam in data.eigenvalues:
                    acc = ectx.lift(data.coeffs[-1])
                    for k in range(n - 1, -1, -1):
                        acc = acc * lam + ectx.lift(data.coeffs[k])
                    assert not acc
                # trace and determinant match the root multiset
                s = ectx.zero
                prod = ectx.one
                for lam in data.eigenvalues:
                    s = s + lam
                    prod = prod * lam
                assert s == ectx.lift(A.trace())
                assert prod == ectx.lift(A.det())
            if n == 2:
                assert {"split", "irreducible"} <= tags


def test_cayley_hamilton():
    rng = np.random.default_rng(17)
    ctx = make_field(7)
    for n in (1, 2, 3):
        for _ in range(10):
            A = _random_matrix(ctx, n, rng)
            coeffs = list(char_poly_factor(A).coeffs)
            val = poly_eval_matrix(coeffs, A.rows)
            assert all(not x for row in val for x in row)


def test_cubic_tags():
    ctx = make_field(7)
    split = MatEntity(diagonal([ctx.elem(1), ctx.elem(2), ctx.elem(3)]))
    assert char_poly_factor(split).tag == "split"
    rep = MatEntity(diagonal([ctx.elem(2), ctx.elem(2), ctx.elem(3)]))
    assert char_poly_factor(rep).tag == "repeated"
    # companion of an irreducible cubic: X^3 + X + 1 has no root mod 7
    assert all(pow(x, 3, 7) != (-x - 1) % 7 for x in range(7))
    comp = MatEntity.from_ints(ctx, [[0, 0, 6], [1, 0, 6], [0, 1, 0]])
    data = char_poly_factor(comp)
    assert data.tag == "irreducible"
    assert data.eigenvalues is None
    # one rational root plus an irreducible quadratic factor (X - 1)(X^2 + 1)
    mixed = MatEntity.from_ints(ctx, [[1, 0, 0], [0, 0, 6], [0, 1, 0]])
    datam = char_poly_factor(mixed)
    assert datam.tag == "mixed"
    assert datam.eigen_ctx == make_field(7, 2)


def _random_jordan_types(ctx, rng):
    """P J P^-1 for a random invertible P and each Jordan type J of a 3 x 3
    matrix with eigenvalues in ctx, the eigenvalues drawn at random (zero allowed)."""
    lam, mu, nu = (ctx.from_index(int(i)) for i in rng.choice(ctx.q, 3, replace=False))
    zero, one = ctx.zero, ctx.one
    forms = [[[lam, zero, zero], [zero, mu, zero], [zero, zero, nu]],
             [[lam, zero, zero], [zero, lam, zero], [zero, zero, mu]],
             [[lam, one, zero], [zero, lam, zero], [zero, zero, mu]],
             [[lam, zero, zero], [zero, lam, zero], [zero, zero, lam]],
             [[lam, one, zero], [zero, lam, zero], [zero, zero, lam]],
             [[lam, one, zero], [zero, lam, one], [zero, zero, lam]]]
    for rows in forms:
        P = _random_field_matrix(ctx, 3, rng)
        while not P.det():
            P = _random_field_matrix(ctx, 3, rng)
        yield MatEntity(mat_mul(mat_mul(P.rows, rows), mat_inv(P.rows)))


def _brute_force_roots(A):
    """Every x in index order with det(x I - A) = 0, repeated by its algebraic
    multiplicity, the nullity of (A - x I)^3."""
    roots = []
    for x in A.ctx.iter_elements():
        shifted = mat_add(scalar(x, 3), [[-a for a in r] for r in A.rows])
        if not naive_det(shifted):
            roots += [x] * (3 - rank(mat_pow(shifted, 3)))
    return roots


def _assert_base_roots(A, roots):
    """char_poly_factor(A) has exactly these base-field roots, in this order."""
    data = char_poly_factor(A)
    if data.tag in ("split", "repeated"):
        assert list(data.eigenvalues) == roots
    elif data.tag == "mixed":
        assert len(roots) == 1
        if data.eigenvalues is not None:
            assert data.eigenvalues[0] == data.eigen_ctx.lift(roots[0])
    else:
        assert data.tag == "irreducible" and roots == []


@pytest.mark.parametrize("p, degree", [(3, 1), (5, 1), (3, 2), (5, 2)])
def test_cubic_roots_match_brute_force(p, degree):
    # every Jordan type over F_3 (characteristic = n), F_5, F_9 and F_25, plus
    # random matrices for the mixed and irreducible cubics
    ctx = make_field(p, degree)
    rng = np.random.default_rng(10 * p + degree)
    cases = [A for _ in range(4) for A in _random_jordan_types(ctx, rng)]
    cases += [_random_field_matrix(ctx, 3, rng) for _ in range(40)]
    tags = set()
    for A in cases:
        _assert_base_roots(A, _brute_force_roots(A))
        tags.add(char_poly_factor(A).tag)
    assert tags == {"split", "repeated", "mixed", "irreducible"}


@pytest.mark.parametrize("block", [1, 2, 3, 5])
def test_cubic_roots_straddle_scan_blocks(monkeypatch, block):
    # diagonal matrices with every multiset of eigenvalues over F_7 and F_9, and
    # one root with an irreducible quadratic cofactor, scanned in small blocks
    monkeypatch.setattr(matgrp, "_ROOT_SCAN_BLOCK", block)
    for p, degree in ((7, 1), (3, 2)):
        ctx = make_field(p, degree)
        for diag in itertools.combinations_with_replacement(ctx.iter_elements(), 3):
            _assert_base_roots(MatEntity(diagonal(diag)), list(diag))
    mixed = MatEntity.from_ints(make_field(7), [[5, 0, 0], [0, 0, 6], [0, 1, 0]])
    _assert_base_roots(mixed, [make_field(7).elem(5)])


def test_cubic_root_scan_stops_at_the_third_root(monkeypatch):
    # with one-element blocks, the roots 0, 1, 2 of F_7 end the scan after three
    # blocks of three Horner steps each
    calls = []

    def counted(x, y, ctx):
        calls.append(len(y))
        return residue_product(x, y, ctx)

    monkeypatch.setattr(matgrp, "_ROOT_SCAN_BLOCK", 1)
    monkeypatch.setattr(matgrp, "residue_product", counted)
    ctx = make_field(7)
    A = MatEntity(diagonal([ctx.elem(2), ctx.elem(0), ctx.elem(1)]))
    assert char_poly_factor(A).eigenvalues == (ctx.elem(0), ctx.elem(1), ctx.elem(2))
    assert calls == [1] * 9


def test_a_scanned_root_the_division_rejects_raises_invariant_violated(monkeypatch):
    # a scan whose products all vanish reads P(x) as P(0) = 0 for every x of
    # this singular matrix, so it reports 0, 1, 2 as roots; dividing out 1
    # leaves the remainder P(1) = 4
    monkeypatch.setattr(matgrp, "residue_product", lambda x, y, ctx: np.zeros_like(y))
    ctx = make_field(7)
    A = MatEntity(diagonal([ctx.elem(0), ctx.elem(3), ctx.elem(3)]))
    with pytest.raises(InvariantViolated, match="nonzero remainder"):
        char_poly_factor(A)


def test_unsupported_dimension():
    ctx = make_field(5)
    A = MatEntity.identity(ctx, 4)
    with pytest.raises(UnsupportedDimension):
        char_poly_factor(A)


def test_matrix_order_matches_naive():
    # exhaustive companions, both split and irreducible, a few primes
    for p in (5, 7, 11, 13):
        ctx = make_field(p)
        for u in range(p):
            A = sl2_companion(ctx, u)
            got = matrix_order(A)
            rows = [[0, p - 1], [1, u]]
            assert got == naive_matrix_order(rows, p)


def test_matrix_order_random_gl():
    rng = np.random.default_rng(19)
    for p in (5, 7):
        ctx = make_field(p)
        for n in (2, 3):
            for _ in range(15):
                A = _random_matrix(ctx, n, rng)
                rows = [[x.c0 for x in r] for r in A.rows]
                assert matrix_order(A) == naive_matrix_order(rows, p)


def _conjugated_forms(ctx, n, rng):
    """P J P^-1 for scalar, diagonal-with-repeat and Jordan forms J with random units."""
    lam, mu = (ctx.from_index(int(i)) for i in rng.integers(1, ctx.q, 2))
    zero, one = ctx.zero, ctx.one
    if n == 2:
        forms = [[[lam, zero], [zero, lam]], [[lam, one], [zero, lam]]]
    else:
        forms = [[[lam, zero, zero], [zero, lam, zero], [zero, zero, lam]],
                 [[lam, zero, zero], [zero, lam, zero], [zero, zero, mu]],
                 [[lam, one, zero], [zero, lam, zero], [zero, zero, mu]],
                 [[lam, one, zero], [zero, lam, one], [zero, zero, lam]]]
    for rows in forms:
        P = _random_field_matrix(ctx, n, rng)
        while not P.det():
            P = _random_field_matrix(ctx, n, rng)
        yield MatEntity(mat_mul(mat_mul(P.rows, rows), mat_inv(P.rows)))


@pytest.mark.parametrize("p, degree, n", [(3, 2, 2), (5, 2, 2), (3, 2, 3), (5, 2, 3),
                                          (3, 1, 3), (5, 1, 3), (7, 1, 3)])
def test_matrix_order_matches_the_object_power_oracle(p, degree, n):
    # seeded random matrices plus conjugated scalar and Jordan forms. Over F_25
    # the 3 x 3 matrices with an irreducible cubic are left out: their orders
    # reach 25^3 - 1, and both sides would iterate.
    ctx = make_field(p, degree)
    rng = np.random.default_rng(100 * p + 10 * degree + n)
    cases = []
    for _ in range(25):
        A = _random_field_matrix(ctx, n, rng)
        if A.det():
            cases.append(A)
    for _ in range(3):
        cases.extend(_conjugated_forms(ctx, n, rng))
    tags = set()
    for A in cases:
        tag = char_poly_factor(A).tag
        if (ctx.q, n, tag) == (25, 3, "irreducible"):
            continue
        tags.add(tag)
        assert matrix_order(A) == naive_matrix_order_obj(A.rows), (A, tag)
    expect = {"split", "irreducible", "repeated"} if n == 2 else \
        {"split", "irreducible", "repeated", "mixed"}
    if (ctx.q, n) == (25, 3):
        expect.discard("irreducible")
    if ctx.q == 3:
        expect.discard("split")  # three distinct eigenvalues need three units
    assert tags == expect


def test_matrix_order_computes_one_order_per_frobenius_orbit(monkeypatch):
    # a conjugate eigenvalue pair and a repeated eigenvalue cost one mult_order
    # each; the mixed 3 x 3 below (X - 2)(X^2 - 3) over F_7 costs two
    ctx = make_field(7)
    irreducible = [[0, 6], [1, 0]]  # X^2 + 1, discriminant -4 = 3, a non-square
    jordan = [[2, 1], [0, 2]]
    mixed = [[0, 0, 1], [1, 0, 3], [0, 1, 2]]
    calls = []

    def counted(x):
        calls.append(x)
        return mult_order(x)

    monkeypatch.setattr(matgrp, "mult_order", counted)
    for rows, tag, expect in ((irreducible, "irreducible", 1), (jordan, "repeated", 1),
                              (mixed, "mixed", 2)):
        A = MatEntity.from_ints(ctx, rows)
        assert char_poly_factor(A).tag == tag
        calls.clear()
        assert matrix_order(A) == naive_matrix_order(rows, 7)
        assert len(calls) == expect, (tag, calls)


def test_matrix_order_of_4x4_matrices_matches_naive():
    # n = 4 has no eigenvalue route: the order comes from iterating the residue
    # map; the 4 x 4 Jordan block over F_3 has order 9, since 4 > p
    rng = np.random.default_rng(41)
    ctx = make_field(3)
    cases = [[[x.c0 for x in r] for r in _random_matrix(ctx, 4, rng).rows] for _ in range(30)]
    cases += [[[int(i == j) for j in range(4)] for i in range(4)],
              [[int(j in (i, i + 1)) for j in range(4)] for i in range(4)]]
    orders = set()
    for rows in cases:
        tau = matrix_order(MatEntity.from_ints(ctx, rows))
        assert tau == naive_matrix_order(rows, 3), rows
        orders.add(tau)
    assert {1, 9} < orders and len(orders) > 4


def test_det_order_divides_matrix_order():
    rng = np.random.default_rng(23)
    ctx = make_field(11)
    for _ in range(30):
        A = _random_matrix(ctx, 2, rng)
        assert matrix_order(A) % det_order(A) == 0
    assert det_order(sl2_companion(ctx, 3)) == 1
    # n = 4, 5 take the elimination determinant; its value must take powers,
    # inverses and orders like any other element, over F_p and F_{p^2}
    for p, degree, n, count in ((11, 1, 4, 6), (5, 1, 5, 4), (3, 2, 4, 4), (3, 2, 5, 2)):
        ctx = make_field(p, degree)
        for _ in range(count):
            A = _random_field_matrix(ctx, n, rng)
            while not A.det():
                A = _random_field_matrix(ctx, n, rng)
            d, t = A.det(), det_order(A)
            assert d ** t == ctx.one and d * d.inverse() == ctx.one
            assert (ctx.q - 1) % t == 0
            if n == 4:
                assert matrix_order(A) % t == 0


def test_matrix_order_cap(monkeypatch):
    # X^3 + X + 1 is irreducible mod 7: the eigenvalues lie in F_{7^3}, beyond
    # F_{49}, so the order comes from power iteration under the cap
    ctx = make_field(7)
    rows = [[0, 0, 6], [1, 0, 6], [0, 1, 0]]
    assert char_poly_factor(MatEntity.from_ints(ctx, rows)).eigenvalues is None
    monkeypatch.setattr(matgrp, "ORDER_ITERATION_CAP", 5)
    with pytest.raises(OrderCapExceeded):
        matrix_order(MatEntity.from_ints(ctx, rows))
    monkeypatch.setattr(matgrp, "ORDER_ITERATION_CAP", 10 ** 6)
    assert matrix_order(MatEntity.from_ints(ctx, rows)) == naive_matrix_order(rows, 7)


def _gl(p, n):
    """Every invertible n x n integer matrix mod p, as row lists."""
    ctx = make_field(p)
    for flat in itertools.product(range(p), repeat=n * n):
        rows = [list(flat[i * n:(i + 1) * n]) for i in range(n)]
        if MatEntity.from_ints(ctx, rows).det():
            yield rows


def _jordan_forms_3x3(p):
    """Every 3 x 3 Jordan form over F_p with nonzero eigenvalues, as row lists."""
    units = range(1, p)
    for lam in units:
        yield [[lam, 1, 0], [0, lam, 1], [0, 0, lam]]
        for mu in units:
            yield [[lam, 1, 0], [0, lam, 0], [0, 0, mu]]
            for nu in units:
                yield [[lam, 0, 0], [0, mu, 0], [0, 0, nu]]


def _conjugated(rows, p, rng):
    """P rows P^-1 for a random invertible P, so the form is no longer triangular."""
    ctx = make_field(p)
    P = _random_matrix(ctx, len(rows), rng)
    B = mat_mul(mat_mul(P.rows, MatEntity.from_ints(ctx, rows).rows), mat_inv(P.rows))
    return [[x.c0 for x in r] for r in B]


def test_is_diagonalizable_matches_the_frobenius_power_oracle():
    # A is semisimple iff A^(p^6) = A; the scalars I and 2I of GL_3(F_3) have a
    # characteristic polynomial (X - c)^3 with zero derivative
    rng = np.random.default_rng(31)
    cases = [(rows, 3) for rows in _gl(3, 2)] + [(rows, 5) for rows in _gl(5, 2)]
    cases += [([[x.c0 for x in r] for r in _random_matrix(make_field(3), 3, rng).rows], 3)
              for _ in range(300)]
    for p in (3, 5):
        forms = list(_jordan_forms_3x3(p))
        cases += [(rows, p) for rows in forms]
        cases += [(_conjugated(rows, p, rng), p) for rows in forms]
    verdicts = set()
    for rows, p in cases:
        got = is_diagonalizable(MatEntity.from_ints(make_field(p), rows))
        assert got == naive_is_semisimple(rows, p), (rows, p)
        verdicts.add(got)
    assert verdicts == {True, False}
    ctx = make_field(3)
    for c in (1, 2):
        assert is_diagonalizable(MatEntity(scalar(ctx.elem(c), 3)))


def test_matrix_order_of_non_diagonalizable_matrices():
    # the unipotent part of a non-semisimple A has order exactly p, also for the
    # 3 x 3 Jordan block over F_3 where p = n
    rng = np.random.default_rng(37)
    cases = [(rows, p) for p in (3, 5) for rows in _gl(p, 2)]
    for p in (3, 5, 7):
        cases += [(_conjugated(rows, p, rng), p) for rows in _jordan_forms_3x3(p)
                  if rows[0][1]]
    cases.append(([[1, 1, 0], [0, 1, 1], [0, 0, 1]], 3))
    checked = 0
    for rows, p in cases:
        A = MatEntity.from_ints(make_field(p), rows)
        if not is_diagonalizable(A):
            assert matrix_order(A) == naive_matrix_order(rows, p), (rows, p)
            checked += 1
    assert checked > 100


def test_count_Q_eigen_on_a_scalar_matrix_in_characteristic_three():
    # 2 I_3 over F_3 has order 2: the pair sums I, 0, 0, 2I give 1 + 4 + 1
    ctx = make_field(3)
    A = MatEntity(scalar(ctx.elem(2), 3))
    assert count_Q_eigen(A, 2) == count_Q(A, 2).value == 6


def test_singular_matrix_rejected():
    ctx = make_field(7)
    A = MatEntity.from_ints(ctx, [[1, 2], [2, 4]])
    with pytest.raises(DegenerateParameters):
        matrix_order(A)


def test_is_diagonalizable_cases():
    ctx = make_field(7)
    assert is_diagonalizable(MatEntity.identity(ctx, 2))
    assert is_diagonalizable(MatEntity(diagonal([ctx.elem(2), ctx.elem(5)])))
    assert not is_diagonalizable(MatEntity.from_ints(ctx, [[1, 1], [0, 1]]))
    assert is_diagonalizable(sl2_companion(ctx, 1))  # distinct eigenvalues, maybe in F_49
    assert not is_diagonalizable(sl2_companion(ctx, 2))  # (X-1)^2 but not scalar
    # repeated block inside a 3x3
    B = MatEntity.from_ints(ctx, [[2, 1, 0], [0, 2, 0], [0, 0, 3]])
    assert not is_diagonalizable(B)
    C = MatEntity.from_ints(ctx, [[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert is_diagonalizable(C)


def test_diagonalizable_iff_conjugate_of_diagonal_exhaustive():
    # brute ground truth on all of GL_2(F_3): A is diagonalizable over F_3 or F_9
    # exactly when its minimal polynomial is squarefree; cross-check by explicit
    # eigenspace dimensions
    ctx = make_field(3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    A = MatEntity.from_ints(ctx, [[a, b], [c, d]])
                    if not A.det():
                        continue
                    data = char_poly_factor(A)
                    got = is_diagonalizable(A)
                    if data.tag in ("split", "irreducible"):
                        assert got  # distinct eigenvalues
                    elif data.tag == "repeated":
                        lam = data.eigenvalues[0]
                        assert got == (A == MatEntity(scalar(lam, 2)))


def test_independence_check():
    ctx = make_field(7)
    A = sl2_companion(ctx, 3)
    e1 = VecEntity([ctx.one, ctx.zero], "row")
    col = VecEntity([ctx.one, ctx.zero], "column")
    # an eigenvector of a split matrix stays on its line
    D = MatEntity(diagonal([ctx.elem(2), ctx.elem(4)]))
    ev = VecEntity([ctx.one, ctx.zero], "row")
    assert independence_checks([(e1, A), (col, A), (ev, D)]).tolist() == [True, True, False]
    with pytest.raises(ZeroVector):
        independence_checks([(VecEntity([ctx.zero, ctx.zero], "row"), A)])


def _krylov_rank(v, rows, side):
    """Rank of v, vA, ... (rows) or v, Av, ... (columns), multiplied out by vec_mat."""
    step = rows if side == "row" else tuple(zip(*rows))  # A v is v A^T written as a row
    vecs, cur = [], tuple(v)
    for _ in range(len(rows)):
        vecs.append(cur)
        cur = vec_mat(cur, step)
    return rank(vecs)


@pytest.mark.parametrize("p, degree", [(5, 1), (7, 1), (3, 2), (5, 2)])
def test_independence_check_matches_the_krylov_rank_oracle(p, degree):
    # random vectors, and eigenvectors of diagonal forms D and of P D P^-1, whose
    # left eigenvectors are the rows of P^-1 and right ones the columns of P
    ctx = make_field(p, degree)
    rng = np.random.default_rng(10 * p + degree)
    verdicts = set()
    for n in (1, 2, 3, 4):
        cases = []
        for _ in range(8):
            v = [ctx.from_index(int(i)) for i in rng.integers(ctx.q, size=n)]
            cases.append((_random_field_matrix(ctx, n, rng).rows, v, v))
        for _ in range(4):
            D = diagonal([ctx.from_index(int(i)) for i in rng.integers(1, ctx.q, size=n)])
            P = _random_field_matrix(ctx, n, rng)
            while not P.det():
                P = _random_field_matrix(ctx, n, rng)
            P_inv = mat_inv(P.rows)
            k = int(rng.integers(n))
            unit, total = scalar(ctx.one, n)[k], [ctx.one] * n
            cases += [(D, unit, unit), (D, total, total),
                      (mat_mul(mat_mul(P.rows, D), P_inv), P_inv[k], [r[k] for r in P.rows])]
        for rows, v_row, v_col in cases:
            A = MatEntity(rows)
            for side, v in (("row", v_row), ("column", v_col)):
                if any(v):
                    got = bool(independence_checks([(VecEntity(v, side), A)])[0])
                    assert got == (_krylov_rank(v, rows, side) == n), (rows, v, side)
                    verdicts.add(got)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p, degree", [(5, 1), (3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_independence_checks_match_the_krylov_rank_oracle(p, degree, n):
    # row and column vectors of random matrices, with eigenvectors of diagonal
    # matrices for dependent cases, checked as one stack
    ctx = make_field(p, degree)
    rng = np.random.default_rng(100 * n + 10 * p + degree)
    pairs = []
    for k in range(12):
        A = _random_field_matrix(ctx, n, rng)
        v = [ctx.from_index(int(i)) for i in rng.integers(ctx.q, size=n)]
        if k % 3 == 0:
            A = MatEntity(diagonal([ctx.from_index(int(i))
                                    for i in rng.integers(1, ctx.q, size=n)]))
            v = scalar(ctx.one, n)[k % n]
        if any(v):
            pairs.append((VecEntity(v, "row" if k % 2 else "column"), A))
    got = independence_checks(pairs)
    want = [_krylov_rank(v.entries, A.rows, v.orientation) == n for v, A in pairs]
    assert got.tolist() == want
    assert got.tolist() == [independence_checks([pair])[0] for pair in pairs]
    assert True in want and (False in want or n == 1)
    assert independence_checks([]).shape == (0,)
    other = make_field(7)
    with pytest.raises(MixedContext):
        independence_checks(
            pairs[:1] + [(VecEntity([other.one] * n), MatEntity.identity(other, n))])


def test_rank_small():
    ctx = make_field(5)
    r1 = [ctx.elem(1), ctx.elem(2)]
    r2 = [ctx.elem(2), ctx.elem(4)]
    r3 = [ctx.elem(0), ctx.elem(1)]
    assert rank([r1, r2]) == 1
    assert rank([r1, r3]) == 2
    assert rank([[ctx.zero, ctx.zero]]) == 0


def test_companion_realization_identity():
    # Tr(a lam^x) must equal a_vec A^x b_vec for the full period
    rng = np.random.default_rng(29)
    for p in (7, 11):
        ctx = make_field(p, 2)
        sub = subgroup_of_order(ctx, p + 1)  # the norm-one group
        members = [sub.generator ** k for k in range(1, p + 2)]
        base = make_field(p)
        for _ in range(10):
            lam = members[int(rng.integers(0, len(members)))]
            a = ctx.elem(int(rng.integers(0, p)), int(rng.integers(0, p)))
            if not a:
                a = ctx.one
            a_vec, b_vec, A = companion_realization(lam, a)
            assert A.det() == base.one
            tau = matrix_order(A) if lam != ctx.one else 1
            for x in range(1, min(tau, 50) + 1):
                lhs, _ = trace_norm(a * lam ** x)
                rhs = dot(vec_mat(a_vec.entries, mat_pow(A.rows, x)), b_vec.entries)
                assert lhs == rhs


def test_sl2_companion_shape():
    ctx = make_field(13)
    for u in range(13):
        A = sl2_companion(ctx, u)
        assert A.det() == ctx.one
        assert A.trace() == ctx.elem(u)


def test_matrix_order_norm_one_eigenvalue_route():
    # irreducible SL2 companions have order dividing p + 1 (eigenvalues on the
    # norm-one subgroup of F_{p^2})
    for p in (5, 7, 11, 13, 17):
        ctx = make_field(p)
        for u in range(p):
            A = sl2_companion(ctx, u)
            data = char_poly_factor(A)
            tau = matrix_order(A)
            if data.tag == "irreducible":
                assert (p + 1) % tau == 0
            elif data.tag == "split":
                assert (p - 1) % tau == 0


@pytest.mark.parametrize("p", [p for p in range(3, 401) if _is_prime(p)] + [1009, 1013])
def test_trace_table_equals_the_per_trace_analysis(p):
    # the table's class and a one-row char_poly_factor of a fresh companion
    # both take the scalar quadratic formula's tag, and the companion its
    # roots in order and root field; the table's orders and maps are those of
    # the fresh companion, and its torus rows of each (class, tau) are the
    # subgroup of the key's eigenvalues
    ctx = make_field(p)
    table = sl2_table(ctx)
    assert table.ctx is ctx and len(table.tags) == len(table.tau) == p
    assert table.maps.dtype == np.int64 and table.maps.shape == (p, 2, 2)
    assert table.tori["split"].shape == (p - 1, 2) and table.tori["irreducible"].shape == (p + 1, 2)
    keys = set()
    for u, (tag, tau) in enumerate(zip(table.tags, table.tau)):
        fresh = sl2_companion(ctx, u)
        single = char_poly_factor(fresh)
        want = naive_quadratic_roots(ctx.one, ctx.elem(-u))
        assert type(tag) is str and tag == want[0], u
        assert (single.tag, single.eigenvalues, single.eigen_ctx) == want, u
        assert single.coeffs == (ctx.one, ctx.elem(-u), ctx.one)
        assert tau == matrix_order(fresh) and type(tau) is int
        if tag != "repeated" and (tag, tau) not in keys:
            keys.add((tag, tau))
            lam = single.eigenvalues[0]
            powers = [lam ** k for k in range(1, tau + 1)]
            if tag == "split":
                want_rows = [(x.c0, (1 / x).c0) for x in powers]
            else:
                want_rows = [(x.c0, x.c1) for x in powers]
            got = sorted(map(tuple, table.torus(tag, tau).tolist()))
            assert got == sorted(want_rows), u
        assert np.array_equal(table.maps[u], residue_map(fresh, "column"))
        assert np.array_equal(table.maps[u].T, residue_map(fresh, "row"))
        assert all(type(c) is int for lam in single.eigenvalues for c in (lam.c0, lam.c1))
        assert (tag == "repeated") == (u in (2, p - 2))


def test_trace_table_reads_its_classes_from_the_torus_walks(monkeypatch):
    # no root finder runs, and the table holds strings, ints and arrays only
    def refused(*args):
        raise AssertionError("sl2_table called the quadratic root finder")

    monkeypatch.setattr(matgrp, "_quadratic_roots", refused)
    for p in (5, 13, 61, 1009):
        table = sl2_table(make_field(p))
        assert set(table.tags) == {"split", "irreducible", "repeated"}
        assert {type(x) for x in table.tags + table.tau} == {str, int}
        assert all(isinstance(walk, np.ndarray) for walk in table.tori.values())


def test_trace_table_torus_refuses_orders_it_does_not_hold():
    # tau must divide the size of the class's torus, p - 1 (split) or p + 1
    # (irreducible), and a repeated trace has no torus
    table = sl2_table(make_field(13))
    for tag, tau in (("split", 5), ("split", 7), ("irreducible", 3), ("irreducible", 12),
                     ("split", 0), ("irreducible", -2), ("repeated", 13), ("repeated", 26)):
        with pytest.raises(ValueError):
            table.torus(tag, tau)
    for tag, size in (("split", 12), ("irreducible", 14)):
        for tau in range(1, size + 1):
            if size % tau == 0:
                assert len(table.torus(tag, tau)) == tau


def test_trace_table_is_built_over_a_prime_field():
    with pytest.raises(WrongDegree):
        sl2_table(make_field(7, 2))


@pytest.mark.parametrize("p", [3, 7, 13])
def test_companion_maps_are_the_residue_maps_of_the_table(p):
    # a trace list with repeats, out of order, gathers the maps as sums does
    ctx = make_field(p)
    traces = [u for u in range(p) for _ in range(2)][::-1]
    maps = sl2_table(ctx).maps[traces]
    for side, got in (("column", maps), ("row", maps.transpose(0, 2, 1))):
        want = np.stack([residue_map(sl2_companion(ctx, u), side) for u in traces])
        assert got.dtype == np.int64 and np.array_equal(got, want)
