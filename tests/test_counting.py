import itertools
import math

import numpy as np
import pytest

from matpowlab import counting, ffield, matgrp
from matpowlab.counting import (
    CountResult,
    count_JK,
    count_product_eq,
    count_Q,
    orbit_energy,
    orbit_sum_distribution,
    power_orbit,
    residue_product_eqs,
    residue_sum_distribution,
    residue_sumset_cover,
    sequence_energy,
    sumset_cover,
    torus_energy,
    vector_orbit,
)
from matpowlab.errors import (
    BudgetExceeded,
    DegenerateParameters,
    InvariantViolated,
    MixedContext,
    ZeroLambda,
    ZeroVector,
    ZeroXi1,
)
from matpowlab.charsums import subgroup_entry
from matpowlab.ffield import (make_field, mul_matrix, mult_order, primitive_root, residue_inverse,
                              residue_orbit, subgroup_of_order, subgroup_walk)
from matpowlab.matgrp import (MatEntity, VecEntity, char_poly_factor, independence_checks,
                              matrix_order, sl2_companion, sl2_table)

from oracles import (
    add,
    count_Q_eigen,
    diagonal,
    dot,
    mat_inv,
    mat_mul,
    naive_count_Q,
    naive_count_Q_fast,
    naive_product_eq_count,
    naive_sumset_cover,
    vec_mat,
)


def _as_dict(dist):
    """A SumDistribution as a residue-tuple -> multiplicity dict."""
    return dict(zip(map(tuple, dist.rows.tolist()), dist.counts.tolist()))


def _matrix_powers(A, tau):
    out = []
    cur = A.rows
    for _ in range(tau):
        out.append(cur)
        cur = mat_mul(cur, A.rows)
    return out


def test_count_Q_matches_pure_tuple_oracle_tiny():
    # literal tuple enumeration, object arithmetic end to end
    for p, u in ((5, 0), (5, 1), (7, 0), (7, 3)):
        ctx = make_field(p)
        A = sl2_companion(ctx, u)
        tau = matrix_order(A)
        powers = _matrix_powers(A, tau)
        for nu in (1, 2):
            got = count_Q(A, nu)
            assert got.value == naive_count_Q(powers, nu)
    # one nu = 3 case kept tiny on purpose
    ctx = make_field(5)
    A = sl2_companion(ctx, 0)  # order 4
    powers = _matrix_powers(A, 4)
    assert count_Q(A, 3).value == naive_count_Q(powers, 3)


def test_oracles_agree_with_each_other():
    ctx = make_field(7)
    A = sl2_companion(ctx, 3)
    tau = matrix_order(A)
    powers = _matrix_powers(A, tau)
    keys = (power_orbit(A, tau), 7)
    for nu in (1, 2):
        assert naive_count_Q(powers, nu) == naive_count_Q_fast(keys, nu)


def test_count_Q_matches_vector_oracle_wider():
    for p in (5, 7, 11):
        ctx = make_field(p)
        for u in range(p):
            A = sl2_companion(ctx, u)
            tau = matrix_order(A)
            keys = (power_orbit(A, tau), p)
            for nu in (1, 2, 3):
                assert count_Q(A, nu).value == naive_count_Q_fast(keys, nu)


@pytest.mark.parametrize("p,degree", [(5, 1), (3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_orbits_match_object_arithmetic(p, degree, n):
    # lengths 1, 2, 3, 5 and tau straddle the doubling steps of residue_orbit
    ctx = make_field(p, degree)
    rng = np.random.default_rng(10 * n + p)

    def draw(count):
        while True:
            out = [ctx.from_index(int(rng.integers(ctx.q))) for _ in range(count)]
            if any(out):
                return out

    A = MatEntity([draw(n) for _ in range(n)])
    while not A.det():
        A = MatEntity([draw(n) for _ in range(n)])
    v = draw(n)
    tau = matrix_order(A)
    mats, rows, cols = [], [], []
    cur, row, col = A.rows, v, v
    for _ in range(max(tau, 5)):
        row, col = vec_mat(row, A.rows), tuple(dot(r, col) for r in A.rows)
        mats.append(MatEntity(cur).residues())
        rows.append(VecEntity(row).residues())
        cols.append(VecEntity(col).residues())
        cur = mat_mul(cur, A.rows)
    for length in (1, 2, 3, 5, tau):
        assert power_orbit(A, length).tolist() == [list(r) for r in mats[:length]]
        assert vector_orbit(VecEntity(v, "row"), A, length).tolist() == \
            [list(r) for r in rows[:length]]
        assert vector_orbit(VecEntity(v, "column"), A, length).tolist() == \
            [list(r) for r in cols[:length]]
    assert power_orbit(A).shape == (tau, n * n * degree)


@pytest.mark.parametrize("p,degree", [(5, 1), (3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_flat_map_matches_the_block_layout(p, degree, n):
    # column side: block (i, j) is mul_matrix(A[i][j]); row side: the block
    # layout transposed, each block kept as it is
    ctx = make_field(p, degree)
    rng = np.random.default_rng(7 * n + p)
    A = MatEntity([[ctx.from_index(int(rng.integers(ctx.q))) for _ in range(n)]
                   for _ in range(n)])
    blocks = [[mul_matrix(x) for x in row] for row in A.rows]
    column = matgrp.residue_map(A, "column")
    row = matgrp.residue_map(A, "row")
    assert column.dtype == row.dtype == np.int64
    assert np.array_equal(column, np.block(blocks))
    assert np.array_equal(row, np.block([list(col) for col in zip(*blocks)]))


def test_count_Q_frozen_small_values():
    ctx = make_field(7)
    ident = MatEntity.identity(ctx, 2)
    assert count_Q(ident, 2).value == 1
    neg = MatEntity.from_ints(ctx, [[6, 0], [0, 6]])
    # powers are {-I, I}; pair sums: -2I once, 0 twice, 2I once; 1 + 4 + 1
    assert count_Q(neg, 2).value == 6
    assert count_Q(neg, 1).value == 2


def test_count_Q_nu1_equals_tau():
    ctx = make_field(13)
    for u in (0, 1, 5):
        A = sl2_companion(ctx, u)
        res = count_Q(A, 1)
        assert res.value == matrix_order(A)
        assert res.method == "convolution"


def test_diagonal_lower_bound():
    # E >= 2 tau^2 - tau always (diagonal solutions)
    for p in (5, 11, 13):
        ctx = make_field(p)
        for u in range(0, p, 2):
            A = sl2_companion(ctx, u)
            tau = matrix_order(A)
            assert count_Q(A, 2).value >= 2 * tau * tau - tau


def test_conjugation_invariance():
    rng = np.random.default_rng(31)
    ctx = make_field(11)
    for u in (1, 4, 7):
        A = sl2_companion(ctx, u)
        while True:
            S = MatEntity.from_ints(
                ctx, [[int(rng.integers(0, 11)) for _ in range(2)] for _ in range(2)]
            )
            if S.det():
                break
        B = MatEntity(mat_mul(mat_mul(S.rows, A.rows), mat_inv(S.rows)))
        assert count_Q(A, 2).value == count_Q(B, 2).value


def test_eigen_reduction_cross_check():
    for p in (5, 7, 11, 13):
        ctx = make_field(p)
        for u in range(p):
            if (u - 2) % p == 0 or (u + 2) % p == 0:
                continue  # not diagonalizable
            A = sl2_companion(ctx, u)
            for nu in (1, 2):
                assert count_Q(A, nu).value == count_Q_eigen(A, nu)


def test_eigen_reduction_rejects_jordan_block():
    ctx = make_field(7)
    J = MatEntity.from_ints(ctx, [[1, 1], [0, 1]])
    with pytest.raises(ValueError, match="diagonalizable"):
        count_Q_eigen(J, 2)


def test_count_JK_independent_vector_matches_matrix_count():
    # with v, vA independent (and min poly = char poly) the vector count
    # collapses to the matrix count exactly
    for p in (7, 11, 13):
        ctx = make_field(p)
        for u in (0, 1, 3):
            A = sl2_companion(ctx, u)
            e1 = VecEntity([ctx.one, ctx.zero], "row")
            E = count_Q(A, 2).value
            assert count_JK(e1, A, 2).value == E
            assert count_JK(e1, A, 1).value == matrix_order(A)
            col = VecEntity([ctx.one, ctx.one], "column")
            assert count_JK(col, A, 2).value == E


def test_count_JK_dependent_vector_keeps_multiplicity():
    ctx = make_field(13)
    g = primitive_root(ctx)
    A = MatEntity(diagonal([ctx.one, g]))
    tau = matrix_order(A)  # 12
    ev = VecEntity([ctx.one, ctx.zero], "row")  # fixed by A
    res = count_JK(ev, A, 1)
    assert res.value == tau * tau  # orbit is one point repeated tau times
    # oracle comparison on the raw orbit sequence
    orbit = [tuple(int(x) for x in row) for row in vector_orbit(ev, A, tau)]
    arr = np.array(orbit, dtype=np.int64)
    assert count_JK(ev, A, 2).value == naive_count_Q_fast((arr, 13), 2)
    # e1 has period 2 under diag(-1, g), which has order 12: six copies of a 2-cycle
    A = MatEntity(diagonal([ctx.elem(-1), g]))
    for side in ("row", "column"):
        e1 = VecEntity([ctx.one, ctx.zero], side)
        orbit = vector_orbit(e1, A, matrix_order(A))
        assert len({tuple(r) for r in orbit.tolist()}) == 2 < len(orbit) == 12
        for k in (1, 2, 3):
            assert count_JK(e1, A, k).value == naive_count_Q_fast((orbit, 13), k)
    with pytest.raises(ZeroVector):
        count_JK(VecEntity([ctx.zero, ctx.zero], "row"), A, 2)


def _independence(v, A, _arity):
    return independence_checks([(v, A)])[0]


@pytest.mark.parametrize("entry", [count_JK, orbit_sum_distribution, sumset_cover,
                                   pytest.param(_independence, id="independence_check")])
def test_vector_orbit_inputs_are_checked(entry):
    f5, f7 = make_field(5), make_field(7)
    A = sl2_companion(f5, 1)
    with pytest.raises(ZeroVector):
        entry(VecEntity([f5.zero, f5.zero], "row"), A, 2)
    # (6, 0) over F_7 is not (1, 0) over F_5
    with pytest.raises(MixedContext):
        entry(VecEntity([f7.elem(6), f7.zero], "row"), A, 2)
    with pytest.raises(ValueError, match="dimension mismatch"):
        entry(VecEntity([f5.one, f5.zero, f5.zero], "row"), A, 2)


def test_count_JK_matches_tuple_oracle_small():
    ctx = make_field(5)
    A = sl2_companion(ctx, 1)
    tau = matrix_order(A)
    v = VecEntity([ctx.one, ctx.elem(2)], "row")
    vecs = []
    cur = v.entries
    for _ in range(tau):
        cur = vec_mat(cur, A.rows)
        vecs.append(cur)
    for k in (1, 2):
        assert count_JK(v, A, k).value == naive_count_Q(vecs, k)


def test_budget_guard():
    ctx = make_field(13)
    A = sl2_companion(ctx, 1)
    with pytest.raises(BudgetExceeded) as exc:
        count_Q(A, 2, budget=1e-3)  # limit 3
    assert exc.value.estimated_work is not None


def test_kernel_path_without_int64_encoding():
    # p^2 for p = 99991 is past DENSE_CAP, so count_Q sorts int64 keys
    p = 99991
    ctx = make_field(p)
    g = primitive_root(ctx)
    lam = g ** ((p - 1) // 6)
    A = MatEntity(diagonal([lam, lam.inverse()]))
    assert matrix_order(A) == 6
    res = count_Q(A, 2)
    assert res.parameters["kernel"] == "sorted"
    keys = (power_orbit(A, 6), p)
    assert res.value == naive_count_Q_fast(keys, 2)
    # same instance through the eigenvalue route
    assert count_Q_eigen(A, 2) == res.value
    # p^4 passes 2^63, so unreduced rows over F_{p^2}^2 sort lexicographically
    ctx = make_field(p, 2)
    A = MatEntity(diagonal([ctx.elem(-1)] * 2))
    a = VecEntity([ctx.one, ctx.elem(3, 1)], "row")
    for k in (2, 3):
        expect = {}
        for terms in itertools.product((vec_mat(a.entries, A.rows), a.entries), repeat=k):
            acc = terms[0]
            for t in terms[1:]:
                acc = add(acc, t)
            key = VecEntity(acc).residues()
            expect[key] = expect.get(key, 0) + 1
        assert _as_dict(orbit_sum_distribution(a, A, k)) == expect


def test_chunking_does_not_change_counts(monkeypatch):
    # every fold sorts at DENSE_CAP = 0; chunk 1 gives 1-row blocks, 12 and 30
    # blocks of a few rows with a ragged last one, so the sorted fold merges
    # several times and ends with blocks still pending
    ctx = make_field(11)
    A = sl2_companion(ctx, 4)
    g = primitive_root(ctx)
    D = MatEntity(diagonal([g * g, g]))
    e1 = VecEntity([ctx.one, ctx.zero], "row")  # period 5 under D of order 10: rows twice
    rows = np.array([[1, 2], [3, 4], [1, 2], [0, 5], [6, 0], [2, 2], [1, 2]])

    def record():
        dists = [orbit_sum_distribution(e1, D, k) for k in (2, 3)]
        return ([count_Q(A, nu).value for nu in (2, 3)]
                + [(d.rows.tolist(), d.counts.tolist()) for d in dists]
                + [sequence_energy(rows, 11, nu) for nu in (2, 3)])

    base = record()
    monkeypatch.setattr(counting, "DENSE_CAP", 0)
    for chunk in (1, 12, 30):
        monkeypatch.setattr(counting, "_CHUNK_TARGET", chunk)
        assert record() == base


def _pair_step_record(A, e1):
    dists = [orbit_sum_distribution(e1, A, k) for k in (2, 3)]
    return ([count_Q(A, nu).value for nu in (2, 3)]
            + [count_JK(e1, A, k).value for k in (2, 3)]
            + [(d.rows.tolist(), d.counts.tolist()) for d in dists]
            + [sumset_cover(e1, A, 4)])


@pytest.mark.parametrize("block_rows", [1, 2, 3])
def test_pair_blocks_do_not_change_counts(block_rows, monkeypatch):
    # pair keys of tau = 7 distinct orbit rows in blocks of 1, 2 or 3 rows:
    # the last block is ragged for 2 and 3
    ctx = make_field(13)
    A = sl2_companion(ctx, 7)
    assert matrix_order(A) == 7
    e1 = VecEntity([ctx.one, ctx.zero], "row")
    rows = np.array([[1, 2], [3, 4], [1, 2], [0, 5], [6, 0], [2, 2], [1, 2]])
    base = _pair_step_record(A, e1) + [sequence_energy(rows, 13, nu) for nu in (2, 3)]
    monkeypatch.setattr(counting, "_CHUNK_TARGET", 7 * block_rows)
    assert _pair_step_record(A, e1) + [sequence_energy(rows, 13, nu) for nu in (2, 3)] == base


def test_sequence_energy_needs_no_orbit_structure(monkeypatch):
    # rows with repeats that no linear step maps onto each other cyclically
    ctx = make_field(5)
    rows = np.array([[1, 0], [4, 3], [1, 0], [0, 0], [2, 4], [1, 0]])
    vecs = [(ctx.elem(a), ctx.elem(b)) for a, b in rows.tolist()]
    for nu in (1, 2, 3):
        assert sequence_energy(rows, 5, nu) == naive_count_Q(vecs, nu)
    # zero rows span nothing: every nu-fold sum is 0, so the count is 3^(2 nu)
    zeros = np.zeros((3, 2), dtype=np.int64)
    # rows outside 0..p-1 count as their residues mod p
    rng = np.random.default_rng(5)
    unreduced = [np.array([[-1, 0], [4, 0], [2, 3]]), rng.integers(-12, 12, size=(7, 2))]
    for cap in (counting.DENSE_CAP, 0):
        monkeypatch.setattr(counting, "DENSE_CAP", cap)
        for nu in (1, 2, 3):
            assert sequence_energy(zeros, 5, nu) == 3 ** (2 * nu)
            assert sequence_energy(np.zeros((0, 2), dtype=np.int64), 5, nu) == 0
            for raw in unreduced:
                assert sequence_energy(raw, 5, nu) == naive_count_Q_fast((raw % 5, 5), nu)


def _all_counts(p):
    """Every counting entry point on the companions of F_p, as one comparable record."""
    ctx = make_field(p)
    out = []
    for u in range(p):
        A = sl2_companion(ctx, u)
        e1 = VecEntity([ctx.one, ctx.zero], "row")
        col = VecEntity([ctx.one, ctx.elem(u)], "column")
        for nu in (1, 2, 3):
            out.append(count_Q(A, nu))
            out.append(count_JK(e1, A, nu))
            out.append(count_JK(col, A, nu))
        if (u - 2) % p and (u + 2) % p:
            out.append(count_Q_eigen(A, 2))
        dist = orbit_sum_distribution(col, A, 2)
        out.append((dist.rows.tolist(), dist.counts.tolist()))
    sub = subgroup_of_order(ctx, p - 1)
    rows = [x.residues() + x.inverse().residues()
            for x in (sub.generator ** k for k in range(1, p))]
    out += [sequence_energy(rows, p, nu) for nu in (1, 2, 3)]
    return out


def test_dense_kernel_matches_sort_kernel(monkeypatch):
    for p in (5, 7, 11):
        dense = _all_counts(p)
        monkeypatch.setattr(counting, "DENSE_CAP", 0)
        sort = _all_counts(p)
        monkeypatch.undo()
        for a, b in zip(dense, sort):
            if isinstance(a, CountResult):
                assert a.parameters.pop("kernel") == "dense"
                assert b.parameters.pop("kernel") == "sorted"
                assert (a.value, a.method, a.parameters) == (b.value, b.method, b.parameters)
            else:
                assert a == b
    A = sl2_companion(make_field(7), 3)
    assert count_Q(A, 2).parameters["key_dims"] == 2


@pytest.mark.parametrize("kernel", ["pairs", "dense", "sorted"])
def test_fold_that_drops_a_count_raises(kernel, monkeypatch):
    # the folded multiplicities must total tau^nu on every path: the pair
    # histogram (nu = 2), the dense folds after it (nu = 3) and the sort path
    arity = 3 if kernel == "dense" else 2
    if kernel != "sorted":
        step = "_pair_histogram" if kernel == "pairs" else "_dense_fold"
        real = getattr(counting, step)

        def lossy(*args):
            cells = real(*args)
            cells.flat[np.flatnonzero(cells)[0]] -= 1
            return cells

        monkeypatch.setattr(counting, step, lossy)
    else:
        real = counting._sorted_fold

        def lossy(*args):
            rows, counts = real(*args)
            counts[0] -= 1
            return rows, counts

        monkeypatch.setattr(counting, "DENSE_CAP", 0)
        monkeypatch.setattr(counting, "_sorted_fold", lossy)
    A = sl2_companion(make_field(7), 3)
    with pytest.raises(InvariantViolated):
        count_Q(A, arity)
    with pytest.raises(InvariantViolated):
        orbit_sum_distribution(VecEntity([A.ctx.one, A.ctx.zero], "row"), A, arity)


def _key_reduction_cases(ctx, n):
    """(matrix, degree of its minimal polynomial) for random, scalar and repeated-eigenvalue A."""
    rng = np.random.default_rng(7 * n + ctx.q)
    g = primitive_root(ctx)
    cases = []
    while len(cases) < 3:
        A = MatEntity([[ctx.from_index(int(rng.integers(ctx.q))) for _ in range(n)]
                       for _ in range(n)])
        if A.det():
            cases.append((A, n))
    cases.append((MatEntity(diagonal([g] * n)), 1))
    if n >= 2:
        cases.append((MatEntity(diagonal([g] * (n - 1) + [g * g])), 2))
        jordan = [[g if i == j else ctx.elem(int(j == i + 1)) for j in range(n)]
                  for i in range(n)]
        cases.append((MatEntity(jordan), n))
    return cases


@pytest.mark.parametrize("p,degree", [(5, 1), (3, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_key_reduction_keeps_counts(p, degree, n):
    ctx = make_field(p, degree)
    for A, m in _key_reduction_cases(ctx, n):
        tau = matrix_order(A)
        keys = (power_orbit(A, tau), p)
        for nu in (1, 2, 3) if tau <= 30 else (1, 2):
            res = count_Q(A, nu)
            assert res.parameters["key_dims"] <= m * degree <= n * degree
            assert res.value == naive_count_Q_fast(keys, nu)


def test_product_eq_matches_naive():
    rng = np.random.default_rng(37)
    ctx = make_field(13)
    for n in (1, 2, 3):
        for _ in range(20):
            xis = [ctx.elem(int(rng.integers(1, 13)))] + [
                ctx.elem(int(rng.integers(0, 13))) for _ in range(n - 1)
            ]
            lambdas = [ctx.elem(int(rng.integers(1, 13))) for _ in range(n)]
            xi0 = ctx.elem(int(rng.integers(1, 13)))
            res = count_product_eq(xi0, xis, lambdas)
            assert res.value == naive_product_eq_count(xi0, xis, lambdas, res.parameters["tau"])
            assert res.parameters["L"] == max(mult_order(x) for x in lambdas)


def test_product_eq_extension_field():
    ctx = make_field(7, 2)
    g = primitive_root(ctx)
    lam = g ** ((ctx.q - 1) // 8)
    xis = [ctx.one, ctx.elem(3, 1)]
    res = count_product_eq(ctx.elem(2, 5), xis, [lam, lam.inverse()])
    assert res.value == naive_product_eq_count(
        ctx.elem(2, 5), xis, [lam, lam.inverse()], res.parameters["tau"]
    )


def test_product_eq_computes_one_order_per_conjugate_pair(monkeypatch):
    # lam and lam^p share their order, so the pair costs one mult_order
    ctx = make_field(7, 2)
    lam = primitive_root(ctx) ** 3  # order 16, outside F_7
    assert lam != lam.frobenius()
    calls = []

    def counted(x):
        calls.append(x)
        return mult_order(x)

    monkeypatch.setattr(matgrp, "mult_order", counted)
    xis = [ctx.one, ctx.elem(3, 1)]
    res = count_product_eq(ctx.elem(2, 5), xis, [lam, lam.frobenius()])
    assert len(calls) == 1
    assert res.parameters["tau"] == res.parameters["L"] == 16
    assert res.value == naive_product_eq_count(ctx.elem(2, 5), xis,
                                               [lam, lam.frobenius()], 16)


def test_product_eqs_match_the_naive_count():
    # split (F_13) and irreducible (F_169) eigenvalue pairs of SL_2 companions,
    # a one-base equation, and a capped one in the middle
    p = 13
    ext = make_field(p, 2)
    rng = np.random.default_rng(11)
    entries = []
    for u in (3, 4, 5, 0, 1, 6, 4):
        lambdas = char_poly_factor(sl2_companion(make_field(p), u)).eigenvalues
        ctx = lambdas[0].ctx
        xis = (ctx.from_index(1 + int(rng.integers(ctx.q - 1))),
               ctx.from_index(int(rng.integers(ctx.q))))
        entries.append((ctx.from_index(1 + int(rng.integers(ctx.q - 1))), xis, lambdas))
    g = primitive_root(ext)
    entries.insert(3, (ext.one, (ext.one,), (g,)))  # order 168 > the limit 100
    entries.append((ext.elem(2), (ext.elem(1, 1),), (g ** 12,)))
    with pytest.raises(BudgetExceeded) as capped:
        count_product_eq(*entries.pop(3), budget=1e-3)
    assert capped.value.estimated_work == 168
    assert {xi0.ctx.degree for xi0, _, _ in entries} == {1, 2}
    values = []
    for xi0, xis, lambdas in entries:
        result = count_product_eq(xi0, xis, lambdas, budget=1e-3)
        tau = math.lcm(*(mult_order(lam) for lam in lambdas))
        assert result.parameters == {"tau": tau, "L": max(map(mult_order, lambdas)),
                                     "n": len(lambdas), "p": p, "degree": xi0.ctx.degree}
        assert result.value == naive_product_eq_count(xi0, xis, lambdas, tau)
        values.append(result.value)
    assert sum(values) > 0


def test_residue_product_eqs_scan_a_stack_of_equations_on_one_period(monkeypatch):
    # every equation of the stack is counted on the same power rows, in blocks
    # of any size, a capped period raises before any work, and the rows of
    # coefficients and targets must match the bases and the equations
    rng = np.random.default_rng(5)
    for ctx in (make_field(13), make_field(7, 2)):
        g = primitive_root(ctx)
        for lambdas in ([g ** 2, g ** 3], [g ** 4]):
            tau = math.lcm(*map(mult_order, lambdas))
            powers = np.array([[(lam ** x).residues() for lam in lambdas]
                               for x in range(1, tau + 1)])
            equations = [(ctx.from_index(1 + int(rng.integers(ctx.q - 1))),
                          [ctx.from_index(1 + int(rng.integers(ctx.q - 1)))]
                          + [ctx.from_index(int(rng.integers(ctx.q)))
                             for _ in lambdas[1:]]) for _ in range(9)]
            xis = np.array([[xi.residues() for xi in coefficients]
                            for _, coefficients in equations])
            targets = np.array([xi0.residues() for xi0, _ in equations])
            hits = residue_product_eqs(powers, xis, targets, ctx)
            assert hits.dtype == np.int64
            assert hits.tolist() == [naive_product_eq_count(xi0, coefficients, lambdas, tau)
                                     for xi0, coefficients in equations]
            with monkeypatch.context() as patch:
                patch.setattr(counting, "_CHUNK_TARGET", 2 * tau * ctx.degree)
                assert np.array_equal(residue_product_eqs(powers, xis, targets, ctx), hits)
            assert residue_product_eqs(powers, xis[:0], targets[:0], ctx).tolist() == []
            with pytest.raises(BudgetExceeded) as capped:
                residue_product_eqs(powers, xis, targets, ctx, budget=(tau - 1) / 10 ** 5)
            assert capped.value.estimated_work == tau
            with pytest.raises(ValueError):
                wrong = xis[:, :1] if len(lambdas) == 2 else xis.repeat(2, axis=1)
                residue_product_eqs(powers, wrong, targets, ctx)
            with pytest.raises(ValueError):
                residue_product_eqs(powers, xis, targets[1:], ctx)


def test_product_eq_rejects_bad_inputs():
    ctx = make_field(7)
    one, two = ctx.one, ctx.elem(2)
    with pytest.raises(ZeroXi1):
        count_product_eq(one, [ctx.zero, one], [two, two])
    with pytest.raises(ZeroLambda):
        count_product_eq(one, [one], [ctx.zero])
    with pytest.raises(DegenerateParameters):
        count_product_eq(ctx.zero, [one], [two])
    with pytest.raises(BudgetExceeded):
        count_product_eq(one, [one], [ctx.elem(3)], budget=2e-5)  # limit 2 < ord(3) = 6 mod 7


def test_orbit_sum_distribution_totals_and_invariance():
    ctx = make_field(7)
    A = sl2_companion(ctx, 1)
    tau = matrix_order(A)
    a = VecEntity([ctx.one, ctx.elem(3)], "row")
    for k in (1, 2, 3):
        dist = orbit_sum_distribution(a, A, k)
        assert dist.counts.dtype == np.int64
        assert int(dist.counts.sum()) == tau ** k
        assert dist.total == tau ** k
    # the distribution is A-invariant: c(u) = c(uA)
    counts = _as_dict(orbit_sum_distribution(a, A, 2))
    for key, c in counts.items():
        shifted = VecEntity(vec_mat((ctx.elem(key[0]), ctx.elem(key[1])), A.rows)).residues()
        assert counts.get(tuple(shifted)) == c


def test_orbit_sum_distribution_matches_tuple_enumeration():
    ctx = make_field(5)
    A = sl2_companion(ctx, 1)
    tau = matrix_order(A)
    a = VecEntity([ctx.one, ctx.one], "row")
    orbit = []
    cur = a.entries
    for _ in range(tau):
        cur = vec_mat(cur, A.rows)
        orbit.append(cur)
    expect = {}
    for i in range(tau):
        for j in range(tau):
            key = VecEntity(add(orbit[i], orbit[j])).residues()
            expect[key] = expect.get(key, 0) + 1
    assert _as_dict(orbit_sum_distribution(a, A, 2)) == expect


def test_orbit_sum_distribution_budget():
    ctx = make_field(13)
    A = sl2_companion(ctx, 1)
    with pytest.raises(BudgetExceeded):
        orbit_sum_distribution(VecEntity([ctx.one, ctx.one], "row"), A, 3, budget=1e-7)


def test_sumset_cover_line_orbit_never_covers():
    ctx = make_field(7)
    g = primitive_root(ctx)
    A = MatEntity(diagonal([g, g ** -1]))
    ev = VecEntity([ctx.one, ctx.zero], "row")  # stays on the x-axis line
    res = sumset_cover(ev, A, 6)
    assert res.covered_at is None
    assert len(res.missing) == 6
    assert all(m >= res.space - 7 for m in res.missing)


def test_sumset_cover_irreducible_orbit_covers():
    ctx = make_field(5)
    A = sl2_companion(ctx, 1)  # irreducible, order 6
    a = VecEntity([ctx.one, ctx.zero], "row")
    res = sumset_cover(a, A, 8)
    assert res.covered_at is not None
    assert res.missing[res.covered_at - 1] == 0
    assert res.space == 25


def _row_orbit(start, A):
    out, cur = [], start.entries
    for _ in range(matrix_order(A)):
        cur = vec_mat(cur, A.rows)
        out.append(VecEntity(cur).residues())
    return out


def test_sumset_cover_matches_set_oracle():
    for p in (5, 7, 11, 13):
        ctx = make_field(p)
        start = VecEntity([ctx.one, ctx.zero], "row")
        for u in range(p):
            A = sl2_companion(ctx, u)
            res = sumset_cover(start, A, 4)
            assert (res.covered_at, res.missing) == naive_sumset_cover(_row_orbit(start, A), p, 4)
    # the stagnating line orbit of test_sumset_cover_line_orbit_never_covers
    ctx = make_field(7)
    g = primitive_root(ctx)
    A = MatEntity(diagonal([g, g ** -1]))
    start = VecEntity([ctx.one, ctx.zero], "row")
    res = sumset_cover(start, A, 6)
    assert (res.covered_at, res.missing) == naive_sumset_cover(_row_orbit(start, A), 7, 6)


def test_sumset_cover_budget():
    ctx = make_field(101)
    A = sl2_companion(ctx, 1)
    with pytest.raises(BudgetExceeded):
        sumset_cover(VecEntity([ctx.one, ctx.one], "row"), A, 3, budget=1e-5)


def test_sequence_energy_scalar():
    # subgroup of order 4 in F_13: elements {5, 12, 8, 1}; oracle by tuples
    ctx = make_field(13)
    sub = subgroup_of_order(ctx, 4)
    rows = [(sub.generator ** k).residues() for k in range(1, 5)]
    got = sequence_energy(rows, 13, 2)
    vals = [r[0] for r in rows]
    expect = 0
    for a in vals:
        for b in vals:
            for c in vals:
                for d in vals:
                    if (a + b) % 13 == (c + d) % 13:
                        expect += 1
    assert got == expect


def test_energy_past_int64_is_exact():
    # 70 000 rows evenly on Z_7: each 3-fold sum class has 70 000^3 / 7 members,
    # and the sum of their squares (~1.7e28) is far past int64
    rows = np.arange(70000)[:, None] % 7
    assert sequence_energy(rows, 7, 3) == 7 * (70000 ** 3 // 7) ** 2


def _moment_decomposition(family, p, degree, order):
    """The field and the walk sum_moment counts for the order-`order` subgroup G of
    F_q*: u = g^x over G (subgroup_walk), then 1 / u for Kloosterman, the rows of
    the vector orbit of subgroup_entry(family, G)."""
    ctx = make_field(p, degree)
    G = subgroup_of_order(ctx, order)
    walk = subgroup_walk(G)
    if family == "kloosterman":
        walk = np.hstack((walk, residue_inverse(walk, ctx)))
    A, ones = subgroup_entry(family, G)
    assert np.array_equal(walk, vector_orbit(ones, A, order))
    return ctx, walk


@pytest.mark.parametrize("family,p,degree,order", [("kloosterman", 13, 1, 4),
                                                   ("kloosterman", 5, 2, 8),
                                                   ("gauss", 7, 2, 16),
                                                   ("kloosterman", 13, 1, 3),
                                                   ("gauss", 7, 2, 8)])
def test_orbit_energy_checks_its_decomposition(family, p, degree, order, monkeypatch):
    ctx, walk = _moment_decomposition(family, p, degree, order)
    want = [sequence_energy(walk, p, nu) for nu in (1, 2, 3)]
    assert [orbit_energy(walk, ctx, nu) for nu in (1, 2, 3)] == want
    real_walk = counting.coset_walk

    def repeated(field, tau, block):
        # every block repeats its last row: one coset counted twice
        for rows, sizes in real_walk(field, tau, block):
            yield np.vstack((rows, rows[-1:])), np.r_[sizes, sizes[-1:]]

    for block in (1 << 20, 2):
        monkeypatch.setattr(counting, "_CHUNK_TARGET", block * order * p ** (walk.shape[1] - degree))
        monkeypatch.setattr(counting, "coset_walk", repeated)
        with pytest.raises(InvariantViolated):
            orbit_energy(walk, ctx, 3)
        monkeypatch.setattr(counting, "coset_walk", real_walk)
        assert orbit_energy(walk, ctx, 3) == want[2]
    # heads z^c of a non-primitive z = g^2: with L = (q - 1) / |G| odd they still
    # take every coset once; with L even they take the even cosets twice each
    real_root = ffield.primitive_root
    monkeypatch.setattr(ffield, "primitive_root", lambda field: real_root(field) ** 2)
    if (ctx.q - 1) // order % 2:
        assert orbit_energy(walk, ctx, 3) == want[2]
    else:
        with pytest.raises(InvariantViolated):
            orbit_energy(walk, ctx, 3)


def test_orbit_energy_past_int64_is_exact(monkeypatch):
    # the full group of F_q, tau = q - 1 with tau^6 past int64, counted as Python
    # ints by the gather, not sequence_energy; at q = 7919 the energy itself (~3.1e19)
    # passes int64.  x_1 + x_2 + x_3 = x_4 + x_5 + x_6 over F_q* has
    # ((q - 1)^6 + (q - 1)) / q solutions, since each nonzero a has
    # sum_(x != 0) e(a x) = -1
    monkeypatch.setattr(counting, "sequence_energy", None)
    for p, degree in ((41, 2), (7919, 1)):
        ctx = make_field(p, degree)
        q = ctx.q
        walk = subgroup_walk(subgroup_of_order(ctx, q - 1))
        assert (q - 1) ** 6 >= 2 ** 63
        assert orbit_energy(walk, ctx, 3) == ((q - 1) ** 6 + q - 1) // q


# ---- the torus kernels of the SL_2 trace table ---------------------------------------


_SMALL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]


def _keys(table):
    """Each (class, tau) key of a trace table with the first trace u of the key."""
    keys = {}
    for u, (tag, tau) in enumerate(zip(table.tags, table.tau)):
        if tag != "repeated":
            keys.setdefault((tag, tau), u)
    return keys


@pytest.mark.parametrize("p", _SMALL_PRIMES)
def test_torus_energy_is_the_companion_count(p):
    # the key's torus rows are the power orbit of A_u up to an F_p-linear
    # bijection; at nu = 3 and p <= 61 every key takes orbit_energy's gather
    table = sl2_table(make_field(p))
    for (tag, tau), u in _keys(table).items():
        A = sl2_companion(table.ctx, u)
        for nu in (1, 2, 3):
            assert torus_energy(table, tag, tau, nu) == count_Q(A, nu).value, (tag, tau, nu)


def test_torus_energy_is_the_sorted_companion_count_at_p_1009():
    # past p = 724 count_Q folds by sorting; the torus count is sequence_energy
    # on the tau rows at nu = 2
    table = sl2_table(make_field(1009))
    for (tag, tau), u in _keys(table).items():
        A = sl2_companion(table.ctx, u)
        result = count_Q(A, 2)
        assert result.parameters["kernel"] == "sorted"
        assert torus_energy(table, tag, tau, 2) == result.value, (tag, tau)


@pytest.mark.parametrize("p", _SMALL_PRIMES)
def test_torus_sums_and_cover_are_the_companion_row_orbits(p):
    # the start row (1, 0) maps a I + b A_u to (a, -b): the row orbit of A_u is
    # its torus rows up to an F_p-linear bijection of F_p^2
    table = sl2_table(make_field(p))
    start = VecEntity((table.ctx.one, table.ctx.zero), "row")
    for (tag, tau), u in _keys(table).items():
        A = sl2_companion(table.ctx, u)
        rows = table.torus(tag, tau)
        for k in (1, 2):
            dist = residue_sum_distribution(rows, p, k)
            want = orbit_sum_distribution(start, A, k)
            assert len(dist.rows) == len(want.rows) and dist.total == want.total == tau ** k
            assert sorted(dist.counts.tolist()) == sorted(want.counts.tolist())
        assert residue_sumset_cover(rows, p, 4) == sumset_cover(start, A, 4), (tag, tau)


def test_torus_energy_walks_no_more_than_tau_rows_past_the_gather(monkeypatch):
    # past p = 1024 orbit_energy's dense table passes its bytes, so no coset
    # head is walked: every kernel reads its tau rows from the table's walks
    p = 1031
    table = sl2_table(make_field(p))
    walked = []
    real = residue_orbit

    def spy(M, start, length, q):
        walked.append(length)
        return real(M, start, length, q)

    monkeypatch.setattr(counting, "residue_orbit", spy)
    monkeypatch.setattr(ffield, "residue_orbit", spy)
    for (tag, tau), u in _keys(table).items():
        for nu in (2, 3) if tau <= 50 else (2,):
            walked.clear()
            value = torus_energy(table, tag, tau, nu)
            assert all(length <= tau for length in walked), (tag, tau, nu, walked)
            if tau <= 12:
                assert value == count_Q(sl2_companion(table.ctx, u), nu).value
    # below it the spy sees the irreducible heads 0, z, ..., z^L: one coset_walk in
    # blocks of 2^20 / tau rows, each walk continuing the block before
    table = sl2_table(make_field(1019))
    walked.clear()
    value = torus_energy(table, "irreducible", 5, 3)
    assert walked == [(1019 ** 2 - 1) // 5]
    # in blocks of 2^16 / 5 rows: the row 0 and 13 106 powers, then 13 107 a block
    monkeypatch.setattr(counting, "_CHUNK_TARGET", 1 << 16)
    walked.clear()
    assert torus_energy(table, "irreducible", 5, 3) == value
    assert walked == [13106] + [13107] * 14 + [11068]
    assert sum(walked) == (1019 ** 2 - 1) // 5


def test_torus_energy_skips_as_count_Q_does():
    # the same cap, DEFAULT_TAU_CAP[nu] on tau, with estimated work tau^nu
    table = sl2_table(make_field(61))
    for (tag, tau), u in _keys(table).items():
        A = sl2_companion(table.ctx, u)
        for nu in (1, 2, 3):
            budget = (tau - 0.5) / counting.DEFAULT_TAU_CAP[nu]
            with pytest.raises(BudgetExceeded) as torus:
                torus_energy(table, tag, tau, nu, budget)
            with pytest.raises(BudgetExceeded) as companion:
                count_Q(A, nu, budget)
            assert torus.value.estimated_work == companion.value.estimated_work == tau ** nu
            budget = (tau + 0.5) / counting.DEFAULT_TAU_CAP[nu]
            assert torus_energy(table, tag, tau, nu, budget) == count_Q(A, nu).value


@pytest.mark.parametrize("p", _SMALL_PRIMES)
def test_product_eqs_on_the_torus_rows_are_the_eigenvalue_counts(p):
    # lam^x runs over the key's torus rows h as x runs over the period, and
    # lam^-x = 1/h is the second column (split) or the conjugate (irreducible);
    # x -> -x permutes the period, so the eigenvalues may come in either order
    ctx = make_field(p)
    table = sl2_table(ctx)
    rng = np.random.default_rng(p)
    for u, (tag, tau) in enumerate(zip(table.tags, table.tau)):
        if tag == "repeated":
            continue
        lambdas = char_poly_factor(sl2_companion(ctx, u)).eigenvalues
        field = lambdas[0].ctx
        rows = table.torus(tag, tau)
        powers = (rows[:, :, None] if tag == "split"
                  else np.stack((rows, rows * (1, -1) % p), axis=1))
        xi0, xi1, xi2 = (field.from_index(1 + int(rng.integers(field.q - 1))),
                         field.from_index(1 + int(rng.integers(field.q - 1))),
                         field.from_index(int(rng.integers(field.q))))
        (core,) = residue_product_eqs(powers, np.array([[xi1.residues(), xi2.residues()]]),
                                      np.array([xi0.residues()]), field).tolist()
        assert core == count_product_eq(xi0, (xi1, xi2), lambdas).value, (u, tag)
        assert core == count_product_eq(xi0, (xi1, xi2), lambdas[::-1]).value, (u, tag)
        assert core == naive_product_eq_count(xi0, (xi1, xi2), lambdas, tau), (u, tag)
