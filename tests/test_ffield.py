import numpy as np
import pytest

from matpowlab import ffield
from matpowlab.errors import (
    BudgetExceeded,
    CompositeModulus,
    DegenerateParameters,
    MixedContext,
    WrongDegree,
    ZeroElement,
)
from matpowlab.ffield import (
    FieldCtx,
    SubgroupSpec,
    is_square,
    make_field,
    mul_matrix,
    mult_order,
    primitive_root,
    residue_inverse,
    residue_power,
    residue_product,
    residue_sqrt,
    subgroup_of_order,
    subgroup_walk,
    trace_form,
)
from matpowlab.matgrp import MatEntity, residue_map

from oracles import (
    naive_field_trace,
    naive_least_nonresidue,
    naive_mult_order,
    naive_nonresidue,
    naive_primitive_root,
    naive_sqrt,
    trace_norm,
)

ODD_PRIMES_TO_31 = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _psi(z):
    """e_p(Tr z) as the sums take it: the roots_of_unity() table at the trace form's Tr z."""
    ctx = z.ctx
    trace = np.array(ctx.one.residues()) @ trace_form(ctx) @ np.array(z.residues()) % ctx.p
    return ctx.roots_of_unity()[trace]


def test_make_field_rejects_bad_moduli():
    for bad in (1, 4, 9, 15, 2):
        with pytest.raises(CompositeModulus):
            make_field(bad)
    with pytest.raises(WrongDegree):
        make_field(7, 3)
    with pytest.raises(BudgetExceeded):
        FieldCtx(ffield._MAX_P + 2)


def test_quadratic_extension_uses_least_nonresidue():
    # frozen small cases, cross-checked against the square-set oracle
    assert make_field(7, 2).r == 3
    assert make_field(3, 2).r == 2
    assert make_field(11, 2).r == 2
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        assert make_field(p, 2).r == naive_least_nonresidue(p)


def test_is_prime_matches_naive_division():
    for n in range(-2, 2001):
        assert ffield._is_prime(n) == (n >= 2 and all(n % d for d in range(2, n))), n


def test_group_order_factorization_multiplies_back():
    for p, degree in ((7, 1), (7, 2), (101, 2), (13, 1)):
        ctx = make_field(p, degree)
        n = 1
        for prime, e in ctx.group_order_factorization:
            assert ffield._is_prime(prime)
            n *= prime ** e
        assert n == ctx.q - 1


def test_field_arithmetic_small():
    ctx = make_field(7)
    a, b = ctx.elem(3), ctx.elem(5)
    assert a + b == ctx.elem(1)
    assert a - b == ctx.elem(5)
    assert a * b == ctx.elem(1)
    assert a / b == a * b.inverse()
    assert -a == ctx.elem(4)
    assert a ** 6 == ctx.one
    assert a + 4 == ctx.zero
    assert 2 * a == ctx.elem(6)
    assert 3 / b == ctx.elem(3) * b.inverse()
    assert a == 3 and a != 4
    with pytest.raises(TypeError):
        _ = a + "a"


def test_extension_arithmetic_against_polynomial_model():
    # multiply (c0 + c1 w)(d0 + d1 w) with w^2 = r, reducing by hand
    ctx = make_field(5, 2)
    r = ctx.r
    for c0 in range(5):
        for c1 in range(5):
            for d0 in range(5):
                for d1 in range(5):
                    got = ctx.elem(c0, c1) * ctx.elem(d0, d1)
                    assert got.c0 == (c0 * d0 + r * c1 * d1) % 5
                    assert got.c1 == (c0 * d1 + c1 * d0) % 5


@pytest.mark.parametrize("p", [3, 13])
def test_prime_field_is_the_c1_zero_slice(p):
    # degree-1 products, inverses and Frobenius against integer arithmetic mod p
    ctx = make_field(p)
    for a in range(p):
        x = ctx.elem(a)
        assert (x.frobenius().c0, x.frobenius().c1) == (a, 0)
        if a:
            assert (x.inverse().c0, x.inverse().c1) == (pow(a, -1, p), 0)
        for b in range(p):
            got = x * ctx.elem(b)
            assert (got.c0, got.c1) == (a * b % p, 0)


def test_inverse_and_pow_consistency():
    for p, degree in ((13, 1), (7, 2)):
        ctx = make_field(p, degree)
        for x in ctx.iter_elements():
            if not x:
                with pytest.raises(ZeroElement):
                    x.inverse()
                continue
            assert x * x.inverse() == ctx.one
            assert x ** -1 == x.inverse()
            assert x ** (ctx.q - 1) == ctx.one
            assert x ** 5 == x * x * x * x * x


@pytest.mark.parametrize("p, sample", [(3, None), (5, None), (7, 12)])
def test_pow_matches_repeated_multiplication(p, sample):
    # every x of F_9 and F_25 (a seeded sample of F_49) against running
    # products of x and of its inverse, for every exponent -q..q+1
    ctx = make_field(p, 2)
    xs = list(ctx.iter_elements())
    if sample is not None:
        rng = np.random.default_rng(p)
        xs = [xs[0]] + [xs[int(i)] for i in rng.integers(1, ctx.q, sample)]
    for x in xs:
        acc = ctx.one
        for e in range(ctx.q + 2):
            assert x ** e == acc, (x, e)
            acc = acc * x
        if not x:
            with pytest.raises(ZeroElement):
                x ** -1
            continue
        inv, acc = x.inverse(), ctx.one
        assert inv * x == ctx.one
        for e in range(ctx.q + 1):
            assert x ** -e == acc, (x, -e)
            acc = acc * inv


def test_mixed_context_rejected():
    a = make_field(7).elem(3)
    b = make_field(11).elem(3)
    with pytest.raises(MixedContext):
        _ = a + b


def test_frobenius_is_p_power():
    for p in (3, 5, 7, 11):
        ctx = make_field(p, 2)
        for x in ctx.iter_elements():
            assert x.frobenius() == x ** p


def test_trace_norm_values():
    # the oracle's closed forms against Frobenius and lift, exhaustively
    ctx = make_field(7, 2)
    w = ctx.omega()
    tr, nm = trace_norm(w)
    assert tr == make_field(7).zero
    assert nm == make_field(7).elem(-3)  # -r mod 7 = 4
    for x in ctx.iter_elements():
        tr, nm = trace_norm(x)
        lift = ctx.lift
        assert lift(tr) == x + x.frobenius()
        assert lift(nm) == x * x.frobenius()


def test_mult_order_matches_naive_oracle():
    # exhaustive wherever q <= 2000
    for p, degree in ((5, 1), (7, 1), (31, 1), (5, 2), (7, 2), (43, 2)):
        ctx = make_field(p, degree)
        for x in ctx.iter_elements():
            if not x:
                continue
            k = mult_order(x)
            assert k == naive_mult_order(x)
            assert (ctx.q - 1) % k == 0


def test_mult_order_frozen_values():
    ctx = make_field(7)
    assert mult_order(ctx.elem(3)) == 6
    assert mult_order(ctx.elem(2)) == 3
    assert mult_order(ctx.elem(6)) == 2
    assert mult_order(ctx.one) == 1


@pytest.mark.parametrize("degree", [1, 2])
def test_scans_return_the_first_element_in_index_order(degree):
    for p in ODD_PRIMES_TO_31:
        ctx = make_field(p, degree)
        assert primitive_root(ctx) == naive_primitive_root(ctx)
        assert ffield._nonresidue_elem(ctx) == naive_nonresidue(ctx)


def test_primitive_root_has_full_order():
    for p, degree in ((5, 1), (13, 1), (101, 1), (5, 2), (11, 2)):
        ctx = make_field(p, degree)
        g = primitive_root(ctx)
        assert mult_order(g) == ctx.q - 1


def test_norm_subgroup_members():
    # the order-(p + 1) subgroup of F_{p^2}* is generated by g^(p - 1) and is the norm-one group
    for p in ODD_PRIMES_TO_31:
        ctx = make_field(p, 2)
        sub = subgroup_of_order(ctx, p + 1)
        assert sub.generator == primitive_root(ctx) ** (p - 1)
        members = [sub.generator ** k for k in range(1, p + 2)]
        assert len(set(members)) == p + 1
        for z in members:
            assert z * z.frobenius() == ctx.one
        # and conversely every norm-one element is in the subgroup
        norm_one = [x for x in ctx.iter_elements() if x and x * x.frobenius() == ctx.one]
        assert set(norm_one) == set(members)
        assert subgroup_walk(sub).tolist() == [list(z.residues()) for z in members]


def test_subgroup_spec_validates_order():
    ctx = make_field(13)
    g = primitive_root(ctx)
    with pytest.raises(DegenerateParameters):
        SubgroupSpec(g, 5)  # 5 does not divide 12
    with pytest.raises(DegenerateParameters):
        SubgroupSpec(g ** 2, 12)  # g^2 has order 6: declared order is not exact
    with pytest.raises(DegenerateParameters):
        SubgroupSpec(g ** 2, 3)  # (g^2)^3 != 1
    with pytest.raises(ZeroElement):
        SubgroupSpec(ctx.zero, 1)
    sub = subgroup_of_order(ctx, 4)
    assert sub.order == 4
    assert mult_order(sub.generator) == 4


def test_character_homomorphism_random_pairs():
    # z -> e_p(Tr(alpha z)) is additive for the twist alpha as for alpha = 1
    rng = np.random.default_rng(123)
    for p, degree in ((13, 1), (7, 2)):
        ctx = make_field(p, degree)
        alpha = ctx.elem(int(rng.integers(1, p)), int(rng.integers(0, p)) if degree == 2 else 0)
        if not alpha:
            alpha = ctx.one
        for _ in range(1000):
            x = ctx.elem(int(rng.integers(0, p)), int(rng.integers(0, p)) if degree == 2 else 0)
            y = ctx.elem(int(rng.integers(0, p)), int(rng.integers(0, p)) if degree == 2 else 0)
            lhs = _psi(alpha * (x + y))
            rhs = _psi(alpha * x) * _psi(alpha * y)
            assert abs(lhs - rhs) < 1e-12


def test_character_full_sum_vanishes():
    # sum over the whole additive group is zero for a nontrivial character
    for p, degree in ((11, 1), (5, 2)):
        ctx = make_field(p, degree)
        total = sum(_psi(x) for x in ctx.iter_elements())
        assert abs(total) < 1e-9


def test_character_trace_argument():
    # the degree-2 character factors through the trace: psi(z) = e_p(Tr(z))
    ctx = make_field(7, 2)
    for z in ctx.iter_elements():
        tr, _ = trace_norm(z)
        assert tr.c0 == naive_field_trace(z)
        expect = np.exp(2j * np.pi * tr.c0 / 7)
        assert abs(_psi(z) - expect) < 1e-12


@pytest.mark.parametrize("p,degree", [(5, 1), (7, 1), (5, 2), (7, 2)])
def test_residue_matrices_match_field_arithmetic(p, degree):
    # every a, z: res(a) T res(z) = Tr(a z), the roots table at Tr z is e_p(Tr z)
    # and mul_matrix(a) res(z) = residue_product(res(a), res(z)) = res(a z)
    ctx = make_field(p, degree)
    elems = list(ctx.iter_elements())
    res = np.array([x.residues() for x in elems])
    prod = np.array([[(a * z).c0 + p * (a * z).c1 for z in elems] for a in elems])
    for a, row in zip(elems, prod):
        assert np.array_equal(mul_matrix(a) @ res.T % p, res[row].T)
    assert np.array_equal(residue_product(res[:, None], res[None, :], ctx), res[prod])
    traces = np.array([naive_field_trace(y) for y in elems])
    assert np.array_equal(res @ trace_form(ctx) @ res.T % p, traces[prod])
    psi = np.exp(2j * np.pi * traces / p)
    assert max(abs(_psi(y) - want) for y, want in zip(elems, psi)) < 1e-12


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("length", [0, 1, 37])
def test_stacked_residue_orbit_matches_the_per_matrix_walks(degree, length):
    # residue maps of random 2 x 2 matrices over F_q, q = 7^degree, walked as one stack
    p = 7
    ctx = make_field(p, degree)
    rng = np.random.default_rng(10 * length + degree)
    maps = np.stack([
        residue_map(MatEntity([[ctx.from_index(int(i)) for i in rng.integers(ctx.q, size=2)]
                               for _ in range(2)]), side)
        for side in ("row", "column", "row", "column", "column")])
    starts = rng.integers(p, size=(len(maps), 2 * degree))
    stacked = ffield.residue_orbit(maps, starts, length, p)
    assert stacked.shape == (len(maps), length, 2 * degree)
    for M, s, rows in zip(maps, starts, stacked):
        assert np.array_equal(rows, ffield.residue_orbit(M, s, length, p))
        prev = s
        for row in rows:  # row x + 1 is M times row x
            assert np.array_equal(row, M @ prev % p)
            prev = row
    # one matrix broadcasts against a stack of starts
    shared = ffield.residue_orbit(maps[0], starts, length, p)
    for s, rows in zip(starts, shared):
        assert np.array_equal(rows, ffield.residue_orbit(maps[0], s, length, p))


@pytest.mark.parametrize("p, degree, tau", [(13, 1, 1), (13, 1, 3), (7, 2, 8), (5, 2, 24)])
def test_coset_walk_blocks_are_the_coset_representatives(p, degree, tau):
    # 0, z, ..., z^L (L = (q - 1) / tau) in blocks of any size, ragged or not
    ctx = make_field(p, degree)
    cosets = (ctx.q - 1) // tau
    z = primitive_root(ctx)
    want = [(0,) * degree] + [(z ** c).residues() for c in range(1, cosets + 1)]
    for block in (1, 2, 3, cosets, cosets + 1, cosets + 5):
        blocks = list(ffield.coset_walk(ctx, tau, block))
        assert [len(rows) for rows, _ in blocks[:-1]] == [block] * (len(blocks) - 1)
        assert 1 <= len(blocks[-1][0]) <= block
        assert [tuple(row) for rows, _ in blocks for row in rows.tolist()] == want, block
        assert [size for _, sizes in blocks for size in sizes.tolist()] == [1] + [tau] * cosets
    # one head of each orbit of the order-tau subgroup H on F_q: 0, then each coset of H
    H = {u.residues() for u in (z ** (cosets * k) for k in range(tau))}
    heads = [ctx.elem(*row) for row in want[1:]]
    assert len({frozenset((x * ctx.elem(*h)).residues() for h in H) for x in heads}) == cosets


@pytest.mark.parametrize("p, degree", [(3, 1), (7, 1), (13, 1), (3, 2), (5, 2), (7, 2)])
def test_residue_inverse_matches_the_element_inverse(p, degree):
    # every element of F_q as one (q, degree) stack, and the same stack as (q, 1, degree)
    ctx = make_field(p, degree)
    elems = list(ctx.iter_elements())
    rows = np.array([x.residues() for x in elems], dtype=np.int64)
    kept = rows.copy()
    got = residue_inverse(rows, ctx)
    assert np.array_equal(residue_inverse(rows[:, None], ctx)[:, 0], got)
    for x, inv in zip(elems, got.tolist()):
        assert tuple(inv) == (x.inverse().residues() if x else (0,) * degree)
    assert np.array_equal(rows, kept)  # the input is left as it was


def test_sqrt_roundtrip():
    # each element as a one-row residue_sqrt call: a square gets a root, a
    # non-square raises
    for p, degree in ((13, 1), (17, 1), (7, 2)):
        ctx = make_field(p, degree)
        n_squares = 0
        for x in ctx.iter_elements():
            row = np.array([x.residues()], dtype=np.int64)
            if is_square(x):
                n_squares += 1
                root = ctx.elem(*residue_sqrt(row, ctx)[0].tolist())
                assert root * root == x
            else:
                with pytest.raises(DegenerateParameters):
                    residue_sqrt(row, ctx)
        assert n_squares == (ctx.q - 1) // 2 + 1


@pytest.mark.parametrize("p, degree", [(p, 1) for p in range(3, 200) if ffield._is_prime(p)]
                         + [(p, 2) for p in range(3, 30) if ffield._is_prime(p)])
def test_sqrt_takes_the_scalar_tonelli_shanks_root(p, degree):
    # every square of F_q, as one stack and one row at a time, gets the root
    # of the scalar algorithm
    ctx = make_field(p, degree)
    z = naive_nonresidue(ctx)
    squares = sorted({x * x for x in ctx.iter_elements()}, key=lambda x: (x.c1, x.c0))
    roots = residue_sqrt(np.array([x.residues() for x in squares], dtype=np.int64), ctx)
    for x, root in zip(squares, roots.tolist()):
        want = naive_sqrt(x, z)
        assert tuple(root) == want.residues()
        (alone,) = residue_sqrt(np.array([x.residues()], dtype=np.int64), ctx).tolist()
        assert tuple(alone) == want.residues()
    # one non-square in a stack of squares raises for the stack
    rows = np.array([x.residues() for x in squares[:3] + [z]], dtype=np.int64)
    with pytest.raises(DegenerateParameters):
        residue_sqrt(rows, ctx)


@pytest.mark.parametrize("p, degree", [(13, 1), (5, 2)])
def test_residue_power_matches_element_powers(p, degree):
    ctx = make_field(p, degree)
    elems = list(ctx.iter_elements())
    rows = np.array([x.residues() for x in elems], dtype=np.int64)
    for e in (0, 1, 2, 7, ctx.group_order, 3 * ctx.q + 1):
        got = residue_power(rows, e, ctx)
        assert [tuple(r) for r in got.tolist()] == [(x ** e).residues() if x or e
                                                   else ctx.one.residues() for x in elems]


def test_element_index_roundtrip():
    # indices wrap mod q, and F_p elements keep c1 = 0 whatever the index
    for degree in (1, 2):
        ctx = make_field(5, degree)
        for w in range(ctx.q):
            x = ctx.from_index(w)
            assert x.c0 + ctx.p * x.c1 == w
            for k in (-2, 1, 3):
                y = ctx.from_index(w + k * ctx.q)
                assert y == x and hash(y) == hash(x)
                assert degree == 2 or y.c1 == 0
