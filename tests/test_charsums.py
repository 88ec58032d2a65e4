"""Character sums: hand-enumerated values, oracle cross-checks, reductions, bounds."""

import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import matpowlab
from matpowlab.charsums import (
    SumResult,
    _walk_sums,
    analyze_instance,
    analyze_instances,
    evaluate_bounds,
    gauss_subgroup,
    kappa_n,
    kloosterman_subgroup,
    matrix_exp_sum,
    matrix_exp_sums,
    nonsplit_pair_bound,
    split_pair_bound,
    subgroup_entry,
    sum_moment,
    weil_explicit_bound,
)
from matpowlab.counting import count_JK, vector_orbit
from matpowlab.errors import BudgetExceeded, InvariantViolated, MixedContext
from matpowlab.ffield import (
    CharacterSpec,
    SubgroupSpec,
    char_eval,
    make_field,
    norm_subgroup,
    primitive_root,
    standard_character,
    subgroup_of_order,
)
from matpowlab.matgrp import (
    MatEntity,
    VecEntity,
    companion_realization,
    matrix_order,
    sl2_companion,
)
from oracles import (dot, mat_mul, naive_char_sum, naive_extension_independent, naive_moment,
                     naive_subgroup_sum, vec_mat)

_SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
                 61, 67, 71, 73, 79, 83, 89, 97, 101]


def _row(ctx, *vals):
    return VecEntity([ctx.elem(v) for v in vals], "row")


def _col(ctx, *vals):
    return VecEntity([ctx.elem(v) for v in vals], "column")


def _oracle_matrix_sum(a_vec, b_vec, A, chi=None):
    """Reference sum via full matrix powers and math.fsum."""
    if chi is None:
        chi = standard_character(A.ctx)
    tau = matrix_order(A)
    terms = []
    M = A.rows
    for _ in range(tau):
        terms.append(char_eval(chi, dot(vec_mat(a_vec.entries, M), b_vec.entries)))
        M = mat_mul(M, A.rows)
    return naive_char_sum(terms)


def test_matrix_sum_hand_enumerated():
    # A = [[0,-1],[1,0]] has order 4; the (0,0) entries of its powers are 0,-1,0,1
    ctx = make_field(5)
    A = sl2_companion(ctx, 0)
    res = matrix_exp_sum(_row(ctx, 1, 0), _col(ctx, 1, 0), A)
    expected = 2.0 + 2.0 * math.cos(2.0 * math.pi / 5.0)
    assert res.length == 4
    assert abs(res.value - expected) < 1e-12
    assert abs(res.value.imag) < 1e-12


def test_matrix_sum_zero_right_vector_gives_tau():
    ctx = make_field(7)
    A = sl2_companion(ctx, 1)
    tau = matrix_order(A)
    res = matrix_exp_sum(_row(ctx, 1, 2), _col(ctx, 0, 0), A)
    assert abs(res.value - tau) < 1e-12
    assert res.length == tau


def test_matrix_sum_identity_matrix():
    ctx = make_field(7)
    A = MatEntity.identity(ctx, 2)
    res = matrix_exp_sum(_row(ctx, 1, 1), _col(ctx, 1, 1), A)
    assert res.length == 1
    assert abs(res.value - cmath.exp(4j * math.pi / 7)) < 1e-12
    # a.b = 14 = 0 mod 7 gives the unit term
    res0 = matrix_exp_sum(_row(ctx, 2, 3), _col(ctx, 1, 4), A)
    assert abs(res0.value - 1.0) < 1e-12


def test_matrix_sum_matches_oracle_degree_one():
    ctx7 = make_field(7)
    a = _row(ctx7, 1, 2)
    b = _col(ctx7, 3, 1)
    for u in range(7):
        A = sl2_companion(ctx7, u)
        got = matrix_exp_sum(a, b, A)
        want = _oracle_matrix_sum(a, b, A)
        assert abs(got.value - want) < 1e-9
    ctx13 = make_field(13)
    A1 = MatEntity([[ctx13.elem(2)]])
    got = matrix_exp_sum(_row(ctx13, 5), _col(ctx13, 3), A1)
    assert abs(got.value - _oracle_matrix_sum(_row(ctx13, 5), _col(ctx13, 3), A1)) < 1e-9


def test_matrix_sum_matches_oracle_dimension_three():
    ctx = make_field(5)
    # companion of X^3 + X + 1, irreducible mod 5
    A = MatEntity(
        [
            [ctx.zero, ctx.zero, -ctx.one],
            [ctx.one, ctx.zero, -ctx.one],
            [ctx.zero, ctx.one, ctx.zero],
        ]
    )
    a = _row(ctx, 1, 2, 3)
    b = _col(ctx, 4, 0, 1)
    got = matrix_exp_sum(a, b, A)
    want = _oracle_matrix_sum(a, b, A)
    assert abs(got.value - want) < 1e-9


def test_matrix_sum_matches_oracle_quadratic_extension():
    ext = make_field(3, 2)
    w = ext.omega()
    A = MatEntity([[w, ext.one], [ext.one, ext.one]])
    assert A.det()
    a = VecEntity([ext.one, w], "row")
    b = VecEntity([w + ext.one, ext.one], "column")
    got = matrix_exp_sum(a, b, A)
    want = _oracle_matrix_sum(a, b, A)
    assert abs(got.value - want) < 1e-9


def test_matrix_sum_nonstandard_character():
    ctx = make_field(11)
    chi = CharacterSpec(ctx.elem(4))
    A = sl2_companion(ctx, 3)
    a = _row(ctx, 2, 1)
    b = _col(ctx, 1, 5)
    got = matrix_exp_sum(a, b, A, chi=chi)
    want = _oracle_matrix_sum(a, b, A, chi=chi)
    assert abs(got.value - want) < 1e-9


def test_matrix_sum_budget_and_validation():
    ctx = make_field(13)
    A1 = MatEntity([[ctx.elem(2)]])  # order of 2 mod 13 is 12
    with pytest.raises(BudgetExceeded) as err:
        matrix_exp_sum(_row(ctx, 1), _col(ctx, 1), A1, max_tau=5)
    assert err.value.estimated_work == 12
    A = sl2_companion(ctx, 1)
    with pytest.raises(ValueError):
        matrix_exp_sum(_col(ctx, 1, 0), _col(ctx, 1, 0), A)
    with pytest.raises(ValueError):
        matrix_exp_sum(_row(ctx, 1, 0), _row(ctx, 1, 0), A)
    other = make_field(7)
    with pytest.raises(MixedContext):
        matrix_exp_sum(_row(other, 1, 0), _col(ctx, 1, 0), A)
    with pytest.raises(MixedContext):
        matrix_exp_sum(_row(ctx, 1, 0), _col(ctx, 1, 0), A,
                       chi=standard_character(other))


def test_sum_result_invariants_on_batch():
    ctx = make_field(11)
    for u in range(11):
        A = sl2_companion(ctx, u)
        res = matrix_exp_sum(_row(ctx, 1, 3), _col(ctx, 2, 1), A)
        assert abs(res.abs - abs(res.value)) < 1e-12
        assert res.abs <= res.length + 1e-9


def _random_stack(ctx, n, count, rng):
    """count (a, b, A) triples over ctx with invertible A, zero vectors allowed."""
    def draw(k):
        return [ctx.from_index(int(i)) for i in rng.integers(ctx.q, size=k)]
    out = []
    while len(out) < count:
        A = MatEntity([draw(n) for _ in range(n)])
        if A.det():
            out.append((VecEntity(draw(n), "row"), VecEntity(draw(n), "column"), A))
    return out


def _one_by_one(entries, chi=None, max_tau=None):
    out = []
    for a, b, A in entries:
        try:
            out.append(matrix_exp_sum(a, b, A, chi=chi, max_tau=max_tau))
        except BudgetExceeded as err:
            out.append(err)
    return out


@pytest.mark.parametrize("p, degree", [(7, 1), (13, 1), (3, 2), (5, 2)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_stacked_sums_equal_the_one_entry_sums(p, degree, n):
    # random matrices mix their periods within one block; values compare with ==
    ctx = make_field(p, degree)
    rng = np.random.default_rng(100 * p + 10 * degree + n)
    entries = _random_stack(ctx, n, 12, rng)
    chi = CharacterSpec(ctx.from_index(2))
    assert len({matrix_order(A) for _, _, A in entries}) > 1
    for character in (None, chi):
        got = matrix_exp_sums(entries, chi=character)
        want = _one_by_one(entries, chi=character)
        assert [(r.value, r.abs, r.length, r.parameters) for r in got] == \
               [(r.value, r.abs, r.length, r.parameters) for r in want]
    assert matrix_exp_sums(entries, chi=chi) == _one_by_one(entries, chi=chi)


def test_stacked_sums_return_a_skip_in_place():
    ctx = make_field(13)
    rng = np.random.default_rng(5)
    entries = _random_stack(ctx, 2, 10, rng)
    taus = [matrix_order(A) for _, _, A in entries]
    cap = sorted(taus)[len(taus) // 2]
    assert min(taus) <= cap < max(taus)
    chi = standard_character(ctx)
    got = matrix_exp_sums(entries, chi=chi, max_tau=cap)
    for result, tau, want in zip(got, taus, _one_by_one(entries, chi=chi, max_tau=cap)):
        if tau > cap:
            assert isinstance(result, BudgetExceeded) and result.estimated_work == tau
            assert isinstance(want, BudgetExceeded)
        else:
            assert result == want


def test_stacked_sums_walk_row_bounded_blocks(monkeypatch):
    # periods 3, 6, 8, 12, 12, 14, 28, 28, 42, 56, 168, 168: a 16-row target puts
    # 3 and 6 in one block and walks the rest alone; at 10 rows every walk is
    # alone, eight of them longer than the target
    import matpowlab.charsums as charsums_mod

    ctx = make_field(13)
    entries = _random_stack(ctx, 2, 12, np.random.default_rng(9))
    taus = sorted(matrix_order(A) for _, _, A in entries)
    assert taus == [3, 6, 8, 12, 12, 14, 28, 28, 42, 56, 168, 168]
    chi = standard_character(ctx)
    want = _one_by_one(entries, chi=chi)
    real, walks = charsums_mod.residue_orbit, []

    def spy(M, start, length, p):
        walks.append((len(M), length))
        return real(M, start, length, p)

    monkeypatch.setattr(charsums_mod, "residue_orbit", spy)
    for target, blocks in ((16, [(2, 6)] + [(1, t) for t in taus[2:]]),
                           (10, [(1, t) for t in taus])):
        monkeypatch.setattr(charsums_mod, "_WALK_BLOCK_ROWS", target)
        walks.clear()
        assert matrix_exp_sums(entries, chi=chi) == want
        assert walks == blocks


def test_stacked_sums_edge_inputs():
    assert matrix_exp_sums([]) == []
    ctx, other = make_field(13), make_field(7)
    A = sl2_companion(ctx, 1)
    B = sl2_companion(other, 1)
    with pytest.raises(MixedContext):
        matrix_exp_sums([(_row(ctx, 1, 0), _col(ctx, 1, 0), A),
                         (_row(other, 1, 0), _col(other, 1, 0), B)])
    with pytest.raises(ValueError):
        matrix_exp_sums([(_row(ctx, 1, 0), _col(ctx, 1, 0), A),
                         (_row(ctx, 1), _col(ctx, 1), MatEntity([[ctx.elem(2)]]))])


def test_stacked_analysis_equals_the_one_entry_analysis():
    ctx = make_field(7)
    entries = _random_stack(ctx, 2, 30, np.random.default_rng(3))
    entries.append((_row(ctx, 0, 0), _col(ctx, 1, 0), entries[0][2]))
    got = analyze_instances(entries)
    assert got == [analyze_instance(*entry) for entry in entries]
    assert {h.left_independent for h in got} == {True, False}
    assert analyze_instances([]) == []


def test_kloosterman_two_term_hand_value():
    ctx = make_field(3)
    G = subgroup_of_order(ctx, 2)
    res = kloosterman_subgroup(G, ctx.one, ctx.one)
    assert res.length == 2
    assert abs(res.value - (-1.0)) < 1e-12


def test_kloosterman_zero_coefficients_give_order():
    ctx = make_field(13)
    G = subgroup_of_order(ctx, 6)
    res = kloosterman_subgroup(G, ctx.zero, ctx.zero)
    assert abs(res.value - 6.0) < 1e-12


def test_kloosterman_full_group_weil_bound():
    rng = np.random.default_rng(20240816)
    for p in _SMALL_PRIMES:
        ctx = make_field(p)
        G = subgroup_of_order(ctx, p - 1)
        if p <= 13:
            pairs = [(a, b) for a in range(1, p) for b in range(1, p)]
        else:
            pairs = [(int(rng.integers(1, p)), int(rng.integers(1, p)))
                     for _ in range(3)]
        for a, b in pairs:
            res = kloosterman_subgroup(G, ctx.elem(a), ctx.elem(b))
            assert res.abs <= weil_explicit_bound(p) + 1e-9


def test_kloosterman_symmetry():
    ctx = make_field(31)
    for order in (5, 6, 15, 30):
        G = subgroup_of_order(ctx, order)
        fwd = kloosterman_subgroup(G, ctx.elem(3), ctx.elem(7))
        rev = kloosterman_subgroup(G, ctx.elem(7), ctx.elem(3))
        assert abs(fwd.value - rev.value) < 1e-12


def test_gauss_full_group_is_minus_one():
    for p, degree in ((5, 1), (13, 1), (101, 1), (7, 2)):
        ctx = make_field(p, degree)
        G = subgroup_of_order(ctx, ctx.group_order)
        for aval in (ctx.one, primitive_root(ctx)):
            res = gauss_subgroup(G, aval)
            assert abs(res.value - (-1.0)) < 1e-10
    ctx = make_field(13)
    G = subgroup_of_order(ctx, 12)
    assert abs(gauss_subgroup(G, ctx.zero).value - 12.0) < 1e-12


def test_kloosterman_matches_diagonal_matrix_sum():
    # a u + b / u along the subgroup, summed term by term in FFElem arithmetic,
    # equals kloosterman_subgroup (the (a, b) A^x (1, 1) walk) and the
    # (a, 1) A^x (1, b) walk, both with A = diag(g, 1/g)
    rng = np.random.default_rng(7)
    for p, degree, order in ((7, 1, 6), (13, 1, 4), (31, 1, 15), (5, 2, 8), (7, 2, 16)):
        ctx = make_field(p, degree)
        G = subgroup_of_order(ctx, order)
        g = G.generator
        A = MatEntity([[g, ctx.zero], [ctx.zero, g.inverse()]])
        for character in (standard_character(ctx), CharacterSpec(primitive_root(ctx))):
            for _ in range(4):
                a = ctx.from_index(int(rng.integers(0, ctx.q)))
                b = ctx.from_index(int(rng.integers(0, ctx.q)))
                want = naive_subgroup_sum(G, lambda u: a * u + b / u, character)
                lhs = kloosterman_subgroup(G, a, b, chi=character)
                rhs = matrix_exp_sum(VecEntity([a, ctx.one], "row"),
                                     VecEntity([ctx.one, b], "column"), A, chi=character)
                assert lhs.length == rhs.length == order
                assert abs(lhs.value - want) < 1e-9
                assert abs(rhs.value - want) < 1e-9


def test_gauss_matches_brute_force_sum():
    rng = np.random.default_rng(8)
    for p, degree, order in ((7, 1, 3), (13, 1, 12), (5, 2, 6), (7, 2, 48)):
        ctx = make_field(p, degree)
        G = subgroup_of_order(ctx, order)
        for character in (standard_character(ctx), CharacterSpec(primitive_root(ctx))):
            for _ in range(4):
                a = ctx.from_index(int(rng.integers(0, ctx.q)))
                got = gauss_subgroup(G, a, chi=character)
                assert got.length == order
                assert abs(got.value - naive_subgroup_sum(G, lambda u: a * u, character)) < 1e-9


def test_subgroup_entry_walks_the_subgroup():
    for p, degree, order in ((13, 1, 6), (5, 2, 8)):
        ctx = make_field(p, degree)
        G = subgroup_of_order(ctx, order)
        us = list(G.elements())
        A, ones = subgroup_entry("kloosterman", G)
        assert matrix_order(A) == order and ones.orientation == "column"
        assert vector_orbit(ones, A).tolist() == [
            list(u.residues() + u.inverse().residues()) for u in us]
        A, ones = subgroup_entry("gauss", G)
        assert A.n == 1 and matrix_order(A) == order
        assert vector_orbit(ones, A).tolist() == [list(u.residues()) for u in us]
    with pytest.raises(ValueError):
        subgroup_entry("legendre", G)


def test_subgroup_sums_keep_their_checks():
    ctx, other = make_field(13), make_field(7)
    G = subgroup_of_order(ctx, 12)
    with pytest.raises(BudgetExceeded) as err:
        kloosterman_subgroup(G, ctx.one, ctx.one, max_order=11)
    assert err.value.estimated_work == 12
    with pytest.raises(BudgetExceeded) as err:
        gauss_subgroup(G, ctx.one, max_order=11)
    assert err.value.estimated_work == 12
    assert kloosterman_subgroup(G, ctx.one, ctx.one, max_order=12).length == 12
    with pytest.raises(MixedContext):
        kloosterman_subgroup(G, other.one, other.one)
    with pytest.raises(MixedContext):
        kloosterman_subgroup(G, ctx.one, other.one)
    with pytest.raises(MixedContext):
        gauss_subgroup(G, other.one)
    with pytest.raises(MixedContext):
        gauss_subgroup(G, ctx.one, chi=standard_character(other))


@pytest.mark.parametrize("family", ["kloosterman", "gauss"])
@pytest.mark.parametrize("p", [7, 13, 31, 61])
def test_moment_is_q_power_times_orbit_count(family, p):
    # the paper's bridge: sum over coefficients of |S|^(2 nu) = q^n J_nu(b, A),
    # with (A, b) the subgroup entry and J_nu its nu-fold orbit energy
    ctx = make_field(p, 1 if family == "kloosterman" else 2)
    for order in (m for m in range(1, ctx.q) if (ctx.q - 1) % m == 0):
        G = subgroup_of_order(ctx, order)
        A, ones = subgroup_entry(family, G)
        for nu in (2, 3):
            count = count_JK(ones, A, nu, max_tau=order).value
            moment = sum_moment(family, G, 2 * nu)
            assert moment.exact == ctx.q ** A.n * count
            assert abs(moment.value - moment.exact) <= 1e-9 * moment.exact


def test_gauss_matches_companion_matrix_sum():
    # the norm-one walk in the quadratic extension collapses to a trace
    # sequence generated by the companion matrix over the base field
    for p in (7, 11):
        ext = make_field(p, 2)
        N = norm_subgroup(ext)
        lam = N.generator
        for k in (1, 2, 5):
            a = primitive_root(ext) ** k
            lhs = gauss_subgroup(N, a)
            a_vec, b_vec, A = companion_realization(lam, a)
            rhs = matrix_exp_sum(a_vec, b_vec, A)
            assert lhs.length == rhs.length == p + 1
            assert abs(lhs.value - rhs.value) < 1e-9
    # a proper subgroup of the norm-one group reduces the same way
    ext = make_field(11, 2)
    N = norm_subgroup(ext)
    lam = N.generator ** 3
    G = SubgroupSpec(lam, 4)
    a = ext.omega() + ext.one
    a_vec, b_vec, A = companion_realization(lam, a)
    assert matrix_order(A) == 4
    assert abs(gauss_subgroup(G, a).value
               - matrix_exp_sum(a_vec, b_vec, A).value) < 1e-9


def test_holder_chain_per_instance():
    rng = np.random.default_rng(11)
    checked = 0
    for p in (5, 7):
        ctx = make_field(p)
        for u in range(p):
            A = sl2_companion(ctx, u)
            tau = matrix_order(A)
            a = _row(ctx, int(rng.integers(0, p)), int(rng.integers(0, p)))
            b = _col(ctx, int(rng.integers(0, p)), int(rng.integers(0, p)))
            if not a or not b:
                continue
            s = matrix_exp_sum(a, b, A).abs
            for k, ell in ((2, 2), (2, 3), (3, 3)):
                J = count_JK(a, A, k).value
                K = count_JK(b, A, ell).value
                lhs = s ** (2 * k * ell)
                rhs = (ctx.q ** A.n
                       * float(tau) ** (2 * k * ell - 2 * k - 2 * ell) * J * K)
                assert lhs <= rhs * (1.0 + 1e-6)
                checked += 1
    assert checked >= 30


def test_holder_chain_dimension_three():
    ctx = make_field(5)
    A = MatEntity(
        [
            [ctx.zero, ctx.zero, -ctx.one],
            [ctx.one, ctx.zero, -ctx.one],
            [ctx.zero, ctx.one, ctx.zero],
        ]
    )
    tau = matrix_order(A)
    a = _row(ctx, 1, 2, 3)
    b = _col(ctx, 4, 0, 1)
    s = matrix_exp_sum(a, b, A).abs
    for k, ell in ((2, 2), (2, 3), (3, 3)):
        J = count_JK(a, A, k).value
        K = count_JK(b, A, ell).value
        rhs = ctx.q ** 3 * float(tau) ** (2 * k * ell - 2 * k - 2 * ell) * J * K
        assert s ** (2 * k * ell) <= rhs * (1.0 + 1e-6)


def test_moment_gauss_second_is_q_times_order():
    for p, degree, order in ((13, 1, 3), (13, 1, 12), (7, 2, 8)):
        ctx = make_field(p, degree)
        G = subgroup_of_order(ctx, order)
        res = sum_moment("gauss", G, 2)
        assert res.exact == ctx.q * order
        assert abs(res.value - res.exact) <= 1e-6 * res.exact


def test_moment_kloosterman_second_is_q_squared_times_order():
    ctx = make_field(13)
    G = subgroup_of_order(ctx, 6)
    res = sum_moment("kloosterman", G, 2)
    assert res.exact == 13 ** 2 * 6
    assert abs(res.value - res.exact) <= 1e-6 * res.exact


def test_moment_sixth_dual_path_kloosterman():
    ctx = make_field(11)
    G = subgroup_of_order(ctx, 5)
    for m in (4, 6):
        res = sum_moment("kloosterman", G, m)
        assert res.exact is not None
        assert abs(res.value - res.exact) <= 1e-6 * res.exact


def test_moment_sixth_dual_path_gauss_extension():
    ext = make_field(11, 2)
    N = norm_subgroup(ext)
    G = SubgroupSpec(N.generator ** 2, 6)
    res = sum_moment("gauss", G, 6)
    assert res.exact is not None
    assert abs(res.value - res.exact) <= 1e-6 * res.exact


def test_moment_character_invariance():
    ctx = make_field(13)
    G = subgroup_of_order(ctx, 4)
    base = sum_moment("kloosterman", G, 4)
    twisted = sum_moment("kloosterman", G, 4, chi=CharacterSpec(ctx.elem(5)))
    assert abs(base.value - twisted.value) <= 1e-9 * base.value


def test_moment_budget_and_validation():
    ctx = make_field(13)
    G = subgroup_of_order(ctx, 6)
    with pytest.raises(BudgetExceeded) as err:
        sum_moment("kloosterman", G, 2, max_work=10)
    assert err.value.estimated_work == 13 * 13 * 6
    with pytest.raises(ValueError):
        sum_moment("legendre", G, 2)
    with pytest.raises(ValueError):
        sum_moment("gauss", G, 0)


def test_moment_off_its_exact_count_raises(monkeypatch):
    import matpowlab.charsums as charsums_mod

    real = charsums_mod.sequence_energy
    monkeypatch.setattr(charsums_mod, "sequence_energy",
                        lambda *args: real(*args) + 1)
    G = subgroup_of_order(make_field(13), 6)
    for family in ("gauss", "kloosterman"):
        with pytest.raises(InvariantViolated):
            sum_moment(family, G, 4)
    assert sum_moment("gauss", G, 3).exact is None


_MOMENT_CASES = [
    ("gauss", 13, 1, (1, 4, 12)),
    ("kloosterman", 7, 1, (1, 3, 6)),
    ("gauss", 5, 2, (1, 8, 24)),
    ("kloosterman", 3, 2, (1, 4, 8)),
]


@pytest.mark.parametrize("twisted", [False, True], ids=["standard", "twisted"])
@pytest.mark.parametrize("family,p,degree,orders", _MOMENT_CASES,
                         ids=[f"{c[0]}-{c[1]}^{c[2]}" for c in _MOMENT_CASES])
def test_moment_matches_brute_force_oracle(family, p, degree, orders, twisted):
    ctx = make_field(p, degree)
    chi = CharacterSpec(primitive_root(ctx)) if twisted else standard_character(ctx)
    for tau in orders:
        G = subgroup_of_order(ctx, tau)
        for m in (1, 2, 3, 5, 6):
            res = sum_moment(family, G, m, chi)
            want = naive_moment(family, G, m, chi)
            assert abs(res.value - want) <= 1e-12 * want, (tau, m)
            assert res.parameters["representatives"] == (ctx.q - 1) // tau + 1


@pytest.mark.parametrize("family", ["gauss", "kloosterman"])
def test_moment_blocks_do_not_change_values(family, monkeypatch):
    import matpowlab.charsums as charsums_mod

    ctx = make_field(13)
    G = subgroup_of_order(ctx, 2)  # 7 representative rows: 0 and 6 cosets
    want = [sum_moment(family, G, m).value for m in (3, 6)]
    width = ctx.q if family == "kloosterman" else G.order
    for rows in (1, 2, 3, 4):  # 2, 3 and 4 rows per block leave a ragged last block
        monkeypatch.setattr(charsums_mod, "_MOMENT_BLOCK", rows * width)
        got = [sum_moment(family, G, m).value for m in (3, 6)]
        assert all(abs(g - w) <= 1e-12 * w for g, w in zip(got, want)), rows


def test_moment_missing_cosets_fail_the_second_moment_check(monkeypatch):
    import matpowlab.charsums as charsums_mod

    real = charsums_mod.primitive_root
    monkeypatch.setattr(charsums_mod, "primitive_root", lambda ctx: real(ctx) ** 2)
    # L = 12 / 3 = 4 cosets: the powers of g^2 reach only the even ones, twice each
    G = subgroup_of_order(make_field(13), 3)
    for family in ("gauss", "kloosterman"):
        with pytest.raises(InvariantViolated, match="second moment"):
            sum_moment(family, G, 3)


def test_kappa_frozen_values():
    assert kappa_n(1) == Fraction(1, 4)
    assert kappa_n(2) == Fraction(1, 16)
    assert kappa_n(3) == Fraction(1, 24)
    assert kappa_n(4) == Fraction(1, 48)
    assert kappa_n(5) == Fraction(1, 80)
    # large-n check against the 3 n^2 asymptotic shape
    assert kappa_n(100) == Fraction(1, 4 * 100 * 75)
    # computed once per n; a bad n raises on every call, not only the first
    assert kappa_n(2) is kappa_n(2)
    for _ in range(2):
        with pytest.raises(ValueError):
            kappa_n(0)


def test_bound_report_split_instance():
    ctx = make_field(13)
    g = primitive_root(ctx)
    A = MatEntity([[g, ctx.zero], [ctx.zero, g.inverse()]])
    a = _row(ctx, 1, 1)
    b = _col(ctx, 1, 1)
    res = matrix_exp_sum(a, b, A)
    h = analyze_instance(a, b, A)
    bounds = evaluate_bounds(res, h)
    names = [e.name for e in bounds]
    assert names == ["trivial", "square-root", "power-saving", "split-pair"]
    by_name = {e.name: e for e in bounds}
    assert by_name["trivial"].status == "pass"
    assert by_name["square-root"].status == "pass"
    assert by_name["power-saving"].status == "report"
    # tau^2 = 144 < q^n = 169 selects the short-period branch
    assert "3/4" in by_name["power-saving"].formula
    assert kappa_n(h.n) == Fraction(1, 16)
    assert h.tau == 12 and h.p ** h.degree == 13 and h.t == 1
    assert by_name["trivial"].value == h.tau
    assert by_name["split-pair"].value == pytest.approx(split_pair_bound(12, 13))
    for e in bounds:
        assert e.ratio == pytest.approx(res.abs / e.value)


def test_bound_report_irreducible_instance():
    ctx = make_field(13)
    A = sl2_companion(ctx, 3)  # X^2 - 3X + 1 has non-square discriminant 5 mod 13
    a = _row(ctx, 1, 0)
    b = _col(ctx, 0, 1)
    res = matrix_exp_sum(a, b, A)
    h = analyze_instance(a, b, A)
    assert h.class_tag == "irreducible"
    bounds = evaluate_bounds(res, h)
    names = [e.name for e in bounds]
    assert "irreducible-saving" in names
    assert "nonsplit-pair" in names
    assert "split-pair" not in names
    by_name = {e.name: e for e in bounds}
    assert by_name["nonsplit-pair"].value == pytest.approx(
        nonsplit_pair_bound(h.tau, 13))


def test_bound_report_dependent_vector_drops_conditional_bounds():
    ctx = make_field(13)
    A = MatEntity([[ctx.elem(3), ctx.zero], [ctx.zero, ctx.elem(9)]])
    a = _row(ctx, 1, 0)  # eigenvector row: the power orbit stays on a line
    b = _col(ctx, 1, 1)
    h = analyze_instance(a, b, A)
    assert not h.left_independent and h.right_independent
    res = matrix_exp_sum(a, b, A)
    names = [e.name for e in evaluate_bounds(res, h)]
    assert names == ["trivial"]


def test_pair_bounds_need_a_unit_determinant():
    # diag(2, 3) over F_13 is split and diagonalizable with independent orbits of
    # a = b = (1, 1), but det = 6; diag(2, 7) differs only in its det, 14 = 1
    ctx = make_field(13)
    a = _row(ctx, 1, 1)
    b = _col(ctx, 1, 1)
    for d2, t, expect in ((3, 12, False), (7, 1, True)):
        A = MatEntity([[ctx.elem(2), ctx.zero], [ctx.zero, ctx.elem(d2)]])
        h = analyze_instance(a, b, A)
        assert (h.class_tag, h.diagonalizable, h.t) == ("split", True, t)
        assert h.left_independent and h.right_independent
        names = [e.name for e in evaluate_bounds(matrix_exp_sum(a, b, A), h)]
        assert ("split-pair" in names) == expect
        assert "power-saving" in names


def test_bound_report_long_period_branch():
    ctx = make_field(7)
    A = MatEntity([[ctx.elem(3)]])  # order 6 > sqrt(7)
    a = _row(ctx, 1)
    b = _col(ctx, 1)
    res = matrix_exp_sum(a, b, A)
    h = analyze_instance(a, b, A)
    by_name = {e.name: e for e in evaluate_bounds(res, h)}
    assert "1/2-kappa" in by_name["power-saving"].formula
    assert kappa_n(h.n) == Fraction(1, 4)


def test_bound_report_fail_status_on_forged_observation():
    ctx = make_field(13)
    A = sl2_companion(ctx, 3)
    a = _row(ctx, 1, 0)
    b = _col(ctx, 0, 1)
    real = matrix_exp_sum(a, b, A)
    forged = SumResult(real.value, real.length + 5.0, real.length,
                       real.character, real.parameters)
    bounds = evaluate_bounds(forged, analyze_instance(a, b, A))
    assert bounds[0].name == "trivial"
    assert bounds[0].status == "fail"


def _eigenvectors(p, rows):
    """A row and a column eigenvector of the integer matrix rows mod p, per root in F_p."""
    (a, b), (c, d) = rows
    for lam in range(p):
        if ((a - lam) * (d - lam) - b * c) % p:
            continue
        row = (c, lam - a) if (c, lam - a) != (0, 0) else (d - lam, -b)
        col = (b, lam - a) if (b, lam - a) != (0, 0) else (d - lam, -c)
        yield tuple(x % p for x in row), tuple(x % p for x in col)


def test_base_field_independence_matches_the_extension_field_rank():
    # a matrix with F_p entries has the same rank over F_{p^2}, so the base-field
    # flags must agree with the lifted oracle, on independent and dependent orbits
    rng = np.random.default_rng(13)
    seen = set()
    for p in (5, 7, 11, 13):
        ctx = make_field(p)

        def random_pair(A):
            a, b = rng.integers(0, p, (2, 2)).tolist()
            return A, _row(ctx, *a), _col(ctx, *b)

        cases = [random_pair(sl2_companion(ctx, u)) for u in range(p)]
        while len(cases) < 3 * p:
            rows = rng.integers(0, p, (2, 2)).tolist()
            if (rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]) % p == 0:
                continue
            A = MatEntity.from_ints(ctx, rows)
            cases.append(random_pair(A))
            cases.extend((A, _row(ctx, *row), _col(ctx, *col))
                         for row, col in _eigenvectors(p, rows))
        for A, a, b in cases:
            h = analyze_instance(a, b, A)
            assert h.left_independent == naive_extension_independent(a, A)
            assert h.right_independent == naive_extension_independent(b, A)
            seen.update((h.left_independent, h.right_independent))
    assert seen == {True, False}


def test_histogram_sum_matches_fsum():
    rng = np.random.default_rng(7)
    chi = standard_character(make_field(23))
    table = np.exp(2j * np.pi * np.arange(23) / 23)
    args = rng.integers(0, 23, size=5000)
    (got,) = _walk_sums(args[None], [len(args)], chi, [{}])
    want = naive_char_sum([complex(table[k]) for k in args])
    assert got.length == 5000
    assert abs(got.value - want) < 1e-12


def test_histogram_sum_rejects_out_of_range_arguments():
    chi = standard_character(make_field(23))
    for args in (
        [[0, 5, 23]],        # a one-row call: past the bincount's end
        [[0, 23], [5, 0]],   # would count in the next row's bin 0
        [[0, 1], [-1, 3]],   # below the row's first bin
        [[1, 2], [3, 23]],   # the last row again, behind a valid one
    ):
        lengths = [len(row) for row in args]
        with pytest.raises(InvariantViolated):
            _walk_sums(np.array(args), lengths, chi, [{}] * len(args))


def test_histogram_sums_read_only_each_rows_walked_prefix():
    # entries past a row's length are padding, whatever their values
    chi = standard_character(make_field(23))
    got = _walk_sums(np.array([[0, 5, 99], [7, -4, 23]]), [2, 1], chi, [{}, {}])
    want = [_walk_sums(np.array([row]), [len(row)], chi, [{}])[0] for row in ([0, 5], [7])]
    assert got == want


def test_invariant_checks_survive_optimized_python():
    script = "\n".join((
        "import sys",
        "import numpy as np",
        "from matpowlab.charsums import _walk_sums",
        "from matpowlab.errors import InvariantViolated",
        "from matpowlab.ffield import make_field, standard_character",
        "print(sys.flags.optimize)",
        "try:",
        "    _walk_sums(np.array([[0, 5, 23]]), [3], standard_character(make_field(23)), [{}])",
        "except InvariantViolated:",
        "    print('raised')",
        "import matpowlab.charsums as charsums",
        "from matpowlab.ffield import subgroup_of_order",
        "real = charsums.primitive_root",
        "charsums.primitive_root = lambda ctx: real(ctx) ** 2",
        "try:",
        "    charsums.sum_moment('gauss', subgroup_of_order(make_field(13), 3), 3)",
        "except InvariantViolated:",
        "    print('raised')",
    ))
    src = os.path.dirname(os.path.dirname(matpowlab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["1", "raised", "raised"]
