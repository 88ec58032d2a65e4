"""Tests for quantized torus automorphisms and eigenspace defects."""

import numpy as np
import pytest

import matpowlab.catmap as catmap
from matpowlab.catmap import (
    CLUSTER_TOL,
    CatMatrix,
    EIGEN_DIM_CAP,
    PHASE_GRID,
    Observable,
    _compressions,
    _element_sup,
    _numerical_radius,
    cat_unitary,
    delta_Nf,
    egorov_defect,
    eigenbasis,
    matrix_element_check,
    quantize,
    translation_op,
)
from matpowlab.errors import (
    BudgetExceeded,
    CompositeModulus,
    DegenerateParameters,
    DependentVectors,
    EvenModulus,
    InvariantViolated,
    NonRealObservable,
    SingularLowerLeft,
    UndecidedVerdict,
)
from oracles import grid_numerical_radius, per_cluster_compressions, schur_eigenbasis

HYPERBOLIC = CatMatrix(2, 1, 3, 2)


def _unitarity_defect(mat):
    return float(np.max(np.abs(mat @ mat.conj().T - np.eye(len(mat)))))


def test_translation_identity_cases():
    for n in (1, 6, 7):
        assert np.allclose(translation_op(n, (0, 0)), np.eye(n))
        assert np.allclose(translation_op(n, (2 * n, 0)), np.eye(n))


def test_translation_heisenberg_relation():
    rng = np.random.default_rng(41)
    n = 7
    for _ in range(12):
        a = tuple(int(x) for x in rng.integers(-10, 11, 2))
        b = tuple(int(x) for x in rng.integers(-10, 11, 2))
        lhs = translation_op(n, a) @ translation_op(n, b)
        phase = np.exp(1j * np.pi * (a[0] * b[1] - a[1] * b[0]) / n)
        rhs = phase * translation_op(n, (a[0] + b[0], a[1] + b[1]))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_translation_adjoint_is_negation():
    for n, a in ((5, (1, 2)), (7, (3, 4)), (9, (-2, 5))):
        fwd = translation_op(n, a)
        rev = translation_op(n, (-a[0], -a[1]))
        assert np.max(np.abs(fwd.conj().T - rev)) <= 1e-12
        assert _unitarity_defect(fwd) <= 1e-10


def test_translation_depends_on_pair_mod_2n():
    n = 5
    bumped = translation_op(n, (1, n))
    base = translation_op(n, (1, 0))
    assert np.max(np.abs(bumped + base)) <= 1e-12
    full = translation_op(n, (2 * n, 3))
    assert np.max(np.abs(full - translation_op(n, (0, 3)))) <= 1e-12


def test_observable_reality_flag():
    good = Observable({(1, 0): 0.5 + 0.25j, (-1, 0): 0.5 - 0.25j, (0, 0): 2.0})
    assert good.mean == 2.0
    with pytest.raises(NonRealObservable):
        Observable({(1, 0): 1.0})
    with pytest.raises(NonRealObservable):
        Observable({(0, 0): 1j})
    loose = Observable({(1, 0): 1.0}, real=False)
    assert not loose.real


def test_quantize_constant_is_identity():
    op = quantize(6, Observable({(0, 0): 1.0}))
    assert np.allclose(op, np.eye(6))


def test_quantize_symmetric_pair_is_hermitian():
    op = quantize(11, Observable({(2, 3): 0.5, (-2, -3): 0.5}))
    assert op.dtype == np.complex128
    assert np.max(np.abs(op - op.conj().T)) <= 1e-12


def test_quantize_norm_below_coefficient_mass():
    rng = np.random.default_rng(99)
    n = 11
    for _ in range(20):
        modes = {}
        for _ in range(rng.integers(1, 5)):
            a = (int(rng.integers(-4, 5)), int(rng.integers(-4, 5)))
            c = complex(rng.normal(), rng.normal())
            modes[a] = modes.get(a, 0) + c
            modes[(-a[0], -a[1])] = modes.get((-a[0], -a[1]), 0) + c.conjugate()
        f = Observable(modes)
        op = quantize(n, f)
        assert np.max(np.abs(op - op.conj().T)) <= 1e-12
        op_norm = np.linalg.norm(op, 2)
        mass = sum(abs(c) for c in f.fourier.values())
        assert op_norm <= mass + 1e-9


def test_cat_matrix_validation():
    with pytest.raises(DegenerateParameters):
        CatMatrix(2, 1, 1, 2)
    with pytest.raises(DegenerateParameters):
        CatMatrix(1, 2, 0, 1)
    with pytest.raises(DegenerateParameters):
        CatMatrix(3, 1, 5, 2)
    with pytest.raises(ValueError):
        CatMatrix(2.0, 1, 3, 2)
    assert HYPERBOLIC.trace == 4
    assert HYPERBOLIC.image_of((1, 0)) == (2, 1)
    assert HYPERBOLIC.image_of((0, 1)) == (3, 2)
    reduced = HYPERBOLIC.mod_matrix(5)
    assert reduced.rows[0][0].residues() == (2,)


def test_cat_unitary_unitarity_and_phase():
    for n in (5, 7, 13, 61):
        assert _unitarity_defect(cat_unitary(n, HYPERBOLIC)) <= 1e-10
    op = cat_unitary(5, HYPERBOLIC)
    anchor = op[0, 0]
    assert abs(anchor.imag) <= 1e-12 and anchor.real > 0


def test_cat_unitary_modulus_errors():
    with pytest.raises(EvenModulus):
        cat_unitary(4, HYPERBOLIC)
    with pytest.raises(EvenModulus):
        cat_unitary(2, HYPERBOLIC)
    with pytest.raises(CompositeModulus):
        cat_unitary(9, HYPERBOLIC)
    with pytest.raises(CompositeModulus):
        cat_unitary(1, HYPERBOLIC)
    # Lower-left entry 3 collapses mod 3, so the propagator is undefined there.
    with pytest.raises(SingularLowerLeft):
        cat_unitary(3, HYPERBOLIC)


def test_egorov_relation_on_generators():
    for n in (5, 7, 13):
        op = cat_unitary(n, HYPERBOLIC)
        for a in ((1, 0), (0, 1), (1, 1), (2, 3)):
            assert egorov_defect(op, HYPERBOLIC, a) <= 1e-8


def test_conjugation_preserves_frobenius_norm():
    n = 11
    op = cat_unitary(n, HYPERBOLIC)
    for a in ((1, 0), (2, 5)):
        shift = translation_op(n, a)
        moved = op.conj().T @ shift @ op
        assert abs(np.linalg.norm(moved) - np.linalg.norm(shift)) <= 1e-9


def test_eigenbasis_identity_operator():
    spaces = eigenbasis(translation_op(9, (0, 0)))
    assert len(spaces) == 1
    assert spaces[0].dim == 9
    assert abs(spaces[0].eigenvalue - 1) <= 1e-12


def test_eigenbasis_spectral_reconstruction():
    n = 13
    op = cat_unitary(n, HYPERBOLIC)
    spaces = eigenbasis(op)
    assert sorted(s.dim for s in spaces) == [1] * 11 + [2]
    rebuilt = np.zeros((n, n), dtype=complex)
    for lam, basis in spaces:
        assert abs(abs(lam) - 1) <= 1e-9
        gram = basis.conj().T @ basis / n
        assert np.max(np.abs(gram - np.eye(basis.shape[1]))) <= 1e-9
        rebuilt += lam * (basis @ basis.conj().T) / n
    assert np.linalg.norm(rebuilt - op) <= 1e-8


def _odd_primes(lo, hi):
    return [n for n in range(lo, hi + 1)
            if n % 2 and all(n % d for d in range(3, int(n**0.5) + 1, 2))]


def _planted_unitary():
    """Q diag(lambda) Q* with a conjugate pair, a 3-dim cluster, near-equal cosines
    and a 2-dim cluster across the branch cut at -1."""
    angles = [0.7, -0.7, 2.0, 2.0, 2.0, 1.0, 1.0 + 1e-4, -2.6, np.pi - 1e-10,
              1e-10 - np.pi, 0.0, 0.3]
    rng = np.random.default_rng(2026)
    raw = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    q, _ = np.linalg.qr(raw)
    return (q * np.exp(1j * np.array(angles))) @ q.conj().T


@pytest.mark.parametrize(
    "op",
    [cat_unitary(n, HYPERBOLIC) for n in _odd_primes(5, 131)]
    + [translation_op(9, (0, 0)), _planted_unitary()],
    ids=lambda op: f"N{len(op)}",
)
def test_eigenbasis_matches_full_schur_oracle(op):
    n = len(op)
    spaces = eigenbasis(op)
    expected = schur_eigenbasis(op, CLUSTER_TOL)
    assert sorted(s.dim for s in spaces) == sorted(b.shape[1] for _, b in expected)
    for lam, basis in spaces:
        want_lam, want_basis = min(expected, key=lambda pair: abs(pair[0] - lam))
        assert basis.shape[1] == want_basis.shape[1]
        assert abs(lam - want_lam / abs(want_lam)) <= 1e-10
        got = basis @ basis.conj().T / n
        want = want_basis @ want_basis.conj().T
        assert np.max(np.abs(got - want)) <= 1e-10


def test_eigenbasis_planted_clusters():
    dims = sorted(space.dim for space in eigenbasis(_planted_unitary()))
    # 2.0 three times; the pair at -1 wraps around; 1.0 and 1.0 + 1e-4 stay
    # apart though their cosines share a block.
    assert dims == [1] * 7 + [2, 3]


def test_eigenbasis_rejects_a_bad_decomposition(monkeypatch):
    op = cat_unitary(31, HYPERBOLIC)
    real_eigh = np.linalg.eigh
    rng = np.random.default_rng(7)

    def mixed(mat):
        vals, vecs = real_eigh(mat)
        return vals, vecs + 1e-6 * rng.normal(size=vecs.shape)

    def stretched(mat):
        vals, vecs = real_eigh(mat)
        return vals, vecs * (1 + 1e-6)

    for fake in (mixed, stretched):
        monkeypatch.setattr(catmap, "eigh", fake)
        with pytest.raises(InvariantViolated):
            eigenbasis(op)
    monkeypatch.setattr(catmap, "eigh", real_eigh)
    assert sum(space.dim for space in eigenbasis(op)) == 31


def test_eigenbasis_requires_unitary_and_caps_size():
    # A nilpotent and a Jordan block fail the eigen-residual; 2 I and diag(1, i, 0.5)
    # pass the residual and Gram checks and fail only |lambda| = 1.
    for mat in ([[0, 1], [0, 0]], [[1, 1], [0, 1]], 2 * np.eye(2), np.diag([1, 1j, 0.5])):
        with pytest.raises(InvariantViolated):
            eigenbasis(np.array(mat, dtype=complex))
    with pytest.raises(ValueError):
        eigenbasis(np.ones((2, 3), dtype=complex))
    big = EIGEN_DIM_CAP + 1
    with pytest.raises(BudgetExceeded) as info:
        eigenbasis(np.eye(big))
    assert info.value.estimated_work == big**3


def test_delta_constant_observable_vanishes():
    assert delta_Nf(cat_unitary(7, HYPERBOLIC), Observable({(0, 0): 3.75})) == 0.0


def test_delta_constant_shift_cancels_exactly():
    f = Observable({(1, 0): 0.5, (-1, 0): 0.5})
    g = Observable({(1, 0): 0.5, (-1, 0): 0.5, (0, 0): 2.25})
    U = cat_unitary(13, HYPERBOLIC)
    assert delta_Nf(U, f) == delta_Nf(U, g)


def test_delta_bounded_by_mode_mass():
    f = Observable(
        {
            (0, 0): 1.0,
            (1, 2): 0.3,
            (-1, -2): 0.3,
            (2, 0): 0.1 + 0.2j,
            (-2, 0): 0.1 - 0.2j,
        }
    )
    # the nonzero modes' total absolute mass bounds every eigenspace defect
    mass = sum(abs(c) for mode, c in f.fourier.items() if mode != (0, 0))
    for n in (7, 13):
        assert delta_Nf(cat_unitary(n, HYPERBOLIC), f) <= mass + 1e-12


def test_delta_rejects_nonreal_observable():
    with pytest.raises(NonRealObservable):
        delta_Nf(cat_unitary(7, HYPERBOLIC), Observable({(1, 0): 1.0}, real=False))


def test_delta_matches_randomized_sup_oracle():
    n = 13
    f = Observable({(1, 0): 0.5, (-1, 0): 0.5})
    reported = delta_Nf(cat_unitary(n, HYPERBOLIC), f)
    op = quantize(n, Observable({(1, 0): 0.5, (-1, 0): 0.5}))
    rng = np.random.default_rng(20260816)
    sampled = 0.0
    for comp in per_cluster_compressions(eigenbasis(cat_unitary(n, HYPERBOLIC)), op):
        draws = rng.normal(size=(10000, comp.shape[0])) + 1j * rng.normal(
            size=(10000, comp.shape[0])
        )
        draws /= np.linalg.norm(draws, axis=1)[:, None]
        vals = np.abs(np.einsum("ij,jk,ik->i", draws.conj(), comp, draws))
        sampled = max(sampled, float(np.max(vals)))
    assert abs(reported - sampled) <= 1e-6


def test_compressions_match_per_cluster_oracle():
    f = Observable({(1, 0): 0.5, (-1, 0): 0.5, (1, 2): 0.3, (-1, -2): 0.3})
    for n in _odd_primes(5, 61):
        U = cat_unitary(n, HYPERBOLIC)
        spaces = eigenbasis(U)
        shift = translation_op(n, (1, 0))
        want = per_cluster_compressions(spaces, shift)
        got = _compressions(U, shift, 1.0)
        assert [c.shape for c in got] == [c.shape for c in want]
        assert max(float(np.max(np.abs(g - w))) for g, w in zip(got, want)) <= 1e-12
        want_sup = max(_numerical_radius(c) for c in want)
        assert abs(_element_sup(U, (1, 0), 1.0) - want_sup) <= 1e-12 * want_sup
        want_delta = max(float(np.max(np.abs(np.linalg.eigvalsh((c + c.conj().T) / 2))))
                         for c in per_cluster_compressions(spaces, quantize(n, f)))
        assert abs(delta_Nf(U, f) - want_delta) <= 1e-12 * want_delta


def test_numerical_radius_agrees_with_hermitian_spectrum():
    rng = np.random.default_rng(5)
    raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    herm = (raw + raw.conj().T) / 2
    exact = float(np.max(np.abs(np.linalg.eigvalsh(herm))))
    assert abs(_numerical_radius(herm) - exact) <= 1e-4 * exact
    # Classical worst case: a 2x2 Jordan cell has radius exactly one half.
    cell = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert abs(_numerical_radius(cell) - 0.5) <= 1e-6


def test_numerical_radius_matches_full_grid_oracle():
    rng = np.random.default_rng(11)
    for k in range(1, 7):
        for _ in range(4):
            comp = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
            want = grid_numerical_radius(comp, PHASE_GRID)
            got = _numerical_radius(comp)
            assert abs(got - want) <= 1e-12 * want
            if k == 1:
                assert got == want
    # The maximiser of Re(e^{i theta} c) for c = -1 sits at theta = pi.
    minus_one = np.array([[-1.0 + 0j]])
    assert _numerical_radius(minus_one) == grid_numerical_radius(minus_one, PHASE_GRID) == 1.0
    for k in (1, 2, 3):
        assert _numerical_radius(np.zeros((k, k), dtype=complex)) == 0.0


def test_matrix_element_check_shares_one_eigenbasis(monkeypatch):
    calls = []
    real = catmap.eigenbasis
    monkeypatch.setattr(catmap, "eigenbasis",
                        lambda U, budget: calls.append(len(U)) or real(U, budget))
    rep2, rep3 = matrix_element_check(HYPERBOLIC, 13, (1, 0), (2, 3))
    assert calls == [13]
    assert (rep2.nu, rep3.nu) == (2, 3) and rep2.sup_abs == rep3.sup_abs
    (alone,) = matrix_element_check(HYPERBOLIC, 13, (1, 0), (3,))
    assert alone == rep3
    # tau = 12 at p = 13: the nu = 3 orbit count is capped before the eigenbasis runs.
    calls.clear()
    # budget 0.0275 scales the nu = 3 cap 400 to 11, the nu = 2 cap to 82 and
    # EIGEN_DIM_CAP to 14.
    capped, kept = matrix_element_check(HYPERBOLIC, 13, (1, 0), (3, 2), budget=0.0275)
    assert isinstance(capped, BudgetExceeded) and capped.estimated_work == 12**3
    assert kept == rep2 and calls == [13]
    # A dimension cap skips every exponent with the N^3 estimate.  One budget
    # scales every cap, and a budget of 12/512 would cap nu = 3 (tau = 12 > 9)
    # first, so the dimension cap itself is lowered.
    monkeypatch.setattr(catmap, "EIGEN_DIM_CAP", 12)
    skipped = matrix_element_check(HYPERBOLIC, 13, (1, 0), (2, 3))
    assert [err.estimated_work for err in skipped] == [13**3, 13**3]


def test_matrix_element_inequality_reports():
    (rep,) = matrix_element_check(HYPERBOLIC, 11, (1, 0), (2,))
    assert rep.passed and rep.tau == 10
    assert rep.sup_power <= rep.bound
    assert 0 < rep.ratio <= 1
    (rep3,) = matrix_element_check(HYPERBOLIC, 13, (1, 0), (3,))
    assert rep3.passed and rep3.tau == 12
    assert rep3.nu == 3 and rep3.p == 13


@pytest.mark.parametrize("nu", [2, 3])
def test_matrix_element_verdict_follows_the_radius_bracket(monkeypatch, nu):
    # A grid maximum g brackets the radius in [g, g / cos(pi / PHASE_GRID)]: the
    # verdict passes when the whole bracket lies within the ceiling, fails when g
    # lies above it, and is undecided when the bracket straddles it.
    (real,) = matrix_element_check(HYPERBOLIC, 13, (1, 0), (nu,))
    root = real.bound ** (1 / (2 * nu))
    grids = {"pass": root * np.cos(np.pi / PHASE_GRID) * (1 - 1e-9),
             "undecided": root * (1 - 1e-7),
             "fail": root * (1 + 1e-7)}  # within the former 1e-6 slack
    verdicts = {}
    for name, g in grids.items():
        monkeypatch.setattr(catmap, "_element_sup", lambda U, a, budget, g=g: g)
        (verdicts[name],) = matrix_element_check(HYPERBOLIC, 13, (1, 0), (nu,))
    assert isinstance(verdicts["undecided"], UndecidedVerdict)
    for name in ("pass", "fail"):
        report = verdicts[name]
        assert report.passed == (name == "pass")
        assert (report.bound, report.sup_abs) == (real.bound, grids[name])
        assert report.sup_power == grids[name] ** (2 * nu)
        assert report.ratio == report.sup_power / report.bound
    assert verdicts["fail"].sup_power > real.bound


def test_matrix_element_rejects_dependent_pairs():
    with pytest.raises(DependentVectors):
        matrix_element_check(HYPERBOLIC, 11, (0, 0), (2,))
    # (6, 1) spans a stable line mod 11, so the pair and its image align.
    with pytest.raises(DependentVectors):
        matrix_element_check(HYPERBOLIC, 11, (6, 1), (2,))


def test_matrix_element_rejects_degenerate_reduction():
    # Trace 10 is 1 mod 3 with a repeated root, and the reduction is not scalar.
    stuck = CatMatrix(5, 4, 6, 5)
    with pytest.raises(DegenerateParameters):
        matrix_element_check(stuck, 3, (1, 0), (2,))
    with pytest.raises(ValueError):
        matrix_element_check(HYPERBOLIC, 11, (1, 0), (1,))
