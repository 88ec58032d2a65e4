"""Acceptance gate: one pass/fail line per criterion, stated tolerances only."""

import json
import os

import numpy as np

from matpowlab.catmap import CatMatrix, Observable, cat_unitary, delta_Nf, egorov_defect
from matpowlab.catmap import matrix_element_check
from matpowlab.charsums import gauss_subgroup, kloosterman_subgroup, matrix_exp_sum
from matpowlab.counting import count_JK, count_Q
from matpowlab.curves import (
    CurveSpec,
    count_points,
    cubic_factor_exclusion,
    high_degree_bound,
)
from matpowlab.errors import SingularLowerLeft
from matpowlab.ffield import (
    SubgroupSpec,
    _is_prime,
    make_field,
    mult_order,
    primitive_root,
    subgroup_of_order,
)
from matpowlab.harness import run_experiment
from matpowlab.harness.config import build_config
from matpowlab.matgrp import (
    MatEntity,
    VecEntity,
    independence_checks,
    matrix_order,
    sl2_companion,
)
from oracles import (companion_realization, mat_mul, naive_count_Q, naive_count_Q_fast,
                     naive_subgroup_sum)

CAT = CatMatrix(2, 1, 3, 2)
EIGENMODES = Observable({(1, 0): 0.5, (-1, 0): 0.5})


def _odd_primes(lo, hi):
    return [p for p in range(lo, hi + 1) if p % 2 and _is_prime(p)]


def _companions(ctx):
    p = ctx.p
    return [sl2_companion(ctx, u) for u in range(p) if (u * u - 4) % p]


def _verdict(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_01_count_oracle_equivalence():
    # exact match against independent tuple enumeration, all small companions
    mismatches = 0
    checked = 0
    for p in (5, 7, 11, 13):
        ctx = make_field(p)
        for A in _companions(ctx):
            tau = matrix_order(A)
            keys = _power_keys(A, tau, p)
            for nu in (1, 2, 3):
                if count_Q(A, nu).value != naive_count_Q_fast((keys, p), nu):
                    mismatches += 1
                checked += 1
    # a couple of pure object-arithmetic spot checks on top
    ctx = make_field(5)
    A = sl2_companion(ctx, 1)
    powers, cur = [], A.rows
    for _ in range(matrix_order(A)):
        powers.append(cur)
        cur = mat_mul(cur, A.rows)
    if count_Q(A, 2).value != naive_count_Q(powers, 2):
        mismatches += 1
    _verdict(1, mismatches == 0, f"{checked} exact counts vs enumeration oracle")


def _power_keys(A, tau, p):
    rows, cur = [], A
    for _ in range(tau):
        rows.append(cur.residues())
        cur = MatEntity(mat_mul(cur.rows, A.rows))
    return np.array(rows, dtype=np.int64)


def test_criterion_02_energy_bound_all_diagonalizable():
    worst = 0.0
    checked = 0
    for p in _odd_primes(3, 101):
        ctx = make_field(p)
        mats = [MatEntity.identity(ctx, 2),
                MatEntity.from_ints(ctx, [[p - 1, 0], [0, p - 1]])]
        mats += _companions(ctx)
        for A in mats:
            tau = matrix_order(A)
            worst = max(worst, count_Q(A, 2).value / (3 * tau * tau))
            checked += 1
    _verdict(2, worst <= 1.0,
             f"{checked} matrices, worst energy/(3 tau^2) = {worst:.4f}")


def test_criterion_03_holder_chain():
    rng = np.random.default_rng(20260816)
    primes = (5, 7, 11, 13, 17, 19)
    worst = 0.0
    instances = 0
    while instances < 200:
        p = int(rng.choice(primes))
        ctx = make_field(p)
        u = int(rng.integers(0, p))
        if (u * u - 4) % p == 0:
            continue
        A = sl2_companion(ctx, u)
        a = VecEntity((ctx.elem(int(rng.integers(0, p))),
                       ctx.elem(int(rng.integers(0, p)))), "row")
        b = VecEntity((ctx.elem(int(rng.integers(0, p))),
                       ctx.elem(int(rng.integers(0, p)))), "column")
        if not a or not b:
            continue
        if not independence_checks([(a, A), (b, A)]).all():
            continue
        tau = matrix_order(A)
        observed = abs(matrix_exp_sum(a, b, A).value)
        for k, ell in ((2, 2), (2, 3), (3, 3)):
            lhs = observed ** (2 * k * ell)
            rhs = (p ** 2 * tau ** (2 * k * ell - 2 * k - 2 * ell)
                   * count_JK(a, A, k).value * count_JK(b, A, ell).value)
            worst = max(worst, lhs / rhs)
        instances += 1
    _verdict(3, worst <= 1 + 1e-6,
             f"{instances} instances x 3 exponent pairs, worst lhs/rhs = {worst:.4f}")


def test_criterion_04_point_count_bound():
    rng = np.random.default_rng(20260816)
    worst = 0.0
    checked = 0
    for p in _odd_primes(5, 499):
        ctx = make_field(p)
        for s in range(1, 11):
            if 3 * s >= p:
                continue
            done = 0
            while done < 2:
                a = ctx.elem(int(rng.integers(1, p)))
                b = ctx.elem(int(rng.integers(1, p)))
                if a * b == ctx.one:
                    continue
                n = count_points(CurveSpec(ctx, s, a, b)).value
                worst = max(worst, n / high_degree_bound(3 * s, p))
                checked += 1
                done += 1
    _verdict(4, worst <= 1.0,
             f"{checked} curves with degree < p, worst count/bound = {worst:.4f}")


def test_criterion_05_cubic_factor_exclusion():
    leaks = 0
    checked = 0
    for p in (5, 7, 11, 13):
        ctx = make_field(p)
        for ai in range(1, p):
            for bi in range(1, p):
                if (ai * bi) % p == 1:
                    continue
                report = cubic_factor_exclusion(ctx.elem(ai), ctx.elem(bi))
                if not report.excluded or report.counterexamples:
                    leaks += 1
                checked += 1
    _verdict(5, leaks == 0, f"{checked} coefficient pairs, no linear factor")


def test_criterion_06_reduction_identities():
    rng = np.random.default_rng(20260816)
    primes = (11, 13, 17, 19, 23, 29, 31, 37)
    worst_kloo = 0.0
    for _ in range(100):
        p = int(rng.choice(primes))
        ctx = make_field(p)
        divisors = [m for m in range(1, p) if (p - 1) % m == 0]
        m = int(rng.choice(divisors))
        group = subgroup_of_order(ctx, m)
        g = group.generator
        a = int(rng.integers(1, p))
        b = int(rng.integers(1, p))
        ginv = g ** (m - 1) if m > 1 else ctx.one
        diag = MatEntity.from_ints(ctx, [[g.c0, 0], [0, ginv.c0]])
        left = VecEntity((ctx.elem(a), ctx.one), "row")
        right = VecEntity((ctx.one, ctx.elem(b)), "column")
        # a u + b / u summed term by term, independent of the walk code
        direct = naive_subgroup_sum(group, lambda u: ctx.elem(a) * u + ctx.elem(b) / u,
                                    ctx.one)
        reduced = matrix_exp_sum(left, right, diag).value
        subgroup = kloosterman_subgroup(group, ctx.elem(a), ctx.elem(b)).value
        worst_kloo = max(worst_kloo, abs(direct - reduced), abs(direct - subgroup))
    worst_gauss = 0.0
    for _ in range(100):
        p = int(rng.choice(primes))
        ext = make_field(p, 2)
        gamma = subgroup_of_order(ext, p + 1).generator  # of the norm-one group
        lam = gamma ** int(rng.integers(1, p + 1))
        if lam == ext.one or lam == -ext.one:
            lam = gamma
        a = ext.from_index(int(rng.integers(1, p * p)))
        left, right, A = companion_realization(lam, a)
        direct = gauss_subgroup(SubgroupSpec(lam, mult_order(lam)), a).value
        reduced = matrix_exp_sum(left, right, A).value
        worst_gauss = max(worst_gauss, abs(direct - reduced))
    ok = worst_kloo <= 1e-9 and worst_gauss <= 1e-9
    _verdict(6, ok, f"100 diagonal reductions against brute force (max err {worst_kloo:.2e}), "
                    f"100 companion reductions (max err {worst_gauss:.2e})")


def test_criterion_07_egorov_validation():
    try:
        cat_unitary(3, CAT)
        singular_ok = False
    except SingularLowerLeft:
        singular_ok = True
    worst_unit = 0.0
    worst_defect = 0.0
    for N in _odd_primes(5, 61):
        U = cat_unitary(N, CAT)
        gram = U @ U.conj().T - np.eye(N)
        worst_unit = max(worst_unit, float(np.linalg.norm(gram)))
        for vec in ((1, 0), (0, 1)):
            worst_defect = max(worst_defect, egorov_defect(U, CAT, vec))
    ok = singular_ok and worst_unit <= 1e-9 and worst_defect <= 1e-8
    _verdict(7, ok, f"N=3 rejected, unitarity {worst_unit:.2e}, "
                    f"translation defect {worst_defect:.2e} over N <= 61")


def test_criterion_08_matrix_element_inequality_and_trend():
    worst = 0.0
    checked = 0
    for p in _odd_primes(5, 61):
        for report in matrix_element_check(CAT, p, (1, 0), (2, 3)):
            worst = max(worst, report.ratio)
            checked += 1
    trend = 0.0
    for N in _odd_primes(5, 199):
        trend = max(trend, delta_Nf(cat_unitary(N, CAT), EIGENMODES) * N ** (1 / 60))
    # second clause is report-only: the decay exponent is asymptotic
    print(f"  trend report: max Delta(N,f) * N^(1/60) = {trend:.4f} "
          f"over primes N <= 199")
    _verdict(8, worst <= 1 + 1e-6,
             f"{checked} (p, nu) inequality checks, worst ratio {worst:.4f}")


def test_criterion_09_sum_sanity():
    rng = np.random.default_rng(20260816)
    trivial_ok = True
    for _ in range(25):
        p = int(rng.choice((5, 7, 11, 13, 17)))
        ctx = make_field(p)
        m = int(rng.choice([d for d in range(1, p) if (p - 1) % d == 0]))
        group = subgroup_of_order(ctx, m)
        val = kloosterman_subgroup(group, ctx.elem(int(rng.integers(1, p))),
                                   ctx.elem(int(rng.integers(1, p)))).value
        trivial_ok = trivial_ok and abs(val) <= m * (1 + 1e-9)
    worst_gauss = 0.0
    for p in (5, 7, 11, 13):
        for degree in (1, 2):
            ctx = make_field(p, degree)
            full = SubgroupSpec(primitive_root(ctx), ctx.group_order)
            for idx in (1, 2, ctx.group_order - 1):
                val = gauss_subgroup(full, ctx.from_index(idx)).value
                worst_gauss = max(worst_gauss, abs(val + 1))
    worst_weil = 0.0
    pairs = 0
    for p in _odd_primes(3, 101):
        # independent brute force: K(a,b) for all ab != 0 via one matrix product
        units = np.arange(1, p)
        inverses = np.array([pow(int(x), -1, p) for x in units])
        omega = np.exp(2j * np.pi / p)
        left = omega ** np.outer(units, units)
        right = omega ** np.outer(inverses, units)
        kmat = left @ right
        worst_weil = max(worst_weil, float(np.max(np.abs(kmat)) / (2 * np.sqrt(p))))
        pairs += kmat.size
    ok = trivial_ok and worst_gauss <= 1e-9 and worst_weil <= 1 + 1e-9
    _verdict(9, ok, f"|S| <= tau held, full Gauss = -1 ({worst_gauss:.2e}), "
                    f"{pairs} Kloosterman pairs worst |K|/(2 sqrt p) = {worst_weil:.4f}")


def test_criterion_10_ratio_report_coverage(tmp_path):
    required = {
        "energy": ("diag-energy", "irred-energy"),
        "q3": ("split-six", "nonsplit-six"),
        "sums": ("split-pair", "nonsplit-pair"),
        "kloosterman": ("split-pair", "sixth-moment-split"),
        "gauss": ("nonsplit-pair", "sixth-moment-nonsplit"),
        "orbit": ("product-decay",),
        "curves": ("extension-regime",),
    }
    missing = []
    for experiment, names in required.items():
        out = str(tmp_path / experiment)
        cfg = build_config({"experiment": experiment, "p_min": "5",
                            "p_max": "13", "out": out})
        run_experiment(cfg)
        with open(os.path.join(out, f"{experiment}.summary.json")) as fh:
            summary = json.load(fh)
        for name in names:
            stats = summary["bounds"].get(name, {})
            if not stats or stats["rows"] < 1 or "ratio_max" not in stats:
                missing.append(f"{experiment}:{name}")
    _verdict(10, not missing,
             "max-ratio summaries present for all mapped estimates"
             + ("" if not missing else f"; missing {missing}"))


def test_criterion_11_byte_determinism(tmp_path):
    blobs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "3")):
        out = str(tmp_path / tag)
        cfg = build_config({"experiment": "gauss", "p_min": "5", "p_max": "13",
                            "out": out, "workers": workers})
        run_experiment(cfg)
        with open(os.path.join(out, "gauss.csv"), "rb") as fh:
            blobs.append(fh.read())
    ok = blobs[0] == blobs[1] == blobs[2]
    _verdict(11, ok, "reruns and worker counts 1 vs 3 byte-identical")
