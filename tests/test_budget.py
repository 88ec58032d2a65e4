"""One budget rule: a kernel runs while its measure is at most
max(1, int(cap * budget)) and skips with its estimated work past it."""

import numpy as np
import pytest

from matpowlab import catmap, charsums, counting, curves
from matpowlab.catmap import CatMatrix, cat_unitary, eigenbasis, matrix_element_check
from matpowlab.charsums import matrix_exp_sums, sum_moment
from matpowlab.counting import (count_product_eq, count_Q, orbit_sum_distribution,
                                residue_product_eqs, residue_sum_distribution,
                                residue_sumset_cover, sumset_cover, torus_energy)
from matpowlab.curves import CurveSpec, count_points
from matpowlab.errors import BudgetExceeded, over_budget
from matpowlab.ffield import make_field, subgroup_of_order
from matpowlab.matgrp import VecEntity, matrix_order, sl2_companion, sl2_table


def test_a_measure_at_the_limit_runs_and_one_above_skips():
    assert over_budget("tau", 10, 10) is None
    err = over_budget("tau", 11, 10)
    assert isinstance(err, BudgetExceeded) and err.estimated_work == 11
    # the limit truncates cap * budget: 10^8 * 4.8e-7 = 47.99..., so 48 skips
    assert over_budget("work", 47, 10 ** 8, 4.8e-7) is None
    assert over_budget("work", 48, 10 ** 8, 4.8e-7).estimated_work == 48


def test_the_limit_floors_at_one():
    assert over_budget("tau", 1, 10 ** 6, 1e-12) is None
    assert over_budget("tau", 1, 3, 0.0) is None
    assert over_budget("tau", 2, 10 ** 6, 1e-12).estimated_work == 2


def test_the_estimated_work_defaults_to_the_measure():
    assert over_budget("tau", 5, 4).estimated_work == 5
    assert over_budget("tau", 5, 4, work=125).estimated_work == 125
    assert over_budget("tau", 5, 4, 2.0, work=125) is None


def _budget_at(limit, cap):
    """The budget whose limit on cap is exactly limit."""
    budget = (limit + 0.5) / cap
    assert max(1, int(cap * budget)) == limit
    return budget


F7, F13 = make_field(7), make_field(13)
A13 = sl2_companion(F13, 1)
TAU13 = matrix_order(A13)
START = VecEntity([F13.one, F13.one], "row")
TABLE13 = sl2_table(F13)
KEY13 = (TABLE13.tags[1], TABLE13.tau[1])  # the (class, tau) of A13
G6 = subgroup_of_order(F13, 6)
HYPERBOLIC = CatMatrix(2, 1, 3, 2)


def _entry_sum(budget):
    (result,) = matrix_exp_sums([(START, VecEntity([F13.one, F13.zero], "column"), A13)],
                                budget)
    return result


# (kernel(budget), its cap, the measure compared with the cap, the estimated work)
CASES = {
    "count_Q": (lambda b: count_Q(A13, 2, b), counting.DEFAULT_TAU_CAP[2],
                TAU13, TAU13 ** 2),
    "torus_energy-2": (lambda b: torus_energy(TABLE13, *KEY13, 2, b),
                       counting.DEFAULT_TAU_CAP[2], TAU13, TAU13 ** 2),
    "torus_energy-3": (lambda b: torus_energy(TABLE13, *KEY13, 3, b),
                       counting.DEFAULT_TAU_CAP[3], TAU13, TAU13 ** 3),
    "residue_sum_distribution": (
        lambda b: residue_sum_distribution(TABLE13.torus(*KEY13), 13, 2, b),
        counting.DISTRIBUTION_WORK_CAP, TAU13 ** 2, TAU13 ** 2),
    "residue_sumset_cover": (lambda b: residue_sumset_cover(TABLE13.torus(*KEY13), 13, 3, b),
                             counting.COVER_SPACE_CAP, 13 ** 2, 13 ** 2),
    "count_product_eq": (lambda b: count_product_eq(F7.one, [F7.one], [F7.elem(3)], b),
                         counting.PRODUCT_EQ_CAP, 6, 6),
    # the split key of A13: its torus rows (h, 1/h) are the powers of both eigenvalues
    "residue_product_eqs": (
        lambda b: residue_product_eqs(TABLE13.torus(*KEY13)[:, :, None],
                                      np.ones((1, 2, 1), np.int64), np.ones((1, 1), np.int64),
                                      F13, b),
        counting.PRODUCT_EQ_CAP, TAU13, TAU13),
    "orbit_sum_distribution": (lambda b: orbit_sum_distribution(START, A13, 2, b),
                               counting.DISTRIBUTION_WORK_CAP, TAU13 ** 2,
                               TAU13 ** 2),
    "sumset_cover": (lambda b: sumset_cover(START, A13, 3, b),
                     counting.COVER_SPACE_CAP, 13 ** 2, 13 ** 2),
    # s = 2 over F_13: the image {0} + the subgroup of order 6 has 7 points
    "count_points": (lambda b: count_points(CurveSpec(F13, 2, F13.one, F13.elem(2)), b),
                     curves.CURVE_WORK_CAP, 7 ** 2, 7 ** 2),
    "matrix_exp_sums": (_entry_sum, charsums.SUM_TAU_CAP, TAU13, TAU13),
    "sum_moment": (lambda b: sum_moment("kloosterman", G6, 2, b),
                   charsums.MOMENT_WORK_CAP, 13 ** 2 * 6, 13 ** 2 * 6),
    "eigenbasis": (lambda b: eigenbasis(cat_unitary(7, HYPERBOLIC), b),
                   catmap.EIGEN_DIM_CAP, 7, 7 ** 3),
    # nu = 2 at p = 13: the dimension cap binds (the tau cap is far above tau = 12)
    "matrix_element_check-dim": (
        lambda b: matrix_element_check(HYPERBOLIC, 13, (1, 0), (2,), b)[0],
        catmap.EIGEN_DIM_CAP, 13, 13 ** 3),
    # nu = 3 at p = 13: the tau cap binds (the dimension cap stays at 14 or more)
    "matrix_element_check-tau": (
        lambda b: matrix_element_check(HYPERBOLIC, 13, (1, 0), (3,), b)[0],
        counting.DEFAULT_TAU_CAP[3], 12, 12 ** 3),
}


def _outcome(kernel, budget):
    try:
        return kernel(budget)
    except BudgetExceeded as err:
        return err


@pytest.mark.parametrize("name", CASES)
def test_each_kernel_runs_at_its_limit_and_skips_one_below(name):
    kernel, cap, measure, work = CASES[name]
    assert measure > 1
    assert not isinstance(_outcome(kernel, _budget_at(measure, cap)), BudgetExceeded)
    skipped = _outcome(kernel, _budget_at(measure - 1, cap))
    assert isinstance(skipped, BudgetExceeded) and skipped.estimated_work == work
