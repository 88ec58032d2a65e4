"""Instance grids and row generators for every experiment kind."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..catmap import (
    EIGEN_DIM_CAP,
    CatMatrix,
    Observable,
    cat_unitary,
    delta_Nf,
    egorov_defect,
    matrix_element_check,
)
from ..charsums import (
    MOMENT_WORK_CAP,
    SUM_TAU_CAP,
    analyze_instances,
    evaluate_bounds,
    gauss_subgroup,
    matrix_exp_sums,
    nonsplit_pair_bound,
    split_pair_bound,
    subgroup_entry,
    sum_moment,
    weil_explicit_bound,
)
from ..counting import (
    COVER_SPACE_CAP,
    DEFAULT_TAU_CAP,
    DISTRIBUTION_WORK_CAP,
    PRODUCT_EQ_CAP,
    count_Q,
    count_product_eq,
    orbit_sum_distribution,
    sumset_cover,
)
from ..curves import (
    CURVE_WORK_CAP,
    CurveSpec,
    count_points,
    extension_regime_bound,
    high_degree_bound,
)
from ..errors import (
    BudgetExceeded,
    CompositeModulus,
    DegenerateParameters,
    DependentVectors,
    SingularLowerLeft,
)
from ..ffield import (
    SubgroupSpec,
    _is_prime,
    make_field,
    primitive_root,
    subgroup_of_order,
)
from ..matgrp import VecEntity, char_poly_factor, matrix_order, sl2_companion
from .config import EXPERIMENT_NAMES, ExperimentConfig
from .prng import derive_stream

# Fixed hyperbolic automorphism for the quantization experiments.
CAT_A11, CAT_A12, CAT_A21, CAT_A22 = 2, 1, 3, 2
_CAT_MODES = {(1, 0): 0.5, (-1, 0): 0.5}


@dataclass(frozen=True)
class InstanceRecord:
    """One CSV row: an observed quantity against at most one bound."""

    experiment: str
    p: int
    q: int
    n: int | None
    trace: int | None
    class_tag: str
    tau: int | None
    t: int | None
    quantity: str
    value_re: float | None
    value_im: float | None
    abs_value: float | None
    bound_name: str
    bound_value: float | None
    ratio: float | None
    status: str
    seconds: float = 0.0


def _row(cfg, ctxinfo, quantity, value, bound_name="", bound_value=None,
         status="report"):
    """Build a record; the ratio column is always abs over bound."""
    if value is None:
        value_re = value_im = abs_value = None
    else:
        cval = complex(value)
        value_re, value_im = cval.real, cval.imag
        abs_value = abs(cval)
    ratio = None
    if abs_value is not None and bound_value:
        ratio = abs_value / bound_value
    return InstanceRecord(
        experiment=cfg.experiment,
        quantity=quantity,
        value_re=value_re,
        value_im=value_im,
        abs_value=abs_value,
        bound_name=bound_name,
        bound_value=bound_value,
        ratio=ratio,
        status=status,
        **ctxinfo,
    )


def _checked(cfg, ctxinfo, quantity, value, bound_name, bound_value, slack=0.0):
    status = "pass" if abs(complex(value)) <= bound_value * (1 + slack) else "fail"
    return _row(cfg, ctxinfo, quantity, value, bound_name, bound_value, status)


def _skipped(cfg, ctxinfo, quantity, err):
    """A skipped row naming its cause: budget with the estimated work of a
    BudgetExceeded, the class name of any other error."""
    if isinstance(err, BudgetExceeded):
        cap = err.estimated_work
        return _row(cfg, ctxinfo, quantity, None, "budget",
                    float(cap) if cap else None, "skipped")
    return _row(cfg, ctxinfo, quantity, None, type(err).__name__, status="skipped")


def _ctxinfo(p, q, n=None, trace=None, class_tag="", tau=None, t=None):
    return dict(p=p, q=q, n=n, trace=trace, class_tag=class_tag, tau=tau, t=t)


def _primes(cfg):
    return [p for p in range(cfg.p_min, cfg.p_max + 1) if p % 2 and _is_prime(p)]


def _divisors(n):
    return [d for d in range(2, n + 1) if n % d == 0]


def _tau_selected(cfg, tau):
    return cfg.tau_min <= tau and (cfg.tau_max is None or tau <= cfg.tau_max)


def _scaled(cap, budget):
    return max(1, int(cap * budget))


def build_instances(cfg: ExperimentConfig):
    """Plain-tuple descriptors in deterministic order: one subgroup (p, m) for
    kloosterman and gauss, one prime (p,) for every other experiment."""
    kind = cfg.experiment
    if kind == "kloosterman":
        return [(p, m) for p in _primes(cfg) for m in _divisors(p - 1)]
    if kind == "gauss":
        return [(p, m) for p in _primes(cfg) for m in [0] + _divisors(p + 1)]
    if kind in EXPERIMENT_NAMES:
        return [(p,) for p in _primes(cfg)]
    raise ValueError(f"unknown experiment {kind!r}")


def _stream(cfg, *tags):
    return derive_stream(cfg.seed, EXPERIMENT_NAMES.index(cfg.experiment), *tags)


def _companions(cfg, p):
    """Each SL_2 companion A_u = [[0, -1], [1, u]] of p, in u order, whose class
    passes the filter and whose order lies in the tau window, as (u, A_u, its
    char_poly_factor data, tau, row context).  The traces u = +-2, whose
    eigenvalue repeats, belong to no class.  det A_u = 1, so t = 1."""
    ctx = make_field(p)
    for u in range(p):
        A = sl2_companion(ctx, u)
        data = char_poly_factor(A)
        if data.tag == "repeated" or cfg.class_filter not in ("all", data.tag):
            continue
        tau = matrix_order(A)
        if _tau_selected(cfg, tau):
            yield u, A, data, tau, _ctxinfo(p, p, n=2, trace=u, class_tag=data.tag,
                                            tau=tau, t=1)


def _energy_rows(cfg, desc):
    (p,) = desc
    rows = []
    for u, A, data, tau, info in _companions(cfg, p):
        try:
            count = count_Q(A, 2, max_tau=_scaled(DEFAULT_TAU_CAP[2], cfg.budget)).value
        except BudgetExceeded as err:
            rows.append(_skipped(cfg, info, "energy2", err))
            continue
        t = info["t"]
        rows.append(_checked(cfg, info, "energy2", count, "three-tau-squared",
                             3.0 * tau * tau))
        rows.append(_row(cfg, info, "energy2", count, "diag-energy",
                         tau**3 * min(t * tau**-0.25, t * t * tau**-0.5)))
        if data.tag == "irreducible":
            rows.append(_row(cfg, info, "energy2", count, "irred-energy", t * tau**2.5))
    return rows


def _q3_rows(cfg, desc):
    (p,) = desc
    rows = []
    for u, A, data, tau, info in _companions(cfg, p):
        try:
            count = count_Q(A, 3, max_tau=_scaled(DEFAULT_TAU_CAP[3], cfg.budget)).value
        except BudgetExceeded as err:
            rows.append(_skipped(cfg, info, "orbit-count-6term", err))
            continue
        if data.tag == "split":
            bound_name, bound = "split-six", tau ** (11 / 3)
        else:
            bound_name, bound = "nonsplit-six", tau ** (19 / 5) + tau**5 / p
        rows.append(_row(cfg, info, "orbit-count-6term", count, bound_name, bound))
    return rows


def _nonzero_pair(stream, p):
    while True:
        pair = (stream.below(p), stream.below(p))
        if pair != (0, 0):
            return pair


def _sums_rows(cfg, desc):
    """Every sampled sum of one prime: one stacked walk and one stacked
    analysis, rows in (trace, sample) order."""
    (p,) = desc
    ctx = make_field(p)
    labels, entries = [], []
    for u, A, data, tau, info in _companions(cfg, p):
        for j in range(cfg.samples):
            stream = _stream(cfg, p, u, j)
            left = VecEntity([ctx.elem(x) for x in _nonzero_pair(stream, p)], "row")
            right = VecEntity([ctx.elem(x) for x in _nonzero_pair(stream, p)], "column")
            labels.append((info, f"matrix-sum-{j}"))
            entries.append((left, right, A))
    results = matrix_exp_sums(entries, max_tau=_scaled(SUM_TAU_CAP, cfg.budget))
    computed = [entry for entry, result in zip(entries, results)
                if not isinstance(result, BudgetExceeded)]
    hypotheses = iter(analyze_instances(computed))
    rows = []
    for (info, quantity), result in zip(labels, results):
        if isinstance(result, BudgetExceeded):
            rows.append(_skipped(cfg, info, quantity, result))
            continue
        rows.extend(_row(cfg, info, quantity, result.value, entry.name, entry.value,
                         entry.status)
                    for entry in evaluate_bounds(result, next(hypotheses)))
    return rows


def _moment_row(cfg, info, family, group, bound_name, bound):
    """The j = 0 moment row of a walk family; only the sixth moment has a bound."""
    quantity = f"moment{cfg.moment}"
    try:
        moment = sum_moment(family, group, cfg.moment,
                            max_work=_scaled(MOMENT_WORK_CAP, cfg.budget))
    except BudgetExceeded as err:
        return _skipped(cfg, info, quantity, err)
    if cfg.moment == 6:
        return _row(cfg, info, quantity, moment.value, bound_name, bound)
    return _row(cfg, info, quantity, moment.value)


def _subgroup_rows(cfg, info, family, group, coefficients, bounds, moment_bound):
    """The sampled sums of one subgroup as one matrix_exp_sums stack over its
    subgroup_entry, each against the trivial bound and the (name, value,
    checked) bounds; the moment row follows the j = 0 rows."""
    A, ones = subgroup_entry(family, group)
    results = matrix_exp_sums([(VecEntity(c, "row"), ones, A) for c in coefficients],
                              max_tau=_scaled(SUM_TAU_CAP, cfg.budget))
    bounds = [("trivial", float(group.order), True)] + bounds
    rows = []
    for j, result in enumerate(results):
        quantity = f"{family}-{j}"
        if isinstance(result, BudgetExceeded):
            rows.append(_skipped(cfg, info, quantity, result))
        else:
            rows.extend(_checked(cfg, info, quantity, result.value, name, bound, slack=1e-9)
                        if checked else _row(cfg, info, quantity, result.value, name, bound)
                        for name, bound, checked in bounds)
        if j == 0:
            rows.append(_moment_row(cfg, info, family, group, *moment_bound))
    return rows


def _kloosterman_rows(cfg, desc):
    p, m = desc
    if not _tau_selected(cfg, m):
        return []
    ctx = make_field(p)
    streams = [_stream(cfg, p, m, j) for j in range(cfg.samples)]
    coefficients = [[ctx.elem(s.unit_nonzero(p)) for _ in range(2)] for s in streams]
    bounds = [("split-pair", split_pair_bound(m, p), False)]
    if m == p - 1:
        bounds.append(("weil", weil_explicit_bound(p), True))
    return _subgroup_rows(cfg, _ctxinfo(p, p, n=1, tau=m), "kloosterman",
                          subgroup_of_order(ctx, m), coefficients, bounds,
                          ("sixth-moment-split", p * p * m ** (11 / 3)))


def _gauss_rows(cfg, desc):
    p, m = desc
    ctx = make_field(p, 2)
    q = p * p
    if m == 0:
        group = SubgroupSpec(primitive_root(ctx), q - 1)
        info = _ctxinfo(p, q, n=1, tau=q - 1)
        try:
            value = gauss_subgroup(group, ctx.one,
                                   max_order=_scaled(SUM_TAU_CAP, cfg.budget)).value
        except BudgetExceeded as err:
            return [_skipped(cfg, info, "gauss-full-deviation", err)]
        # The sum over every invertible element is exactly minus one.
        return [_checked(cfg, info, "gauss-full-deviation", value + 1,
                         "tolerance", 1e-9)]
    if not _tau_selected(cfg, m):
        return []
    coefficients = [[ctx.from_index(1 + _stream(cfg, p, m, j).below(q - 1))]
                    for j in range(cfg.samples)]
    return _subgroup_rows(cfg, _ctxinfo(p, q, n=1, tau=m), "gauss",
                          subgroup_of_order(ctx, m), coefficients,
                          [("nonsplit-pair", nonsplit_pair_bound(m, p), False)],
                          ("sixth-moment-nonsplit", q * (m ** (19 / 5) + m**5 / p)))


def _curve_pair(stream, ctx):
    q = ctx.q
    while True:
        a = ctx.from_index(stream.unit_nonzero(q))
        b = ctx.from_index(stream.unit_nonzero(q))
        if a * b != ctx.one:
            return a, b


def _point_count(cfg, ctx, s, stream):
    """Points of the degree-s curve whose (a, b) is drawn from stream, or the
    BudgetExceeded that skipped the count."""
    a, b = _curve_pair(stream, ctx)
    try:
        return count_points(CurveSpec(ctx, s, a, b),
                            max_work=_scaled(CURVE_WORK_CAP, cfg.budget)).value
    except BudgetExceeded as err:
        return err


def _curves_rows(cfg, desc):
    """The (s, j) rows of one prime over F_p, then its extension rows: degree
    p - 1 over F_{p^2}, drawn from the streams tagged (p, 0, j)."""
    (p,) = desc
    ctx = make_field(p)
    info = _ctxinfo(p, p)
    rows = []
    for s in range(cfg.s_min, cfg.s_max + 1):
        if s % p == 0:
            continue
        for j in range(cfg.samples):
            quantity = f"point-count-s{s}-{j}"
            count = _point_count(cfg, ctx, s, _stream(cfg, p, s, j))
            if isinstance(count, BudgetExceeded):
                rows.append(_skipped(cfg, info, quantity, count))
            elif 3 * s < p:
                rows.append(_checked(cfg, info, quantity, count, "high-degree",
                                     high_degree_bound(3 * s, p)))
            else:
                rows.append(_row(cfg, info, quantity, count))
    ext = make_field(p, 2)
    info = _ctxinfo(p, ext.q)
    for j in range(cfg.samples):
        quantity = f"point-count-ext-{j}"
        count = _point_count(cfg, ext, p - 1, _stream(cfg, p, 0, j))
        if isinstance(count, BudgetExceeded):
            rows.append(_skipped(cfg, info, quantity, count))
        else:
            rows.append(_row(cfg, info, quantity, count, "extension-regime",
                             extension_regime_bound(p - 1, p)))
    return rows


def _orbit_rows(cfg, desc):
    (p,) = desc
    ctx = make_field(p)
    start = VecEntity((ctx.one, ctx.zero), "row")
    rows = []
    for u, A, data, tau, info in _companions(cfg, p):
        try:
            dist = orbit_sum_distribution(
                start, A, 2, max_work=_scaled(DISTRIBUTION_WORK_CAP, cfg.budget))
            rows.append(_row(cfg, info, "distinct-sums-2", len(dist.rows)))
        except BudgetExceeded as err:
            rows.append(_skipped(cfg, info, "distinct-sums-2", err))
        try:
            cover = sumset_cover(start, A, 4, max_space=_scaled(COVER_SPACE_CAP, cfg.budget))
            rows.append(_row(cfg, info, "cover-arity", cover.covered_at or 0))
        except BudgetExceeded as err:
            rows.append(_skipped(cfg, info, "cover-arity", err))
        ectx = data.eigen_ctx
        stream = _stream(cfg, p, u)
        xi0 = ectx.from_index(stream.unit_nonzero(ectx.q))
        xi1 = ectx.from_index(stream.unit_nonzero(ectx.q))
        xi2 = ectx.from_index(stream.below(ectx.q))
        try:
            product = count_product_eq(xi0, (xi1, xi2), data.eigenvalues,
                                       max_tau=_scaled(PRODUCT_EQ_CAP, cfg.budget))
            rows.append(_row(cfg, info, "product-eq-count", product.value,
                             "product-decay", tau / product.parameters["L"]**0.5))
        except BudgetExceeded as err:
            rows.append(_skipped(cfg, info, "product-eq-count", err))
    return rows


def _catmap_rows(cfg, desc):
    (N,) = desc
    cat = CatMatrix(CAT_A11, CAT_A12, CAT_A21, CAT_A22)
    tau = matrix_order(cat.mod_matrix(N))
    info = _ctxinfo(N, N, n=2, trace=cat.trace, tau=tau)
    try:
        propagator = cat_unitary(N, cat)
    except SingularLowerLeft as err:
        return [_skipped(cfg, info, "propagator", err)]
    unit_dev = float(np.linalg.norm(propagator @ propagator.conj().T - np.eye(N)))
    rows = [_checked(cfg, info, "unitary-deviation", unit_dev, "tolerance", 1e-9)]
    for vec in ((1, 0), (0, 1)):
        defect = egorov_defect(propagator, cat, vec)
        rows.append(_checked(cfg, info, f"egorov-{vec[0]}{vec[1]}", defect,
                             "tolerance", 1e-8))
    try:
        defect = delta_Nf(propagator, Observable(_CAT_MODES),
                          max_dim=_scaled(EIGEN_DIM_CAP, cfg.budget))
        rows.append(_row(cfg, info, "delta", defect, "ergodic-trend",
                         N ** (-1 / 60)))
    except BudgetExceeded as err:
        rows.append(_skipped(cfg, info, "delta", err))
    return rows


def _lemma81_rows(cfg, desc):
    (p,) = desc
    cat = CatMatrix(CAT_A11, CAT_A12, CAT_A21, CAT_A22)
    info = _ctxinfo(p, p, n=2, trace=cat.trace)
    try:
        reports = matrix_element_check(
            cat, p, (1, 0), cfg.nu, max_dim=_scaled(EIGEN_DIM_CAP, cfg.budget),
            max_tau={nu: _scaled(DEFAULT_TAU_CAP[nu], cfg.budget) for nu in cfg.nu})
    except (DependentVectors, DegenerateParameters, SingularLowerLeft,
            CompositeModulus) as err:
        return [_skipped(cfg, info, f"element-power-{nu}", err) for nu in cfg.nu]
    rows = []
    for nu, report in zip(cfg.nu, reports):
        quantity = f"element-power-{nu}"
        if isinstance(report, BudgetExceeded):
            rows.append(_skipped(cfg, info, quantity, report))
            continue
        checked_info = _ctxinfo(p, p, n=2, trace=cat.trace, tau=report.tau)
        rows.append(_row(cfg, checked_info, quantity, report.sup_power, "count-ceiling",
                         report.bound, "pass" if report.passed else "fail"))
    return rows


_GENERATORS = {
    "energy": _energy_rows,
    "q3": _q3_rows,
    "sums": _sums_rows,
    "kloosterman": _kloosterman_rows,
    "gauss": _gauss_rows,
    "curves": _curves_rows,
    "orbit": _orbit_rows,
    "catmap": _catmap_rows,
    "lemma81": _lemma81_rows,
}


def compute_instance(cfg: ExperimentConfig, desc) -> list:
    """All rows for one grid descriptor; pure and deterministic."""
    return _GENERATORS[cfg.experiment](cfg, desc)
