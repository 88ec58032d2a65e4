"""Harness: PRNG streams, config parsing, grids, CSV determinism, CLI."""

import json
import os
import re
from dataclasses import fields, replace
from functools import cache

import numpy as np
import pytest

from matpowlab import catmap, ffield, matgrp
from matpowlab.counting import count_product_eq, count_Q, orbit_sum_distribution, sumset_cover
from matpowlab.errors import BudgetExceeded, ConfigError, InvariantViolated
from matpowlab.ffield import FieldCtx, make_field
from matpowlab.harness import (
    EXPERIMENT_NAMES,
    ShiftRegister,
    build_instances,
    compute_instance,
    derive_stream,
    run_experiment,
)
from matpowlab.harness.cli import main
from matpowlab.harness.config import ExperimentConfig, build_config, load_config, parse_pairs
from matpowlab.harness import experiments, runner
from matpowlab.harness.runner import CSV_COLUMNS, record_to_csv
from matpowlab.matgrp import (
    VecEntity,
    char_poly_factor,
    matrix_order,
    sl2_companion,
)
from oracles import per_sample_sums_rows


def _cfg(**kw):
    pairs = {"experiment": "energy", "p_min": "5", "p_max": "11"}
    pairs.update({k: str(v) for k, v in kw.items()})
    return build_config(pairs)


def _all_rows(cfg):
    rows = []
    for desc in build_instances(cfg):
        rows.extend(compute_instance(cfg, desc))
    return rows


# ---- PRNG ---------------------------------------------------------------------------


def test_shift_register_reproducible():
    a = ShiftRegister(12345)
    b = ShiftRegister(12345)
    assert [a.next_word() for _ in range(50)] == [b.next_word() for _ in range(50)]


def test_shift_register_zero_seed_is_usable():
    gen = ShiftRegister(0)
    assert gen.state != 0
    words = {gen.next_word() for _ in range(100)}
    assert len(words) == 100


def test_derive_stream_tag_sensitivity():
    base = derive_stream(7, 1, 2, 3).next_word()
    assert derive_stream(7, 1, 2, 3).next_word() == base
    assert derive_stream(7, 1, 2, 4).next_word() != base
    assert derive_stream(7, 1, 3, 2).next_word() != base
    assert derive_stream(8, 1, 2, 3).next_word() != base


def test_draw_ranges():
    gen = ShiftRegister(99)
    assert all(0 <= gen.below(13) < 13 for _ in range(500))
    assert all(1 <= gen.unit_nonzero(13) < 13 for _ in range(500))
    with pytest.raises(ValueError):
        gen.below(0)
    with pytest.raises(ValueError):
        gen.unit_nonzero(1)


# ---- config -------------------------------------------------------------------------


def test_parse_pairs_comments_and_errors():
    pairs = parse_pairs("a = 1 # tail\n# full comment\n\nb=two\n")
    assert pairs == {"a": "1", "b": "two"}
    with pytest.raises(ConfigError):
        parse_pairs("just words\n")
    with pytest.raises(ConfigError):
        parse_pairs("key =\n")


def test_build_config_types_and_defaults():
    cfg = build_config({"experiment": "gauss", "nu": "2,3", "budget": "0.5"})
    assert cfg.experiment == "gauss"
    assert cfg.nu == (2, 3)
    assert cfg.budget == 0.5
    assert cfg.p_min == 5 and cfg.samples == 2 and cfg.workers == 1


def test_build_config_rejections():
    with pytest.raises(ConfigError):
        build_config({"experiment": "nope"})
    with pytest.raises(ConfigError):
        build_config({"experiment": "energy", "bogus": "1"})
    with pytest.raises(ConfigError):
        build_config({"experiment": "energy", "p_min": "x"})
    with pytest.raises(ConfigError):
        build_config({"experiment": "energy", "p_min": "11", "p_max": "7"})
    with pytest.raises(ConfigError):
        build_config({"experiment": "lemma81", "nu": "1,2"})
    with pytest.raises(ConfigError):
        build_config({"experiment": "energy", "moment": "3"})
    with pytest.raises(ConfigError):
        build_config({})


def test_build_config_accepts_every_field_and_rejects_others():
    texts = {"experiment": "lemma81", "p_min": "7", "p_max": "11", "class_filter": "split",
             "tau_min": "2", "tau_max": "9", "nu": "2", "moment": "4", "samples": "3",
             "s_min": "2", "s_max": "4", "seed": "9", "out": "elsewhere", "workers": "2",
             "budget": "0.25"}
    typed = ExperimentConfig(experiment="lemma81", p_min=7, p_max=11, class_filter="split",
                             tau_min=2, tau_max=9, nu=(2,), moment=4, samples=3, s_min=2,
                             s_max=4, seed=9, out="elsewhere", workers=2, budget=0.25)
    assert set(texts) == {field.name for field in fields(ExperimentConfig)}
    for key, text in texts.items():
        cfg = build_config({"experiment": "lemma81", key: text})
        assert getattr(cfg, key) == getattr(typed, key)
    assert build_config(texts) == typed
    for key in ("tau_max", "workers"):
        with pytest.raises(ConfigError, match=f"{key} must be an integer"):
            build_config({"experiment": "energy", key: "2.5"})
    with pytest.raises(ConfigError, match="unknown key 'bogus'"):
        build_config({"experiment": "energy", "bogus": "1"})


@pytest.mark.parametrize("budget", ["nan", "inf", "-inf"])
def test_build_config_rejects_a_non_finite_budget(budget):
    # a nan or infinite budget cannot scale a cap; it is a config error, not
    # a ValueError or OverflowError out of the first capped call
    with pytest.raises(ConfigError, match="budget"):
        build_config({"experiment": "energy", "budget": budget})


@pytest.mark.parametrize("key, text, message", [
    ("class_filter", "some", "class_filter must be one of"),
    ("tau_min", "0", "tau_min must be positive"),
    ("tau_max", "0", "tau_max must not undercut tau_min"),
    ("nu", "2,4", "nu entries must be in 1..3"),
    ("nu", "2,x", "nu must be comma-separated integers"),
    ("samples", "0", "samples must be positive"),
    ("s_min", "0", "need 1 <= s_min <= s_max"),
    ("s_max", "0", "need 1 <= s_min <= s_max"),
    ("seed", "-1", "seed must be nonnegative"),
    ("workers", "0", "workers must be positive"),
    ("budget", "lots", "budget must be a number"),
    ("p_max", "1000003", "p_max must not exceed the field limit 1000000"),
])
def test_build_config_names_each_rejected_value(key, text, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        build_config({"experiment": "energy", key: text})


def test_overrides_supply_experiment():
    cfg = build_config({"p_max": "7"}, {"experiment": "orbit", "workers": 2})
    assert cfg.experiment == "orbit" and cfg.workers == 2 and cfg.p_max == 7


def test_load_config_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


# ---- instance grids -----------------------------------------------------------------


def _traces(rows):
    return sorted({(rec.p, rec.trace) for rec in rows})


def test_trace_grid_partition():
    for p in (5, 7, 11, 13):
        rows = {f: _all_rows(_cfg(p_min=p, p_max=p, class_filter=f))
                for f in ("all", "split", "irreducible")}
        traces = {f: _traces(rows[f]) for f in rows}
        assert len(traces["all"]) == p - 2  # u = 2 and u = -2 are the repeated-root traces
        assert sorted(traces["split"] + traces["irreducible"]) == traces["all"]
        ctx = make_field(p)
        for tag in ("split", "irreducible"):
            for rec in rows[tag]:
                assert rec.class_tag == tag
                assert char_poly_factor(sl2_companion(ctx, rec.trace)).tag == tag


def test_grid_respects_class_filter():
    for name in ("energy", "q3", "sums", "orbit"):
        full = _all_rows(_cfg(experiment=name))
        split = _all_rows(_cfg(experiment=name, class_filter="split"))
        irred = _all_rows(_cfg(experiment=name, class_filter="irreducible"))
        assert sorted(_traces(split) + _traces(irred)) == _traces(full)
        assert sorted(split + irred, key=lambda rec: (rec.p, rec.trace)) == full
        ctx = {p: make_field(p) for p in (5, 7, 11)}
        for rec in full:
            assert rec.class_tag == char_poly_factor(sl2_companion(ctx[rec.p], rec.trace)).tag


def test_tau_window_drops_instances():
    narrow = _cfg(tau_min="100", tau_max="101")
    assert _all_rows(narrow) == []


def _computed_values(experiment, quantities):
    """{(quantity, p, class, tau): {(trace, value) of each computed row}} of an
    experiment at p 5-61."""
    groups = {}
    for rec in _all_rows(_cfg(experiment=experiment, p_max=61)):
        if rec.quantity in quantities and rec.status != "skipped":
            groups.setdefault((rec.quantity, rec.p, rec.class_tag, rec.tau), set()).add(
                (rec.trace, rec.value_re))
    return groups


def test_trace_grid_counts_depend_only_on_class_and_order():
    # The powers of A_u lie in F_p[A_u], which is F_p x F_p (split) or F_{p^2}
    # (irreducible); the orbit is the order-tau subgroup of that torus up to an
    # F_p-linear bijection, and additive counts are invariant under one.  Each
    # trace's counts come straight from the kernels, not from harness rows.
    counts = {
        "energy2": lambda start, A: count_Q(A, 2).value,
        "orbit-count-6term": lambda start, A: count_Q(A, 3).value,
        "distinct-sums-2": lambda start, A: len(orbit_sum_distribution(start, A, 2).rows),
        "cover-arity": lambda start, A: sumset_cover(start, A, 4).covered_at or 0,
    }
    groups = {}
    for (p,) in build_instances(_cfg(p_max=61)):
        ctx = make_field(p)
        start = VecEntity((ctx.one, ctx.zero), "row")
        for u in range(p):
            A = sl2_companion(ctx, u)
            tag = char_poly_factor(A).tag
            if tag == "repeated":
                continue
            for quantity, count in counts.items():
                groups.setdefault((quantity, p, tag, matrix_order(A)), []).append(
                    count(start, A))
    for key, values in groups.items():
        assert len(set(values)) == 1, (key, values)
    assert sum(len(values) > 1 for values in groups.values()) > 100


# the counting kernel behind each quantity of the trace grids
_KERNELS = {"energy2": "torus_energy", "orbit-count-6term": "torus_energy",
            "distinct-sums-2": "residue_sum_distribution",
            "cover-arity": "residue_sumset_cover", "product-eq-count": "residue_product_eqs"}


@cache
def _table(p):
    return matgrp.sl2_table(make_field(p))


def _torus_key(args):
    """The (p, class, tau) of a per-class kernel call: torus_energy names its key;
    the rows of a residue_* core must be exactly the table torus of one key, and
    for residue_product_eqs the powers of its first base over the field F_p
    (split) or F_{p^2} (irreducible) it counts in."""
    if isinstance(args[0], matgrp.SL2Table):
        table, tag, tau = args[:3]
        return table.ctx.p, tag, tau
    if len(args) > 3 and isinstance(args[3], FieldCtx):
        powers, field = args[0], args[3]
        tag, tau = ("split", "irreducible")[field.degree - 1], len(powers)
        assert np.array_equal(powers[:, 0], _table(field.p).torus(tag, tau)[:, :field.degree])
        return field.p, tag, tau
    rows, p = args[:2]
    tori = _table(p).tori
    [tag] = [tag for tag in tori if len(tori[tag]) % len(rows) == 0
             and np.array_equal(_table(p).torus(tag, len(rows)), rows)]
    return p, tag, len(rows)


def _spy_kernels(monkeypatch):
    """Wrap the trace grids' counting kernels; each call appends the (p, class,
    tau) of its torus rows and the estimated work of the cap that skipped it
    (None if it ran) to calls[kernel]."""
    calls = {name: [] for name in _KERNELS.values()}

    def spy(name):
        kernel = getattr(experiments, name)

        def counted(*args, **kwargs):
            key = _torus_key(args)
            try:
                result = kernel(*args, **kwargs)
            except BudgetExceeded as err:
                calls[name].append((key, err.estimated_work))
                raise
            calls[name].append((key, None))
            return result

        return counted

    for name in calls:
        monkeypatch.setattr(experiments, name, spy(name))
    return calls


@pytest.mark.parametrize("experiment", ["energy", "q3", "orbit"])
def test_trace_grid_counts_once_per_class_and_order(experiment, monkeypatch):
    calls = _spy_kernels(monkeypatch)
    rows = _all_rows(_cfg(experiment=experiment, p_max=61))
    traces = {(rec.p, rec.trace) for rec in rows}
    classes = {(rec.p, rec.class_tag, rec.tau) for rec in rows}
    assert len(classes) < len(traces)
    for quantity in {rec.quantity for rec in rows}:
        keys = [key for key, _ in calls[_KERNELS[quantity]]]
        assert sorted(keys) == sorted(classes), quantity


@pytest.mark.parametrize("budget", [1, 1e-9])
@pytest.mark.parametrize("experiment", ["energy", "q3", "orbit", "sums"])
def test_trace_experiments_build_no_matrix(experiment, budget, monkeypatch):
    # the trace table holds arrays, and the per-class kernels count on its
    # torus rows: no experiment on the trace grid builds a companion or any
    # other matrix, even when a key is capped and counted again on each trace
    built = []
    real = matgrp.MatEntity.__init__

    def spy(self, rows):
        built.append(rows)
        real(self, rows)

    monkeypatch.setattr(matgrp.MatEntity, "__init__", spy)
    rows = _all_rows(_cfg(experiment=experiment, p_max=61, budget=budget))
    assert len({(rec.p, rec.class_tag, rec.tau) for rec in rows}) > 100
    assert not built


def test_orbit_product_equations_are_the_eigenvalue_counts(monkeypatch):
    # an orbit instance finds no order by mult_order and builds no field
    # element per trace; each trace's row is count_product_eq of its own xi
    # draws and the eigenvalues of A_u, with its bound tau / sqrt(L), L = tau
    found, built = [], []
    real_order, real_elem = matgrp.mult_order, ffield.FFElem.__init__
    monkeypatch.setattr(matgrp, "mult_order", lambda x: found.append(x) or real_order(x))

    def spy(self, *args):
        built.append(args)
        real_elem(self, *args)

    # the elements an instance builds do not depend on how many traces it counts
    monkeypatch.setattr(ffield.FFElem, "__init__", spy)
    made = []
    for class_filter in ("split", "all"):
        built.clear()
        cfg = _cfg(experiment="orbit", p_max=61, class_filter=class_filter)
        rows = [rec for rec in _all_rows(cfg) if rec.quantity == "product-eq-count"]
        made.append(len(built))
    monkeypatch.undo()
    assert not found and made[0] == made[1]
    assert len(rows) > len([rec for rec in rows if rec.class_tag == "split"]) > 100
    for rec in rows:
        ctx = make_field(rec.p)
        lambdas = char_poly_factor(sl2_companion(ctx, rec.trace)).eigenvalues
        field = lambdas[0].ctx
        stream = experiments._stream(cfg, rec.p, rec.trace)
        xi0 = field.from_index(stream.unit_nonzero(field.q))
        xis = (field.from_index(stream.unit_nonzero(field.q)),
               field.from_index(stream.below(field.q)))
        result = count_product_eq(xi0, xis, lambdas)
        assert (rec.abs_value, rec.bound_value) == (
            result.value, rec.tau / result.parameters["L"] ** 0.5), rec


@pytest.mark.parametrize("experiment", ["energy", "q3", "orbit"])
def test_a_capped_class_skips_again_on_each_trace(experiment, monkeypatch):
    # no error is kept: each trace calls its kernel, which raises its cap before
    # any work, and writes its own skipped row with that call's estimated work
    calls = _spy_kernels(monkeypatch)
    rows = _all_rows(_cfg(experiment=experiment, p_max=61, budget=1e-9))
    traces = [(rec.p, rec.trace) for rec in rows if rec.quantity == rows[0].quantity]
    assert len(traces) > 100
    for quantity in {rec.quantity for rec in rows}:
        recs = [rec for rec in rows if rec.quantity == quantity]
        assert [(rec.p, rec.trace) for rec in recs] == traces
        assert all(rec.status == "skipped" and rec.bound_name == "budget" for rec in recs)
        assert [rec.bound_value for rec in recs] == [
            float(work) for _, work in calls[_KERNELS[quantity]]], quantity


def test_subgroup_sixth_moments_are_p_squared_times_the_q3_count():
    # The paper's bridge: the sixth moment of the Kloosterman (Gauss) sums over
    # a subgroup of order m is p^2 times the 6-term count of a split
    # (irreducible) companion of order m. Subgroups with no such companion,
    # such as m = 2, are not compared.
    q3 = {(p, tag, tau): min(rows)[1] for (_, p, tag, tau), rows
          in _computed_values("q3", ("orbit-count-6term",)).items()}
    for family, tag in (("kloosterman", "split"), ("gauss", "irreducible")):
        compared = 0
        for (_, p, _, m), rows in _computed_values(family, ("moment6",)).items():
            if (p, tag, m) in q3:
                compared += 1
                [(_, moment)] = rows
                assert moment == pytest.approx(p * p * q3[p, tag, m], rel=1e-9), (p, m)
        assert compared > 50, family


# ---- row invariants -----------------------------------------------------------------


def test_rows_internally_consistent():
    for name in EXPERIMENT_NAMES:
        cfg = build_config({"experiment": name, "p_min": "5", "p_max": "11",
                            "samples": "1"})
        rows = _all_rows(cfg)
        assert rows, name
        for rec in rows:
            assert rec.status in ("pass", "fail", "report", "skipped")
            assert rec.experiment == name
            if rec.ratio is not None:
                assert rec.ratio == pytest.approx(
                    rec.abs_value / rec.bound_value, abs=1e-9)
            if rec.status == "pass":
                assert rec.ratio <= 1 + 1e-6
            if rec.status == "skipped":
                assert rec.value_re is None and rec.ratio is None


def test_budget_shrinks_to_skipped_rows():
    rows = _all_rows(build_config({"experiment": "q3", "p_min": "5",
                                   "p_max": "13", "budget": "0.01"}))
    statuses = {rec.status for rec in rows}
    assert "skipped" in statuses
    for rec in rows:
        if rec.status == "skipped":
            assert rec.bound_name == "budget" and rec.bound_value > 0


def test_tiny_budget_skips_the_full_gauss_sum():
    # the m = 0 row walks all q - 1 units of F_{p^2}; past the scaled cap it is
    # a skipped row carrying that work, not an exception that ends the run
    rows = _all_rows(build_config({"experiment": "gauss", "p_min": "5",
                                   "p_max": "13", "budget": "1e-5"}))
    full = [rec for rec in rows if rec.quantity == "gauss-full-deviation"]
    assert [rec.p for rec in full] == [5, 7, 11, 13]
    for rec in full:
        assert rec.status == "skipped" and rec.bound_name == "budget"
        assert rec.bound_value == rec.q - 1


@pytest.mark.parametrize("experiment, long_orders",
                         [("gauss", {12, 14}), ("kloosterman", {12})])
def test_tiny_budget_skips_the_long_subgroup_walks(experiment, long_orders):
    # budget 1e-5 scales SUM_TAU_CAP to 10: each walk over a subgroup of order
    # above 10 is one skipped row carrying that order, the others are computed,
    # and every subgroup still gets its j = 0 moment row under its own cap
    rows = _all_rows(build_config({"experiment": experiment, "p_min": "5",
                                   "p_max": "13", "budget": "1e-5"}))
    walks = [rec for rec in rows if re.fullmatch(experiment + r"-\d+", rec.quantity)]
    long_walks = [rec for rec in walks if rec.tau > 10]
    assert {rec.tau for rec in long_walks} == long_orders
    for rec in long_walks:
        assert rec.status == "skipped" and rec.bound_name == "budget"
        assert rec.bound_value == rec.tau
    assert all(rec.status != "skipped" for rec in walks if rec.tau <= 10)
    moments = [(rec.p, rec.tau) for rec in rows if rec.quantity.startswith("moment")]
    assert sorted(moments) == sorted({(rec.p, rec.tau) for rec in walks})


def test_tiny_budget_runs_every_experiment_and_skips_the_orbit_rows():
    # budget 1e-5 scales COVER_SPACE_CAP to 100 < p^2 for p >= 11 and
    # PRODUCT_EQ_CAP to 1, below every lcm period (tau here); no experiment may raise
    rows = {name: _all_rows(build_config({"experiment": name, "p_min": "5",
                                          "p_max": "13", "budget": "1e-5"}))
            for name in EXPERIMENT_NAMES}
    assert all(rows.values())
    orbit = rows["orbit"]
    covers = [rec for rec in orbit if rec.quantity == "cover-arity"]
    assert {rec.status == "skipped" for rec in covers if rec.p >= 11} == {True}
    assert all(rec.status != "skipped" for rec in covers if rec.p < 11)
    products = [rec for rec in orbit if rec.quantity == "product-eq-count"]
    assert products and all(rec.status == "skipped" for rec in products)
    for rec in products:
        assert rec.bound_name == "budget" and rec.bound_value == rec.tau  # lcm period
    # EIGEN_DIM_CAP and the tau caps of count_Q all scale to 1, so no catmap
    # delta row and no lemma81 row is computed
    capped = [rec for rec in rows["catmap"] if rec.quantity == "delta"] + rows["lemma81"]
    assert len(capped) == 4 + 8
    for rec in capped:
        assert rec.status == "skipped" and rec.bound_name == "budget"
        assert rec.bound_value > 0


def test_every_experiment_runs_at_p3_and_skipped_rows_name_their_cause():
    # at p = 3 the cat map's lower-left entry 3 vanishes and its reduction is
    # not diagonalizable: those rows are skipped for that reason, not the budget
    for name in EXPERIMENT_NAMES:
        rows = _all_rows(build_config({"experiment": name, "p_min": "3", "p_max": "3"}))
        assert rows and {rec.p for rec in rows} == {3}, name
        causes = {(rec.quantity, rec.bound_name, rec.bound_value)
                  for rec in rows if rec.status == "skipped"}
        if name == "catmap":
            assert causes == {("propagator", "SingularLowerLeft", None)}
        elif name == "lemma81":
            assert causes == {(f"element-power-{nu}", "DegenerateParameters", None)
                              for nu in (2, 3)}
        else:
            assert causes == set(), name
        tiny = _all_rows(build_config({"experiment": name, "p_min": "3", "p_max": "3",
                                       "budget": "1e-9"}))
        assert tiny and all(rec.status == "skipped" for rec in tiny), name
        for rec in tiny:
            if rec.bound_name == "budget":
                assert rec.bound_value > 0
            else:
                assert (rec.quantity, rec.bound_name, rec.bound_value) in causes


@pytest.mark.parametrize("experiment, kernel", [("energy", "torus_energy"),
                                                ("q3", "torus_energy"),
                                                ("orbit", "residue_sum_distribution"),
                                                ("orbit", "residue_sumset_cover"),
                                                ("sums", "walk_sums"),
                                                ("kloosterman", "matrix_exp_sums")])
def test_a_failed_invariant_raises_and_writes_no_skipped_row(experiment, kernel, tmp_path,
                                                             monkeypatch):
    # the skip guard catches a cap hit and the preconditions a call site names,
    # never a failed invariant: that must stop the run, not become a skipped row
    def broken(*args, **kwargs):
        raise InvariantViolated("forged")

    monkeypatch.setattr(experiments, kernel, broken)
    cfg = _cfg(experiment=experiment, p_min=7, p_max=7, out=tmp_path)
    desc = build_instances(cfg)[0]
    with pytest.raises(InvariantViolated):
        compute_instance(cfg, desc)
    with pytest.raises(InvariantViolated):
        run_experiment(cfg)
    assert not os.listdir(tmp_path)


def test_curves_past_the_old_grid_cap_are_computed():
    # extension rows at p = 101 have p^4 > 10^8 plane cells but p + 2 image points
    rows = _all_rows(build_config({"experiment": "curves", "p_min": "101",
                                   "p_max": "101"}))
    assert any(rec.quantity.startswith("point-count-ext") for rec in rows)
    assert all(rec.status != "skipped" for rec in rows)


def test_lemma81_ceiling_breach_is_a_fail_row(monkeypatch):
    import matpowlab.catmap as catmap_mod

    monkeypatch.setattr(catmap_mod, "_numerical_radius", lambda comp: 2.0)
    rows = _all_rows(build_config({"experiment": "lemma81", "p_min": "11",
                                   "p_max": "11"}))
    assert len(rows) == 2
    for rec in rows:
        assert rec.status == "fail" and rec.bound_name == "count-ceiling"
        assert rec.ratio > 1


def test_lemma81_instance_is_one_modulus(tmp_path):
    cfg = build_config({"experiment": "lemma81", "p_min": "5", "p_max": "23"})
    assert build_instances(cfg) == [(p,) for p in (5, 7, 11, 13, 17, 19, 23)]
    full = _all_rows(build_config({"experiment": "lemma81", "p_min": "11", "p_max": "11"}))
    assert [rec.quantity for rec in full] == ["element-power-2", "element-power-3"]
    # tau = 10 at p = 11; budget 0.024 scales the nu caps to 72 and 9 and the
    # dimension cap to 12.
    mixed = _all_rows(build_config({"experiment": "lemma81", "p_min": "11",
                                    "p_max": "11", "budget": "0.024"}))
    assert mixed[0] == full[0]
    assert mixed[1].quantity == "element-power-3" and mixed[1].status == "skipped"
    assert mixed[1].bound_value == 10**3
    # tau = 5 at p = 19; budget 0.02 leaves both nu caps above 5 and the dimension
    # cap at 10.
    capped = _all_rows(build_config({"experiment": "lemma81", "p_min": "19",
                                     "p_max": "19", "budget": "0.02", "nu": "3,2"}))
    assert [rec.quantity for rec in capped] == ["element-power-3", "element-power-2"]
    assert all(rec.status == "skipped" and rec.bound_value == 19**3 for rec in capped)
    outputs = []
    for workers in (1, 3):
        out = str(tmp_path / f"w{workers}")
        run_experiment(build_config({"experiment": "lemma81", "p_min": "5", "p_max": "23",
                                     "budget": "0.024", "workers": str(workers),
                                     "out": out}))
        with open(os.path.join(out, "lemma81.csv"), "rb") as fh:
            outputs.append(fh.read())
    assert outputs[0] == outputs[1]
    assert b"skipped" in outputs[0] and b"pass" in outputs[0]


def test_an_undecided_lemma81_verdict_is_a_named_skip(monkeypatch):
    cfg = build_config({"experiment": "lemma81", "p_min": "13", "p_max": "13", "nu": "3"})
    (full,) = _all_rows(cfg)
    # a grid radius just below the ceiling whose bracket reaches above it
    monkeypatch.setattr(catmap, "_element_sup",
                        lambda U, a, budget: full.bound_value ** (1 / 6) * (1 - 1e-7))
    (row,) = _all_rows(cfg)
    assert (row.status, row.bound_name, row.tau) == ("skipped", "UndecidedVerdict", None)
    assert (row.quantity, row.p) == (full.quantity, full.p)


@pytest.mark.parametrize("experiment", ["energy", "q3", "orbit", "curves", "sums"])
def test_companion_and_curve_instances_are_one_prime(tmp_path, experiment):
    # one instance per prime, whatever the traces, samples and exponents; the
    # rows keep their per-row streams, so workers split primes without moving a
    # byte, with every row computed (budget 1) and with some skipped (1e-5)
    cfg = build_config({"experiment": experiment, "p_min": "5", "p_max": "23",
                        "samples": "3"})
    primes = (5, 7, 11, 13, 17, 19, 23)
    assert build_instances(cfg) == [(p,) for p in primes]
    for budget in (1.0, 1e-5):
        outputs = {}
        for workers in (1, 3):
            out = str(tmp_path / f"b{budget}-w{workers}")
            run_experiment(replace(cfg, budget=budget, workers=workers, out=out))
            outputs[workers] = []
            for name in (f"{experiment}.csv", f"{experiment}.summary.json"):
                with open(os.path.join(out, name), "rb") as fh:
                    outputs[workers].append(fh.read())
        assert outputs[1] == outputs[3]
        lines = outputs[1][0].decode().splitlines()[1:]
        assert sorted({int(line.split(",")[1]) for line in lines}) == list(primes)


def test_sums_instance_is_one_prime():
    # every trace and sample of a prime is one stacked walk; budget 1e-5 scales
    # SUM_TAU_CAP to 10: at p = 13 the traces of period 12 and 14 are skipped
    # rows carrying that period, the shorter ones computed
    rows = _all_rows(build_config({"experiment": "sums", "p_min": "13", "p_max": "13",
                                   "budget": "1e-5"}))
    assert [(rec.trace, rec.quantity) for rec in rows] == sorted(
        (rec.trace, rec.quantity) for rec in rows)
    skipped = [rec for rec in rows if rec.status == "skipped"]
    assert {rec.tau for rec in skipped} == {12, 14}
    assert all(rec.bound_value == rec.tau for rec in skipped)
    # the computed rows are those of the full budget, bounds and all
    full = _all_rows(build_config({"experiment": "sums", "p_min": "13", "p_max": "13"}))
    computed = [rec for rec in full if rec.tau <= 10]
    assert computed and [rec for rec in rows if rec.status != "skipped"] == computed


def test_sums_analyse_only_the_computed_entries(monkeypatch):
    # only a computed sum is set against its bounds, so only its a and b get a
    # Krylov check and only its trace a bound menu; at p = 13 and budget 1e-5
    # the periods 12 and 14 are skipped
    analysed, menus = [], []
    krylov, menu = experiments.krylov_independent, experiments.bound_menu

    def krylov_spy(starts, maps, ctx):
        analysed.extend(int(u) for u in maps[:, 1, 1])
        return krylov(starts, maps, ctx)

    def menu_spy(h):
        menus.append(h.tau)
        return menu(h)

    monkeypatch.setattr(experiments, "krylov_independent", krylov_spy)
    monkeypatch.setattr(experiments, "bound_menu", menu_spy)
    rows = _all_rows(build_config({"experiment": "sums", "p_min": "13", "p_max": "13",
                                   "budget": "1e-5"}))
    computed = {(rec.trace, rec.quantity) for rec in rows if rec.status != "skipped"}
    assert len(analysed) == 2 * len(computed) < 2 * len({(rec.trace, rec.quantity)
                                                         for rec in rows})
    ctx = make_field(13)
    # the row and column maps of A_u both carry u at [1, 1]
    assert sorted(analysed) == sorted(2 * [trace for trace, _ in computed])
    assert all(matrix_order(sl2_companion(ctx, u)) <= 10 for u in analysed)
    assert menus and all(tau <= 10 for tau in menus)


@pytest.mark.parametrize("pairs", [
    {"p_min": "5", "p_max": "61", "budget": budget, "seed": seed}
    for budget in ("1", "1e-5") for seed in ("1", "2")] + [
    {"p_min": "3", "p_max": "13", "budget": "1e-9"},
    {"p_min": "5", "p_max": "37", "class_filter": "split"},
    {"p_min": "5", "p_max": "37", "class_filter": "irreducible"},
    {"p_min": "5", "p_max": "61", "tau_min": "6", "tau_max": "20"},
    # no trace of p 5-11 has an order of 13 or more: those primes write no row
    {"p_min": "5", "p_max": "13", "tau_min": "13"},
], ids=lambda pairs: "-".join(f"{key}={value}" for key, value in pairs.items()))
def test_sums_rows_equal_the_per_sample_oracle(pairs):
    # the sums grid on residue arrays writes the rows that one matrix_exp_sum,
    # analyze_instance and evaluate_bounds per sample write, value for value
    cfg = build_config({"experiment": "sums", **pairs})
    got = [tuple(rec) for rec in _all_rows(cfg)]
    want = [row for (p,) in build_instances(cfg) for row in per_sample_sums_rows(cfg, p)]
    assert got == want
    assert {row[-2] for row in got} >= ({"skipped"} if cfg.budget < 1 else {"pass", "report"})


@pytest.mark.parametrize("experiment, orders, long_order", [
    ("kloosterman", [2, 3, 4, 6, 12], 12),
    ("gauss", [0, 2, 7, 14], 14),
])
def test_subgroup_instance_is_one_subgroup(tmp_path, experiment, orders, long_order):
    # one instance per subgroup (gauss adds m = 0, its full-group row), however
    # many samples; the samples of a subgroup are one stacked walk
    cfg = build_config({"experiment": experiment, "p_min": "13", "p_max": "13",
                        "samples": "3"})
    assert build_instances(cfg) == [(13, m) for m in orders]
    # budget 1e-5 scales SUM_TAU_CAP to 10: each sample of the largest subgroup
    # is a skipped row carrying its order, its moment row still follows the
    # j = 0 row, and every other row is the one computed at full budget
    full = _all_rows(cfg)
    rows = _all_rows(build_config({"experiment": experiment, "p_min": "13",
                                   "p_max": "13", "samples": "3", "budget": "1e-5"}))
    walked = [rec for rec in rows if rec.tau == long_order]
    assert [rec.quantity for rec in walked] == [
        f"{experiment}-0", "moment6", f"{experiment}-1", f"{experiment}-2"]
    for rec in walked[:1] + walked[2:]:
        assert (rec.status, rec.bound_name, rec.bound_value) == ("skipped", "budget", long_order)
    assert walked[1] == next(rec for rec in full
                             if rec.tau == long_order and rec.quantity == "moment6")
    short = [rec for rec in rows if rec.tau <= 10]
    assert short and short == [rec for rec in full if rec.tau <= 10]
    assert all(rec.status != "skipped" for rec in short)
    outputs = {}
    for workers in (1, 3):
        out = str(tmp_path / f"w{workers}")
        run_experiment(build_config({"experiment": experiment, "p_min": "5", "p_max": "23",
                                     "budget": "1e-5", "workers": str(workers),
                                     "out": out}))
        outputs[workers] = []
        for name in (f"{experiment}.csv", f"{experiment}.summary.json"):
            with open(os.path.join(out, name), "rb") as fh:
                outputs[workers].append(fh.read())
    assert outputs[1] == outputs[3]
    assert b"skipped" in outputs[1][0] and b"pass" in outputs[1][0]


def test_one_instance_runs_without_a_worker_pool(tmp_path, monkeypatch):
    # a one-prime sums window is one instance: workers = 3 must not start a pool
    def sums_csv(workers):
        out = str(tmp_path / f"w{workers}")
        run_experiment(build_config({"experiment": "sums", "p_min": "11", "p_max": "11",
                                     "workers": workers, "out": out}))
        with open(os.path.join(out, "sums.csv"), "rb") as fh:
            return fh.read()

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started for one instance")

    serial = sums_csv("1")
    monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
    assert sums_csv("3") == serial


def test_csv_formatting():
    rows = _all_rows(_cfg(p_max="5"))
    line = record_to_csv(rows[0])
    cells = line.split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[0] == "energy" and cells[-1] == "0"
    skipped = [r for r in _all_rows(build_config(
        {"experiment": "q3", "p_min": "13", "p_max": "13", "budget": "0.01"}))
        if r.status == "skipped"]
    assert "" in record_to_csv(skipped[0]).split(",")
    # each cell type formats as _fmt formats it: exact types take a fast path,
    # numpy scalars fall back to _fmt
    cells = [(None, ""), (7, "7"), (np.int64(7), "7"), (0.1, "0.1"),
             (np.float64(0.1), "0.1"), (0.0, "0"), (-0.0, "-0"), (float("inf"), "inf"),
             (1 / 3, "0.333333333333")]
    for value, text in cells:
        assert runner._fmt(value) == text
        rec = rows[0]._replace(value_re=value, bound_value=value, status=value)
        line = record_to_csv(rec).split(",")
        assert line == [runner._fmt(cell) for cell in rec]
        assert line[9] == line[13] == line[15] == text


# ---- runner determinism -------------------------------------------------------------


def _run_bytes(tmp_path, tag, **kw):
    out = str(tmp_path / tag)
    pairs = {"experiment": "kloosterman", "p_min": "5", "p_max": "11",
             "out": out}
    pairs.update({k: str(v) for k, v in kw.items()})
    code = run_experiment(build_config(pairs))
    with open(os.path.join(out, "kloosterman.csv"), "rb") as fh:
        csv = fh.read()
    with open(os.path.join(out, "kloosterman.summary.json"), "rb") as fh:
        summary = fh.read()
    return code, csv, summary


def test_reruns_are_byte_identical(tmp_path):
    code1, csv1, sum1 = _run_bytes(tmp_path, "a")
    code2, csv2, sum2 = _run_bytes(tmp_path, "b")
    assert code1 == code2 == 0
    assert csv1 == csv2
    assert sum1 == sum2


def test_worker_count_does_not_change_output(tmp_path):
    _, csv1, sum1 = _run_bytes(tmp_path, "serial", workers=1)
    _, csv2, sum2 = _run_bytes(tmp_path, "pool", workers=3)
    assert csv1 == csv2
    assert sum1 == sum2


def test_seed_changes_sampled_rows(tmp_path):
    _, csv1, _ = _run_bytes(tmp_path, "s1", seed=1)
    _, csv2, _ = _run_bytes(tmp_path, "s2", seed=2)
    assert csv1 != csv2


def test_summary_shape(tmp_path):
    out = str(tmp_path / "sum")
    cfg = build_config({"experiment": "energy", "p_min": "5", "p_max": "13",
                        "out": out})
    assert run_experiment(cfg) == 0
    with open(os.path.join(out, "energy.summary.json")) as fh:
        summary = json.load(fh)
    assert summary["experiment"] == "energy"
    assert summary["exit_status"] == 0
    assert summary["failures"] == []
    assert summary["statuses"]["pass"] > 0
    diag = summary["bounds"]["diag-energy"]
    assert diag["rows"] > 0
    assert 0 < diag["ratio_min"] <= diag["ratio_mean"] <= diag["ratio_max"]


def test_summary_records_the_config_that_shapes_its_rows(tmp_path):
    summaries = {}
    for budget in ("1", "1e-5"):
        out = str(tmp_path / budget)
        run_experiment(build_config({"experiment": "energy", "p_min": "5", "p_max": "13",
                                     "budget": budget, "out": out}))
        with open(os.path.join(out, "energy.summary.json")) as fh:
            summaries[budget] = json.load(fh)
    keys = {field.name for field in fields(ExperimentConfig)} - {"out", "workers"}
    for budget, summary in summaries.items():
        assert keys <= set(summary) and not {"out", "workers"} & set(summary)
        assert summary["budget"] == float(budget) and summary["nu"] == [2, 3]
    assert summaries["1"]["statuses"] != summaries["1e-5"]["statuses"]


@pytest.mark.parametrize("experiment", ["kloosterman", "gauss"])
def test_subgroups_outside_the_tau_window_give_no_rows(experiment):
    # a moment other than the sixth has no bound: its row is a report
    cfg = build_config({"experiment": experiment, "p_min": "5", "p_max": "13",
                        "tau_min": "3", "tau_max": "6", "moment": "4"})
    kept, dropped = set(), set()
    for p, m in build_instances(cfg):
        rows = compute_instance(cfg, (p, m))
        if m == 0:  # gauss's full group, of order q - 1 = p^2 - 1 > 6
            assert rows == []
        elif not 3 <= m <= 6:
            assert rows == []
            dropped.add(m)
        else:
            kept.add(m)
            moments = [rec for rec in rows if rec.quantity == "moment4"]
            assert [(rec.bound_name, rec.status) for rec in moments] == [("", "report")]
    # the orders m > 1 dividing p - 1 (kloosterman) or p + 1 (gauss), p = 5, 7, 11, 13
    assert kept == ({3, 4, 5, 6} if experiment == "kloosterman" else {3, 4, 6})
    assert dropped == ({2, 10, 12} if experiment == "kloosterman" else {2, 7, 8, 12, 14})


def test_full_group_rows_follow_the_tau_window():
    # the full groups, of order p^2 - 1 (gauss) and p - 1 (kloosterman), are
    # kept or dropped by the window as every other order is
    for experiment, full in (("gauss", lambda p: p * p - 1), ("kloosterman", lambda p: p - 1)):
        cfg = build_config({"experiment": experiment, "p_min": "5", "p_max": "13",
                            "tau_max": "10"})
        rows = _all_rows(cfg)
        assert rows and all(rec.tau <= 10 for rec in rows)
        assert {rec.p for rec in rows if rec.tau == full(rec.p)} == (
            set() if experiment == "gauss" else {5, 7, 11})
        assert all(rec.quantity != "gauss-full-deviation" for rec in rows)
    # the default window keeps the gauss full-group row of every prime
    rows = _all_rows(build_config({"experiment": "gauss", "p_min": "5", "p_max": "13"}))
    assert [rec.p for rec in rows if rec.quantity == "gauss-full-deviation"] == [5, 7, 11, 13]


def test_fail_rows_set_exit_one(tmp_path, monkeypatch):
    import matpowlab.harness.runner as runner_mod
    from matpowlab.harness.experiments import InstanceRecord

    def fake_compute(cfg, desc):
        return [InstanceRecord(
            experiment=cfg.experiment, p=5, q=5, n=1, trace=None, class_tag="",
            tau=2, t=None, quantity="forced", value_re=3.0, value_im=0.0,
            abs_value=3.0, bound_name="trivial", bound_value=2.0, ratio=1.5,
            status="fail")]

    monkeypatch.setattr(runner_mod, "compute_instance", fake_compute)
    out = str(tmp_path / "fail")
    cfg = build_config({"experiment": "energy", "p_min": "5", "p_max": "5",
                        "out": out})
    assert run_experiment(cfg) == 1
    with open(os.path.join(out, "energy.summary.json")) as fh:
        summary = json.load(fh)
    assert summary["exit_status"] == 1
    assert summary["failures"][0]["quantity"] == "forced"


def test_timings_flag_fills_seconds(tmp_path):
    out = str(tmp_path / "timed")
    cfg = build_config({"experiment": "catmap", "p_min": "5", "p_max": "7",
                        "out": out})
    assert run_experiment(cfg, timings=True) == 0
    with open(os.path.join(out, "catmap.csv")) as fh:
        lines = fh.read().splitlines()[1:]
    assert any(float(line.split(",")[-1]) > 0 for line in lines)


# ---- CLI ----------------------------------------------------------------------------


def test_cli_list_experiments(capsys):
    assert main(["--list-experiments"]) == 0
    assert capsys.readouterr().out.split() == list(EXPERIMENT_NAMES)


def test_cli_requires_experiment_and_config(capsys):
    assert main([]) == 2
    assert main(["energy"]) == 2
    assert "config" in capsys.readouterr().err


def test_cli_config_error_is_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("experiment = energy\nbogus = 1\n")
    assert main(["energy", "--config", str(path)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert main(["energy", "--config", str(tmp_path / "missing.cfg")]) == 2


def test_cli_p_window_above_the_field_limit_is_exit_two(tmp_path, capsys):
    # a prime past the field limit is refused before any field is built
    path = tmp_path / "wide.cfg"
    path.write_text("p_min = 1000003\np_max = 1000003\n")
    assert main(["sums", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "p_max must not exceed the field limit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_full_run_and_overrides(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("p_min = 5\np_max = 7\nsamples = 1\n")
    out = str(tmp_path / "cli-out")
    assert main(["gauss", "--config", str(path), "--out", out,
                 "--workers", "2", "--seed", "5"]) == 0
    assert os.path.exists(os.path.join(out, "gauss.csv"))
    assert os.path.exists(os.path.join(out, "gauss.summary.json"))
