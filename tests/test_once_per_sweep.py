"""Work done once per sweep, with every value unchanged bit for bit.

The strata of a box run in one sweep, and the integrals they compute seed
the verifier's rhs and jet sweeps; an integral call integrates each distinct
entry once; an exact sweep makes each C-library map once.  Each test checks
that the work is not repeated and that the results equal those of the
public, unshared walks.
"""
import math
import operator
import random
from collections import Counter

import numpy as np
import pytest

from lagrangeforge import (
    Add,
    Antideriv,
    BuilderOptions,
    Const,
    Cos,
    DomainBox,
    EvalDomainError,
    Lagrangian,
    Mul,
    Neg,
    OdeSpec,
    Pow,
    QuadratureError,
    Sin,
    SingularStratum,
    Sub,
    Var,
    ZeroCrossingError,
    eval_jet2,
    evaluate,
    evaluate_field,
    invariant_drift,
    jet_field,
    parse_expression,
    verify_lagrangian,
)
from lagrangeforge import evaluation
from lagrangeforge.constructors import common
from lagrangeforge.expressions import antideriv_depth
from lagrangeforge.lagrangian import EPS_REG, largest

from test_acceptance import BUILDER_DRAWS, MAX_REDRAWS
from test_fields import hexes

X, V = Var("x"), Var("v")

# an integral in t alone: its jet needs no other integral (its x and v
# derivatives vanish, its t derivative is the integrand)
GAUSS = Antideriv(parse_expression("exp(-(t^2))"), "t", 0.0)


@pytest.fixture
def integrals(monkeypatch):
    """The upper limits of each integrate_adaptive call, one entry per call."""
    calls = []
    real = evaluation.integrate_adaptive

    def spy(f, lo, hi):
        calls.append(np.array(hi, dtype=float))
        return real(f, lo, hi)

    monkeypatch.setattr(evaluation, "integrate_adaptive", spy)
    return calls


def _box(*strata):
    return DomainBox(x=(-1.0, 1.0), v=(0.5, 1.5), t=(0.0, 1.0), grid=(3, 3, 3),
                     n_random=6, seed=2, strata=strata)


# --- strata and the verifier share their integrals ---------------------------

def test_a_stratum_integral_is_integrated_once_per_verify(integrals):
    L = Lagrangian(Add(Mul(Const(0.5), Mul(V, V)), Mul(GAUSS, X)))
    ode = OdeSpec(GAUSS)
    # the stratum drops nothing: |GAUSS - 5| is at least 4 on the box
    stratum = SingularStratum(Sub(GAUSS, Const(5.0)), 1.0)
    box = _box(stratum)
    report = verify_lagrangian(L, ode, box)
    # one call, in the strata sweep: the rhs and the jet read its values
    # instead of integrating it twice more
    assert len(integrals) == 1
    assert report.samples_used == len(box.sample_columns()["x"])

    # two strata holding the integral, and the invariant drift: still once
    integrals.clear()
    twice = _box(stratum, SingularStratum(Add(GAUSS, Const(7.0)), 0.5))
    invariant_drift(Mul(GAUSS, V), ode, twice)
    assert len(integrals) == 1


def test_integrals_outside_the_strata_are_integrated_as_before(integrals):
    L = Lagrangian(Add(Mul(Const(0.5), Mul(V, V)), Mul(GAUSS, X)))
    verify_lagrangian(L, OdeSpec(GAUSS), _box())
    # no strata: the rhs sweep and the jet sweep each integrate
    assert len(integrals) == 2


def _build(draw, seed, tol):
    rng = random.Random(seed)
    options = BuilderOptions(verify=True, verify_tol=tol)
    for _ in range(MAX_REDRAWS + 1):
        try:
            return draw(rng, options)
        except ZeroCrossingError:
            continue
    raise AssertionError(f"no draw within {MAX_REDRAWS} redraws")


def _reference_report(L, ode, box, tol):
    """verify_lagrangian's report from the public, unshared walks."""
    state = box.sample_columns()
    rhs, bad = evaluate_field(ode.rhs, state)
    jet, bad = jet_field(L.expr, state, bad)
    with np.errstate(all="ignore"):
        accels = (jet.gx - jet.hxv * state["v"] - jet.hvt) / jet.hvv
        residual = abs(accels - rhs) / (1.0 + abs(rhs))
    good = ~bad
    regularity = np.abs(jet.hvv)
    degenerate = good & (regularity < EPS_REG)
    scored = good & ~degenerate
    worst = largest(residual, scored)
    facts = {
        "max_residual": math.inf if worst is None else worst[0],
        "argmax": None if worst is None
        else tuple(state[q][worst[1]].item() for q in "xvt"),
        "samples_used": int(good.sum()),
        "samples_skipped": int(bad.sum()),
        "regularity_min": regularity[good].min().item(),
        "passed": worst is not None and not degenerate.any() and worst[0] <= tol,
    }
    return facts, state, residual, scored


def _columns_hex(columns):
    return {q: [v.hex() for v in columns[q].tolist()] for q in "xvt"}


@pytest.mark.parametrize("name,draw,tol", BUILDER_DRAWS,
                         ids=[name for name, *_ in BUILDER_DRAWS])
def test_verify_equals_the_unshared_walks(monkeypatch, name, draw, tol):
    calls = []
    real = common.verify_lagrangian

    def record(L, ode, box, tol=1e-8):
        calls.append((L, ode, box, tol))
        return real(L, ode, box, tol)

    monkeypatch.setattr(common, "verify_lagrangian", record)
    _build(draw, 3, tol)
    monkeypatch.undo()
    assert calls
    for L, ode, box, tol in calls:
        report = verify_lagrangian(L, ode, box, tol)
        facts, state, residual, scored = _reference_report(L, ode, box, tol)
        for key, want in facts.items():
            got = getattr(report, key)
            if key == "argmax" and want is None:
                assert all(math.isnan(c) for c in got)
            else:
                assert repr(got) == repr(want), key
        assert _columns_hex(report.columns) == _columns_hex(state)
        # every point, masked ones included, carries the same bits
        assert [r.hex() for r in report.residual_field.tolist()] == \
            [r.hex() for r in residual.tolist()]
        assert report.scored.tolist() == scored.tolist()


def test_the_integral_families_put_integrals_in_their_strata(monkeypatch):
    # the case the test above is about: strata whose integrals L shares
    shared = set()
    real = common.verify_lagrangian
    for name, draw, tol in BUILDER_DRAWS:
        def record(L, ode, box, tol=1e-8, name=name):
            if antideriv_depth(L.expr) and any(antideriv_depth(s.expr)
                                               for s in box.strata):
                shared.add(name)
            return real(L, ode, box, tol)

        monkeypatch.setattr(common, "verify_lagrangian", record)
        _build(draw, 3, tol)
    assert shared == {"autonomous-completion", "autonomous-from-bc",
                      "radical-equal", "radical-linear"}


# --- each distinct integral entry is integrated once -------------------------

# cos(x*t) + v: the entries' other variables are x and v
WAVE = Antideriv(parse_expression("cos(x*t) + v"), "t", 0.0)


def _entry_points():
    """Points whose (t, x, v) repeat, and differ only in the sign of a zero."""
    pts = []
    for x in (0.0, -0.0, 0.5):
        for v in (1.0, 2.0):
            for t in (0.25, -0.0, 0.0, 0.75):
                pts.append((x, v, t))
    # the tensor grid's repeats: the same entries again, interleaved
    return pts + pts[::3] + [(0.5, 1.0, 0.75)] * 3


def _cols(pts):
    xs, vs, ts = (np.array(c, dtype=float) for c in zip(*pts))
    return {"x": xs, "v": vs, "t": ts}


def _bits(*values):
    return tuple(float(v).hex() for v in values)


def test_each_distinct_entry_is_integrated_once(monkeypatch, integrals):
    pts = _entry_points()
    seen = []
    real = evaluation._integrand_field

    def spy(expr, columns):
        seen.append({name: np.array(c) for name, c in columns.items()})
        return real(expr, columns)

    monkeypatch.setattr(evaluation, "_integrand_field", spy)
    values, bad = evaluate_field(WAVE, _cols(pts))
    monkeypatch.undo()

    # the first occurrence of each (t, x, v) bit pattern, in point order
    distinct = list(dict.fromkeys(_bits(t, x, v) for x, v, t in pts))
    assert len(distinct) < len(pts)
    assert len(integrals) == 1
    hi = integrals[0].tolist()
    assert [_bits(h) for h in hi] == [key[:1] for key in distinct]
    # the entries whose limit is not the base (+-0.0) get panels: the first
    # level has one centre node per entry, in entry order, which shows the
    # entries' x and v
    panelled = [key for h, key in zip(hi, distinct) if h != 0.0]
    first = seen[0]
    m = len(panelled)
    assert first["t"].size == 15 * m
    assert [_bits(h, x, v) for h, x, v in zip(
        first["t"][:m].tolist(), first["x"][:m].tolist(),
        first["v"][:m].tolist())] == [
        _bits(0.5 * float.fromhex(t), float.fromhex(x), float.fromhex(v))
        for t, x, v in panelled]
    assert not bad.any()
    for i, (x, v, t) in enumerate(pts):
        assert values[i].hex() == evaluate(WAVE, {"x": x, "v": v, "t": t}).hex()


def test_a_single_entry_skips_the_keying(monkeypatch):
    called = []
    real = evaluation._first_occurrences
    monkeypatch.setattr(evaluation, "_first_occurrences",
                        lambda keys: called.append(keys) or real(keys))
    evaluate(WAVE, {"x": 0.3, "v": 1.0, "t": 0.5})
    evaluate_field(WAVE, _cols([(0.3, 1.0, 0.5)]))
    assert called == []
    evaluate_field(WAVE, _cols([(0.3, 1.0, 0.5), (0.3, 1.0, 0.5)]))
    assert len(called) == 1


def test_undefined_entries_are_masked_where_evaluate_raises(integrals):
    # sqrt(t*x) is undefined on the panels of every x < 0
    expr = Antideriv(parse_expression("sqrt(t*x) + v"), "t", 1.0)
    pts = [(0.5, 1.0, 2.0), (-0.5, 1.0, 2.0), (0.5, 1.0, 2.0), (-0.0, 1.0, 3.0),
           (0.0, 1.0, 3.0), (-0.5, 1.0, 2.0)]
    values, bad = evaluate_field(expr, _cols(pts))
    assert len(integrals[0]) == 4
    for i, (x, v, t) in enumerate(pts):
        try:
            want = evaluate(expr, {"x": x, "v": v, "t": t})
        except EvalDomainError as exc:
            assert bad[i] and "integrand undefined" in str(exc)
        else:
            assert not bad[i] and values[i].hex() == want.hex()
    assert bad.tolist() == [False, True, False, False, False, True]


def _message(expr, pts):
    with pytest.raises(QuadratureError) as info:
        evaluate_field(expr, _cols(pts))
    return str(info.value)


@pytest.mark.parametrize("text", ["1/t + x", "1/(t*t) + x"])
def test_a_divergent_entry_names_the_panel_it_names_without_repeats(text):
    expr = Antideriv(parse_expression(text), "t", 0.0)
    once = [(1.0, 0.0, 0.5), (2.0, 0.0, 0.25), (-0.0, 0.0, 1.0)]
    repeated = [once[1], once[0], once[1], once[2], once[0], once[2]]
    # the repeats integrate nothing more: the first occurrences, in order,
    # are the points of `in_order`
    in_order = [once[1], once[0], once[2]]
    assert _message(expr, repeated) == _message(expr, in_order)
    assert "[" in _message(expr, repeated)


# --- an exact sweep makes each C-library map once ----------------------------

def test_each_power_is_mapped_once_per_operand_and_exponent(monkeypatch):
    expr = parse_expression("x^4 + x^3 + x^2")
    xs = np.array([-1.5, -0.0, 0.0, 0.3, 2.0, 1e-170])
    exponents = Counter()

    def counted(base, exponent):
        exponents[exponent] += 1
        return operator.pow(base, exponent)

    row = evaluation._FUNCTIONS[Pow]
    monkeypatch.setitem(evaluation._FUNCTIONS, Pow, row._replace(libm=counted))
    jet, bad = jet_field(expr, {"x": xs})
    monkeypatch.undo()
    # each power's jet takes pow at n, n-1 and n-2: 4, 3, 2 / 3, 2, 1 / 2, 1;
    # at exponent 0 the power is 1.0 at every point and at exponent 1 it is
    # the base, so neither is mapped
    assert exponents == dict.fromkeys((4.0, 3.0, 2.0), len(xs))
    assert 0.0 not in exponents and 1.0 not in exponents
    assert not bad.any()
    for i, x in enumerate(xs.tolist()):
        assert hexes(jet, i) == hexes(eval_jet2(expr, {"x": x}))


def test_a_power_at_exponent_one_is_its_base_with_nan_where_masked():
    # x^2's first derivative reads x^1: the base, NaN at the points masked
    # before it, as a map of pow leaves them
    expr = parse_expression("x^2")
    xs = np.array([-1.5, -0.0, 3.0, 0.25])
    given = np.array([False, False, True, False])
    jet, bad = jet_field(expr, {"x": xs}, given)
    assert bad.tolist() == given.tolist()
    assert math.isnan(jet.f[2]) and math.isnan(jet.gx[2])
    for i in (0, 1, 3):
        assert hexes(jet, i) == hexes(eval_jet2(expr, {"x": xs[i].item()}))


def test_a_number_operand_keeps_the_sign_of_its_zero(monkeypatch):
    # sin(-0.0) is -0.0 and sin(0.0) is 0.0: one map each
    expr = Add(Mul(Sin(Neg(Const(0.0))), Sin(Const(0.0))), X)
    maps = []
    row = evaluation._FUNCTIONS[Sin]
    monkeypatch.setitem(evaluation._FUNCTIONS, Sin, row._replace(
        libm=lambda u: maps.append(math.copysign(1.0, u)) or row.libm(u)))
    xs = np.array([-0.0, 0.0])
    values, bad = evaluate_field(expr, {"x": xs})
    jet, jet_bad = jet_field(expr, {"x": xs})
    monkeypatch.undo()
    assert sorted(set(maps)) == [-1.0, 1.0]
    for i, x in enumerate(xs.tolist()):
        assert values[i].hex() == evaluate(expr, {"x": x}).hex()
        assert hexes(jet, i) == hexes(eval_jet2(expr, {"x": x}))


def test_sine_and_cosine_share_their_maps(monkeypatch):
    expr = parse_expression("sin(x) * cos(x) + sin(x)^2")
    counts = Counter()
    for kind in (Sin, Cos):
        row = evaluation._FUNCTIONS[kind]
        monkeypatch.setitem(evaluation._FUNCTIONS, kind, row._replace(
            libm=lambda u, real=row.libm, kind=kind:
            counts.update([kind]) or real(u)))
    xs = np.linspace(-2.0, 2.0, 7)
    jet, bad = jet_field(expr, {"x": xs})
    monkeypatch.undo()
    # one map of sin and one of cos over the points serve both jets
    assert counts == {Sin: len(xs), Cos: len(xs)}
    for i, x in enumerate(xs.tolist()):
        assert hexes(jet, i) == hexes(eval_jet2(expr, {"x": x}))
