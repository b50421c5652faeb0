"""The jet arithmetic against the ZERO-dropping formulas written with helpers.

``Jet2``'s ``+``, ``-``, unary ``-``, ``*`` and ``chain`` test for ZERO
inline.  The reference below is the same arithmetic with one helper call
per term, as it was first written.  On random jets whose slots are ZERO,
Python floats, numpy scalars or arrays, signed zeros, infinities and NaN
among them, both give the same slot bits, the same ZEROs and the same
types, and numpy's error flags fire for both or for neither.
"""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lagrangeforge.evaluation import ZERO, Jet2


def _times(a, b):
    if a is ZERO or b is ZERO:
        return ZERO
    return a * b


def _plus(a, b):
    if a is ZERO:
        return b
    return a if b is ZERO else a + b


def _minus(a, b):
    if b is ZERO:
        return a
    return -b if a is ZERO else a - b


def _negated(a):
    return a if a is ZERO else -a


def ref_add(u, w):
    return (u.f + w.f,
            _plus(u.gx, w.gx), _plus(u.gv, w.gv), _plus(u.gt, w.gt),
            _plus(u.hxv, w.hxv), _plus(u.hvv, w.hvv), _plus(u.hvt, w.hvt))


def ref_sub(u, w):
    return (u.f - w.f,
            _minus(u.gx, w.gx), _minus(u.gv, w.gv), _minus(u.gt, w.gt),
            _minus(u.hxv, w.hxv), _minus(u.hvv, w.hvv), _minus(u.hvt, w.hvt))


def ref_neg(u):
    return (-u.f, _negated(u.gx), _negated(u.gv), _negated(u.gt),
            _negated(u.hxv), _negated(u.hvv), _negated(u.hvt))


def ref_mul(u, w):
    uf, wf = u.f, w.f
    return (
        uf * wf,
        _plus(_times(u.gx, wf), _times(uf, w.gx)),
        _plus(_times(u.gv, wf), _times(uf, w.gv)),
        _plus(_times(u.gt, wf), _times(uf, w.gt)),
        _plus(_plus(_plus(_times(u.hxv, wf), _times(u.gx, w.gv)),
                    _times(u.gv, w.gx)), _times(uf, w.hxv)),
        _plus(_plus(_times(u.hvv, wf), _times(_times(2.0, u.gv), w.gv)),
              _times(uf, w.hvv)),
        _plus(_plus(_plus(_times(u.hvt, wf), _times(u.gv, w.gt)),
                    _times(u.gt, w.gv)), _times(uf, w.hvt)),
    )


def ref_chain(u, f0, f1, f2):
    gx, gv, gt = u.gx, u.gv, u.gt
    return (
        f0,
        _times(f1, gx), _times(f1, gv), _times(f1, gt),
        _plus(_times(f1, u.hxv), _times(_times(f2, gx), gv)),
        _plus(_times(f1, u.hvv), _times(_times(f2, gv), gv)),
        _plus(_times(f1, u.hvt), _times(_times(f2, gv), gt)),
    )


# numbers that make the flags fire: overflowing products and sums, inf * 0,
# inf - inf, and the signed zeros whose sign a dropped term would decide
SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 1e300, -1e300, 1e-300,
           -2.5, 3.0, 1.0]
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats())


def _number(kind, a, b):
    if kind == "python":
        return a
    if kind == "scalar":
        return np.float64(a)
    return np.array([a, b])


slot = st.one_of(st.just(ZERO),
                 st.builds(_number, st.sampled_from(["python", "scalar", "array"]),
                           numbers, numbers))
jets = st.builds(Jet2, *[slot] * len(Jet2.__slots__))


def _run(compute, *args):
    """``compute(*args)`` and whether a numpy error flag fired in it."""
    fired = []
    with np.errstate(over="call", invalid="call", divide="call",
                     under="ignore", call=lambda *_: fired.append(True)):
        out = compute(*args)
    return out, bool(fired)


def _slot_key(value):
    if value is ZERO:
        return "ZERO"
    return type(value).__name__, np.asarray(value, dtype=float).tobytes()


def assert_same(new, ref):
    jet, new_fired = new
    slots, ref_fired = ref
    assert isinstance(jet, Jet2)
    got = [_slot_key(getattr(jet, name)) for name in Jet2.__slots__]
    assert got == [_slot_key(s) for s in slots]
    assert new_fired == ref_fired


@settings(max_examples=300, deadline=None)
@given(jets, jets)
def test_binary_arithmetic_is_the_helper_formulas(u, w):
    assert_same(_run(Jet2.__add__, u, w), _run(ref_add, u, w))
    assert_same(_run(Jet2.__sub__, u, w), _run(ref_sub, u, w))
    assert_same(_run(Jet2.__mul__, u, w), _run(ref_mul, u, w))


@settings(max_examples=300, deadline=None)
@given(jets, slot, slot, slot)
def test_negation_and_chain_are_the_helper_formulas(u, f0, f1, f2):
    assert_same(_run(Jet2.__neg__, u), _run(ref_neg, u))
    assert_same(_run(Jet2.chain, u, f0, f1, f2), _run(ref_chain, u, f0, f1, f2))


def test_a_dropped_terms_other_factors_still_raise_the_flag():
    # (f2 * gx) overflows although gv is ZERO, and 2 * u_v overflows
    # although w_v is ZERO: the flag must fire, as in the full formulas
    u = Jet2(np.float64(1.0), np.float64(1e300), ZERO, ZERO, ZERO, ZERO, ZERO)
    jet, fired = _run(Jet2.chain, u, np.float64(1.0), np.float64(1.0),
                      np.float64(1e300))
    assert fired and jet.hxv is ZERO
    u = Jet2(np.float64(1.0), ZERO, np.float64(1e308), ZERO, ZERO, ZERO, ZERO)
    w = Jet2(np.float64(1.0), ZERO, ZERO, ZERO, ZERO, ZERO, ZERO)
    jet, fired = _run(Jet2.__mul__, u, w)
    assert fired and jet.hvv is ZERO
