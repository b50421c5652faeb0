"""The sampler's geometry cache: bounded, bit for bit, read-only, sign-aware.

``DomainBox._sample`` takes a box's unstratified columns and their (t, x, v)
order from ``lagrangian._geometry``, an ``lru_cache`` keyed by the box's
intervals, grid, random count and seed.  The columns must not depend on
whether the entry was there already, and strata still run on every call.
"""
import numpy as np
import pytest

from lagrangeforge import (
    Antideriv,
    DomainBox,
    SingularStratum,
    Sub,
    Const,
    parse_expression,
)
from lagrangeforge import evaluation, lagrangian
from lagrangeforge.lagrangian import _GEOMETRY_CACHE_SIZE, _geometry

from test_sampler import outcome, random_box, reference_points


def _bits(box) -> list:
    columns = box.sample_columns()
    return [columns[name].tobytes() for name in ("x", "v", "t")]


def test_the_cache_stays_within_its_bound():
    assert _geometry.cache_info().maxsize == _GEOMETRY_CACHE_SIZE
    _geometry.cache_clear()
    for seed in range(3 * _GEOMETRY_CACHE_SIZE):
        DomainBox(grid=(2, 2, 2), n_random=3, seed=seed).sample_columns()
    info = _geometry.cache_info()
    assert info.misses == 3 * _GEOMETRY_CACHE_SIZE
    assert info.currsize == _GEOMETRY_CACHE_SIZE


def test_columns_are_the_same_cold_warm_and_evicted():
    boxes = [random_box(seed) for seed in range(40)]
    for box in boxes:
        _geometry.cache_clear()
        cold = outcome(box.sample_points)
        assert cold == outcome(lambda: reference_points(box)), box
        warm = outcome(box.sample_points)
        # push the entry out with other geometries, then sample it again
        for seed in range(_GEOMETRY_CACHE_SIZE + 1):
            DomainBox(grid=(1, 1, 2), n_random=1, seed=10_000 + seed)._sample()
        evicted = outcome(box.sample_points)
        assert cold == warm == evicted, box


def test_cached_arrays_reject_writes_and_callers_get_their_own():
    box = DomainBox(grid=(3, 2, 2), n_random=5, seed=4)
    columns = box.sample_columns()
    for array in _geometry(tuple(map(float.hex, box.x + box.v + box.t)),
                           box.grid, box.n_random, box.seed):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = array[1]
    # the columns a caller gets are fresh arrays it may change
    before = _bits(box)
    for column in columns.values():
        assert column.flags.writeable
        column[:] = 7.0
    assert _bits(box) == before


@pytest.mark.parametrize("axis", ["x", "v", "t"])
def test_a_minus_zero_bound_is_not_a_zero_bound(axis):
    # one grid point at the midpoint: -0.0 for (-0.0, -0.0), 0.0 for (0.0, 0.0)
    minus = DomainBox(**{axis: (-0.0, -0.0)}, grid=(1, 1, 1), n_random=0)
    plus = DomainBox(**{axis: (0.0, 0.0)}, grid=(1, 1, 1), n_random=0)
    assert minus == plus   # the dataclass compares -0.0 == 0.0
    _geometry.cache_clear()
    for first, second in ((minus, plus), (plus, minus)):
        a = first.sample_columns()[axis]
        b = second.sample_columns()[axis]
        assert np.signbit(a).tolist() == [first is minus]
        assert np.signbit(b).tolist() == [second is minus]
    assert _geometry.cache_info().currsize == 2


def test_seeds_of_different_types_are_different_entries():
    # equal as keys, but random.Random seeds an int by its value and a
    # float by its hash, so the two draw different points
    assert 2**70 == 2.0**70
    int_seed = DomainBox(grid=(1, 1, 1), n_random=2, seed=2**70)
    float_seed = DomainBox(grid=(1, 1, 1), n_random=2, seed=2.0**70)
    _geometry.cache_clear()
    assert outcome(int_seed.sample_points) != outcome(float_seed.sample_points)
    assert outcome(int_seed.sample_points) == outcome(lambda: reference_points(int_seed))
    assert outcome(float_seed.sample_points) == outcome(
        lambda: reference_points(float_seed))
    assert _geometry.cache_info().currsize == 2


def test_a_seed_of_none_is_refused():
    # random.Random(None) draws from the system's entropy, which a kept
    # entry would then freeze for as long as it stays in the cache
    with pytest.raises(ValueError, match="seed must not be None"):
        DomainBox(seed=None)


def test_strata_and_their_integrals_run_on_every_call(monkeypatch):
    calls = []
    real = evaluation.integrate_adaptive

    def spy(f, lo, hi):
        calls.append(hi)
        return real(f, lo, hi)

    monkeypatch.setattr(evaluation, "integrate_adaptive", spy)
    gauss = Antideriv(parse_expression("exp(-(t^2))"), "t", 0.0)
    box = DomainBox(grid=(2, 2, 3), n_random=4, seed=9,
                    strata=(SingularStratum(Sub(gauss, Const(5.0)), 1.0),))
    first = box._sample()
    second = box._sample()
    # no integral value outlives a call: each call integrates again
    assert len(calls) == 2
    assert first[1].keys() == second[1].keys() == {gauss}
    assert first[1][gauss].tobytes() == second[1][gauss].tobytes()
    assert lagrangian._geometry.cache_info().hits >= 1
