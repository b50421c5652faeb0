"""DomainBox.sample_columns against a reference sampler, bit for bit.

The reference builds the points as a list of (x, v, t) tuples: the grid in
x-v-t order, then the random fill drawn with ``random.uniform``, drops each
point at its first stratum that raises or is small there (by the scalar
``evaluate``), and sorts the rest with ``list.sort`` on (t, x, v).
"""
import random

import numpy as np
import pytest

from lagrangeforge import (
    DomainBox,
    EmptyDomainError,
    EvalDomainError,
    SingularStratum,
    evaluate,
    parse_expression,
)


def _axis(lo, hi, n):
    if n == 1:
        return [0.5 * (lo + hi)]
    step = (hi - lo) / (n - 1)
    return [lo + i * step for i in range(n)]


def _excluded(box, point):
    binding = dict(zip("xvt", point))
    for stratum in box.strata:
        try:
            size = evaluate(stratum.expr, binding)
        except EvalDomainError:
            return True
        if abs(size) <= stratum.radius:
            return True
    return False


def reference_points(box):
    nx, nv, nt = box.grid
    pts = [(x, v, t) for x in _axis(*box.x, nx) for v in _axis(*box.v, nv)
           for t in _axis(*box.t, nt)]
    rng = random.Random(box.seed)
    for _ in range(box.n_random):
        pts.append((rng.uniform(*box.x), rng.uniform(*box.v),
                    rng.uniform(*box.t)))
    pts = [p for p in pts if not _excluded(box, p)]
    if not pts:
        raise EmptyDomainError("no sample points survive the exclusions")
    pts.sort(key=lambda p: (p[2], p[0], p[1]))
    return pts


def outcome(sample):
    try:
        return [tuple(c.hex() for c in p) for p in sample()]
    except EmptyDomainError:
        return "empty"


def column_points(box):
    columns = box.sample_columns()
    assert list(columns) == ["x", "v", "t"]
    assert all(c.dtype == np.float64 for c in columns.values())
    return list(zip(*(c.tolist() for c in columns.values())))


def _interval(rng):
    kind = rng.random()
    if kind < 0.1:
        return (-0.0, -0.0)      # a -0.0 midpoint beside 0.0 random draws
    lo = rng.choice([rng.uniform(-5.0, 5.0), float(rng.randint(-3, 3))])
    if kind < 0.25:
        return (lo, lo)
    return (lo, lo + rng.choice([rng.uniform(0.0, 4.0), 1.0, 2.0]))


STRATA = [
    lambda c, r: SingularStratum(parse_expression(f"x - {c}"), r),
    lambda c, r: SingularStratum(parse_expression(f"sqrt(v - {c}) - 0.5"), r),
    lambda c, r: SingularStratum(parse_expression(f"ln(t - {c})*x"), r),
    lambda c, r: SingularStratum(parse_expression(f"x*t - {c}*v"), r),
]


def random_box(seed):
    rng = random.Random(seed)
    strata = tuple(rng.choice(STRATA)(round(rng.uniform(-1.0, 1.0), 2),
                                      rng.choice([0.0, 0.05, 0.5]))
                   for _ in range(rng.choice([0, 0, 1, 2])))
    return DomainBox(x=_interval(rng), v=_interval(rng), t=_interval(rng),
                     grid=tuple(rng.randint(1, 9) for _ in range(3)),
                     n_random=rng.choice([0, 150, rng.randint(0, 150),
                                         rng.randint(0, 150)]),
                     seed=rng.randrange(2**31),
                     strata=strata)


@pytest.mark.parametrize("chunk", range(8))
def test_columns_are_the_reference_samples(chunk):
    for seed in range(30 * chunk, 30 * chunk + 30):
        box = random_box(seed)
        want = outcome(lambda: reference_points(box))
        assert outcome(lambda: column_points(box)) == want, box
        assert outcome(box.sample_points) == want, box


def test_boxes_cover_the_edge_cases():
    boxes = [random_box(seed) for seed in range(240)]
    assert {n for b in boxes for n in b.grid} == set(range(1, 10))
    assert {0, 150} <= {b.n_random for b in boxes}
    assert any(lo == hi for b in boxes for lo, hi in (b.x, b.v, b.t))
    assert any(repr(iv) == "(-0.0, -0.0)" for b in boxes for iv in (b.x, b.v, b.t))
    assert any(len(b.strata) == 2 for b in boxes)
    sizes = [outcome(lambda: reference_points(b)) for b in boxes]
    assert "empty" in sizes
    assert any(b.strata and s != "empty"
               and len(s) < b.grid[0] * b.grid[1] * b.grid[2] + b.n_random
               for b, s in zip(boxes, sizes))


@pytest.mark.parametrize("axis", ["x", "v", "t"])
def test_an_interval_too_wide_for_a_float_is_refused(axis):
    # the width overflows, so the grid step would make NaN and inf points
    with pytest.raises(ValueError, match="too wide"):
        DomainBox(**{axis: (-1e308, 1e308)})
    DomainBox(**{axis: (-8e307, 8e307)}).sample_columns()


@pytest.mark.parametrize("make, field", [
    (lambda: DomainBox(grid=(4.7, 4, 4)), "grid"),
    (lambda: DomainBox(grid=(4, 0, 4)), "grid"),
    (lambda: DomainBox(grid=(4, float("nan"), 4)), "grid"),
    (lambda: DomainBox(n_random=32.5), "n_random"),
    (lambda: DomainBox(n_random=float("inf")), "n_random"),
    (lambda: DomainBox(n_random=-1), "n_random"),
    (lambda: SingularStratum(parse_expression("x"), float("nan")), "radius"),
    (lambda: SingularStratum(parse_expression("x"), -0.1), "radius"),
])
def test_a_fractional_count_or_a_nan_radius_is_refused(make, field):
    # truncated, 4.7 and 32.5 would sample 4 and 32; a NaN radius passes
    # radius < 0 and then excludes nothing
    with pytest.raises(ValueError, match=field):
        make()


def test_integral_float_counts_are_the_int_counts():
    box = DomainBox(grid=(4.0, 2, 3.0), n_random=32.0)
    assert (box.grid, box.n_random) == ((4, 2, 3), 32)
    assert box == DomainBox(grid=(4, 2, 3), n_random=32)
