"""Host-speed calibration for a shared, noisy machine.

On a 2-vCPU Intel Xeon VM that shares its host, the speed of pure Python
code swings by up to 2x within seconds, because other tenants share the
host: a fixed loop took 21-33 ms in successive 2-second windows, and
the same 20 CLI operations took 1.63 s in one process and 2.62 s in the
next.  Wall times from such a host vary more between runs than any bound
worth having.

So every operation time is rescaled to a reference host speed.  The
benchmark runs :func:`kernel`, a fixed piece of pure-Python work that calls
nothing in ``lagrangeforge``, every ``EVERY_S`` seconds between operations,
and multiplies each operation's wall time by ``REFERENCE_S / k``, where
``k`` is the median kernel time within ``WINDOW_S`` seconds of that
operation.  Each set-up time is rescaled by kernel runs made in the set-up
process right after it is ready.  A change to the package leaves the kernel
alone, so it still shows in full.  The kernel mixes a flat arithmetic loop with a recursive
walk that allocates small ``__slots__`` objects, like the package's jets.
Over 2-second windows on that host, the ratio of operation time to kernel
time spread by 4-11% of its median while operation time alone spread by
8-53%.
"""
from __future__ import annotations

import bisect
import statistics
import time

# kernel time on that host in its fast state, when no other tenant was busy;
# rescaled times read as wall times on such a host
REFERENCE_S = 0.0030
EVERY_S = 0.2
WINDOW_S = 1.0


class _Node:
    __slots__ = ("op", "left", "right", "value")

    def __init__(self, op, left=None, right=None, value=0.0):
        self.op, self.left, self.right, self.value = op, left, right, value


class _Jet:
    __slots__ = ("f", "g", "h")

    def __init__(self, f, g=0.0, h=0.0):
        self.f, self.g, self.h = f, g, h


def _tree(depth: int, i: int = 0) -> _Node:
    if depth == 0:
        return _Node("x") if i % 2 else _Node("c", value=1.0 + 0.01 * i)
    return _Node("+" if depth % 2 else "*", _tree(depth - 1, 2 * i),
                 _tree(depth - 1, 2 * i + 1))


def _jet(node: _Node, x: float) -> _Jet:
    if node.op == "c":
        return _Jet(node.value)
    if node.op == "x":
        return _Jet(x, 1.0)
    a, b = _jet(node.left, x), _jet(node.right, x)
    if node.op == "+":
        return _Jet(a.f + b.f, a.g + b.g, a.h + b.h)
    return _Jet(a.f * b.f, a.g * b.f + a.f * b.g,
                a.h * b.f + 2.0 * a.g * b.g + a.f * b.h)


_TREE = _tree(8)


def kernel() -> float:
    """Run the fixed calibration work once; return its wall time in seconds."""
    start = time.perf_counter()
    total = 0
    for i in range(25000):
        total += i * i % 7
    acc = 0.0
    for i in range(8):
        acc += _jet(_TREE, 0.3 + 0.01 * i).h
    return time.perf_counter() - start


class SpeedTrack:
    """Kernel samples over time, and the rescaling factor at any moment."""

    def __init__(self):
        self.times: list = []
        self.samples: list = []
        self._last = -1e300

    def sample(self) -> None:
        now = time.perf_counter()
        took = kernel()
        self.times.append(now + took / 2.0)
        self.samples.append(took)
        self._last = time.perf_counter()

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= EVERY_S:
            self.sample()

    def factor(self, at: float) -> float:
        """``REFERENCE_S / k`` for the kernel samples around time ``at``."""
        lo = bisect.bisect_left(self.times, at - WINDOW_S)
        hi = bisect.bisect_right(self.times, at + WINDOW_S)
        if lo == hi:
            # an operation longer than the window: the samples either side
            lo, hi = max(0, lo - 1), hi + 1
        return REFERENCE_S / statistics.median(self.samples[lo:hi])
