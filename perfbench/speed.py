"""Host speed probe: a fixed reference kernel timed between and during calls.

On a shared host the speed of one vCPU swings by about 1.5x within seconds,
as another tenant's load on the sibling hyperthread comes and goes.  Raw wall
times of 20-second runs then spread by 17-24% between runs, which hides any
regression smaller than that.  The probe times a small pure-Python bitset
clique search (code of its own, independent of ``weaksep``) before every call
and, through a 30 ms interval timer, during long calls.  Each call's latency
is divided by the mean slowdown of the samples taken around and inside it,
giving its latency at reference speed: the speed at which the kernel takes
``REFERENCE_S``.
"""

from __future__ import annotations

import bisect
import signal
from time import perf_counter

# about the fastest kernel time on an Intel Xeon vCPU under Python 3.11.7
REFERENCE_S = 0.00025
INTERVAL_S = 0.03


def _graph(n: int) -> list[int]:
    adj = [0] * n
    x = 12345
    for i in range(n):
        for j in range(i + 1, n):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            if x % 3:
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return adj


_ADJ = _graph(22)


def kernel() -> int:
    """Count the maximal cliques of a fixed 22-vertex graph (first-vertex pivot)."""
    adj = _ADJ
    count = 0

    def expand(p: int, x: int) -> None:
        nonlocal count
        if not p and not x:
            count += 1
            return
        q = p | x
        cand = p & ~adj[(q & -q).bit_length() - 1]
        while cand:
            v = (cand & -cand).bit_length() - 1
            cand &= cand - 1
            expand(p & adj[v], x & adj[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand((1 << len(adj)) - 1, 0)
    return count


class SpeedProbe:
    """Timestamped kernel timings; a context manager that also samples on a timer."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self.in_handler = 0.0
        self._times: list[float] = []
        self._costs: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        # one append, so a timer sample cannot interleave with this one
        self.samples.append((end, end - start))

    def _on_alarm(self, signum, frame) -> None:
        start = perf_counter()
        self.sample()
        self.in_handler += perf_counter() - start

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def slowdown(self, start: float, end: float) -> float:
        """Mean kernel time over [start, end] and its two neighbours, over the reference."""
        if len(self._times) != len(self.samples):
            # a timer sample taken inside sample() lands before it in the list
            ordered = sorted(self.samples)
            self._times = [t for t, _ in ordered]
            self._costs = [c for _, c in ordered]
        lo = max(0, bisect.bisect_left(self._times, start) - 1)
        hi = min(len(self._times), bisect.bisect_right(self._times, end) + 1)
        window = self._costs[lo:hi]
        return sum(window) / len(window) / REFERENCE_S
