"""Word-scanning projection algorithms.

These are word-surgery alternatives to the form-based projection: scan a
word, erase every bar letter together with a paired theta letter of the
same index, and return the surviving all-theta word, or zero when some
bar letter cannot be paired.  The deterministic strategy pairs each bar
letter with the rightmost earlier theta of its index; the stochastic
strategy pairs with a uniformly random eligible theta and aborts to zero
with probability 1 - p at each decision.  No weight factors are applied;
outcomes are coefficient-free words.

Every elimination is recorded as (bar position, theta position) in the
original word, so an outcome can be replayed and audited.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass

from .freealg import is_holomorphic_word


@dataclass(frozen=True)
class LeftRightRightmost:
    """Pair each bar letter with the rightmost earlier theta of its index."""


@dataclass(frozen=True)
class Stochastic:
    """Bernoulli(p) pairing with a uniformly random eligible theta."""

    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("pairing probability must lie in [0, 1]")


@dataclass(frozen=True)
class ScanOutcome:
    """Result word (None means zero) plus the elimination trace."""

    result: tuple | None
    eliminations: tuple

    @property
    def is_zero(self):
        return self.result is None

    def format_trace(self):
        lines = []
        for bar_pos, theta_pos in self.eliminations:
            lines.append(
                "bar@%d theta@%s"
                % (bar_pos, "none" if theta_pos is None else theta_pos)
            )
        return "\n".join(lines)


def scan_project(word, strategy, seed=None):
    """Scan left to right, eliminating each bar letter with a paired theta.

    After an elimination the scan resumes at the letter following the
    just-deleted bar letter.  Positions in the trace are 0-based indices
    into the original word.
    """
    word = tuple(word)
    rnd = None
    if isinstance(strategy, Stochastic):
        if seed is None:
            raise ValueError("stochastic strategy requires a seed")
        rnd = random.Random(seed)
    elif not isinstance(strategy, LeftRightRightmost):
        raise TypeError("unknown strategy: %r" % (strategy,))
    alive = [True] * len(word)
    # the alive theta positions of each index, in increasing order
    thetas = {}
    eliminations = []
    for pos, c in enumerate(word):
        if c >= 0:
            thetas.setdefault(c, []).append(pos)
            continue
        eligible = thetas.get(-c)
        if not eligible:
            eliminations.append((pos, None))
            return ScanOutcome(None, tuple(eliminations))
        if rnd is None:
            mate = eligible.pop()
        else:
            if rnd.random() >= strategy.p:
                eliminations.append((pos, None))
                return ScanOutcome(None, tuple(eliminations))
            mate = rnd.choice(eligible)
            del eligible[bisect.bisect_left(eligible, mate)]
        alive[pos] = False
        alive[mate] = False
        eliminations.append((pos, mate))
    result = tuple(c for q, c in enumerate(word) if alive[q])
    return ScanOutcome(result, tuple(eliminations))


def replay(word, eliminations):
    """Re-apply a trace to the input word; None when the trace aborted."""
    word = tuple(word)
    alive = [True] * len(word)
    for bar_pos, theta_pos in eliminations:
        if theta_pos is None:
            return None
        alive[bar_pos] = False
        alive[theta_pos] = False
    return tuple(c for q, c in enumerate(word) if alive[q])


def random_toeplitz_apply(g, phi, strategy, seed=None):
    """Scan-based Toeplitz action: project the concatenation phi + g."""
    if not is_holomorphic_word(phi):
        raise ValueError("argument must be a holomorphic word")
    return scan_project(tuple(phi) + tuple(g), strategy, seed)


def monte_carlo_mean(g, phi, strategy, trials, seed=0):
    """Empirical outcome distribution over independent seeded runs.

    Returns a dict mapping outcome words to frequencies, with the zero
    outcome under the key None (always present).  Trial t runs with
    seed + t, so results are reproducible regardless of schedule.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    counts = {None: 0}
    for t in range(trials):
        out = random_toeplitz_apply(g, phi, strategy, seed + t)
        counts[out.result] = counts.get(out.result, 0) + 1
    return {k: v / trials for k, v in counts.items()}
