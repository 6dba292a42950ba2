import pytest

from freetoeplitz.form import WeightSystem
from freetoeplitz.projection import project_word
from freetoeplitz.scanproj import (
    LeftRightRightmost,
    Stochastic,
    monte_carlo_mean,
    random_toeplitz_apply,
    replay,
    scan_project,
)

from conftest import all_words, scan_oracle

LRR = LeftRightRightmost()


def test_deterministic_examples():
    assert scan_project((1, 2, -2, -1), LRR).result == ()
    assert scan_project((-1, 1), LRR).is_zero
    assert scan_project((1, 2), LRR).result == (1, 2)
    assert scan_project((1, 2, -1), LRR).result == (2,)


def test_trace_replays():
    for word in [(1, 2, -2, -1), (1, 2, -1), (1, 1, -1, 2, -1, -2)]:
        out = scan_project(word, LRR)
        assert replay(word, out.eliminations) == out.result


def test_trace_format():
    out = scan_project((1, 2, -1), LRR)
    assert out.format_trace() == "bar@2 theta@0"
    out = scan_project((-1, 1), LRR)
    assert out.format_trace() == "bar@0 theta@none"


def test_outcomes_bar_free():
    import itertools

    for r in range(7):
        for word in itertools.product((1, -1, 2, -2), repeat=r):
            out = scan_project(word, LRR)
            if not out.is_zero:
                assert all(c > 0 for c in out.result)
            # bar letters strictly decrease: every bar letter got a
            # trace entry
            bars = sum(1 for c in word if c < 0)
            if not out.is_zero:
                assert len(out.eliminations) == bars


def test_deterministic_repeatable():
    word = (1, 1, 2, -2, -1, 2, -2)
    first = scan_project(word, LRR)
    for _ in range(100):
        again = scan_project(word, LRR)
        assert again == first


def test_holomorphic_fixed_by_all_strategies():
    word = (1, 2, 2)
    assert scan_project(word, LRR).result == word
    assert scan_project(word, Stochastic(0.0), seed=1).result == word


def test_stochastic_requires_seed():
    with pytest.raises(ValueError, match="seed"):
        scan_project((1, -1), Stochastic(0.5))
    with pytest.raises(ValueError):
        Stochastic(1.5)


def test_stochastic_degenerate_probabilities():
    # p=1 with a unique eligible pairing is deterministic
    for seed in range(20):
        assert scan_project((1, -1), Stochastic(1.0), seed=seed).result == ()
    # p=0 rejects any word containing a bar letter
    for seed in range(20):
        assert scan_project((1, -1), Stochastic(0.0), seed=seed).is_zero


def test_random_toeplitz_apply():
    assert random_toeplitz_apply((-1,), (2, 1), LRR).result == (2,)
    assert random_toeplitz_apply((), (1,), LRR).result == (1,)
    assert random_toeplitz_apply((-2,), (1,), LRR).is_zero
    assert random_toeplitz_apply((-2,), (1,), Stochastic(1.0), seed=0).is_zero
    with pytest.raises(ValueError):
        random_toeplitz_apply((1,), (-1,), LRR)


def test_monte_carlo_frequencies():
    freqs = monte_carlo_mean((-1,), (1,), Stochastic(0.5), trials=10000, seed=1)
    assert abs(sum(freqs.values()) - 1.0) <= 1e-12
    assert abs(freqs[()] - 0.5) <= 0.02
    assert abs(freqs[None] - 0.5) <= 0.02


def test_monte_carlo_point_masses():
    freqs = monte_carlo_mean((), (1, 2), Stochastic(0.0), trials=50, seed=0)
    assert freqs[(1, 2)] == 1.0
    freqs = monte_carlo_mean((-1,), (1,), Stochastic(0.0), trials=50, seed=0)
    assert freqs[None] == 1.0


def test_disagrees_with_form_projection_in_general():
    ws = WeightSystem.unit(1)
    # the scanning map sends b1*t1 to zero while the form-based
    # projection gives w(1) * identity
    assert scan_project((-1, 1), LRR).is_zero
    assert not project_word(ws, (-1, 1)).is_zero()


def test_scan_matches_rescanning_oracle():
    # every word at n=2 to length 7, rightmost and stochastic, same draws
    strategies = [(LRR, None, None)] + [
        (Stochastic(p), p, seed) for p in (0.5, 1.0) for seed in (0, 1, 7)
    ]
    paired = 0
    for word in all_words(2, 7):
        for strategy, p, seed in strategies:
            out = scan_project(word, strategy, seed)
            assert (out.result, out.eliminations) == scan_oracle(word, p, seed), word
            paired += out.result is not None and len(out.eliminations) > 1
    # not vacuous: many scans pair more than one bar letter
    assert paired > 10000
