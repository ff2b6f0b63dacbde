import math

import pytest

from ott.bench import (
    FAMILIES, BenchConfig, BenchRow, _wall_slope, bench_signature, fit_scaling,
    generate_family, run_bench,
)
from ott.checker import check
from ott.terms import size


def _judgement_size(j):
    return sum(size(e) for e in j.ctx) + size(j.term) + size(j.ty)


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_sizes_within_ten_percent(family):
    cfg = BenchConfig(family, sizes=(256, 1024, 4096))
    for requested, judgement in generate_family(cfg):
        actual = _judgement_size(judgement)
        assert 0.9 * requested <= actual <= 1.1 * requested


@pytest.mark.parametrize("family", FAMILIES)
def test_generated_judgements_accepted(family):
    cfg = BenchConfig(family, sizes=(256, 512))
    sig = bench_signature()
    for _, judgement in generate_family(cfg):
        assert check(sig, judgement).ok


def test_generation_deterministic():
    cfg = BenchConfig("app-chain", sizes=(256, 512), seed=7)
    first = generate_family(cfg)
    second = generate_family(cfg)
    assert first == second


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig("nonsense")
    with pytest.raises(ValueError):
        BenchConfig("app-chain", sizes=(512, 256))
    with pytest.raises(ValueError):
        BenchConfig("app-chain", repetitions=0)
    with pytest.raises(ValueError):
        generate_family(BenchConfig("idrec-tower", sizes=(15,)))


def test_small_app_chain_is_generable():
    # the smallest documented instance: a nested application spine at 15 nodes
    sig = bench_signature()
    [(_, judgement)] = generate_family(BenchConfig("app-chain", sizes=(15,)))
    assert check(sig, judgement).ok


def test_fit_recovers_known_quadratic():
    sizes = [2 ** k for k in range(6, 14)]
    steps = [3 * n * n for n in sizes]
    slope, _ = fit_scaling(sizes, steps)
    assert abs(slope - 2.0) < 0.01


def test_fit_recovers_known_linear():
    sizes = [2 ** k for k in range(6, 14)]
    steps = [17 * n for n in sizes]
    slope, intercept = fit_scaling(sizes, steps)
    assert abs(slope - 1.0) < 0.01
    assert abs(math.exp(intercept) - 17) < 0.5


def test_fit_preconditions():
    with pytest.raises(ValueError):
        fit_scaling([1, 2, 3], [1, 4, 9])
    with pytest.raises(ValueError):
        fit_scaling([10, 20, 30, 40, 50], [10, 11, 12, 13, 14])


def test_run_bench_small_end_to_end():
    cfg = BenchConfig("conv-heavy", sizes=(256, 512, 1024, 2048, 4096, 8192, 16384, 32768))
    report = run_bench(cfg)
    assert report.passed
    assert 0.9 <= report.slope <= 2.3
    assert [r.median_steps for r in report.rows] == sorted(
        r.median_steps for r in report.rows
    )



def _rows(steps, ns):
    return [BenchRow("app-chain", s, s, s, n) for s, n in zip(steps, ns)]


def test_wall_slope_is_the_fit_of_ns_against_steps():
    steps = [2 ** k for k in range(8, 16)]
    assert abs(_wall_slope(_rows(steps, [300 * s for s in steps])) - 1.0) < 1e-9
    assert abs(_wall_slope(_rows(steps, [s * s for s in steps])) - 2.0) < 1e-9
    # times that do not track steps are fitted, not dropped
    flat = _wall_slope(_rows(steps, [10 ** 6 + s for s in steps]))
    assert 0 < flat < 0.1
    # too few rows, or steps spanning less than 100x: no fit
    assert _wall_slope(_rows(steps[:4], [300 * s for s in steps[:4]])) is None
    assert _wall_slope(_rows(steps[:6], [300 * s for s in steps[:6]])) is None


def test_run_bench_reports_wall_slope():
    cfg = BenchConfig("app-chain", sizes=tuple(2 ** k for k in range(8, 16)))
    report = run_bench(cfg)
    steps = [r.median_steps for r in report.rows]
    assert max(steps) >= 100 * min(steps)
    assert isinstance(report.wall_slope, float)
    assert math.isfinite(report.wall_slope)
