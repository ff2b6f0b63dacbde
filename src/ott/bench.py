"""Empirical scaling harness for the checker.

Four judgement families of controlled size are generated, checked, and the
instrumented step counts fitted against size on a log-log scale.  The claim
under test is the quadratic ceiling: the fitted slope must stay at or below
2.3 (allowing allocation noise while refuting anything super-quadratic).
Steps, not wall time, gate the fit.  Wall time is reported alongside, with
``wall_slope``, the log-log slope of median nanoseconds against steps: about
1 when wall time tracks the step counter, which the cost model requires; it
is reported, not gated.

The families pin down the checker's distinct cost paths:

  app-chain     nested eliminations, four recursive obligations per node
  lambda-chain  introductions compared against a growing product type, the
                annotations alternating between two disjoint copies of it
  idrec-tower   identity eliminations with motive instantiation per node
  conv-heavy    computation witnesses: zero recursion, comparison-dominated

Every generated judgement is derivable by construction and verified once at
generation time; sizes land within ten percent of the request.  Generation is
closed-form, hence deterministic: ``BenchConfig.seed`` is accepted and not
used.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional

from . import kernel as _kernel
from .checker import HasType, Judgement, check
from .terms import (
    App, Const, Id, IdRec, Lambda, NatConvSucc, NatRec, NatTy, Pi,
    Refl, Signature, Succ, Var, Zero, size,
)

__all__ = [
    "FAMILIES", "BenchConfig", "BenchRow", "BenchReport",
    "bench_signature", "generate_family", "run_bench", "fit_scaling",
]

FAMILIES = ("app-chain", "lambda-chain", "idrec-tower", "conv-heavy")

DEFAULT_SIZES = tuple(2 ** k for k in range(10, 18))


@dataclass(frozen=True)
class BenchConfig:
    """One family at the given sizes; ``seed`` is accepted and not used."""
    family: str
    sizes: tuple = DEFAULT_SIZES
    repetitions: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        if list(self.sizes) != sorted(set(self.sizes)):
            raise ValueError("sizes must be strictly increasing")
        if self.repetitions < 1:
            raise ValueError("repetitions must be at least 1")


@dataclass(frozen=True)
class BenchRow:
    family: str
    requested: int
    judgement_size: int
    median_steps: int
    median_ns: int


@dataclass(frozen=True)
class BenchReport:
    family: str
    backend: str
    rows: tuple
    slope: float
    intercept: float
    passed: bool
    wall_slope: Optional[float]  # None when the steps cannot be fitted


def bench_signature() -> Signature:
    return Signature().with_type("A").with_const("c", Const("A"))


_A = Const("A")
_C = Const("c")


def _nat(n: int):
    t = Zero
    for _ in range(n):
        t = Succ(t)
    return t


def _app_chain(n: int) -> Judgement:
    # each link is app{A, x.A}(identity, .): 7 nodes
    depth = max(1, round((n - 2) / 7))
    lam_id = Lambda(_A, _A, Var(0))
    t = _C
    for _ in range(depth):
        t = App(_A, _A, lam_id, t)
    return HasType((), t, _A)


def _lambda_chain(n: int) -> Judgement:
    # terms carry their full product annotations, so the term is quadratic in
    # the nesting depth: judgement size = d*d + 4d + 2
    depth = max(1, int((math.isqrt(4 * n + 8) - 4) // 2))
    while depth * depth + 4 * depth + 2 < 0.9 * n:
        depth += 1
    # the lambdas' annotations alternate between two disjoint copies of the
    # product chain, and the type is stated on the copy the outermost lambda
    # does not use, so no comparison meets one object on both sides
    chains = [_A, _A]
    t = _C
    for k in range(depth):
        t = Lambda(_A, chains[k % 2], t)
        chains = [Pi(_A, c) for c in chains]
    return HasType((), t, chains[depth % 2])


def _idrec_tower(n: int) -> Judgement:
    # motive: equality of the two endpoints; base: reflexivity
    depth = max(1, round((n - 7) / 11))
    motive = Id(_A, Var(2), Var(1))
    base = Refl(_A, Var(0))
    t = Refl(_A, _C)
    for _ in range(depth):
        t = IdRec(_A, motive, _C, _C, t, base)
    return HasType((), t, Id(_A, _C, _C))


def _conv_heavy(n: int) -> Judgement:
    # a recursor computation witness over a large literal: the stated
    # equation mentions the scrutinee three times, so checking is one long
    # comparison with zero recursive premises for the witness itself
    k = max(1, round((n - 22) / 3))
    motive, zcase, scase = NatTy, Zero, Succ(Var(0))
    m = _nat(k)
    term = NatConvSucc(motive, zcase, scase, m)
    ty = Id(
        NatTy,
        NatRec(motive, zcase, scase, Succ(m)),
        Succ(NatRec(motive, zcase, scase, m)),
    )
    return HasType((), term, ty)


_GENERATORS = {
    "app-chain": _app_chain,
    "lambda-chain": _lambda_chain,
    "idrec-tower": _idrec_tower,
    "conv-heavy": _conv_heavy,
}


def _judgement_size(j: Judgement) -> int:
    n = sum(size(e) for e in j.ctx)
    n += size(j.term) + size(j.ty)
    return n


def generate_family(cfg: BenchConfig):
    """Judgements for each configured size: derivable by construction
    (verified here), sized within ten percent of the request."""
    sig = bench_signature()
    out = []
    gen = _GENERATORS[cfg.family]
    for n in cfg.sizes:
        j = gen(n)
        actual = _judgement_size(j)
        if not 0.9 * n <= actual <= 1.1 * n:
            raise ValueError(
                f"size {n} is too small for family {cfg.family}: "
                f"nearest shape has {actual} nodes"
            )
        report = check(sig, j)
        if not report.ok:
            raise AssertionError(
                f"{cfg.family}@{n}: generated judgement rejected "
                f"({report.reason} at {report.locus})"
            )
        out.append((n, j))
    return out


def fit_scaling(sizes, steps) -> tuple[float, float]:
    """Least-squares slope and intercept of log(steps) against log(size).

    Requires at least 5 points whose step counts span two orders of
    magnitude.
    """
    if len(sizes) < 5:
        raise ValueError("need at least 5 sizes to fit a slope")
    if max(steps) < 100 * min(steps):
        raise ValueError("step counts must span two orders of magnitude")
    return _loglog_fit(sizes, steps)


def _loglog_fit(xs, ys) -> tuple[float, float]:
    """Least-squares slope and intercept of log(ys) against log(xs)."""
    xs = [math.log(x) for x in xs]
    ys = [math.log(y) for y in ys]
    mean_x = sum(xs) / len(xs)
    mean_y = sum(ys) / len(ys)
    var = sum((x - mean_x) ** 2 for x in xs)
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = cov / var
    return slope, mean_y - slope * mean_x


SLOPE_LIMIT = 2.3


def _wall_slope(rows) -> Optional[float]:
    """The log-log slope of median ns against median steps, or None with
    fewer than 5 rows or steps spanning less than two orders of magnitude."""
    steps = [r.median_steps for r in rows]
    if len(rows) < 5 or max(steps) < 100 * min(steps):
        return None
    return _loglog_fit(steps, [r.median_ns for r in rows])[0]


def run_bench(cfg: BenchConfig) -> BenchReport:
    """Generate, check and fit one family; ``passed`` is the quadratic gate."""
    sig = bench_signature()
    rows = []
    for requested, j in generate_family(cfg):
        steps_seen = []
        wall = []
        for _ in range(cfg.repetitions):
            report = check(sig, j)
            assert report.ok
            steps_seen.append(report.steps)
            wall.append(report.nanoseconds)
        assert len(set(steps_seen)) == 1, "step counts must be deterministic"
        rows.append(BenchRow(
            cfg.family, requested, _judgement_size(j),
            int(statistics.median(steps_seen)), int(statistics.median(wall)),
        ))
    slope, intercept = fit_scaling(
        [r.judgement_size for r in rows], [r.median_steps for r in rows]
    )
    return BenchReport(
        cfg.family, _kernel.BACKEND, tuple(rows),
        slope, intercept, slope <= SLOPE_LIMIT, _wall_slope(rows),
    )
