"""Tests of the benchmark's own code: generators, known answers, span
arithmetic and wrapper removal.

Run from the root of the repository:

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import ott  # noqa: E402
import ott._kernel  # noqa: E402
import ott.surface  # noqa: E402
import ott.terms  # noqa: E402
from ott.checker import CtxtWF, HasType, TypeWF  # noqa: E402
from ott.oracle import ResourceCapExceeded, oracle_derivable  # noqa: E402
from ott.terms import Signature  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from workloads import same  # noqa: E402


@pytest.fixture
def small_elab(monkeypatch):
    monkeypatch.setattr(workloads, "TRANSPORT_LINKS", 16)
    monkeypatch.setattr(workloads, "CHAIN_PATHS", 4)
    monkeypatch.setattr(workloads, "TELESCOPE_MAX", 3)


# -- generators ----------------------------------------------------------------

def test_script_is_deterministic_per_seed_and_differs_across_seeds():
    text, expected = workloads.script_text(7, items=300)
    assert (text, expected) == workloads.script_text(7, items=300)
    assert text != workloads.script_text(8, items=300)[0]
    assert len(expected) == 300
    rejections = sum(1 for _, verdict, _ in expected if verdict == "reject")
    assert rejections == 300 * 12 // 100


def _judgements_equal(a, b):
    return (len(a.ctx) == len(b.ctx)
            and all(same(x, y) for x, y in zip(a.ctx, b.ctx))
            and same(a.term, b.term) and same(a.ty, b.ty))


def test_large_terms_are_deterministic_per_seed_and_differ_across_seeds():
    one, again, other = (workloads.LargeTermsWorkload(s) for s in (3, 3, 4))
    assert all(_judgements_equal(x[1], y[1]) for x, y in zip(one.items, again.items))
    assert not all(_judgements_equal(x[1], y[1]) for x, y in zip(one.items, other.items))
    # the families come from ott.bench and sit near the requested size
    for size in one.sizes[:4]:
        assert 0.9 * workloads.LARGE_NODES <= size <= 1.1 * workloads.LARGE_NODES


def test_elab_inputs_are_deterministic_per_seed_and_differ_across_seeds(small_elab):
    def terms(w):  # the transport family, then every expected stated type
        return [w.items[0][1][3]] + [want for _, _, want in w.items]

    one, again, other = (terms(workloads.ElabWorkload(s)) for s in (3, 3, 5))
    assert all(same(a, b) for a, b in zip(one, again))
    assert not all(same(a, b) for a, b in zip(one, other))


def test_towers_are_built_in_linear_time_with_tracked_sizes():
    import random
    tower, n = workloads.exp_tower(50)
    assert ott.terms.size(tower) == n
    t, m, ks = workloads.add_tower(random.Random(1), 500)
    assert ott.terms.size(t) == m and 492 <= m <= 500
    assert same(workloads._tower_from(ks, workloads._TWO), t)


# -- known answers -------------------------------------------------------------

def _core_judgement(item_text):
    """Resolve a script's last item to a core judgement, as the CLI would."""
    script = ott.surface.parse("\n".join(workloads._PRELUDE) + "\n" + item_text)
    sig, defs = Signature(), {}
    for item in script.items[:-1]:
        if isinstance(item, ott.surface.Postulate):
            sig = (sig.with_type(item.name) if item.ty is None
                   else sig.with_const(item.name, ott.surface.to_core(item.ty, [], sig, defs)))
        else:
            defs[item.name] = ott.surface.to_core(item.body, [], sig, defs)
    item = script.items[-1]
    names, ctx = [], []
    for name, ty in item.bindings:
        ctx.append(ott.surface.to_core(ty, names, sig, defs))
        names.append(name)
    ctx = tuple(ctx)
    if item.form == "ctxt":
        return sig, CtxtWF(ctx)
    ty = ott.surface.to_core(item.ty, names, sig, defs)
    if item.form == "type":
        return sig, TypeWF(ctx, ty)
    return sig, HasType(ctx, ott.surface.to_core(item.term, names, sig, defs), ty)


def _as_check(template):
    """A check item stating a template's known answer: check items as they
    are, accepted infer items as a check against the expected type."""
    _, text, kind, verdict, printed = template
    if kind == "infer" and verdict == "accept":
        return "check" + text[len("infer"):] + " : " + printed, verdict
    return text, verdict


_CHECKS = [_as_check(t) for t in workloads._TEMPLATES
           if t[2] == "check" or (t[2] == "infer" and t[3] == "accept")]


@pytest.mark.parametrize("template", _CHECKS, ids=[t[0][:40] for t in _CHECKS])
def test_check_templates_agree_with_the_oracle(template):
    text, verdict = template
    slots = dict(x="x", y="y", z="z", p="p", c="c0", d="d0")
    sig, judgement = _core_judgement(text.format(**slots))
    try:
        derivable = oracle_derivable(sig, judgement, max_term=6)
    except ResourceCapExceeded:
        pytest.skip("beyond the oracle's size caps")
    assert derivable == (verdict == "accept")


def test_script_known_answers_hold_for_a_small_script(tmp_path):
    w = workloads.ScriptWorkload(11, str(tmp_path), items=200)
    v = w.verify(w.run_pass())
    assert v.attempted == 200 and v.failed == 0


def test_a_wrong_answer_is_counted_as_failed(tmp_path):
    w = workloads.ScriptWorkload(11, str(tmp_path), items=200)
    kind, verdict, printed = w.expected[0]
    w.expected[0] = (kind, "reject" if verdict == "accept" else "accept", printed)
    assert w.verify(w.run_pass()).failed == 1


def test_large_terms_verdicts_match_construction():
    w = workloads.LargeTermsWorkload(2)
    v = w.verify(w.run_pass())
    assert v.failed == 0
    rows = v.extra["ns_per_step"]
    assert rows["deep-context"] > 10 * rows["app-chain"]


def test_elab_stated_types_match_the_hand_built_ones(small_elab):
    w = workloads.ElabWorkload(4)
    v = w.verify(w.run_pass())
    assert v.attempted == 1 + 3 + 3 and v.failed == 0


# -- spans ---------------------------------------------------------------------

def _span(name, parent, start, end, **agg):
    s = layers.Span(name, parent, start, end)
    for op, (calls, ns, units) in agg.items():
        s.agg[op.replace("__", ".")] = [calls, ns, units]
    return s


def test_self_time_arithmetic_on_a_synthetic_tree():
    root = _span("pass", None, 0, 100)
    main = _span("cli.main", root, 5, 95)
    parse = _span("surface.parse", main, 10, 40)
    check = _span("checker.check", main, 50, 80, kernel__eq_lazy=(3, 12, 30))
    inner = _span("derived.transport", main, 82, 90)
    recheck = _span("checker.check", inner, 83, 88, kernel__inst=(1, 2, 9))
    spans = [parse, check, recheck, inner, main, root]
    selfs = layers.self_times(spans)
    assert selfs[id(root)] == 100 - 90
    assert selfs[id(main)] == 90 - 30 - 30 - 8
    assert selfs[id(parse)] == 30
    assert selfs[id(check)] == 30 - 12
    assert selfs[id(inner)] == 8 - 5
    assert selfs[id(recheck)] == 5 - 2

    check.units = recheck.units = 10
    m = layers.summarize(spans)
    assert m["checker.check_calls"] == 2 and m["checker.steps"] == 20
    assert m["checker.self_s"] == pytest.approx((18 + 3) / 1e9)
    assert m["derived.recheck_calls"] == 1
    assert m["derived.recheck_s"] == pytest.approx(5 / 1e9)
    assert m["derived.elab_calls"] == 1
    assert m["cli.self_s"] == pytest.approx(22 / 1e9)
    assert m["kernel.eq_lazy_steps"] == 30 and m["kernel.inst_nodes"] == 9


def test_nested_spans_of_one_name_count_once():
    root = _span("pass", None, 0, 100)
    outer = _span("derived.transitivity", root, 0, 50)
    nested = _span("derived.transport", outer, 10, 40)
    m = layers.summarize([nested, outer, root])
    assert m["derived.elab_calls"] == 1
    assert m["derived.elab_s"] == pytest.approx(50 / 1e9)


# -- wrappers ------------------------------------------------------------------

def _bound_attributes():
    out = {}
    for mod in (ott.cli, ott.checker, ott.derived, ott.kernel):
        for name, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, name)] = value
    for name in layers.DERIVED_METHODS:
        out[("TelescopePi", name)] = ott.derived.TelescopePi.__dict__[name]
    return out


def test_wrappers_are_removed_after_a_traced_pass(tmp_path):
    before = _bound_attributes()
    w = workloads.ScriptWorkload(5, str(tmp_path), items=200)
    plain = w.verify(w.run_pass())
    tracer = layers.Tracer()
    tracer.install(ott)
    try:
        assert ott.kernel.eq_lazy is not ott._kernel.eq_lazy
        tracer.begin()
        p = w.run_pass()
        tracer.end()
    finally:
        tracer.remove()
    traced = w.verify(p)
    summary = layers.summarize(tracer.spans, tracer.gc_ns, tracer.gc_count)
    assert summary["surface.parse_s"] > 0 and summary["kernel.eq_lazy_calls"] > 0
    assert summary["derived.elab_calls"] > 0
    # tracing does not perturb behaviour
    assert traced.fingerprint == plain.fingerprint and traced.failed == 0

    assert _bound_attributes() == before
    assert ott.kernel.eq_lazy is ott._kernel.eq_lazy
    seen = len(tracer.spans)
    w.run_pass()
    assert len(tracer.spans) == seen


def test_traced_elab_counts_match_the_workloads_own(small_elab):
    w = workloads.ElabWorkload(6)
    tracer = layers.Tracer()
    tracer.install(ott)
    try:
        tracer.begin()
        p = w.run_pass()
        tracer.end()
    finally:
        tracer.remove()
    v = w.verify(p)
    summary = layers.summarize(tracer.spans)
    assert summary["derived.emitted_nodes"] == v.extra["expect_traced"]["derived.emitted_nodes"]
    assert summary["derived.recheck_calls"] == summary["checker.check_calls"]
    assert summary["derived.growth"] > 1


# -- the command ---------------------------------------------------------------

def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "script", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_benchmark_file_lists_every_metric_the_runner_reports():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    summary = layers.summarize([layers.Span("pass", None, 0, 1)])
    per_layer = {m["name"] for m in bench["per_layer"]}
    assert set(summary) - {"surface.parse_bytes"} <= per_layer


def test_each_segment_is_taken_at_its_median_at_the_reference_speed():
    import run
    from workloads import Pass

    usual, slow = run.REFERENCE_NS, 2 * run.REFERENCE_NS
    passes = [(Pass(0, [10, 13, 20], 22, None, (usual, usual)), None, None),
              (Pass(100, [108, 114, 118], 121, None, (slow, slow)), None, None),
              (Pass(200, [206, 210, 217], 220, None, (usual, usual)), None, None)]
    metrics, gaps = run.end_to_end(passes)
    # scaled segments: first verdict 10|4|6, gaps 3|3|4 and 7|2|7,
    # tail 2|1.5|3; scaled passes 22|10.5|20
    assert gaps == 2
    assert metrics == pytest.approx({"first_verdict_s": 6 / 1e9, "run_s": 20 / 1e9,
                                     "verdict_p50_ms": 3 / 1e6, "verdict_p99_ms": 7 / 1e6})


def test_probes_are_interpolated_across_a_pass():
    import run
    from workloads import Pass

    usual = run.REFERENCE_NS
    # the machine slows from the usual speed to a third of it during the pass;
    # the segments' middles sit at a quarter and three quarters of it
    p = Pass(0, [50], 100, None, (usual, 3 * usual))
    assert run.scaled_segments(p) == pytest.approx([50 / 1.5, 50 / 2.5])
    assert run.speed_factor(usual, 3 * usual) == 0.5
