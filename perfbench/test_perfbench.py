"""Tests of the benchmark's own code: python3 -m pytest perfbench -q"""

import dataclasses
import itertools
import sys

import pytest

import run

run.load_program()

import tracer  # noqa: E402
import workloads  # noqa: E402
from k2local import ff, series, symbols, witt  # noqa: E402


def cheap_local_cases(count):
    """Local-pairing cases over F_2 at m = 1, the cheapest in the mix."""
    pop = workloads.build_population("local-pairing")
    return [c for c in pop if c.label.startswith("q=2 m=1")][:count]


def test_same_seed_same_inputs_and_order():
    for name in workloads.WORKLOADS:
        a = workloads.build_population(name, 12)
        b = workloads.build_population(name, 12)
        assert [c.inputs for c in a] == [c.inputs for c in b]
        assert len({c.inputs for c in a}) == len(a)
    take = lambda seed: list(itertools.islice(run.pass_orders(50, seed), 3))
    assert take(7) == take(7)
    assert take(7) != take(8)
    assert all(sorted(o) == list(range(50)) for o in take(7))


def test_same_inputs_give_the_recorded_answers():
    answers = run.load_answers("local-pairing")
    cases = cheap_local_cases(6)
    _, _, done = run.run_pass(cases, range(len(cases)))
    assert run.verify(done, answers) == (sum(len(c.ops) for c in cases), 0,
                                         [])
    cli = workloads.build_population("cli-mix", 10)
    _, _, done = run.run_pass(cli, range(len(cli)))
    attempted, failed, problems = run.verify(done, run.load_answers("cli-mix"))
    assert (attempted, failed, problems) == (10, 0, [])


def test_corrupted_answer_is_counted_as_failed():
    cases = cheap_local_cases(4)
    answers = run.load_answers("local-pairing")
    _, _, done = run.run_pass(cases, range(len(cases)))
    key = str(cases[0].index)
    bad = dict(answers)
    bad[key] = ["1"] * len(answers[key])
    attempted, failed, problems = run.verify(done, bad)
    assert failed == len(cases[0].ops) and len(problems) == 1
    # a wrong result that also breaks the oracle
    case, results = done[0]
    flipped = results[0].components[0] + ff.make_field(2, 1).one
    wrong = [witt.WittVec(results[0].ring, (flipped,))] + results[1:]
    attempted, failed, problems = run.verify([(case, wrong)], answers)
    assert (attempted, failed) == (len(results), len(results))


def test_raising_op_is_counted_as_failed():
    case = cheap_local_cases(1)[0]
    broken = dataclasses.replace(case, ops=[lambda: 1 / 0] + case.ops[1:])
    _, _, done = run.run_pass([broken], [0])
    attempted, failed, problems = run.verify(
        done, run.load_answers("local-pairing"))
    assert failed == attempted == len(case.ops)
    assert "ZeroDivisionError" in problems[0]


def k2_namespaces():
    """Every value in every k2local module and class namespace, by id."""
    snap = {}
    for name, mod in sys.modules.items():
        if not name.startswith("k2local."):
            continue
        for key, val in vars(mod).items():
            snap[(name, key)] = id(val)
            if isinstance(val, type) and val.__module__ == name:
                for attr, fn in vars(val).items():
                    snap[(name, key, attr)] = id(fn)
    return snap


def test_wrappers_leave_no_trace():
    before = k2_namespaces()
    orig = series.invert
    tr = tracer.Tracer()
    tr.install()
    assert symbols.invert.__wrapped__ is orig
    assert series.invert.__wrapped__ is orig
    tr.uninstall()
    assert k2_namespaces() == before
    assert symbols.invert is orig
    cases = cheap_local_cases(2)
    run.run_pass(cases, range(len(cases)))
    assert all(p.calls == 0 for p in tr.probes.values())


def test_traced_pass_sees_imported_names():
    cases = cheap_local_cases(2)
    tr = tracer.Tracer()
    tr.install()
    try:
        run.run_pass(cases, range(len(cases)))
    finally:
        tr.uninstall()
    # symbols calls invert, dlog and wedge through names it imported
    assert tr.probes["series.invert"].calls > 0
    assert tr.probes["forms.wedge"].calls > 0
    values = tr.metrics(sum(len(c.ops) for c in cases), 1.0)
    assert set(values) == set(tracer.METRICS) | {"trace_overhead_ratio"}
    for p in tr.probes.values():
        assert p.self_s >= 0 and p.incl_s >= 0


def test_kept_ratio_on_hand_built_product():
    F = ff.make_field(2, 1)
    one = F.one
    # f = 1 + u + t exactly; g = 1 + u + u^2 known for u < 3 in row 0 and
    # for rows t < 1 only
    f = series.Laurent2(F, {0: {0: one, 1: one}, 1: {0: one}})
    g = series.Laurent2(F, {0: {0: one, 1: one, 2: one}}, 1, {0: 3})
    prod = f * g
    assert prod.t_prec == 1 and prod.u_prec == {0: 3}
    # row pairs inside the t-window: only (0, 0), with 2 * 3 = 6 pairs; the
    # pair u * u^2 lands at u^3, outside the known region
    assert tracer.kept_pairs(f, g, prod) == (6, 5)
    tr = tracer.Tracer()
    tr.install()
    try:
        f * g
    finally:
        tr.uninstall()
    ratio = tr.metrics(1, 1.0)["series.mul_kept_ratio"]["value"]
    assert ratio == pytest.approx(5 / 6)


def test_missing_layer_is_reported():
    tr = tracer.Tracer()
    tr.install()
    tr.uninstall()
    values = tr.metrics(1, 1.0)
    assert tracer.missing_layers("local-pairing", values) == \
        tracer.EXPECTED["local-pairing"]
