"""Tests of the benchmark itself: span arithmetic, wrapper restoration,
corpus determinism, and the fixtures' agreement with the library
constructions of the acceptance suite."""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run as bench_run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from grobfan import cli, division, fans, groebner, orders  # noqa: E402
from grobfan.rings import Element  # noqa: E402
from grobfan.fans import enumerate_cones, full_subspace  # noqa: E402
from grobfan.groebner import homogenized_ideal  # noqa: E402
from grobfan.localfan import assemble_local_fan  # noqa: E402


def _fixture(name):
    return dict(workloads.corpus("weyl_fixtures", 42))[name]


# --- span arithmetic -------------------------------------------------------

def test_self_and_total_time_on_a_synthetic_span_tree():
    names = ["a", "b", "c"]
    #  0 a [0, 10]
    #  1   b [1, 4]
    #  2   c [5, 9]
    #  3     b [6, 7]
    #  4 b [20, 30]
    #  5   b [21, 25]     recursive: inside another b
    #  6     c [22, 23]
    name_ids = [0, 1, 2, 1, 1, 1, 2]
    parents = [-1, 0, 0, 2, -1, 4, 5]
    starts = [0.0, 1.0, 5.0, 6.0, 20.0, 21.0, 22.0]
    ends = [10.0, 4.0, 9.0, 7.0, 30.0, 25.0, 23.0]
    tot = spans.span_totals(names, name_ids, parents, starts, ends)
    assert tot["a"] == (1, 10.0 - 3.0 - 4.0, 10.0)
    # b self: 3 + 1 + (10 - 4) + (4 - 1); total counts the outer b of the
    # recursion once: 3 + 1 + 10
    assert tot["b"] == (4, 3.0 + 1.0 + 6.0 + 3.0, 14.0)
    assert tot["c"] == (2, (4.0 - 1.0) + 1.0, 5.0)


def test_ratios_are_measured_at_their_boundaries():
    tracer = spans.Tracer()
    ids = {name: k for k, name in enumerate(tracer.names)}
    rows = [  # name, parent, flag
        ("fans.enumerate_cones", -1, 3),
        ("fans.flip", 0, 0),
        ("fans.groebner_cone", 1, 0),
        ("fans.groebner_cone", 1, 0),
        ("fans.flip", 0, 0),
        ("fans.groebner_cone", 4, 0),
        ("groebner.buchberger", -1, 0),
        ("division.divide", 6, 1),
        ("division.divide", 6, 0),
        ("groebner.interreduce", 6, 0),
        ("division.divide", 9, 1),
    ]
    for i, (name, parent, flag) in enumerate(rows):
        tracer.name_ids.append(ids[name])
        tracer.parents.append(parent)
        tracer.problems.append(0)
        tracer.flags.append(flag)
        tracer.starts.append(float(i))
        tracer.ends.append(float(i) + 0.5)
    m = spans.layer_metrics(tracer)
    assert m["fans.flip.calls"] == 2
    assert m["fans.flip.new_cone_frac"] == 1.0
    assert m["fans.flip.groebner_cones_per_flip"] == 1.5
    # the divide under interreduce is not called from buchberger
    assert m["division.divide.zero_remainder_frac"] == 0.5


# --- wrappers --------------------------------------------------------------

def _bindings():
    return {
        "fans.buchberger": fans.buchberger,
        "groebner.buchberger": groebner.buchberger,
        "groebner.divide": groebner.divide,
        "division.divide": division.divide,
        "division.leading_data": division.leading_data,
        "cli.enumerate_cones": cli.enumerate_cones,
        "cli.validate_fan": cli.validate_fan,
        "cli.run": cli.run,
        "compare": orders.MatrixOrder.__dict__["compare"],
        "mul": Element.__dict__["__mul__"],
    }


def test_wrappers_are_bound_everywhere_and_restored():
    before = _bindings()
    tracer = spans.Tracer()
    problems = [("euler_local", _fixture("euler_local"))]
    with tracer:
        during = _bindings()
        assert fans.buchberger is groebner.buchberger
        assert division.divide is groebner.divide
        assert all(during[k] is not before[k] for k in before)
        _, results = bench_run.run_pass(cli, problems, False, tracer)
    assert results[0].error is None
    assert _bindings() == before
    assert spans.originals_in_place()
    calls = spans.span_totals(tracer.names, tracer.name_ids, tracer.parents,
                              tracer.starts, tracer.ends)
    assert calls["cli.run"][0] == 1
    assert calls["groebner.buchberger"][0] > 0
    assert set(tracer.problems) == {0}


def test_wrappers_are_restored_after_an_error():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with spans.Tracer():
            raise ZeroDivisionError
    assert _bindings() == before
    assert spans.originals_in_place()


def test_traced_metrics_match_the_benchmark_definition():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    tracer = spans.Tracer()
    with tracer:
        bench_run.run_pass(cli, [("euler_local", _fixture("euler_local"))],
                           False, tracer)
    produced = set(spans.layer_metrics(tracer)) | {"trace.overhead_frac"}
    assert produced == declared


# --- corpora ---------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    for seed in (workloads.DEFAULT_SEED[workload], 0, 7):
        assert workloads.corpus(workload, seed) == \
            workloads.corpus(workload, seed)
    if workload != "weyl_fixtures":
        assert workloads.corpus(workload, 0) != workloads.corpus(workload, 7)


def test_default_local_corpus_is_the_property_suite():
    import random
    import test_localfan
    rng = random.Random(42)
    texts = dict(workloads.corpus("poly_local_random", 42))
    assert len(texts) == 50
    for i in range(50):
        ideal = test_localfan._random_ideal(rng, rng.choice([1, 2, 2, 3]))
        spec = cli.parse_problem(texts["plr-%02d" % i])
        assert spec.sig == ideal.sig
        assert spec.generators == ideal.generators


def _proportional(f, g):
    if set(f.terms) != set(g.terms):
        return False
    e = next(iter(f.terms))
    ratio = f.terms[e] / g.terms[e]
    return all(f.terms[k] == ratio * g.terms[k] for k in f.terms)


def test_other_seeds_keep_the_mathematics():
    for workload in ("poly_local_random", "polyhedral_roundtrip"):
        base = dict(workloads.corpus(workload,
                                     workloads.DEFAULT_SEED[workload]))
        other = workloads.corpus(workload, 11)
        assert [pid for pid, _ in other] != sorted(base)
        assert sorted(pid for pid, _ in other) == sorted(base)
        for pid, text in other:
            a = cli.parse_problem(text)
            b = cli.parse_problem(base[pid])
            assert a.sig == b.sig and a.mode == b.mode
            if workload == "polyhedral_roundtrip":
                assert set(a.generators[0].terms) == \
                    set(b.generators[0].terms)
            else:
                assert all(_proportional(f, g)
                           for f, g in zip(a.generators, b.generators))


# --- fixtures against the library constructions ---------------------------

def test_fixtures_parse_to_the_acceptance_ideals():
    import test_acceptance as acc
    for name, n in (("hypergeometric_n1", 1), ("hypergeometric_n2", 2)):
        spec = cli.parse_problem(_fixture(name))
        assert spec.generators == acc._hypergeometric_ideal(n).generators
    rows = [tuple(r) for r in acc._bs_subspace().rows]
    for name in ("two_parameter_global", "two_parameter_local"):
        spec = cli.parse_problem(_fixture(name))
        assert spec.generators == acc._bs_ideal().generators
        assert [tuple(r) for r in spec.rows] == rows
        assert spec.region == "wloc"


def _cli_maximal(name):
    text = _fixture(name)
    doc = json.loads(cli.emit(cli.run(cli.parse_problem(text), text=text)))
    return bench_run.maximal_summary(doc)


def test_cli_and_library_reach_the_same_maximal_cones():
    # hypergeometric n=2 takes about half a minute; the benchmark checks
    # its count, 40, on every pass
    import test_acceptance as acc
    i1 = acc._hypergeometric_ideal(1)
    lib_n1 = len(enumerate_cones(homogenized_ideal(i1, mode="h11"),
                                 full_subspace(i1.sig, "wglob")))
    bs = acc._bs_ideal()
    lib_global = len(enumerate_cones(homogenized_ideal(bs, mode="h11"),
                                     acc._bs_subspace()))
    lf = assemble_local_fan(bs, acc._bs_subspace())
    lib_local = sorted(len(cl.members) for cl in lf.classes
                       if cl.closure.dim == 2)
    assert lib_n1 == _cli_maximal("hypergeometric_n1") == 2
    assert lib_global == _cli_maximal("two_parameter_global") == 2
    assert lib_local == _cli_maximal("two_parameter_local") == [2]


# --- report ----------------------------------------------------------------

@pytest.mark.parametrize("trace", (0, 1))
def test_report_ends_in_one_json_line(trace, capsys):
    metrics = {"wall_s": 1.5} if not trace else {
        "fans.flip.calls": 3, "trace.overhead_frac": 0.02}
    report = {
        "workload": "weyl_fixtures", "seed": 1, "trace": trace,
        "environment": dict.fromkeys(
            ("python", "qq_backend", "nproc", "cpu_model",
             "loadavg_1m_start", "loadavg_1m_end"), "x"),
        "digest": "d", "attempted": 5, "failed": 1, "fail_frac": 0.2,
        "failures": ["euler_local: raised ValueError: v"],
        "metrics": metrics,
        "below_cli_run_by_total_s": [["fans.flip", 2.0],
                                     ["groebner.buchberger", 1.0]],
    }
    bench_run.print_report(report, {k: bench_run.unit_of(k)
                                    for k in metrics})
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False
    assert (last["attempted"], last["failed"]) == (5, 1)
    assert set(last["metrics"]) == set(metrics)


# --- host speed ------------------------------------------------------------

class _FakeSampler(speed.SpeedSampler):
    def __init__(self, samples):
        super().__init__()
        for start, dur in samples:
            self.starts.append(start)
            self.durations.append(dur)


def test_reference_units_take_off_sampler_time_and_use_local_speed():
    # problem A [0, 10): six samples of 0.1 s; problem B [10, 11): one
    # sample of 0.3 s, too few, so B uses the pass mean (0.9 / 7)
    samples = [(float(t), 0.1) for t in range(6)] + [(10.5, 0.3)]
    units = speed.in_reference_units([(0.0, 10.0), (10.0, 11.0)],
                                     _FakeSampler(samples))
    assert units[0] == pytest.approx((10.0 - 0.6) / 0.1)
    assert units[1] == pytest.approx((1.0 - 0.3) / (0.9 / 7))


def test_speed_sampler_samples_and_restores_the_alarm():
    import signal
    import time
    before = signal.getsignal(signal.SIGALRM)
    with speed.SpeedSampler() as sampler:
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            speed.reference_loop()
    assert len(sampler.durations) >= 3
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
