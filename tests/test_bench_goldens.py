"""The benchmark's corpus against its goldens: one default-seed pass of each
workload through bench/run.py's own pass and check, so that a change in the
emitted bytes fails here and not only when the benchmark runs.  Reads
bench/ and writes nothing."""

import json
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from grobfan import cli  # noqa: E402


@pytest.fixture(scope="module")
def goldens():
    with open(bench_run.GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_default_pass_matches_the_goldens(goldens, workload):
    seed = workloads.DEFAULT_SEED[workload]
    problems = workloads.corpus(workload, seed)
    _, results = bench_run.run_pass(cli, problems,
                                    workload == "polyhedral_roundtrip")
    assert len(results) == len(problems)
    assert bench_run.verify(workload, seed, results, goldens) == []
