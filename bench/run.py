"""grobfan benchmark: end-to-end metrics per workload, or a traced per-layer
run.

    python3 bench/run.py --workload weyl_fixtures --seed 42 --seconds 40
    python3 bench/run.py --workload poly_local_random --trace 1
    python3 bench/run.py                      # every workload, one by one

Load model: a closed loop with one client.  One process takes one problem
at a time through the CLI's own pipeline (cli.parse_problem -> cli.run ->
cli.emit, then cli.check_fan_document on the emitted document for
polyhedral_roundtrip) and starts the next only when the last is done.  It
repeats whole passes over the corpus while another pass still fits in
--seconds, and reports medians over passes.

Untraced (--trace 0), the last line of output is a JSON object with
wall_kref, slowest_problem_kref, setup_s and peak_rss_mb; the two kref
times are in units of the host's speed at the moment (see speed.py), and
the raw wall times are printed beside them.  Traced (--trace 1), the
process runs one untraced pass and then one pass with spans recorded at
every layer boundary (see spans.py), and reports the per-layer metrics.
Every output is checked against bench/goldens.json; see README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import speed  # noqa: E402
import workloads  # noqa: E402

GOLDENS = os.path.join(HERE, "goldens.json")
OUT_DIR = os.path.join(HERE, "out")
SETUP_SAMPLES = 11

# Maximal-cone counts of the library constructions in
# tests/test_acceptance.py, which the CLI parses of the fixtures must reach.
# For the local fan: the member counts of its top-dimensional classes.
EXPECTED_MAXIMAL = {
    "hypergeometric_n1": 2,
    "hypergeometric_n2": 40,
    "two_parameter_global": 2,
    "two_parameter_local": [2],
}

# The layers below fan orchestration: fans and localfan call into these,
# so their spans enclose, and outrank, the kernel spans they drive.
KERNEL_LAYERS = ("rings", "orders", "division", "groebner", "polyhedra")

END_TO_END_UNITS = {"wall_kref": "kref", "slowest_problem_kref": "kref",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class Result:
    __slots__ = ("pid", "start", "end", "out", "check", "error")

    def __init__(self, pid, start, end, out, check, error):
        self.pid = pid
        self.start = start
        self.end = end
        self.out = out
        self.check = check
        self.error = error


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def canonical(doc):
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


def content_sha256(doc):
    """Digest of an emitted document without its provenance, which holds
    the input text's hash; what is left is the fan itself."""
    return sha256(canonical({k: v for k, v in doc.items()
                             if k != "provenance"}))


def run_pass(cli, problems, roundtrip, tracer=None):
    """One pass over the corpus: (wall seconds, [Result])."""
    results = []
    t_pass = time.perf_counter()
    for idx, (pid, text) in enumerate(problems):
        if tracer is not None:
            tracer.problem = idx
        t0 = time.perf_counter()
        out = check = error = None
        try:
            doc = cli.run(cli.parse_problem(text), text=text)
            out = cli.emit(doc)
            if roundtrip:
                back = json.loads(out)
                ok, _ = cli.check_fan_document(back)
                check = (ok, cli.emit(back) == out)
        except Exception as e:  # a failing problem is counted, not fatal
            error = "%s: %s" % (type(e).__name__, e)
        results.append(Result(pid, t0, time.perf_counter(), out, check,
                              error))
    return time.perf_counter() - t_pass, results


def maximal_summary(doc):
    """Maximal-cone count of a global fan; member counts of the
    top-dimensional classes of a local fan."""
    top = doc["parameter_dim"]
    cones = [c for c in doc["cones"] if c["dim"] == top]
    if "classes" not in doc:
        return len(cones)
    members = {cl["id"]: cl["members"] for cl in doc["classes"]}
    return sorted(members[c["class"]] for c in cones if "class" in c)


def verify(workload, seed, results, goldens):
    """(problem id, message) for each failed check of one pass."""
    verbatim = seed == workloads.DEFAULT_SEED[workload]
    failures = []
    for r in results:
        if r.error is not None:
            failures.append((r.pid, "raised " + r.error))
            continue
        golden = goldens[workload][r.pid]
        doc = json.loads(r.out)
        if canonical(doc) != r.out:
            failures.append((r.pid, "emitted bytes are not canonical JSON"))
        if content_sha256(doc) != golden["content_sha256"]:
            failures.append((r.pid, "fan differs from its golden"))
        if verbatim and sha256(r.out) != golden["emit_sha256"]:
            failures.append((r.pid, "emitted bytes differ from the golden"))
        if r.check is not None and r.check != (True, True):
            failures.append((r.pid, "check-fan gave ok=%s, same bytes=%s"
                             % r.check))
        expected = EXPECTED_MAXIMAL.get(r.pid)
        if expected is not None:
            got = maximal_summary(doc)
            if got != expected:
                failures.append((r.pid, "maximal cones %s, expected %s"
                                 % (got, expected)))
    return failures


def digest(results):
    """One digest of a pass's emitted bytes, to compare two commits run
    with the same seed."""
    lines = sorted("%s %s\n" % (r.pid, sha256(r.out) if r.out else "-")
                   for r in results)
    return sha256("".join(lines).encode("utf-8"))


def environment():
    from grobfan.rational import QQ
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "qq_backend": "%s.%s" % (QQ.__module__, QQ.__name__),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
    }


def setup_samples(workload, seed, count):
    """Wall times of fresh processes that import grobfan, build the corpus
    and exit."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL,
                       timeout=120)
        samples.append(time.perf_counter() - t0)
    return samples


def measure(workload, seed, seconds):
    """Untraced passes for about ``seconds``; returns (metrics, results of
    every pass, extra report fields)."""
    from grobfan import cli
    problems = workloads.corpus(workload, seed)
    roundtrip = workload == "polyhedral_roundtrip"
    # half the set-up samples before the passes and half after, so that
    # their median spans the run rather than one moment of the host
    setup = setup_samples(workload, seed, SETUP_SAMPLES // 2)
    walls, passes = [], []
    with speed.SpeedSampler() as sampler:
        start = time.perf_counter()
        while True:
            wall, results = run_pass(cli, problems, roundtrip)
            walls.append(wall)
            passes.append(results)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(walls) > seconds:
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup += setup_samples(workload, seed, SETUP_SAMPLES - len(setup))
    kref = [[u / 1000.0 for u in speed.in_reference_units(
        [(r.start, r.end) for r in results], sampler)] for results in passes]
    secs = [[r.end - r.start - sampler.window(r.start, r.end)[1]
                 for r in results] for results in passes]

    def per_problem(table):
        # each problem's median over passes
        return {pid: statistics.median(row[i] for row in table)
                for i, (pid, _) in enumerate(problems)}

    problem_kref, problem_s = per_problem(kref), per_problem(secs)
    metrics = {
        "wall_kref": statistics.median(sum(row) for row in kref),
        "slowest_problem_kref": max(problem_kref.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    extra = {
        "wall_s": statistics.median(sum(row) for row in secs),
        "slowest_problem_s": max(problem_s.values()),
        "pass_walls_s": walls,
        "problem_s": problem_s,
        "problem_kref": problem_kref,
        "speed_samples": len(sampler.durations),
        "mean_reference_s": (sum(sampler.durations)
                             / len(sampler.durations)),
    }
    return metrics, passes, extra


def measure_traced(workload, seed):
    """One untraced pass, then one traced pass; returns (per-layer metrics,
    results of both passes, extra report fields)."""
    import spans
    from grobfan import cli
    problems = workloads.corpus(workload, seed)
    roundtrip = workload == "polyhedral_roundtrip"
    plain_wall, plain = run_pass(cli, problems, roundtrip)
    tracer = spans.Tracer()
    with tracer:
        traced_wall, traced = run_pass(cli, problems, roundtrip, tracer)
    if not spans.originals_in_place():
        raise RuntimeError("a traced wrapper was left in place")
    metrics = spans.layer_metrics(tracer)
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    ranking = spans.inclusive_ranking(tracer)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_file = os.path.join(OUT_DIR, "spans-%s-seed%d.tsv.gz"
                             % (workload, seed))
    tracer.write(span_file)
    extra = {
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer),
        "span_file": os.path.relpath(span_file, ROOT),
        "below_cli_run_by_total_s": [[name, total]
                                     for total, name in ranking],
    }
    return metrics, [plain, traced], extra


def unit_of(name):
    if name.endswith(".calls"):
        return "count"
    if name.endswith("_s"):
        return "s"
    return "ratio"


def run_one(args):
    with open(GOLDENS, encoding="utf-8") as fh:
        goldens = json.load(fh)
    env = environment()
    env["loadavg_1m_start"] = os.getloadavg()[0]
    if args.trace:
        metrics, passes, extra = measure_traced(args.workload, args.seed)
        units = {name: unit_of(name) for name in metrics}
    else:
        metrics, passes, extra = measure(args.workload, args.seed,
                                         args.seconds)
        units = END_TO_END_UNITS
    env["loadavg_1m_end"] = os.getloadavg()[0]

    failures = []
    attempted = failed = 0
    for results in passes:
        bad = verify(args.workload, args.seed, results, goldens)
        failures.extend("%s: %s" % item for item in bad)
        attempted += len(results)
        failed += len({pid for pid, _ in bad})
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": env,
        "digest": digest(passes[0]),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "failures": failures,
        "metrics": metrics,
    }
    report.update(extra)
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)),
              "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)

    print_report(report, units)
    return 0


def print_report(report, units):
    """Human-readable lines, then the result as one JSON line."""
    env, metrics = report["environment"], report["metrics"]
    for key in ("python", "qq_backend", "nproc", "cpu_model",
                "loadavg_1m_start", "loadavg_1m_end"):
        print("env %s: %s" % (key, env[key]))
    for msg in report["failures"]:
        print("FAIL %s" % msg)
    print("workload %s seed %d digest %s"
          % (report["workload"], report["seed"], report["digest"]))
    if report["trace"]:
        ranking = report["below_cli_run_by_total_s"]
        kernel = [row for row in ranking
                  if row[0].split(".")[0] in KERNEL_LAYERS]
        for label, rows in (("", ranking), (" in kernel layers", kernel)):
            print("largest inclusive spans below cli.run%s: %s" % (
                label, ", ".join("%s %.3f s" % tuple(row)
                                 for row in rows[:4])))
    for name in sorted(metrics):
        print("%-44s %14.6f %s" % (name, metrics[name], units[name]))
    for name in ("wall_s", "slowest_problem_s"):
        if name in report:
            print("%-44s %14.6f s (raw wall time, not a metric)"
                  % (name, report[name]))
    print("%-44s %14.6f %s (%d of %d problems)"
          % ("fail_frac", report["fail_frac"], "ratio", report["failed"],
             report["attempted"]))
    print(json.dumps({
        "correct": not report["failures"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))


def run_all(args):
    """Each workload in a fresh process, one after another."""
    summary = {}
    correct = True
    attempted = failed = 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seconds", str(args.seconds), "--trace",
               str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        print("== %s" % workload, flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              check=True, timeout=600)
        sys.stdout.write(proc.stdout)
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        for name, m in last["metrics"].items():
            summary["%s.%s" % (workload, name)] = m
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": summary}))
    return 0


def write_goldens():
    """Record the digests of every workload's default-seed outputs.  Run
    only on the commit whose outputs are to be pinned."""
    from grobfan import cli
    goldens = {}
    for workload in workloads.WORKLOADS:
        seed = workloads.DEFAULT_SEED[workload]
        _, results = run_pass(cli, workloads.corpus(workload, seed),
                              workload == "polyhedral_roundtrip")
        goldens[workload] = {}
        for r in results:
            if r.error is not None:
                raise RuntimeError("%s: %s" % (r.pid, r.error))
            goldens[workload][r.pid] = {
                "emit_sha256": sha256(r.out),
                "content_sha256": content_sha256(json.loads(r.out)),
            }
    with open(GOLDENS, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=("all",) + workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=None,
                    help="default: each workload's own default seed")
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--write-goldens", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.write_goldens:
        return write_goldens()
    if args.workload == "all":
        return run_all(args)
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED[args.workload]
    if args.setup_only:
        import grobfan.cli  # noqa: F401
        workloads.corpus(args.workload, args.seed)
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
