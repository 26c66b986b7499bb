"""Benchmark for defalg: four closed-loop verification workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from `src/`.  One
process, one thread, one job at a time (closed loop); `cli-cold` starts its
CLI processes one after another.  Every job's verdict is compared with the
answer known in advance, and any mismatch or exception makes the run exit 1.

`--trace 0` runs whole cycles of jobs until `--seconds` have passed and at
least 100 jobs have run, drawing fresh inputs for every cycle.  It prints
the end-to-end metrics: set-up time (median cold start of `import
defalg.cli` in a fresh interpreter, launches spread over the run), jobs per
second of job time, median and p90 job latency, and peak resident memory of
the process doing the work (of the CLI processes, for `cli-cold`).  It also
prints `failed_frac`, the share of jobs with a wrong verdict, which is not a
metric because it is 0.

The times are given at a reference machine speed.  A shared host runs the
same Python code up to 1.5 times faster or slower from one few-second
spell to the next, so every timed thing is bracketed by samples of a fixed
calibration unit, and its wall time is scaled by the unit's reference time
over its local time (the median of the nearest samples).  In-process jobs
use `calibration_unit`, pure-Python `Fraction` and dict work
(`CAL_REF_S`); CLI processes and set-up launches use a bare interpreter
launch, `python -c pass` (`LAUNCH_REF_S`).  A change in `defalg` moves the
scaled times as it moves the wall times; a change in the host's speed
moves the unit as well and cancels.  The raw wall-time figures are printed
beside them.

`--trace 1` runs one cycle untraced and then traced, repeating the pair
until `--seconds` have passed.  It prints the per-layer metrics of the
first traced cycle, the tracing overhead (traced over untraced wall time)
and each layer's share of traced job time, and writes the spans under
`.perfbench-spans/`.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {
    "gbv-polyvector": workloads.gbv_cycle,
    "homotopy-battery": workloads.homotopy_cycle,
    "series-lefschetz": workloads.series_cycle,
    "cli-cold": workloads.cli_cycle,
}

MIN_JOBS = 100  # p90 then has at least ten samples beyond it
HARD_STOP_S = 150  # no new cycle after this, whatever MIN_JOBS says
SETUP_LAUNCHES = 11
# the calibration units' times at the reference speed, about their median
# on a 2.1 GHz Xeon vCPU; times are reported as if the units took this long
CAL_REF_S = 0.0015  # calibration_unit()
LAUNCH_REF_S = 0.06  # python -c pass
CAL_WINDOW = 2  # a job's local speed: median of the samples this far either side
IMPORT = "import defalg.cli"

# (metric, unit, stat, field); field "ratio" is admitted / calls
PER_LAYER = [
    ("core.koszul_sign.calls", "count", "core.koszul_sign", "calls"),
    ("core.koszul_sign.self_s", "s", "core.koszul_sign", "self_s"),
    ("core.sym_canonical.calls", "count", "core.sym_canonical", "calls"),
    ("core.sym_canonical.self_s", "s", "core.sym_canonical", "self_s"),
    ("core.unshuffles.calls", "count", "core.unshuffles", "calls"),
    ("core.unshuffles.yielded", "count", "core.unshuffles", "yielded"),
    ("core.Element.new", "count", "core.Element.new", "calls"),
    ("core.Element.arith.self_s", "s", "core.Element.arith", "self_s"),
    ("scalars.GaussianScalar.mul.calls", "count", "scalars.GaussianScalar.mul", "calls"),
    ("scalars.GaussianScalar.arith.self_s", "s", "scalars.GaussianScalar.arith", "self_s"),
    ("linalg.rref.calls", "count", "linalg.rref", "calls"),
    ("linalg.rref.self_s", "s", "linalg.rref", "self_s"),
    ("freelie.TensorSeries.mul.calls", "count", "freelie.TensorSeries.mul", "calls"),
    ("freelie.TensorSeries.mul.self_s", "s", "freelie.TensorSeries.mul", "self_s"),
    ("freelie.bch_explicit.self_s", "s", "freelie.bch_explicit", "self_s"),
    ("freelie.bch_free.self_s", "s", "freelie.bch_free", "self_s"),
    ("freelie.dsw_project.self_s", "s", "freelie.dsw_project", "self_s"),
    ("dgla.bracket.calls", "count", "dgla.bracket", "calls"),
    ("dgla.bracket.self_s", "s", "dgla.bracket", "self_s"),
    ("dgla.product.calls", "count", "dgla.product", "calls"),
    ("dgla.check_dgla.self_s", "s", "dgla.check_dgla", "self_s"),
    ("dgla.gauge_apply.self_s", "s", "dgla.gauge_apply", "self_s"),
    ("dgla.obstruction_class.self_s", "s", "dgla.obstruction_class", "self_s"),
    ("coalg.Coderivation.apply_word.calls", "count", "coalg.Coderivation.apply_word", "calls"),
    ("coalg.Coderivation.apply_word.self_s", "s", "coalg.Coderivation.apply_word", "self_s"),
    ("coalg.ComponentMap.apply_word.calls", "count", "coalg.ComponentMap.apply_word", "calls"),
    ("coalg.ComponentMap.apply_word.self_s", "s", "coalg.ComponentMap.apply_word", "self_s"),
    ("linfty.check_linfty.calls", "count", "linfty.check_linfty", "calls"),
    ("linfty.check_linfty.self_s", "s", "linfty.check_linfty", "self_s"),
    ("linfty.mc_linfty.self_s", "s", "linfty.mc_linfty", "self_s"),
    ("linfty.from_dgla.self_s", "s", "linfty.from_dgla", "self_s"),
    ("gbv.polyvector_gbv.self_s", "s", "gbv.polyvector_gbv", "self_s"),
    ("gbv.product.calls", "count", "gbv.product", "calls"),
    ("gbv.product.self_s", "s", "gbv.product", "self_s"),
    ("gbv.derived_q.calls", "count", "gbv.derived_q", "calls"),
    ("gbv.derived_q.self_s", "s", "gbv.derived_q", "self_s"),
    ("gbv.delta.calls", "count", "gbv.delta", "calls"),
    ("gbv.triple_filter.calls", "count", "gbv.triple_filter", "calls"),
    ("gbv.triple_filter.admitted", "count", "gbv.triple_filter", "admitted"),
    ("gbv.triple_filter.admit_ratio", "ratio", "gbv.triple_filter", "ratio"),
    ("gbv.gbv_check.self_s", "s", "gbv.gbv_check", "self_s"),
    ("gbv.dgla_verify.self_s", "s", "gbv.dgla_verify", "self_s"),
    ("gbv.delta_volume.calls", "count", "gbv.delta_volume", "calls"),
    ("gbv.delta_volume.self_s", "s", "gbv.delta_volume", "self_s"),
    ("lefschetz.ops.calls", "count", "lefschetz.ops", "calls"),
    ("lefschetz.ops.self_s", "s", "lefschetz.ops", "self_s"),
    ("lefschetz.op_star.self_s", "s", "lefschetz.op_star", "self_s"),
    ("lefschetz.identities_report.self_s", "s", "lefschetz.identities_report", "self_s"),
    ("lefschetz.decompose.self_s", "s", "lefschetz.decompose", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
    ("schemas.load.self_s", "s", "schemas.load", "self_s"),
    ("report.render.self_s", "s", "report.render", "self_s"),
    ("suite.run_suite.self_s", "s", "suite.run_suite", "self_s"),
]
# stats that repeat time already counted under another stat of their layer
NESTED_STATS = {"lefschetz.op_star", "scalars.GaussianScalar.mul"}


def calibration_unit():
    """A fixed piece of the work `defalg` does most: small `Fraction`
    arithmetic and tuple-keyed dict updates.  Returns its wall time."""
    t0 = perf_counter()
    acc = {}
    total = Fraction(0)
    for i in range(1, 200):
        f = Fraction(i % 7 - 3, i % 5 + 1)
        total += f * f
        key = (i % 13, i % 11)
        acc[key] = acc.get(key, 0) + f
    sorted(acc)
    return perf_counter() - t0


def launch(root, env, code):
    """Wall time of a fresh interpreter running `code`.  No timeout: with
    one, `Popen.wait` polls in sleeps of up to 50 ms and quantizes the
    time."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=root, env=env, check=True)
    return perf_counter() - t0


class Calibration:
    """Samples of a calibration unit, taken between the things timed, and
    the unit's time at the reference speed."""

    def __init__(self, unit, ref_s, label):
        self.unit, self.ref_s, self.label = unit, ref_s, label
        self.samples = []

    def sample(self):
        self.samples.append(self.unit())

    def scale(self, times):
        """Scale times[i], which ran between samples[i] and samples[i + 1],
        by ref_s over the median of the samples within CAL_WINDOW of it."""
        out = []
        for i, t in enumerate(times):
            near = self.samples[max(0, i - CAL_WINDOW + 1):i + CAL_WINDOW + 1]
            out.append(t * self.ref_s / statistics.median(near))
        return out

    def describe(self):
        deciles = statistics.quantiles(self.samples, n=10)
        return (f"{self.label}: median {1000.0 * statistics.median(self.samples):.3f} ms, "
                f"p10-p90 {1000.0 * deciles[0]:.3f}-{1000.0 * deciles[-1]:.3f} ms "
                f"(reference {1000.0 * self.ref_s:g} ms)")


def setup_launch(root, env):
    """One cold start of `import defalg.cli` between two bare interpreter
    launches, scaled by LAUNCH_REF_S over their mean: (scaled, raw)."""
    before = launch(root, env, "pass")
    raw = launch(root, env, IMPORT)
    after = launch(root, env, "pass")
    return raw * LAUNCH_REF_S / ((before + after) / 2), raw


def make_cycle(name, seed, root, in_process):
    if name == "cli-cold":
        cli = workloads.Cli(root, in_process)
        return lambda c: workloads.cli_cycle(seed, c, cli)
    return lambda c: WORKLOADS[name](seed, c)


def run_jobs(jobs, failures, runner=None, calibration=None):
    """Run jobs in order; return each one's latency in seconds.  With a
    `calibration`, sample its unit before each job."""
    latencies = []
    for pos, (kind, fn) in enumerate(jobs):
        if calibration is not None:
            calibration.sample()
        t0 = perf_counter()
        try:
            ok = runner(pos, fn) if runner else fn()
        except Exception as exc:  # an uncaught exception is a wrong verdict
            ok = False
            kind = f"{kind} raised {type(exc).__name__}: {exc}"
        latencies.append(perf_counter() - t0)
        if not ok:
            failures.append(kind)
    return latencies


def untraced(name, seed, seconds, root):
    env = workloads.Cli(root, False).env
    launch(root, env, IMPORT)  # writes the bytecode cache; not measured
    make = make_cycle(name, seed, root, in_process=False)
    # CLI processes are calibrated by a bare interpreter launch, in-process
    # jobs by the calibration unit
    if name == "cli-cold":
        speed = Calibration(lambda: launch(root, env, "pass"), LAUNCH_REF_S, "bare launch")
    else:
        speed = Calibration(calibration_unit, CAL_REF_S, "calibration unit")
    setup, failures, latencies = [], [], []
    start = perf_counter()
    c = elapsed = 0
    while c == 0 or elapsed < HARD_STOP_S and (elapsed < seconds or len(latencies) < MIN_JOBS):
        # building a cycle draws its inputs; only the jobs are timed
        for job in make(c):
            # set-up launches are spread over the run, so that one slow
            # spell of the machine cannot hold them all
            if len(setup) < SETUP_LAUNCHES and elapsed >= len(setup) * seconds / SETUP_LAUNCHES:
                setup.append(setup_launch(root, env))
            latencies += run_jobs([job], failures, calibration=speed)
            elapsed = perf_counter() - start
        c += 1
    speed.sample()
    while len(setup) < SETUP_LAUNCHES:
        setup.append(setup_launch(root, env))
    who = resource.RUSAGE_CHILDREN if name == "cli-cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    n = len(latencies)
    scaled = speed.scale(latencies)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setup), "s"),
        "jobs_per_s": (n / sum(scaled), "1/s"),
        "job_p50_ms": (1000.0 * statistics.median(scaled), "ms"),
        "job_p90_ms": (1000.0 * statistics.quantiles(scaled, n=10)[-1], "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{name} seed {seed}: {n} jobs in {c} cycles, {sum(latencies):.2f} s of jobs "
          f"in {elapsed:.2f} s; {len(failures)} wrong verdicts "
          f"(failed_frac {len(failures) / n:g})")
    print(f"  job_p90_ms is p90 of {n} samples ({n - int(0.9 * n)} beyond it)"
          + ("" if n >= MIN_JOBS else "; FEWER THAN 100 SAMPLES"))
    print("  jobs scaled by " + speed.describe())
    ms = [1000.0 * t for t in latencies]
    print(f"  raw wall time: setup_s {statistics.median(r for _, r in setup):.6g}, "
          f"jobs_per_s {n / sum(latencies):.6g}, job_p50_ms {statistics.median(ms):.6g}, "
          f"job_p90_ms {statistics.quantiles(ms, n=10)[-1]:.6g}")
    return metrics, n, failures


def traced(name, seed, seconds, root):
    jobs = make_cycle(name, seed, root, in_process=True)(0)
    failures = []
    untraced_s = traced_s = 0.0
    first = None
    attempted = 0
    start = perf_counter()
    while first is None or perf_counter() - start < seconds:
        untraced_s += sum(run_jobs(jobs, failures))
        tracer = layertrace.Tracer()
        tracer.install()
        try:
            traced_s += sum(run_jobs(jobs, failures, tracer.run_job))
        finally:
            tracer.uninstall()
        attempted += 2 * len(jobs)
        if first is None:
            first = tracer
    stats = first.stats
    metrics = {}
    for metric, unit, stat, field in PER_LAYER:
        st = stats.get(stat) or layertrace.Stat(stat)
        if field == "ratio":
            value = st.admitted / st.calls if st.calls else 0.0
        else:
            value = getattr(st, field)
        metrics[metric] = (value, unit)
    metrics["trace.overhead"] = (traced_s / untraced_s, "ratio")

    job_time = sum(e - s for n, s, e, parent, _ in first.spans if n == "job")
    print(f"{name} seed {seed}: traced cycle of {len(jobs)} jobs, "
          f"{attempted // (2 * len(jobs))} traced/untraced pairs, "
          f"overhead x{traced_s / untraced_s:.2f}")
    if first.missing:
        print("  targets missing from the library: " + ", ".join(first.missing))
    layers = {}
    for st in stats.values():
        if st.name not in NESTED_STATS:
            layer = st.name.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + st.self_s
    layers["(unwrapped)"] = job_time - sum(layers.values())
    print("  share of traced job time by layer (self time):")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:12s} {100.0 * t / job_time:5.1f}%  {t:.3f} s")

    out_dir = Path(root) / ".perfbench-spans"
    out_dir.mkdir(exist_ok=True)
    t0 = first.spans[0][1] if first.spans else 0.0
    with open(out_dir / f"{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump(
            [{"name": n, "start": s - t0, "end": e - t0, "parent": parent, "job": job}
             for n, s, e, parent, job in first.spans],
            fh,
        )
    return metrics, attempted, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "defalg", "__init__.py")):
        print("perfbench: run from a defalg checkout (src/defalg not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))

    if args.trace:
        metrics, attempted, failures = traced(args.workload, args.seed, args.seconds, root)
    else:
        metrics, attempted, failures = untraced(args.workload, args.seed, args.seconds, root)
    for failure in failures[:10]:
        print(f"  WRONG VERDICT: {failure}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
