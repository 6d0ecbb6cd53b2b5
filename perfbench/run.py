"""The baltri benchmark: one workload of real CLI jobs, checked and timed.

Usage (from the repository root):
    python3 perfbench/run.py --workload search|large|normalize \\
        --seed N --seconds S --trace 0|1 [--record-golden]

The inputs (.tri, .bip, .ops files) are made from --seed before anything is
timed.  Jobs run in this process through baltri.cli.main(argv) with stdout
captured, one after another in a closed loop (one client, each job starts
when the previous one ends), in passes over the workload's job list until
--seconds have passed; the first pass always completes.  Every output is
checked, and at the golden seed also compared with perfbench/golden/.

Timings are scaled to a nominal host speed (see hostspeed.py): a reference
loop interrupts the jobs ten times a second, and a job's time is scaled by
how long the loop took during and around it, so that a host running this
process slower for minutes on end does not move the figures.  A job's time
is the mean of its runs.  The measured, unscaled metrics are printed too.

--trace 0 prints the end-to-end metrics.  --trace 1 runs one untraced and
one traced pass and prints per-layer metrics from spans around baltri's
public functions; the spans go to perfbench/out/.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

End-to-end metrics, per workload (search | large | normalize):
    latency_ms         median of: connect (to the subdivided cube, and the
                       octahedron to it) | sample, per step; interquartile
                       mean (the mean of the middle half) of: bip normalize
    second_latency_ms  mean of: expand --via budget; median of: canon at
                       V=801; mean of: bip apply
    heavy_s            the bfs run | canon on the 12 x 12 torus | all bip
                       normalize jobs, summed
    setup_s            fresh process to warm: import, gallery, parse inputs,
                       one warm-up job (median of SETUP_PROBES processes)
    peak_rss_mb        peak resident set of this process
Every job kind is also printed with its sample count, median and p90.
The median of bip normalize latencies jumps between seeds, since scripts
of equal length differ in cost up to threefold; the interquartile mean
does not.  Jobs of a few milliseconds lose the host for a whole time slice
or not at all, so their median reads low on a host that often takes the
CPU away; expand and bip apply report means, which average those losses
as the reference loop's mean does.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
GOLDEN_SEED = 0
SETUP_PROBES = 6

# (statistic, job kind) behind each end-to-end timing; see the module docstring
ROLES = {
    "search": {
        "latency_ms": ("median", "connect"), "second_latency_ms": ("mean", "expand"),
        "heavy_s": ("median", "bfs"),
    },
    "large": {
        "latency_ms": ("median", "sample"), "second_latency_ms": ("median", "canon_large"),
        "heavy_s": ("median", "canon_symmetric"),
    },
    "normalize": {
        "latency_ms": ("iqm", "normalize"), "second_latency_ms": ("mean", "bip_apply"),
        "heavy_s": ("sum", "normalize"),
    },
}
TRACE_CALLS = (
    "surface.validate", "flips.apply_flip", "flips.enumerate_sites",
    "canon.canonical_code", "canon.canonical_form",
    "rewrites.expand_via_budget", "rewrites.verify_expansion",
    "bipartite.normalize_sequence", "bipartite.apply_bip", "bipartite.find_isomorphism",
)
TRACE_SHARES = TRACE_CALLS + (
    "explorer.bfs", "explorer.connect", "explorer.random_walk",
    "fileio.parse", "fileio.format", "cli",
)


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def interquartile_mean(values):
    ordered = sorted(values)
    quarter = len(ordered) // 4
    return statistics.fmean(ordered[quarter:len(ordered) - quarter])


STATISTICS = {
    "median": statistics.median, "mean": statistics.fmean, "iqm": interquartile_mean, "sum": sum,
}


class Runner:
    """Runs jobs, checks their outputs, and keeps every result."""

    def __init__(self, workload, golden, host=None):
        from baltri.cli import main

        self.main = main
        self.workload = workload
        self.golden = golden
        self.host = host  # a HostSpeed whose loop interrupts the jobs, or None
        self.verified = set()  # (job id, digest) pairs whose check passed
        self.results = []  # (job, seconds, rc, stdout, problem, start)

    def run(self, job, tracer=None):
        if job.before is not None:
            job.before()
        out, err = io.StringIO(), io.StringIO()
        problem = None
        spent = self.host.spent if self.host else 0.0
        start = time.perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if tracer is None:
                    rc = self.main(job.argv)
                else:
                    rc = tracer.job(job.id, lambda: self.main(job.argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed job, not a failed benchmark
            rc, problem = None, f"raised {exc!r}"
        # the reference loop's time is not the job's
        seconds = time.perf_counter() - start - ((self.host.spent if self.host else 0.0) - spent)
        stdout = out.getvalue()
        self.workload.last_out[job.id] = stdout
        if problem is None:
            problem = self._verify(job, rc, stdout, err.getvalue())
        self.results.append((job, seconds, rc, stdout, problem, start))
        return seconds

    def _verify(self, job, rc, stdout, stderr):
        if rc not in job.ok_codes:
            return f"exit {rc}: {stderr.strip()[:200]}"
        digest = self.digest(job, rc, stdout)
        want = self.golden.get(job.id)
        if want is not None and want != digest:
            return "output differs from the golden output"
        if (job.id, digest) in self.verified:
            return None
        try:
            problem = job.check(rc, stdout)
        except Exception as exc:  # a check that cannot parse the output rejects it
            problem = f"check raised {exc!r}"
        if problem is None:
            self.verified.add((job.id, digest))
        return problem

    @staticmethod
    def digest(job, rc, stdout):
        h = hashlib.sha256(f"{rc}\n{stdout}".encode())
        for path in job.outputs:
            with open(path, "rb") as fh:
                h.update(b"\0" + fh.read())
        return h.hexdigest()

    def closed_loop(self, seconds, tracer=None, passes=None):
        """Passes over the job list until the deadline, or a pass count.

        The first pass always completes.
        """
        deadline = time.perf_counter() + seconds
        took = {}
        done = 0
        while passes is None or done < passes:
            for job in self.workload.jobs:
                if passes is None and job.runs_in is not None and done not in job.runs_in:
                    continue
                if done and time.perf_counter() + took.get(job.id, 0) > deadline:
                    return done
                took[job.id] = self.run(job, tracer)
            done += 1
            if passes is None and time.perf_counter() >= deadline:
                break
        return done


def load_golden(workload, seed):
    path = os.path.join(HERE, "golden", workload + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        golden = json.load(fh)
    return {**golden["fixed"], **(golden["seeded"] if seed == golden["seed"] else {})}


def record_golden(runner, seed):
    out = {"seed": seed, "fixed": {}, "seeded": {}}
    for job, _, rc, stdout, *_ in runner.results:
        out["fixed" if job.fixed else "seeded"][job.id] = runner.digest(job, rc, stdout)
    os.makedirs(os.path.join(HERE, "golden"), exist_ok=True)
    with open(os.path.join(HERE, "golden", runner.workload.name + ".json"), "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")


class SetupProbe:
    """Times fresh processes doing the set-up; see probe.py."""

    def __init__(self, workload, work, host):
        self.manifest = os.path.join(work, "setup.json")
        with open(self.manifest, "w") as fh:
            json.dump({"inputs": workload.inputs, "warmup": workload.warmup}, fh)
        self.host = host
        self.runs = []  # (start, seconds)

    def run(self, count):
        """Probes, each between reference loops that scale it."""
        for _ in range(count):
            for _ in range(5):
                self.host.sample()
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, os.path.join(HERE, "probe.py"), self.manifest],
                check=True, stdout=subprocess.DEVNULL,
            )
            self.runs.append((start, time.perf_counter() - start))
            for _ in range(5):
                self.host.sample()

    def median(self, scaled):
        return statistics.median(
            seconds * (self.host.scale(start, start + seconds) if scaled else 1)
            for start, seconds in self.runs
        )


def latencies(results, host=None):
    """Job kind -> mean time of each distinct sample's runs, in seconds.

    With a host, each time is first scaled to the nominal host speed.  A
    sample walk counts per step taken.
    """
    runs = {}
    for job, seconds, _, stdout, _, start in results:
        if host is not None:
            seconds *= host.scale(start, start + seconds)
        if job.kind == "sample":
            seconds /= max(1, len(stdout.split()))
        runs.setdefault((job.kind, job.sample), []).append(seconds)
    by_kind = {}
    for (kind, _), values in runs.items():
        by_kind.setdefault(kind, []).append(statistics.fmean(values))
    return by_kind


def end_to_end(workload, results, setup, host=None):
    """The end-to-end metrics; scaled to the nominal host speed with a host."""
    lat = latencies(results, host)
    metrics = {}
    for name, (statistic, kind) in ROLES[workload.name].items():
        value = STATISTICS[statistic](lat[kind])
        metrics[name] = (value * 1e3, "ms") if name.endswith("_ms") else (value, "s")
    metrics["setup_s"] = (setup.median(scaled=host is not None), "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics


def by_job_kind(results, host=None):
    """Per job kind: distinct samples, runs, median and p90 in seconds."""
    runs = {}
    for job, *_ in results:
        runs[job.kind] = runs.get(job.kind, 0) + 1
    return {
        kind: {
            "n": len(values),
            "runs": runs[kind],
            "p50_s": statistics.median(values),
            "p90_s": percentile(values, 90),
        }
        for kind, values in sorted(latencies(results, host).items())
    }


def per_layer(tracer, traced_s, untraced_s):
    c = tracer.counts
    metrics = {}
    for name in TRACE_CALLS:
        metrics[name + ".calls"] = (tracer.calls.get(name, 0), "count")
    for name in TRACE_SHARES:
        metrics[name + ".self_share"] = (tracer.self_s(name) / traced_s, "ratio")
    metrics.update({
        "flips.enumerate_sites.sites_out": (c["sites_out"], "count"),
        "explorer.children": (c["children"], "count"),
        "explorer.bfs.children": (c["bfs.children"], "count"),
        "explorer.bfs.useful_ratio": (c["bfs.edges"] / c["bfs.children"] if c["bfs.children"] else 0, "ratio"),
        "explorer.connect.useful_ratio": (
            c["connect.codes"] / c["connect.children"] if c["connect.children"] else 0, "ratio"
        ),
        "bipartite.replay_per_op": (
            c["normalize.apply_bip"] / c["normalize.ops_in"] if c["normalize.ops_in"] else 0, "ratio"
        ),
        "trace.job_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    return metrics


def traced_run(runner, tracer, report):
    """One untraced pass, then one traced pass; per-layer metrics."""
    runner.closed_loop(0, passes=1)
    untraced_s = sum(r[1] for r in runner.results)
    tracer.install()
    try:
        runner.closed_loop(0, tracer=tracer, passes=1)
    finally:
        tracer.uninstall()
    traced_s = sum(r[1] for r in runner.results) - untraced_s
    report["bfs_counts"] = {k: tracer.counts[k] for k in ("bfs.states", "bfs.edges", "bfs.children")}
    report["calls"] = dict(sorted(tracer.calls.items()))
    report["self_s"] = {name: tracer.self_s(name) for name in sorted(tracer.self_ns)}
    return per_layer(tracer, traced_s, untraced_s)


def metadata(args):
    import networkx

    lines = 0
    for folder, _, files in os.walk(os.path.join(SRC, "baltri")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name)) as fh:
                    lines += sum(1 for _ in fh)
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "src_lines": lines,
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=("search", "large", "normalize"))
    p.add_argument("--seed", type=int, default=GOLDEN_SEED)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="write perfbench/golden/<workload>.json from one checked pass")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "baltri", "cli.py")):
        print(f"no baltri sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    import hostspeed
    import probe
    import tracing
    import workloads

    phases = {"start": time.perf_counter()}
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work)
        golden = {} if args.record_golden else load_golden(args.workload, args.seed)
        phases["inputs"] = time.perf_counter()
        timed = args.trace == 0 and not args.record_golden
        host = hostspeed.HostSpeed() if timed else None
        if timed:  # half the probes before the loop, half after it
            setup = SetupProbe(workload, work, host)
            setup.run(SETUP_PROBES // 2)
        if probe.set_up(workload.inputs, workload.warmup) != 0:
            print("the warm-up job failed", file=sys.stderr)
            return 1
        runner = Runner(workload, golden, host)
        phases["setup"] = time.perf_counter()
        # The loop holds the inputs and every result; freezing them keeps
        # the collector's full passes as short as in a fresh CLI process.
        gc.collect()
        gc.freeze()
        report = {"meta": metadata(args)}
        if args.record_golden:
            runner.closed_loop(0, passes=1)
        elif args.trace == 0:
            with host:
                report["passes"] = runner.closed_loop(args.seconds)
            setup.run(SETUP_PROBES - SETUP_PROBES // 2)
            metrics = end_to_end(workload, runner.results, setup, host)
            report["measured"] = {
                k: v for k, (v, _) in end_to_end(workload, runner.results, setup).items()
            }
            report["host"] = host.summary()
        else:
            tracer = tracing.Tracer()
            metrics = traced_run(runner, tracer, report)
            tracer.write(os.path.join(OUT, f"spans-{args.workload}-{args.seed}.tsv.gz"))
        phases["loop"] = time.perf_counter()
        failures = [(j.id, p) for j, _, _, _, p, _ in runner.results if p is not None]
        for job_id, problem in failures[:20]:
            print(f"FAILED {job_id}: {problem}", file=sys.stderr)
        if args.record_golden:
            if failures:
                return 1
            record_golden(runner, args.seed)
            print(f"recorded {len(runner.results)} golden digests", file=sys.stderr)
            return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    marks = list(phases.values())
    report["phase_s"] = dict(zip(list(phases)[1:], (b - a for a, b in zip(marks, marks[1:]))))
    # a traced run times the untraced pass only
    report["jobs"] = by_job_kind(runner.results[:len(runner.results) // (1 + args.trace)], host)
    report["failed_ratio"] = len(failures) / len(runner.results)
    report["metrics"] = {k: v for k, (v, _) in metrics.items()}
    with open(os.path.join(OUT, f"report-{args.workload}-{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump(report, fh, indent=1)
    for kind, row in report["jobs"].items():
        print(f"# {kind}: n={row['n']} runs={row['runs']} p50={row['p50_s']:.6f}s p90={row['p90_s']:.6f}s")
    for key in ("bfs_counts", "calls", "self_s", "meta", "host", "measured", "phase_s", "failed_ratio"):
        if key in report:
            print(f"# {key} " + json.dumps(report[key]))
    print(json.dumps({
        "correct": not failures,
        "attempted": len(runner.results),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
