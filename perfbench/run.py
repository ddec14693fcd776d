#!/usr/bin/env python3
"""Benchmark of the orbitcheck GO pipeline, end to end and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload catalog --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload ladder --seed 3 --seconds 25 --trace 1
    python3 perfbench/run.py --smoke

Workloads: catalog, ladder, sweep, exact (see README.md). With --trace 0
the run reports the end-to-end metrics; with --trace 1 it wraps the layer
functions (see tracing.py) and reports the per-layer metrics. Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. The full record, with the
run environment and every op, goes to .bench_out/ in the repository root,
and the traced run writes its spans there too.
"""

from __future__ import annotations

import argparse
import bisect
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# One BLAS thread, below the two cores of the reference box: a cold
# catalog run spread 2.28-2.52 s at one thread and 2.38-3.56 s at two.
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_SAMPLES = 7
SETUP_CODE = ("import orbitcheck, orbitcheck.cli; "
              "orbitcheck.load_catalog()")
CLI_CODE = ("from orbitcheck.cli import main; "
            "main(['check-go', 'go-1', '--json'])")
MIN_WARM = 2          # warm passes in a run, at any --seconds
SUBPROCESS_TIMEOUT = 120

# How many passes a run makes, per workload, at PLAN_SECONDS of --seconds:
# (warm passes after the cold pass, further cold-only worker processes)
# untraced, and warm passes traced (half of them under the tracer). Sized
# so that a run lasts about PLAN_SECONDS on the reference box (2-core
# Intel Xeon VM, 2.1 GHz, neighbours busy). The counts scale with
# --seconds and never depend on the clock, so a seed gives the same ops,
# and the same failed ops, in every run.
PLAN_SECONDS = 25
PLAN = {
    "catalog": (4, 3, 4),
    "ladder": (24, 10, 30),
    "sweep": (5, 1, 4),
    "exact": (2, 1, 2),
}


def plan(workload: str, seconds: float, minimal: bool) -> tuple[int, int, int]:
    """(untraced warm passes, cold-only workers, traced-run warm passes)."""
    if minimal:
        return MIN_WARM, 1, MIN_WARM
    warm, cold, traced = PLAN[workload]
    scale = seconds / PLAN_SECONDS
    return (max(MIN_WARM, round(warm * scale)), round(cold * scale),
            2 * max(1, round(traced * scale / 2)))

END_TO_END = (
    ("setup_s", "s"), ("first_pass_s", "s"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB"),
)


def per_layer_spec() -> list[tuple[str, str]]:
    from tracing import PEAK_NAMES, SPAN_NAMES
    spec = []
    for name in SPAN_NAMES:
        spec += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    spec += [(f"{name}.peak_mb", "MB") for name in PEAK_NAMES]
    spec += [(f"cold.{name}.self_s", "s") for name in SPAN_NAMES]
    spec += [
        ("zoo.classical.builds", "count"),
        ("spaces.decompose_isotropy.system_mb", "MB"),
        ("go.go_check.samples", "count"),
        ("go.go_check.us_per_sample", "us"),
        ("go.exact.samples", "count"),
        ("go.exact.ms_per_sample", "ms"),
        ("go.exact.available", "count"),
        ("cli.check_go.wall_s", "s"),
        ("bench.self_s", "s"),
        ("trace.pass_s", "s"),
        ("trace.coverage_ratio", "ratio"),
        ("trace.overhead_ratio", "ratio"),
    ]
    return spec


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: BLAS_THREADS for var in BLAS_VARS})
    env["PYTHONPATH"] = str(SRC)
    return env


def timed_python(code: str) -> float:
    """Wall time of a fresh interpreter running code; fails on non-zero exit."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT)
    wall = perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"subprocess failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-500:]}")
    return wall


def environment(seed: int) -> dict:
    import numpy as np
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit, "seed": seed, "nproc": os.cpu_count(),
        "machine": platform.machine(), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
    }


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least ten samples beyond it.

    Nearest-rank percentiles. With 20 samples or fewer no percentile
    above the median qualifies, and the median is returned as p50.
    """
    xs = sorted(values)
    n = len(xs)
    for p in range(99, 50, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, xs[rank - 1]
    return 50, statistics.median(xs)


# The host's neighbours slow a whole core by up to 1.8x, for seconds to
# minutes at a time; CPU time inflates with wall time. So every op is
# timed next to a probe, fixed code shaped like the op's kind of work,
# and reported at reference speed: scaled by the probe's reference time
# over the probes around it. A reference time is the probe on a quiet
# core of the reference box (2-core Intel Xeon VM, 2.1 GHz). Raw
# latencies stay in the record.
PROBE_EVERY_S = 0.1
PROBE_REF_S = 2.6e-3
PROBE_GO_REF_S = 1.92e-3


def probe() -> float:
    """Seconds for a fixed mix of interpreted, numpy and Fraction work."""
    import numpy as np
    from fractions import Fraction
    mat = np.arange(576, dtype=float).reshape(24, 24) / 576.0
    start = perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    out = mat
    for _ in range(60):
        out = out @ mat
        out /= np.abs(out).max()
    frac = Fraction(0)
    for i in range(1, 600):
        frac += Fraction(1, i % 97 + 1)
    return perf_counter() - start


def probe_go() -> float:
    """Seconds for a fixed loop shaped like float GO samples.

    Each step seeds a generator, draws a unit vector, contracts two
    16-cubed tensors with it and solves the least-squares system. In a
    slow phase of the reference box, float go_check slowed 1.6x; this
    loop tracked it within 3% and probe() within 12%. So the sweep
    workload, nearly all float GO samples, is scaled by this probe.
    """
    import numpy as np
    gen = np.random.default_rng(7)
    iso, brk = gen.standard_normal((2, 16, 16, 16))
    start = perf_counter()
    for i in range(24):
        x = np.random.default_rng([12345, i]).standard_normal(16)
        x /= np.linalg.norm(x)
        lhs = -np.einsum("apq,q->pa", iso, x)
        rhs = -np.einsum("abc,a,b->c", brk, x, x)
        z = np.linalg.lstsq(lhs, rhs, rcond=None)[0]
        np.linalg.norm(lhs @ z - rhs)
    return perf_counter() - start


# The probe that scales each workload's ops, with its reference time.
# Space builds and interpreter start-ups are scaled by probe().
OP_PROBES = {"sweep": (probe_go, PROBE_GO_REF_S)}


class Run:
    """One benchmark run: passes over one workload, optionally traced."""

    def __init__(self, workload, tracer=None):
        import orbitcheck.zoo
        self.wl = workload
        self.tracer = tracer
        self.classical = orbitcheck.zoo.classical
        self.passes: list[dict] = []

    def one_pass(self, index: int, traced: bool, memory: bool = False) -> None:
        """Run pass index; the first pass in a process is the cold one."""
        from workloads import pass_seed
        tracer = self.tracer if traced else None
        if tracer:
            tracer.pass_index = index
            tracer.memory = memory
        misses = self.classical.cache_info().misses
        op_probe, probe_ref = OP_PROBES.get(self.wl.name, (probe, PROBE_REF_S))
        setup_s = setup_probe = 0.0
        if not self.passes:
            before = probe()
            if tracer:
                tracer.install()
            start = perf_counter()
            self.wl.setup()
            setup_s = perf_counter() - start
            if tracer:
                tracer.uninstall()
            setup_probe = (before + probe()) / 2
        ops = self.wl.prepare(index)
        if tracer:
            tracer.install()
        records = []
        probes = []
        last_probe = 0.0
        start = perf_counter()
        for op in ops:
            if perf_counter() - last_probe >= PROBE_EVERY_S:
                last_probe = perf_counter()
                probes.append((last_probe - start, op_probe()))
            t0 = perf_counter()
            try:
                out = op.run()
                error = None
            except Exception as err:  # a failed op is counted, not fatal
                out, error = None, f"{type(err).__name__}: {err}"
            latency = perf_counter() - t0
            if error is None:
                error = op.check(out)
            records.append({"op": op.label, "ms": latency * 1e3,
                            "t": t0 - start, "error": error})
        probes.append((perf_counter() - start, op_probe()))
        wall = perf_counter() - start + setup_s - sum(d for _, d in probes)
        if tracer:
            tracer.uninstall()
        record = {
            "pass": index, "traced": traced, "memory": memory,
            "seed": pass_seed(self.wl.seed, index), "wall_s": wall,
            "setup_s": setup_s, "setup_probe_s": setup_probe,
            "probe_ref_s": probe_ref,
            "classical_builds": self.classical.cache_info().misses - misses,
            "ops": records, "probes": probes,
        }
        self.passes.append(record)

    def warm(self) -> list[dict]:
        return [p for p in self.passes[1:] if not p["memory"]]

    def measure(self, n_warm: int) -> None:
        """Cold pass 0, then warm passes 1..n_warm.

        A traced run alternates traced and untraced passes, starting with
        a traced cold pass, then adds one pass under tracemalloc for the
        peak_mb metrics alone.
        """
        from tracing import PEAK_NAMES
        traced_run = self.tracer is not None
        for index in range(n_warm + 1):
            self.one_pass(index, traced_run and index % 2 == 0)
        if traced_run and any(s.name in PEAK_NAMES and s.pass_index > 0
                              for s in self.tracer.spans):
            self.one_pass(n_warm + 1, True, memory=True)


def scaled_ms(p: dict) -> list[float]:
    """A pass's op latencies (ms) at reference speed.

    Each op is scaled by the probe's reference time over the median of
    the two probes before it and the two after it.
    """
    times = [t for t, _ in p["probes"]]
    out = []
    for op in p["ops"]:
        i = bisect.bisect_right(times, op["t"])
        near = [d for _, d in p["probes"][max(0, i - 2):i + 2]]
        out.append(op["ms"] * p["probe_ref_s"] / statistics.median(near))
    return out


def per_op(passes: list[dict]) -> list[float]:
    """Each op's median scaled latency (ms) over the given passes.

    Every pass runs the same sequence of ops (same spaces, at most the
    seeded pairs differ), so the j-th op of each pass is one op repeated.
    """
    scaled = [scaled_ms(p) for p in passes]
    n = len(scaled[0])
    if any(len(v) != n for v in scaled):
        raise RuntimeError("passes differ in their number of ops")
    return [statistics.median(v[j] for v in scaled) for j in range(n)]


def spawn_worker(args, mode: str, count: int) -> dict:
    """One fresh process: in mode full, cold pass 0 and count warm passes;
    in mode cold, only pass count, which is then the process's cold pass."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--worker", mode,
           "--passes", str(count), "--workload", args.workload,
           "--seed", str(args.seed)] + (["--minimal"] if args.minimal else [])
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=SUBPROCESS_TIMEOUT)
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): "
                           f"{proc.stderr.strip()[-800:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def plain_run(args) -> tuple[list[dict], dict, dict]:
    """Untraced run: setup samples, then fresh worker processes.

    The first worker runs the cold pass and the warm passes; each further
    worker runs only a cold pass, on the next pass seed. So first_pass_s
    has several fresh processes to take its median from. The counts come
    from plan().
    """
    n_warm, n_cold, _ = plan(args.workload, args.seconds, args.minimal)
    timed_python(SETUP_CODE)  # compiles orbitcheck.cli bytecode
    setup = []
    for _ in range(1 if args.minimal else SETUP_SAMPLES):
        before = probe()
        wall = timed_python(SETUP_CODE)
        setup.append(wall * PROBE_REF_S * 2 / (before + probe()))
    workers = [spawn_worker(args, "full", n_warm)]
    workers += [spawn_worker(args, "cold", n_warm + k)
                for k in range(1, n_cold + 1)]
    colds = [w["passes"][0] for w in workers]
    warm = workers[0]["passes"][1:]
    warm_ms = per_op(warm)
    pct, tail = tail_percentile(warm_ms)
    build_s = statistics.median(p["setup_s"] * PROBE_REF_S / p["setup_probe_s"]
                                for p in colds)
    values = {
        "setup_s": statistics.median(setup),
        "first_pass_s": build_s + sum(per_op(colds)) / 1e3,
        "ops_per_s": len(warm_ms) / (sum(warm_ms) / 1e3),
        "op_p50_ms": statistics.median(warm_ms),
        "op_tail_ms": tail,
        "peak_rss_mb": max(w["rss_mb"] for w in workers),
    }
    notes = {
        "setup_s": f"median of {len(setup)} fresh interpreters",
        "first_pass_s": f"cold pass, build and each op at its median over "
                        f"{len(colds)} fresh processes",
        "ops_per_s": f"{len(warm_ms)} ops, each at its median over "
                     f"{len(warm)} warm passes",
        "op_p50_ms": f"n={len(warm_ms)} ops, each at its median",
        "op_tail_ms": f"p{pct}, n={len(warm_ms)} ops, each at its median",
        "peak_rss_mb": "largest ru_maxrss of the worker processes",
    }
    passes = [dict(p, worker=k) for k, w in enumerate(workers)
              for p in w["passes"]]
    return passes, values, notes


def per_layer(run: Run, available: int, cli_wall: float) -> tuple[dict, dict]:
    from tracing import PEAK_NAMES, SPAN_NAMES
    tracer = run.tracer
    selfs = tracer.self_times()
    traced_warm = [p for p in run.warm() if p["traced"]]
    plain_warm = [p for p in run.warm() if not p["traced"]]
    warm_ids = {p["pass"] for p in traced_warm}
    n_warm = len(traced_warm)
    values: dict[str, float] = {}
    calls = {name: 0 for name in SPAN_NAMES}
    self_s = {name: 0.0 for name in SPAN_NAMES}
    cold = {name: 0.0 for name in SPAN_NAMES}
    peak = {name: 0.0 for name in PEAK_NAMES}
    samples = {"go.go_check": 0, "go.go_check_exact": 0}
    system_mb = 0.0
    for span, own in zip(tracer.spans, selfs):
        system_mb = max(system_mb, span.counts.get("system_mb", 0.0))
        if span.peak_mb is not None:
            peak[span.name] = max(peak[span.name], span.peak_mb)
        if span.pass_index == 0:
            cold[span.name] += own
        if span.pass_index not in warm_ids:
            continue
        calls[span.name] += 1
        self_s[span.name] += own
        if span.name in samples:
            samples[span.name] += span.counts.get("samples", 0)
    for name in SPAN_NAMES:
        values[f"{name}.calls"] = calls[name] / n_warm
        values[f"{name}.self_s"] = self_s[name] / n_warm
    for name in PEAK_NAMES:
        values[f"{name}.peak_mb"] = peak[name]
    for name in SPAN_NAMES:
        values[f"cold.{name}.self_s"] = cold[name]
    traced_wall = sum(p["wall_s"] for p in traced_warm)
    spanned = sum(own for span, own in zip(tracer.spans, selfs)
                  if span.pass_index in warm_ids)
    float_n, exact_n = samples["go.go_check"], samples["go.go_check_exact"]
    values.update({
        "zoo.classical.builds": run.passes[0]["classical_builds"],
        "spaces.decompose_isotropy.system_mb": system_mb,
        "go.go_check.samples": float_n / n_warm,
        "go.go_check.us_per_sample":
            self_s["go.go_check"] / float_n * 1e6 if float_n else 0.0,
        "go.exact.samples": exact_n / n_warm,
        "go.exact.ms_per_sample":
            self_s["go.go_check_exact"] / exact_n * 1e3 if exact_n else 0.0,
        "go.exact.available": available,
        "cli.check_go.wall_s": cli_wall,
        "bench.self_s": (traced_wall - spanned) / n_warm,
        "trace.pass_s": statistics.median(p["wall_s"] for p in traced_warm),
        "trace.coverage_ratio": spanned / traced_wall,
        "trace.overhead_ratio":
            sum(per_op(traced_warm)) / sum(per_op(plain_warm)),
    })
    notes = {
        "zoo.classical.builds": "computed: cache misses in the cold pass",
        "spaces.decompose_isotropy.system_mb":
            "computed: dim h * dim m^2 x dim m(dim m+1)/2 x 8 B, largest call",
        "go.go_check.samples": "computed: float samples per warm pass",
        "go.exact.samples": "computed: exact samples per warm pass",
        "go.exact.available": "computed: entries whose exact lane runs",
        "trace.overhead_ratio":
            f"traced / untraced warm pass, each op at its median over "
            f"{len(traced_warm)} traced and {len(plain_warm)} untraced",
    }
    return values, notes


def worker(args) -> int:
    """Inside a fresh process: run passes, print them as one JSON line."""
    import workloads
    run = Run(workloads.WORKLOADS[args.workload](args.seed, args.minimal))
    if args.worker == "cold":
        run.one_pass(args.passes, False)
    else:
        run.measure(args.passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps({"passes": run.passes, "rss_mb": rss_mb}))
    return 0


def traced_run(args) -> tuple[Run, dict, dict]:
    """Traced run, in this process: spans, counts, cli and overhead."""
    import workloads
    from tracing import Tracer
    run = Run(workloads.WORKLOADS[args.workload](args.seed, args.minimal),
              Tracer(perf_counter()))
    run.measure(plan(args.workload, args.seconds, args.minimal)[2])
    available = workloads.exact_available(args.seed, args.minimal)
    cli_wall = statistics.median(
        timed_python(CLI_CODE) for _ in range(1 if args.minimal else 3))
    values, notes = per_layer(run, available, cli_wall)
    return run, values, notes


def run_workload(args) -> int:
    env = environment(args.seed)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    run = None
    if args.trace:
        run, values, notes = traced_run(args)
        passes = run.passes
        spec = per_layer_spec()
    else:
        passes, values, notes = plain_run(args)
        spec = list(END_TO_END)
    for p in passes:
        bad = [f"{op['op']} ({op['error']})" for op in p["ops"] if op["error"]]
        kind = "traced" if p["traced"] else "plain"
        where = f"worker {p['worker']} " if "worker" in p else ""
        print(f"{where}pass {p['pass']} seed {p['seed']} {kind} "
              f"{p['wall_s']:.3f} s ops {len(p['ops'])} failed {len(bad)}"
              + (": " + "; ".join(bad) if bad else ""))
    ops = [op for p in passes for op in p["ops"]]
    attempted = len(ops)
    failed = sum(op["error"] is not None for op in ops)
    for name, unit in spec:
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {values[name]:.6g} {unit}{note}")
    print(f"fail_ratio {failed / attempted:.6g}  ({failed} failed / "
          f"{attempted} attempted; wrong outputs and exceptions)")
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT / f"{stem}.json", "w") as out:
        json.dump({"env": env, "values": values, "notes": notes,
                   "passes": passes}, out, indent=1)
    if run is not None:
        run.tracer.write(OUT / f"spans-{stem}.jsonl")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec}
    correct = all(math.isfinite(m["value"]) for m in metrics.values())
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def smoke() -> int:
    """Every workload at minimal size, both modes; every metric and unit."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: list(END_TO_END), 1: per_layer_spec()}
    declared = {0: [(m["name"], m["unit"]) for m in bench["end_to_end"]],
                1: [(m["name"], m["unit"]) for m in bench["per_layer"]]}
    problems = [f"BENCHMARK.json trace {t} metrics differ from run.py"
                for t in (0, 1) if declared[t] != want[t]]
    names = sorted(w["name"] for w in bench["workloads"])
    script = str(Path(__file__).resolve())
    for workload in names:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, script, "--workload", workload, "--seed",
                 "0", "--seconds", "1", "--trace", str(trace), "--minimal"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            tag = f"{workload} trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{tag}: exit {proc.returncode} "
                                f"{proc.stderr.strip()[-300:]}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            for name, unit in want[trace]:
                got = result["metrics"].get(name)
                if got is None or got.get("unit") != unit or not isinstance(
                        got.get("value"), (int, float)):
                    problems.append(f"{tag}: metric {name} [{unit}] is {got}")
            extra = set(result["metrics"]) - {n for n, _ in want[trace]}
            if extra:
                problems.append(f"{tag}: unexpected metrics {sorted(extra)}")
            print(f"{tag}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} ops, {result['failed']} failed")
    for problem in problems:
        print("SMOKE FAIL " + problem)
    print("smoke " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload",
                        choices=("catalog", "ladder", "sweep", "exact"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--minimal", action="store_true",
                        help="smallest inputs of the workload (smoke mode)")
    parser.add_argument("--worker", choices=("full", "cold"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--passes", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal size and check "
                             "that every metric and unit is reported")
    args = parser.parse_args(argv)
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    if not (SRC / "orbitcheck" / "__init__.py").is_file():
        print(f"orbitcheck sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    sys.path.insert(0, str(SRC))
    return worker(args) if args.worker else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
