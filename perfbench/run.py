"""End-to-end and per-layer benchmark of the ``reesdensity`` CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py`` and ``README.md``): ``dependence-corpus``,
``density-fit``, ``multiplicity-warm``.

Load model: a closed loop with one client.  This process runs one job at a
time, each in a fresh ``python3 -m reesdensity.cli`` process with
``PYTHONPATH=src``, so no job inherits another's in-process memo.  Every job
has a timeout and its answer is checked against a known value.

``--trace 0`` runs whole passes over the workload's jobs until the next pass
would end past ``--seconds`` (at least one pass) and reports the end-to-end
metrics.  ``--trace 1`` runs one plain pass and one pass under the layer
wrappers of ``layers.py``, checks that both wrote byte-identical outputs,
times the gated acceptance bodies (``gates.py``), and reports the per-layer
metrics.  The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS, Job

HERE = Path(__file__).resolve().parent
WORK_DIR = ".perfbench_work"
SETUP_REPEATS = 5
JOB_TIMEOUT_S = 90.0
RUN_BUDGET_S = 170.0
GATE_BOUNDS_S = {"c1": 1.0, "c2": 5.0, "c6": 10.0}


@dataclass
class Outcome:
    job: str
    status: str  # "ok", "undetermined" (exit 3) or "failed"
    wall_s: float
    cpu_s: float
    rss_mb: float
    detail: str = ""


class Runner:
    """Starts one child at a time and reaps it with its resource usage."""

    def __init__(self, root: Path, work: Path, deadline: float) -> None:
        self.root = root
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.deadline = deadline
        src = str(root / "src")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)

    def spawn(self, argv: list[str], log: str, timeout: float = JOB_TIMEOUT_S):
        """Run argv to completion; return (exit code or None on timeout, wall, cpu, rss MB)."""
        timeout = min(timeout, self.deadline - time.monotonic())
        if timeout <= 0:
            return None, 0.0, 0.0, 0.0
        with open(self.logs / f"{log}.out", "wb") as out, open(self.logs / f"{log}.err", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    finished = bool(select.select([pidfd], [], [], timeout)[0])
                finally:
                    os.close(pidfd)
                if not finished:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        rc = proc.returncode if finished else None
        return rc, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def output(self, log: str) -> str:
        return (self.logs / f"{log}.out").read_text(encoding="utf-8")

    def run_job(self, job: Job, out: Path, cache: Path, tag: str, stats: Path | None) -> Outcome:
        args = [a.format(out=out, cache=cache) for a in job.args]
        if stats is None:
            argv = [sys.executable, "-m", "reesdensity.cli", *args]
        else:
            argv = [sys.executable, str(HERE / "layers.py"), str(stats / f"{job.name}.json"), *args]
        rc, wall, cpu, rss = self.spawn(argv, f"{tag}-{job.name}")
        if rc is None:
            return Outcome(job.name, "failed", wall, cpu, rss, "timeout")
        if rc == 3:
            return Outcome(job.name, "undetermined", wall, cpu, rss)
        if rc != 0:
            return Outcome(job.name, "failed", wall, cpu, rss, f"exit {rc}")
        try:
            reason = job.check(out)
        except (OSError, ValueError, KeyError, TypeError, StopIteration, ZeroDivisionError) as exc:
            reason = f"unreadable answer: {exc!r}"
        return Outcome(job.name, "failed" if reason else "ok", wall, cpu, rss, reason or "")


def run_pass(runner: Runner, jobs, work: Path, tag: str, traced: bool = False) -> list[Outcome]:
    out = work / "out" / tag
    out.mkdir(parents=True)
    stats = None
    if traced:
        stats = work / "stats"
        stats.mkdir()
    outcomes = []
    for job in jobs:
        o = runner.run_job(job, out, work / "cache", tag, stats)
        outcomes.append(o)
        print(f"[{tag}] {o.job:<28} {o.status:<12} wall {o.wall_s:7.3f} s  cpu {o.cpu_s:7.3f} s  "
              f"rss {o.rss_mb:6.1f} MB {o.detail}", file=sys.stderr, flush=True)
    return outcomes


def set_up(runner: Runner, workload, work: Path) -> tuple[float, dict]:
    """One set-up: probe interpreter + import + parse every input document,
    then fill the disk cache if the workload reads one."""
    shutil.rmtree(work / "cache", ignore_errors=True)
    out = work / "out" / "fill"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    start = time.perf_counter()
    argv = [sys.executable, str(HERE / "probe.py"), *map(str, workload.documents)]
    rc, *_ = runner.spawn(argv, "probe")
    if rc != 0:
        raise SystemExit(f"set-up probe failed (exit {rc}); see {runner.logs / 'probe.err'}")
    for job in workload.fill:
        outcome = runner.run_job(job, out, work / "cache", "fill", None)
        if outcome.status != "ok":
            raise SystemExit(f"set-up job {job.name} failed: {outcome.status} {outcome.detail}")
    elapsed = time.perf_counter() - start
    return elapsed, json.loads(runner.output("probe").strip().splitlines()[-1])


def outputs_differ(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return sorted(set(names_a) ^ set(names_b))
    return [n for n in names_a if (a / n).read_bytes() != (b / n).read_bytes()]


# -- per-layer metrics ------------------------------------------------------------


def collect_stats(stats_dir: Path):
    spans: dict[str, list] = {}
    under: Counter = Counter()
    counters: Counter = Counter()
    memo = 0
    missing: set[str] = set()
    for path in sorted(stats_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        for label, (calls, total, self_s) in data["spans"].items():
            acc = spans.setdefault(label, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
        for label, parent, n in data["under"]:
            under[label, parent] += n
        counts = data["counters"]
        memo = max(memo, counts.pop("counting.memo_entries", 0))
        counters.update(counts)
        missing.update(data["missing"])
    counters["counting.memo_entries"] = memo
    return spans, under, counters, missing


def layer_metrics(spans, under, counters) -> dict[str, tuple[float, str]]:
    def calls(label):
        return spans.get(label, [0, 0.0, 0.0])[0]

    def total(label):
        return spans.get(label, [0, 0.0, 0.0])[1]

    def self_s(label):
        return spans.get(label, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    terms = counters["core.quotient_monomials.terms"]
    length_calls = calls("counting.ladder.length")
    computed = under["counting.length_component", "counting.ladder.length"]
    main_total = total("cli.main")
    m = {}
    for label in ("backend.minimalize_exponents", "backend.divides_any",
                  "core.quotient_monomials", "core.power", "core.module_from_payload",
                  "counting.count_ideal_degree", "density.ray_extrapolate",
                  "polyfit.stabilized_difference", "polyfit.fit_poly2_triangular"):
        m[f"{label}.calls"] = (calls(label), "count")
        m[f"{label}.self_s"] = (self_s(label), "s")
    for label in ("backend.product_exponents", "core.membership", "counting.length_component"):
        m[f"{label}.calls"] = (calls(label), "count")
    for label in ("core.saturate", "density.sample", "density.fit_piecewise",
                  "multiplicity.epsilon", "multiplicity.diagonal", "multiplicity.bigraded_fit",
                  "dependence.reduction_search", "io.parse_module", "io.write_json",
                  "io.write_density_csv", "cli.main"):
        m[f"{label}.self_s"] = (self_s(label), "s")
    m["core.quotient_monomials.terms"] = (terms, "count")
    m["core.census.membership_per_term"] = (
        ratio(under["core.membership", "core.quotient_monomials"], terms), "ratio")
    m["counting.memo_entries"] = (counters["counting.memo_entries"], "count")
    m["counting.ladder.length_calls"] = (length_calls, "count")
    m["counting.ladder.length_computed"] = (computed, "count")
    m["counting.ladder.hit_ratio"] = (ratio(length_calls - computed, length_calls), "ratio")
    m["multiplicity.bigraded_fit.attempts"] = (
        ratio(under["polyfit.fit_poly2_triangular", "multiplicity.bigraded_fit"],
              calls("multiplicity.bigraded_fit")), "ratio")
    m["dependence.stand_in_s"] = (counters["dependence.stand_in_s"], "s")
    m["io.write_json.bytes"] = (counters["io.write_json.bytes"], "bytes")
    m["io.write_density_csv.bytes"] = (counters["io.write_density_csv.bytes"], "bytes")
    # inclusive shares of CLI time: which layer dominates this workload
    m["share.census"] = (ratio(total("core.quotient_monomials"), main_total), "fraction")
    m["share.counting"] = (ratio(total("counting.length_component"), main_total), "fraction")
    m["share.powers"] = (ratio(total("core.power"), main_total), "fraction")
    return m


def metric_missing(name: str, missing: set[str]) -> bool:
    return any(name == label or name.startswith(label + ".") for label in missing)


def run_gates(runner: Runner) -> tuple[dict[str, tuple[float, str]], int, int, set[str]]:
    metrics, attempted, failed, missing = {}, 0, 0, set()
    for gate, bound in GATE_BOUNDS_S.items():
        name = f"gate.{gate}_s"
        rc, *_ = runner.spawn([sys.executable, str(HERE / "gates.py"), gate], f"gate-{gate}", 120.0)
        result = json.loads(runner.output(f"gate-{gate}").strip().splitlines()[-1]) if rc == 0 else None
        if result is None:
            missing.add(name)
            metrics[name] = (0.0, "s")
            print(f"{name:<40} n/a (bound {bound:g} s)", flush=True)
            continue
        attempted += 1
        failed += not result["ok"]
        metrics[name] = (result["seconds"], "s")
        verdict = "within" if result["seconds"] < bound else "OVER"
        answer = "" if result["ok"] else ", wrong answer"
        print(f"{name:<40} {result['seconds']:.3f} s (bound {bound:g} s, {verdict}{answer})", flush=True)
    return metrics, attempted, failed, missing


def measure_plain(runner: Runner, jobs, work: Path, seconds: float) -> list[list[Outcome]]:
    """Whole passes until the next one would end past ``seconds``; at least one."""
    passes = []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(run_pass(runner, jobs, work, f"pass-{len(passes)}"))
        now = time.perf_counter()
        last = now - pass_start
        if now - start + last > seconds or time.monotonic() + 2 * last > runner.deadline:
            return passes


def e2e_metrics(passes: list[list[Outcome]], setup_times: list[float]) -> dict[str, tuple[float, str]]:
    outcomes = [o for p in passes for o in p]
    failed = sum(o.status == "failed" for o in outcomes)
    undetermined = sum(o.status == "undetermined" for o in outcomes)
    return {
        "wall_s": (statistics.median(sum(o.wall_s for o in p) for p in passes), "s"),
        "cpu_s": (statistics.median(sum(o.cpu_s for o in p) for p in passes), "s"),
        "peak_rss_mb": (max(o.rss_mb for o in outcomes), "MB"),
        "ok_ratio": (1 - failed / len(outcomes), "fraction"),
        "answered_ratio": (1 - undetermined / len(outcomes), "fraction"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def measure_traced(runner: Runner, jobs, work: Path):
    """One plain and one traced pass, output comparison, layer metrics, gates."""
    passes = [run_pass(runner, jobs, work, "plain"),
              run_pass(runner, jobs, work, "traced", traced=True)]
    differ = outputs_differ(work / "out" / "plain", work / "out" / "traced")
    for name in differ:
        print(f"traced output differs from plain output: {name}", file=sys.stderr)
    spans, under, counters, missing = collect_stats(work / "stats")
    metrics = layer_metrics(spans, under, counters)
    metrics["trace.overhead_s"] = (
        sum(o.wall_s for o in passes[1]) - sum(o.wall_s for o in passes[0]), "s")
    gate_metrics, gate_attempted, gate_failed, gate_missing = run_gates(runner)
    metrics.update(gate_metrics)
    return passes, metrics, missing | gate_missing, gate_attempted, len(differ) + gate_failed


# -- main ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    corpus_dir = root / "src" / "reesdensity" / "corpus"
    if not (root / "src" / "reesdensity" / "cli.py").is_file() or not corpus_dir.is_dir():
        print("error: run from the root of a reesdensity checkout (src/reesdensity not found)",
              file=sys.stderr)
        return 2
    work = root / WORK_DIR
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    runner = Runner(root, work, time.monotonic() + RUN_BUDGET_S)

    rng = random.Random(args.seed)
    workload = WORKLOADS[args.workload](work, rng, corpus_dir)
    jobs = list(workload.jobs)
    rng.shuffle(jobs)

    setups = [set_up(runner, workload, work) for _ in range(SETUP_REPEATS)]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        **setups[-1][1],
        "nproc": len(os.sched_getaffinity(0)),
        "jobs": len(jobs),
    }

    if args.trace:
        passes, metrics, missing, extra_attempted, extra_failed = measure_traced(runner, jobs, work)
    else:
        passes = measure_plain(runner, jobs, work, args.seconds)
        metrics = e2e_metrics(passes, [t for t, _ in setups])
        missing, extra_attempted, extra_failed = set(), 0, 0
    meta["passes"] = len(passes)
    print("meta " + json.dumps(meta, sort_keys=True), flush=True)

    outcomes = [o for p in passes for o in p]
    attempted = len(outcomes) + extra_attempted
    failed = sum(o.status == "failed" for o in outcomes) + extra_failed
    for name, (value, unit) in metrics.items():
        shown = "n/a" if metric_missing(name, missing) else f"{value:.6g} {unit}"
        print(f"{name:<40} {shown}", flush=True)
    for o in outcomes:
        if o.status == "failed":
            print(f"FAILED {o.job}: {o.detail}", flush=True)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
