"""clearfom benchmark: end-to-end CLI runs and a separate per-layer traced run.

Run from the repository root:

    python3 bench/run.py --workload noc16_uniform --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40
    python3 bench/self_test.py

With ``--trace 0`` every operation is a fresh ``clearfom`` child process (one
per step), started one at a time, timed from outside: wall time, user+sys CPU
time and peak RSS come from ``os.wait4``. ``setup_s`` is a fresh interpreter
that only imports ``clearfom.cli``. With ``--trace 1`` operations run
in-process, alternately plain and under the span recorder in
``tracing.py``, after the mesh-size scaling curve.

A child's ``ru_maxrss`` includes the peak RSS of the process that spawned it
(Linux folds the parent's address space into it at exec), so this process
loads only the standard library; numpy-based output checks run in a child
(``checks.py``) once the timed loop is over.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it show the same
figures with sample counts. Per-run details, and the spans of a traced run,
go to ``.bench_out/`` in the working directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import Recorder
from workloads import WORKLOADS, prepare

CHILD_TIMEOUT_S = 120   # one clearfom invocation; keeps a run under three minutes
SCALE_CAP_S = 25        # one scaling-curve point; a point that hits it is skipped
SCALE_BUDGET_S = 60     # the whole curve; points left when it runs out are skipped
MIN_OPS = 3             # operations per run, even when one outlasts --seconds
MIN_SETUP_SAMPLES = 5
SCALING = (("link_activity", 8), ("link_activity", 16), ("link_activity", 24),
           ("link_activity", 32), ("generate_traffic", 16), ("generate_traffic", 32),
           ("generate_traffic", 48))
HERE = Path(__file__).resolve().parent


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Sample:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    errors: list[str] = field(default_factory=list)

    def add(self, other: "Sample", label: str):
        """Fold one step of an operation into the operation's totals."""
        self.wall_s += other.wall_s
        self.cpu_s += other.cpu_s
        self.rss_mb = max(self.rss_mb, other.rss_mb)
        self.errors += [f"{label}: {e}" for e in other.errors]


def digest(opdir: Path) -> dict[str, str]:
    """SHA-256 of every artifact under an operation's output directory."""
    return {str(p.relative_to(opdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(opdir.rglob("*")) if p.is_file()}


class Outcomes:
    """Attempted and failed operations of one run.

    The first operation whose program run succeeded is kept and checked
    against every oracle once the run is over; each later one must reproduce
    its artifacts byte for byte, and so inherits its verdict.
    """

    def __init__(self, check):
        self.check = check            # operation directory -> list of problems
        self.first: dict[str, str] | None = None
        self.first_dir: Path | None = None
        self.results: list[list[str] | None] = []  # None: inherits the first's verdict

    def count(self, problems: list[str]):
        self.results.append(problems)

    def record(self, opdir: Path, errors: list[str]) -> bool:
        """Account one operation; True when its directory must be kept for the checks."""
        if errors:
            self.results.append(errors)
            return False
        digests = digest(opdir)
        if self.first is None:
            self.first, self.first_dir = digests, opdir
            self.results.append(None)
            return True
        changed = sorted(k for k in self.first.keys() | digests.keys()
                         if self.first.get(k) != digests.get(k))
        self.results.append([f"artifacts differ from the run's first operation: "
                             f"{', '.join(changed[:5])}"] if changed else None)
        return False

    def finish(self) -> tuple[int, int, list[list[str]]]:
        """(attempted, failed, problems of each failed operation)."""
        verdict = self.check(self.first_dir) if self.first_dir is not None else []
        results = [verdict if r is None else r for r in self.results]
        failed = [r[:5] for r in results if r]
        return len(results), len(failed), failed


def check_in_child(root: Path, workload_file: Path):
    """Runs ``checks.py`` on an operation directory in a fresh interpreter."""
    def check(opdir: Path) -> list[str]:
        done = subprocess.run([sys.executable, str(HERE / "checks.py"), str(workload_file),
                               str(opdir)], cwd=root, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            return [f"output checks crashed: {done.stderr.strip()[-300:]}"]
        return json.loads(done.stdout)
    return check


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH"))
                                        if p)
    return env


def run_child(argv: list[str], root: Path, env: dict[str, str], log: Path) -> Sample:
    """Run one child to completion; wall, CPU and peak RSS are its own."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    stderr = log.with_suffix(".err").read_text(encoding="utf-8", errors="replace")
    errors = []
    if code != 0:
        last = stderr.strip().splitlines()[-1:] or ["(no output)"]
        errors.append(f"exit code {code}: {last[0]}")
    if "Traceback" in stderr:
        errors.append("printed a traceback")
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, errors)


def timed_operation(root, env, workload, opdir: Path) -> Sample:
    total = Sample()
    opdir.mkdir()
    for step in workload.steps:
        argv = [sys.executable, "-m", "clearfom.cli", *step.argv, "--out", str(opdir / step.name)]
        total.add(run_child(argv, root, env, opdir.parent / step.name), step.name)
    return total


def timed_run(root: Path, workload, seconds: float, outcomes, scratch: Path):
    """End-to-end metrics: each step of each operation is a fresh clearfom process."""
    env = child_env(root)
    setup_argv = [sys.executable, "-c", "import clearfom.cli"]

    def setup_sample() -> float:
        sample = run_child(setup_argv, root, env, scratch / "setup")
        if sample.errors:
            raise BenchError(f"cannot import clearfom.cli: {sample.errors[0]}")
        return sample.wall_s

    setup_sample()  # warm-up: compiles the bytecode cache once, as an install would
    setup, ops = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        setup.append(setup_sample())
        opdir = scratch / f"op{len(ops)}"
        sample = timed_operation(root, env, workload, opdir)
        if not outcomes.record(opdir, sample.errors):
            shutil.rmtree(opdir)
        ops.append(sample)
        now = time.perf_counter()
        if len(ops) >= MIN_OPS and now - start + (now - began) > seconds:
            break
    while len(setup) < MIN_SETUP_SAMPLES:
        setup.append(setup_sample())
    metrics = {"wall_s": statistics.median(s.wall_s for s in ops),
               "cpu_s": statistics.median(s.cpu_s for s in ops),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": statistics.median(s.rss_mb for s in ops)}
    samples = {"wall_s": len(ops), "cpu_s": len(ops), "setup_s": len(setup),
               "peak_rss_mb": len(ops)}
    detail = {"wall_s": [s.wall_s for s in ops], "cpu_s": [s.cpu_s for s in ops],
              "setup_s": setup, "peak_rss_mb": [s.rss_mb for s in ops]}
    return metrics, samples, detail


def in_process_operation(main, workload, opdir: Path) -> tuple[float, list[str]]:
    errors = []
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for step in workload.steps:
            try:
                code = main([*step.argv, "--out", str(opdir / step.name)])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback in the program is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            if code != 0:
                errors.append(f"{step.name}: {code}; {sink.getvalue().strip()[-300:]}")
    return time.perf_counter() - start, errors


def artifact_totals(opdir: Path) -> dict[str, int]:
    files = [p for p in opdir.rglob("*") if p.is_file()]
    return {"ioutil.files_written": len(files),
            "ioutil.bytes_written": sum(p.stat().st_size for p in files)}


def scaling_curve(root: Path, env, outcomes) -> tuple[dict[str, float], list[str]]:
    """Mesh-size scaling points, each in its own process under a time cap."""
    metrics, skipped = {}, []
    deadline = time.perf_counter() + SCALE_BUDGET_S
    for kind, k in SCALING:
        name = f"network.{kind}.k{k}_s"
        cap = min(SCALE_CAP_S, deadline - time.perf_counter())
        done = None
        if cap > 0:
            with contextlib.suppress(subprocess.TimeoutExpired):
                done = subprocess.run(
                    [sys.executable, str(HERE / "scale_point.py"), kind, str(k)], cwd=root,
                    env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                    timeout=cap)
        if done is None:
            metrics[name] = 0.0  # skipped: no time is reported for a capped point
            skipped.append(name)
            continue
        problems = [] if done.returncode == 0 else [f"{name}: exit code {done.returncode}"]
        outcomes.count(problems)
        metrics[name] = json.loads(done.stdout.splitlines()[-1])["seconds"] if not problems else 0.0
    metrics["network.scaling_points_skipped"] = len(skipped)
    return metrics, skipped


def traced_run(root: Path, workload, seconds: float, outcomes, scratch: Path, spans: Path):
    """Per-layer metrics: in-process operations, alternately plain and traced."""
    sys.path.insert(0, str(root / "src"))
    recorder = Recorder()
    main = recorder.install()
    start = time.perf_counter()
    scaling, skipped = scaling_curve(root, child_env(root), outcomes)
    plain, traced, layers = [], [], []
    while True:
        began = time.perf_counter()
        order = (False, True) if len(traced) % 2 == 0 else (True, False)
        for enabled in order:
            op = len(plain) + len(traced)
            opdir = scratch / f"op{op}"
            recorder.enabled, recorder.op, first = enabled, op, len(recorder.spans)
            wall, errors = in_process_operation(main, workload, opdir)
            recorder.enabled = False
            if enabled:
                traced.append(wall)
                layers.append({**recorder.op_metrics(first), **artifact_totals(opdir)})
            else:
                plain.append(wall)
            if not outcomes.record(opdir, errors):
                shutil.rmtree(opdir, ignore_errors=True)
        now = time.perf_counter()
        if now - start + (now - began) > seconds:
            break
    recorder.write(spans)
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(scaling)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    samples = {name: len(layers) for name in metrics}
    samples.update({name: 1 for name in scaling})
    samples["trace.overhead_s"] = len(traced)
    detail = {"plain_wall_s": plain, "traced_wall_s": traced, "layers": layers,
              "scaling_skipped": skipped, "spans": str(spans)}
    return metrics, samples, detail


def environment() -> dict:
    model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model,
            "children": "started one at a time from the single benchmark process",
            "machine_settings": "no CPU pinning, cache dropping or machine setting was changed"}


def run_workload(root: Path, spec: dict, name: str, seed: int, seconds: float, trace: bool):
    out = root / ".bench_out"
    out.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out))
    try:
        workload = prepare(name, root, seed, scratch)
        outcomes = Outcomes(check_in_child(root, workload.save(scratch / "workload.json")))
        if trace:
            metrics, samples, detail = traced_run(
                root, workload, seconds, outcomes, scratch, out / f"{name}-seed{seed}-spans.json.gz")
        else:
            metrics, samples, detail = timed_run(root, workload, seconds, outcomes, scratch)
        attempted, failed, problems = outcomes.finish()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchError(f"metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} "
                         "do not match BENCHMARK.json")
    units = {m["name"]: m["unit"] for m in declared}
    result = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "attempted": attempted, "failed": failed,
              "problems": problems, "notes": workload.notes,
              "metrics": {m: {"value": metrics[m], "unit": units[m], "samples": samples[m]}
                          for m in units},
              "samples": detail, "environment": environment()}
    (out / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(result, indent=1) + "\n", encoding="utf-8")
    return result


def print_summary(result: dict):
    print(f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  "
          f"({'; '.join(result['notes'])})")
    for name, m in result["metrics"].items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']:6s} (samples: {m['samples']})")
    attempted, failed = result["attempted"], result["failed"]
    print(f"  {'error_rate':40s} {failed / attempted:>14.6g} {'ratio':6s} "
          f"({failed} of {attempted} operations failed)")
    for problems in result["problems"][:3]:
        print(f"    failure: {problems[0]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    try:
        if not (root / "src" / "clearfom" / "cli.py").is_file():
            raise BenchError(f"no clearfom sources under {root / 'src'}; "
                             "run from the repository root")
        spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [run_workload(root, spec, name, args.seed, args.seconds, bool(args.trace))
                   for name in names]
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    env = results[0]["environment"]
    print(f"environment: python {env['python']}, numpy {env['numpy']}, {env['nproc']} CPUs "
          f"({env['cpu_model']}); children {env['children']}; {env['machine_settings']}")
    for result in results:
        print_summary(result)
    prefix = len(results) > 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {(f"{r['workload']}.{name}" if prefix else name):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in results for name, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
