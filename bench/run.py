"""Benchmark for matails: CLI workloads, end-to-end metrics and a per-layer trace.

Usage (from the repository root)::

    python3 bench/run.py --workload verify-geo-inf --seed 42 --seconds 12 --trace 0
    python3 bench/run.py --workload all                      # every workload
    python3 bench/run.py --workload all --trace 1            # per-layer trace of each

With ``--trace 0`` each workload's CLI command sequence runs in fresh child
processes, one at a time (a closed loop with one client), until ``--seconds``
have passed and at least two sequences are done; each child's CPU time and
peak RSS come from its own ``wait4`` rusage.  With ``--trace 1`` the same
sequence runs in-process through ``matails.cli.main``, alternating an untraced
pass with a pass traced by ``spans.Tracer``.

Every sequence's outputs are hashed; a sequence whose bytes differ from the
run's first, or whose outputs fail the workload's check, counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
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
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = (Path("src") / "matails" / "cli.py", Path("demos") / "experiment.ini",
            Path("tests") / "oracles.py")
WORK_ROOT = ROOT / ".bench_run"
DEFAULT_SEED = 42
MIN_SEQUENCES = 2
SETUP_SAMPLES = 5  # `matails example-config` runs, one before each of the first sequences
# A run starts no new sequence after LOOP_LIMIT_S and stops every child by
# RUN_LIMIT_S, inside the 180 s one run may take.
LOOP_LIMIT_S = 120.0
RUN_LIMIT_S = 170.0
LAUNCH = "import sys; from matails.cli import main; sys.exit(main(sys.argv[1:]))"
LAYERS = ("innovations", "ma_process", "limit_measures", "estimation", "cli", "sequence_space")

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "mc_var_s": "var.s",
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if "bytes" in name:
        return "B"
    if name.endswith(".loc"):
        return "lines"
    if name.endswith(("coverage", "yield")):
        return "ratio"
    return "count"


@dataclass
class Child:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float
    timed_out: bool


def run_child(argv: list[str], cwd: Path, timeout: float) -> Child:
    """Run one CLI process to completion; CPU and peak RSS are this child's alone."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    killed = threading.Event()
    with open(cwd / "child.stdout", "wb") as out, open(cwd / "child.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", LAUNCH, *argv],
                                cwd=cwd, env=env, stdout=out, stderr=err)

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
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
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                 usage.ru_maxrss / 1024.0, killed.is_set())


def sha256(path: Path) -> str:
    if not path.exists():
        return "missing"
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for buf in iter(lambda: fh.read(1 << 20), b""):
            digest.update(buf)
    return digest.hexdigest()


@dataclass
class Judge:
    """Counts operations and failures; checks each distinct output once."""

    workload: Workload
    workdir: Path
    attempted: int = 0
    failed: int = 0
    reference: dict[str, str] | None = None
    verdicts: dict[tuple, list[str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        self.problems.append(why)

    def sequence(self, ok: bool, why: str = "") -> None:
        """Record one sequence; ``ok`` False means a command did not succeed."""
        self.attempted += 1
        if not ok:
            self.fail(why)
            return
        hashes = {name: sha256(self.workdir / name) for name in self.workload.outputs}
        key = tuple(sorted(hashes.items()))
        if key not in self.verdicts:
            try:
                self.verdicts[key] = self.workload.check(self.workdir, ROOT)
            except Exception as exc:  # a malformed output must count as failed, not stop the run
                self.verdicts[key] = [f"output check raised {exc!r}"]
        if self.reference is None:
            self.reference = hashes
        if self.verdicts[key]:
            self.fail("; ".join(self.verdicts[key]))
        elif hashes != self.reference:
            self.fail("outputs differ from the run's first sequence: "
                      + ", ".join(n for n in hashes if hashes[n] != self.reference[n]))


@contextlib.contextmanager
def workspace(workload: Workload, seed: int):
    """Scratch directory holding the workload's generated configs; removed on exit."""
    workdir = WORK_ROOT / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        for name, text in workload.configs(ROOT, seed).items():
            (workdir / name).write_text(text, encoding="utf-8")
        yield workdir
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def clear_outputs(workdir: Path, commands) -> None:
    for cmd in commands:
        for name in cmd.writes:
            (workdir / name).unlink(missing_ok=True)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100 * rank // n, sorted(values)[rank - 1]


# ------------------------------------------------------------------ end to end

def end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    with workspace(workload, seed) as workdir:
        return _end_to_end(workload, seed, seconds, workdir)


def _end_to_end(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    run_start = time.perf_counter()
    judge = Judge(workload, workdir)

    def remaining() -> float:
        return max(1.0, RUN_LIMIT_S - (time.perf_counter() - run_start))

    run_child(["example-config"], workdir, remaining())  # warm-up: bytecode and page cache
    setup, walls, cpus, rss = [], [], [], 0.0
    loop_start = time.perf_counter()
    last = 0.0
    while True:
        elapsed = time.perf_counter() - loop_start
        if len(walls) >= MIN_SEQUENCES and elapsed >= seconds:
            break
        if walls and time.perf_counter() - run_start + last > LOOP_LIMIT_S:
            break
        began = time.perf_counter()
        if len(setup) < SETUP_SAMPLES:
            setup.append(run_child(["example-config"], workdir, remaining()).wall)
        clear_outputs(workdir, workload.commands)
        wall = cpu = 0.0
        why = ""
        for cmd in workload.commands:
            child = run_child(list(cmd.argv), workdir, remaining())
            wall += child.wall
            cpu += child.cpu
            rss = max(rss, child.rss_mb)
            if child.returncode != 0 or child.timed_out:
                why = f"{cmd.argv[0]} exited {child.returncode}" + (" (timeout)" if child.timed_out else "")
                break
        walls.append(wall)
        cpus.append(cpu)
        judge.sequence(not why, why)
        last = time.perf_counter() - began
        if why:
            break

    hashes = judge.reference or {}
    if workload.repro is not None and not judge.failed:
        cmd, pairs = workload.repro
        child = run_child(list(cmd.argv), workdir, remaining())
        judge.attempted += 1
        if child.returncode != 0:
            judge.fail(f"{cmd.argv[0]} exited {child.returncode}")
        else:
            differ = [b for a, b in pairs if sha256(workdir / a) != sha256(workdir / b)]
            if differ:
                judge.fail(f"{' '.join(cmd.argv)} wrote different bytes: {', '.join(differ)}")

    wall_median = statistics.median(walls)
    try:
        variance = workload.mc_variance(workdir) if not judge.failed else 0.0
    except (OSError, ValueError, KeyError) as exc:
        judge.fail(f"mc variance: {exc!r}")
        variance = 0.0
    metrics = {
        "wall_s": wall_median,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": rss,
        "setup_s": statistics.median(setup),
        "mc_var_s": variance * wall_median,
    }

    print(f"workload {workload.name}  seed {seed}  end to end: closed loop, one client, "
          f"{len(walls)} sequences")
    samples = {"wall_s": walls, "cpu_s": cpus, "setup_s": setup}
    for name, value in metrics.items():
        line = f"  {name:<12} {value:12.6g} {END_TO_END_UNITS[name]:<6}"
        if name in samples:
            pct = tail_percentile(samples[name])
            line += f" median of n={len(samples[name])}; " + (
                f"p{pct[0]} {pct[1]:.6g}" if pct else "no tail percentile (needs n >= 11)")
        print(line)
    print(f"  {'failed_frac':<12} {judge.failed / judge.attempted:12.6g} ratio  "
          f"{judge.failed} of {judge.attempted} operations")
    print("  wall_s samples: " + " ".join(f"{w:.4g}" for w in walls))
    for name, digest in hashes.items():
        print(f"  sha256 {digest}  {name}")
    for why in judge.problems:
        print(f"  FAILED: {why}")
    return {"correct": judge.failed == 0, "attempted": judge.attempted, "failed": judge.failed,
            "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
            "sha256": hashes}


# ------------------------------------------------------------------- per layer

def in_process(main, workload: Workload, workdir: Path) -> tuple[float, str, dict, int]:
    """One pass of the sequence through ``main``: wall, failure, bytes written per command, bytes read."""
    clear_outputs(workdir, workload.commands)
    wall, why, written, read = 0.0, "", {}, 0
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for cmd in workload.commands:
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                try:
                    code = main(list(cmd.argv))
                except Exception as exc:  # a crashing command counts as failed
                    code, why = None, repr(exc)
            wall += time.perf_counter() - start
            if code != 0:
                why = why or f"{cmd.argv[0]} returned {code}: {sink.getvalue().strip()}"
                break
            written[cmd.argv[0]] = written.get(cmd.argv[0], 0) + sum(
                os.path.getsize(f) for f in cmd.writes if os.path.exists(f))
            read += sum(os.path.getsize(f) for f in cmd.reads if os.path.exists(f))
    finally:
        os.chdir(cwd)
    gc.collect()
    return wall, why, written, read


def line_counts() -> dict[str, int]:
    def lines(path: Path) -> int:
        with open(path, "rb") as fh:
            return sum(buf.count(b"\n") for buf in iter(lambda: fh.read(1 << 16), b""))

    out = {f"{m}.loc": lines(ROOT / "src" / "matails" / f"{m}.py") for m in LAYERS}
    out["src.loc"] = sum(lines(p) for p in sorted((ROOT / "src").rglob("*.py")))
    return out


def per_layer(workload: Workload, seed: int, seconds: float) -> dict:
    with workspace(workload, seed) as workdir:
        return _per_layer(workload, seed, seconds, workdir)


def _per_layer(workload: Workload, seed: int, seconds: float, workdir: Path) -> dict:
    import matails.cli
    from spans import Tracer, layer_metrics, self_shares

    judge = Judge(workload, workdir)
    # Warm-up pass: first-call costs (lazy imports, page cache) are not the layers'.
    _, why, _, _ = in_process(matails.cli.main, workload, workdir)
    judge.sequence(not why, why)
    plain, traced, samples, shares = [], [], [], None
    start = time.perf_counter()
    last = 0.0
    while not samples or (time.perf_counter() - start < seconds
                          and time.perf_counter() - start + last < LOOP_LIMIT_S):
        began = time.perf_counter()
        tracer = Tracer()
        # Alternate which pass goes first, so drift does not bias the overhead.
        for traced_pass in ((False, True) if len(samples) % 2 == 0 else (True, False)):
            if traced_pass:
                with tracer:
                    wall_t, why, written, read = in_process(
                        tracer.wrap("cli.main", matails.cli.main), workload, workdir)
            else:
                wall, why, _, _ = in_process(matails.cli.main, workload, workdir)
            judge.sequence(not why, why)
        plain.append(wall)
        traced.append(wall_t)
        samples.append(layer_metrics(tracer, wall_t, written, read))
        shares = shares or self_shares(tracer, wall_t)
        last = time.perf_counter() - began

    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.wall_s"] = statistics.median(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics.update(line_counts())

    print(f"workload {workload.name}  seed {seed}  per layer: {len(samples)} traced passes, "
          f"medians")
    for name, value in metrics.items():
        print(f"  {name:<42} {value:14.6g} {unit_of(name)}")
    print("  self-time shares of the first traced pass:")
    for name, share in shares:
        if share >= 0.001:
            print(f"    {share:7.1%}  {name}")
    print(f"  failed_frac  {judge.failed} of {judge.attempted} operations")
    for why in judge.problems:
        print(f"  FAILED: {why}")
    return {"correct": judge.failed == 0, "attempted": judge.attempted, "failed": judge.failed,
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}


# ------------------------------------------------------------------------ main

def machine() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), cpu)
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="merge the results into this JSON file (for the baseline)")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a matails checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    # The output checks and the traced run import matails from this checkout.
    sys.path.insert(0, str(ROOT / "src"))
    import matails

    if not Path(matails.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: matails imported from {matails.__file__}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    measure = per_layer if args.trace else end_to_end
    results = {}
    try:
        for name in names:
            results[name] = measure(WORKLOADS[name], args.seed, args.seconds)
    finally:
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only when no other run is using it

    if args.out:
        path = Path(args.out)
        doc = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        doc["machine"] = machine()
        doc["seed"] = args.seed
        doc["seconds"] = args.seconds
        doc["per_layer" if args.trace else "end_to_end"] = results
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    if len(results) == 1:
        (result,) = results.values()
        print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "workloads": {n: r["metrics"] for n, r in results.items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
