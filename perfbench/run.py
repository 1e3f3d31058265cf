"""skewlab benchmark: one workload, closed loop, one campaign at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition is a fresh process (``rep.py``), so set-up time and peak RSS
are measured per repetition.  With ``--trace 0`` repetitions run back to back
until ``--seconds`` have passed (at least MIN_REPS of them) and the
end-to-end metrics are their medians.  With ``--trace 1`` traced
repetitions run serially with every layer wrapped (see ``tracing.py``) and the
per-layer metrics are reported.

Outputs are checked on every repetition (see ``checks.py``): each must be
byte-identical to the first, table1-pool's to a serial run of the same
config, and a traced run's to the untraced one.  A run that fails or fails a
check counts in ``failed``.  The last line of stdout is the JSON result; the
full record, with the machine and the config digest, goes to
``.perfbench_runs/<workload>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import EXACT_UNITS, PER_LAYER_UNITS
from workloads import WORKLOADS, nproc

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_runs"
MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_SAMPLES = 9
REP_TIMEOUT_S = 150

# One BLAS thread per process: the process pool is the program's parallelism,
# and OpenBLAS threads spin-waiting on tiny matrices would contend with it for
# the cores and make every timing depend on that contention.
REP_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "steps_per_s": "steps/s",
                    "first_output_s": "s", "peak_rss_mb": "MB"}


class RepCrashed(RuntimeError):
    pass


class Bench:
    """Repetitions of one workload at one seed, with their output checks."""

    def __init__(self, workload, seed: int, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work = work
        self.config = workload.config(seed)
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.reps = 0
        self.config_sha256 = None

    def rep(self, *, workers: int, trace: bool = False, setup_only: bool = False) -> dict:
        self.reps += 1
        rep_dir = self.work / f"rep{self.reps:02d}"
        rep_dir.mkdir()
        cmd = [sys.executable, str(HERE / "rep.py"), "--workload", self.workload.name,
               "--seed", str(self.seed), "--workers", str(workers), "--dir", str(rep_dir)]
        cmd += ["--trace"] * trace + ["--setup-only"] * setup_only
        with open(rep_dir / "stdout.txt", "wb") as out, open(rep_dir / "stderr.txt", "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err,
                                    env={**os.environ, **REP_ENV}, start_new_session=True)
            try:
                code = proc.wait(timeout=REP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                code = "timeout"
            finally:
                if proc.poll() is None:  # timed out, or this process is being stopped
                    os.killpg(proc.pid, signal.SIGKILL)
                    proc.wait()
        result_path = rep_dir / "result.json"
        if code != 0 or not result_path.is_file():
            tail = (rep_dir / "stderr.txt").read_text(errors="replace")[-2000:]
            raise RepCrashed(f"repetition {rep_dir.name} exited with {code}:\n{tail}")
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["t_call"] - spawned
        self.config_sha256 = result["config_sha256"]
        if not setup_only:
            self._check(result, rep_dir)
        return result

    def _check(self, result: dict, rep_dir: Path) -> None:
        # checks imports skewlab, which main() puts on sys.path once src/ is found
        from checks import RepOutputs, check_campaign, file_digests

        out = rep_dir / "out"
        run_ids, failed = check_campaign(out, result["exit_code"], self.config)
        digests = file_digests(out)
        if self.workload.figure1:
            gap_path = rep_dir / "gap_estimates.csv"
            digests["gap_estimates.csv"] = hashlib.sha256(gap_path.read_bytes()).hexdigest()
            if not _finite_csv(gap_path):
                failed = set(run_ids)
        outputs = RepOutputs.collect(digests, run_ids)
        if self.reference is None:
            self.reference = outputs
        else:
            failed |= outputs.mismatches(self.reference)
        if result["first_output_s"] is None:
            failed = set(run_ids)
        self.attempted += len(run_ids)
        self.failed += len(failed)
        ok_steps = (len(run_ids) - len(failed)) * self.workload.total_iters
        result["steps_per_s"] = ok_steps / result["wall_s"]
        shutil.rmtree(out)

    def untraced(self, seconds: float) -> dict[str, float]:
        workers = self.workload.workers
        started = time.monotonic()
        reps = []
        while len(reps) < MIN_REPS or time.monotonic() - started < seconds:
            reps.append(self.rep(workers=workers))
        setups = [r["setup_s"] for r in reps]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.rep(workers=workers, setup_only=True)["setup_s"])
        if self.workload.pool:
            self.rep(workers=1)  # compared against the pool's outputs, not timed
        samples = {name: [r[name] for r in reps if r[name] is not None]
                   for name in END_TO_END_UNITS}
        samples["setup_s"] = setups
        return samples

    def traced(self, seconds: float) -> tuple[dict[str, float], bool]:
        """Per-layer metrics.  The first, untraced repetition runs as the workload
        does and gives the reference outputs and the pool's busy share; traced
        repetitions then alternate with untraced serial ones, and the tracing
        overhead is the difference of their median wall times."""
        workers = self.workload.workers
        first = self.rep(workers=workers)
        serial = [first] if workers == 1 else []
        traced = []
        started = time.monotonic()
        while len(traced) < MIN_TRACED_REPS or time.monotonic() - started < seconds:
            traced.append(self.rep(workers=1, trace=True))
            serial.append(self.rep(workers=1))
        measured = {
            "campaign.pool_busy_share": first["busy_cpu_s"] / (workers * first["wall_s"]),
            "trace.overhead_s": (statistics.median(r["wall_s"] for r in traced)
                                 - statistics.median(r["wall_s"] for r in serial)),
        }
        metrics: dict[str, float] = {}
        repeat = True
        for name, unit in PER_LAYER_UNITS.items():
            if name in measured:
                metrics[name] = measured[name]
                continue
            values = [r["layers"][name] for r in traced]
            if unit in EXACT_UNITS:
                repeat &= len(set(values)) == 1
                metrics[name] = values[0]
            else:
                metrics[name] = statistics.median(values)
        return metrics, repeat


def _finite_csv(path: Path) -> bool:
    lines = path.read_text(encoding="utf-8").splitlines()[1:]
    return bool(lines) and all(math.isfinite(float(cell))
                               for line in lines for cell in line.split(",")[1:])


def _quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def environment(seed: int, config_sha256: str | None) -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    git_sha = None
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                     text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"cpu_model": cpu, "nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": git_sha,
            "source_sha256": source.hexdigest(), "seed": seed, "config_sha256": config_sha256}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a stop request unwinds normally, so a running repetition is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "skewlab" / "__init__.py").is_file():
        print(f"perfbench: no skewlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    bench = Bench(workload, args.seed, work)
    try:
        if args.trace:
            metrics, repeat = bench.traced(args.seconds)
            units = PER_LAYER_UNITS
            samples = {}
        else:
            samples = bench.untraced(args.seconds)
            metrics = {name: statistics.median(v) for name, v in samples.items()}
            repeat = True
            units = END_TO_END_UNITS
    except RepCrashed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    env = environment(args.seed, bench.config_sha256)
    mode = "traced, serial" if args.trace else f"{workload.workers} worker(s)"
    print(f"perfbench {workload.name}: closed loop, one campaign at a time ({mode}); "
          f"{bench.reps} repetitions")
    print("environment: " + json.dumps(env))
    for name, value in metrics.items():
        spread = ""
        if name in samples:
            q1, q3 = _quartiles(samples[name])
            spread = f"  (median of {len(samples[name])}; quartiles {q1:.6g} .. {q3:.6g})"
        print(f"  {name:<40} {value:>16.6g} {units[name]}{spread}")
    print(f"  {'failed_run_share':<40} {bench.failed / bench.attempted:>16.6g} ratio  "
          f"({bench.failed} of {bench.attempted} runs)")
    if not repeat:
        print("  exact counts differ between traced runs", file=sys.stderr)

    summary = {"correct": bench.failed == 0 and repeat, "attempted": bench.attempted,
               "failed": bench.failed,
               "metrics": {name: {"value": value, "unit": units[name]}
                           for name, value in metrics.items()}}
    record = dict(summary, workload=workload.name, trace=args.trace, environment=env,
                  samples=samples)
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
