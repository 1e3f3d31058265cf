"""One repetition: a fresh process that sets up and runs one campaign.

Set-up is everything before the campaign call: the interpreter, the numpy
and skewlab imports, and writing and validating the generated config.  The
timed section is ``skewlab.cli.main(["run", ...])`` in-process, plus, on
figure1-preview, one gradient-gap estimate per EMA run.  The results go to
``<dir>/result.json``; campaign outputs go to ``<dir>/out``.

    python3 perfbench/rep.py --workload NAME --seed N --dir DIR [--trace] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from skewlab import campaign, cli, coeffs, mlp  # noqa: E402
from skewlab.config import config_digest, load_config  # noqa: E402

from tracing import CLAMP_WARNING_TEXT, Tracer  # noqa: E402
from workloads import EMA_KINDS, GAP_BATCH, WORKLOADS  # noqa: E402


def gap_estimates(spec: dict, config, out: Path, seed: int, path: Path) -> None:
    """coeffs.gradient_gap_estimate for every EMA run of the config ``spec``
    (validated as ``config``), on GAP_BATCH unlabeled points drawn from the
    workload seed; residuals go to ``path``."""
    rows = ["run_id,residual,exact_norm,linear_norm"]
    for di, dataset in enumerate(spec["datasets"]):
        points = None
        for algo in spec["algorithms"]:
            if algo["kind"] not in EMA_KINDS:
                continue
            if points is None:
                points = campaign.prepare_split(config, di, seed)[1].unlabeled_points()
            pick = np.random.default_rng([seed, di]).choice(len(points), GAP_BATCH,
                                                            replace=False)
            run_id = f"{dataset['name']}__{algo['name']}__seed{seed}"
            estimate = coeffs.gradient_gap_estimate(
                mlp.load_params(out / "params" / f"{run_id}.txt"),
                mlp.load_params(out / "params" / f"{run_id}_ema.txt"),
                points[pick])
            norms = (float(np.linalg.norm(estimate.exact)), float(np.linalg.norm(estimate.linear)))
            rows.append(f"{run_id},{estimate.residual!r},{norms[0]!r},{norms[1]!r}")
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


def _cpu_seconds(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    args.dir.mkdir(parents=True, exist_ok=True)
    config_path = args.dir / "config.json"
    spec = workload.config(args.seed)
    config_path.write_text(json.dumps(spec, indent=2), encoding="utf-8")
    config = load_config(str(config_path))
    result = {"config_sha256": config_digest(config)}
    out = args.dir / "out"

    tracer = Tracer() if args.trace else None
    busy_from = resource.RUSAGE_CHILDREN if args.workers > 1 else resource.RUSAGE_SELF
    with (tracer.installed() if tracer else nullcontext()), \
            warnings.catch_warnings(record=True) as caught:
        if tracer is not None:
            warnings.simplefilter("always")
        cpu0 = _cpu_seconds(busy_from)
        start_ns = time.time_ns()
        result["t_call"] = t_call = time.monotonic()
        if args.setup_only:
            args.dir.joinpath("result.json").write_text(json.dumps(result), encoding="utf-8")
            return 0
        result["exit_code"] = cli.main(["run", str(config_path), "--workers",
                                        str(args.workers), "--out", str(out)])
        if workload.figure1:
            gap_estimates(spec, config, out, args.seed, args.dir / "gap_estimates.csv")
        result["wall_s"] = time.monotonic() - t_call
        result["busy_cpu_s"] = _cpu_seconds(busy_from) - cpu0

    first = [p.stat().st_mtime_ns for p in (out / "runs").glob("*.csv")]
    result["first_output_s"] = (min(first) - start_ns) / 1e9 if first else None
    result["peak_rss_mb"] = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024
    if tracer is not None:
        files = [p for p in out.rglob("*") if p.is_file()]
        layers = tracer.layer_metrics(workload.total_iters)
        layers["losses.clamp_warnings"] = sum(CLAMP_WARNING_TEXT in str(w.message)
                                              for w in caught)
        layers["campaign.files_written"] = len(files)
        layers["campaign.bytes_written"] = sum(p.stat().st_size for p in files)
        result["layers"] = layers
        tracer.write_spans(args.dir / "spans.csv")
    args.dir.joinpath("result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
