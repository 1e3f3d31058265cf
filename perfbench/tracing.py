"""Outside-in tracing of skewlab's layers.

skewlab's modules import names directly (``from .mlp import forward``), so a
function is reached through the attribute of every module that imported it.
``Tracer.installed()`` replaces each of those attributes with a wrapper that
records a span and restores the originals on exit.  Spans stay in memory as
(run_id, name, start, end, parent index) and are written out at the end; the
run id is the campaign run whose ``execute_run`` call is open, or "" outside
any run.  Tracing never touches skewlab's outputs.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from workloads import ALGORITHMS, DATASETS

# The PROB_FLOOR RuntimeWarning raised by skewlab.losses.
CLAMP_WARNING_TEXT = "clamped before log"


def _matmul_flops(weights, rows: int, *, skip_first: bool = False) -> int:
    """2 * fan_in * fan_out per row for each weight matrix (a computed count)."""
    return sum(2 * w.shape[0] * w.shape[1] * rows
               for i, w in enumerate(weights) if not (skip_first and i == 0))


def _count_forward(tracer: "Tracer", args) -> None:
    params, x = args[0], args[1]
    rows = len(x)
    tracer.counts["mlp.forward_rows"] += rows
    tracer.counts["mlp.flops"] += _matmul_flops(params.weights, rows)


def _count_backward(tracer: "Tracer", args) -> None:
    trace = args[0]
    rows = len(trace.inputs)
    weights = trace.params.weights
    # weight gradients for every layer, input deltas for every layer but the first
    tracer.counts["mlp.flops"] += (_matmul_flops(weights, rows)
                                   + _matmul_flops(weights, rows, skip_first=True))


# (span name, module defining the function, function name, the only modules
# whose attribute is wrapped, or None for every skewlab module that holds it)
TARGETS = (
    ("mlp.forward", "skewlab.mlp", "forward", None),
    ("mlp.backward", "skewlab.mlp", "backward", None),
    ("mlp.param_add", "skewlab.mlp", "param_add", ("skewlab.training",)),
    ("mlp.param_scale", "skewlab.mlp", "param_scale", ("skewlab.training",)),
    ("losses.supervised_loss", "skewlab.losses", "supervised_loss", None),
    ("losses.consistency_l2", "skewlab.losses", "consistency_l2", None),
    ("losses.scl_consistency", "skewlab.losses", "scl_consistency", None),
    ("optim.sgd_step", "skewlab.optim", "sgd_step", None),
    ("optim.ema_update", "skewlab.optim", "ema_update", None),
    ("training.train", "skewlab.training", "train", None),
    ("training.sample_batch", "skewlab.training", "sample_batch", None),
    ("training.evaluate", "skewlab.training", "evaluate", None),
    ("datasets.prepare_split", "skewlab.campaign", "prepare_split", None),
    ("datasets.write_split_csv", "skewlab.datasets", "write_split_csv", None),
    ("report.boundary_grid", "skewlab.report", "boundary_grid", None),
    ("report.write_report", "skewlab.report", "write_report", None),
    ("campaign.run_campaign", "skewlab.campaign", "run_campaign", None),
    ("campaign.execute_run", "skewlab.campaign", "execute_run", None),
    ("coeffs.gradient_gap_estimate", "skewlab.coeffs", "gradient_gap_estimate", None),
    ("coeffs.write_gap_curve", "skewlab.coeffs", "write_gap_curve", None),
    ("config.validate_config", "skewlab.config", "validate_config", None),
    ("ioutil.write_csv", "skewlab.ioutil", "write_csv", None),
)
_HOOKS = {"mlp.forward": _count_forward, "mlp.backward": _count_backward}

REGIMES = tuple(a["name"] for a in ALGORITHMS)
DATASET_NAMES = tuple(d["name"] for d in DATASETS)
STEP_MS = tuple(f"training.step_ms.{r}.{d}" for r in REGIMES for d in DATASET_NAMES)

# Every per-layer metric a traced run reports, with its unit.  Counts repeat
# exactly between runs of one config; the rest are measured.
PER_LAYER_UNITS = {
    "mlp.forward_s": "s", "mlp.forward_calls": "count", "mlp.forward_rows": "count",
    "mlp.backward_s": "s", "mlp.backward_calls": "count", "mlp.param_arith_s": "s",
    "mlp.flops": "flop-computed",
    "losses.supervised_s": "s", "losses.consistency_s": "s", "losses.calls": "count",
    "losses.clamp_warnings": "count",
    "optim.sgd_step_s": "s", "optim.ema_update_s": "s",
    **{name: "ms" for name in STEP_MS},
    "training.self_s": "s", "training.sample_batch_s": "s", "training.evaluate_s": "s",
    "datasets.prepare_split_s": "s", "datasets.prepare_split_calls": "count",
    "datasets.write_split_s": "s",
    "report.boundary_grid_s": "s", "report.write_report_s": "s",
    "campaign.execute_run_s": "s", "campaign.write_s": "s", "campaign.bytes_written": "B",
    "campaign.files_written": "count", "campaign.pool_busy_share": "ratio",
    "coeffs.gap_estimate_s": "s", "coeffs.gap_curve_s": "s",
    "config.validate_s": "s", "ioutil.write_csv_s": "s", "ioutil.write_csv_calls": "count",
    "trace.overhead_s": "s",
}
EXACT_UNITS = ("count", "flop-computed", "B")

# metric -> the spans whose total duration it is
_SPAN_TOTALS = {
    "mlp.forward_s": ("mlp.forward",),
    "mlp.backward_s": ("mlp.backward",),
    "mlp.param_arith_s": ("mlp.param_add", "mlp.param_scale"),
    "losses.supervised_s": ("losses.supervised_loss",),
    "losses.consistency_s": ("losses.consistency_l2", "losses.scl_consistency"),
    "optim.sgd_step_s": ("optim.sgd_step",),
    "optim.ema_update_s": ("optim.ema_update",),
    "training.sample_batch_s": ("training.sample_batch",),
    "training.evaluate_s": ("training.evaluate",),
    "datasets.prepare_split_s": ("datasets.prepare_split",),
    "datasets.write_split_s": ("datasets.write_split_csv",),
    "report.boundary_grid_s": ("report.boundary_grid",),
    "report.write_report_s": ("report.write_report",),
    "campaign.execute_run_s": ("campaign.execute_run",),
    "coeffs.gap_estimate_s": ("coeffs.gradient_gap_estimate",),
    "coeffs.gap_curve_s": ("coeffs.write_gap_curve",),
    "config.validate_s": ("config.validate_config",),
    "ioutil.write_csv_s": ("ioutil.write_csv",),
}
# metric -> the spans whose number of calls it is
_SPAN_CALLS = {
    "mlp.forward_calls": ("mlp.forward",),
    "mlp.backward_calls": ("mlp.backward",),
    "losses.calls": ("losses.supervised_loss", "losses.consistency_l2",
                     "losses.scl_consistency"),
    "datasets.prepare_split_calls": ("datasets.prepare_split",),
    "ioutil.write_csv_calls": ("ioutil.write_csv",),
}


class Tracer:
    """Span recorder for one traced campaign; create one per run."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts = {"mlp.forward_rows": 0, "mlp.flops": 0}
        self.run_id = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = _HOOKS.get(name)
        is_run = name == "campaign.execute_run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if hook is not None:
                hook(self, args)
            outer_run = self.run_id
            if is_run:
                self.run_id = args[1].run_id
            span = [self.run_id, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
                self.run_id = outer_run

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs; always restore the originals."""
        replaced: list[tuple[object, str, object]] = []
        try:
            for name, home, attr, callers in TARGETS:
                original = getattr(sys.modules[home], attr)
                wrapper = self.wrap(name, original)
                for module in _holders(original, attr, callers):
                    replaced.append((module, attr, original))
                    setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,run_id,name,start,end,parent\n")
            for i, (run_id, name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{run_id},{name},{start!r},{end!r},{parent}\n")

    def layer_metrics(self, total_iters: int) -> dict[str, float]:
        """Per-layer metrics from the spans and counts (all but the campaign-level ones)."""
        totals: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time = [0.0] * len(self.spans)
        step_ms: dict[str, float] = {}
        for run_id, name, start, end, parent in self.spans:
            duration = end - start
            totals[name] = totals.get(name, 0.0) + duration
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += duration
            if name == "training.train":
                dataset, regime, _ = run_id.split("__")
                step_ms[f"training.step_ms.{regime}.{dataset}"] = 1e3 * duration / total_iters
        train_self = sum(end - start - child_time[i]
                         for i, (_, name, start, end, _) in enumerate(self.spans)
                         if name == "training.train")
        metrics: dict[str, float] = {}
        for metric, names in _SPAN_TOTALS.items():
            metrics[metric] = sum(totals.get(n, 0.0) for n in names)
        for metric, names in _SPAN_CALLS.items():
            metrics[metric] = sum(calls.get(n, 0) for n in names)
        metrics.update(self.counts)
        metrics["training.self_s"] = train_self
        metrics["campaign.write_s"] = (totals.get("campaign.run_campaign", 0.0)
                                       - totals.get("campaign.execute_run", 0.0))
        for name in STEP_MS:
            metrics[name] = step_ms.get(name, 0.0)
        return metrics


def _holders(fn, attr: str, callers):
    """The skewlab modules whose attribute ``attr`` is ``fn`` itself."""
    names = callers if callers is not None else [
        n for n in sorted(sys.modules) if n == "skewlab" or n.startswith("skewlab.")]
    for name in names:
        module = sys.modules.get(name)
        if module is not None and getattr(module, attr, None) is fn:
            yield module
