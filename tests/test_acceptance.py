"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS/FAIL summary line with capture suspended so
the verdicts stay visible under a plain pytest run.  The toy-campaign check
trains the full five-seed preset and is the slow one; everything else is
seconds.
"""

from __future__ import annotations

import io
import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from skewlab.campaign import run_campaign
from skewlab.coeffs import (
    gap_curve,
    gradient_gap_estimate,
    momentum_coefficients,
    sgd_coefficients,
    write_gap_curve,
)
from skewlab.config import preset_config, validate_config
from skewlab.datasets import gen_two_moons, imbalance_counts, make_cissl_split
from skewlab.losses import (
    ReweightSpec,
    SclShape,
    class_weights,
    consistency_l2,
    scl_consistency,
    scl_weights,
    supervised_loss,
)
from skewlab.mlp import backward, forward, init_params, softmax
from skewlab.optim import Schedule
from skewlab.report import read_table
from skewlab.training import AlgorithmSpec, TrainConfig, train

from campaign_helpers import written
from coeffs_helpers import brute_force_unroll
from mlp_helpers import grad_check, params_equal


@pytest.fixture
def verdict(capfd):
    # fd-level capture swallows even sys.__stdout__, so suspend it around
    # the summary line
    def emit(criterion: int, ok: bool, detail: str) -> None:
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"acceptance criterion {criterion}: {status} ({detail})",
                  flush=True)
        assert ok, f"criterion {criterion}: {detail}"

    return emit


class TestCriterion1ToyCampaign:
    def test_error_orderings_and_runtime(self, tmp_path, verdict):
        config = preset_config("toy-table1")
        started = time.perf_counter()
        failures = run_campaign(config, workers=1, out_dir=tmp_path / "toy",
                                log=io.StringIO())
        elapsed = time.perf_counter() - started
        assert not failures, sorted(failures)

        # the table's 17-digit cells read back the aggregated means exactly
        table = read_table(tmp_path / "toy" / "table.csv")
        spins, moons = ({algo: {group: mean for group, (mean, _) in cells.items()}
                         for algo, cells in table[dataset].items()}
                        for dataset in ("fourspins", "twomoons"))
        ordering = spins["mt-scl"]["all"] < spins["mean-teacher"]["all"] < spins["pi-model"]["all"]
        minor_gap = spins["pi-model"]["minor"] - spins["mt-scl"]["minor"]
        moons_ok = moons["mt-scl"]["all"] <= moons["mean-teacher"]["all"]
        in_budget = elapsed < 900.0

        verdict(1, ordering and minor_gap >= 0.10 and moons_ok and in_budget,
                f"spins all {spins['mt-scl']['all']:.4f} < {spins['mean-teacher']['all']:.4f}"
                f" < {spins['pi-model']['all']:.4f}; minor gap {minor_gap:.3f} >= 0.10; "
                f"moons all {moons['mt-scl']['all']:.4f} <= {moons['mean-teacher']['all']:.4f}; "
                f"{elapsed:.0f}s on one worker")


class TestCriterion2Scope:
    def test_no_image_benchmark_surface(self, verdict):
        # the package is 2-D synthetic only; no loader, config kind, or doc
        # may mention the image benchmarks this deliberately does not cover
        root = Path(__file__).resolve().parents[1]
        sources = sorted((root / "src").rglob("*.py")) + [root / "README.md"]
        pattern = re.compile(r"cifar|svhn", re.IGNORECASE)
        offenders = [p.name for p in sources
                     if p.exists() and pattern.search(p.read_text(encoding="utf-8"))]
        verdict(2, not offenders,
                f"no image-benchmark references in {len(sources)} source files"
                if not offenders else f"found references in {offenders}")


class TestCriterion3CoefficientIdentity:
    def test_closed_forms_match_literal_unroll(self, verdict):
        worst = 0.0
        for gamma in (0.5, 0.95, 0.999):
            for delta in (0.0, 0.5, 0.9):
                grads = np.random.default_rng(int(gamma * 1000 + delta * 10)).normal(
                    size=(200, 1))
                for t in range(1, 201):
                    student, target = brute_force_unroll(t, gamma, delta, grads)
                    coeffs = [momentum_coefficients(t, k, delta, gamma) for k in range(t)]
                    s = np.array([c[0] for c in coeffs])
                    g = np.array([c[1] for c in coeffs])
                    worst = max(worst,
                                abs(float(student[0] + s @ grads[:t, 0])),
                                abs(float(target[0] + g @ grads[:t, 0])))
            # momentum-free closed form, at its one-step-earlier reference
            grads = np.random.default_rng(7).normal(size=(200, 1))
            for t in range(2, 201):
                s, g = sgd_coefficients(t, gamma)
                student, _ = brute_force_unroll(t, gamma, 0.0, grads)
                _, target = brute_force_unroll(t - 1, gamma, 0.0, grads)
                worst = max(worst,
                            abs(float(student[0] + s @ grads[:t, 0])),
                            abs(float(target[0] + g @ grads[:t, 0])))
        verdict(3, worst < 1e-10,
                f"max |closed form - unroll| = {worst:.3e} over t<=200, "
                "gamma in {0.5,0.95,0.999}, delta in {0,0.5,0.9}")


class TestCriterion4GapNonnegativity:
    def test_gap_grid_and_exported_curve(self, tmp_path, verdict):
        lows = []
        for delta in (0.0, 0.3, 0.6, 0.9, 0.99):
            for gamma in (0.5, 0.9, 0.95, 0.999):
                lows.append(gap_curve(500, delta, gamma).min())
        grid_min = min(lows)

        path = tmp_path / "gap_curve.csv"
        write_gap_curve(str(path), 500, 0.9, 0.95)
        rows = path.read_text().strip().split("\n")[1:]
        exported = np.array([float(r.split(",")[1]) for r in rows])
        exported_min = exported.min()

        verdict(4, grid_min >= -1e-12 and exported_min >= -1e-12 and len(rows) == 500,
                f"min gap {grid_min:.3e} over 10000-point grid; exported curve "
                f"(delta=0.9, gamma=0.95) min {exported_min:.3e}")


class TestCriterion5GradientChecks:
    # central differences at 1e-6 sit at the cancellation floor for the
    # smallest gradient entries; 1e-5 keeps truncation negligible while
    # staying an order of magnitude above roundoff
    FD_EPS = 1e-5

    def test_twenty_random_configurations(self, verdict):
        rng = np.random.default_rng(2025)
        worst = 0.0
        for _ in range(20):
            n_classes = int(rng.integers(2, 6))
            width = int(rng.integers(4, 11))
            batch = int(rng.integers(3, 9))
            counts = np.sort(rng.integers(1, 31, size=n_classes))[::-1].copy()
            seed = int(rng.integers(0, 2**31))
            params = init_params(width, n_classes, seed=seed)
            x = rng.normal(size=(batch, 2))
            labels = rng.integers(0, n_classes, size=batch)
            target_probs = softmax(rng.normal(size=(batch, n_classes)))
            predictions = target_probs.argmax(axis=1)
            shape = SclShape(shape=str(rng.choice(["exponential", "linear"])),
                             beta=float(rng.uniform(0.1, 1.0)))
            specs = [ReweightSpec(),
                     ReweightSpec(method="in"),
                     ReweightSpec(method="focal", focal_gamma=float(rng.choice([0.5, 1.0, 2.0]))),
                     ReweightSpec(method="cb", cb_beta=float(rng.choice([0.9, 0.99, 0.999])))]

            def supervised_fn(spec):
                weights = class_weights(spec, counts)

                def fn(p):
                    logits, trace = forward(p, x)
                    loss, d = supervised_loss(logits, labels, spec, weights)
                    return loss, backward(trace, d)
                return fn

            def consistency_fn(weighted):
                def fn(p):
                    logits, trace = forward(p, x)
                    probs = softmax(logits)
                    if weighted:
                        loss, d = scl_consistency(probs, target_probs, predictions,
                                                  counts, shape)
                    else:
                        loss, d = consistency_l2(probs, target_probs)
                    return loss, backward(trace, d)
                return fn

            for spec in specs:
                worst = max(worst, grad_check(params, supervised_fn(spec), self.FD_EPS))
            worst = max(worst, grad_check(params, consistency_fn(False), self.FD_EPS))
            worst = max(worst, grad_check(params, consistency_fn(True), self.FD_EPS))
        verdict(5, worst < 1e-5,
                f"max finite-difference relative error {worst:.3e} across "
                "6 losses x 20 random configurations")


class TestCriterion6SuppressionDegeneracies:
    def test_balanced_run_identity_and_exact_weights(self, verdict):
        pool = gen_two_moons(300, 0.12, seed=60)
        split = make_cissl_split(pool, np.array([8, 8]), "uniform", 1.0, 40, 30, seed=61)
        config = TrainConfig(schedule=Schedule(total_iters=50, rampup_iters=10, base_lr=0.1),
                             labeled_batch=8, unlabeled_batch=8, hidden_width=8,
                             eval_every=25)
        mt = train(split, AlgorithmSpec(kind="mean-teacher", w_max=4.0), config, 62)
        scl = train(split, AlgorithmSpec(kind="mt-scl", w_max=4.0), config, 62)
        identical = (params_equal(scl.params, mt.params)
                     and params_equal(scl.ema_params, mt.ema_params))

        exp_at_max = float(scl_weights(np.array([10, 2]), np.array([0]), SclShape())[0])
        linear_minor = float(scl_weights(np.array([10, 2]), np.array([1]),
                                         SclShape(shape="linear"))[0])

        verdict(6, identical and exp_at_max == 1.0 and linear_minor == 0.2,
                "balanced mt-scl run bit-identical to mean-teacher; "
                f"exponential weight at max count == {exp_at_max}; "
                f"linear minor weight for counts (10,2) == {linear_minor}")


class TestCriterion7ImbalanceProfiles:
    def test_frozen_profiles_and_uniform_limit(self, verdict):
        moons = imbalance_counts(10, 5.0, 2)
        spins = imbalance_counts(5, 5.0, 4)
        uniform = imbalance_counts(7, 1.0, 5)
        ok = (np.array_equal(moons, [10, 2])
              and np.array_equal(spins, [5, 3, 2, 1])
              and np.array_equal(uniform, [7, 7, 7, 7, 7]))
        verdict(7, ok, f"labeled profiles {moons.tolist()} and {spins.tolist()}; "
                       f"rho=1 gives {uniform.tolist()}")


class TestCriterion8FirstOrderGapLaw:
    def test_residual_order(self, verdict):
        params = init_params(8, 3, seed=70)
        batch = np.random.default_rng(71).normal(size=(16, 2))
        direction = np.random.default_rng(72).normal(size=params.n_params)
        direction /= np.linalg.norm(direction)
        hs = np.array([1e-2, 1e-3, 1e-4])
        residuals = []
        for h in hs:
            shifted = params.with_flat(params.flat + h * direction)
            residuals.append(gradient_gap_estimate(params, shifted, batch).residual)
        slope = float(np.polyfit(np.log(hs), np.log(residuals), 1)[0])
        verdict(8, slope >= 1.8,
                f"log-log residual slope {slope:.2f} across h in {{1e-2,1e-3,1e-4}}")


class TestCriterion9Determinism:
    def test_reruns_write_identical_histories(self, tmp_path, verdict):
        text = json.dumps({
            "name": "rerun",
            "seeds": [0, 1],
            "datasets": [{"name": "moons", "kind": "twomoons", "labeled_max": 8,
                          "rho_l": 4.0, "unlabeled_max": 60, "val_per_class": 30}],
            "algorithms": [
                {"kind": "supervised"},
                {"kind": "pi-model", "w_max": 4.0},
                {"kind": "mean-teacher", "w_max": 4.0},
                {"kind": "pseudo-label", "w_max": 1.0},
                {"kind": "mt-scl", "w_max": 4.0},
            ],
            "schedule": {"total_iters": 40, "rampup_iters": 10},
            "training": {"labeled_batch": 8, "unlabeled_batch": 8,
                         "hidden_width": 8, "eval_every": 20},
        })
        config = validate_config(text)
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_campaign(config, workers=1, out_dir=a, log=io.StringIO()) == {}
        assert run_campaign(config, workers=1, out_dir=b, log=io.StringIO()) == {}
        histories_a = sorted((a / "runs").glob("*.csv"))
        histories_b = sorted((b / "runs").glob("*.csv"))
        same = (len(histories_a) == 10
                and all(fa.read_bytes() == fb.read_bytes()
                        for fa, fb in zip(histories_a, histories_b)))
        # the same listing first, so a missing, extra or leftover .tmp file fails
        names = written(a)
        all_files_same = (names == written(b)
                          and all((a / name).read_bytes() == (b / name).read_bytes()
                                  for name in names))
        verdict(9, same and all_files_same,
                f"{len(histories_a)} history files byte-identical across reruns "
                "(all five regimes, two seeds); every other output file matches too")
