"""Campaign configuration: JSON validation, the resolved config, and built-in presets.

A campaign is datasets x algorithms x seeds.  Each setting is declared once,
on the dataclass field that carries it (see skewlab.schema); validation reads
those declarations, applies defaults, rejects unknown keys at every level,
checks that every run can carve its split and draw its batches, and reports
all problems at once with field paths.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass, field, replace

from .datasets import CLASS_COUNTS, UNLABELED_TYPES, imbalance_counts, unlabeled_rho
from .optim import Schedule
from .schema import Settings, dump, fits, read, setting
from .training import AlgorithmSpec, TrainConfig

DEFAULT_W_MAX = {
    "supervised": 0.0,
    "pi-model": 20.0,
    "mean-teacher": 8.0,
    "pseudo-label": 1.0,
    "mt-scl": 8.0,
}


class ConfigError(ValueError):
    """Validation failure carrying the full list of field-path-qualified errors."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


@dataclass(frozen=True)
class DatasetSpec(Settings):
    name: str = setting()  # defaults to kind
    kind: str = setting(choices=tuple(CLASS_COUNTS), required=True)
    labeled_max: int = setting(bound=">=1", required=True)
    unlabeled_max: int = setting(bound=">=1", required=True)
    val_per_class: int = setting(bound=">=1", required=True)
    n_pool_per_class: int = setting(bound=">=1")  # defaults to what the split needs
    data_noise: float = setting(0.1, bound=">=0.0")
    rho_l: float = setting(1.0, bound=">=1.0")
    unlabeled_type: str = setting("same", choices=UNLABELED_TYPES)


@dataclass(frozen=True, kw_only=True)
class AlgorithmConfig(AlgorithmSpec):
    """A regime spec with its run name (default: kind) and consistency weight
    (default: DEFAULT_W_MAX of its kind, bounded like Schedule.w_max)."""

    name: str = setting()
    w_max: float = field(metadata=Schedule.__dataclass_fields__["w_max"].metadata | {"key": None})

    @property
    def spec(self) -> AlgorithmSpec:
        """The regime spec that train() takes; an AlgorithmConfig is one."""
        return self


@dataclass(frozen=True)
class GapCurveSpec(Settings):
    delta: float = setting(0.9, bound="[0,1)")
    gamma: float = setting(0.95, bound="(0,1]")
    max_lag: int = setting(500, bound=">=1")


@dataclass(frozen=True)
class ReportSpec(Settings):
    grids: bool = setting(False)
    grid_resolution: tuple[int, int] = setting((200, 200))
    dump_datasets: bool = setting(False)


@dataclass(frozen=True)
class CampaignConfig(Settings):
    name: str = setting(required=True)
    output_dir: str = setting()  # defaults to "<name>-out"
    seeds: tuple[int, ...] = setting(required=True)
    schedule: Schedule = setting()  # w_max is set per algorithm
    training: TrainConfig = setting()  # its schedule is the one above, its seed 0
    datasets: tuple[DatasetSpec, ...] = setting(())
    algorithms: tuple[AlgorithmConfig, ...] = setting(())
    report: ReportSpec = setting(ReportSpec())
    gap_curve: GapCurveSpec | None = setting(None)

    def train_config(self, seed: int, w_max: float) -> TrainConfig:
        return replace(self.training, schedule=replace(self.schedule, w_max=w_max), seed=seed)

    def to_dict(self) -> dict:
        """Fully resolved config as plain JSON data; hashing canonicalizes this."""
        return dump(self)


def config_digest(config: CampaignConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _block(raw: dict, key: str, errors: list[str]) -> dict:
    value = raw.get(key, {})
    if isinstance(value, dict):
        return value
    errors.append(f"{key}: must be an object")
    return {}


def _entries(raw: dict, key: str, cls, derive, errors: list[str]) -> tuple:
    """The list under key, each object read as cls; derive fills dependent defaults."""
    if key not in raw:
        return ()
    if not isinstance(raw[key], list):
        errors.append(f"{key}: must be a list")
        return ()
    built = []
    for i, entry in enumerate(raw[key]):
        if not isinstance(entry, dict):
            errors.append(f"{key}[{i}]: must be an object")
        elif (values := read(cls, entry, f"{key}[{i}]", errors)) is not None:
            values.setdefault("name", values["kind"])
            derive(values, f"{key}[{i}]", errors)
            built.append(cls(**values))
    if len({entry.name for entry in built}) != len(built):
        errors.append(f"{key}: names must be unique")
    return tuple(built)


def _derive_dataset(values: dict, path: str, errors: list[str]) -> None:
    need = values["labeled_max"] + values["unlabeled_max"] + values["val_per_class"]
    if values.setdefault("n_pool_per_class", need) < need:
        errors.append(f"{path}.n_pool_per_class: must be at least {need} "
                      "(labeled_max + unlabeled_max + val_per_class)")


def _derive_algorithm(values: dict, path: str, errors: list[str]) -> None:
    values.setdefault("w_max", DEFAULT_W_MAX[values["kind"]])


def _seeds(raw: dict, errors: list[str]) -> tuple[int, ...]:
    entry = raw.get("seeds")
    if "seeds" in raw and (not isinstance(entry, list) or not entry):
        errors.append("seeds: must be a nonempty list of integers")
        return ()
    seeds = []
    for i, value in enumerate(entry or ()):
        if not fits(int, value):
            errors.append(f"seeds[{i}]: must be an integer")
        elif value < 0:
            errors.append(f"seeds[{i}]: must be nonnegative")
        else:
            seeds.append(value)
    if len(set(seeds)) != len(seeds):
        errors.append("seeds: must not repeat")
    return tuple(seeds)


def _lr_decay(entry, errors: list[str]) -> tuple[tuple[int, float], ...]:
    if not isinstance(entry, list):
        errors.append("schedule.lr_decay: must be a list of [iteration, factor] pairs")
        return ()
    pairs, last = [], -1
    for i, pair in enumerate(entry):
        if (not isinstance(pair, list) or len(pair) != 2 or not fits(int, pair[0])
                or not fits(float, pair[1]) or pair[1] <= 0.0):
            errors.append(f"schedule.lr_decay[{i}]: must be [iteration >= 0, positive factor]")
            continue
        if pair[0] <= last:
            errors.append("schedule.lr_decay: iterations must be strictly increasing")
        last = pair[0]
        pairs.append((pair[0], float(pair[1])))
    return tuple(pairs)


def _check_batches(training: dict, datasets: tuple[DatasetSpec, ...], errors: list[str]) -> None:
    """Without replacement, a batch cannot exceed the partition it is drawn from."""
    for d in datasets if not training["sample_with_replacement"] else ():
        rho_u, n_classes = unlabeled_rho(d.unlabeled_type, d.rho_l), CLASS_COUNTS[d.kind]
        for part, counts in (("labeled", imbalance_counts(d.labeled_max, d.rho_l, n_classes)),
                             ("unlabeled", imbalance_counts(d.unlabeled_max, rho_u, n_classes))):
            if training[f"{part}_batch"] > counts.sum():
                errors.append(f"training.{part}_batch: exceeds the {counts.sum()} {part} points of "
                              f"dataset {d.name!r}; sampling is without replacement")


def validate_config(text: str) -> CampaignConfig:
    """Parse and validate raw config text; raises ConfigError listing every problem."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config top level must be an object"])

    errors: list[str] = []
    top = read(CampaignConfig, raw, "", errors) or {}
    top["seeds"] = _seeds(raw, errors)
    top["datasets"] = _entries(raw, "datasets", DatasetSpec, _derive_dataset, errors)
    top["algorithms"] = _entries(raw, "algorithms", AlgorithmConfig, _derive_algorithm, errors)

    sched_obj = _block(raw, "schedule", errors)
    schedule = read(Schedule, sched_obj, "schedule", errors)
    schedule.setdefault("rampup_iters", round(0.4 * schedule["total_iters"]))
    if "lr_decay" in sched_obj:
        schedule["lr_decay_points"] = _lr_decay(sched_obj["lr_decay"], errors)
    training = read(TrainConfig, _block(raw, "training", errors), "training", errors)
    _check_batches(training, top["datasets"], errors)

    report = raw.get("report")
    if isinstance(report, dict) and "grid_resolution" in report:
        entry = report["grid_resolution"]
        if (not isinstance(entry, list) or len(entry) != 2
                or any(not fits(int, e) or e < 2 for e in entry)):
            errors.append("report.grid_resolution: must be [nx >= 2, ny >= 2]")
        elif "report" in top:
            top["report"] = replace(top["report"], grid_resolution=tuple(entry))

    gap = raw.get("gap_curve")
    if gap is not None and not isinstance(gap, dict):
        errors.append("gap_curve: must be an object")
    elif gap is not None:
        top["gap_curve"] = GapCurveSpec(**read(GapCurveSpec, gap, "gap_curve", errors))

    if not top["datasets"] and not top["algorithms"] and top.get("gap_curve") is None:
        errors.append("datasets: at least one dataset is required unless gap_curve is set")
    if bool(top["datasets"]) != bool(top["algorithms"]):
        errors.append(f"{'algorithms' if top['datasets'] else 'datasets'}: "
                      "datasets and algorithms must both be given to run training")
    if errors:
        raise ConfigError(errors)
    top.setdefault("output_dir", f"{top['name']}-out" if top["name"] else "campaign-out")
    top["schedule"] = Schedule(**schedule)
    top["training"] = TrainConfig(schedule=top["schedule"], **training)
    return CampaignConfig(**top)


def load_config(path: str) -> CampaignConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return validate_config(fh.read())


# Presets state only what differs from the declared defaults.
_TOY = {
    "seeds": [0, 1, 2, 3, 4],
    "datasets": [
        {"kind": "twomoons", "data_noise": 0.15, "labeled_max": 10, "rho_l": 5.0,
         "unlabeled_max": 2500, "val_per_class": 3000},
        {"kind": "fourspins", "data_noise": 0.05, "labeled_max": 5, "rho_l": 5.0,
         "unlabeled_max": 1250, "val_per_class": 1500},
    ],
    "algorithms": [{"kind": "supervised"}, {"kind": "pi-model"}, {"kind": "mean-teacher"},
                   {"kind": "mt-scl", "scl": {"shape": "linear"}}],
}

PRESETS = {
    "toy-table1": _TOY,
    "toy-figure1-grids": {**_TOY, "seeds": [0], "report": {"grids": True, "dump_datasets": True}},
    "ema-gap": {"seeds": [0], "gap_curve": {}},
    "ablation-scl-shapes": {**_TOY, "algorithms": [
        {"kind": "mean-teacher"},
        {"name": "mt-scl-exp25", "kind": "mt-scl", "scl": {"beta": 0.25}},
        {"name": "mt-scl-exp50", "kind": "mt-scl"},
        {"name": "mt-scl-exp75", "kind": "mt-scl", "scl": {"beta": 0.75}},
        {"name": "mt-scl-linear", "kind": "mt-scl", "scl": {"shape": "linear"}},
    ]},
}

PRESET_NAMES = tuple(PRESETS)


def preset_dict(name: str) -> dict:
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    return {"name": name, **copy.deepcopy(PRESETS[name])}


def preset_config(name: str) -> CampaignConfig:
    """Built-in presets pass through the same validator as user configs."""
    return validate_config(json.dumps(preset_dict(name)))
