"""Campaign configuration: JSON validation, the resolved config, and built-in presets.

A campaign is datasets x algorithms x seeds.  Each setting is declared once,
on the dataclass field that carries it (see skewlab.schema); validation reads
those declarations, applies defaults, rejects unknown and repeated keys at
every level, checks that every run can carve its split and draw its batches,
and reports all problems at once with field paths.  A config that passes
those checks must also keep every array a run allocates within
MAX_ARRAY_ELEMENTS (see largest_arrays).
"""

from __future__ import annotations

import copy
import hashlib
import json
import re
from dataclasses import dataclass

from .datasets import KINDS, UNLABELED_TYPES, imbalance_counts, unlabeled_rho
from .mlp import vector_size
from .optim import Schedule, decay_points_increase
from .report import row_blocks
from .schema import Settings, dump, read, setting
from .training import AlgorithmSpec, TrainConfig

# a name goes into run ids, file names and CSV cells, whose "__" joins and
# commas it must not hold; nor may it hold a path separator or start with "."
_NAME = re.compile(r"[A-Za-z0-9]+([._-][A-Za-z0-9]+)*")


# The most elements one array of a run may hold: 2**27 float64 values are 1 GiB.
# A fixed number, not the machine's memory, so that validity stays a function
# of the config.
MAX_ARRAY_ELEMENTS = 2**27


class ConfigError(ValueError):
    """Validation failure carrying the full list of field-path-qualified errors."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid config:\n  " + "\n  ".join(self.errors))


def _split_size(spec: DatasetSpec) -> int:
    """The points per class a dataset's split takes: labeled, unlabeled and validation."""
    return spec.labeled_max + spec.unlabeled_max + spec.val_per_class


@dataclass(frozen=True, kw_only=True)
class DatasetSpec(Settings):
    name: str = setting(derive=lambda spec: spec.kind)
    kind: str = setting(choices=tuple(KINDS), required=True)
    labeled_max: int = setting(bound=">=1", required=True)
    unlabeled_max: int = setting(bound=">=1", required=True)
    val_per_class: int = setting(bound=">=1", required=True)
    n_pool_per_class: int = setting(bound=">=1", derive=_split_size)
    data_noise: float = setting(0.1, bound=">=0.0")
    rho_l: float = setting(1.0, bound=">=1.0")
    unlabeled_type: str = setting("same", choices=UNLABELED_TYPES)


@dataclass(frozen=True)
class GapCurveSpec(Settings):
    delta: float = setting(0.9, bound="[0,1)")
    gamma: float = setting(0.95, bound="(0,1]")
    max_lag: int = setting(500, bound=">=1")


@dataclass(frozen=True)
class ReportSpec(Settings):
    grids: bool = setting(False)
    grid_resolution: tuple[int, int] = setting((200, 200), bound=(">=2", ">=2"),
                                               form="[nx >= 2, ny >= 2]")
    dump_datasets: bool = setting(False)


@dataclass(frozen=True, kw_only=True)
class CampaignConfig(Settings):
    name: str = setting(required=True)
    output_dir: str = setting(derive=lambda c: f"{c.name}-out" if c.name else "campaign-out")
    seeds: tuple[int, ...] = setting(required=True, form="a nonempty list of integers",
                                     item=setting(bound=">=0", form="nonnegative"))
    schedule: Schedule = setting()
    training: TrainConfig = setting()  # its schedule is the one above
    datasets: tuple[DatasetSpec, ...] = setting((), form="a list")
    algorithms: tuple[AlgorithmSpec, ...] = setting((), form="a list")
    report: ReportSpec = setting(ReportSpec())
    gap_curve: GapCurveSpec | None = setting(None)

    def to_dict(self) -> dict:
        """Fully resolved config as plain JSON data; hashing canonicalizes this."""
        return dump(self)


def config_digest(config: CampaignConfig) -> str:
    canonical = json.dumps(config.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _entries(top: dict, key: str, cls, errors: list[str]) -> tuple:
    """The entries read under key, built, each with a name that suits run ids
    and, for a dataset, a pool that covers its split."""
    built = []
    for i, values in enumerate(top[key]):
        if values is None:  # it failed to read
            continue
        built.append(entry := cls(**values))
        if not _NAME.fullmatch(entry.name):
            errors.append(f"{key}[{i}].name: must be letters and digits joined by single "
                          f"'.', '_' or '-', got {entry.name!r}")
        if cls is DatasetSpec and entry.n_pool_per_class < (need := _split_size(entry)):
            errors.append(f"{key}[{i}].n_pool_per_class: must be at least {need} "
                          "(labeled_max + unlabeled_max + val_per_class)")
    if len({entry.name for entry in built}) != len(built):
        errors.append(f"{key}: names must be unique")
    return tuple(built)


def _check_batches(training: dict, datasets: tuple[DatasetSpec, ...], errors: list[str]) -> None:
    """Without replacement, a batch cannot exceed the partition it is drawn from."""
    for d in datasets if not training["sample_with_replacement"] else ():
        rho_u, n_classes = unlabeled_rho(d.unlabeled_type, d.rho_l), KINDS[d.kind][1]
        for part, counts in (("labeled", imbalance_counts(d.labeled_max, d.rho_l, n_classes)),
                             ("unlabeled", imbalance_counts(d.unlabeled_max, rho_u, n_classes))):
            if training[f"{part}_batch"] > counts.sum():
                errors.append(f"training.{part}_batch: exceeds the {counts.sum()} {part} points of "
                              f"dataset {d.name!r}; sampling is without replacement")


def validate_config(text: str) -> CampaignConfig:
    """Parse and validate raw config text; raises ConfigError listing every problem."""
    errors: list[str] = []

    def unique_keys(pairs: list[tuple[str, object]]) -> dict:
        keys = [key for key, _ in pairs]
        errors.extend(f"key {key!r} appears more than once in one object"
                      for key in dict.fromkeys(keys) if keys.count(key) > 1)
        return dict(pairs)

    try:
        raw = json.loads(text, object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ConfigError(["config top level must be an object"])

    top = read(CampaignConfig, raw, "", errors)
    if len(set(seeds := top.get("seeds", ()))) != len(seeds):
        errors.append("seeds: must not repeat")
    top["datasets"] = _entries(top, "datasets", DatasetSpec, errors)
    top["algorithms"] = _entries(top, "algorithms", AlgorithmSpec, errors)
    schedule = top["schedule"]
    if not decay_points_increase(schedule["lr_decay"]):
        errors.append("schedule.lr_decay: iterations must be strictly increasing")
    _check_batches(top["training"], top["datasets"], errors)

    if not top["datasets"] and not top["algorithms"] and top["gap_curve"] is None:
        errors.append("datasets: at least one dataset is required unless gap_curve is set")
    if bool(top["datasets"]) != bool(top["algorithms"]):
        errors.append(f"{'algorithms' if top['datasets'] else 'datasets'}: "
                      "datasets and algorithms must both be given to run training")
    if errors:
        raise ConfigError(errors)
    top["schedule"] = Schedule(**schedule)
    top["training"] = TrainConfig(schedule=top["schedule"], **top["training"])
    config = CampaignConfig(**top)
    errors = [f"{path}: {array} would hold {count} elements, more than the "
              f"{MAX_ARRAY_ELEMENTS} one array of a run may hold"
              for path, array, count in largest_arrays(config) if count > MAX_ARRAY_ELEMENTS]
    if errors:
        raise ConfigError(errors)
    return config


def largest_arrays(config: CampaignConfig) -> list[tuple[str, str, int]]:
    """(setting path, array, element count) of the largest arrays a run allocates.

    Per dataset: the pool's points and the validation pass's hidden array
    (bounded by the whole validation set); per campaign: the parameter vector
    of the widest class layer, a batch's layer output and, with grids on, the
    grid's nodes and the grid pass's hidden array, one ``report.row_blocks``
    block of rows.  An array sized by several settings is named by the one
    behind its largest dimension.  A campaign without runs allocates none.
    """
    if not (config.datasets and config.algorithms):
        return []
    t = config.training
    width, hidden = t.hidden_width, ("training.hidden_width", t.hidden_width)
    batch = max(("training.labeled_batch", t.labeled_batch),
                ("training.unlabeled_batch", t.unlabeled_batch), key=lambda dim: dim[1])
    n_classes = max(KINDS[d.kind][1] for d in config.datasets)
    # one hidden layer, then each further one (there may be too many to list)
    n_params = (vector_size((2, width, n_classes))
                + (t.hidden_layers - 1) * vector_size((width, width)))
    sized = [("the parameter vector", n_params, hidden,
              ("training.hidden_layers", t.hidden_layers)),
             ("a batch's layer output", batch[1] * width, batch, hidden)]
    for i, d in enumerate(config.datasets):
        n_classes = KINDS[d.kind][1]
        rows = n_classes * d.val_per_class
        sized += [("the pool's points", n_classes * d.n_pool_per_class * 2,
                   (f"datasets[{i}].n_pool_per_class", d.n_pool_per_class)),
                  ("the validation pass's hidden array", rows * width,
                   (f"datasets[{i}].val_per_class", rows), hidden)]
    if config.report.grids:
        nx, ny = config.report.grid_resolution
        sized.append(("the grid's nodes", nx * ny * 2, ("report.grid_resolution", nx * ny)))
        if nx * ny * 2 <= MAX_ARRAY_ELEMENTS:  # else rejected already, and too many blocks to list
            # further hidden layers repeat the second's shape, which sizes no block differently
            shapes = {(2,) + (width,) * min(t.hidden_layers, 2) + (KINDS[d.kind][1],)
                      for d in config.datasets}
            block = max(stop - start for sizes in shapes
                        for start, stop in row_blocks(sizes, nx * ny))
            sized.append(("the grid pass's hidden array", block * width,
                          ("report.grid_resolution", block), hidden))
    return [(max(dims, key=lambda dim: dim[1])[0], array, count) for array, count, *dims in sized]


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
