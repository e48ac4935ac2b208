"""Run configuration and input manifest.

Both are record classes (``records.record``) loadable from JSON.
Unknown keys are errors, so typos in a config file fail loudly instead
of silently running with defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import field, fields
from pathlib import Path

from .geo import CONDITION2_MODES
from .io import check_number, is_finite_number, read_json
from .records import record


@record
class OptimizerSettings:
    """Calibration optimizer knobs.

    Defaults: the bounded Levenberg-Marquardt fit starts at beta_hub = 0.5
    and all nest constants at -5, with beta_hub in [0.01, 1] and constants
    in [-12, 0], and tries at most max_iter steps.  Its stop test (a step
    below ``calibration.STEP_TOL``), starting damping and rank cutoff are
    constants in ``calibration``, not settings.
    """

    beta_bounds: tuple[float, float] = (0.01, 1.0)
    asc_bounds: tuple[float, float] = (-12.0, 0.0)
    init_beta: float = 0.5
    init_asc: float = -5.0
    max_iter: int = 4000

    def __post_init__(self) -> None:
        for name in ("beta_bounds", "asc_bounds"):
            bounds = getattr(self, name)
            if not isinstance(bounds, (list, tuple)) or not all(map(is_finite_number, bounds)):
                raise ValueError(f"optimizer.{name} must be [low, high] finite numbers, got {bounds!r}")
        for name in ("init_beta", "init_asc"):
            check_number(f"optimizer.{name}", getattr(self, name))
        if isinstance(self.max_iter, bool) or not isinstance(self.max_iter, int):
            raise ValueError(f"optimizer.max_iter must be an integer, got {self.max_iter!r}")
        self.beta_bounds, self.asc_bounds = beta, asc = tuple(self.beta_bounds), tuple(self.asc_bounds)  # JSON gives lists
        # a bad box would otherwise surface mid-fit as an invalid nesting coefficient, naming no key
        if len(beta) != 2 or not 0.0 < beta[0] <= beta[1] <= 1.0:
            raise ValueError(f"optimizer.beta_bounds must be [low, high] with 0 < low <= high <= 1, got {list(beta)}")
        if len(asc) != 2 or not asc[0] <= asc[1]:
            raise ValueError(f"optimizer.asc_bounds must be [low, high] with low <= high, got {list(asc)}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@record
class PipelineConfig:
    """Cross-cutting run options with documented defaults."""

    # detour threshold: None derives the nearest-rank 90th percentile from
    # the survey; a number pins it
    threshold_override: float | None = None
    # short final-leg inclusion rule and its distance constant (km)
    condition2_mode: str = "literal_hd_1km"
    condition2_km: float = 1.0
    # emissions and annualization
    grams_co2_per_mile: float = 400.0
    days_per_year: float = 365.0
    # leg distance fallback and car out-of-pocket cost
    circuity_factor: float = 1.3
    car_cost_per_mile: float = 0.20
    # count on-demand auto into the driving VMT category
    include_on_demand_auto_vmt: bool = False
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self) -> None:
        for name in ("condition2_km", "grams_co2_per_mile", "days_per_year", "circuity_factor", "car_cost_per_mile"):
            check_number(name, getattr(self, name))
        if self.threshold_override is not None:
            check_number("threshold_override", self.threshold_override)
        if not isinstance(self.include_on_demand_auto_vmt, bool):
            raise ValueError(f"include_on_demand_auto_vmt must be true or false, got {self.include_on_demand_auto_vmt!r}")
        if self.condition2_mode not in CONDITION2_MODES:
            raise ValueError(f"unknown condition2_mode: {self.condition2_mode!r}")
        if self.threshold_override is not None and not self.threshold_override >= 1.0:
            raise ValueError("threshold_override must be >= 1")
        if self.condition2_km < 0:
            raise ValueError("condition2_km must be non-negative")
        for name in ("grams_co2_per_mile", "days_per_year", "circuity_factor"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.car_cost_per_mile < 0:
            raise ValueError("car_cost_per_mile must be non-negative")
        if isinstance(self.optimizer, dict):
            self.optimizer = OptimizerSettings(**_known_keys(OptimizerSettings, self.optimizer, "optimizer"))
        elif not isinstance(self.optimizer, OptimizerSettings):
            raise ValueError(f"optimizer must be an object of optimizer keys, got {self.optimizer!r}")

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        return cls(**_known_keys(cls, data, "config"))

    @classmethod
    def from_json(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_dict(read_json(path, "config"))

    # The kernel keywords these settings give.  Every step that screens,
    # prices or scores a hub takes them from here, so the observed hubs and
    # the siting candidates run under one set of settings.

    def screen_options(self) -> dict:
        """Keywords of ``geo.screen_trips``."""
        return {"condition2_mode": self.condition2_mode, "condition2_km": self.condition2_km}

    def setup_options(self) -> dict:
        """Keywords of ``hubs.prepare_hub``."""
        return {"car_cost_per_mile": self.car_cost_per_mile, "circuity_factor": self.circuity_factor}

    def impact_options(self) -> dict:
        """Keywords of ``impacts.assess_hubs``."""
        from .impacts import EmissionFactor  # loaded by the stages that score alone

        emissions = EmissionFactor(grams_co2_per_mile=self.grams_co2_per_mile, days_per_year=self.days_per_year)
        return {"emissions": emissions, "include_on_demand_auto": self.include_on_demand_auto_vmt}

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["optimizer"]["beta_bounds"] = list(self.optimizer.beta_bounds)
        out["optimizer"]["asc_bounds"] = list(self.optimizer.asc_bounds)
        return out


def _known_keys(cls, data: dict, what: str) -> dict:
    """``data``, when each of its keys is a field of ``cls``."""
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ValueError(f"unknown {what} keys: {unknown}")
    return data


@record
class Manifest:
    """Named input file paths, resolved relative to the manifest file."""

    markets: Path | None = None
    taste_parameters: Path | None = None
    leg_matrices: tuple[Path, ...] = ()
    fares: Path | None = None
    stops: Path | None = None
    pr_lots: Path | None = None
    survey: Path | None = None
    observed_usage: Path | None = None

    @classmethod
    def from_json(cls, path: str | Path) -> "Manifest":
        path = Path(path)
        data = read_json(path, "manifest")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"{path}: unknown manifest keys: {unknown}")
        base = path.parent

        def _resolve(name, value):
            if not isinstance(value, str):
                raise ValueError(f"{path}: manifest key '{name}' holds {value!r}, not a file path")
            p = base / value
            if not p.exists():
                raise ValueError(f"{path}: referenced file does not exist: {value}")
            return p

        paths = {}
        for f in fields(cls):  # resolved in field order, so the first missing file is named
            value = data.get(f.name)
            if f.name == "leg_matrices":
                values = value if isinstance(value, list) else [] if value is None else [value]
                paths[f.name] = tuple(_resolve(f.name, v) for v in values)
            else:
                paths[f.name] = None if value is None else _resolve(f.name, value)
        return cls(**paths)

    def require(self, *names: str) -> None:
        missing = [n for n in names if not getattr(self, n)]
        if missing:
            raise ValueError(f"manifest is missing required entries: {missing}")
