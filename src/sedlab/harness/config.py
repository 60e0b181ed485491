"""Run configuration: flat key-value files with bracketed sections.

Grammar, one entry per line:

    [section]
    key = value        # '#' starts a comment

Values are parsed as int, then float, then comma-separated lists of
those, then left as strings.  Keys outside any section land in the
"run" section.  CLI flags override file values.  A key that no run reads
(see KNOWN_KEYS) is an error rather than a silent no-op.  A key of
DEFAULTS has its default there alone: readers index it, with no fallback.
"""

import hashlib
from dataclasses import dataclass

from ..kernels import GridSpec

TIERS = ("micro", "vlasov", "transport")

DEFAULTS = {
    "run": {
        "tier": "vlasov",
        "n": 1000,
        "lambda": 20.0,
        "t_final": 0.5,
        "dt": 0.00625,
        "seed": 1,
    },
    "grid": {"box": 16.0, "cells": 32},
    "initial": {
        "family": "well_prepared",
        "sigma_x": 1.5,
        "sigma_v": 0.2,
        "c_v": 10.0,
        "max_resamples": 20,
    },
    "tolerances": {"brinkman": 1e-9, "closure": 1e-12},
    "output": {"snapshots": 50, "energy_budget": 1},  # energy_budget: 1 (on) or 0
}

# Every key a run reads, by section: those of DEFAULTS plus those whose
# default lives with their reader.  A section not listed here is free-form.
KNOWN_KEYS = {
    **{name: frozenset(keys) for name, keys in DEFAULTS.items()},
    "initial": frozenset(DEFAULTS["initial"]) | {"x_radius", "v_radius"},
    "hydro": frozenset({"steps_per_relaxation", "transport_dt"}),
    "meanfield": frozenset({"n_ref"}),
}

# (section, key, SimConfig field, type) of each scalar run and grid setting
SCALARS = tuple(
    (section, key, "lam" if key == "lambda" else key, type(value))
    for section in ("run", "grid")
    for key, value in DEFAULTS[section].items()
)


def _parse_scalar(text):
    text = text.strip()
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def _parse_value(text):
    text = text.strip()
    if "," in text:
        return [_parse_scalar(p) for p in text.split(",") if p.strip()]
    return _parse_scalar(text)


def parse_config_text(text):
    """Section -> {key: value} from the flat file format."""
    sections = {}
    current = "run"
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            current = line[1:-1].strip()
            if not current:
                raise ValueError(f"line {lineno}: empty section name")
            sections.setdefault(current, {})
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ValueError(f"line {lineno}: empty key")
        sections.setdefault(current, {})[key] = _parse_value(value)
    return sections


@dataclass
class SimConfig:
    """Resolved settings for one run, built by build_config; see DEFAULTS for the full key set."""

    tier: str
    n: int
    lam: float
    t_final: float
    dt: float
    seed: int
    box: float
    cells: int
    initial: dict
    tolerances: dict
    output: dict
    extra: dict

    def __post_init__(self):
        if self.tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS}, got {self.tier!r}")
        if self.dt <= 0.0:
            raise ValueError("dt must be positive")
        if self.t_final < self.dt:
            raise ValueError("t_final must be at least dt")
        if self.lam <= 0.0:
            raise ValueError("lambda must be positive")
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.output["energy_budget"] not in (0, 1):
            raise ValueError(f"[output] energy_budget must be 0 or 1, got {self.output['energy_budget']!r}")
        if self.cells < 8 or self.cells & (self.cells - 1):
            raise ValueError(f"grid resolution must be a power of two >= 8, got {self.cells}")
        self.grid  # rejects a bad box

    @property
    def grid(self) -> GridSpec:
        return GridSpec(float(self.box), int(self.cells))

    @property
    def steps(self) -> int:
        return max(1, round(self.t_final / self.dt))

    def sections(self):
        """Canonical section -> key -> value view used for hashing and echo."""
        out = {"run": {}, "grid": {}}
        for section, key, name, _ in SCALARS:
            out[section][key] = getattr(self, name)
        out |= {name: dict(getattr(self, name)) for name in ("initial", "tolerances", "output")}
        for name, mapping in self.extra.items():
            out.setdefault(name, {}).update(mapping)
        return out

    def config_hash(self) -> str:
        lines = []
        for section, mapping in self.sections().items():
            for key, value in mapping.items():
                if isinstance(value, list):
                    value = ",".join(repr(v) for v in value)
                lines.append(f"{section}.{key}={value!r}")
        digest = hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest()
        return digest[:16]


def build_config(sections):
    """SimConfig from parsed sections merged over DEFAULTS.

    Raises ValueError on a key that KNOWN_KEYS does not list for its section.
    """
    merged = {name: dict(values) for name, values in DEFAULTS.items()}
    extra = {}
    for name, mapping in sections.items():
        unknown = sorted(set(mapping) - KNOWN_KEYS.get(name, set(mapping)))
        if unknown:
            raise ValueError(f"unknown key(s) in [{name}]: {', '.join(unknown)}")
        if name in merged:
            merged[name].update(mapping)
        else:
            extra[name] = dict(mapping)
    return SimConfig(
        **{name: cast(merged[section][key]) for section, key, name, cast in SCALARS},
        initial=merged["initial"],
        tolerances=merged["tolerances"],
        output=merged["output"],
        extra=extra,
    )


def load_config(path, overrides=None):
    """Read a config file (None: DEFAULTS alone) and apply {section: {key: value}} overrides."""
    sections = {}
    if path is not None:
        with open(path) as fh:
            sections = parse_config_text(fh.read())
    for name, mapping in (overrides or {}).items():
        sections.setdefault(name, {}).update(mapping)
    return build_config(sections)


def default_config(overrides=None):
    return load_config(None, overrides)
