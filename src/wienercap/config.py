"""Flat key-value run configuration.

Format: one `key = value` pair per line; blank lines and `#` comments are
ignored.  Keys are dotted (section.name), values are typed per the schema
below; `floats` values are whitespace-separated lists.  Unknown keys and
malformed values are hard errors (CLI exit code 64), so a config that
parses is fully understood.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field


class ConfigError(ValueError):
    pass


def _parse_floats(s: str) -> tuple:
    return tuple(float(v) for v in s.split())


_TYPES = {
    "int": int,
    "float": float,
    "str": str,
    "floats": _parse_floats,
}

# key -> (type name, default value, help)
SCHEMA = {
    "seed": ("int", 0, "master seed; --seed overrides"),
    "metric.kind": ("str", "euclidean", "euclidean | heisenberg-koranyi"),
    "metric.N": ("int", 1, "spatial dimension (euclidean only; Heisenberg is 3)"),
    "domain.benchmark": ("str", "", "registry name; empty = use domain.family"),
    "domain.family": ("str", "halfspace-time", "family when no benchmark given"),
    "domain.t0": ("float", 0.0, "marked boundary time"),
    "domain.halfwidth": ("float", 2.0, "bbox spatial halfwidth"),
    "domain.wall": ("float", 0.0, "spatial-halfspace wall position"),
    "domain.radius": ("float", 0.5, "cylinder/punctured ball radius"),
    "domain.t1": ("float", -1.0, "cylinder bottom time"),
    "domain.t2": ("float", 0.0, "cylinder top time"),
    "domain.z0-position": ("str", "top", "cylinder marked point: top | lateral"),
    "domain.M0": ("float", 1.0, "cone opening"),
    "domain.theta": ("float", 0.5, "cone excluded density"),
    "domain.depth": ("float", 0.25, "cone/cusp depth below t0"),
    "domain.profile": ("str", "power", "cusp profile: power | loglog"),
    "domain.p": ("float", 1.0, "cusp power exponent (> 1/2)"),
    "domain.c": ("float", 1.0, "cusp loglog coefficient"),
    "domain.tau": ("float", 0.0, "punctured obstacle time"),
    "domain.mask-path": ("str", "", "voxel mask file for family=mask"),
    "bounds.Lambda": ("float", 0.0, "two-sided bound constant; 0 = exact Euclidean fit"),
    "bounds.a0": ("float", 0.0, "upper Gaussian exponent; 0 = beta/4"),
    "bounds.b0": ("float", 0.0, "lower Gaussian exponent; 0 = beta/4"),
    "wiener.lambda": ("float", 0.25, "ring scale in (0, 1)"),
    "wiener.a": ("float", 0.0, "capacity exponent; 0 = a0"),
    "wiener.b": ("float", 0.0, "weight exponent; 0 = 2 b0"),
    "wiener.variant": ("str", "sufficient", "sufficient | necessary | nested"),
    "wiener.K-max": ("int", 40, "time levels in the series"),
    "wiener.H-max": ("int", 40, "annulus bands per level"),
    "capacity.resolution": ("int", 4, "dyadic sampling resolution"),
    "capacity.target": ("str", "ring", "ring | section | ball-complement"),
    "capacity.k": ("int", 2, "ring time level"),
    "capacity.h": ("int", 1, "ring annulus band"),
    "capacity.variant": ("str", "band", "ring variant: band | nested"),
    "capacity.rho": ("float", 2.718281828459045, "section Gaussian bound"),
    "capacity.tau": ("float", -0.01, "section time"),
    "capacity.l": ("int", 1, "ball-complement level"),
    "capacity.refine-levels": ("int", 1, "resolutions to sweep (>= 1)"),
    "integral.resolution": ("int", 0, "2^(res+1) grid cells per axis per "
                            "time node; 0 = auto"),
    "integral.probes": ("floats", (0.45, 0.35, 0.25, 0.18, 0.12, 0.08,
                                   0.055, 0.04, 0.028, 0.02),
                        "probe dhat values"),
    "cone.M0": ("float", 1.0, "cone-check opening"),
    "cone.r0": ("float", 0.25, "largest tested radius"),
    "cone.levels": ("int", 6, "dyadic radius levels"),
    "cone.theta-min": ("float", 0.01, "required excluded density"),
    "cone.resolution": ("int", 7, "slice-count resolution"),
    "pde.beta": ("float", 1.0, "operator coefficient (1/beta) Laplace - d/dt"),
    "pde.step": ("float", 1e-3, "walk time step"),
    "pde.walkers": ("int", 2000, "walkers per evaluation"),
    "pde.max-time": ("float", 4.0, "backward-time budget per walker"),
}


@dataclass
class RunConfig:
    values: dict = field(default_factory=dict)
    source_text: str = ""

    def __getitem__(self, key: str):
        if key not in SCHEMA:
            raise ConfigError(f"unknown config key {key!r}")
        return self.values.get(key, SCHEMA[key][1])

    def with_override(self, key: str, value) -> "RunConfig":
        vals = dict(self.values)
        vals[key] = value
        return RunConfig(vals, self.source_text)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key-value config; raises ConfigError."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        tname = SCHEMA[key][0]
        try:
            values[key] = _TYPES[tname](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad {tname} for {key}: {exc}")
    return RunConfig(values, text)


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def config_hash(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def describe_schema() -> str:
    lines = ["# key = default        (type)  description"]
    for key, (tname, default, doc) in SCHEMA.items():
        lines.append(f"{key} = {default!r:<22} ({tname})  {doc}")
    return "\n".join(lines)
