"""Experiment configuration: flat INI-style key-value files with sections.

Unknown sections or keys are hard errors so that typos never silently change
an experiment.  A resolved configuration round-trips losslessly through its
text form, and its SHA-256 is embedded in every output file.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import math
from dataclasses import dataclass, fields, replace

from .medium import MediumParams
from .solver import parse_sigma

FORMAT_VERSION = 1

BACKENDS = ("convolution", "exact-linear")
COMMANDS = ("kernel-selftest", "simulate", "quartic", "convergence", "estimate")


class ConfigError(ValueError):
    """Invalid configuration file or option combination."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment configuration."""

    medium: MediumParams
    T: float
    n: int
    L: float
    m: int
    kind: str | None
    sigma: str
    x_points: tuple[float, ...]
    replicates: int
    seed: int
    backend: str
    workers: int
    out_dir: str
    n_list: tuple[int, ...]
    m_list: tuple[int, ...]
    check_tolerance: float | None


def _parse_float(section: str, key: str, raw: str) -> float:
    try:
        v = float(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected a number, got {raw!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"[{section}] {key}: must be finite, got {raw!r}")
    return v


def _parse_int(section: str, key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"[{section}] {key}: expected an integer, got {raw!r}") from None


# Value kinds: one item's (parser, formatter); a kind ending in "," is a
# comma-separated tuple, one ending in "?" is None when left empty.
_ITEMS = {
    "float": (_parse_float, repr),
    "int": (_parse_int, str),
    "text": (lambda section, key, raw: raw, str),
}


def _rule(ok, complaint: str):
    """A range rule: None when ok(value), else the complaint that follows "[section] key"."""
    return lambda v: None if ok(v) else complaint


def _one_of(choices: tuple[str, ...]):
    return lambda v: None if v is None or v in choices else f" must be one of {choices}, got {v!r}"


def _sigma_rule(spec: str) -> str | None:
    try:
        parse_sigma(spec)
    except ValueError as exc:
        return f": {exc}"
    return None


_AT_LEAST_ONE = _rule(lambda v: v >= 1, " must be >= 1")
_POSITIVE = _rule(lambda v: v > 0, " must be > 0")
_ENTRIES_AT_LEAST_ONE = _rule(lambda v: all(i >= 1 for i in v), " entries must be >= 1")

# Every config key, in file order: (section, key, field, kind, default, range
# rule).  A default of None makes the key required.  The medium keys fill
# MediumParams, which checks its own ranges.
_KEYS = (
    ("medium", "a1", "a1", "float", None, None),
    ("medium", "a2", "a2", "float", None, None),
    ("medium", "rho1", "rho1", "float", None, None),
    ("medium", "rho2", "rho2", "float", None, None),
    ("grid", "T", "T", "float", None, _POSITIVE),
    ("grid", "n", "n", "int", None, _AT_LEAST_ONE),
    ("grid", "L", "L", "float", None, _POSITIVE),
    ("grid", "m", "m", "int", None, _AT_LEAST_ONE),
    ("experiment", "kind", "kind", "text?", "", _one_of(COMMANDS)),
    ("experiment", "sigma", "sigma", "text", "one", _sigma_rule),
    ("experiment", "x", "x_points", "float,", "", None),
    ("experiment", "replicates", "replicates", "int", "1", _AT_LEAST_ONE),
    ("experiment", "seed", "seed", "int", "0",
     _rule(lambda v: 0 <= v < 2**64, " must be in [0, 2**64)")),
    ("experiment", "backend", "backend", "text", "convolution", _one_of(BACKENDS)),
    ("experiment", "workers", "workers", "int", "1", _AT_LEAST_ONE),
    ("experiment", "out", "out_dir", "text", "out", None),
    ("experiment", "n_list", "n_list", "int,", "",
     _rule(lambda v: min(v, default=1) >= 1 and len(set(v)) == len(v),
           " entries must be >= 1 and distinct")),
    ("experiment", "m_list", "m_list", "int,", "", _ENTRIES_AT_LEAST_ONE),
    ("experiment", "check_tolerance", "check_tolerance", "float?", "",
     _rule(lambda v: v is None or v > 0, " must be > 0")),
)


def _parse_value(section: str, key: str, kind: str, raw: str):
    parse = _ITEMS[kind.rstrip(",?")][0]
    raw = raw.strip()
    if kind.endswith(","):
        return tuple(parse(section, key, part) for part in raw.split(",")) if raw else ()
    if kind.endswith("?") and not raw:
        return None
    return parse(section, key, raw)


def _format_value(kind: str, value) -> str:
    fmt = _ITEMS[kind.rstrip(",?")][1]
    if kind.endswith(","):
        return ", ".join(fmt(v) for v in value)
    return "" if value is None else fmt(value)


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; unknown sections or keys raise ConfigError.

    Inline comments start with ';'.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        # configparser's text spans several lines; every config error is one.
        detail = "; ".join(line.strip() for line in str(exc).splitlines() if line.strip())
        raise ConfigError(f"malformed config: {detail}") from None

    known = {(section, key) for section, key, *_ in _KEYS}
    for section in cp.sections():
        if section not in {s for s, *_ in _KEYS}:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if (section, key) not in known:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")

    values = {}
    for section, key, field, kind, default, _ in _KEYS:
        if section in cp and key in cp[section]:
            raw = cp[section][key]
        elif default is not None:
            raw = default
        elif section not in cp:
            raise ConfigError(f"missing required section [{section}]")
        else:
            raise ConfigError(f"missing required key {key!r} in section [{section}]")
        values[field] = _parse_value(section, key, kind, raw)

    try:
        medium = MediumParams(**{f.name: values.pop(f.name) for f in fields(MediumParams)})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return _check_ranges(ExperimentConfig(medium=medium, **values))


def _check_ranges(cfg: ExperimentConfig) -> ExperimentConfig:
    """Return cfg, or raise ConfigError naming the first grid or experiment field out of range."""
    for section, key, field, _, _, rule in _KEYS:
        complaint = rule and rule(getattr(cfg, field))
        if complaint:
            raise ConfigError(f"[{section}] {key}{complaint}")
    return cfg


def to_ini_text(cfg: ExperimentConfig) -> str:
    """Serialize the resolved configuration; parse_config inverts this losslessly."""
    sections: dict[str, dict[str, str]] = {}
    for section, key, field, kind, _, _ in _KEYS:
        owner = cfg.medium if section == "medium" else cfg
        sections.setdefault(section, {})[key] = _format_value(kind, getattr(owner, field))
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp.read_dict(sections)
    buf = io.StringIO()
    cp.write(buf)
    return buf.getvalue()


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def config_sha256(cfg: ExperimentConfig) -> str:
    """Hash of the result-defining configuration content.

    The worker count and output directory steer execution, never results
    (replicates are keyed individually and chunking is fixed), so they are
    normalized out: reruns of one experiment hash identically however they
    are scheduled or where they write.
    """
    canonical = replace(cfg, workers=1, out_dir="")
    return hashlib.sha256(to_ini_text(canonical).encode("utf-8")).hexdigest()


def with_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Apply non-None CLI overrides onto a parsed configuration."""
    fields = {k: v for k, v in overrides.items() if v is not None}
    return _check_ranges(replace(cfg, **fields)) if fields else cfg
