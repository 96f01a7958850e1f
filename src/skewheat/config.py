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
from dataclasses import dataclass, replace, asdict

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
    replicate_chunk: int
    check_tolerance: float | None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["medium"] = asdict(self.medium)
        return d


_DEFAULTS = {
    "kind": "",
    "sigma": "one",
    "x": "",
    "replicates": "1",
    "seed": "0",
    "backend": "convolution",
    "workers": "1",
    "out": "out",
    "n_list": "",
    "m_list": "",
    "replicate_chunk": "64",
    "check_tolerance": "",
}

_SECTIONS = {
    "medium": ("a1", "a2", "rho1", "rho2"),
    "grid": ("T", "n", "L", "m"),
    "experiment": tuple(_DEFAULTS),
}


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


def _parse_float_list(section: str, key: str, raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_float(section, key, part) for part in raw.split(","))


def _parse_int_list(section: str, key: str, raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(_parse_int(section, key, part) for part in raw.split(","))


def parse_config(text: str) -> ExperimentConfig:
    """Parse configuration text; unknown sections or keys raise ConfigError.

    Inline comments start with ';'.
    """
    cp = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"malformed config: {exc}") from None

    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        for key in cp[section]:
            if key not in _SECTIONS[section]:
                raise ConfigError(f"unknown key {key!r} in section [{section}]")
    for section in ("medium", "grid"):
        if section not in cp:
            raise ConfigError(f"missing required section [{section}]")
        for key in _SECTIONS[section]:
            if key not in cp[section]:
                raise ConfigError(f"missing required key {key!r} in section [{section}]")

    med = cp["medium"]
    try:
        medium = MediumParams(
            a1=_parse_float("medium", "a1", med["a1"]),
            a2=_parse_float("medium", "a2", med["a2"]),
            rho1=_parse_float("medium", "rho1", med["rho1"]),
            rho2=_parse_float("medium", "rho2", med["rho2"]),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    grid = cp["grid"]
    T = _parse_float("grid", "T", grid["T"])
    n = _parse_int("grid", "n", grid["n"])
    L = _parse_float("grid", "L", grid["L"])
    m = _parse_int("grid", "m", grid["m"])
    if T <= 0:
        raise ConfigError("[grid] T must be > 0")
    if n < 1:
        raise ConfigError("[grid] n must be >= 1")
    if L <= 0:
        raise ConfigError("[grid] L must be > 0")
    if m < 1:
        raise ConfigError("[grid] m must be >= 1")

    exp = dict(_DEFAULTS)
    if "experiment" in cp:
        exp.update(cp["experiment"])

    kind = exp["kind"].strip() or None
    if kind is not None and kind not in COMMANDS:
        raise ConfigError(f"[experiment] kind must be one of {COMMANDS}, got {kind!r}")
    backend = exp["backend"].strip()
    if backend not in BACKENDS:
        raise ConfigError(f"[experiment] backend must be one of {BACKENDS}, got {backend!r}")
    replicates = _parse_int("experiment", "replicates", exp["replicates"])
    if replicates < 1:
        raise ConfigError("[experiment] replicates must be >= 1")
    seed = _parse_int("experiment", "seed", exp["seed"])
    if not (0 <= seed < 2**64):
        raise ConfigError("[experiment] seed must be in [0, 2**64)")
    workers = _parse_int("experiment", "workers", exp["workers"])
    if workers < 1:
        raise ConfigError("[experiment] workers must be >= 1")
    replicate_chunk = _parse_int("experiment", "replicate_chunk", exp["replicate_chunk"])
    if replicate_chunk < 1:
        raise ConfigError("[experiment] replicate_chunk must be >= 1")
    n_list = _parse_int_list("experiment", "n_list", exp["n_list"])
    if any(v < 1 for v in n_list):
        raise ConfigError("[experiment] n_list entries must be >= 1")
    m_list = _parse_int_list("experiment", "m_list", exp["m_list"])
    if any(v < 1 for v in m_list):
        raise ConfigError("[experiment] m_list entries must be >= 1")
    sigma = exp["sigma"].strip()
    try:
        parse_sigma(sigma)
    except ValueError as exc:
        raise ConfigError(f"[experiment] sigma: {exc}") from None
    raw_tol = exp["check_tolerance"].strip()
    check_tolerance = _parse_float("experiment", "check_tolerance", raw_tol) if raw_tol else None
    if check_tolerance is not None and check_tolerance <= 0:
        raise ConfigError("[experiment] check_tolerance must be > 0")

    return ExperimentConfig(
        medium=medium,
        T=T,
        n=n,
        L=L,
        m=m,
        kind=kind,
        sigma=sigma,
        x_points=_parse_float_list("experiment", "x", exp["x"]),
        replicates=replicates,
        seed=seed,
        backend=backend,
        workers=workers,
        out_dir=exp["out"].strip(),
        n_list=n_list,
        m_list=m_list,
        replicate_chunk=replicate_chunk,
        check_tolerance=check_tolerance,
    )


def to_ini_text(cfg: ExperimentConfig) -> str:
    """Serialize the resolved configuration; parse_config inverts this losslessly."""
    cp = configparser.ConfigParser(interpolation=None)
    cp.optionxform = str
    cp["medium"] = {
        "a1": repr(cfg.medium.a1),
        "a2": repr(cfg.medium.a2),
        "rho1": repr(cfg.medium.rho1),
        "rho2": repr(cfg.medium.rho2),
    }
    cp["grid"] = {
        "T": repr(cfg.T),
        "n": str(cfg.n),
        "L": repr(cfg.L),
        "m": str(cfg.m),
    }
    cp["experiment"] = {
        "kind": cfg.kind or "",
        "sigma": cfg.sigma,
        "x": ", ".join(repr(v) for v in cfg.x_points),
        "replicates": str(cfg.replicates),
        "seed": str(cfg.seed),
        "backend": cfg.backend,
        "workers": str(cfg.workers),
        "out": cfg.out_dir,
        "n_list": ", ".join(str(v) for v in cfg.n_list),
        "m_list": ", ".join(str(v) for v in cfg.m_list),
        "replicate_chunk": str(cfg.replicate_chunk),
        "check_tolerance": "" if cfg.check_tolerance is None else repr(cfg.check_tolerance),
    }
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
    if not fields:
        return cfg
    if "seed" in fields and not (0 <= fields["seed"] < 2**64):
        raise ConfigError("--seed must be in [0, 2**64)")
    if "replicates" in fields and fields["replicates"] < 1:
        raise ConfigError("--replicates must be >= 1")
    if "workers" in fields and fields["workers"] < 1:
        raise ConfigError("--workers must be >= 1")
    if "backend" in fields and fields["backend"] not in BACKENDS:
        raise ConfigError(f"--backend must be one of {BACKENDS}")
    return replace(cfg, **fields)
