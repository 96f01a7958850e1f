import math
import pathlib
from dataclasses import replace

import pytest

from skewheat.config import (
    BACKENDS,
    COMMANDS,
    ConfigError,
    ExperimentConfig,
    load_config,
    parse_config,
    to_ini_text,
    config_sha256,
    with_overrides,
)
from skewheat.medium import MediumParams
from skewheat.noise import GridSpec
from skewheat.solver import sigma_affine, sigma_one, sigma_sin

BASE = """
[medium]
a1 = 1.0
a2 = 4.0
rho1 = 1.0
rho2 = 1.0

[grid]
T = 1.0
n = 64
L = 8.0
m = 128

[experiment]
kind = quartic
sigma = sin1:0.5
x = 0.5, -0.5, 0.0
replicates = 100
seed = 20240601
backend = convolution
workers = 2
out = results
n_list = 16, 32, 64
m_list = 4, 16
check_tolerance = 0.05
"""


def test_parse_full_config():
    cfg = parse_config(BASE)
    assert cfg.medium == MediumParams(1.0, 4.0, 1.0, 1.0)
    assert cfg.grid == GridSpec(T=1.0, n=64, L=8.0, m=128)
    assert cfg.kind == "quartic"
    assert cfg.sigma == sigma_sin(0.5)
    assert cfg.x_points == (0.5, -0.5, 0.0)
    assert cfg.replicates == 100
    assert cfg.seed == 20240601
    assert cfg.backend == "convolution"
    assert cfg.workers == 2
    assert cfg.n_list == (16, 32, 64)
    assert cfg.m_list == (4, 16)
    assert cfg.check_tolerance == 0.05


def test_round_trip_is_lossless():
    cfg = parse_config(BASE)
    assert parse_config(to_ini_text(cfg)) == cfg
    # Awkward floats survive the text form exactly.
    cfg2 = with_overrides(cfg, out_dir="elsewhere")
    bumped = parse_config(to_ini_text(cfg2).replace("T = 1.0", f"T = {math.pi!r}"))
    assert parse_config(to_ini_text(bumped)) == bumped
    assert bumped.grid.T == math.pi


def test_inline_comments_stripped():
    cfg = parse_config(
        "[medium]\na1 = 1 ; left diffusivity\na2 = 1\nrho1 = 1\nrho2 = 1\n"
        "[grid]\nT = 1\nn = 4\nL = 2\nm = 4\n"
    )
    assert cfg.medium.a1 == 1.0


def test_defaults_applied():
    cfg = parse_config(
        "[medium]\na1=1\na2=1\nrho1=1\nrho2=1\n[grid]\nT=1\nn=4\nL=2\nm=4\n"
    )
    assert cfg.kind is None
    assert cfg.sigma == sigma_one()
    assert cfg.x_points == ()
    assert cfg.replicates == 1
    assert cfg.backend == "convolution"
    assert cfg.check_tolerance is None


@pytest.mark.parametrize("mutation,fragment", [
    ("a1 = 1.0", "a1 = -1.0"),
    ("T = 1.0", "T = 0.0"),
    ("n = 64", "n = 0"),
    ("replicates = 100", "replicates = 0"),
    ("backend = convolution", "backend = warp"),
    ("seed = 20240601", "seed = -3"),
    ("kind = quartic", "kind = frobnicate"),
    ("x = 0.5, -0.5, 0.0", "x = 0.5, -0.5, 0.5"),
    ("x = 0.5, -0.5, 0.0", "x = 0.0, -0.0"),
])
def test_invalid_values_rejected(mutation, fragment):
    with pytest.raises(ConfigError):
        parse_config(BASE.replace(mutation, fragment))


def test_unknown_key_and_section_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config(BASE + "\ntypo_key = 1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config(BASE + "\n[extra]\nfoo = 1\n")


def test_removed_memory_budget_key_exits_two_with_one_line(tmp_path, capsys):
    from skewheat.cli import main

    path = tmp_path / "c.ini"
    for key, value in (("memory_budget_mb", 512), ("replicate_chunk", 64)):
        path.write_text(BASE + f"{key} = {value}\n")
        assert main(["quartic", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and key in err
        assert err.count("\n") == 1


def test_malformed_section_header_exits_two_with_one_line(tmp_path, capsys):
    from skewheat.cli import main

    path = tmp_path / "c.ini"
    path.write_text("[medium")
    assert main(["quartic", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: malformed config: ") and "[medium" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("sigma", ["bogus", "affine:1", "sin1:x", "sin1:nan", "affine:0,inf"])
def test_bad_sigma_exits_two_with_one_line(tmp_path, capsys, sigma):
    from skewheat.cli import main

    path = tmp_path / "c.ini"
    path.write_text(BASE.replace("sigma = sin1:0.5", f"sigma = {sigma}"))
    assert main(["quartic", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: [experiment] sigma: ") and sigma in err
    assert err.count("\n") == 1


def test_missing_required_rejected():
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("[medium]\na1=1\na2=1\nrho1=1\nrho2=1\n")
    with pytest.raises(ConfigError, match="missing required"):
        parse_config("[medium]\na1=1\na2=1\nrho1=1\n[grid]\nT=1\nn=4\nL=2\nm=4\n".replace("rho1=1\n", "rho1=1\nrho2=1\n").replace("m=4", ""))


def test_overrides():
    cfg = parse_config(BASE)
    out = with_overrides(cfg, seed=1, replicates=7, workers=4, out_dir="o2", backend="exact-linear")
    assert (out.seed, out.replicates, out.workers, out.out_dir, out.backend) == (
        1, 7, 4, "o2", "exact-linear"
    )
    with pytest.raises(ConfigError):
        with_overrides(cfg, replicates=0)
    with pytest.raises(ConfigError):
        with_overrides(cfg, seed=-1)


def test_config_hash_ignores_execution_fields():
    cfg = parse_config(BASE)
    h = config_sha256(cfg)
    assert config_sha256(with_overrides(cfg, workers=8)) == h
    assert config_sha256(with_overrides(cfg, out_dir="/somewhere/else")) == h
    assert config_sha256(with_overrides(cfg, seed=999)) != h
    assert config_sha256(with_overrides(cfg, replicates=5)) != h


def test_demo_config_hash_is_pinned():
    # Every output file's header carries these hashes, so a change to how the
    # grid, sigma or any other key is serialized has to show up here.
    configs = pathlib.Path(__file__).resolve().parents[1] / "configs"
    pinned = {
        "demo_convergence.ini": "75a4a698bbfd867096d8f04d18f7a600d5c9dc2e634e2a595c2e32afa5891d0e",
        "demo_quartic.ini": "b5b8710a8e692a50a7c9ba2374af496d18c6580f3e85555f5667b5b4ffcb8152",
        "demo_selftest.ini": "213e68f3b5ba3ae0689dc1762c4e95a4e1513260298a10e7687ef2b7eabdffa5",
        "demo_simulate.ini": "7002f57fff455aba77b1bd4bac8136ac7a846f03e1392f3f6ed103cc458834b9",
        "demo_simulate_linear.ini":
            "3715b08f37ea3f26b7f2925a916e3b9b0a4961dd864b3446b2421fb0947c854b",
    }
    assert sorted(p.name for p in configs.glob("*.ini")) == sorted(pinned)
    for name, sha in pinned.items():
        assert config_sha256(load_config(str(configs / name))) == sha, name


def test_equal_sigma_specs_are_one_config():
    # sigma is held as its coefficients, so two spellings of one spec parse,
    # serialize and hash alike.
    one = parse_config(BASE.replace("sigma = sin1:0.5", "sigma = one"))
    for spelling in ("affine:0,1", "affine:0.0, 1.0", "sin1:0"):
        cfg = parse_config(BASE.replace("sigma = sin1:0.5", f"sigma = {spelling}"))
        assert cfg == one and to_ini_text(cfg) == to_ini_text(one)
        assert config_sha256(cfg) == config_sha256(one)
    assert "sigma = sin1:0.5\n" in to_ini_text(parse_config(BASE))


def test_config_that_is_not_utf8_exits_two_with_one_line(tmp_path, capsys):
    from skewheat.cli import main

    path = tmp_path / "c.ini"
    path.write_bytes(BASE.encode() + b"; \xff\n")
    assert main(["quartic", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {str(path)!r}: ") and "0xff" in err
    assert err.count("\n") == 1


def test_round_trip_and_hash_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    finite = st.floats(-1e6, 1e6, allow_nan=False)
    positive = st.floats(1e-6, 1e6)
    count = st.integers(1, 10**6)
    sigma = st.one_of(st.just(sigma_one()), st.builds(sigma_affine, finite, finite),
                      st.builds(sigma_sin, finite))
    out_dir = st.from_regex(r"[A-Za-z0-9_./-]{0,24}", fullmatch=True)
    configs = st.builds(
        ExperimentConfig,
        medium=st.builds(MediumParams, positive, positive, positive, positive),
        grid=st.builds(GridSpec, T=positive, n=count, L=positive, m=count),
        kind=st.one_of(st.none(), st.sampled_from(COMMANDS)),
        sigma=sigma,
        x_points=st.lists(finite, max_size=5, unique=True).map(tuple),
        replicates=count,
        seed=st.integers(0, 2**64 - 1),
        backend=st.sampled_from(BACKENDS),
        workers=count,
        out_dir=out_dir,
        n_list=st.lists(count, max_size=4, unique=True).map(tuple),
        m_list=st.lists(count, max_size=4, unique=True).map(tuple),
        check_tolerance=st.one_of(st.none(), positive),
    )

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(configs, count, out_dir)
    def check(cfg, workers, out):
        assert parse_config(to_ini_text(cfg)) == cfg
        h = config_sha256(cfg)
        assert config_sha256(replace(cfg, workers=workers, out_dir=out)) == h
        assert config_sha256(replace(cfg, seed=(cfg.seed + 1) % 2**64)) != h

    check()
