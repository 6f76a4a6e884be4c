"""Golden output hashes: the reproducibility contract, pinned byte for byte.

Each case runs one CLI command on a small seeded config and compares the
sha256 of every file it writes with a value recorded from an earlier
version of the package.  Any change to the block sub-stream rule, the
newest-first draw order, the lag arithmetic or the float formatting shows
up here as a changed hash.
"""

import hashlib
import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import matails.ma_process as ma
from matails import simulate
from matails.cli import load_experiment, main

SIMULATE_CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = geometric
    rho = 0.5
    m = infinite
    trunc_eps = 1e-3

    [tail]
    family = shifted_pareto
    alpha = 1.5

    [run]
    n = 40
    seed = 7
    window = -1:1
    """
)

# Sample values on both sides of 1e-4 (shifted Pareto at a small scale) and
# a window of negative indices: the CSV writer's fallback and its index signs.
# Coefficients must be nonnegative, so simulate never writes a negative value.
SIMULATE_SMALL_CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = explicit
    values = 1, 0.75
    m = 1

    [tail]
    family = shifted_pareto
    alpha = 0.8
    scale = 0.0002

    [run]
    n = 80
    seed = 13
    window = -2:1
    """
)

# Heavy tails over six sample-file slices (16383 cells each at ROW_SLICE = 2^14,
# a short last one): ids of 1 to 5 digits, whole parts of 9 to 16 digits,
# 13 exponent forms and 38 values from 1e15 on, which go to repr.  Every
# other simulate case fits in one slice, so none of them could show bytes
# that one slice leaves behind for the next.
SIMULATE_HEAVY_CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = explicit
    values = 1, 0.5
    m = 1

    [tail]
    family = standard_pareto
    alpha = 0.5
    scale = 1e8

    [run]
    n = 30000
    seed = 3
    window = -2:0
    """
)

LIMITS_FINITE_CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = explicit
    values = 1, 0.5
    m = 1

    [tail]
    family = standard_pareto
    alpha = 1.0

    [rows]
    row0 = 0; 0:1.0
    row1 = 1; 0:1.0, 2:1.0
    row2 = 1; 0:1.0, 1:1.0

    [run]
    seed = 3
    integration_budget = 5000
    """
)

LIMITS_GEOMETRIC_CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = geometric
    rho = 0.5
    m = infinite

    [tail]
    family = standard_pareto
    alpha = 1.0

    [rows]
    row0 = 0; 0:1.0
    row1 = 0; 0:1.0, 1:2.0
    row2 = 1; 0:1.0, 5:1.0
    """
)

# Hidden-order rows with drawn tuples: row0's drawn pair reads one member
# (a one-dimensional lattice), row1's drawn triples read one or two.
LIMITS_DRAWN_CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = explicit
    values = 1, 1, 0.5
    m = 2

    [tail]
    family = standard_pareto
    alpha = 1.0

    [rows]
    row0 = 1; 0:1.0, 2:6.0, 4:1.0
    row1 = 2; 0:2.0, 1:4.0, 2:8.0, 3:1.0, 4:20.0, 6:8.0

    [run]
    seed = 5
    integration_budget = 1000
    """
)

VERIFY_CONFIG = textwrap.dedent(
    """\
    [coefficients]
    family = explicit
    values = 1, 0.5
    m = 1

    [tail]
    family = standard_pareto
    alpha = 1.0

    [rows]
    row0 = 0; 0:1.0
    row1 = 1; 0:1.0, 2:1.0

    [run]
    n = 300
    t_grid = 5, 20
    seed = 11
    integration_budget = 2000
    """
)

GOLDEN = {
    "simulate-csv": {
        "out": "60756aadb8151a20a93425987d171913b9e9c5888e6f42ee14e7bd9a2e686388",
        "out.meta.json": "a303638f141f14bfaddc64bea919a094249ca7ff806996558632866761381f75",
    },
    "simulate-small": {
        "out": "cc232bdc1352682dc39e7413525f52985571b6b696a14423902c1f6d81158082",
        "out.meta.json": "d220d5412374c8b9a39c0a756379ed3f37c97dff62defb9b600f444515babc93",
    },
    "simulate-heavy": {
        "out": "0036a695a99bd78a037d8aaf5eaf41e8e06d74a793c879131f516eac5d7a3c9b",
        "out.meta.json": "03f3be85063941e33471908fdb1c02c410065ead5a4c7aa84cbfe9e2639ffbf4",
    },
    "simulate-json": {
        "out": "ab52c5c5922df41c339addfae38fd19525af58872e490b1e3ca2ddd77b76f345",
    },
    "limits-finite": {
        "out": "e5a2f968369fc82fffc8d58f7d816a49f3ddd59067c64810f36a1b07f0bac300",
        "out.meta.json": "370863d17a9f0f860e650c2ba62764547101d3995ac49f80d69cb0def5ff39c0",
    },
    "limits-geometric": {
        "out": "11eedfd6f3aec88b737c1ec7afa7bfb97ef21f72370730fc76b9f72162b739fa",
        "out.meta.json": "42e099036c79eb7a2606a7bdf999fd22f7fb3b653759a3c478b15ba021740d8c",
    },
    # Its drawn tuples read sub-streams of the root derived from the seed, as
    # verify's theory column does.
    "limits-drawn": {
        "out": "7211285259de342ece3fa30ab0753ff4862486ce10bf4bb0300fab09147f4e7f",
        "out.meta.json": "4a281b58ed89b949be3ff23611eb77d88af13b70a78b6e268a75741c0ed4b5c3",
    },
    "verify": {
        "out": "e9e48ea9d1a25f957708f5e56cde4f48c953dd22d0b0c4fffad4b3cd836c4b14",
        "out.meta.json": "414891d3d9523b452fdeb580f02ec13724e049f11bb19d2e67a988bb290544c1",
    },
    "verify-one-block": {
        "out": "ecd81edfaae825649a43a00a3360c74c1454fadfa7553c524100d7e0c108f395",
        "out.meta.json": "414891d3d9523b452fdeb580f02ec13724e049f11bb19d2e67a988bb290544c1",
    },
}


def run_and_hash(tmp_path, config, argv, env=None):
    """sha256 of each file a run of ``argv`` on ``config`` writes; in this
    process, or with ``env`` in a child run with that environment."""
    cfg = tmp_path / "exp.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    argv = argv + ["--config", str(cfg), "--out", str(out)]
    if env is None:
        assert main(argv) == 0
    else:
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "matails.cli", *argv],
                              env={**os.environ, **env, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name.startswith("out")
    }


CASES = {
    "simulate-csv": (SIMULATE_CONFIG, ["simulate"]),
    "simulate-json": (SIMULATE_CONFIG, ["simulate", "--format", "json"]),
    "simulate-small": (SIMULATE_SMALL_CONFIG, ["simulate"]),
    "simulate-heavy": (SIMULATE_HEAVY_CONFIG, ["simulate"]),
    "limits-finite": (LIMITS_FINITE_CONFIG, ["limits"]),
    "limits-geometric": (LIMITS_GEOMETRIC_CONFIG, ["limits"]),
    "limits-drawn": (LIMITS_DRAWN_CONFIG, ["limits"]),
}


def companion_hash(tmp_path, config) -> str:
    """sha256 of ``np.save`` of the library's Fortran-ordered replicate matrix
    for ``config``: the bytes ``simulate`` writes as a CSV's companion."""
    cfg = tmp_path / "library.ini"
    cfg.write_text(config)
    exp = load_experiment(str(cfg), [])
    batch = simulate(exp.coeffs, exp.m, exp.model, exp.window, exp.n, exp.seed, exp.trunc_eps)
    saved = io.BytesIO()
    np.save(saved, np.asfortranarray(batch.matrix))
    return hashlib.sha256(saved.getvalue()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_hash(tmp_path, case):
    # A CSV sample's companion "out.npy" is pinned to the library, not to a
    # recorded hash.
    config, argv = CASES[case]
    got = run_and_hash(tmp_path, config, argv)
    if argv == ["simulate"]:
        assert got.pop("out.npy") == companion_hash(tmp_path, config)
    assert got == GOLDEN[case]


@pytest.mark.parametrize("threads", [1, 2])
def test_verify_hash_over_many_blocks(tmp_path, monkeypatch, threads):
    # 300 replicates in blocks of 64 rows: five sub-streams, the last one short.
    monkeypatch.setattr(ma, "BLOCK_ROWS", 64)
    got = run_and_hash(tmp_path, VERIFY_CONFIG, ["verify", "--threads", str(threads)])
    assert got == GOLDEN["verify"]


@pytest.mark.parametrize("threads", [1, 2])
def test_verify_hash_over_tiles_of_one_block(tmp_path, monkeypatch, threads):
    # 300 replicates in one block, split into tiles of 64 that the thread
    # pool shares out; the bytes are those of the one-tile run.
    monkeypatch.setattr(ma, "TILE_ROWS", 64)
    got = run_and_hash(tmp_path, VERIFY_CONFIG, ["verify", "--threads", str(threads)])
    assert got == GOLDEN["verify-one-block"]


@pytest.mark.parametrize("case", ["simulate-csv", "limits-drawn"])
def test_bytes_do_not_depend_on_numpy_cpu_dispatch(tmp_path, case):
    # At alpha = 1.5 numpy's own vector power, on its AVX-512 path, differs
    # from pow in about one value in twenty, so with numpy's power a child
    # with that path turned off wrote other simulate bytes and other drawn
    # tuple values than an AVX-512 process.
    config, argv = CASES[case]
    config = config.replace("alpha = 1.0", "alpha = 1.5")
    assert "alpha = 1.5" in config
    no_avx512 = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
    hashes = {}
    for side, env in (("here", None), ("child", no_avx512)):
        (tmp_path / side).mkdir()
        hashes[side] = run_and_hash(tmp_path / side, config, argv, env)
    assert hashes["child"] == hashes["here"]
