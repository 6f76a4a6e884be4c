"""Golden output hashes: the reproducibility contract, pinned byte for byte.

Each case runs one CLI command on a small seeded config and compares the
sha256 of every file it writes with a value recorded from an earlier
version of the package.  Any change to the block sub-stream rule, the
newest-first draw order, the lag arithmetic or the float formatting shows
up here as a changed hash.
"""

import hashlib
import textwrap

import pytest

import matails.ma_process as ma
from matails.cli import main

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
        "out": "733239bb58f3274f9e55630c0576e116c32e7a5ab7d3576acc5ba83207c29a7d",
        "out.meta.json": "a303638f141f14bfaddc64bea919a094249ca7ff806996558632866761381f75",
    },
    "simulate-json": {
        "out": "bdcfb4556a6fb94dea857b7132705541b625d13cc5a558f4d09ca7159a2f1012",
    },
    "limits-finite": {
        "out": "9b3448fc2a7eae3a03683518d13d669d73e39fbc87a621bb89ec7b6851d005db",
        "out.meta.json": "370863d17a9f0f860e650c2ba62764547101d3995ac49f80d69cb0def5ff39c0",
    },
    "limits-geometric": {
        "out": "11eedfd6f3aec88b737c1ec7afa7bfb97ef21f72370730fc76b9f72162b739fa",
        "out.meta.json": "42e099036c79eb7a2606a7bdf999fd22f7fb3b653759a3c478b15ba021740d8c",
    },
    "verify": {
        "out": "cebf50deae9eae02a21099aad8dfb63bc28b6fcbce85f4ac0cae6a400d03f856",
        "out.meta.json": "414891d3d9523b452fdeb580f02ec13724e049f11bb19d2e67a988bb290544c1",
    },
}


def run_and_hash(tmp_path, config, argv):
    cfg = tmp_path / "exp.ini"
    cfg.write_text(config)
    out = tmp_path / "out"
    assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name.startswith("out")
    }


CASES = {
    "simulate-csv": (SIMULATE_CONFIG, ["simulate"]),
    "simulate-json": (SIMULATE_CONFIG, ["simulate", "--format", "json"]),
    "limits-finite": (LIMITS_FINITE_CONFIG, ["limits"]),
    "limits-geometric": (LIMITS_GEOMETRIC_CONFIG, ["limits"]),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_hash(tmp_path, case):
    config, argv = CASES[case]
    assert run_and_hash(tmp_path, config, argv) == GOLDEN[case]


@pytest.mark.parametrize("threads", [1, 2])
def test_verify_hash_over_many_blocks(tmp_path, monkeypatch, threads):
    # 300 replicates in blocks of 64 rows: five sub-streams, the last one short.
    monkeypatch.setattr(ma, "BLOCK_ROWS", 64)
    got = run_and_hash(tmp_path, VERIFY_CONFIG, ["verify", "--threads", str(threads)])
    assert got == GOLDEN["verify"]
