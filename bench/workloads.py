"""The benchmark's workloads: generated inputs, CLI command sequences and output checks.

Every input file is generated from the workload seed, so the program only
ever sees generated configs.  The checks compare outputs against values this
module derives in closed form or takes from ``tests/oracles.py``; none of
them calls the evaluator being timed.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# The shipped MA(infinity) experiment: Geometric(0.5), alpha = 1, trunc_eps = 1e-8.
DEMO_CONFIG = Path("demos") / "experiment.ini"
ORACLES = Path("tests") / "oracles.py"

# simulate-roundtrip runs the shipped config at half its n: the full
# 10^6 replicates (2 M CSV rows) take about 15 s per sequence, which leaves
# too few samples per run inside the benchmark's time budget.
ROUNDTRIP_N = 500_000
HILL_K = 1000

HIDDEN_PSI = (1.0, 0.5)
HIDDEN_N = 8 * 2**20  # eight Philox blocks, so --threads 2 has work to split

THEORY_B_PSI = (1.0, 0.8, 0.6, 0.4, 0.2)

INF_TEXT = "+inf (not bounded away)"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: its arguments and the files it writes and reads."""

    argv: tuple[str, ...]
    writes: tuple[str, ...] = ()
    reads: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: Callable[[Path, int], dict[str, str]]
    commands: tuple[Command, ...]
    check: Callable[[Path, Path], list[str]]
    mc_variance: Callable[[Path], float]
    # Once per run: a command whose outputs must equal those of the sequence,
    # given as (command, [(sequence output, command output), ...]).
    repro: tuple[Command, tuple[tuple[str, str], ...]] | None = None

    @property
    def outputs(self) -> tuple[str, ...]:
        return tuple(f for cmd in self.commands for f in cmd.writes)


def _with_sidecar(path: str) -> tuple[str, str]:
    return (path, f"{path}.meta.json")


def _set_key(text: str, key: str, value: str) -> str:
    out, count = re.subn(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
    if count != 1:
        raise ValueError(f"expected exactly one '{key} =' line in the demo config")
    return out


def _demo_config(root: Path, seed: int, n: int | None = None) -> str:
    text = _set_key((root / DEMO_CONFIG).read_text(encoding="utf-8"), "seed", str(seed))
    return text if n is None else _set_key(text, "n", str(n))


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _opt_float(text: str) -> float:
    return float(text) if text else 0.0


def _load_oracles(root: Path):
    spec = importlib.util.spec_from_file_location("bench_oracles", root / ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _rect(text: str) -> dict[int, float]:
    """Rectangle text as the CLI writes it ("0:1.0,1:1.0") -> {index: threshold}."""
    return {int(k): float(a) for k, a in (tok.split(":") for tok in text.split(","))}


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _verify_variance(workdir: Path) -> float:
    """Sum of squared empirical and theoretical standard errors in verify.csv."""
    return sum(
        _opt_float(r["empirical_stderr"]) ** 2 + _opt_float(r["theoretical_stderr"]) ** 2
        for r in _read_csv(workdir / "verify.csv")
    )


# ---------------------------------------------------------------- verify-geo-inf

def _geometric_depth(rho: float, eps: float) -> int:
    """Smallest N whose geometric tail sum_{j>N} rho^j = rho^(N+1)/(1-rho) is below eps."""
    n = 0
    while rho ** (n + 1) / (1.0 - rho) >= eps:
        n += 1
    return n


def _geometric_nu0(rho: float, alpha: float, rect: dict[int, float]) -> float:
    """Order-0 MA(infinity) measure of an upper rectangle for psi_j = rho^j.

    A spike at i <= min K reaches every k with weight rho^(k-i) and must
    exceed c * rho^(-i), c = max_k a_k rho^(-k); summing (c rho^(-i))^-alpha
    over i <= min K is a geometric series.
    """
    k_min = min(rect)
    c = max(a * rho ** -k for k, a in rect.items())
    return c**-alpha * rho ** (-k_min * alpha) / (1.0 - rho**alpha)


def _check_geo_inf(workdir: Path, root: Path) -> list[str]:
    rho, alpha, eps = 0.5, 1.0, 1e-8
    depth = _geometric_depth(rho, eps)
    problems = []
    rows = _read_csv(workdir / "verify.csv")
    if len(rows) != 6:
        problems.append(f"verify.csv has {len(rows)} rows, expected 6")
    for r in rows:
        if r["error"]:
            problems.append(f"row {r['rect']} at t={r['t']}: error {r['error']!r}")
            continue
        rect = _rect(r["rect"])
        truth = _geometric_nu0(rho, alpha, rect)
        bound = min(rect.values()) ** -alpha * rho ** ((depth + 1) * alpha) / (1 - rho**alpha)
        value = float(r["theoretical"])
        if not value - 1e-12 <= truth <= value + bound + 1e-12:
            problems.append(f"theoretical {value!r} for {r['rect']} misses {truth!r} (bound {bound:g})")
        # Only t = 1000 is checked: at t = 100 the order-0 rows carry a known
        # finite-t bias of z = 9-10.
        if float(r["t"]) == 1000.0 and abs(float(r["z_score"])) > 4.0:
            problems.append(f"|z| = {abs(float(r['z_score'])):.2f} > 4 for {r['rect']} at t=1000")
    return problems


# ------------------------------------------------------------ simulate-roundtrip

def _check_roundtrip(workdir: Path, root: Path) -> list[str]:
    rho, alpha, eps, width = 0.5, 1.0, 1e-8, 2
    problems = []
    with open(workdir / "samples.csv", "rb") as fh:
        data_rows = sum(buf.count(b"\n") for buf in iter(lambda: fh.read(1 << 20), b"")) - 1
    if data_rows != ROUNDTRIP_N * width:
        problems.append(f"samples.csv has {data_rows} data rows, expected {ROUNDTRIP_N * width}")
    meta = json.loads((workdir / "samples.csv.meta.json").read_text(encoding="utf-8"))
    if meta.get("truncation_order") != _geometric_depth(rho, eps):
        problems.append(f"sidecar truncation_order {meta.get('truncation_order')!r}, "
                        f"expected {_geometric_depth(rho, eps)}")
    report = json.loads((workdir / "hill.json").read_text(encoding="utf-8"))
    band = 4.0 * alpha / math.sqrt(HILL_K)  # four Hill standard errors
    if report.get("n") != ROUNDTRIP_N or abs(report["alpha_hat"] - alpha) > band:
        problems.append(f"hill report {report!r} outside alpha = {alpha} +- {band:.3f}")
    return problems


def _roundtrip_variance(workdir: Path) -> float:
    # The CLI reports no standard error for Hill; its asymptotic variance at
    # this estimand is alpha^2 / k, fixed by the workload.
    return 1.0**2 / HILL_K


# ----------------------------------------------------------------- verify-hidden

HIDDEN_CONFIG = """\
[coefficients]
family = explicit
values = {values}
m = 1

[tail]
family = standard_pareto
alpha = 1.0
scale = 1.0

[rows]
row0 = 0; 0:1
row1 = 1; 0:1, 2:1
row2 = 1; 0:1, 1:5, 2:1

[run]
n = {n}
t_grid = 1000, 10000
seed = {seed}
"""


def _check_hidden(workdir: Path, root: Path) -> list[str]:
    oracles = _load_oracles(root)
    from matails import ExplicitFinite, UpperRect

    s = sum(HIDDEN_PSI)  # sum psi^alpha at alpha = 1
    binding = "0:1.0,1:5.0,2:1.0"
    quad = oracles.order1_quadrature(ExplicitFinite(HIDDEN_PSI), 1, 1.0, UpperRect(_rect(binding)))
    # row 1's constraints are further apart than m, so its integral factors.
    expected = {"0:1.0": s, "0:1.0,2:1.0": s * s}
    problems = []
    rows = _read_csv(workdir / "verify.csv")
    if len(rows) != 6:
        problems.append(f"verify.csv has {len(rows)} rows, expected 6")
    t_max = max(float(r["t"]) for r in rows)
    for r in rows:
        if r["error"]:
            problems.append(f"row {r['rect']} at t={r['t']}: error {r['error']!r}")
            continue
        value = float(r["theoretical"])
        if r["rect"] == binding:
            if not _close(value, quad, 0.01):
                problems.append(f"binding row {value!r} vs quadrature {quad!r}")
        elif not _close(value, expected[r["rect"]], 1e-12):
            problems.append(f"row {r['rect']} gives {value!r}, expected {expected[r['rect']]!r}")
        if r["j"] == "0" and float(r["t"]) == t_max and abs(float(r["z_score"])) > 4.0:
            problems.append(f"|z| = {abs(float(r['z_score'])):.2f} > 4 for order 0 at t={t_max:g}")
    return problems


# ----------------------------------------------------------------- limits-theory

THEORY_A = """\
[coefficients]
family = explicit
values = 1, 0, 1
m = 2

[tail]
family = standard_pareto
alpha = 1.0

[rows]
row0 = 9; {rect}
row1 = 10; {rect}

[run]
seed = {seed}
"""

THEORY_B = """\
[coefficients]
family = explicit
values = {values}
m = 4

[tail]
family = standard_pareto
alpha = 1.0

[rows]
row0 = 1; 0:1, 2:6, 5:1
row1 = 1; 0:1, 3:4, 6:1
row2 = 2; 0:1, 2:5, 5:1, 7:5, 10:1
row3 = 2; 0:1, 5:1, 10:1
row4 = 5; 0:1, 5:1, 10:1, 15:1, 20:1, 25:1

[run]
seed = {seed}
integration_budget = 200000
"""

# trunc_eps = 1e-5 gives depth 10^5.  The default tolerance (1e-8 * zeta(2))
# is not timed: choose_truncation alone scans to depth 6e7 (ROADMAP item 3).
THEORY_C = """\
[coefficients]
family = polynomial
beta = 2
m = infinite
trunc_eps = 1e-5

[tail]
family = standard_pareto
alpha = 1.0

[rows]
row0 = 0; 0:1
row1 = 0; 0:1, 1:1
row2 = 0; 0:2, 3:1

[run]
seed = {seed}
"""


def _theory_configs(root: Path, seed: int) -> dict[str, str]:
    return {
        "theory-a.ini": THEORY_A.format(rect=", ".join(f"{k}:1" for k in range(18)), seed=seed),
        "theory-b.ini": THEORY_B.format(values=", ".join(map(str, THEORY_B_PSI)), seed=seed),
        "theory-c.ini": THEORY_C.format(seed=seed),
    }


def _polynomial2_truth() -> dict[str, float]:
    """Order-0 values for psi_l = (l+1)^-2, alpha = 1, from zeta(2) = pi^2/6.

    A spike l lags before index 0 must exceed max_k a_k / psi_{l+k}, so each
    value is sum_l min_k psi_{l+k} / a_k.  For 0:2,3:1 the minimum is
    psi_{l+3} while (l+4)^2 < 2 (l+1)^2, i.e. for l <= 6, and psi_l / 2 after.
    """
    z2 = math.pi**2 / 6
    return {
        "0:1.0": z2,
        "0:1.0,1:1.0": z2 - 1.0,
        "0:2.0,3:1.0": sum(q**-2 for q in range(4, 11))
        + 0.5 * (z2 - sum(q**-2 for q in range(1, 8))),
    }


def _check_theory(workdir: Path, root: Path) -> list[str]:
    oracles = _load_oracles(root)
    from matails import ExplicitFinite, UpperRect

    problems = []
    a = {r["j"]: r["value"] for r in _read_csv(workdir / "theory-a.csv")}
    if a.get("10") != INF_TEXT:
        problems.append(f"(a) j=10 gives {a.get('10')!r}, expected {INF_TEXT!r}")
    if not math.isfinite(float(a.get("9") or "nan")):
        problems.append(f"(a) j=9 gives {a.get('9')!r}, expected a finite value")

    s = sum(THEORY_B_PSI)
    b_rows = _read_csv(workdir / "theory-b.csv")
    if len(b_rows) != 5:
        problems.append(f"(b) has {len(b_rows)} rows, expected 5")
    for r in b_rows:
        value = float(r["value"])
        if r["j"] == "1":
            quad = oracles.order1_quadrature(
                ExplicitFinite(THEORY_B_PSI), 4, 1.0, UpperRect(_rect(r["rect"]))
            )
            if not _close(value, quad, 0.01):
                problems.append(f"(b) {r['rect']} gives {value!r}, quadrature {quad!r}")
        elif r["rect"] in ("0:1.0,5:1.0,10:1.0", ",".join(f"{k}:1.0" for k in range(0, 26, 5))):
            # constraints further apart than m: the integral factors into (sum psi)^(j+1)
            expected = s ** (int(r["j"]) + 1)
            if not _close(value, expected, 1e-9):
                problems.append(f"(b) {r['rect']} gives {value!r}, expected {expected!r}")

    truth = _polynomial2_truth()
    c_rows = _read_csv(workdir / "theory-c.csv")
    if len(c_rows) != 3:
        problems.append(f"(c) has {len(c_rows)} rows, expected 3")
    for r in c_rows:
        value, bound = float(r["value"]), float(r["truncation_error_bound"])
        if not value - 1e-12 <= truth[r["rect"]] <= value + bound + 1e-12:
            problems.append(f"(c) {r['rect']} gives {value!r} + {bound!r}, truth {truth[r['rect']]!r}")
    return problems


def _theory_variance(workdir: Path) -> float:
    return sum(
        _opt_float(r["stderr"]) ** 2
        for name in ("theory-a.csv", "theory-b.csv", "theory-c.csv")
        for r in _read_csv(workdir / name)
    )


# ------------------------------------------------------------------------ table

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="verify-geo-inf",
            why="the paper's MA(inf) experiment as shipped; simulate dominates, one block, theory under 0.1%",
            configs=lambda root, seed: {"geo.ini": _demo_config(root, seed)},
            commands=(
                Command(("verify", "--config", "geo.ini", "--threads", "1", "--out", "verify.csv"),
                        writes=_with_sidecar("verify.csv")),
            ),
            check=_check_geo_inf,
            mc_variance=_verify_variance,
        ),
        Workload(
            name="simulate-roundtrip",
            why="the same simulation written to CSV and read back by hill; writer and reader dominate",
            configs=lambda root, seed: {"roundtrip.ini": _demo_config(root, seed, ROUNDTRIP_N)},
            commands=(
                Command(("simulate", "--config", "roundtrip.ini", "--out", "samples.csv"),
                        writes=_with_sidecar("samples.csv")),
                Command(("hill", "--sample", "samples.csv", "--k", str(HILL_K), "--index", "0",
                         "--out", "hill.json"),
                        writes=("hill.json",), reads=_with_sidecar("samples.csv")),
            ),
            check=_check_roundtrip,
            mc_variance=_roundtrip_variance,
        ),
        Workload(
            name="verify-hidden",
            why="hidden two-spike order on a finite MA(1) over 8 blocks; draws, exceedance counts and the thread pool",
            configs=lambda root, seed: {"hidden.ini": HIDDEN_CONFIG.format(
                values=", ".join(map(str, HIDDEN_PSI)), n=HIDDEN_N, seed=seed)},
            commands=(
                Command(("verify", "--config", "hidden.ini", "--threads", "2", "--out", "verify.csv"),
                        writes=_with_sidecar("verify.csv")),
            ),
            check=_check_hidden,
            mc_variance=_verify_variance,
            repro=(
                Command(("verify", "--config", "hidden.ini", "--threads", "1", "--out", "verify-t1.csv"),
                        writes=_with_sidecar("verify-t1.csv")),
                tuple(zip(_with_sidecar("verify.csv"), _with_sidecar("verify-t1.csv"))),
            ),
        ),
        Workload(
            name="limits-theory",
            why="three limits runs and no simulation; spike cover, tuple integration and truncated enumeration",
            configs=_theory_configs,
            commands=tuple(
                Command(("limits", "--config", f"theory-{p}.ini", "--out", f"theory-{p}.csv"),
                        writes=_with_sidecar(f"theory-{p}.csv"))
                for p in "abc"
            ),
            check=_check_theory,
            mc_variance=_theory_variance,
        ),
    )
}
