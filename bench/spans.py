"""Span tracing of matails from outside the package.

:class:`Tracer` replaces the public functions of each layer with timing
wrappers, at every module that imported them by name, and restores the
originals on exit.  Spans stay in memory; :func:`layer_metrics` reduces one
traced pass to the per-layer metrics.

A span opened on a thread other than the one that installed the tracer,
with no open span of its own, is a ``ThreadPoolExecutor`` worker of
``simulate``: its parent is the installing thread's innermost open span,
which is the submitting ``simulate``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Public functions timed per defining module.  Each is wrapped wherever a
# matails module holds a reference to it.
WRAPPED = {
    "innovations": ("block_generator",),
    "ma_process": ("simulate", "choose_truncation"),
    "limit_measures": ("spike_cover_number", "nu_m0_rect", "nu_m_j_rect", "nu_inf_0_rect", "mu_j_rect"),
    "estimation": ("empirical_tail_measure", "hill", "theoretical_tail_measure", "hrv_scan",
                   "convergence_table"),
    "cli": ("load_experiment", "cmd_simulate", "cmd_limits", "cmd_verify", "cmd_hill"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root


class _TimedGenerator:
    """Generator proxy that times ``random()``, the Philox draw."""

    def __init__(self, rng, tracer: "Tracer"):
        self._rng = rng
        self._tracer = tracer

    def random(self, *args, **kwargs):
        with self._tracer.span("innovations.draw"):
            out = self._rng.random(*args, **kwargs)
        self._tracer.counts["innovations.draw_values"] += out.size
        return out

    def __getattr__(self, name):
        return getattr(self._rng, name)


def _lag_work(coeffs, depth: int, replicates: int, width: int) -> tuple[int, int]:
    """(lag terms, computed bytes) of one simulate call, from array shapes.

    Bytes count each float64 read and write of the top-level array operations:
    per innovation (length = width + depth) the uniform draw, ``1 - u``, the
    power and the scale of the inverse transform and the transposed copy
    (9 touches); per output cell the accumulator zeroing and the final copy
    (3), plus 5 per nonzero lag (scaled slice written, then read with the
    accumulator, which is written back).
    """
    nonzero = sum(1 for j in range(depth + 1) if coeffs.psi(j) != 0.0)
    length = width + depth
    terms = nonzero * replicates * width
    nbytes = 8 * replicates * (9 * length + (3 + 5 * nonzero) * width)
    return terms, nbytes


def _candidate_count(coeffs, m: int, rect) -> int:
    """Spike positions reaching at least one constrained coordinate."""
    return sum(
        1
        for i in range(rect.min_index - m, rect.max_index + 1)
        if any(0 <= k - i <= m and coeffs.psi(k - i) > 0.0 for k in rect.indices)
    )


class Tracer:
    """Installs span wrappers on the matails layers for the life of a ``with`` block."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif stack is not self._owner_stack and self._owner_stack:
            parent = self._owner_stack[-1]
        else:
            parent = -1
        with self._lock:
            self.spans.append(Span(name, time.perf_counter(), math.nan, parent))
            idx = len(self.spans) - 1
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, after=None):
        """Timing wrapper around ``fn``; ``after(args, result)`` may replace the result."""
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is None:
                return result
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            replaced = after(bound.arguments, result)
            return result if replaced is None else replaced

        return wrapper

    # -- installation ----------------------------------------------------------

    def _after_hooks(self):
        counts = self.counts

        def block_generator(args, rng):
            return _TimedGenerator(rng, self)

        def simulate(args, batch):
            k_lo, k_hi = args["window"]
            terms, nbytes = _lag_work(args["coeffs"], batch.truncation_order,
                                      args["replicates"], k_hi - k_lo + 1)
            counts["ma_process.simulate.replicates"] += args["replicates"]
            counts["ma_process.simulate.depth"] = max(counts["ma_process.simulate.depth"],
                                                      batch.truncation_order)
            counts["ma_process.lag_terms"] += terms
            counts["ma_process.simulate.bytes_computed"] += nbytes

        def empirical_tail_measure(args, est):
            counts["estimation.cells_scanned"] += est.n * len(args["rect"].constraints)

        def nu_m_j_rect(args, value):
            if not value.is_infinite:
                counts["limit_measures.tuples_enumerated"] += math.comb(
                    _candidate_count(args["coeffs"], args["m"], args["rect"]), args["j"] + 1)

        def inverse_survival(args, z):
            counts["innovations.inverse_survival_values"] += getattr(z, "size", 1)

        return {
            "block_generator": block_generator,
            "simulate": simulate,
            "empirical_tail_measure": empirical_tail_measure,
            "nu_m_j_rect": nu_m_j_rect,
            "inverse_survival": inverse_survival,
        }

    def __enter__(self):
        from matails.innovations import TailModel

        self._owner_stack = self._stack()
        hooks = self._after_hooks()
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "matails" or name.startswith("matails."))]
        for mod_name, names in WRAPPED.items():
            home = sys.modules[f"matails.{mod_name}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self.wrap(f"{mod_name}.{name}", original, hooks.get(name))
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)
        original = TailModel.inverse_survival
        self._restore.append((TailModel, "inverse_survival", original))
        TailModel.inverse_survival = self.wrap(
            "innovations.inverse_survival", original, hooks["inverse_survival"])
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ------------------------------------------------------------------ reduction

def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def span_totals(spans: list[Span]) -> tuple[dict, dict, Counter]:
    """Per span name: total seconds, self seconds, calls.

    Self time is a span's duration minus the union of the intervals its
    children cover (clipped to the span), so overlapping worker-thread
    children are not subtracted twice.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    total, own, calls = defaultdict(float), defaultdict(float), Counter()
    for idx, span in enumerate(spans):
        covered = _union_length([
            (max(c.start, span.start), min(c.end, span.end)) for c in children[idx]
            if c.end > span.start and c.start < span.end
        ])
        total[span.name] += span.end - span.start
        own[span.name] += span.end - span.start - covered
        calls[span.name] += 1
    return total, own, calls


def _under(spans: list[Span], idx: int, ancestor: str) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == ancestor:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(tracer: Tracer, wall: float, written: dict[str, int], read: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass.

    ``wall`` is the pass's in-process wall time, ``written`` maps each CLI
    command to the bytes of the files it wrote, ``read`` is the bytes of
    sample files the CLI read back.
    """
    spans, counts = tracer.spans, tracer.counts
    total, own, calls = span_totals(spans)
    integrated = sum(
        1 for i, s in enumerate(spans)
        if s.name == "innovations.block_generator" and _under(spans, i, "limit_measures.nu_m_j_rect")
    )
    enumerated = counts["limit_measures.tuples_enumerated"]
    roots = _union_length([(s.start, s.end) for s in spans if s.parent < 0])

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    return {
        "ma_process.simulate.self_s": own["ma_process.simulate"],
        "ma_process.simulate.calls": calls["ma_process.simulate"],
        "ma_process.simulate.replicates": counts["ma_process.simulate.replicates"],
        "ma_process.simulate.depth": counts["ma_process.simulate.depth"],
        "ma_process.simulate.bytes_computed": counts["ma_process.simulate.bytes_computed"],
        "ma_process.lag_terms_per_s": rate(counts["ma_process.lag_terms"], own["ma_process.simulate"]),
        "innovations.draw_s": total["innovations.draw"],
        "innovations.draw_values": counts["innovations.draw_values"],
        "innovations.inverse_survival_s": total["innovations.inverse_survival"],
        "innovations.inverse_survival_values": counts["innovations.inverse_survival_values"],
        "innovations.block_generator.calls": calls["innovations.block_generator"],
        "innovations.block_generator_s": total["innovations.block_generator"],
        "estimation.empirical_tail_measure_s": total["estimation.empirical_tail_measure"],
        "estimation.empirical_tail_measure.calls": calls["estimation.empirical_tail_measure"],
        "estimation.cells_scanned": counts["estimation.cells_scanned"],
        "estimation.hrv_scan.self_s": own["estimation.hrv_scan"],
        "estimation.hill_s": total["estimation.hill"],
        "cli.cmd_simulate.self_s": own["cli.cmd_simulate"],
        "cli.bytes_written": sum(written.values()),
        "cli.write_mb_per_s": rate(written.get("simulate", 0) / 1e6, own["cli.cmd_simulate"]),
        "cli.cmd_hill.self_s": own["cli.cmd_hill"],
        "cli.bytes_read": read,
        "cli.read_mb_per_s": rate(read / 1e6, own["cli.cmd_hill"]),
        "cli.load_experiment_s": total["cli.load_experiment"],
        "cli.cmd_verify.self_s": own["cli.cmd_verify"],
        "cli.cmd_limits.self_s": own["cli.cmd_limits"],
        "limit_measures.spike_cover_number_s": total["limit_measures.spike_cover_number"],
        "limit_measures.spike_cover_number.calls": calls["limit_measures.spike_cover_number"],
        "limit_measures.nu_m_j_rect.self_s": own["limit_measures.nu_m_j_rect"],
        "limit_measures.nu_m_j_rect.calls": calls["limit_measures.nu_m_j_rect"],
        "limit_measures.tuples_enumerated": enumerated,
        "limit_measures.tuples_integrated": integrated,
        "limit_measures.tuple_yield": rate(integrated, enumerated),
        "limit_measures.nu_m0_rect_s": total["limit_measures.nu_m0_rect"],
        "ma_process.choose_truncation_s": total["ma_process.choose_truncation"],
        "ma_process.choose_truncation.calls": calls["ma_process.choose_truncation"],
        "trace.root_coverage": rate(roots, wall),
    }


def self_shares(tracer: Tracer, wall: float) -> list[tuple[str, float]]:
    """Each span name's self time as a share of the pass wall, largest first."""
    _, own, _ = span_totals(tracer.spans)
    return sorted(((name, s / wall) for name, s in own.items()), key=lambda x: -x[1])
