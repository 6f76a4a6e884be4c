"""Nonnegative Pareto-tailed innovation laws.

Two concrete families with survival index ``alpha`` are provided, both with
a closed-form tail quantile ``b``:

* standard Pareto:  P[Z > z] = (z/scale)^-alpha  for z >= scale,
* shifted Pareto:   P[Z > z] = (1 + z/scale)^-alpha  for z >= 0.

``b(t)`` is the tail inverse, i.e. the solution of P[Z > b(t)] = 1/t.  For
the standard family the scaling identity ``t * P[Z > b(t) z] = z^-alpha``
holds exactly whenever ``z >= t^(-1/alpha)``, which makes it the reference
law for calibration tests.

Sampling is inverse-transform on a counter-based Philox generator, so
identical ``(model, count, seed)`` reproduce the stream bit for bit.  The
sub-stream rule is fixed: block ``b`` of a partitioned run draws from
``Philox(SeedSequence(seed, spawn_key=(b,)))``; the undivided stream
``block_generator(seed)`` has no spawn key.  Workers never share a generator;
each seeks its own to the stream offset it needs (Salmon et al., SC'11).
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

__all__ = ["ParetoFamily", "TailModel", "block_generator", "draw"]


class ParetoFamily(str, enum.Enum):
    STANDARD = "standard_pareto"
    SHIFTED = "shifted_pareto"


@dataclass(frozen=True)
class TailModel:
    """Innovation law: family, tail index ``alpha`` and scale."""

    family: ParetoFamily
    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0:
            raise ParameterError(f"alpha must be positive, got {self.alpha}")
        if not self.scale > 0:
            raise ParameterError(f"scale must be positive, got {self.scale}")

    @classmethod
    def standard_pareto(cls, alpha: float, scale: float = 1.0) -> "TailModel":
        return cls(ParetoFamily.STANDARD, alpha, scale)

    @classmethod
    def shifted_pareto(cls, alpha: float, scale: float = 1.0) -> "TailModel":
        return cls(ParetoFamily.SHIFTED, alpha, scale)

    def survival(self, z):
        """P[Z > z], vectorized over ``z``."""
        z = np.asarray(z, dtype=float)
        if self.family is ParetoFamily.STANDARD:
            out = np.where(z >= self.scale, _power(z / self.scale, -self.alpha), 1.0)
        else:
            out = np.where(z >= 0.0, _power(1.0 + z / self.scale, -self.alpha), 1.0)
        return out if out.shape else float(out)

    def inverse_survival(self, u, out=None):
        """Solve P[Z > z] = u for z, vectorized; u in [0, 1]; u = 0 gives z = inf.

        With ``out`` (an array of u's shape, possibly ``u`` itself) the
        result is written there by in-place power, shift and scale, which
        give the same bits as the out-of-place expression.
        """
        u = np.asarray(u, dtype=float)
        if out is None:
            out = u.copy()
        elif out is not u:
            np.copyto(out, u)
        _power(out, -1.0 / self.alpha, out=out)
        if self.family is ParetoFamily.SHIFTED:
            out -= 1.0
        if self.scale != 1.0:  # x * 1.0 is x, bit for bit: skip the pass
            out *= self.scale
        return out if out.shape else float(out)

    def quantile_b(self, t: float) -> float:
        """Tail quantile b(t) solving P[Z > b(t)] = 1/t, for t >= 1."""
        if t < 1.0:
            raise ParameterError(f"b(t) requires t >= 1, got {t}")
        if self.family is ParetoFamily.STANDARD:
            return self.scale * t ** (1.0 / self.alpha)
        return self.scale * (t ** (1.0 / self.alpha) - 1.0)


def _power(x, p: float, out=None) -> np.ndarray:
    """``x ** p`` elementwise, by the C library's ``pow`` as Python's ``**``
    takes it on a float, so the bits do not depend on numpy's CPU dispatch:
    numpy's own vector power differs from ``pow`` in about one value in
    twenty where it dispatches to AVX-512.  ``p = -1`` keeps numpy's power,
    which has the same bits with or without that dispatch."""
    if p == -1.0:
        return np.power(x, p, out=out)
    return np.float_power(x, p, out=out)


def block_generator(seed: int, block: int | None = None, offset: int = 0) -> np.random.Generator:
    """Philox generator for one sub-stream of a seeded run, at double ``offset``.

    ``block=None`` is the undivided stream; block ``b`` spawns the child
    ``SeedSequence(seed, spawn_key=(b,))``.  This rule is part of the
    reproducibility contract and must not change.  The one seek rule: four
    doubles per counter step, so start the counter at ``offset // 4`` and
    discard ``offset % 4`` doubles.  The key Philox takes from the child is
    derived once per ``(seed, block)`` (:func:`_philox_key`).
    """
    bits = np.random.Philox(_philox_key(seed, block), counter=offset // 4)
    bits.random_raw(offset % 4)
    return np.random.Generator(bits)


class _KeyWords:
    """A seed sequence that hands Philox words already derived.  Philox
    given ``key=`` instead still builds a ``SeedSequence()`` from OS
    entropy, which it then discards.  :func:`_philox_key` registers it as
    an ``ISeedSequence`` when it first runs, so importing this module
    leaves ``numpy.random`` unloaded."""

    def __init__(self, words: np.ndarray):
        words.setflags(write=False)  # one cached array serves every generator of its block
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words  # Philox asks for its two 64-bit key words


@functools.lru_cache(maxsize=256)
def _philox_key(seed: int, block: int | None) -> _KeyWords:
    """The 128-bit key of ``Philox(SeedSequence(seed, spawn_key=(block,)))``,
    no spawn key for ``block=None``: its first two 64-bit state words."""
    np.random.bit_generator.ISeedSequence.register(_KeyWords)
    sequence = np.random.SeedSequence(seed, spawn_key=() if block is None else (block,))
    return _KeyWords(sequence.generate_state(2, np.uint64))


def draw(model: TailModel, rng: np.random.Generator, shape, out=None) -> np.ndarray:
    """Innovations of the given shape from ``rng``, filled in C order.

    This is the one draw rule of the package: uniforms on (0, 1] (as
    ``1 - random()``, keeping the inverse transform finite), then the
    inverse survival function, all in one array.  ``out``, a C-contiguous
    float array of that shape, is filled and returned instead of a new one;
    consecutive draws into it continue the stream exactly as one larger
    draw would.
    """
    u = rng.random(shape, out=out)
    np.subtract(1.0, u, out=u)
    return model.inverse_survival(u, out=u)
