"""SampleConfig, the sampler's settings.  It is checked when built and
needs no numpy, so a caller builds one before it knows whether a sample
will be drawn; positivity re-exports it."""

from __future__ import annotations

import math
import operator

from ._record import record

# The largest matrix size a SampleConfig accepts.  200 samples of a degree-4
# Laplacian take 0.07 s and 48 MB at n = 32, 0.24 s and 62 MB at n = 64, and
# 1.1 s and 146 MB at n = 128 (2 cores, CPython 3.11, numpy 2.4; peak RSS of
# the whole process).
MAX_SAMPLE_SIZE = 64


@record
class SampleConfig:
    seed: int = 0
    sizes: tuple = (1, 2, 3, 4)
    samples_per_size: int = 200
    h_samples: int = 50
    tol: float = 1e-9
    entry_range: float = 1.0

    def __post_init__(self):
        # Integer fields are stored as the int operator.index gives, so a
        # numpy integer works and 1.7 or "3" never reaches a draw.
        for name in ("seed", "samples_per_size", "h_samples"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        try:
            sizes = tuple(self.sizes)
        except TypeError:
            raise ValueError(
                f"sizes must be a sequence of integers, got {self.sizes!r}"
            ) from None
        sizes = tuple(_integer(f"sizes[{i}]", n) for i, n in enumerate(sizes))
        object.__setattr__(self, "sizes", sizes)
        if not self.sizes or any(n < 1 for n in self.sizes):
            raise ValueError("sizes must be nonempty with every entry >= 1")
        if max(self.sizes) > MAX_SAMPLE_SIZE:
            raise ValueError(
                f"sizes must be at most MAX_SAMPLE_SIZE = {MAX_SAMPLE_SIZE}, "
                f"got {max(self.sizes)}"
            )
        if self.samples_per_size < 1:
            raise ValueError("samples_per_size must be at least 1")
        if self.h_samples < 1:
            raise ValueError("h_samples must be at least 1")
        for name in ("tol", "entry_range"):
            value = getattr(self, name)
            try:
                ok = not isinstance(value, bool) and math.isfinite(value) and value > 0
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")


def _integer(name: str, value) -> int:
    """value as an int, if operator.index takes it and it is not a bool."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an integer, got {value!r}")
