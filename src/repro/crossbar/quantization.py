"""DAC/ADC voltage quantization.

Section 4.1 of the paper: *"All voltage inputs and outputs are stored
with 8-bit precision."*  Every vector that crosses the digital/analog
boundary of the crossbar — input voltages from DACs, output voltages
through ADCs — passes through a :class:`Quantizer`.

The quantizer is a uniform mid-rise quantizer over a symmetric range
``[-full_scale, +full_scale]`` with ``2**bits`` levels; values outside
the range clip, as a real converter would.
"""

from __future__ import annotations

import numpy as np


class Quantizer:
    """Uniform symmetric quantizer with saturation.

    Parameters
    ----------
    bits:
        Resolution in bits (the paper uses 8).
    full_scale:
        Magnitude of the largest representable value (the converter
        reference voltage).  Inputs are clipped to
        ``[-full_scale, +full_scale]``.
    """

    def __init__(self, bits: int = 8, full_scale: float = 1.0) -> None:
        if bits < 1:
            raise ValueError(f"bits must be >= 1, got {bits}")
        if full_scale <= 0:
            raise ValueError(f"full_scale must be positive, got {full_scale}")
        self.bits = int(bits)
        self.full_scale = float(full_scale)
        self.levels = 2**self.bits
        # Step chosen so the code range [-(L/2), L/2 - 1] spans
        # [-full_scale, +full_scale).
        self.step = 2.0 * self.full_scale / self.levels

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantize ``values`` to the converter grid (returns floats)."""
        values = np.asarray(values, dtype=float)
        codes = self.codes(values)
        return codes * self.step

    def codes(self, values: np.ndarray) -> np.ndarray:
        """Integer converter codes for ``values`` (with saturation)."""
        values = np.asarray(values, dtype=float)
        lo = -(self.levels // 2)
        hi = self.levels // 2 - 1
        raw = np.round(values / self.step)
        return np.clip(raw, lo, hi).astype(np.int64)

    @property
    def max_error(self) -> float:
        """Worst-case rounding error for in-range inputs (half a step)."""
        return self.step / 2.0

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.quantize(values)

    def __repr__(self) -> str:
        return f"Quantizer(bits={self.bits}, full_scale={self.full_scale})"


def quantize_auto(
    values: np.ndarray, bits: int | None, mode: str = "entry"
) -> np.ndarray:
    """Quantize a vector to ``bits`` of precision.

    Two readings of the paper's "all voltage inputs and outputs are
    stored with 8-bit precision" (Section 4.1):

    - ``mode="entry"`` (default) — each value keeps ``bits`` of
      *relative* precision (an 8-bit mantissa), as a per-channel
      converter with its own gain would provide.  Error per entry is
      bounded by ``2**-(bits+1)`` relative, independent of the vector's
      dynamic range.  This matches the paper's observation that
      accuracy *improves* with problem size.
    - ``mode="vector"`` — one programmable-gain converter per vector:
      uniform ``bits``-bit grid referenced to the vector's peak
      magnitude.  Hardware-pessimistic; small entries of a
      wide-dynamic-range vector lose all precision.  Used in ablations.

    ``bits=None`` disables quantization (ideal converter).
    """
    values = np.asarray(values, dtype=float)
    if bits is None:
        return values.copy()
    if mode == "entry":
        mantissa, exponent = np.frexp(values)
        scale = float(2**bits)
        return np.ldexp((mantissa * scale).round() / scale, exponent)
    if mode == "vector":
        peak = float(np.abs(values).max()) if values.size else 0.0
        if peak < 1e-300:
            # Zero or subnormal peak: below any representable converter
            # reference voltage, and the step computation would
            # underflow to zero.  Treat as zero drive (matching the
            # analog operators' zero-input handling).
            return np.zeros_like(values)
        return Quantizer(bits=bits, full_scale=peak).quantize(values)
    raise ValueError(f"unknown quantization mode {mode!r}")


def quantize_cells(
    values: np.ndarray,
    bits: int | None,
    mode: str = "entry",
    *,
    reference: float | None = None,
) -> np.ndarray:
    """Quantize a scattered *subset* of a larger vector consistently.

    The differential programming path quantizes only the cells it is
    about to write; for the diff to be bitwise-equivalent to quantizing
    the full grid and slicing, the converter grid must not depend on
    which subset was passed:

    - ``mode="entry"`` is element-wise (each value keeps ``bits`` of
      relative precision), so subset quantization is trivially
      identical to full quantization — ``reference`` is ignored.
    - ``mode="vector"`` references the converter grid to the *full*
      vector's peak, which a subset cannot know.  The caller must pass
      that peak as ``reference``; omitting it is an error rather than a
      silently subset-dependent grid.

    ``bits=None`` disables quantization.
    """
    values = np.asarray(values, dtype=float)
    if bits is None:
        return values.copy()
    if mode == "entry":
        return quantize_auto(values, bits, "entry")
    if mode == "vector":
        if reference is None:
            raise ValueError(
                "vector-mode subset quantization needs the full-vector "
                "peak as reference="
            )
        if reference < 1e-300:
            return np.zeros_like(values)
        return Quantizer(bits=bits, full_scale=reference).quantize(values)
    raise ValueError(f"unknown quantization mode {mode!r}")


class IdealConverter:
    """Pass-through stand-in used to disable quantization in ablations."""

    bits: None = None

    def quantize(self, values: np.ndarray) -> np.ndarray:
        return np.asarray(values, dtype=float).copy()

    def __call__(self, values: np.ndarray) -> np.ndarray:
        return self.quantize(values)

    def __repr__(self) -> str:
        return "IdealConverter()"
