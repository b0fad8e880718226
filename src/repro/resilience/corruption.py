"""Bit-accurate word corruption for undetected shift faults.

An undetected over/under-shift leaves a racetrack's domain train off by
``drift`` positions, so every word subsequently read from it comes back
with its bits displaced.  :func:`corrupt_words` models that as a
rotation of each word's low bit window:

* the rotation is a bijection, so repeated faults keep corrupting
  rather than saturating, and the corruption is deterministic — the
  same drift applied to the same words always produces the same bits;
* only the low 31 bits rotate and the sign bit never sets, so corrupted
  words remain valid non-negative operands whose products stay inside
  int64 — downstream VPCs *propagate* the corruption instead of
  tripping the processor's operand validation, which is the
  silent-data-corruption behaviour the campaign measures.
"""

from __future__ import annotations

import numpy as np

_WINDOW_BITS = 31
_WINDOW_MASK = np.uint64((1 << _WINDOW_BITS) - 1)


def corrupt_words(values: np.ndarray, drift: int) -> np.ndarray:
    """Rotate each word's low 31 bits by ``drift`` positions.

    Positive drift (over-shift) rotates left, negative (under-shift)
    rotates right; ``drift`` of zero returns the input unchanged.  Bits
    above the window are preserved, so the result is always
    non-negative for non-negative input.
    """
    if drift == 0:
        return np.asarray(values, dtype=np.int64)
    steps = abs(drift) % _WINDOW_BITS
    if steps == 0:
        steps = 1  # a full-period drift still misplaces the word
    if drift < 0:
        steps = _WINDOW_BITS - steps
    raw = np.asarray(values, dtype=np.int64).astype(np.uint64)
    low = raw & _WINDOW_MASK
    left = np.uint64(steps)
    right = np.uint64(_WINDOW_BITS - steps)
    rotated = ((low << left) | (low >> right)) & _WINDOW_MASK
    return ((raw & ~_WINDOW_MASK) | rotated).astype(np.int64)
