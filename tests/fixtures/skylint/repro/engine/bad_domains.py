"""SKY602 fixture: uint64 shift widths and exponential table sizes.

The flagged forms shift by an unproven count (numpy wraps counts >= 64)
or allocate ``2**d`` (or ``3**d``) tables with no bound on ``d``; the
quiet forms use the repo's masking and guard idioms.
"""

import numpy as np

WORD_BITS = 64
MAX_DIM = 14


def raw_shift(bit):
    return np.uint64(1) << np.uint64(bit)  # line 15: SKY602 (unbounded)


def enclosed_shift(bit):
    return np.uint64(1 << bit)  # line 19: SKY602 (inside the cast)


def unguarded_presence(d):
    return np.zeros(1 << (2 * d), dtype=np.bool_)  # line 23: SKY602


def unguarded_power(d):
    return np.empty(4 ** d, dtype=np.uint8)  # line 27: SKY602


def unguarded_ternary(d):
    return np.empty(3 ** d, dtype=np.uint8)  # line 31: SKY602


def masked_shift(bit):
    return np.uint64(1) << np.uint64(bit & 63)  # quiet: masked


def divmod_shift(offset):
    word, bit = divmod(offset, WORD_BITS)
    return word, np.uint64(1) << np.uint64(bit)  # quiet: bit in [0, 63]


def guarded_presence(d):
    if not 1 <= d <= MAX_DIM:
        raise ValueError(d)
    return np.zeros(1 << (2 * d), dtype=np.bool_)  # quiet: d guarded


def guarded_ternary(d, b):
    if b * 3 ** d > 1 << 26:
        return None
    return np.zeros((b, 3 ** d), dtype=np.bool_)  # quiet: d guarded
