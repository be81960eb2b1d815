"""Deterministic seed derivation for independent sub-streams.

A master seed plus a stream index maps to a child seed through the
SplitMix64 output function. Children are decorrelated regardless of how
many streams run or in what order, which is what makes replicate-level
parallelism bit-reproducible.
"""

# The two streams of a command's master seed: its full-data fit draws from
# the first, and its leave-one-out folds share one draw from the second
FIT_STREAM = 0
FOLD_STREAM = 1

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def _finalize(z: int) -> int:
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, index: int) -> int:
    """Child seed for sub-stream `index` of a run seeded with `master`.

    Equivalent to the (index+1)-th output of a SplitMix64 generator whose
    state starts at `master`.
    """
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    state = (master + (index + 1) * _GOLDEN) & _MASK64
    return _finalize(state)
