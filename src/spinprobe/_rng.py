"""Deterministic seed derivation shared by every stochastic stage.

A stream is named by ``(base_seed, path)``: NumPy's ``SeedSequence``
hashes that name and seeds a PCG64 generator with the result, so the same
name yields the same numbers however work is batched or which worker
executes it.  :func:`derive_rng` builds one stream the NumPy way.
:func:`derive_rngs` yields the streams ``derive_rng(base_seed, *prefix, i)``
for i = 0 .. count-1 bit for bit, but evaluates the ``SeedSequence`` hash
for all indices in one vectorised uint32 pass and hands each index's
state words to ``PCG64`` through the ``ISeedSequence`` interface, which
is how ``PCG64(SeedSequence)`` seeds itself; no per-stream
``SeedSequence`` is built.  The hash is a fixed, documented algorithm
(NumPy NEP 19; O'Neill 2014, *PCG*).
"""

from __future__ import annotations

import functools

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1

# numpy.random.SeedSequence's hash constants (after O'Neill's seed_seq_fe)
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_XSHIFT = 16


def derive_seedseq(base_seed: int, *path: int) -> np.random.SeedSequence:
    """Counter-based child seed: (base_seed, path) -> SeedSequence.

    The same (base_seed, path) always yields the same stream, regardless of
    how work is batched or which worker executes it.
    """
    return np.random.SeedSequence(entropy=int(base_seed) & _MASK64,
                                  spawn_key=tuple(int(p) for p in path))


def derive_rng(base_seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(derive_seedseq(base_seed, *path))


def derive_child_seed(base_seed: int, *path: int) -> int:
    """Flatten a derived stream back to a plain integer seed.

    Lets nested stages (scan point -> trajectory) chain derivations while
    each layer only ever handles ints.
    """
    return int(derive_seedseq(base_seed, *path).generate_state(1, np.uint64)[0])


def _words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, the way SeedSequence coerces it."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


# The hash steps below take Python ints or uint32 arrays alike: every
# product is masked to 32 bits, which is a no-op where uint32 already wraps.

def _hashmix(value, const: int, mult: int):
    """One SeedSequence hash step; returns the word and the next constant."""
    value = value ^ const
    const = const * mult & _MASK32
    value = value * const & _MASK32
    return value ^ value >> _XSHIFT, const


def _mix(x, y):
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> _XSHIFT


def _pool(entropy: list) -> list:
    """``SeedSequence.mix_entropy`` over a list of entropy words."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):
        word, const = _hashmix(entropy[i] if i < len(entropy) else 0, const,
                               _MULT_A)
        pool.append(word)
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                word, const = _hashmix(pool[i_src], const, _MULT_A)
                pool[i_dst] = _mix(pool[i_dst], word)
    for extra in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            word, const = _hashmix(extra, const, _MULT_A)
            pool[i_dst] = _mix(pool[i_dst], word)
    return pool


def derive_rngs(base_seed: int, count: int, *prefix: int):
    """Iterate, for i = 0 .. count-1, over generators seeded as
    ``derive_rng(base_seed, *prefix, i)``.

    Every draw method gives exactly the numbers of that stream, and each
    yielded :class:`numpy.random.Generator` is a new object that may be
    kept.  Requires ``count <= 2**32``, so each index is one entropy word.
    """
    if not 0 <= count <= 1 << 32:
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    run_words = _words(int(base_seed) & _MASK64)
    # a spawn key is present, so SeedSequence zero-pads the run entropy
    entropy = run_words + [0] * (_POOL_SIZE - len(run_words))
    for p in prefix:
        entropy += _words(int(p))
    entropy.append(np.arange(count, dtype=np.uint32))
    pool = _pool(entropy)
    # generate_state(4, np.uint64): 8 words cycled from the pool, paired
    # little-endian into uint64s
    const = _INIT_B
    state = np.empty((count, 8), dtype="<u4")
    for k in range(8):
        state[:, k], const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
    return map(_pcg64_seeder(), state.view("<u8").astype(np.uint64, copy=False))


@functools.cache
def _pcg64_seeder():
    """``words -> Generator(PCG64(s))`` for a seed sequence ``s`` whose
    ``generate_state(4, uint64)`` is ``words``.  Built on first use, so
    importing spinprobe does not import ``numpy.random``."""
    from numpy.random import Generator, PCG64
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """The state words PCG64 asks its seed sequence for, precomputed."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: Generator(PCG64(StateWords(words)))
