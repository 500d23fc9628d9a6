"""Deterministic seed derivation shared by every stochastic stage.

A stream is named by ``(base_seed, path)``, and the same name yields the
same numbers however work is batched or which worker executes it.  Every
name is hashed here, with NumPy's ``SeedSequence`` algorithm (NumPy
NEP 19; O'Neill 2014, *PCG*), a fixed, documented hash that
:func:`_state_words` evaluates on Python ints or on uint32 arrays alike.
A stage, point or cell seed is the first uint64 the hash gives
(:func:`derive_child_seed`, or :func:`derive_child_seeds` for a whole
list in one vectorised pass).  A stream is a PCG64 generator seeded with
four uint64 state words of the hash: :func:`derive_rngs` hashes every
stream of a batch in one vectorised pass and hands each stream's words
to ``PCG64`` through the ``ISeedSequence`` interface, which is how
``PCG64(SeedSequence)`` seeds itself; the tone scan (a stream per pair
of shots) and RB (one per sequence) call it.  numpy only runs PCG64 from
those words, so a run that draws nothing never imports ``numpy.random``.
:func:`derive_rng` builds one stream the NumPy way, with a
``SeedSequence``; it is the reference every batched path equals bit for
bit.
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


def derive_rng(base_seed: int, *path: int) -> np.random.Generator:
    """The stream named (base_seed, path), seeded through a NumPy
    ``SeedSequence``: the same name always yields the same stream,
    regardless of how work is batched or which worker executes it."""
    return np.random.default_rng(np.random.SeedSequence(
        entropy=int(base_seed) & _MASK64, spawn_key=tuple(int(p) for p in path)))


def _words(n: int) -> list[int]:
    """``n`` as little-endian uint32 words, the way SeedSequence coerces it."""
    if n < 0:
        raise ValueError(f"expected a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _entropy(base_words: list[int], path) -> list:
    """SeedSequence's entropy words for ``entropy=base, spawn_key=path``,
    with the base given as its two uint32 words.

    SeedSequence zero-pads the base to the pool size when a spawn key
    follows, and a missing pool word hashes as 0, so padding the two
    words of any 64-bit base to four gives its hash with or without a
    key.  An entry of ``path`` is an int or, as the last one, a uint32
    array of one word per item."""
    entropy = base_words + [0] * (_POOL_SIZE - len(base_words))
    for p in path:
        entropy += [p] if isinstance(p, np.ndarray) else _words(int(p))
    return entropy


def _base_words(base_seed: int) -> list[int]:
    base = int(base_seed) & _MASK64
    return [base & _MASK32, base >> 32]


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


def _state_words(entropy: list, n_words: int) -> list:
    """``SeedSequence.generate_state(n_words, np.uint32)`` of the sequence
    whose entropy words are ``entropy``: ``mix_entropy`` into the pool,
    then ``n_words`` words cycled from it.  Array entries broadcast, so
    one call hashes a whole batch of names."""
    const = _INIT_A
    pool = []
    for i in range(_POOL_SIZE):  # _entropy pads to at least the pool size
        word, const = _hashmix(entropy[i], const, _MULT_A)
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
    const = _INIT_B
    state = []
    for k in range(n_words):
        word, const = _hashmix(pool[k % _POOL_SIZE], const, _MULT_B)
        state.append(word)
    return state


def _indices(count: int) -> np.ndarray:
    """The spawn-key words 0 .. count-1; one word each needs count <= 2**32."""
    if not 0 <= count <= 1 << 32:
        raise ValueError(f"count must be in [0, 2**32], got {count}")
    return np.arange(count, dtype=np.uint32)


def derive_child_seed(base_seed: int, *path: int) -> int:
    """Flatten a derived stream back to a plain integer seed: the first
    uint64 of ``generate_state`` of the ``SeedSequence`` that
    :func:`derive_rng` builds for ``(base_seed, path)``.

    Lets nested stages (scan point -> trajectory) chain derivations while
    each layer only ever handles ints.
    """
    lo, hi = _state_words(_entropy(_base_words(base_seed), path), 2)
    return lo | hi << 32


def derive_child_seeds(base_seed: int, count: int, *prefix: int) -> list[int]:
    """``[derive_child_seed(base_seed, *prefix, i) for i in range(count)]``,
    hashed in one vectorised pass.  Requires ``count <= 2**32``."""
    path = (*prefix, _indices(count))
    lo, hi = _state_words(_entropy(_base_words(base_seed), path), 2)
    return (lo.astype(np.uint64) | hi.astype(np.uint64) << np.uint64(32)).tolist()


def derive_rngs(base_seed: int, count: int, *prefix: int):
    """Iterate, for i = 0 .. count-1, over generators seeded as
    ``derive_rng(base_seed, *prefix, i)``.

    All of the streams are hashed in one vectorised pass.  Every draw
    method gives exactly the numbers of that stream, and each yielded
    :class:`numpy.random.Generator` is a new object that may be kept.
    Requires ``count <= 2**32``, so each index is one entropy word.
    """
    path = (*prefix, _indices(count))
    words = _state_words(_entropy(_base_words(base_seed), path), 8)
    # generate_state(4, np.uint64): the 8 words paired little-endian
    state = np.stack(words, axis=-1, dtype="<u4")
    generator, pcg64, state_words = _pcg64_types()
    return map(generator, map(pcg64, map(
        state_words, state.view("<u8").astype(np.uint64, copy=False))))


@functools.cache
def _pcg64_types():
    """``Generator``, ``PCG64`` and ``StateWords``, where
    ``StateWords(words)`` is a seed sequence whose ``generate_state(4,
    uint64)`` is ``words``.  Built on first use, so importing spinprobe
    does not import ``numpy.random``."""
    from numpy.random import Generator, PCG64
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """The state words PCG64 asks its seed sequence for, precomputed."""

        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return Generator, PCG64, StateWords
