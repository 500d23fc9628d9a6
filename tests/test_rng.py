"""The batched seeder against the one-stream-at-a-time NumPy oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinprobe import benchmarking, starktone
from spinprobe._rng import (derive_child_seed, derive_child_seeds, derive_rng,
                            derive_rngs)
from spinprobe.qubitsim import (HARDWARE_READOUT, ReadoutModel, coherence_mc,
                               mc_point)
from spinprobe.spectra import PowerLawTerm, SpectrumModel

MODEL = SpectrumModel(powerlaws=(PowerLawTerm(2e5, 1.0),), white_floor=350.0)

SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, -1, -2**63]),
    st.integers(-2**70, 2**70))
PREFIX_VALUES = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 + 5]),
                          st.integers(0, 2**70))


def _draws(rng, methods, m):
    out = []
    for name in methods:
        if name == "normal":
            out.append(rng.normal(size=m))
        elif name == "uniform":
            out.append(rng.uniform(0.0, 2 * np.pi))
        elif name == "integers":
            out.append(rng.integers(0, 24, size=m))
        elif name == "standard_normal":
            out.append(rng.standard_normal(out=np.empty(m)))
        elif name == "random":
            out.append(rng.random())
        else:
            out.append(rng.binomial(m, 0.3))
            out.append(rng.binomial(1, 0.8))
    return out


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, prefix=st.lists(PREFIX_VALUES, max_size=2),
       count=st.integers(1, 6), m=st.integers(1, 40),
       methods=st.lists(st.sampled_from(["normal", "uniform", "integers",
                                         "binomial", "standard_normal",
                                         "random"]), min_size=1, max_size=4))
def test_streams_equal_derive_rng(seed, prefix, count, m, methods):
    n = 0
    for i, rng in enumerate(derive_rngs(seed, count, *prefix)):
        got = _draws(rng, methods, m)
        want = _draws(derive_rng(seed, *prefix, i), methods, m)
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b, strict=True)
        n += 1
    assert n == count


@settings(max_examples=300, deadline=None)
@given(seed=SEEDS, path=st.lists(PREFIX_VALUES, max_size=3))
def test_child_seed_is_the_seed_sequence_hash(seed, path):
    want = np.random.SeedSequence(entropy=seed & (2**64 - 1),
                                  spawn_key=path).generate_state(1, np.uint64)
    assert derive_child_seed(seed, *path) == int(want[0])


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, prefix=st.lists(PREFIX_VALUES, max_size=2),
       count=st.integers(0, 6))
def test_child_seeds_equal_the_per_item_child_seed(seed, prefix, count):
    got = derive_child_seeds(seed, count, *prefix)
    assert got == [derive_child_seed(seed, *prefix, i) for i in range(count)]
    assert all(type(s) is int for s in got)


def test_late_indices_of_a_long_batch():
    rngs = derive_rngs(2**64 - 1, 5000, 3)
    for i, rng in enumerate(rngs):
        if i in (0, 255, 256, 4095, 4999):
            np.testing.assert_array_equal(rng.normal(size=9),
                                          derive_rng(2**64 - 1, 3, i).normal(size=9))


def test_kept_generators_keep_their_streams():
    """Generators collected before any draw are independent objects, each
    still on its own stream, whatever order they are drawn from."""
    rngs = list(derive_rngs(7, 4, 2))
    assert len({id(r) for r in rngs}) == 4
    for i in (3, 0, 2, 1):
        np.testing.assert_array_equal(rngs[i].normal(size=5),
                                      derive_rng(7, 2, i).normal(size=5))


def test_empty_and_bad_arguments():
    assert list(derive_rngs(1, 0)) == []
    with pytest.raises(ValueError):
        derive_rngs(1, 2**32 + 1)
    with pytest.raises(ValueError):
        derive_rngs(1, -1)
    with pytest.raises(ValueError):
        derive_rngs(1, 3, -2)


def test_batched_seeds_take_the_counts_derive_rngs_takes():
    assert derive_child_seeds(1, 0) == []
    for bad in (-1, 2**32 + 1):
        with pytest.raises(ValueError):
            derive_child_seeds(1, bad)
    with pytest.raises(ValueError):
        derive_child_seeds(1, 3, -2)
    with pytest.raises(ValueError):
        derive_child_seed(1, -2)


# each returns plain floats, whose repr is exact
def _rb():
    curve = benchmarking._simulate_rb([1, 4, 9], 6, 0.01, 5, ReadoutModel(),
                                      40, 3)
    return curve.mean_survival.tolist() + curve.std_err.tolist()


def _tone():
    # full 64-bit cell seeds, as tone_scan derives them
    args = (MODEL, mc_point(4, 4 * 50e-6, 1.0, 8), [2e-4, 4e-4], -2.3e7, 1e4,
            None, 40, derive_child_seeds(17, 2, 3), HARDWARE_READOUT)
    return starktone._tone_column(args)


def _mc():
    point = coherence_mc(MODEL, mc_point(4, 2e-4, samples_per_interval=8), 30, 9)
    return point.w, point.std_err


def _per_item_rngs(seed, count, *prefix):
    return (derive_rng(seed, *prefix, i) for i in range(count))


# the batched seeder each module's hot loop calls, and its per-item oracle;
# a Monte Carlo point draws from one stream, so qubitsim calls none
PER_ITEM = {starktone: ("derive_rngs", _per_item_rngs),
            benchmarking: ("derive_rngs", _per_item_rngs)}


@pytest.mark.parametrize("run, module", [(_tone, starktone), (_rb, benchmarking)])
def test_equals_the_per_item_derive_rng_loop(monkeypatch, run, module):
    batched = run()
    name, oracle = PER_ITEM[module]
    calls = []
    monkeypatch.setattr(module, name, lambda *a: calls.append(a) or oracle(*a))
    looped = run()
    assert calls
    assert repr(batched) == repr(looped)


@pytest.mark.parametrize("run", [_mc, _tone, _rb])
def test_no_seed_sequence_per_item(monkeypatch, run):
    calls = []
    seed_sequence = np.random.SeedSequence

    def spy(*args, **kwargs):
        calls.append(args)
        return seed_sequence(*args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", spy)
    run()
    # coherence_mc builds its point's one stream with derive_rng
    assert len(calls) == (1 if run is _mc else 0)
    calls.clear()
    # the spy sees the one-stream path, which does build a SeedSequence
    derive_rng(0, 1)
    assert len(calls) == 1
