"""Single-qubit Clifford table and randomized-benchmarking machinery."""

import numpy as np
import pytest
from scipy.optimize import brentq

from spinprobe._csvio import write_files
from spinprobe.benchmarking import (
    CLIFFORD_DECOMPOSITIONS,
    MAX_DEPOLARIZING,
    PRIMITIVES,
    RbCurve,
    clifford_fidelity_from_depolarizing,
    clifford_unitaries,
    compose_table,
    depolarizing_from_clifford_fidelity,
    fit_rb,
    interleaved_gate_fidelity,
    inverse_indices,
    mean_primitives_per_clifford,
    primitive_counts,
    primitive_fidelity_from_clifford,
    rb_interleaved,
    rb_reference,
    rb_survival_probability,
)
from spinprobe.harness.pipelines import RB_HEADER, _rb_csv
from spinprobe.qubitsim import ReadoutModel


def same_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """True when two 2x2 unitaries differ only by a global phase."""
    return abs(abs(np.trace(a.conj().T @ b)) - 2.0) < tol


def minimal_word_lengths() -> np.ndarray:
    """BFS distance from the identity over the non-idle primitives.

    The identity Clifford reports 1: it is realized as an explicit idle
    pulse, never as an empty word.
    """
    us = clifford_unitaries()
    gens = [u for name, u in PRIMITIVES.items() if name != "I"]
    dist = np.full(24, -1)
    frontier = [np.eye(2, dtype=complex)]
    depth = 0
    while np.any(dist < 0):
        depth += 1
        assert depth <= 6, "primitive set does not generate the group"
        nxt = []
        for u in frontier:
            for g in gens:
                v = g @ u
                [k] = [i for i in range(24) if same_up_to_phase(us[i], v)]
                if dist[k] < 0:
                    dist[k] = depth
                    nxt.append(v)
        frontier = nxt
    dist[0] = 1  # idle convention
    return dist


class TestCliffordGroup:
    def test_twenty_four_distinct_elements(self):
        us = clifford_unitaries()
        assert us.shape == (24, 2, 2)
        for i in range(24):
            for j in range(i + 1, 24):
                assert not same_up_to_phase(us[i], us[j])

    def test_contains_identity_first(self):
        assert same_up_to_phase(clifford_unitaries()[0], np.eye(2))

    def test_unitarity(self):
        for u in clifford_unitaries():
            np.testing.assert_allclose(u.conj().T @ u, np.eye(2), atol=1e-12)

    def test_closure_under_composition(self):
        us = clifford_unitaries()
        tab = compose_table()
        assert tab.shape == (24, 24)
        for i in range(24):
            for j in range(24):
                # i applied first, then j
                assert same_up_to_phase(us[tab[i, j]], us[j] @ us[i])

    def test_inverses(self):
        us = clifford_unitaries()
        inv = inverse_indices()
        for i in range(24):
            assert same_up_to_phase(us[inv[i]] @ us[i], np.eye(2))

    def test_decompositions_use_known_primitives(self):
        for word in CLIFFORD_DECOMPOSITIONS:
            assert word
            for name in word:
                assert name in PRIMITIVES

    def test_primitive_budget(self):
        counts = primitive_counts()
        assert counts.sum() == 45
        assert mean_primitives_per_clifford() == pytest.approx(1.875)
        np.testing.assert_array_equal(
            counts, [len(w) for w in CLIFFORD_DECOMPOSITIONS])

    def test_decompositions_are_minimal(self):
        # breadth-first search over the primitive set can't beat the table
        np.testing.assert_array_equal(minimal_word_lengths(), primitive_counts())


class TestFidelityConversions:
    def test_depolarizing_inversion_matches_defining_sum(self):
        # oracle: solve mean_C (1-d)^len(word) = 2 F - 1 from the raw table
        lens = np.array([len(w) for w in CLIFFORD_DECOMPOSITIONS], float)

        def excess(d):
            return float(np.mean((1.0 - d) ** lens)) - (2 * 0.9983 - 1.0)

        d_oracle = brentq(excess, 0.0, 0.1, xtol=1e-15)
        d = depolarizing_from_clifford_fidelity(0.9983)
        assert d == pytest.approx(d_oracle, rel=1e-9)
        assert d == pytest.approx(1.81516e-3, rel=1e-4)
        assert clifford_fidelity_from_depolarizing(d) == pytest.approx(0.9983, rel=1e-12)

    def test_primitive_fidelity_ratio(self):
        assert primitive_fidelity_from_clifford(0.9983) == pytest.approx(
            1.0 - (1.0 - 0.9983) / 1.875, rel=1e-12)

    def test_fidelity_domain(self):
        with pytest.raises(ValueError):
            depolarizing_from_clifford_fidelity(1.0)
        with pytest.raises(ValueError):
            depolarizing_from_clifford_fidelity(0.4)
        # the lowest fidelity the error model reaches inverts to its largest d
        floor = clifford_fidelity_from_depolarizing(MAX_DEPOLARIZING)
        assert depolarizing_from_clifford_fidelity(floor) == MAX_DEPOLARIZING
        with pytest.raises(ValueError, match="must be in"):
            depolarizing_from_clifford_fidelity(np.nextafter(floor, 0.0))

    def test_survival_formula(self):
        assert rb_survival_probability(0, 0.002) == pytest.approx(1.0)
        assert rb_survival_probability(10, 0.002) == pytest.approx(
            0.5 + 0.5 * 0.998**10, rel=1e-12)


class TestRbSimulation:
    DEPTHS = [1, 4, 16, 64, 128, 200]
    D = 1.8151632559693658e-3  # depolarizing strength for F_c = 0.9983

    def test_reference_deterministic(self):
        a = rb_reference(self.DEPTHS, 10, self.D, 9)
        b = rb_reference(self.DEPTHS, 10, self.D, 9)
        np.testing.assert_array_equal(a.mean_survival, b.mean_survival)
        assert a.n_sequences == 10

    def test_zero_error_means_unit_survival(self):
        c = rb_reference([1, 8, 32], 5, 0.0, 3)
        np.testing.assert_allclose(c.mean_survival, 1.0, atol=1e-12)

    def test_fit_recovers_input_fidelity(self):
        curve = rb_reference(self.DEPTHS, 25, self.D, 9)
        fit = fit_rb(curve)
        assert fit.clifford_fidelity == pytest.approx(0.9983, abs=2e-4)
        assert fit.primitive_fidelity == pytest.approx(
            primitive_fidelity_from_clifford(fit.clifford_fidelity), rel=1e-12)

    def test_fit_exact_on_affine_synthetic_curve(self):
        # p is invariant under readout scaling and offset
        m = np.array([1, 2, 4, 8, 16, 32, 64, 128, 200, 300], float)
        y = 0.275 * 0.9964**m + 0.5
        fit = fit_rb(RbCurve(depths=m, mean_survival=y,
                             std_err=np.zeros_like(m), n_sequences=1))
        assert fit.p == pytest.approx(0.9964, rel=1e-9)

    def test_readout_and_shots_affect_curve_not_p(self):
        ro = ReadoutModel(visibility=0.55, floor=0.225)
        curve = rb_reference(self.DEPTHS, 30, self.D, 5, readout=ro, shots=200)
        assert np.all(curve.mean_survival < 0.9)
        fit = fit_rb(curve)
        # shot noise at 30x200 leaves roughly 1e-3 of scatter per seed
        assert abs(fit.clifford_fidelity - 0.9983) < max(
            3 * fit.clifford_fidelity_err, 1e-3)

    def test_interleaved_decays_faster(self):
        ref = rb_reference(self.DEPTHS, 20, self.D, 5)
        inter = rb_interleaved(1, self.DEPTHS, 20, self.D, 5)
        p_ref = fit_rb(ref).p
        p_int = fit_rb(inter).p
        assert p_int < p_ref
        gf = interleaved_gate_fidelity(p_ref, p_int)
        assert gf == pytest.approx(1.0 - (1.0 - p_int / p_ref) / 2.0, rel=1e-12)

    def test_curve_shape_validation(self):
        with pytest.raises(ValueError):
            RbCurve(depths=[1, 2], mean_survival=[0.9], std_err=[0.01, 0.01],
                    n_sequences=3)


class TestCsv:
    def test_round_trip(self, tmp_path):
        curve = rb_reference([1, 8, 32], 12, 2e-3, 4, shots=160)
        p = tmp_path / "rb.csv"
        write_files({p: _rb_csv(curve)})
        header, *rows = p.read_text().splitlines()
        assert header == RB_HEADER
        depths, survival, std_err, n_seq = zip(*(r.split(",") for r in rows))
        assert list(map(int, depths)) == curve.depths.tolist()
        assert list(map(float, survival)) == curve.mean_survival.tolist()
        assert list(map(float, std_err)) == curve.std_err.tolist()
        assert set(n_seq) == {"12"}
