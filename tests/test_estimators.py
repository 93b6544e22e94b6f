"""Sampling estimators checked against the dense oracle.

Stochastic assertions run at fixed seeds inside 3-sigma windows around an
independently computed expectation. Cases where the encoded state is an
exact eigenvector of every measured word must come out with zero spread,
so those assert equality.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    ginibre, ising_chain, pauli_normalized, random_hermitian_sum, refusal_peak, spy_calls,
)

from opvec.errors import (
    EntangledEigenbasisError,
    NonCommutingSetError,
    ParseError,
)
from opvec.estimators import (
    EmpiricalPauliDist,
    ShotPlan,
    allocate_shots,
    estimate_corr_interferometric,
    estimate_loe2,
    estimate_otoc_group,
    estimate_ose,
    estimate_superop_grouped,
    mc_diagonal,
    nqubit_otoc,
    nqubit_sample,
    ose_shot_counts,
    sample_pauli_dist,
)
from opvec import _linalg, estimators, simulator
from opvec.estimators import (
    _NQUBIT_SHOT_BYTES,
    _OSE_SAMPLE_BYTES,
    _count_pairs,
    _measure_family,
    _even_sign_probability,
)
from opvec.oracle import (
    exact_heisenberg,
    exact_loe,
    exact_otoc,
    pauli_probabilities,
)
from opvec.pauli import PauliString, PauliSum
from opvec.simulator import (
    Circuit,
    Gate,
    QState,
    RngStream,
    apply_circuit,
    dense_unitary,
    interferometric_state,
    random_clifford_circuit,
    trotter_circuit,
)
from opvec.superop import (
    DiagonalSuperop,
    OperatorSumSuperop,
    common_eigenbasis_circuit,
    expectation,
    lifted_pauli,
    size_superop,
)
from opvec.vectorize import COMPUTATIONAL, PAULI, VectorizedState, bell_transform, pauli_index, vectorize
from reference import to_operator_sum


def word(label: str) -> PauliString:
    return PauliString.from_label(label)


def word_state(label: str, basis):
    return vectorize(word(label).to_dense(), basis)


def evolved_chain_op(label: str, t: float, steps: int) -> np.ndarray:
    """Heisenberg-evolved dense word under the trotterized test chain."""
    n = len(label)
    u = dense_unitary(trotter_circuit(ising_chain(n), t, steps))
    return exact_heisenberg(word(label).to_dense(), u)


class TestShotAllocation:
    def test_proportional_split(self):
        plan = allocate_shots([1.0, 3.0], 100)
        assert plan.counts == (25, 75)
        assert plan.total == 100

    def test_largest_remainder_rounding(self):
        plan = allocate_shots([1.0, 1.0, 1.0], 100)
        assert sum(plan.counts) == 100
        assert max(plan.counts) - min(plan.counts) == 1

    def test_zero_weight_gets_nothing(self):
        assert allocate_shots([0.0, 2.0, 2.0], 10).counts == (0, 5, 5)

    def test_tiny_weight_still_sampled(self):
        plan = allocate_shots([1e-9, 1.0], 10)
        assert plan.counts[0] == 1
        assert sum(plan.counts) == 10

    @pytest.mark.parametrize(
        "weights,total",
        [
            ([], 5),
            ([-1.0, 2.0], 5),
            ([0.0, 0.0], 5),
            ([1.0, 1.0, 1.0], 2),
        ],
    )
    def test_rejects_bad_inputs(self, weights, total):
        with pytest.raises(ValueError):
            allocate_shots(weights, total)

    def test_plan_must_sum_to_total(self):
        with pytest.raises(ValueError, match="sum"):
            ShotPlan((3, 3), 7)


class TestEmpiricalDist:
    def test_csv_round_trip(self):
        dist = EmpiricalPauliDist(2, {0: 40, 5: 50, 15: 10}, 100)
        assert EmpiricalPauliDist.from_csv(dist.to_csv()) == dist

    @pytest.mark.parametrize(
        "text",
        [
            "count,pauli_string\nXX,3\n",
            "pauli_string,count\nXX,three\n",
            "pauli_string,count\nXQ,3\n",
            "pauli_string,count\nXX,3\nXYZ,1\n",
            "pauli_string,count\n",
            "pauli_string,count\nXI,3\nXI,5\n",
            "pauli_string,count\nXI,3\nZZ,0\n",
            "pauli_string,count\nXI,3\nZZ,-2\n",
        ],
    )
    def test_from_csv_rejects(self, text):
        with pytest.raises(ParseError):
            EmpiricalPauliDist.from_csv(text)

    @pytest.mark.parametrize("text,problem", [
        ("pauli_string,count\nXI,3\nXI,5\n", "line 3: repeated Pauli string XI"),
        ("pauli_string,count\nXI,3\nZZ,0\n", "line 3: count must be positive; got 0"),
    ], ids=["repeated", "zero"])
    def test_from_csv_names_the_line(self, text, problem):
        with pytest.raises(ParseError, match=f"^{problem}$"):
            EmpiricalPauliDist.from_csv(text)

    def test_counts_must_sum_to_shots(self):
        with pytest.raises(ValueError, match="sum"):
            EmpiricalPauliDist(1, {0: 1}, 2)

    def test_counts_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            EmpiricalPauliDist(1, {0: 0, 3: 4}, 4)


class TestPauliSampling:
    def test_point_mass_word(self):
        dist = sample_pauli_dist(word_state("XY", PAULI), 50, RngStream(3))
        assert dist.counts == {pauli_index(word("XY")): 50}

    def test_matches_exact_distribution(self):
        evolved = evolved_chain_op("ZI", 0.9, 16)
        dist = sample_pauli_dist(vectorize(evolved, PAULI), 40_000, RngStream(7))
        probs = pauli_probabilities(evolved)
        freq = np.zeros(probs.size)
        for k, c in dist.counts.items():
            freq[k] = c / dist.shots
        assert 0.5 * np.abs(freq - probs).sum() < 0.02

    def test_deterministic_per_seed(self):
        st = vectorize(evolved_chain_op("ZI", 0.9, 16), PAULI)
        a = sample_pauli_dist(st, 1000, RngStream(11))
        b = sample_pauli_dist(st, 1000, RngStream(11))
        assert a == b

    def test_requires_pauli_rep(self):
        with pytest.raises(ValueError, match="Pauli rep"):
            sample_pauli_dist(word_state("XY", COMPUTATIONAL), 10, RngStream(0))


class TestDiagonalMonteCarlo:
    def test_word_support_is_exact(self):
        dist = sample_pauli_dist(word_state("XIY", PAULI), 200, RngStream(5))
        rep = mc_diagonal(dist, size_superop(3))
        assert rep.value == 2.0
        assert rep.stderr == 0.0
        assert rep.shots == 200
        assert rep.metadata["observable"] == "size"

    def test_power_raises_eigenvalue(self):
        dist = sample_pauli_dist(word_state("XIY", PAULI), 100, RngStream(5))
        rep = mc_diagonal(dist, size_superop(3), power=3)
        assert rep.value == 8.0
        assert rep.metadata["power"] == "3"

    def test_matches_dense_moment(self, gen):
        op = pauli_normalized(ginibre(gen, 8))
        st = vectorize(op, PAULI)
        dist = sample_pauli_dist(st, 30_000, RngStream(21))
        rep = mc_diagonal(dist, size_superop(3), power=2)
        want = expectation(size_superop(3), st, 2)
        assert abs(rep.value - want) < 3 * rep.stderr + 1e-12

    def test_rejects_site_mismatch(self):
        dist = sample_pauli_dist(word_state("XY", PAULI), 10, RngStream(1))
        with pytest.raises(ValueError, match="mismatch"):
            mc_diagonal(dist, size_superop(3))

    def test_rejects_zero_power(self):
        dist = sample_pauli_dist(word_state("XY", PAULI), 10, RngStream(1))
        with pytest.raises(ValueError, match="power"):
            mc_diagonal(dist, size_superop(2), power=0)

    def test_rejects_unbounded_eigenvalue(self):
        dist = sample_pauli_dist(vectorize(np.eye(2), PAULI), 10, RngStream(1))
        diag = DiagonalSuperop(1, lam=lambda idx: np.where(idx == 0, math.inf, 1.0))
        with pytest.raises(ValueError, match="unbounded"):
            mc_diagonal(dist, diag)


DIAG_PAIRS = [(word(a), word(a)) for a in ("ZI", "IZ", "ZZ")]


class TestGroupedOtoc:
    def test_clifford_word_zero_spread(self):
        # Clifford conjugation sends a word to a signed word, so the encoded
        # state is an eigenvector of every measured pair.
        u = random_clifford_circuit(2, 3, RngStream(9))
        evolved = exact_heisenberg(word("XI").to_dense(), dense_unitary(u))
        st = vectorize(evolved, COMPUTATIONAL)
        reports = estimate_otoc_group(st, DIAG_PAIRS, 64, RngStream(10))
        for rep, (left, right) in zip(reports, DIAG_PAIRS):
            want = exact_otoc(evolved, left.to_dense(), right.to_dense())
            assert rep.value == pytest.approx(want, abs=1e-12)
            assert rep.stderr == 0.0
            assert rep.metadata == {"left": left.label, "right": right.label}

    def test_matches_oracle_generic(self):
        evolved = evolved_chain_op("ZI", 1.3, 24)
        st = vectorize(evolved, COMPUTATIONAL)
        reports = estimate_otoc_group(st, DIAG_PAIRS, 20_000, RngStream(17))
        for rep, (left, right) in zip(reports, DIAG_PAIRS):
            want = exact_otoc(evolved, left.to_dense(), right.to_dense())
            assert abs(rep.value - want) < 3 * rep.stderr + 1e-12

    def test_pauli_rep_input(self):
        u = random_clifford_circuit(2, 3, RngStream(9))
        evolved = exact_heisenberg(word("XI").to_dense(), dense_unitary(u))
        reports = estimate_otoc_group(
            vectorize(evolved, PAULI), DIAG_PAIRS, 64, RngStream(10)
        )
        for rep, (left, right) in zip(reports, DIAG_PAIRS):
            want = exact_otoc(evolved, left.to_dense(), right.to_dense())
            assert rep.value == pytest.approx(want, abs=1e-12)

    def test_entangled_family_accepted(self):
        # the doubled register measures lifted words directly, so a family
        # whose common eigenbasis entangles the two copies is fine here
        pairs = [(word("X"), word("X")), (word("Z"), word("Z"))]
        reports = estimate_otoc_group(word_state("Z", COMPUTATIONAL), pairs, 32, RngStream(13))
        assert reports[0].value == pytest.approx(-1.0, abs=1e-12)
        assert reports[1].value == pytest.approx(1.0, abs=1e-12)
        assert all(rep.stderr == 0.0 for rep in reports)

    def test_deterministic_per_seed(self):
        st = vectorize(evolved_chain_op("ZI", 1.3, 24), COMPUTATIONAL)
        a = estimate_otoc_group(st, DIAG_PAIRS, 2000, RngStream(19))
        b = estimate_otoc_group(st, DIAG_PAIRS, 2000, RngStream(19))
        assert [(r.value, r.stderr) for r in a] == [(r.value, r.stderr) for r in b]

    def test_rejects_noncommuting_family(self):
        pairs = [
            (word("X"), word("I")),
            (word("Z"), word("I")),
        ]
        with pytest.raises(NonCommutingSetError) as err:
            estimate_otoc_group(word_state("Z", COMPUTATIONAL), pairs, 10, RngStream(0))
        assert err.value.witness == (0, 1)


class TestMirroredShortcut:
    """A mirrored family {W_i (x) W_i^*} on a Pauli-rep state is sampled in
    place: its eigenbasis circuit, CX then H per site pair, undoes the p_to_c
    basis change. Today's route, that basis change and then the circuit, is
    what a computational-rep state still takes."""

    @staticmethod
    def _spied(monkeypatch) -> list[str]:
        calls: list[str] = []

        def spy(state, direction):
            calls.append(direction)
            return bell_transform(state, direction)

        monkeypatch.setattr(estimators, "bell_transform", spy)
        return calls

    @settings(deadline=None)
    @given(st.integers(1, 5), st.integers(1, 4), st.integers(0, 2**32 - 1))
    def test_in_place_route_matches_the_basis_change_route(self, n, count, seed):
        gen = np.random.default_rng(seed)
        amps = gen.standard_normal(4**n) + 1j * gen.standard_normal(4**n)
        state = VectorizedState(n, PAULI, amps / np.linalg.norm(amps))
        words = [PauliString(n, int(gen.integers(2**n)), int(gen.integers(2**n))) for _ in range(count)]
        pairs = [(w, w) for w in words]
        moved = bell_transform(state, "p_to_c")
        circ = common_eigenbasis_circuit([lifted_pauli(w, w)[1] for w in words])
        today = apply_circuit(QState(2 * n, moved.amplitudes), circ).probabilities()
        in_place = QState(2 * n, state.amplitudes).probabilities()
        assert np.max(np.abs(in_place - today)) <= 1e-15
        eigs, weights = _measure_family(state, pairs, 500, RngStream(seed % 1000), "")
        want_eigs, want_weights = _measure_family(moved, pairs, 500, RngStream(seed % 1000), "")
        assert np.array_equal(weights, want_weights)
        assert all(np.array_equal(a, b) for a, b in zip(eigs, want_eigs))

    def test_mirrored_family_skips_the_basis_change(self, monkeypatch):
        calls = self._spied(monkeypatch)
        state = vectorize(evolved_chain_op("ZI", 1.3, 24), PAULI)
        estimate_otoc_group(state, DIAG_PAIRS, 200, RngStream(3))
        assert calls == []

    def test_other_family_goes_through_the_computational_rep(self, monkeypatch):
        # The second pair differs on its two copies, so the family is not
        # mirrored; its lifted words still commute.
        pairs = [(word("ZI"), word("ZI")), (word("IZ"), word("IX"))]
        state = vectorize(evolved_chain_op("ZI", 1.3, 24), PAULI)
        want = estimate_otoc_group(bell_transform(state, "p_to_c"), pairs, 200, RngStream(5))
        calls = self._spied(monkeypatch)
        got = estimate_otoc_group(state, pairs, 200, RngStream(5))
        assert calls == ["p_to_c"]
        assert [(r.value, r.stderr) for r in got] == [(r.value, r.stderr) for r in want]


def axis_groups(a: OperatorSumSuperop) -> list[list[int]]:
    """Group the non-identity terms of a diagonal operator sum by letter."""
    groups: dict[str, list[int]] = {"X": [], "Y": [], "Z": []}
    for idx, (_, left, _) in enumerate(a.terms):
        if left.weight == 0:
            continue
        letter = next(left.site(i) for i in range(left.n) if left.site(i) != "I")
        groups[letter].append(idx)
    return [groups["X"], groups["Y"], groups["Z"]]


class TestGroupedSuperop:
    def test_word_state_exact(self):
        a = to_operator_sum(size_superop(3))
        plan = allocate_shots([1.0, 1.0, 1.0], 300)
        st = word_state("XIY", COMPUTATIONAL)
        rep = estimate_superop_grouped(st, a, axis_groups(a), plan, RngStream(23))
        assert rep.value == pytest.approx(2.0, abs=1e-12)
        assert rep.stderr == 0.0
        assert rep.shots == 300
        assert rep.metadata["groups"] == "3"

    def test_matches_expectation_generic(self, gen):
        op = pauli_normalized(ginibre(gen, 8))
        st = vectorize(op, COMPUTATIONAL)
        a = to_operator_sum(size_superop(3))
        plan = allocate_shots([1.0, 1.0, 1.0], 60_000)
        rep = estimate_superop_grouped(st, a, axis_groups(a), plan, RngStream(29))
        want = expectation(size_superop(3), st)
        assert abs(rep.value - want) < 3 * rep.stderr + 1e-12

    def test_rejects_non_self_adjoint(self):
        a = OperatorSumSuperop(1, ((1j, word("X"), word("I")),))
        with pytest.raises(ValueError, match="self-adjoint"):
            estimate_superop_grouped(
                word_state("Z", COMPUTATIONAL), a, [[0]], ShotPlan((4,), 4), RngStream(0)
            )

    def test_rejects_plan_grouping_mismatch(self):
        a = to_operator_sum(size_superop(2))
        with pytest.raises(ValueError, match="does not match"):
            estimate_superop_grouped(
                word_state("XY", COMPUTATIONAL),
                a,
                axis_groups(a),
                allocate_shots([1.0, 1.0], 10),
                RngStream(0),
            )

    def test_rejects_double_grouping(self):
        a = to_operator_sum(size_superop(2))
        groups = axis_groups(a)
        groups[1] = groups[0]
        with pytest.raises(ValueError, match="twice"):
            estimate_superop_grouped(
                word_state("XY", COMPUTATIONAL),
                a,
                groups,
                ShotPlan((4, 4, 4), 12),
                RngStream(0),
            )

    def test_rejects_ungrouped_non_identity(self):
        a = to_operator_sum(size_superop(2))
        groups = axis_groups(a)
        groups[2] = groups[2][:-1]
        with pytest.raises(ValueError, match="left out"):
            estimate_superop_grouped(
                word_state("XY", COMPUTATIONAL),
                a,
                groups,
                ShotPlan((4, 4, 4), 12),
                RngStream(0),
            )

    def test_rejects_imaginary_group_coefficient(self):
        x = word("X")
        a = OperatorSumSuperop(1, ((1j, x, x), (-1j, x, x)))
        with pytest.raises(ValueError, match="real"):
            estimate_superop_grouped(
                word_state("Z", COMPUTATIONAL),
                a,
                [[0], [1]],
                ShotPlan((2, 2), 4),
                RngStream(0),
            )

    def test_rejects_starved_group(self):
        a = to_operator_sum(size_superop(2))
        groups = axis_groups(a)
        with pytest.raises(ValueError, match="no shots"):
            estimate_superop_grouped(
                word_state("XY", COMPUTATIONAL),
                a,
                groups,
                ShotPlan((0, 6, 6), 12),
                RngStream(0),
            )

    def test_rejects_noncommuting_group(self):
        a = OperatorSumSuperop(
            1, ((0.5, word("X"), word("I")), (0.5, word("Z"), word("I")))
        )
        with pytest.raises(NonCommutingSetError):
            estimate_superop_grouped(
                word_state("Z", COMPUTATIONAL),
                a,
                [[0, 1]],
                ShotPlan((8,), 8),
                RngStream(0),
            )

    def test_rejects_all_exact_grouping(self):
        a = OperatorSumSuperop(1, ((1.0, word("I"), word("I")),))
        with pytest.raises(ValueError, match="no sampled"):
            estimate_superop_grouped(
                word_state("Z", COMPUTATIONAL), a, [[]], ShotPlan((4,), 4), RngStream(0)
            )


class TestStabilizerEntropy:
    def test_shot_count_formula(self):
        assert ose_shot_counts(2, 0.1, 0.05) == (877, 877)
        assert ose_shot_counts(3, 0.1, 0.05) == (877, 1753)

    def test_point_mass_exact(self):
        est = estimate_ose(word_state("XY", PAULI), 2, 0.1, 0.05, RngStream(31))
        assert est.purity.value == 1.0
        assert est.purity.stderr == 0.0
        assert est.entropy == 0.0
        assert est.purity.shots == 877 * 2
        assert est.purity.metadata["inner_per_sample"] == "1"

    def test_two_outcome_state(self):
        op = PauliSum.from_terms([(2**-0.5, word("X")), (2**-0.5, word("Z"))])
        est = estimate_ose(vectorize(op, PAULI), 2, 0.1, 0.05, RngStream(37))
        assert abs(est.purity.value - 0.5) < 3 * est.purity.stderr
        assert est.entropy == pytest.approx(-math.log(est.purity.value), abs=1e-12)
        assert est.purity.metadata["outer"] == "877"

    def test_higher_order_point_mass(self):
        # alpha=3 splits the inner budget as ceil(1753/877) = 2 per sample
        est = estimate_ose(word_state("XY", PAULI), 3, 0.1, 0.05, RngStream(31))
        assert est.purity.value == 1.0
        assert est.entropy == 0.0
        assert est.purity.shots == 877 * 5

    @pytest.mark.parametrize("alpha", [2, 3])
    @pytest.mark.parametrize("seed", [41, 43])
    def test_draws_match_a_per_sample_loop(self, alpha, seed):
        # About 20,000 outer samples over the 4^5 Pauli outcomes of a
        # six-word sum: one binomial call draws what one call per sample did.
        state = vectorize(random_hermitian_sum(np.random.default_rng(seed), 5, 6), PAULI)
        epsilon, delta, rng = 0.021, 0.05, RngStream(seed)
        m, n = ose_shot_counts(alpha, epsilon, delta)
        m_inner = math.ceil(n / m)
        p = np.abs(state.amplitudes) ** 2
        p = p / p.sum()
        ks = rng.fork("outer").generator.choice(p.size, size=m, p=p)
        inner = rng.fork("inner").generator
        zbars = np.empty(m)
        for i, k in enumerate(ks):
            zbars[i] = inner.binomial(m_inner, p[k] ** (alpha - 1)) / m_inner
        est = estimate_ose(state, alpha, epsilon, delta, rng)
        assert est.purity.value == float(zbars.mean())
        assert est.purity.stderr == float(zbars.std(ddof=1) / math.sqrt(m))

    def test_samples_are_stated_before_the_first_draw(self):
        # epsilon 1e-6 asks for 8.8e12 outer samples: refused before any
        # per-sample array is drawn.
        m, _ = ose_shot_counts(2, 1e-6, 0.05)
        call = lambda: estimate_ose(word_state("XY", PAULI), 2, 1e-6, 0.05, RngStream(0))  # noqa: E731
        assert refusal_peak(call, _OSE_SAMPLE_BYTES * m) < 1 << 16

    def test_per_sample_bytes_stay_within_the_statement(self):
        state = vectorize(random_hermitian_sum(np.random.default_rng(3), 3, 6), PAULI)
        m, _ = ose_shot_counts(3, 3e-3, 0.05)
        tracemalloc.start()
        try:
            estimate_ose(state, 3, 3e-3, 0.05, RngStream(1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _OSE_SAMPLE_BYTES * m

    def test_requires_pauli_rep(self):
        with pytest.raises(ValueError, match="Pauli rep"):
            estimate_ose(word_state("XY", COMPUTATIONAL), 2, 0.1, 0.05, RngStream(0))

    def test_rejects_low_order(self):
        with pytest.raises(ValueError, match="order"):
            estimate_ose(word_state("XY", PAULI), 1, 0.1, 0.05, RngStream(0))


BELL_PAIR_OP = PauliSum.from_terms([(2**-0.5, word("XX")), (2**-0.5, word("YY"))])


class TestLinearEntanglement:
    def test_maximally_mixed_cut(self):
        st = vectorize(BELL_PAIR_OP, COMPUTATIONAL)
        rep = estimate_loe2(st, st, [0], 40_000, RngStream(41))
        want = exact_loe(BELL_PAIR_OP.to_dense(), [0])["linear"]
        assert abs(rep.value - want) < 3 * rep.stderr
        assert rep.metadata["partition"] == "0"

    def test_product_word_zero_spread(self):
        st = word_state("XY", COMPUTATIONAL)
        rep = estimate_loe2(st, st, [1], 500, RngStream(43))
        assert rep.value == 0.0
        assert rep.stderr == 0.0

    def test_matches_oracle_evolved(self):
        evolved = evolved_chain_op("ZII", 0.8, 16)
        st = vectorize(evolved, COMPUTATIONAL)
        rep = estimate_loe2(st, st, [0, 1], 40_000, RngStream(47))
        want = exact_loe(evolved, [0, 1])["linear"]
        assert abs(rep.value - want) < 3 * rep.stderr + 1e-12

    def test_complement_cut_agrees(self):
        # globally pure encoding: both sides of the cut share a spectrum
        evolved = evolved_chain_op("ZII", 0.8, 16)
        st = vectorize(evolved, COMPUTATIONAL)
        a = estimate_loe2(st, st, [0], 20_000, RngStream(53))
        b = estimate_loe2(st, st, [1, 2], 20_000, RngStream(59))
        assert abs(a.value - b.value) < 3 * (a.stderr + b.stderr) + 1e-12

    def test_pauli_rep_reads_in_place(self):
        st = word_state("XY", PAULI)
        rep = estimate_loe2(st, st, [1], 200, RngStream(43))
        assert rep.value == 0.0

    @pytest.mark.parametrize("partition", [[0, 2], [0, 1, 3]], ids=["half", "larger-side"])
    @pytest.mark.parametrize("copies", ["same", "different"])
    def test_either_rep_gives_the_same_draws(self, gen, copies, partition):
        # A change of rep is one orthogonal 4x4 matrix per site, which leaves
        # tr(rho_a rho_b) and so the draw as they are.
        a = random_state(gen, 4)
        b = a if copies == "same" else random_state(gen, 4)
        pa = bell_transform(a, "c_to_p")
        pb = pa if copies == "same" else bell_transform(b, "c_to_p")
        for seed in range(20):
            want = estimate_loe2(a, b, partition, 4096, RngStream(seed))
            got = estimate_loe2(pa, pb, partition, 4096, RngStream(seed))
            assert (got.value, got.stderr, got.metadata) == (want.value, want.stderr, want.metadata)

    @pytest.mark.parametrize("basis", [COMPUTATIONAL, PAULI], ids=["computational", "pauli"])
    def test_makes_no_basis_change_and_no_register_pass(self, gen, monkeypatch, basis):
        a, b = random_state(gen, 4, basis), random_state(gen, 4, basis)
        calls = spy_calls(monkeypatch, "bell_transform", "run_passes", "apply_circuit")
        for x, y in [(a, a), (a, b)]:
            estimate_loe2(x, y, [0, 2], 4096, RngStream(1))
        assert calls == []

    def test_stderr_scales_with_shots(self):
        st = vectorize(BELL_PAIR_OP, COMPUTATIONAL)
        lo = estimate_loe2(st, st, [0], 4000, RngStream(83))
        hi = estimate_loe2(st, st, [0], 64_000, RngStream(83))
        assert 3.0 < lo.stderr / hi.stderr < 5.5

    @pytest.mark.parametrize("copies", ["same", "different"])
    def test_one_binomial_at_the_even_singlet_probability(self, gen, copies):
        # The +1 signs are Binomial(shots, p_even), p_even the two-copy
        # register's probability of an even singlet count, rounded to the
        # grid.
        a = random_state(gen, 4)
        b = a if copies == "same" else random_state(gen, 4)
        p_even = 1.0 - minus_sign_probability(joint_register_bell_marginal(a, b, [0, 2]))
        assert _even_sign_probability(a, b, [0, 2]) == pytest.approx(p_even, abs=1e-12)
        shots = 4096
        for seed in range(5):
            rep = estimate_loe2(a, b, [0, 2], shots, RngStream(seed))
            even = RngStream(seed).generator.binomial(shots, round(p_even * 2.0**40) / 2.0**40)
            assert rep.value == 1.0 - (2 * even - shots) / shots

    @pytest.mark.parametrize("text", ["1 0 ZI\n1 0 XX", "1 0 XZ\n0.7 0 ZX"], ids=["ZI+XX", "XZ+ZX"])
    def test_rounding_dust_leaves_the_draw_unchanged(self, gen, text):
        # A 1e-15 change to every amplitude moves p_even by far less than
        # the grid: no seed redraws. These operators' Bell outcomes include
        # exact zeros that the dust makes positive, which redrew every seed
        # of a multinomial over the outcomes.
        st = vectorize(PauliSum.from_text(text), COMPUTATIONAL)
        dust = 1e-15 * (gen.normal(size=st.amplitudes.size) + 1j * gen.normal(size=st.amplitudes.size))
        moved = VectorizedState(st.n, COMPUTATIONAL, st.amplitudes + dust)
        assert not np.array_equal(moved.amplitudes, st.amplitudes)
        for seed in range(20):
            a = estimate_loe2(st, st, [0], 4096, RngStream(seed))
            b = estimate_loe2(moved, moved, [0], 4096, RngStream(seed))
            assert (a.value, a.stderr) == (b.value, b.stderr)

    @pytest.mark.parametrize("partition", [[], [0, 1], [5], [-1]])
    def test_rejects_bad_partition(self, partition):
        st = word_state("XY", COMPUTATIONAL)
        with pytest.raises(ValueError):
            estimate_loe2(st, st, partition, 10, RngStream(0))

    def test_rejects_mismatched_copies(self):
        a = word_state("XY", COMPUTATIONAL)
        b = word_state("XY", PAULI)
        with pytest.raises(ValueError, match="share"):
            estimate_loe2(a, b, [0], 10, RngStream(0))

    def test_reduced_states_are_stated_to_the_budget(self, gen, monkeypatch):
        # Every read is on the smaller side of the cut: two different n = 8
        # copies on |A| = 4 build two reduced states of 16 * 16^4 bytes each,
        # refused before either is built, and on |A| = 7 one 4 x 4 matrix on
        # the other site, which the same budget allows.
        a, b = random_state(gen, 8), random_state(gen, 8)
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", 2 * 16 * 16**4 - 1)
        call = lambda: estimate_loe2(a, b, range(4), 10, RngStream(0))  # noqa: E731
        assert refusal_peak(call, 2 * 16 * 16**4) < 1 << 20
        for partition in [range(7), range(1, 8), [3]]:
            assert estimate_loe2(a, b, partition, 10, RngStream(0)).shots == 10


# Bell pair of the old CX/H readout's (bit_a, bit_b), as 2*bit_a + bit_b, in
# the distribution's I, X, Y, Z order: Phi+ = 00, Psi+ = 01, Psi- = 11, Phi- = 10.
_SIGMA_FROM_BITS = [0, 1, 3, 2]


def joint_register_bell_marginal(a, b, sites) -> np.ndarray:
    """Reference: the Bell outcome distribution on the partition's qubits,
    read off the two-copy register the swap test used to build (4^(2n)
    amplitudes). Axis j is measured qubit j, indexed by its Bell pair sigma_j
    in the order I, X, Y, Z; Y is the singlet, the one pair with swap
    eigenvalue -1."""
    a = a if a.basis == COMPUTATIONAL else bell_transform(a, "p_to_c")
    b = b if b.basis == COMPUTATIONAL else bell_transform(b, "p_to_c")
    k = 2 * a.n
    qubits = [q for s in sites for q in (2 * s, 2 * s + 1)]
    gates = []
    for q in qubits:
        gates.append(Gate("cx", (q, k + q)))
        gates.append(Gate("h", (q,)))
    joint = QState(2 * k, np.kron(a.amplitudes, b.amplitudes))
    probs = apply_circuit(joint, Circuit(2 * k, gates)).probabilities()
    keep = [ax for q in qubits for ax in (q, k + q)]
    probs = np.moveaxis(probs.reshape((2,) * (2 * k)), keep, range(len(keep)))
    marginal = probs.reshape(4 ** len(qubits), -1).sum(axis=1)
    marginal = marginal.reshape((4,) * len(qubits))
    return marginal[np.ix_(*[_SIGMA_FROM_BITS] * len(qubits))]


def minus_sign_probability(dist: np.ndarray) -> float:
    """P(swap sign = -1): the outcomes with an odd number of singlets (Y)."""
    digits = np.indices(dist.shape).reshape(dist.ndim, -1)
    odd = (digits == 2).sum(axis=0) % 2 == 1
    return float(dist.reshape(-1)[odd].sum())


def random_state(gen, n: int, basis=COMPUTATIONAL):
    return vectorize(ginibre(gen, 2**n), basis)


class TestSwapTestDistribution:
    """The +1 probability of the swap test, read off the reduced states,
    against the two-copy register's Bell outcomes."""

    @staticmethod
    def _register_p_even(a, b, partition) -> float:
        return 1.0 - minus_sign_probability(joint_register_bell_marginal(a, b, partition))

    @pytest.mark.parametrize(
        "n,partition",
        [(2, [0]), (2, [1]), (3, [1]), (4, [1, 2]), (4, [0, 3]), (4, [0, 2])],
    )
    @pytest.mark.parametrize("copies", ["same", "different"])
    def test_matches_the_joint_register(self, gen, n, partition, copies):
        a = random_state(gen, n)
        b = a if copies == "same" else random_state(gen, n)
        got = _even_sign_probability(a, b, partition)
        assert got == pytest.approx(self._register_p_even(a, b, partition), abs=1e-12)

    @pytest.mark.parametrize("n,partition", [(3, [0, 1]), (3, [0, 2]), (4, [0, 1, 3])])
    @pytest.mark.parametrize("copies", ["same", "different"])
    def test_larger_side_keeps_the_sign_law(self, gen, monkeypatch, n, partition, copies):
        # the overlap is read as ||M_a^dag M_b||^2, one matrix on the
        # complement's sites, for equal and different copies alike
        a = random_state(gen, n)
        b = a if copies == "same" else random_state(gen, n)
        asked = []
        monkeypatch.setattr(estimators, "reserve", lambda nbytes, what: asked.append(nbytes))
        got = _even_sign_probability(a, b, partition)
        assert asked == [16 * 16 ** (n - len(partition))]
        assert got == pytest.approx(self._register_p_even(a, b, partition), abs=1e-12)

    @pytest.mark.parametrize("n,partition", [(3, [0, 2]), (4, [0, 1, 3])])
    def test_different_copies_measure_the_partition_as_given(self, gen, n, partition):
        # tr(rho_A^a rho_A^b) != tr(rho_B^a rho_B^b) for different states
        a, b = random_state(gen, n), random_state(gen, n)
        got = _even_sign_probability(a, b, partition)
        assert got == pytest.approx(self._register_p_even(a, b, partition), abs=1e-12)
        rest = [s for s in range(n) if s not in partition]
        assert abs(got - self._register_p_even(a, b, rest)) > 1e-6

    def test_pauli_rep_input(self, gen):
        a = random_state(gen, 4, PAULI)
        b = random_state(gen, 4, PAULI)
        for x, y in [(a, a), (a, b)]:
            got = _even_sign_probability(x, y, [0, 2])
            assert got == pytest.approx(self._register_p_even(x, y, [0, 2]), abs=1e-12)

    @settings(deadline=None)
    @given(st.integers(2, 4), st.booleans(), st.booleans(), st.data())
    def test_p_even_in_either_rep_matches_the_joint_register(self, n, same, pauli, data):
        sites = sorted(data.draw(
            st.lists(st.integers(0, n - 1), min_size=1, max_size=n - 1, unique=True)))
        gen = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        basis = PAULI if pauli else COMPUTATIONAL
        a = random_state(gen, n, basis)
        b = a if same else random_state(gen, n, basis)
        got = _even_sign_probability(a, b, sites)
        assert got == pytest.approx(self._register_p_even(a, b, sites), abs=1e-12)

    @pytest.mark.parametrize("partition", [[0], [1, 2], [0, 1, 3], [2]])
    def test_expected_sign_is_the_oracle_purity(self, gen, partition):
        op = ginibre(gen, 16)
        st = vectorize(op, COMPUTATIONAL)
        p_even = _even_sign_probability(st, st, partition)
        assert p_even == pytest.approx(self._register_p_even(st, st, partition), abs=1e-12)
        assert 2.0 * p_even - 1.0 == pytest.approx(exact_loe(op, partition)["trace"], abs=1e-12)

    def test_estimate_stays_small_in_memory(self, gen):
        # the two-copy register alone would be 16 * 4^10 bytes = 16 MiB
        st = random_state(gen, 5)
        for partition in ([0, 1], [0, 2, 4]):
            tracemalloc.start()
            try:
                estimate_loe2(st, st, partition, 4096, RngStream(7))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 1 << 20


class TestInterferometric:
    def test_identity_evolution_exact(self):
        z = PauliSum.from_terms([(1.0, word("Z"))])
        st = interferometric_state(z, z, Circuit(1), Circuit(1))
        rep = estimate_corr_interferometric(st, 300, RngStream(61))
        assert rep.value == 1.0
        assert rep.stderr == 0.0
        assert rep.metadata == {"basis": "x"}

    def test_matches_trace_generic(self):
        h = ising_chain(2)
        u = trotter_circuit(h, 0.6, 12)
        u2 = trotter_circuit(h, 1.1, 12)
        o = PauliSum.from_terms([(1.0, word("ZI"))])
        o2 = PauliSum.from_terms([(1.0, word("XI"))])
        st = interferometric_state(o, o2, u, u2)
        rep = estimate_corr_interferometric(st, 40_000, RngStream(67))
        ev = exact_heisenberg(o.to_dense(), dense_unitary(u))
        ev2 = exact_heisenberg(o2.to_dense(), dense_unitary(u2))
        want = float(np.trace(ev2 @ ev).real) / 4
        assert abs(rep.value - want) < 3 * rep.stderr + 1e-12

    def test_rejects_even_register(self):
        reg = QState(2, np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(ValueError, match="ancilla"):
            estimate_corr_interferometric(reg, 10, RngStream(0))

    @pytest.mark.parametrize("op2, want", [("XIZ", 0.0), ("ZXI", 0.3622)])
    def test_rounding_dust_leaves_the_draw_unchanged(self, gen, op2, want):
        # One binomial draw from the ancilla's <X>: a 1e-15 change to every
        # amplitude redraws nothing, at <X> = 0 (p = 1/2, where numpy's draw
        # mirrors) as elsewhere.
        h = ising_chain(3)
        st = interferometric_state(
            PauliSum.from_text("1 0 ZXI"), PauliSum.from_text(f"1 0 {op2}"),
            trotter_circuit(h, 0.7, 5), trotter_circuit(h, -0.4, 3),
        )
        dust = 1e-15 * (gen.normal(size=2**st.k) + 1j * gen.normal(size=2**st.k))
        moved = QState(st.k, st.amplitudes + dust)
        assert not np.array_equal(moved.amplitudes, st.amplitudes)
        for seed in range(20):
            a = estimate_corr_interferometric(st, 4096, RngStream(seed))
            b = estimate_corr_interferometric(moved, 4096, RngStream(seed))
            assert (a.value, a.stderr) == (b.value, b.stderr)
            assert abs(a.value - want) < 4 * a.stderr


def _per_shot_sample(w, shots, rng):
    """nqubit_sample with one searchsorted call per shot, as a reference."""
    cdfs = np.cumsum(np.abs(w) ** 2, axis=0)
    cdfs /= cdfs[-1]
    gen = rng.generator
    i_arr = gen.integers(0, len(w), size=shots)
    u_arr = gen.random(shots)
    j_arr = np.empty(shots, dtype=np.int64)
    for idx in range(shots):
        j_arr[idx] = np.searchsorted(cdfs[:, i_arr[idx]], u_arr[idx], side="right")
    return np.stack([i_arr.astype(np.int64), j_arr], axis=1)


class TestRandomizedSampler:
    @pytest.mark.parametrize("shots", [1, 7, 3000])
    def test_matches_per_shot_loop(self, shots):
        v = trotter_circuit(ising_chain(3), 0.8, 4)
        u_phi = random_clifford_circuit(3, 2, RngStream(5))
        u_psi = Circuit(3, [Gate("ry", (1,), 0.4), Gate("h", (2,))])
        w = dense_unitary(u_phi.concat(v).concat(u_psi.inverse()))
        got = nqubit_sample(w, shots, RngStream(11))
        want = _per_shot_sample(w, shots, RngStream(11))
        assert np.array_equal(got, want)

    def test_identity_returns_diagonal(self):
        samples = nqubit_sample(np.eye(4), 500, RngStream(71))
        assert samples.shape == (500, 2)
        assert samples.dtype == np.int64
        assert np.array_equal(samples[:, 0], samples[:, 1])

    def test_matches_born_distribution(self):
        w = dense_unitary(random_clifford_circuit(2, 2, RngStream(73)))
        samples = nqubit_sample(w, 40_000, RngStream(79))
        probs = np.abs(w) ** 2 / 4
        emp = np.zeros((4, 4))
        for i, j in samples:
            emp[j, i] += 1.0 / samples.shape[0]
        assert 0.5 * np.abs(emp - probs).sum() < 0.02

    def test_deterministic_per_seed(self):
        w = dense_unitary(random_clifford_circuit(2, 2, RngStream(73)))
        a = nqubit_sample(w, 100, RngStream(3))
        b = nqubit_sample(w, 100, RngStream(3))
        assert np.array_equal(a, b)

    def test_rejects_a_non_square_w(self):
        with pytest.raises(ValueError, match="square"):
            nqubit_sample(np.eye(4)[:2], 10, RngStream(0))

    def test_shots_are_stated_before_the_first_draw(self):
        # 10^15 shots ask for 48 bytes each: refused before any per-shot
        # array is drawn.
        w = dense_unitary(random_clifford_circuit(3, 2, RngStream(73)))
        assert refusal_peak(lambda: nqubit_sample(w, 10**15, RngStream(3)), 48 * 10**15) < 1 << 16

    def test_per_shot_bytes_stay_within_the_statement(self):
        w = dense_unitary(random_clifford_circuit(7, 2, RngStream(73)))
        shots = 200_000
        tracemalloc.start()
        try:
            nqubit_sample(w, shots, RngStream(3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _NQUBIT_SHOT_BYTES * shots


class TestPairCounting:
    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_matches_unique_rows(self, n):
        # Uniform pairs, and a sampler's skewed ones with many repeats.
        gen = np.random.default_rng(n)
        w = dense_unitary(trotter_circuit(ising_chain(n), 0.8, 4))
        for samples in (
            gen.integers(0, 2**n, size=(3000, 2), dtype=np.int64),
            nqubit_sample(w, 3000, RngStream(n)),
        ):
            want_uniq, want_cnt = np.unique(samples, axis=0, return_counts=True)
            uniq, cnt = _count_pairs(samples, n)
            assert uniq.dtype == want_uniq.dtype and cnt.dtype == want_cnt.dtype
            assert np.array_equal(uniq, want_uniq)
            assert np.array_equal(cnt, want_cnt)


def _sampled_w(monkeypatch, op, u, pairs):
    """The W that nqubit_otoc hands to nqubit_sample."""
    seen = []

    def spy(w, shots, rng):
        seen.append(w)
        return nqubit_sample(w, shots, rng)

    monkeypatch.setattr(estimators, "nqubit_sample", spy)
    nqubit_otoc(op, u, pairs, 16, RngStream(0))
    return seen[0]


def _dense_w(op, u, pairs):
    """W = D_L U^dag P U D_R^dag as one dense unitary of the circuits u,
    then P, then u^-1, between the two eigenbasis circuits."""
    n = op.n
    gates = [Gate(op.site(i).lower(), (i,)) for i in range(n) if op.site(i) != "I"]
    v = u.concat(Circuit(n, gates)).concat(u.inverse())
    diag_left = common_eigenbasis_circuit([l for l, _ in pairs])
    diag_right = common_eigenbasis_circuit([r for _, r in pairs])
    return dense_unitary(diag_right.inverse().concat(v).concat(diag_left))


class TestRandomizedOtoc:
    def test_flip_word_exact(self):
        # V = X0 maps every outcome to its bit-flip, so the measured product
        # of signs is -1 on each shot
        pairs = [(word("ZI"), word("ZI"))]
        reports = nqubit_otoc(word("XI"), Circuit(2), pairs, 200, RngStream(83))
        assert reports[0].value == -1.0
        assert reports[0].stderr == 0.0
        assert reports[0].metadata == {"left": "ZI", "right": "ZI"}

    def test_matches_oracle_trotterized(self):
        n = 2
        u = trotter_circuit(ising_chain(n), 0.9, 8)
        op = word("XI")
        op_circ = Circuit(n, [Gate("x", (0,))])
        vd = dense_unitary(u.concat(op_circ).concat(u.inverse()))
        pairs = [
            (word("ZI"), word("IZ")),
            (word("IZ"), word("ZI")),
            (word("ZZ"), word("ZZ")),
        ]
        reports = nqubit_otoc(op, u, pairs, 20_000, RngStream(89))
        for rep, (left, right) in zip(reports, pairs):
            want = exact_otoc(vd, left.to_dense(), right.to_dense())
            assert abs(rep.value - want) < 3 * rep.stderr + 1e-12

    # Pairs with X and Y make eigenbasis circuits with S gates, whose
    # conjugates on the column qubits are S^dag.
    @pytest.mark.parametrize("op, pairs", [
        ("XZI", [("YXI", "XYI")]),
        ("YIZ", [("IIZ", "IIZ")]),
        ("ZZY", [("YYI", "XXI"), ("ZZI", "ZZI")]),
        ("IXZY", [("YXIZ", "XYZI")]),
    ])
    def test_w_is_the_dense_unitary(self, monkeypatch, op, pairs):
        n = len(op)
        u = trotter_circuit(ising_chain(n), 0.7, 8)
        pairs = [(word(l), word(r)) for l, r in pairs]
        got = _sampled_w(monkeypatch, word(op), u, pairs)
        assert np.max(np.abs(got - _dense_w(word(op), u, pairs))) < 1e-12

    def test_n7_runs_no_dense_unitary(self, monkeypatch):
        calls = []

        def spy(circuit):
            calls.append(circuit)
            return dense_unitary(circuit)

        monkeypatch.setattr(simulator, "dense_unitary", spy)
        monkeypatch.setattr(estimators, "dense_unitary", spy, raising=False)
        u = trotter_circuit(ising_chain(7), 1.0, 64)
        pairs = [(word("YXIIIII"), word("IIIZIYI"))]
        nqubit_otoc(word("IXZIIII"), u, pairs, 4096, RngStream(5))
        assert calls == []

    def test_rejects_noncommuting(self):
        pairs = [(word("XI"), word("II")), (word("ZI"), word("II"))]
        with pytest.raises(NonCommutingSetError) as err:
            nqubit_otoc(word("XI"), Circuit(2), pairs, 10, RngStream(0))
        assert err.value.witness == (0, 1)

    def test_rejects_entangled_eigenbasis(self):
        # commuting only after lifting: fine on the doubled register, not here
        pairs = [(word("XI"), word("XI")), (word("ZI"), word("ZI"))]
        with pytest.raises(EntangledEigenbasisError):
            nqubit_otoc(word("XI"), Circuit(2), pairs, 10, RngStream(0))

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="qubit count"):
            nqubit_otoc(word("XI"), Circuit(3), [(word("ZI"), word("ZI"))], 10, RngStream(0))


def test_grouped_and_randomized_routes_agree():
    """The doubled-register and single-register estimators target the same
    correlator; their seeded estimates must sit inside joint error bars."""
    n = 2
    u = trotter_circuit(ising_chain(n), 1.1, 12)
    op = word("XI")
    op_circ = Circuit(n, [Gate("x", (0,))])
    evolved = exact_heisenberg(op.to_dense(), dense_unitary(u))
    pairs = [(word("ZI"), word("ZI"))]
    grouped = estimate_otoc_group(
        vectorize(evolved, COMPUTATIONAL), pairs, 20_000, RngStream(97)
    )[0]
    randomized = nqubit_otoc(op, u, pairs, 20_000, RngStream(101))[0]
    assert abs(grouped.value - randomized.value) < 3 * (
        grouped.stderr + randomized.stderr
    )


def test_bell_transform_preserves_grouped_estimates():
    """Rep conversion inside the estimator cannot change the exact value."""
    st_c = word_state("Z", COMPUTATIONAL)
    st_p = bell_transform(st_c, "c_to_p")
    pairs = [(word("X"), word("X"))]
    a = estimate_otoc_group(st_c, pairs, 40, RngStream(7))[0]
    b = estimate_otoc_group(st_p, pairs, 40, RngStream(7))[0]
    assert a.value == pytest.approx(b.value, abs=1e-12)
