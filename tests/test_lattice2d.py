"""Device-grid compilation: capsule embedding, schedule shape, audit rules,
and agreement of the lowered circuit with the doubled-register propagator."""

import json

import numpy as np
import pytest

from opvec.lattice2d import (
    GridLayout,
    Schedule,
    ScheduledGate,
    ScheduleLayer,
    embed,
    final_layout,
    grid_hamiltonian,
    schedule_to_circuit,
    trotter_step_schedule,
    validate,
)
from opvec.simulator import dense_unitary, super_propagator_circuit


class TestLayout:
    def test_capsule_alternation(self):
        layout = embed(1, 3)
        assert layout.placement[0] == ((0, 0), (0, 1))
        assert layout.placement[1] == ((0, 3), (0, 2))
        assert layout.placement[2] == ((0, 4), (0, 5))

    def test_site_indexing(self):
        # Sites are row-major: site 5 of a 2x3 lattice is (row 1, col 2).
        layout = embed(2, 3)
        assert layout.sites == 6
        assert layout.placement[5] == ((1, 4), (1, 5))

    def test_logical_map_inverts_placement(self):
        layout = embed(3, 2)
        back = layout.logical_map()
        for site, (left, right) in enumerate(layout.placement):
            assert back[left] == (site, 0)
            assert back[right] == (site, 1)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError, match="positive"):
            GridLayout(0, 2, ())

    def test_rejects_incomplete_placement(self):
        with pytest.raises(ValueError, match="every lattice site"):
            GridLayout(1, 2, (((0, 0), (0, 1)),))

    def test_rejects_off_grid_coordinate(self):
        with pytest.raises(ValueError, match="off grid"):
            GridLayout(1, 1, (((0, 0), (0, 2)),))

    def test_rejects_reused_coordinate(self):
        with pytest.raises(ValueError, match="reused"):
            GridLayout(1, 2, (((0, 0), (0, 1)), ((0, 1), (0, 2))))

    def test_rejects_split_capsule(self):
        with pytest.raises(ValueError, match="adjacent"):
            GridLayout(1, 2, (((0, 0), (0, 3)), ((0, 1), (0, 2))))


class TestScheduleShape:
    def test_three_by_three_counts(self):
        layout = embed(3, 3)
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, layout)
        counts = sched.gate_counts()
        assert counts == {"rx": 18, "rz": 18, "rzz": 24, "swap": 9}
        assert sched.entangling_depth == 5
        assert sched.depth == 7

    @pytest.mark.parametrize("rows,cols", [(2, 2), (2, 3), (3, 2), (3, 4), (4, 4)])
    def test_entangling_depth_constant(self, rows, cols):
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, embed(rows, cols))
        assert sched.entangling_depth == 5
        assert sched.depth == 7

    def test_single_row_drops_vertical_layers(self):
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, embed(1, 3))
        assert sched.entangling_depth == 3
        assert sched.gate_counts()["rzz"] == 4

    def test_decoupled_model_is_fields_only(self):
        sched = trotter_step_schedule(0.9, 0.5, 0.0, 0.05, embed(2, 2))
        assert sched.gate_counts() == {"rx": 8, "rz": 8}
        assert sched.entangling_depth == 0
        assert sched.depth == 2

    def test_zero_fields_drop_their_layers(self):
        sched = trotter_step_schedule(0.0, 0.0, 1.1, 0.05, embed(2, 2))
        assert set(sched.gate_counts()) == {"rzz", "swap"}
        assert sched.depth == 5

    def test_null_model_is_empty(self):
        assert trotter_step_schedule(0.0, 0.0, 0.0, 0.05, embed(2, 2)).depth == 0

    def test_layers_sorted_by_target(self):
        sched = trotter_step_schedule(0.9, 0.0, 0.0, 0.05, embed(2, 2))
        targets = [g.targets for g in sched.layers[0].gates]
        assert targets == sorted(targets)

    def test_left_right_angles_mirror(self):
        layout = embed(2, 2)
        sched = trotter_step_schedule(0.9, 0.0, 0.0, 0.05, layout)
        by_coord = {g.targets[0]: g.angle for g in sched.layers[0].gates}
        for left, right in layout.placement:
            assert by_coord[left] == -by_coord[right]
            assert by_coord[left] == pytest.approx(-0.9 * 0.05)

    def test_json_round_trip_is_stable(self):
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, embed(2, 2))
        doc = json.loads(sched.to_json())
        assert doc["rows"] == 2 and doc["cols"] == 2
        assert len(doc["layers"]) == sched.depth
        again = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, embed(2, 2))
        assert again.to_json() == sched.to_json()


class TestFinalLayout:
    def test_one_step_swaps_every_capsule(self):
        layout = embed(2, 2)
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, layout)
        after = final_layout(layout, sched)
        for site in range(layout.sites):
            left, right = layout.placement[site]
            assert after.placement[site] == (right, left)

    def test_two_steps_restore_placement(self):
        layout = embed(2, 3)
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, layout)
        assert final_layout(final_layout(layout, sched), sched) == layout

    def test_swapless_schedule_is_identity(self):
        layout = embed(2, 2)
        sched = trotter_step_schedule(0.9, 0.5, 0.0, 0.05, layout)
        assert final_layout(layout, sched) == layout


class TestValidation:
    def test_full_step_passes(self):
        layout = embed(3, 3)
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, layout)
        report = validate(sched, layout)
        assert report.ok
        assert report.violations == ()
        assert report.edges_covered == 12
        assert report.entangling_depth == 5

    def test_empty_schedule_passes(self):
        report = validate(Schedule(2, 2, ()), embed(2, 2))
        assert report.ok
        assert report.edges_covered == 0

    def test_flags_non_adjacent_coupling(self):
        layer = ScheduleLayer((ScheduledGate("rzz", ((0, 0), (0, 2)), 0.1),))
        report = validate(Schedule(1, 2, (layer,)), embed(1, 2))
        assert any("non-adjacent" in v for v in report.violations)

    def test_flags_reused_target(self):
        layer = ScheduleLayer(
            (
                ScheduledGate("rx", ((0, 0),), 0.1),
                ScheduledGate("rz", ((0, 0),), 0.1),
            )
        )
        report = validate(Schedule(1, 1, (layer,)), embed(1, 1))
        assert any("used twice" in v for v in report.violations)

    def test_flags_off_grid_target(self):
        layer = ScheduleLayer((ScheduledGate("rx", ((5, 5),), 0.1),))
        report = validate(Schedule(1, 1, (layer,)), embed(1, 1))
        assert any("off grid" in v for v in report.violations)

    def test_flags_off_grid_swap(self):
        # Reported like any off-grid target, and the swap moves nothing.
        layout = embed(2, 2)
        layer = ScheduleLayer((ScheduledGate("swap", ((0, 3), (0, 4))),), is_swap=True)
        report = validate(Schedule(2, 2, (layer,)), layout)
        assert report.violations == ("layer 0: target (0, 4) off grid",)

    def test_flags_copy_mixing(self):
        # both targets sit inside one capsule, so the coupling straddles copies
        layer = ScheduleLayer((ScheduledGate("rzz", ((0, 0), (0, 1)), 0.1),))
        report = validate(Schedule(1, 2, (layer,)), embed(1, 2))
        assert any("mixes copies" in v for v in report.violations)

    def test_flags_non_edge_coupling(self):
        layer = ScheduleLayer((ScheduledGate("rzz", ((0, 0), (0, 4)), 0.1),))
        report = validate(Schedule(1, 3, (layer,)), embed(1, 3))
        assert any("non-edge" in v for v in report.violations)

    def test_flags_repeated_edge(self):
        gate = ScheduledGate("rzz", ((0, 1), (0, 2)), 0.1)
        layers = (ScheduleLayer((gate,)), ScheduleLayer((gate,)))
        report = validate(Schedule(1, 2, layers), embed(1, 2))
        assert any("repeated" in v for v in report.violations)

    def test_flags_single_copy_coverage(self):
        layer = ScheduleLayer((ScheduledGate("rzz", ((0, 1), (0, 2)), 0.1),))
        report = validate(Schedule(1, 2, (layer,)), embed(1, 2))
        assert any("one copy only" in v for v in report.violations)

    def test_flags_unpaired_angles(self):
        # same-sign angles on the two copies of an edge, tracked through
        # the capsule swap
        layout = embed(1, 2)
        layers = (
            ScheduleLayer((ScheduledGate("rzz", ((0, 1), (0, 2)), 0.2),)),
            ScheduleLayer(
                (
                    ScheduledGate("swap", ((0, 0), (0, 1))),
                    ScheduledGate("swap", ((0, 2), (0, 3))),
                ),
                is_swap=True,
            ),
            ScheduleLayer((ScheduledGate("rzz", ((0, 1), (0, 2)), 0.2),)),
        )
        report = validate(Schedule(1, 2, layers), layout)
        assert any("sign-paired" in v for v in report.violations)

    def test_flags_missing_edges(self):
        layout = embed(1, 3)
        layers = (
            ScheduleLayer((ScheduledGate("rzz", ((0, 1), (0, 2)), 0.2),)),
            ScheduleLayer(
                (
                    ScheduledGate("swap", ((0, 0), (0, 1))),
                    ScheduledGate("swap", ((0, 2), (0, 3))),
                ),
                is_swap=True,
            ),
            ScheduleLayer((ScheduledGate("rzz", ((0, 1), (0, 2)), -0.2),)),
        )
        report = validate(Schedule(1, 3, layers), layout)
        assert any("missing" in v for v in report.violations)


def test_every_swap_gate_reroutes_whatever_its_layer():
    # A swap gate in a non-swap layer, then a coupling in a swap layer: the
    # capsule swap moves the edge's coupling from copy 1 to copy 0 in
    # final_layout, validate and schedule_to_circuit alike.
    layout = embed(1, 2)
    layers = (
        ScheduleLayer((ScheduledGate("rzz", ((0, 1), (0, 2)), -0.2),)),
        ScheduleLayer((ScheduledGate("swap", ((0, 0), (0, 1))), ScheduledGate("swap", ((0, 2), (0, 3))))),
        ScheduleLayer((ScheduledGate("rzz", ((0, 1), (0, 2)), 0.2),), is_swap=True),
    )
    sched = Schedule(1, 2, layers)
    assert final_layout(layout, sched).placement == (((0, 1), (0, 0)), ((0, 2), (0, 3)))
    report = validate(sched, layout)
    assert report.ok and report.edges_covered == 1
    circ = schedule_to_circuit(sched, layout)
    assert [(g.name, g.targets, g.angle) for g in circ.gates] == [
        ("rzz", (1, 3), -0.4), ("rzz", (0, 2), 0.4)
    ]


class TestGridHamiltonian:
    def test_fields_site_by_site_then_sorted_edges(self):
        h = grid_hamiltonian(2, 2, 0.3, 0.7, 1.1)
        assert [(c, p.label) for c, p in h.ordered_items()] == [
            (0.3, "XIII"), (0.7, "ZIII"), (0.3, "IXII"), (0.7, "IZII"),
            (0.3, "IIXI"), (0.7, "IIZI"), (0.3, "IIIX"), (0.7, "IIIZ"),
            (-1.1, "ZZII"), (-1.1, "ZIZI"), (-1.1, "IZIZ"), (-1.1, "IIZZ"),
        ]

    def test_zero_coefficients_add_no_term(self):
        h = grid_hamiltonian(1, 3, 0.0, 0.5, 0.0)
        assert [p.label for _, p in h.ordered_items()] == ["ZII", "IZI", "IIZ"]


class TestLowering:
    def test_matches_doubled_propagator(self):
        # one step of the 2x2 model against U^dag (x) U^T on the interleaved
        # register, for the Trotter step U whose Heisenberg picture applies
        # the terms in the order listed; orders agree because couplings commute
        h_x, h_z, J, dt = 0.9, 0.5, 1.1, 0.05
        layout = embed(2, 2)
        sched = trotter_step_schedule(h_x, h_z, J, dt, layout)
        lowered = dense_unitary(schedule_to_circuit(sched, layout))
        n = 4
        u = dense_unitary(super_propagator_circuit(grid_hamiltonian(2, 2, h_x, h_z, J), dt, 1))
        # all left-copy qubits, then all right-copy ones -> [0L, 0R, 1L, 1R, ...]
        order = [q for s in range(n) for q in (s, n + s)]
        doubled = np.kron(u.conj().T, u.T).reshape((2,) * (4 * n))
        reference = doubled.transpose(order + [2 * n + q for q in order]).reshape(4**n, 4**n)
        assert np.max(np.abs(lowered - reference)) < 1e-12

    def test_swap_layers_emit_nothing(self):
        layout = embed(2, 2)
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, layout)
        circ = schedule_to_circuit(sched, layout)
        names = {g.name for g in circ.gates}
        assert names == {"rx", "rz", "rzz"}
        assert circ.k == 8

    def test_lowers_eight_site_lattice(self):
        layout = embed(2, 4)
        sched = trotter_step_schedule(0.9, 0.5, 1.1, 0.05, layout)
        circ = schedule_to_circuit(sched, layout)
        assert circ.k == 16
        counts = sched.gate_counts()
        assert circ.num_gates() == sum(counts.values()) - counts["swap"]
