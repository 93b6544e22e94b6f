"""Square-grid compilation of doubled-register Trotter steps.

Each lattice site of a 2D mixed-field Ising model owns two device qubits
(the left and right factors of the doubled register), placed side by side
in a horizontal capsule.  Capsule orientation alternates along a row, so
for every lattice edge exactly one of the two copies is device-adjacent
before the mid-step swap of each capsule, and the other becomes adjacent
after it.  One Trotter step of the doubled generator

    -H (x) I  +  I (x) H^T,
    H = h_x * sum_k X_k + h_z * sum_k Z_k - J * sum_<ij> Z_i Z_j,

then compiles to single-qubit field layers plus five entangling layers
(two vertical, one horizontal, the capsule swap, one horizontal), a depth
that does not grow with the lattice.

Schedule angles follow the device convention exp(-i * angle * word): a
left-copy gate for a term with coefficient c carries angle -c*dt and the
matching right-copy gate +c*dt.  The simulator's rotation gates use
half-angle semantics, so `schedule_to_circuit` doubles angles on the way
out and drops swap gates, which are routing only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .pauli import PauliString, PauliSum
from .simulator import Circuit, Gate

Coord = tuple[int, int]

ENTANGLING_NAMES = frozenset({"rzz", "swap"})


@dataclass(frozen=True)
class GridLayout:
    """Placement of the doubled register on a rows x (2*cols) device grid.

    ``placement[site]`` holds the device coordinates of the site's left
    and right qubits, in that order.  Sites are indexed row-major.
    """

    rows: int
    cols: int
    placement: tuple[tuple[Coord, Coord], ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("lattice dimensions must be positive")
        if len(self.placement) != self.rows * self.cols:
            raise ValueError("placement must list every lattice site")
        seen: set[Coord] = set()
        for left, right in self.placement:
            for r, c in (left, right):
                if not (0 <= r < self.rows and 0 <= c < 2 * self.cols):
                    raise ValueError(f"device coordinate {(r, c)} off grid")
                if (r, c) in seen:
                    raise ValueError(f"device coordinate {(r, c)} reused")
                seen.add((r, c))
            if abs(left[0] - right[0]) + abs(left[1] - right[1]) != 1:
                raise ValueError("copy pair must occupy adjacent device qubits")

    @property
    def sites(self) -> int:
        return self.rows * self.cols

    def logical_map(self) -> dict[Coord, tuple[int, int]]:
        """Device coordinate -> (site, copy)."""
        out: dict[Coord, tuple[int, int]] = {}
        for site, (left, right) in enumerate(self.placement):
            out[left] = (site, 0)
            out[right] = (site, 1)
        return out


def embed(rows: int, cols: int) -> GridLayout:
    """Capsule embedding: site (r, c) occupies device row r, columns
    (2c, 2c+1), with the left copy on the even column for even c and on
    the odd column for odd c.  The alternation is what makes one copy of
    every horizontal edge adjacent before the capsule swap."""
    placement = []
    for r in range(rows):
        for c in range(cols):
            left = (r, 2 * c + (c % 2))
            right = (r, 2 * c + 1 - (c % 2))
            placement.append((left, right))
    return GridLayout(rows, cols, tuple(placement))


@dataclass(frozen=True)
class ScheduledGate:
    name: str
    targets: tuple[Coord, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(
            self, "targets", tuple((int(r), int(c)) for r, c in self.targets)
        )


@dataclass(frozen=True)
class ScheduleLayer:
    gates: tuple[ScheduledGate, ...]
    is_swap: bool = False


@dataclass(frozen=True)
class Schedule:
    rows: int
    cols: int
    layers: tuple[ScheduleLayer, ...] = field(default=())

    @property
    def depth(self) -> int:
        return len(self.layers)

    @property
    def entangling_depth(self) -> int:
        return sum(
            1
            for layer in self.layers
            if any(g.name in ENTANGLING_NAMES for g in layer.gates)
        )

    def gate_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for layer in self.layers:
            for g in layer.gates:
                counts[g.name] = counts.get(g.name, 0) + 1
        return counts

    def to_json(self) -> str:
        layers = []
        for layer in self.layers:
            gates = [
                {
                    "gate": g.name,
                    "targets": [list(t) for t in g.targets],
                    "angle": g.angle,
                }
                for g in layer.gates
            ]
            layers.append({"swap": layer.is_swap, "gates": gates})
        doc = {"rows": self.rows, "cols": self.cols, "layers": layers}
        return json.dumps(doc, indent=2, sort_keys=True)


def _swapped_placement(
    placement: tuple[tuple[Coord, Coord], ...],
) -> tuple[tuple[Coord, Coord], ...]:
    return tuple((right, left) for left, right in placement)


def _walk(schedule: Schedule, position: dict[Coord, tuple[int, int]]):
    """Yield (layer index, gate) for every gate in order, with ``position``
    (device coordinate -> (site, copy)) holding the map in force when that
    gate runs. After a swap gate is yielded, its two targets exchange their
    contents, whatever layer it sits in; a swap with a target off the grid
    moves nothing."""
    for li, layer in enumerate(schedule.layers):
        for g in layer.gates:
            yield li, g
            if g.name == "swap" and all(t in position for t in g.targets):
                a, b = g.targets
                position[a], position[b] = position[b], position[a]


def final_layout(layout: GridLayout, schedule: Schedule) -> GridLayout:
    """Layout after executing the schedule: every swap gate exchanges the
    contents of the two qubits it touches."""
    position = layout.logical_map()
    for _ in _walk(schedule, position):
        pass
    slots = {lc: coord for coord, lc in position.items()}
    placement = tuple((slots[(site, 0)], slots[(site, 1)]) for site in range(layout.sites))
    return GridLayout(layout.rows, layout.cols, placement)


def _field_layer(
    placement: tuple[tuple[Coord, Coord], ...], name: str, strength: float, dt: float
) -> ScheduleLayer:
    gates = []
    for left, right in placement:
        gates.append(ScheduledGate(name, (left,), -strength * dt))
        gates.append(ScheduledGate(name, (right,), +strength * dt))
    gates.sort(key=lambda g: g.targets)
    return ScheduleLayer(tuple(gates))


def _coupling_gate(q_a: Coord, q_b: Coord, copy: int, coupling: float, dt: float) -> ScheduledGate:
    # Term coefficient is -J, so the left copy carries +J*dt.
    angle = coupling * dt if copy == 0 else -coupling * dt
    return ScheduledGate("rzz", tuple(sorted((q_a, q_b))), angle)


def trotter_step_schedule(
    h_x: float, h_z: float, J: float, dt: float, layout: GridLayout
) -> Schedule:
    """One first-order Trotter step as device layers.

    Layer order: x fields, z fields, vertical couplings (even edges of the
    left copy with odd edges of the right), the pre-swap horizontal
    couplings, the capsule swap, the remaining vertical couplings, the
    post-swap horizontal couplings.  Layers that would be empty (zero
    strength, or no edges in that direction) are omitted, so a decoupled
    model compiles to field layers alone.
    """
    rows, cols = layout.rows, layout.cols
    pre = layout.placement
    post = _swapped_placement(pre)
    layers: list[ScheduleLayer] = []

    if h_x != 0.0:
        layers.append(_field_layer(pre, "rx", h_x, dt))
    if h_z != 0.0:
        layers.append(_field_layer(pre, "rz", h_z, dt))

    if J != 0.0 and (rows > 1 or cols > 1):
        vertical_a = []
        vertical_b = []
        for r in range(rows - 1):
            for c in range(cols):
                top = r * cols + c
                bottom = (r + 1) * cols + c
                for copy in range(2):
                    gate_pre = _coupling_gate(pre[top][copy], pre[bottom][copy], copy, J, dt)
                    gate_post = _coupling_gate(post[top][copy], post[bottom][copy], copy, J, dt)
                    if (r + copy) % 2 == 0:
                        vertical_a.append(gate_pre)
                    else:
                        vertical_b.append(gate_post)

        horizontal_pre = []
        horizontal_post = []
        for r in range(rows):
            for c in range(cols - 1):
                site_a = r * cols + c
                site_b = r * cols + c + 1
                for copy in range(2):
                    q_a, q_b = pre[site_a][copy], pre[site_b][copy]
                    if abs(q_a[0] - q_b[0]) + abs(q_a[1] - q_b[1]) == 1:
                        horizontal_pre.append(_coupling_gate(q_a, q_b, copy, J, dt))
                    else:
                        horizontal_post.append(
                            _coupling_gate(post[site_a][copy], post[site_b][copy], copy, J, dt)
                        )

        swap_gates = tuple(
            ScheduledGate("swap", tuple(sorted((left, right))))
            for left, right in sorted(pre)
        )
        for gates, is_swap in (
            (vertical_a, False),
            (horizontal_pre, False),
            (tuple(swap_gates) if (horizontal_pre or horizontal_post) else (), True),
            (vertical_b, False),
            (horizontal_post, False),
        ):
            if gates:
                ordered = tuple(sorted(gates, key=lambda g: g.targets))
                layers.append(ScheduleLayer(ordered, is_swap=is_swap))

    return Schedule(rows, cols, tuple(layers))


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    depth: int
    entangling_depth: int
    gate_counts: dict[str, int]
    edges_covered: int

    @property
    def ok(self) -> bool:
        return not self.violations


def _lattice_edges(rows: int, cols: int) -> set[tuple[int, int]]:
    edges = set()
    for r in range(rows):
        for c in range(cols):
            site = r * cols + c
            if c + 1 < cols:
                edges.add((site, site + 1))
            if r + 1 < rows:
                edges.add((site, site + cols))
    return edges


def grid_hamiltonian(rows: int, cols: int, h_x: float, h_z: float, J: float) -> PauliSum:
    """The lattice's H = h_x sum X_k + h_z sum Z_k - J sum_<ij> Z_i Z_j, sites
    row-major. Terms are listed site by site (X field, then Z field), then the
    couplings in sorted edge order; a zero coefficient adds no term."""
    n = rows * cols
    h = PauliSum(n)
    for i in range(n):
        h.add(h_x, PauliString.single(n, i, "X"))
        h.add(h_z, PauliString.single(n, i, "Z"))
    for a, b in sorted(_lattice_edges(rows, cols)):
        h.add(-J, PauliString(n, (1 << a) | (1 << b), 0))
    return h


def validate(schedule: Schedule, layout: GridLayout) -> ValidationReport:
    """Audit a schedule against the device grid and the doubled-model
    contract: adjacency of every two-qubit gate, disjoint targets within a
    layer, same-copy pairing of every coupling (tracked through swaps),
    double coverage of each lattice edge, and opposite left/right angles.

    Violations are reported, never raised."""
    violations: list[str] = []
    position = layout.logical_map()
    edges = _lattice_edges(layout.rows, layout.cols)
    seen: dict[tuple[int, int, int], float] = {}

    used: set[tuple[int, Coord]] = set()  # (layer, target)

    for li, g in _walk(schedule, position):
        for t in g.targets:
            if (li, t) in used:
                violations.append(f"layer {li}: target {t} used twice")
            used.add((li, t))
            if t not in position:
                violations.append(f"layer {li}: target {t} off grid")
        if len(g.targets) == 2:
            (r0, c0), (r1, c1) = g.targets
            if abs(r0 - r1) + abs(c0 - c1) != 1:
                violations.append(
                    f"layer {li}: {g.name} on non-adjacent {g.targets}"
                )
        if g.name == "rzz":
            labels = [position.get(t) for t in g.targets]
            if None in labels:
                continue
            (s_a, k_a), (s_b, k_b) = labels
            if k_a != k_b:
                violations.append(
                    f"layer {li}: coupling mixes copies at {g.targets}"
                )
                continue
            edge = (min(s_a, s_b), max(s_a, s_b))
            if edge not in edges:
                violations.append(
                    f"layer {li}: coupling on non-edge sites {edge}"
                )
                continue
            key = (*edge, k_a)
            if key in seen:
                violations.append(
                    f"layer {li}: edge {edge} copy {k_a} repeated"
                )
            seen[key] = g.angle if g.angle is not None else 0.0

    covered = {(a, b) for a, b, _ in seen}
    for edge in sorted(covered):
        have = [k for k in range(2) if (*edge, k) in seen]
        if len(have) < 2:
            violations.append(f"edge {edge} covered on one copy only")
        else:
            left, right = seen[(*edge, 0)], seen[(*edge, 1)]
            if abs(left + right) > 1e-12:
                violations.append(f"edge {edge} angles not sign-paired")
    if covered and covered != edges:
        missing = sorted(edges - covered)
        violations.append(f"edges missing from coupling layers: {missing}")

    return ValidationReport(
        violations=tuple(violations),
        depth=schedule.depth,
        entangling_depth=schedule.entangling_depth,
        gate_counts=schedule.gate_counts(),
        edges_covered=len(covered),
    )


def schedule_to_circuit(schedule: Schedule, layout: GridLayout) -> Circuit:
    """Lower a schedule to a simulator circuit on the interleaved logical
    register (site i -> qubits 2i, 2i+1).  Swap gates only reroute, so
    they update the device-to-logical map and emit nothing."""
    position = layout.logical_map()
    gates: list[Gate] = []
    for _, g in _walk(schedule, position):
        if g.name != "swap":
            logical = tuple(2 * s + k for s, k in (position[t] for t in g.targets))
            # Schedule angles are exp(-i a W); rotations use exp(-i a W / 2).
            gates.append(Gate(g.name, logical, 2.0 * g.angle))
    return Circuit(2 * layout.sites, gates)
