"""Command runner end to end: artifacts, exit codes, oracle blocks, and
byte-level determinism, all driven in process through main()."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from helpers import ising_chain, refusal_peak, spy_calls

import opvec
from opvec import _linalg, cli, simulator
from opvec.cli import main
from opvec.estimators import EmpiricalPauliDist
from opvec.vectorize import COMPUTATIONAL, PAULI, load_state, vectorize
from opvec.pauli import PauliString, PauliSum
from opvec.simulator import Gate, heisenberg_doubled, trotter_circuit


HAM3 = {"text": ising_chain(3).to_text()}
BELL_OP3 = {
    "text": "0.7071067811865476 0 XXI\n0.7071067811865476 0 YYI\n"
}


def run_child(tmp_path, cfg, limit, *args) -> subprocess.CompletedProcess:
    """Run one config, with ``args`` appended to its command line, in a
    child process whose address space is capped at ``limit`` bytes."""
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    script = (
        "import resource, sys\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit}))\n"
        "from opvec.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    src = str(Path(opvec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-c", script, cfg["task"], "--config", str(tmp_path / "config.json"),
         "--out", str(tmp_path / "out"), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def run_limited(tmp_path, cfg, limit):
    """Run one config with the oracle in a child process whose address
    space is capped at ``limit`` bytes; returns its report."""
    proc = run_child(tmp_path, cfg, limit, "--with-oracle")
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / "out" / "report.json").read_text())


def run_task(tmp_path, task, out="out", extra_args=(), **cfg):
    cfg.setdefault("task", task)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg, indent=1))
    out_dir = tmp_path / out
    code = main([task, "--config", str(path), "--out", str(out_dir), *extra_args])
    return code, out_dir


class TestEvolve:
    def test_writes_state_and_report(self, tmp_path):
        code, out = run_task(
            tmp_path, "evolve", operator="ZII", hamiltonian=HAM3,
            t=1.0, steps=32, seed=5,
        )
        assert code == 0
        state = load_state(out / "state.bin")
        assert state.n == 3
        assert state.basis == PAULI
        doc = json.loads((out / "report.json").read_text())
        assert doc["task"] == "evolve"
        assert doc["seed"] == 5
        assert abs(doc["value"]) <= 1.0 + 1e-6
        assert doc["params"]["label"] == "autocorrelation"

    def test_no_evolution_is_identity(self, tmp_path):
        code, out = run_task(tmp_path, "evolve", operator="ZII", seed=1)
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)

    def test_computational_basis_artifact(self, tmp_path):
        code, out = run_task(
            tmp_path, "evolve", operator="ZII", basis="computational", seed=1
        )
        assert code == 0
        assert load_state(out / "state.bin").basis == COMPUTATIONAL

    def test_oracle_block_bounds_trotter_bias(self, tmp_path):
        code, out = run_task(
            tmp_path, "evolve", operator="ZII", hamiltonian=HAM3,
            t=1.0, steps=64, seed=5, extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert set(doc["oracle"]) >= {"value", "abs_delta"}
        assert doc["oracle"]["abs_delta"] < 0.05

    def test_seed_override(self, tmp_path):
        code, out = run_task(
            tmp_path, "evolve", operator="ZII", seed=1, extra_args=("--seed", "9")
        )
        assert code == 0
        assert json.loads((out / "report.json").read_text())["seed"] == 9

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = run_task(
            tmp_path, "evolve", out="a", operator="ZII", hamiltonian=HAM3,
            t=1.0, steps=32, seed=5,
        )
        _, out2 = run_task(
            tmp_path, "evolve", out="b", operator="ZII", hamiltonian=HAM3,
            t=1.0, steps=32, seed=5,
        )
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
        assert (out1 / "state.bin").read_bytes() == (out2 / "state.bin").read_bytes()

    def test_huge_trotter_step_count_exits_3(self, tmp_path):
        # 10^8 gates: refused before the gate tuple is built, under the
        # benchmark's 2 GiB address-space ceiling, with no traceback.
        cfg = {"task": "evolve", "operator": "ZZ", "hamiltonian": "ZZ", "t": 1, "steps": 10**8}
        proc = run_child(tmp_path, cfg, 2 << 30)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: a Trotter circuit of 100000000 gates and its lowering needs 4000000000 bytes; "
            f"the byte budget allows {_linalg.BYTE_BUDGET}\n"
        )
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cfg, refusal", [
    ({"task": "nqubit", "operator": "XII", "pairs": [["ZII", "ZII"]], "shots": 10**15},
     "1000000000000000 nqubit shots needs 48000000000000000 bytes"),
    ({"task": "ose", "operator": "XII", "epsilon": 1e-6},
     "8764053269348 stabilizer-entropy samples needs 280449704619136 bytes"),
])
def test_huge_sample_counts_exit_3(tmp_path, cfg, refusal):
    # Refused before the per-shot arrays are drawn, under the benchmark's
    # 2 GiB address-space ceiling, with no traceback.
    proc = run_child(tmp_path, cfg, 2 << 30)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == f"error: {refusal}; the byte budget allows {_linalg.BYTE_BUDGET}\n"
    assert not (tmp_path / "out").exists()


class TestSample:
    def test_largest_shot_count_samples(self, tmp_path):
        code, out = run_task(tmp_path, "sample", operator="XII", shots=2**63 - 1, seed=1)
        assert code == 0
        assert json.loads((out / "report.json").read_text())["shots"] == 2**63 - 1

    def test_distribution_artifact(self, tmp_path):
        code, out = run_task(
            tmp_path, "sample", operator="ZII", hamiltonian=HAM3,
            t=0.8, steps=32, shots=4096, seed=7,
        )
        assert code == 0
        dist = EmpiricalPauliDist.from_csv((out / "dist.csv").read_text())
        assert dist.shots == 4096
        doc = json.loads((out / "report.json").read_text())
        assert doc["params"]["distinct"] == len(dist.counts)
        assert len(doc["params"]["mode"]) == 3

    def test_oracle_tv_distance(self, tmp_path):
        code, out = run_task(
            tmp_path, "sample", operator="ZII", hamiltonian=HAM3,
            t=0.8, steps=32, shots=4096, seed=7, extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["oracle"]["tv_distance"] < 0.1

    def test_byte_identical_reruns(self, tmp_path):
        _, out1 = run_task(
            tmp_path, "sample", out="a", operator="ZII", shots=512, seed=3
        )
        _, out2 = run_task(
            tmp_path, "sample", out="b", operator="ZII", shots=512, seed=3
        )
        assert (out1 / "dist.csv").read_bytes() == (out2 / "dist.csv").read_bytes()
        assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


class TestOtoc:
    def test_unevolved_word_is_exact(self, tmp_path):
        code, out = run_task(
            tmp_path, "otoc", operator="ZII",
            pairs=[["ZII", "ZII"], ["IZI", "IZI"]],
            shots=256, seed=11, extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == 1.0
        assert doc["stderr"] == 0.0
        assert len(doc["reports"]) == 2
        for entry in doc["reports"]:
            assert entry["oracle"]["abs_delta"] == 0.0

    def test_evolved_reports_stay_bounded(self, tmp_path):
        code, out = run_task(
            tmp_path, "otoc", operator="ZII", hamiltonian=HAM3,
            t=0.7, steps=32, pairs=[["ZII", "ZII"], ["ZZI", "ZZI"]],
            shots=2048, seed=13,
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        for entry in doc["reports"]:
            assert abs(entry["value"]) <= 1.0 + 3 * entry["stderr"] + 1e-12

    def test_noncommuting_pairs_exit_code(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "otoc", operator="ZII",
            pairs=[["XII", "III"], ["ZII", "III"]],
            shots=16, seed=1,
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err


class TestSuperop:
    def test_diagonal_point_mass(self, tmp_path):
        code, out = run_task(
            tmp_path, "superop", operator="XII", superop="size",
            shots=512, seed=17, extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == 1.0
        assert doc["oracle"]["abs_delta"] < 1e-12
        assert (out / "dist.csv").exists()

    def test_operator_sum_grouped(self, tmp_path):
        lines = ["2.25 0 III III"]
        for site in range(3):
            for letter in "XYZ":
                label = "".join(letter if i == site else "I" for i in range(3))
                lines.append(f"-0.25 0 {label} {label}")
        code, out = run_task(
            tmp_path, "superop", operator="XII",
            superop={"text": "\n".join(lines)},
            shots=4096, seed=19, extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)
        assert doc["stderr"] == 0.0
        assert doc["params"]["groups"] == 9
        assert doc["oracle"]["abs_delta"] < 1e-12

    @pytest.mark.parametrize("superop", ["size", {"text": "0.5 0 XII XII"}])
    def test_power_below_one_is_config_error(self, tmp_path, capsys, superop):
        code, out = run_task(tmp_path, "superop", operator="XII", superop=superop,
                             power=0, seed=1)
        assert code == 2
        assert "power: must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    def test_operator_sum_moment_is_config_error(self, tmp_path, capsys):
        # Until operator-sum moments land, a second moment would be written
        # as the first while its oracle block held the second.
        code, out = run_task(tmp_path, "superop", operator="XII",
                             superop={"text": "0.5 0 XII XII"}, power=2, seed=1)
        assert code == 2
        assert "power: moments above 1 need a diagonal superoperator" in capsys.readouterr().err
        assert not out.exists()

    def test_diagonal_moment_reports_its_power(self, tmp_path):
        code, out = run_task(tmp_path, "superop", operator="XII", superop="size",
                             power=2, shots=512, seed=17, extra_args=("--with-oracle",))
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["params"]["power"] == 2
        assert doc["value"] == 1.0 and doc["oracle"]["abs_delta"] < 1e-12


class TestOse:
    def test_point_mass_purity(self, tmp_path):
        code, out = run_task(
            tmp_path, "ose", operator="XII", seed=23,
            extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == 1.0
        assert doc["params"]["entropy"] == 0.0
        assert doc["shots"] == 1754
        assert doc["oracle"]["abs_delta"] < 1e-12


class TestLoe:
    def test_balanced_cut(self, tmp_path):
        code, out = run_task(
            tmp_path, "loe", operator=BELL_OP3, partition=[0],
            shots=4096, seed=29, extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["oracle"]["value"] == pytest.approx(0.5, abs=1e-12)
        assert abs(doc["value"] - 0.5) < 3 * doc["stderr"]
        assert doc["params"]["partition"] == [0]

    def test_dense_cap_runs_under_one_gib(self, tmp_path):
        # The two-copy register at n=7 would be 4 GiB: under the ceiling a
        # regression raises MemoryError instead of exhausting the machine.
        shots = 4096
        cfg = dict(
            task="loe", operator="ZIIIIII", hamiltonian={"text": ising_chain(7).to_text()},
            t=1.0, steps=16, partition=[0, 1, 2], shots=shots, seed=3,
        )
        doc = run_limited(tmp_path, cfg, 1 << 30)
        assert doc["oracle"]["abs_delta"] <= 5 * doc["stderr"] + 1 / shots

    def test_evolves_into_the_pauli_rep_with_no_basis_change(self, tmp_path, monkeypatch):
        calls = spy_calls(monkeypatch, "bell_transform", "run_passes")
        code, out = run_task(tmp_path, "loe", operator="ZII", hamiltonian=HAM3, t=1.0,
                             steps=16, partition=[0], shots=4096, seed=7,
                             extra_args=("--with-oracle",))
        assert code == 0
        # run_passes is the evolution's own pass loop, not a basis change
        assert "bell_transform" not in calls and "run_passes" in calls
        doc = json.loads((out / "report.json").read_text())
        assert doc["oracle"]["abs_delta"] <= 5 * doc["stderr"] + 1 / 4096

    def test_rejects_full_partition(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "loe", operator="ZII", partition=[0, 1, 2], seed=1
        )
        assert code == 2
        assert "proper subset" in capsys.readouterr().err


class TestCorr:
    def test_self_correlation_exact(self, tmp_path):
        code, out = run_task(
            tmp_path, "corr", operator="ZII", shots=256, seed=31,
            extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == 1.0
        assert doc["stderr"] == 0.0
        assert doc["oracle"]["abs_delta"] < 1e-12

    def test_evolved_self_correlation_decays(self, tmp_path):
        # tr(A A(t))/2^n falls below 1 once A stops commuting with H.
        code, out = run_task(
            tmp_path, "corr", operator="XII", hamiltonian=HAM3, t=1.0, steps=32,
            shots=4096, seed=31, extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["oracle"]["value"] < 0.6
        assert doc["value"] < 0.6
        assert doc["oracle"]["abs_delta"] <= 5 * doc["stderr"]

    def test_past_the_old_cap_under_two_gib(self, tmp_path):
        # n=9: a 19-qubit register and two 2^10-sided controlled blocks.
        shots = 4096
        cfg = dict(
            task="corr", operator="ZX" + "I" * 7, hamiltonian={"text": ising_chain(9).to_text()},
            t=1.0, steps=16, shots=shots, seed=5,
        )
        doc = run_limited(tmp_path, cfg, 2 << 30)
        assert doc["params"]["n"] == 9
        assert doc["oracle"]["abs_delta"] <= 5 * doc["stderr"] + 1 / shots

    def test_unitary_sum_of_words_runs(self, tmp_path):
        # 0.6 X + 0.8 Z squares to I: unitary, though not one Pauli word.
        code, out = run_task(
            tmp_path, "corr", operator={"text": "0.6 0 XII\n0.8 0 ZII"}, shots=256, seed=31,
            extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == 1.0 and doc["oracle"]["abs_delta"] < 1e-12

    def test_orthogonal_pair_centers_on_zero(self, tmp_path):
        code, out = run_task(
            tmp_path, "corr", operator="ZII", operator_b="XII",
            shots=4096, seed=37,
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert abs(doc["value"]) < 3 * doc["stderr"] + 1e-12


class TestChoi2pc:
    def test_bitflip_dual(self, tmp_path):
        code, out = run_task(
            tmp_path, "choi2pc", operator="ZII", p=0.1, site=0, seed=41,
            extra_args=("--with-oracle",),
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == pytest.approx(0.8**2 / 2, abs=1e-12)
        assert doc["oracle"]["abs_delta"] < 1e-12
        assert doc["oracle"]["state_fidelity"] == pytest.approx(1.0, abs=1e-6)
        state = load_state(out / "state.bin")
        want = vectorize(PauliString.from_label("ZII").to_dense(), COMPUTATIONAL)
        assert np.allclose(state.amplitudes, want.amplitudes, atol=1e-6)

    def test_fully_depolarizing_flip_fails(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "choi2pc", operator="ZII", p=0.5, site=0, seed=1
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestNqubit:
    def test_flip_word_exact(self, tmp_path):
        code, out = run_task(
            tmp_path, "nqubit", operator="XII",
            pairs=[["ZII", "ZII"]], shots=256, seed=43,
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == -1.0
        assert doc["stderr"] == 0.0

    def test_entangled_family_exit_code(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "nqubit", operator="XII",
            pairs=[["XII", "XII"], ["ZII", "ZII"]], shots=16, seed=1,
        )
        assert code == 4
        assert "error:" in capsys.readouterr().err

    def test_rejects_composite_operator(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "nqubit", operator={"text": "0.5 0 XII\n0.5 0 ZII"},
            pairs=[["ZII", "ZII"]], seed=1,
        )
        assert code == 2
        assert "single unit-coefficient Pauli" in capsys.readouterr().err


class TestParserReuse:
    """Calls of main in one process share one parser; each must write what
    the same command writes from a fresh interpreter."""

    CONFIGS = {
        "nqubit": {"operator": "XII", "pairs": [["ZII", "ZII"], ["IZI", "IIZ"]],
                   "hamiltonian": HAM3, "t": 0.5, "steps": 8, "shots": 512, "seed": 3},
        "evolve": {"operator": "ZII", "hamiltonian": HAM3, "t": 1.0, "steps": 16, "seed": 5},
        "sample": {"operator": {"text": "0.6 0 XZI\n0.8 0 IYY\n"}, "shots": 256, "seed": 7},
    }

    def test_calls_in_one_process_match_runs_alone(self, tmp_path):
        calls = [
            ("nqubit", ["--seed", "11", "--with-oracle"]),
            ("evolve", []),
            ("sample", ["--with-oracle"]),
            ("nqubit", []),
        ]
        src = str(Path(opvec.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        cli._parser.cache_clear()
        for i, (task, flags) in enumerate(calls):
            path = tmp_path / f"{task}.json"
            path.write_text(json.dumps({"task": task, **self.CONFIGS[task]}))
            argv = [task, "--config", str(path), *flags, "--out"]
            assert main([*argv, str(tmp_path / f"shared{i}")]) == 0
            alone = subprocess.run(
                [sys.executable, "-m", "opvec.cli", *argv, str(tmp_path / f"alone{i}")],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert alone.returncode == 0, alone.stderr
            names = sorted(f.name for f in (tmp_path / f"alone{i}").iterdir())
            assert sorted(f.name for f in (tmp_path / f"shared{i}").iterdir()) == names
            for name in names:
                want = (tmp_path / f"alone{i}" / name).read_bytes()
                assert (tmp_path / f"shared{i}" / name).read_bytes() == want, (i, name)
        assert cli._parser.cache_info().misses == 1
        # No flag of one call carries over to the next.
        first, last = (json.loads((tmp_path / f"shared{i}/report.json").read_text()) for i in (0, 3))
        assert first["seed"] == 11 and all("oracle" in r for r in first["reports"])
        assert last["seed"] == 3 and not any("oracle" in r for r in last["reports"])
        assert "oracle" not in json.loads((tmp_path / "shared1/report.json").read_text())


class TestCompile2d:
    def test_schedule_artifact(self, tmp_path):
        code, out = run_task(
            tmp_path, "compile2d", lattice={"rows": 2, "cols": 2},
            h_x=0.3, h_z=0.7, J=1.1, dt=0.05, seed=47,
            extra_args=("--with-oracle",),
        )
        assert code == 0
        sched = json.loads((out / "schedule.json").read_text())
        assert sched["rows"] == 2 and sched["cols"] == 2
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == 5.0
        assert doc["params"]["gate_counts"] == {
            "rx": 8, "rz": 8, "rzz": 8, "swap": 4,
        }
        assert doc["params"]["violations"] == []
        assert doc["oracle"]["abs_delta"] < 1e-12

    def test_missing_lattice_is_config_error(self, tmp_path, capsys):
        code, _ = run_task(tmp_path, "compile2d", seed=1)
        assert code == 2
        assert "config error: lattice: required" in capsys.readouterr().err

    def test_lattice_past_the_byte_budget_exits_3(self, tmp_path):
        # Refused before the layout is built, under the benchmark's 2 GiB
        # address-space ceiling, with no traceback.
        cfg = {"task": "compile2d", "lattice": {"rows": 2000, "cols": 2000}}
        proc = run_child(tmp_path, cfg, 2 << 30)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: the schedule of a 2000x2000 lattice needs 80000000000 bytes; "
            f"the byte budget allows {_linalg.BYTE_BUDGET}\n"
        )
        assert not (tmp_path / "out").exists()

    def test_oracle_past_the_byte_budget_exits_3(self, tmp_path):
        # The reference's doubled register of 2 * 10^4 qubits: its byte count
        # has 6,000 digits, named as a power of two. It used to exit 1 after
        # 36 s of building the schedule, when str() of that count raised.
        cfg = {"task": "compile2d", "lattice": {"rows": 100, "cols": 100}, "with_oracle": True}
        proc = run_child(tmp_path, cfg, 2 << 30)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr == (
            "error: a doubled evolution on 20000 qubits needs 2^20005 bytes; "
            f"the byte budget allows {_linalg.BYTE_BUDGET}\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rows, cols, admitted", [
        (3, 4, True),  # 12 sites, the largest lattice the oracle ran
        (1, 13, False),
        (100, 100, False),
    ])
    def test_oracle_register_is_stated_before_the_layout(self, tmp_path, monkeypatch,
                                                         rows, cols, admitted):
        class Embedded(Exception):
            pass

        def embed(*args):
            raise Embedded

        monkeypatch.setattr(cli.lattice2d, "embed", embed)
        cfg = {"lattice": {"rows": rows, "cols": cols}, "with_oracle": True}
        if admitted:
            with pytest.raises(Embedded):
                run_task(tmp_path, "compile2d", **cfg)
        else:
            assert run_task(tmp_path, "compile2d", **cfg)[0] == 3


    def test_oracle_reference_runs_one_real_register_and_holds_four(self, monkeypatch):
        # From the Pauli rep, the encoded Z evolves as one float64 register,
        # and exact() peaks at 4.1 registers of 16 * 4^n bytes at 2x4: the
        # lowered state, the reference and the two buffers of its one basis
        # change.
        cfg = {"lattice": {"rows": 2, "cols": 4}, "h_x": 0.7, "h_z": 0.3, "J": 1.0, "dt": 0.1}
        _, _, exact, _ = cli._task_compile2d(cfg, cli.RngStream(1))
        real, seen = simulator.run_passes, []
        monkeypatch.setattr(simulator, "run_passes",
                            lambda vec, *rest: seen.append((vec.dtype, vec.size)) or real(vec, *rest))
        exact()
        # The lowered schedule on the computational state, then the reference.
        assert seen == [(np.complex128, 4**8), (np.float64, 4**8)]
        monkeypatch.undo()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert exact()["abs_delta"] < 1e-13
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 16 * 4**8


class TestConfigValidation:
    def test_missing_operator(self, tmp_path, capsys):
        code, _ = run_task(tmp_path, "evolve", seed=1)
        assert code == 2
        assert "operator: required" in capsys.readouterr().err

    def test_errors_are_aggregated(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "evolve", shots="many", steps=0, basis="diagonal"
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("config error:") >= 4

    def test_unparseable_config(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        code = main(["evolve", "--config", str(path)])
        assert code == 2
        assert "config error:" in capsys.readouterr().err

    def test_unknown_task(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"task": "teleport"}))
        code = main(["evolve", "--config", str(path)])
        assert code == 2
        assert "teleport" in capsys.readouterr().err

    def test_task_subcommand_mismatch(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"task": "sample", "operator": "ZII"}))
        code = main(["evolve", "--config", str(path)])
        assert code == 2
        assert "names task" in capsys.readouterr().err

    def test_hamiltonian_circuit_conflict(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "evolve", operator="ZII", hamiltonian=HAM3,
            circuit={"qubits": 3, "gates": [{"name": "h", "targets": [0]}]},
        )
        assert code == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_width_mismatch(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "evolve", operator="ZI", hamiltonian=HAM3, t=1.0
        )
        assert code == 2
        assert "acts on 3 sites" in capsys.readouterr().err

    def test_operator_file_resolves_next_to_config(self, tmp_path):
        (tmp_path / "op.txt").write_text("1 0 ZII\n")
        code, out = run_task(
            tmp_path, "evolve", operator={"file": "op.txt"}, seed=1
        )
        assert code == 0
        doc = json.loads((out / "report.json").read_text())
        assert doc["value"] == pytest.approx(1.0, abs=1e-12)

    def test_missing_operator_file(self, tmp_path, capsys):
        code, _ = run_task(
            tmp_path, "evolve", operator={"file": "nope.txt"}, seed=1
        )
        assert code == 2
        assert "operator:" in capsys.readouterr().err

    CHOI = dict(operator="ZII", p=0.1, site=0)
    SUM2 = dict(operator="XII", superop={"text": "0.5 0 XII XII\n0.25 0 ZII ZII"})
    OSE_COUNTS = "alpha, epsilon, delta: both shot counts must be below 2^63"

    # Each field is named; out-of-range values exit 2 before any handler
    # runs, where an estimator would raise or numpy overflow.
    @pytest.mark.parametrize("task,cfg,field", [
        ("choi2pc", {**CHOI, "site": "x"}, "site"),
        ("choi2pc", {**CHOI, "site": 1.5}, "site"),
        ("choi2pc", {**CHOI, "site": [0]}, "site"),
        ("choi2pc", {**CHOI, "site": True}, "site"),
        ("choi2pc", {**CHOI, "site": 5}, "site: must lie in 0..2"),
        ("choi2pc", {**CHOI, "p": 1.5}, "p"),
        ("choi2pc", {**CHOI, "p": -0.2}, "p"),
        ("evolve", {"operator": "ZII", "out": 5}, "out"),
        ("loe", {"operator": "ZII", "partition": [True]}, "partition"),
        ("superop", {"operator": "ZII", "superop": "size", "grouping": [[True], [0]]},
         "grouping"),
        ("superop", {**SUM2, "grouping": [[0], [7]]}, "grouping: term indices must lie in 0..1"),
        ("superop", {**SUM2, "grouping": [[-1]]}, "grouping: term indices must lie in 0..1"),
        ("superop", {**SUM2, "grouping": [[0], [0, 1]]}, "grouping: each term index may appear once"),
        ("superop", {**SUM2, "grouping": []}, "grouping: needs at least one nonempty group"),
        ("superop", {**SUM2, "grouping": [[], []]}, "grouping: needs at least one nonempty group"),
        ("superop", {"operator": "ZII", "superop": "size", "grouping": [[0], [5]]},
         "grouping: only an operator-sum superoperator is measured in groups"),
        ("sample", {"operator": "ZII", "seed": -3}, "seed: must be >= 0"),
        ("sample", {"operator": "ZII", "shots": 10**20}, "shots: must lie in 1..2^63 - 1"),
        ("otoc", {"operator": "ZII", "pairs": [["ZII", "ZII"]], "shots": 2**63},
         "shots: must lie in 1..2^63 - 1"),
        ("ose", {"operator": "ZII", "alpha": 10**20}, OSE_COUNTS),
        ("ose", {"operator": "ZII", "alpha": 10**400}, OSE_COUNTS),
        ("ose", {"operator": "ZII", "epsilon": 1e-200}, OSE_COUNTS),
        ("compile2d", {"lattice": {"rows": True, "cols": 2}}, "lattice"),
        # Each range holds whatever the task, as seed's and shots' do.
        ("evolve", {"operator": "ZII", "alpha": 1}, "alpha: purity order must be an integer >= 2"),
        ("sample", {"operator": "ZII", "epsilon": 0}, "epsilon: must be positive"),
        ("choi2pc", {**CHOI, "delta": 1}, "delta: must lie in (0, 1)"),
        ("loe", {"operator": "ZII", "partition": [0], "power": 0}, "power: must be >= 1"),
    ], ids=["site-str", "site-float", "site-list", "site-bool", "site-past-end", "p-above-1",
            "p-below-0", "out-int", "partition-bool", "grouping-bool", "grouping-past-end",
            "grouping-negative", "grouping-repeat", "groups-none", "groups-empty", "grouping-diagonal",
            "seed-negative", "shots-sample", "shots-otoc", "ose-alpha", "ose-alpha-past-float",
            "ose-epsilon", "rows-bool", "alpha-evolve", "epsilon-sample", "delta-choi2pc",
            "power-loe"])
    def test_mistyped_field_is_config_error(self, tmp_path, capsys, task, cfg, field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"task": task, "seed": 1, **cfg}))
        code = main([task, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    # Configs whose fields are each well typed and in range, but which the
    # estimator would refuse at run time with exit 1: the zero operator has
    # no vectorized state, nor has one whose squared coefficients sum below
    # the smallest normal float64 (its norm underflows), and an operator-sum
    # superop's groups must each get a shot, be real and cover every term
    # that is not identity.
    @pytest.mark.parametrize("task,cfg,field", [
        ("evolve", {"operator": {"text": "0 0 XII"}}, "operator: every coefficient is zero"),
        ("evolve", {"operator": {"text": "0.5 0 XII\n-0.5 0 XII"}},
         "operator: every coefficient is zero"),
        ("corr", {"operator": "ZII", "operator_b": {"text": "0 0 XII"}},
         "operator_b: every coefficient is zero"),
        ("evolve", {"operator": {"text": "1e-160 0 ZXI"}}, "operator: the coefficients' squares sum"),
        ("evolve", {"operator": {"text": "1e-300 0 ZXI\n1e-300 0 XII"}},
         "operator: the coefficients' squares sum"),
        ("corr", {"operator": "ZII", "operator_b": {"text": "1e-300 0 XII"}},
         "operator_b: the coefficients' squares sum"),
        ("superop", {"operator": "XII", "shots": 2,
                     "superop": {"text": "0.5 0 XII XII\n0.25 0 ZII ZII\n0.25 0 IZI IZI"}},
         "shots: the 3 measured groups need at least 3 shots"),
        ("superop", {"operator": "XII", "superop": {"text": "0.5 0 III III"}},
         "superop: every term is identity on both sides"),
        ("superop", {"operator": "XII", "superop": {"text": "0 0 XII XII\n0.5 0 ZII ZII"}},
         "superop: a group whose coefficients are all zero gets no shots"),
        ("superop", {**SUM2, "grouping": [[0]]},
         "grouping: every term that is not identity on both sides must be in a group"),
        ("superop", {"operator": "XII", "superop": {"text": "0.5 0.5 XII XII"}},
         "superop: grouped estimation needs real coefficients"),
        ("corr", {"operator": {"text": "0.5 0 XII"}}, "operator: corr needs a unitary operator"),
        ("corr", {"operator": "ZII", "operator_b": {"text": "0.5 0 XII\n0.5 0 ZII"}},
         "operator_b: corr needs a unitary operator"),
        ("corr", {"operator": "ZII", "operator_b": "XI"}, "operator_b: acts on 2 sites, operator on 3"),
        # trotter_circuit's refusal, at any t.
        ("evolve", {"operator": "ZII", "hamiltonian": {"text": "1 1 ZZI"}, "t": 1},
         "hamiltonian: Hamiltonian coefficients must be real"),
        ("evolve", {"operator": "ZII", "hamiltonian": {"text": "1 1 ZZI"}, "t": 0},
         "hamiltonian: Hamiltonian coefficients must be real"),
    ], ids=["zero-operator", "cancelling-terms", "zero-operator-b", "tiny-operator-1e-160",
            "tiny-operator-1e-300", "tiny-operator-b", "shots-below-groups",
            "identity-terms", "zero-group", "term-left-out", "complex-coefficient",
            "corr-nonunitary", "corr-nonunitary-b", "corr-width-b", "hamiltonian-imaginary",
            "hamiltonian-imaginary-at-t0"])
    def test_config_the_estimator_would_refuse_is_config_error(self, tmp_path, capsys, task, cfg,
                                                               field):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"task": task, "seed": 1, **cfg}))
        code = main([task, "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"config error: {field}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("task, fields", [
        ("evolve", {}), ("otoc", {"pairs": [["IZI", "IZI"]]}), ("choi2pc", {"p": 0.1, "site": 0}),
    ])
    def test_a_small_operator_above_the_underflow_still_runs(self, tmp_path, task, fields):
        # 1e-150 squared is 1e-300, a normal float64, so the norm is exact.
        code, out = run_task(tmp_path, task, operator={"text": "1e-150 0 ZXI"}, hamiltonian=HAM3,
                             t=0.5, steps=4, seed=1, extra_args=("--with-oracle",), **fields)
        assert code == 0 and (out / "report.json").exists()

    @pytest.mark.parametrize("grouping,shots", [([[0, 1]], 1), ([[0], [1]], 2)])
    def test_one_shot_per_measured_group_runs(self, tmp_path, grouping, shots):
        code, out = run_task(tmp_path, "superop", seed=1, grouping=grouping, shots=shots,
                             **self.SUM2)
        assert code == 0
        assert json.loads((out / "report.json").read_text())["shots"] == shots


# Every numeric field each task reads, and the base config it is put in.
# A non-finite number in any of them, or in a Pauli-text coefficient or a gate
# angle, would run to a NaN result, an invalid report.json or a traceback.
_PAIRS = {"pairs": [["IZI", "IZI"]]}
_NUMERIC_FIELDS = {
    "evolve": ({"operator": "ZII", "hamiltonian": HAM3}, ["t", "steps", "seed"]),
    "sample": ({"operator": "ZII", "hamiltonian": HAM3}, ["t", "steps", "seed", "shots"]),
    "otoc": ({"operator": "ZII", "hamiltonian": HAM3, **_PAIRS}, ["t", "steps", "shots"]),
    "superop": ({"operator": "ZII", "hamiltonian": HAM3, "superop": "size"},
                ["t", "steps", "shots", "power"]),
    "ose": ({"operator": "ZII", "hamiltonian": HAM3}, ["t", "steps", "alpha", "epsilon", "delta"]),
    "loe": ({"operator": "ZII", "hamiltonian": HAM3, "partition": [0]}, ["t", "steps", "shots"]),
    "corr": ({"operator": "ZXI", "hamiltonian": HAM3}, ["t", "steps", "shots"]),
    "choi2pc": ({"operator": "ZII", "site": 0}, ["p", "site", "seed"]),
    "nqubit": ({"operator": "XII", "hamiltonian": HAM3, **_PAIRS}, ["t", "steps", "shots"]),
    "compile2d": ({"lattice": {"rows": 2, "cols": 2}}, ["dt", "h_x", "h_z", "J"]),
}
_NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.parametrize("value", _NON_FINITE, ids=["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("task,field", [
    (task, field) for task, (_, fields) in _NUMERIC_FIELDS.items() for field in fields
])
def test_non_finite_field_is_config_error(tmp_path, capsys, task, field, value):
    base, _ = _NUMERIC_FIELDS[task]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"task": task, **base, field: value}))  # NaN, Infinity literals
    code = main([task, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config error: {field}: expected" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("task,cfg,field", [
    ("evolve", lambda v: {"operator": {"text": f"{v} 0 XII"}}, "operator"),
    ("evolve", lambda v: {"operator": {"text": f"1 {v} XII"}}, "operator"),
    ("corr", lambda v: {"operator": "ZII", "operator_b": {"text": f"{v} 0 XII"}}, "operator_b"),
    ("evolve", lambda v: {"operator": "ZII", "t": 1.0,
                          "hamiltonian": {"text": f"{v} 0 ZII\n0.25 0 XXI"}}, "hamiltonian"),
    ("superop", lambda v: {"operator": "XII", "superop": {"text": f"{v} 0 XII XII"}}, "superop"),
    ("evolve", lambda v: {"operator": "ZI", "circuit": {"qubits": 2, "gates": [
        {"name": "pexp", "targets": [0, 1], "angle": float(v), "axes": "XX"}]}}, "circuit"),
], ids=["operator-real", "operator-imag", "operator-b", "hamiltonian", "superop", "gate-angle"])
def test_non_finite_coefficient_is_config_error(tmp_path, capsys, task, cfg, field, text):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"task": task, **cfg(text)}))
    code = main([task, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config error: {field}: " in err and "finite" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task,key", [
    ("evolve", "step"), ("sample", "shot"), ("compile2d", "lattices"), ("corr", "operatorB"),
])
def test_key_no_task_reads_is_config_error(tmp_path, capsys, task, key):
    # "step" would otherwise run the default 64 steps.
    base, _ = _NUMERIC_FIELDS[task]
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"task": task, **base, "t": 0.5, key: 3}))
    code = main([task, "--config", str(path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2, err
    assert f"config error: {key}: no task reads this key" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("task", [task for task in cli.TASKS
                                  if task not in cli._FIELDS["t"].readers])
def test_keys_another_task_reads_are_accepted(tmp_path, task):
    # Neither task evolves; the benchmark's compile2d configs carry t and
    # steps, and its choi2pc configs a hamiltonian.
    base, _ = _NUMERIC_FIELDS[task]
    code, out = run_task(tmp_path, task, **base, t=1.0, steps=64, hamiltonian=HAM3,
                         pairs=[["ZII", "ZII"]])
    assert code == 0
    assert (out / "report.json").exists()


@pytest.mark.parametrize("task", [task for task in _NUMERIC_FIELDS
                                  if task in cli._FIELDS["t"].readers])
def test_nonzero_t_with_nothing_to_evolve_is_config_error(tmp_path, capsys, task):
    base, _ = _NUMERIC_FIELDS[task]
    cfg = {key: value for key, value in base.items() if key != "hamiltonian"}
    code, out = run_task(tmp_path, task, **cfg, t=1.0)
    err = capsys.readouterr().err
    assert code == 2, err
    assert "config error: t: nonzero, but there is no hamiltonian or circuit" in err
    assert not out.exists()
    code, out = run_task(tmp_path, task, **cfg, t=0.0)
    assert code == 0


def test_non_finite_result_exits_1_and_writes_nothing(tmp_path, capsys, monkeypatch):
    nan_task = (lambda cfg, rng: (float("nan"), {}, None, {}), "autocorrelation")
    monkeypatch.setitem(cli._TASKS, "evolve", nan_task)
    code, out = run_task(tmp_path, "evolve", operator="ZII")
    assert code == 1
    assert "error: Out of range float values are not JSON compliant" in capsys.readouterr().err
    assert not out.exists()


def ising_spec(n: int, t: float, steps: int) -> dict:
    """The Ising chain's Trotter circuit as inline circuit JSON, one pexp
    per term per step in ising_chain's term order, angle 2 c dt."""
    dt = t / steps
    terms = [(0.5, [i], "Z") for i in range(n)]
    terms += [(0.25, [i, i + 1], "XX") for i in range(n - 1)]
    gates = [
        {"name": "pexp", "targets": targets, "angle": 2 * c * dt, "axes": axes}
        for _ in range(steps)
        for c, targets, axes in terms
    ]
    return {"qubits": n, "gates": gates}


def test_runs_in_one_process_write_what_an_empty_slot_writes(tmp_path, monkeypatch):
    # The README chain as a hamiltonian config, as its inline circuit and
    # with a complex operator share one kept preparation; choi2pc's
    # dilation replaces it; then the first config runs again. Each run
    # writes the bytes of its own run from an empty slot.
    chain = {"text": "0.5 0 ZII\n0.5 0 IZI\n0.5 0 IIZ\n0.25 0 XXI\n0.25 0 IXX\n"}
    base = {"t": 1.0, "steps": 64, "basis": "pauli", "seed": 7}
    configs = [
        ("evolve", {"operator": "ZII", "hamiltonian": chain, **base}),
        ("evolve", {"operator": "ZII", "circuit": ising_spec(3, 1.0, 64), **base}),
        ("choi2pc", {"operator": "ZII", "p": 0.1, "site": 0, "seed": 7}),
        ("evolve", {"operator": {"text": "0.5 0.5 XZI\n"}, "hamiltonian": chain, **base}),
    ]
    alone = []
    for i, (task, cfg) in enumerate(configs):
        simulator._KEPT = None
        code, out = run_task(tmp_path, task, out=f"alone{i}", **cfg)
        assert code == 0
        alone.append(out)
    lowered, real = [], simulator._transfer
    monkeypatch.setattr(simulator, "_transfer", lambda c: lowered.append(c.k) or real(c))
    simulator._KEPT = None
    for j, i in enumerate([0, 1, 3, 2, 0]):
        task, cfg = configs[i]
        code, out = run_task(tmp_path, task, out=f"shared{j}", **cfg)
        assert code == 0
        names = sorted(path.name for path in alone[i].iterdir())
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (alone[i] / name).read_bytes(), (j, name)
    # The inline circuit and the complex operator found the hamiltonian's
    # preparation; the dilation and the rerun after it lowered. The chain
    # tapers, so each of its preparations lowers the circuit and then its
    # conjugate; the dilation, of an ry and a cx, keeps the full register.
    assert lowered == [3, 3, 4, 3, 3]


def test_a_tapered_chain_around_a_dilation_writes_what_a_fresh_process_writes(tmp_path):
    # The chain tapers and choi2pc's dilation keeps the full register: the
    # chain, the dilation and the chain again in one interpreter each write
    # the bytes of their own fresh process.
    chain = {"text": "0.5 0 ZII\n0.5 0 IZI\n0.5 0 IIZ\n0.25 0 XXI\n0.25 0 IXX\n"}
    configs = [
        {"task": "evolve", "operator": "XZI", "hamiltonian": chain, "t": 1.0, "steps": 16, "seed": 7},
        {"task": "choi2pc", "operator": "ZII", "p": 0.1, "site": 1, "seed": 7},
    ]
    fresh = []
    for i, cfg in enumerate(configs):
        (tmp_path / f"fresh{i}").mkdir()
        proc = run_child(tmp_path / f"fresh{i}", cfg, 2 << 30)
        assert proc.returncode == 0, proc.stderr
        fresh.append(tmp_path / f"fresh{i}" / "out")
    simulator._KEPT = None
    for j, i in enumerate([0, 1, 0]):
        fields = dict(configs[i])
        code, out = run_task(tmp_path, fields.pop("task"), out=f"shared{j}", **fields)
        assert code == 0
        names = sorted(path.name for path in fresh[i].iterdir())
        assert sorted(path.name for path in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (fresh[i] / name).read_bytes(), (j, name)


def errors_of_each_gate(spec: dict) -> list[str]:
    """The errors of building every gate of ``spec`` on its own."""
    try:
        for g in spec["gates"]:
            Gate(g["name"], tuple(g["targets"]), g.get("angle"), g.get("axes"))
    except (KeyError, TypeError, ValueError) as exc:
        return [f"circuit: {exc}"]
    return []


# Every register pass of every task: a 2-D matrix of the register's dtype,
# the one step kind that _linalg.run_passes runs. Each evolution kind, with
# a Hermitian and a complex operator (of modulus 1, as corr needs a unitary
# one; nqubit needs a unit coefficient), with and without the oracle.
def _contract_circuit(n):
    extra = [{"name": "h", "targets": [0]}, {"name": "cx", "targets": [n - 1, 0]},
             {"name": "s", "targets": [1]}, {"name": "pexp", "targets": [2, 0, 1], "angle": 0.4,
                                              "axes": "XYZ"}]
    return {"qubits": n, "gates": ising_spec(n, 0.7, 4)["gates"] + extra}


@pytest.mark.parametrize("oracle", [False, True])
@pytest.mark.parametrize("n", [3, 4])
def test_every_pass_is_2d_and_has_the_registers_dtype(tmp_path, monkeypatch, n, oracle):
    seen, real = [], _linalg.run_passes

    def spy(vec, steps, k, plans=None):
        seen.extend((mat.ndim, mat.dtype, vec.dtype) for mat, _ in steps)
        return real(vec, steps, k, plans)

    for mod in list(sys.modules.values()):
        if getattr(mod, "run_passes", None) is real:
            monkeypatch.setattr(mod, "run_passes", spy)
    word = "ZX".ljust(n, "I")
    evolutions = [{}, {"hamiltonian": {"text": ising_chain(n).to_text()}, "t": 0.7, "steps": 4},
                  {"circuit": _contract_circuit(n)}]
    tasks = {"evolve": {}, "sample": {}, "otoc": {"pairs": [[word[::-1]] * 2]},
             "superop": {"superop": "size"}, "ose": {}, "loe": {"partition": [0]}, "corr": {},
             "choi2pc": {"p": 0.1, "site": 0}, "nqubit": {"pairs": [[word] * 2]}}
    flags = ("--with-oracle",) if oracle else ()
    runs = [("compile2d", {"lattice": {"rows": 2, "cols": n - 1}})]
    runs += [(task, {"operator": op, **evolution, **fields})
             for task, fields in tasks.items() for evolution in evolutions
             for op in ([word] if task == "nqubit" else [word, {"text": f"0.6 0.8 {word}"}])]
    for i, (task, cfg) in enumerate(runs):
        assert run_task(tmp_path, task, out=f"out{i}", extra_args=flags, seed=1, **cfg)[0] == 0, cfg
    assert {dtype for _, dtype, _ in seen} == {np.dtype(np.float64), np.dtype(np.complex128)}
    assert all(ndim == 2 and mat == vec for ndim, mat, vec in seen)


class TestInlineCircuit:
    def test_equal_specs_share_one_gate(self, tmp_path):
        circ = cli._load_circuit(ising_spec(7, 1.0, 64), tmp_path, [])
        assert circ.num_gates() == 64 * 13
        assert len({id(g) for g in circ.gates}) == 13

    def test_signed_zero_angles_stay_apart(self, tmp_path):
        rz = [{"name": "rz", "targets": [0], "angle": a} for a in (0.0, -0.0, 0.0, -0.0)]
        gates = list(cli._load_circuit({"qubits": 1, "gates": rz}, tmp_path, []).gates)
        assert gates[0] is gates[2] and gates[1] is gates[3] and gates[0] is not gates[1]
        assert [repr(g.angle) for g in gates] == ["0.0", "-0.0"] * 2

    def test_evolves_as_the_trotter_circuit(self, tmp_path):
        state = vectorize(PauliString.from_label("ZXIIIII").to_dense(), COMPUTATIONAL)
        inline = cli._load_circuit(ising_spec(7, 1.0, 64), tmp_path, [])
        built = trotter_circuit(ising_chain(7), 1.0, 64)
        assert np.array_equal(
            heisenberg_doubled(state, inline).amplitudes,
            heisenberg_doubled(state, built).amplitudes,
        )

    def test_a_repeated_gate_list_loads_one_period(self):
        gates = ising_spec(7, 1.0, 64)["gates"]
        assert cli._spec_period(gates) == 13
        assert cli._spec_period(gates[:-1]) == len(gates) - 1
        assert cli._spec_period([]) == 0

    def test_a_later_period_with_true_targets_is_refused_by_its_index(self, tmp_path, capsys):
        # true == 1, so the list still repeats under ==; it loads spec by spec.
        spec = ising_spec(3, 1.0, 4)
        assert spec["gates"][16] == {**spec["gates"][1], "targets": [1]}
        spec["gates"][16]["targets"] = [True]
        assert cli._spec_period(spec["gates"]) == 20
        code, out = run_task(tmp_path, "evolve", operator="ZII", circuit=spec, seed=1)
        assert code == 2
        assert "config error: circuit: gates[16].targets: expected integers" in capsys.readouterr().err
        assert not out.exists()

    def test_a_negative_zero_in_one_period_keeps_its_gate_apart(self, tmp_path):
        specs = [{"name": "rz", "targets": [0], "angle": 0.0}, {"name": "h", "targets": [0]}] * 4
        specs[4] = {**specs[4], "angle": -0.0}
        assert cli._spec_period(specs) == 8
        gates = cli._load_circuit({"qubits": 1, "gates": specs}, tmp_path, []).gates
        assert gates[0] is gates[2] is gates[6] and gates[4] is not gates[0]
        assert [repr(g.angle) for g in gates[::2]] == ["0.0", "0.0", "-0.0", "0.0"]
        assert len({id(g) for g in gates[1::2]}) == 1

    def test_an_integer_angle_in_one_period_loads_as_the_float(self, tmp_path):
        floats = ising_spec(3, 4.0, 4)
        assert {g["angle"] for g in floats["gates"]} == {1.0, 0.5}
        mixed = ising_spec(3, 4.0, 4)
        for g in mixed["gates"][5:10]:
            g["angle"] = int(g["angle"]) if g["angle"] == 1.0 else g["angle"]
        assert cli._spec_period(mixed["gates"]) == 5
        outs = []
        for name, spec in (("float", floats), ("mixed", mixed)):
            code, out = run_task(tmp_path, "sample", out=name, operator="ZXI", circuit=spec,
                                 t=1.0, seed=3, shots=256)
            assert code == 0
            outs.append(out)
        names = sorted(path.name for path in outs[0].iterdir())
        assert "dist.csv" in names and names == sorted(path.name for path in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name

    @pytest.mark.parametrize("bad", [
        {"name": "h", "targets": [[0]]},
        {"name": ["h"], "targets": [0]},
        {"name": "h", "targets": 0},
        {"name": "h"},
        {"name": "rz", "targets": [0], "angle": [0.5]},
        {"name": "pexp", "targets": [0], "angle": 0.5, "axes": [["Z"]]},
        ["h", [0]],
    ])
    def test_malformed_gates_keep_their_messages(self, tmp_path, bad):
        spec = {"qubits": 1, "gates": [{"name": "h", "targets": [0]}, bad, bad]}
        errors = []
        cli._load_circuit(spec, tmp_path, errors)
        assert errors == errors_of_each_gate(spec)


# The fields besides its evolution that each evolving task needs, on n sites.
def evolving_fields(task: str, n: int) -> dict:
    word = lambda head: head + "I" * (n - len(head))
    return {
        "evolve": {"operator": word("ZX")},
        "sample": {"operator": word("ZX")},
        "otoc": {"operator": word("ZX"), "pairs": [[word("X"), word("X")], [word("IZ")] * 2]},
        "superop": {"operator": word("ZX"), "superop": "size"},
        "ose": {"operator": word("ZX")},
        "loe": {"operator": word("ZX"), "partition": list(range(n // 2))},
        "corr": {"operator": word("ZX"), "operator_b": word("Z")},
        "nqubit": {"operator": word("X"), "pairs": [[word("Z"), word("IZ")]]},
    }[task]


@pytest.mark.parametrize("n", [3, 7])
@pytest.mark.parametrize("task", ["evolve", "sample", "otoc", "superop", "ose", "loe", "corr",
                                  "nqubit"])
def test_hamiltonian_config_runs_as_its_inline_circuit(tmp_path, task, n):
    # A hamiltonian config evolves by trotter_circuit, one pexp per term per
    # step in the order listed: the inline circuit that lists them writes the
    # same bytes in every task.
    common = dict(t=1.0, steps=16, seed=11, shots=512, **evolving_fields(task, n))
    text = "".join(f"{c.real} 0 {p.label}\n" for c, p in ising_chain(n).ordered_items())
    code_h, by_h = run_task(tmp_path, task, out="h", hamiltonian={"text": text}, **common)
    code_c, by_c = run_task(tmp_path, task, out="c", circuit=ising_spec(n, 1.0, 16), **common)
    assert code_h == code_c == 0
    names = sorted(path.name for path in by_h.iterdir())
    assert "report.json" in names and names == sorted(path.name for path in by_c.iterdir())
    for name in names:
        assert (by_h / name).read_bytes() == (by_c / name).read_bytes(), name


def _word5(head: str) -> str:
    return head.ljust(5, "I")


_EVOLVED5 = dict(hamiltonian={"text": ising_chain(5).to_text()}, t=1.0, steps=4)
SINGLE_WORD_N5 = {
    "evolve": dict(operator=_word5("ZX"), **_EVOLVED5),
    "sample": dict(operator=_word5("ZX"), **_EVOLVED5),
    "otoc": dict(operator=_word5("ZX"), pairs=[[_word5("X")] * 2, [_word5("IZ")] * 2], **_EVOLVED5),
    "superop": dict(operator=_word5("ZX"), superop="size", **_EVOLVED5),
    "superop_sum": dict(operator=_word5("ZX"), superop={"text": (
        f"0.5 0 {_word5('X')} {_word5('X')}\n0.25 0 {_word5('Z')} {_word5('IZ')}\n")},
        **_EVOLVED5),
    "ose": dict(operator=_word5("ZX"), **_EVOLVED5),
    "loe": dict(operator=_word5("ZX"), partition=[0, 1], **_EVOLVED5),
    "corr": dict(operator=_word5("ZX"), operator_b=_word5("Z"), **_EVOLVED5),
    "choi2pc": dict(operator=_word5("ZX"), p=0.1, site=0),
    "nqubit": dict(operator=_word5("X"), pairs=[[_word5("Z"), _word5("IZ")]], **_EVOLVED5),
    "compile2d": dict(lattice={"rows": 1, "cols": 5}, h_x=0.3, J=1.1, dt=0.05),
}


def dense_sizes(monkeypatch) -> list[int]:
    """The site count of every Pauli word or sum made dense from here on."""
    sizes = []
    for cls in (PauliString, PauliSum):
        def spy(self, _dense=cls.to_dense):
            sizes.append(self.n)
            return _dense(self)

        monkeypatch.setattr(cls, "to_dense", spy)
    return sizes


@pytest.mark.parametrize("case", sorted(SINGLE_WORD_N5))
def test_no_task_builds_a_dense_operator_without_the_oracle(tmp_path, monkeypatch, case):
    # Gate matrices of one or two sites stay dense; no n-site operator is.
    sizes = dense_sizes(monkeypatch)
    task = case.split("_")[0]
    code, _ = run_task(tmp_path, task, seed=1, **SINGLE_WORD_N5[case])
    assert code == 0
    assert max(sizes, default=0) <= 2


def test_the_dense_spy_sees_the_oracle(tmp_path, monkeypatch):
    sizes = dense_sizes(monkeypatch)
    code, _ = run_task(tmp_path, "superop", seed=1, extra_args=("--with-oracle",),
                       **SINGLE_WORD_N5["superop_sum"])
    assert code == 0
    assert 5 in sizes


class TestCircuitFieldTypes:
    # Gate would coerce each of these with int() or float(); the loader
    # refuses them, naming the gate and its field.
    @pytest.mark.parametrize("circuit, field", [
        ({"qubits": 3.9, "gates": [{"name": "h", "targets": [0]}]}, "qubits"),
        ({"qubits": "3", "gates": [{"name": "h", "targets": [0]}]}, "qubits"),
        ({"qubits": 3, "gates": [{"name": "h", "targets": [0]}, {"name": "h", "targets": [True]}]},
         "gates[1].targets"),
        ({"qubits": 3, "gates": [{"name": "h", "targets": [2.7]}]}, "gates[0].targets"),
        ({"qubits": 3, "gates": [{"name": "h", "targets": ["1"]}]}, "gates[0].targets"),
        ({"qubits": 3, "gates": [{"name": "cx", "targets": [0, 1]},
                                 {"name": "cx", "targets": [0, True]}]}, "gates[1].targets"),
        ({"qubits": 3, "gates": [{"name": "rz", "targets": [0], "angle": True}]}, "gates[0].angle"),
        ({"qubits": 3, "gates": [{"name": "rz", "targets": [0], "angle": "0.5"}]}, "gates[0].angle"),
        # A bad spec after a good one it shares a Gate with (true == 1), and
        # a repeated bad spec: the first bad index is reported.
        ({"qubits": 3, "gates": [{"name": "h", "targets": [1]}, {"name": "h", "targets": [1]},
                                 {"name": "h", "targets": [True]}, {"name": "h", "targets": [True]}]},
         "gates[2].targets"),
        ({"qubits": 3, "gates": [{"name": "rz", "targets": [0], "angle": 0.5},
                                 {"name": "rz", "targets": [0], "angle": "0.5"},
                                 {"name": "rz", "targets": [0], "angle": "0.5"}]}, "gates[1].angle"),
        # A list axis word: refused, not left to crash the lowering.
        ({"qubits": 3, "gates": [{"name": "pexp", "targets": [0], "angle": 0.5, "axes": "Z"},
                                 {"name": "pexp", "targets": [0], "angle": 0.5, "axes": ["Z"]},
                                 {"name": "pexp", "targets": [0], "angle": 0.5, "axes": ["Z"]}]},
         "gates[1].axes"),
    ], ids=["qubits-float", "qubits-str", "target-bool", "target-float", "target-str",
            "target-bool-after-equal-int", "angle-bool", "angle-str", "target-bool-repeated",
            "angle-str-repeated", "axes-list"])
    def test_non_integer_fields_are_config_errors(self, tmp_path, capsys, circuit, field):
        code, out = run_task(tmp_path, "evolve", operator="ZII", circuit=circuit, seed=1)
        assert code == 2
        assert f"config error: circuit: {field}: expected" in capsys.readouterr().err
        assert not out.exists()

    def test_null_angle_is_no_angle(self, tmp_path):
        circuit = {"qubits": 3, "gates": [{"name": "h", "targets": [0], "angle": None}]}
        code, _ = run_task(tmp_path, "evolve", operator="ZII", circuit=circuit, seed=1)
        assert code == 0


class TestCapExit:
    """With the byte budget lowered to one dense 7-site operator, 256 KiB,
    every task refuses 8 sites with exit 3, names the requested and allowed
    bytes, and writes nothing."""

    BUDGET = 16 * 4**7
    REFUSAL = f" bytes; the byte budget allows {BUDGET}\n"

    @pytest.fixture(autouse=True)
    def lowered_budget(self, monkeypatch):
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", self.BUDGET)

    def test_dense_cap_exit_code(self, tmp_path, capsys):
        code, out = run_task(tmp_path, "evolve", operator="Z" + "I" * 7, seed=1)
        assert code == 3
        assert capsys.readouterr().err == (
            f"error: a register of 16 qubits needs {16 * 4**8}{self.REFUSAL}"
        )
        assert not out.exists()

    W8 = "Z" + "I" * 7
    OPERATOR_TASKS_N8 = {
        "evolve": dict(operator=W8),
        "sample": dict(operator=W8),
        "otoc": dict(operator=W8, pairs=[[W8, W8]]),
        "superop": dict(operator=W8, superop="size"),
        "ose": dict(operator=W8),
        "loe": dict(operator=W8, partition=[0]),
        "corr": dict(operator=W8, operator_b="X" + "I" * 7),
        "choi2pc": dict(operator=W8, p=0.1, site=0),
        "nqubit": dict(operator="X" + "I" * 7, pairs=[[W8, W8]]),
    }

    @pytest.mark.parametrize("task", sorted(OPERATOR_TASKS_N8))
    def test_every_operator_task_refuses_n8(self, tmp_path, capsys, task):
        code, out = run_task(
            tmp_path, task, hamiltonian={"text": ising_chain(8).to_text()}, t=1.0,
            steps=4, seed=1, extra_args=("--with-oracle",), **self.OPERATOR_TASKS_N8[task],
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " needs " in err and err.endswith(self.REFUSAL)
        assert not out.exists()

    def test_corr_unitarity_check_past_the_budget_is_left_to_the_run(self, tmp_path, capsys):
        # Validation cannot afford the dense check of a non-unitary 8-site
        # sum, so it passes it on; the run refuses its register first.
        text = f"0.5 0 {self.W8}\n0.5 0 X{'I' * 7}"
        code, out = run_task(tmp_path, "corr", operator={"text": text}, seed=1)
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: the interferometric state on 17 qubits needs ")
        assert not out.exists()

    def test_oracle_refusal_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # The 3-site estimate fits a budget of one 3-site dense operator; the
        # oracle's working set does not, and the state is not written.
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", 16 * 4**3)
        code, out = run_task(
            tmp_path, "evolve", operator="ZII", hamiltonian=HAM3, t=1.0, steps=8,
            seed=1, extra_args=("--with-oracle",),
        )
        assert code == 3
        assert "the oracle's working set at dimension 8 needs" in capsys.readouterr().err
        assert not out.exists()

    # corr's 3-site estimate needs more than the oracle's 8192 bytes. The
    # per-shot arrays of nqubit and ose are stated too, so they run fewer
    # shots here: 128 of 48 bytes, and 182 outer samples of 32 bytes.
    FEWER_SHOTS = {"nqubit": {"shots": 128}, "ose": {"epsilon": 0.22}}

    @pytest.mark.parametrize("task", sorted(set(OPERATOR_TASKS_N8) - {"corr"}))
    def test_oracle_refuses_before_the_estimate(self, tmp_path, capsys, monkeypatch, task):
        # One byte short of the oracle's working set at 3 sites: the estimate
        # alone fits and runs, but with the oracle no handler is called.
        from test_acceptance import CLI_CASES

        case = {**CLI_CASES[task], **self.FEWER_SHOTS.get(task, {})}
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", 8 * 16 * 4**3 - 1)
        handler, label = cli._TASKS[task]
        calls = []

        def spy(*args):
            calls.append(task)
            return handler(*args)

        monkeypatch.setitem(cli._TASKS, task, (spy, label))
        code, _ = run_task(tmp_path, task, out="plain", seed=1, **case)
        assert code == 0 and calls == [task]
        code, out = run_task(tmp_path, task, seed=1, extra_args=("--with-oracle",), **case)
        assert code == 3 and calls == [task]
        assert capsys.readouterr().err == (
            "error: the oracle's working set at dimension 8 needs 8192 bytes; "
            f"the byte budget allows {8 * 16 * 4**3 - 1}\n"
        )
        assert not out.exists()

    def test_choi2pc_refuses_before_it_vectorizes(self, tmp_path, monkeypatch):
        # The 8-site operator's register fits the budget, the dilated
        # register of 18 qubits does not: the refusal comes before the
        # operator register is built.
        (tmp_path / "config.json").write_text(json.dumps(
            {"task": "choi2pc", "operator": "Z" + "I" * 7, "p": 0.1, "site": 0, "seed": 1}
        ))
        cfg, errors = cli.validate_config(tmp_path / "config.json")
        assert not errors
        monkeypatch.setattr(_linalg, "BYTE_BUDGET", 16 * 4**9 - 1)
        handler, _ = cli._TASKS["choi2pc"]
        peak = refusal_peak(lambda: handler(cfg, cli.RngStream(1)), 16 * 4**9)
        assert peak < 16 * 4**8

    def test_lattice_oracle_refuses_eight_sites(self, tmp_path, capsys):
        code, out = run_task(
            tmp_path, "compile2d", lattice={"rows": 2, "cols": 4},
            h_x=0.5, J=-0.25, dt=0.05, seed=1, extra_args=("--with-oracle",),
        )
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " needs " in err and err.endswith(self.REFUSAL)
        assert not out.exists()


# Exact report.json key sets: top level, params, the oracle block and each
# per-pair entry, for the acceptance CLI configs (seed 9), plus an
# operator-sum superop. Whether delta_over_stderr appears depends on the
# estimate's stderr being nonzero, so it is pinned for these configs only.
SUPEROP_SUM = dict(operator="XII", superop={"text": "0.5 0 XII XII\n0.25 0 ZII ZII"}, shots=1024)
TOP = {"task", "seed", "value", "stderr", "shots", "params"}
EVOLVED = {"label", "n", "t", "steps"}
PAIR = {"left", "right", "value", "stderr", "shots"}
DELTA = {"value", "abs_delta"}
REPORT_KEYS = {
    "evolve": (TOP, EVOLVED | {"basis"}, DELTA, None),
    "sample": (TOP, EVOLVED | {"mode", "distinct"}, {"tv_distance"}, None),
    "otoc": (TOP | {"reports"}, EVOLVED, None,
             [(PAIR, DELTA | {"delta_over_stderr"}), (PAIR, DELTA)]),
    "superop": (TOP, EVOLVED | {"power"}, DELTA, None),
    "superop_sum": (TOP, EVOLVED | {"power", "groups"}, DELTA, None),
    "ose": (TOP, EVOLVED | {"alpha", "epsilon", "delta", "entropy"}, DELTA, None),
    "loe": (TOP, EVOLVED | {"partition"}, DELTA | {"delta_over_stderr"}, None),
    "corr": (TOP, EVOLVED, DELTA | {"delta_over_stderr"}, None),
    "choi2pc": (TOP, {"label", "n", "p", "site"}, DELTA | {"state_fidelity"}, None),
    "nqubit": (TOP | {"reports"}, EVOLVED, None, [(PAIR, DELTA)]),
    "compile2d": (TOP, {"label", "rows", "cols", "depth", "gate_counts",
                        "edges_covered", "violations"}, DELTA, None),
}


@pytest.mark.parametrize("with_oracle", [False, True])
@pytest.mark.parametrize("case", sorted(REPORT_KEYS))
def test_report_key_sets(tmp_path, case, with_oracle):
    from test_acceptance import CLI_CASES

    task = "superop" if case == "superop_sum" else case
    cfg = SUPEROP_SUM if case == "superop_sum" else CLI_CASES[task]
    extra = ("--with-oracle",) if with_oracle else ()
    code, out = run_task(tmp_path, task, extra_args=extra, seed=9, **cfg)
    assert code == 0
    doc = json.loads((out / "report.json").read_text())
    top, params, block, pairs = REPORT_KEYS[case]
    assert set(doc) == (top | {"oracle"} if with_oracle and block else top)
    assert set(doc["params"]) == params
    if with_oracle and block:
        assert set(doc["oracle"]) == block
    if pairs is not None:
        assert len(doc["reports"]) == len(pairs)
        for entry, (keys, pair_block) in zip(doc["reports"], pairs):
            assert set(entry) == (keys | {"oracle"} if with_oracle else keys)
            if with_oracle:
                assert set(entry["oracle"]) == pair_block


def test_readme_field_table_matches_the_cli_table():
    # One README row per row of cli._FIELDS, in its order, with its default.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = [[cell.strip() for cell in line.strip().strip("|").split("|")]
            for line in readme.splitlines() if line.startswith("| `")]
    table = {cells[0].strip("`"): cells[2] for cells in rows if len(cells) == 5}

    def shown(default):
        if default is cli._REQUIRED:
            return "required"
        return "—" if default is None else f"`{json.dumps(default)}`"

    assert list(table) == list(cli._FIELDS)
    assert table == {name: shown(field.default) for name, field in cli._FIELDS.items()}
