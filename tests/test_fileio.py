"""JSON problem-file loading, saving, and formatting helpers."""

import json

import numpy as np
import pytest

import penaltyflow as pf
from penaltyflow.errors import FileFormatError
from penaltyflow.fileio import atomic_write_text, fmt


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _scenario_doc():
    return {
        "plant": {"n_xi": 2, "n_u": 1,
                  "A_d": [1.0, 0.1, 0.0, 1.0],
                  "B_d": [0.005, 0.1]},
        "horizon": 3,
        "u_max": 0.5,
        "Q": [1.0, 0.0, 0.0, 1.0],
        "R": [0.1],
        "P": [1.0, 0.0, 0.0, 1.0],
    }


class TestFmt:
    def test_round_trip_exact(self):
        vals = [1.0 / 3.0, 1e-300, -2.5000003141659056, 0.1]
        for v in vals:
            assert float(fmt(v)) == v

    def test_integer_value(self):
        assert fmt(2.0) == "2"


class TestAtomicWrite:
    def test_writes_text(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write_text(p, "hello\n")
        assert p.read_text() == "hello\n"

    def test_overwrites_and_leaves_no_temp(self, tmp_path):
        p = tmp_path / "out.txt"
        atomic_write_text(p, "one")
        atomic_write_text(p, "two")
        assert p.read_text() == "two"
        assert [q.name for q in tmp_path.iterdir()] == ["out.txt"]


class TestQpRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        data, _ = pf.generate_random_qp(4, 3, seed=7)
        p = _write(tmp_path, "qp.json", {
            "n": 4, "nc": 3, "H": data.H.reshape(-1).tolist(),
            "F": data.F.tolist(), "A": data.A.reshape(-1).tolist(),
            "B": data.B.tolist()})
        back = pf.load_qp(p)
        np.testing.assert_array_equal(back.H, data.H)
        np.testing.assert_array_equal(back.F, data.F)
        np.testing.assert_array_equal(back.A, data.A)
        np.testing.assert_array_equal(back.B, data.B)

    def test_unconstrained(self, tmp_path):
        p = _write(tmp_path, "qp.json",
                   {"n": 2, "nc": 0, "H": [1, 0, 0, 1], "F": [0, 0],
                    "A": [], "B": []})
        data = pf.load_qp(p)
        assert data.A.shape == (0, 2)
        assert data.B.shape == (0,)

    def test_missing_field_named(self, tmp_path):
        p = _write(tmp_path, "qp.json", {"n": 1, "nc": 0, "F": [0.0]})
        with pytest.raises(FileFormatError) as ei:
            pf.load_qp(p)
        assert ei.value.field == "H"

    def test_wrong_entry_count(self, tmp_path):
        p = _write(tmp_path, "qp.json",
                   {"n": 2, "nc": 0, "H": [1, 0, 0], "F": [0, 0],
                    "A": [], "B": []})
        with pytest.raises(FileFormatError) as ei:
            pf.load_qp(p)
        assert ei.value.field == "H"
        assert "expected 4" in str(ei.value)

    def test_non_integer_dimension(self, tmp_path):
        p = _write(tmp_path, "qp.json",
                   {"n": 2.0, "nc": 0, "H": [1, 0, 0, 1], "F": [0, 0]})
        with pytest.raises(FileFormatError) as ei:
            pf.load_qp(p)
        assert ei.value.field == "n"

    def test_bool_rejected_as_dimension(self, tmp_path):
        p = _write(tmp_path, "qp.json",
                   {"n": True, "nc": 0, "H": [1], "F": [0]})
        with pytest.raises(FileFormatError):
            pf.load_qp(p)

    def test_bad_json(self, tmp_path):
        p = tmp_path / "qp.json"
        p.write_text("{not json")
        with pytest.raises(FileFormatError) as ei:
            pf.load_qp(p)
        assert ei.value.field == "json"

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileFormatError):
            pf.load_qp(tmp_path / "absent.json")


class TestMpcScenario:
    def test_full_document(self, tmp_path):
        doc = _scenario_doc()
        doc["xi0"] = [1.0, 0.0]
        doc["steps"] = 10
        sc = pf.load_mpc_scenario(_write(tmp_path, "s.json", doc))
        np.testing.assert_array_equal(sc["A_d"],
                                      [[1.0, 0.1], [0.0, 1.0]])
        np.testing.assert_array_equal(sc["B_d"], [[0.005], [0.1]])
        assert sc["N"] == 3
        assert sc["u_max"] == 0.5
        np.testing.assert_array_equal(sc["xi0"], [1.0, 0.0])
        assert sc["steps"] == 10

    def test_defaults(self, tmp_path):
        sc = pf.load_mpc_scenario(
            _write(tmp_path, "s.json", _scenario_doc()))
        np.testing.assert_array_equal(sc["xi0"], np.zeros(2))
        assert sc["steps"] == 60

    def test_condense_accepts_result(self, tmp_path):
        sc = pf.load_mpc_scenario(
            _write(tmp_path, "s.json", _scenario_doc()))
        pqp = pf.condense(pf.Plant(sc["A_d"], sc["B_d"]), sc["N"],
                          sc["Q"], sc["R"], sc["P"], sc["u_max"])
        assert pqp.H.shape == (3, 3)

    def test_bad_steps(self, tmp_path):
        doc = _scenario_doc()
        doc["steps"] = True
        with pytest.raises(FileFormatError) as ei:
            pf.load_mpc_scenario(_write(tmp_path, "s.json", doc))
        assert ei.value.field == "steps"

    def test_negative_u_max(self, tmp_path):
        doc = _scenario_doc()
        doc["u_max"] = -1.0
        with pytest.raises(FileFormatError) as ei:
            pf.load_mpc_scenario(_write(tmp_path, "s.json", doc))
        assert ei.value.field == "u_max"

    def test_plant_must_be_object(self, tmp_path):
        doc = _scenario_doc()
        doc["plant"] = [1, 2]
        with pytest.raises(FileFormatError) as ei:
            pf.load_mpc_scenario(_write(tmp_path, "s.json", doc))
        assert ei.value.field == "plant"


class TestBinaryProblemFile:
    def test_with_natives(self, tmp_path):
        p = _write(tmp_path, "b.json",
                   {"n": 2, "H": [0, 0, 0, 0], "F": [-1.0, -2.0],
                    "A": [1.0, 1.0], "B": [1.0]})
        bp = pf.load_binary_problem(p)
        assert bp.n == 2
        assert bp.n_c == 1
        assert pf.native_feasible(bp, np.array([0.0, 1.0]))
        assert not pf.native_feasible(bp, np.array([1.0, 1.0]))
        assert bp.f(np.array([1.0, 1.0])) == -3.0

    def test_without_natives(self, tmp_path):
        p = _write(tmp_path, "b.json",
                   {"n": 2, "H": [2.0, 0, 0, 2.0], "F": [0.0, 0.0]})
        bp = pf.load_binary_problem(p)
        assert bp.n_c == 0
        assert bp.f(np.ones(2)) == 2.0

    def test_a_without_b(self, tmp_path):
        p = _write(tmp_path, "b.json",
                   {"n": 2, "H": [0, 0, 0, 0], "F": [0, 0],
                    "A": [1.0, 1.0]})
        with pytest.raises(FileFormatError) as ei:
            pf.load_binary_problem(p)
        assert ei.value.field == "A"

    def test_ragged_native_rows(self, tmp_path):
        p = _write(tmp_path, "b.json",
                   {"n": 2, "H": [0, 0, 0, 0], "F": [0, 0],
                    "A": [1.0, 1.0, 1.0], "B": [1.0]})
        with pytest.raises(FileFormatError) as ei:
            pf.load_binary_problem(p)
        assert "multiple" in str(ei.value)
