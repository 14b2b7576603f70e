import json

import numpy as np
import pytest

from conftest import hadamard_circuit, random_circuit
from etklab.cli import main
from etklab.etk import etk_from_json, etk_to_json
from etklab.quantum import etk_from_circuit


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def circuit_file(tmp_path):
    path = tmp_path / "h_circ.json"
    path.write_text(hadamard_circuit().to_json())
    return str(path)


class TestEval:
    def test_equal_points(self, tmp_path, circuit_file, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "eval", "circuit": circuit_file, "x": [0.0], "x2": [0.0]},
        )
        assert main(["eval", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = dict(l.split(None, 1) for l in out.strip().splitlines())
        assert abs(float(lines["etk"]) - 1.0) < 1e-12
        assert abs(float(lines["statevector"]) - 1.0) < 1e-12
        assert float(lines["diff"]) <= 1e-12

    def test_pi_separation(self, tmp_path, circuit_file, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "experiment": "eval",
                "circuit": circuit_file,
                "x": [0.0],
                "x2": [np.pi],
            },
        )
        assert main(["eval", "--config", cfg]) == 0
        out = capsys.readouterr().out
        lines = dict(l.split(None, 1) for l in out.strip().splitlines())
        assert abs(float(lines["etk"])) < 1e-9

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"experiment": "eval",,}')
        assert main(["eval", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_unknown_field(self, tmp_path, circuit_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "experiment": "eval",
                "circuit": circuit_file,
                "x": [0.0],
                "x2": [0.0],
                "bogus": 1,
            },
        )
        assert main(["eval", "--config", cfg]) == 3

    def test_missing_file(self, tmp_path):
        assert main(["eval", "--config", str(tmp_path / "nope.json")]) == 2

    def test_wrong_length_x(self, tmp_path, circuit_file, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "eval", "circuit": circuit_file, "x": [0.0, 1.0],
             "x2": [0.0]},
        )
        assert main(["eval", "--config", cfg]) == 3
        assert "data dim 1" in capsys.readouterr().err

    def test_nan_x(self, tmp_path, circuit_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            '{"experiment": "eval", "circuit": %s, "x": [NaN], "x2": [0.0]}'
            % json.dumps(circuit_file)
        )
        assert main(["eval", "--config", str(cfg)]) == 3
        captured = capsys.readouterr()
        assert "finite" in captured.err and "nan" not in captured.out

    def test_wrong_size_unitary(self, tmp_path, capsys):
        circ = json.loads(hadamard_circuit().to_json())
        circ["W"][0] = circ["W"][0][:-2]
        path = tmp_path / "bad_circ.json"
        path.write_text(json.dumps(circ))
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "eval", "circuit": str(path), "x": [0.0], "x2": [0.0]},
        )
        assert main(["eval", "--config", cfg]) == 3
        assert "W[0]" in capsys.readouterr().err

    def test_ragged_unitary(self, tmp_path, capsys):
        circ = json.loads(hadamard_circuit().to_json())
        circ["W"][0] = [circ["W"][0][:4], circ["W"][0][4:7]]
        path = tmp_path / "bad_circ.json"
        path.write_text(json.dumps(circ))
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "eval", "circuit": str(path), "x": [0.0], "x2": [0.0]},
        )
        assert main(["eval", "--config", cfg]) == 3
        assert "W[0]" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("x", "abc"), ("x2", [[1.0], [2.0, 3.0]])])
    def test_non_numeric_x(self, tmp_path, circuit_file, capsys, key, value):
        payload = {"experiment": "eval", "circuit": circuit_file, "x": [0.0],
                   "x2": [0.0]}
        payload[key] = value
        cfg = write_config(tmp_path / "cfg.json", payload)
        assert main(["eval", "--config", cfg]) == 3
        assert f"{key} must be" in capsys.readouterr().err

    def test_circuit_not_json(self, tmp_path, capsys):
        path = tmp_path / "bad_circ.json"
        path.write_text("not json")
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "eval", "circuit": str(path), "x": [0.0], "x2": [0.0]},
        )
        assert main(["eval", "--config", cfg]) == 3
        assert "circuit JSON is malformed" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n", "phi[0][0].input_dim"])
    def test_non_integer_circuit_field(self, tmp_path, capsys, field):
        circ = json.loads(hadamard_circuit().to_json())
        if field == "n":
            circ["n"] = "one"
        else:
            circ["phi"][0][0]["input_dim"] = "two"
        path = tmp_path / "bad_circ.json"
        path.write_text(json.dumps(circ))
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "eval", "circuit": str(path), "x": [0.0], "x2": [0.0]},
        )
        assert main(["eval", "--config", cfg]) == 3
        assert f"circuit field {field} must be an integer" in capsys.readouterr().err

    def test_kernel_not_json(self, tmp_path, capsys):
        path = tmp_path / "kernel.json"
        path.write_text("{")
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "eval", "kernel": str(path), "x": [0.0], "x2": [0.0]},
        )
        assert main(["eval", "--config", cfg]) == 3
        assert "kernel JSON is malformed" in capsys.readouterr().err

    def test_short_dense_core(self, tmp_path, capsys):
        kernel = json.loads(etk_to_json(etk_from_circuit(hadamard_circuit())))
        kernel["core"]["entries"] = kernel["core"]["entries"][:8]
        captured = run_kernel_eval(tmp_path, capsys, kernel)
        assert "core.entries" in captured.err

    def test_nan_dense_core(self, tmp_path, capsys):
        kernel = json.loads(etk_to_json(etk_from_circuit(hadamard_circuit())))
        kernel["core"]["entries"][0] = float("nan")
        captured = run_kernel_eval(tmp_path, capsys, kernel)
        assert "finite" in captured.err and "nan" not in captured.out

    def test_inf_weight(self, tmp_path, capsys):
        kernel = json.loads(etk_to_json(etk_from_circuit(hadamard_circuit())))
        kernel["feature_set"][0].update(kind="affine", weights=[float("inf")])
        captured = run_kernel_eval(tmp_path, capsys, kernel)
        assert "finite" in captured.err and "nan" not in captured.out


def run_kernel_eval(tmp_path, capsys, kernel):
    """Run `eval` on a kernel JSON (NaN and Infinity written as JSON allows);
    it must exit 3.  Returns the captured output."""
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps(kernel))
    cfg = write_config(
        tmp_path / "cfg.json",
        {"experiment": "eval", "kernel": str(path), "x": [0.0], "x2": [0.0]},
    )
    assert main(["eval", "--config", cfg]) == 3
    return capsys.readouterr()


class TestExtract:
    def test_hadamard_core(self, tmp_path, circuit_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "extract", "circuit": circuit_file, "route": "dense"},
        )
        assert main(["extract", "--config", cfg, "--out", str(tmp_path)]) == 0
        kernel = etk_from_json((tmp_path / "core.json").read_text())
        assert np.abs(kernel.dense_core() - np.eye(3)).max() < 1e-10

    def test_dense_cap_suggests_ptm(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        circ = random_circuit(2, 4, rng)  # 8 sites
        path = tmp_path / "big.json"
        path.write_text(circ.to_json())
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "extract", "circuit": str(path), "route": "dense"},
        )
        assert main(["extract", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "ptm" in capsys.readouterr().err


class TestMercer:
    def test_hadamard_spectrum_csv(self, tmp_path, circuit_file):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "mercer", "circuit": circuit_file},
        )
        assert main(["mercer", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "mercer_spectrum.csv").read_text().splitlines()
        assert lines[0] == "rank,eigenvalue"
        top = float(lines[1].split(",")[1])
        assert abs(top - 0.5) < 1e-9
        payload = json.loads((tmp_path / "mercer.json").read_text())
        assert payload["rank"] == 3


class TestSpectrum:
    def test_uniform_top_eigenvalue(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "spectrum", "n": 4, "model": "uniform", "top": 5},
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "spectrum_uniform_0.csv").read_text().splitlines()
        assert float(lines[1].split(",")[1]) == 0.0625
        top_lines = (
            (tmp_path / "spectrum_uniform_0_top5.csv").read_text().splitlines()
        )
        assert len(top_lines) == 6

    def test_stochastic_requires_seed(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "spectrum", "n": 2, "model": "haar"},
        )
        assert main(["spectrum", "--config", cfg, "--out", str(tmp_path)]) == 3

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "spectrum", "n": 2, "model": "haar"},
        )
        assert (
            main(["spectrum", "--config", cfg, "--out", str(tmp_path), "--seed", "4"])
            == 0
        )


class TestScaling:
    def test_outputs_and_determinism(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "experiment": "scaling",
                "seed": 7,
                "n_range": [2, 3],
                "models": ["haar", {"kind": "concentrated", "s": 2}],
                "instances": 2,
            },
        )
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "scaling.csv").read_bytes()
        b = (tmp_path / "b" / "scaling.csv").read_bytes()
        assert a == b
        assert (tmp_path / "a" / "scaling.svg").exists()
        assert b.decode().startswith("model,n,instance,largest_eig,mean,std\n")

    def test_single_instance_zero_std(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "experiment": "scaling",
                "seed": 3,
                "n_range": [2],
                "models": ["haar"],
                "instances": 1,
            },
        )
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "scaling.csv").read_text().splitlines()[1:]
        agg = [r for r in rows if ",aggregate," in r]
        assert len(agg) == 1
        assert agg[0].split(",")[-1] == "0"

    def test_missing_seed(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "experiment": "scaling",
                "n_range": [2],
                "models": ["haar"],
                "instances": 1,
            },
        )
        assert main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 3


class TestLearn:
    def test_counting_contract(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "experiment": "learn",
                "seed": 7,
                "n": 2,
                "models": ["haar", {"kind": "concentrated", "s": 2}],
                "instances": 3,
                "schedule_points": 5,
            },
        )
        assert main(["learn", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "learn.csv").read_text().splitlines()[1:]
        inst_rows = [r for r in rows if ",aggregate," not in r]
        agg_rows = [r for r in rows if ",aggregate," in r]
        # 2 models x 3 instances x schedule; aggregates one per (model, m)
        assert len(inst_rows) == 6 * (len(agg_rows) // 2)
        assert agg_rows
        assert (tmp_path / "learn.svg").exists()

    def test_zero_target_flat_curve(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            {
                "experiment": "learn",
                "seed": 7,
                "n": 2,
                "models": ["haar"],
                "instances": 1,
                "schedule_points": 3,
                "target": "zero",
            },
        )
        assert main(["learn", "--config", cfg, "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "learn.csv").read_text().splitlines()[1:]
        for r in rows:
            assert float(r.split(",")[3]) == 0.0


class TestFlags:
    def test_threads_validated(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json", {"experiment": "spectrum", "n": 2,
                                    "model": "uniform"}
        )
        assert (
            main(
                [
                    "spectrum",
                    "--config",
                    cfg,
                    "--out",
                    str(tmp_path),
                    "--threads",
                    "0",
                ]
            )
            == 3
        )

    def test_cap_env_override(self, tmp_path, circuit_file, monkeypatch):
        monkeypatch.setenv("ETKLAB_CAP_QUBITS", "0")
        cfg = write_config(
            tmp_path / "cfg.json",
            {"experiment": "eval", "circuit": circuit_file, "x": [0.0], "x2": [0.0]},
        )
        assert main(["eval", "--config", cfg]) == 4
