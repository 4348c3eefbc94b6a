import csv
import io
import json
from pathlib import Path

import numpy as np
import pytest

from mmfq import __version__
from mmfq.cli import main
from mmfq.riccati import DEFAULT_MAX_NEWTON, DEFAULT_TOL


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"A": [[-1.0, 1.0], [1.0, -1.0]],
                                "c": [1.0, -2.0]}))
    return str(path)


@pytest.fixture
def case_1a_file(tmp_path):
    from mmfq.bench import case_model
    from conftest import model_to_dict
    model, spec = case_model("1a")
    path = tmp_path / "case1a.json"
    path.write_text(json.dumps(model_to_dict(model)))
    pert = tmp_path / "pert1a.json"
    inv = np.argsort(model.perm)
    pert.write_text(json.dumps({"kind": "rate",
                                "direction": list(spec.direction[inv])}))
    return str(path), str(pert)


@pytest.fixture
def case_1a_generator(case_1a_file, tmp_path):
    """Case 1a and a generator direction for it, as file paths."""
    model, _ = case_1a_file
    n = len(json.loads(Path(model).read_text())["c"])
    D = np.full((n, n), 0.1)
    np.fill_diagonal(D, -0.1 * (n - 1))
    pert = tmp_path / "gen.json"
    pert.write_text(json.dumps({"kind": "generator", "direction": D.tolist()}))
    return model, str(pert)


def error_report(capsys) -> dict:
    """The one-line JSON error report on stderr."""
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and "Traceback" not in err
    report = json.loads(err)
    assert set(report) == {"error", "message"}
    return report


class TestValidate:
    def test_valid_model(self, model_file, capsys):
        assert main(["validate", model_file]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["drift"] == -0.5
        assert report["partition"]["plus"] == ["0"]

    def test_case_1a_drift(self, case_1a_file, capsys):
        path, _ = case_1a_file
        assert main(["validate", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["drift"] + 0.2) < 1e-10

    def test_invalid_generator(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"A": [[-1.0, 2.0], [1.0, -1.0]],
                                    "c": [1.0, -1.0]}))
        assert main(["validate", str(path)]) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "NotAGenerator"

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "IO"

    def test_ragged_generator(self, tmp_path, capsys):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"A": [[-1.0, 1.0], [1.0]], "c": [1.0, -1.0]}))
        assert main(["validate", str(path)]) == 1
        assert error_report(capsys)["error"] == "DimensionMismatch"

    @pytest.mark.parametrize("key,value", [("labels", 5), ("c", ["a", -1.0])])
    def test_malformed_rates_or_labels(self, tmp_path, capsys, key, value):
        # both ended in a TypeError or ValueError traceback
        doc = {"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [1.0, -1.0], key: value}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for verb in ("validate", "psi"):
            assert main([verb, str(path)]) == 1
            assert error_report(capsys)["error"] == "DimensionMismatch"

    def test_nan_in_generator(self, tmp_path, capsys):
        path = tmp_path / "nan.json"
        path.write_text('{"A": [[NaN, 1.0], [1.0, -1.0]], "c": [1.0, -1.0]}')
        assert main(["validate", str(path)]) == 1
        assert error_report(capsys)["error"] == "NotAGenerator"


class TestPsi:
    def test_two_phase_value(self, model_file, capsys):
        assert main(["psi", model_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        cells = dict()
        for line in lines[1:]:
            name, r, c, v = line.split(",")
            cells[(name, r, c)] = float(v)
        assert cells[("psi", "0", "1")] == 1.0
        assert cells[("K", "0", "0")] == -0.5

    def test_row_sums_and_residual_reporting(self, case_1a_file, tmp_path, capsys):
        path, _ = case_1a_file
        out = tmp_path / "psi.csv"
        assert main(["psi", path, "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "psi.csv.manifest.json").read_text())
        assert manifest["diagnostics"]["row_sum_defect"] <= 1e-10
        loose = tmp_path / "loose.csv"
        assert main(["psi", path, "--tol", "1e-3", "--out", str(loose)]) == 0
        loose_res = json.loads(
            (tmp_path / "loose.csv.manifest.json").read_text()
        )["diagnostics"]["residual"]
        assert manifest["diagnostics"]["residual"] < loose_res <= 1e-3

    def test_json_output_embeds_manifest(self, model_file, capsys):
        assert main(["psi", model_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["psi"] == [[1.0]]
        assert doc["manifest"]["version"]

    def test_manifest_records_parsed_argv(self, model_file, tmp_path,
                                          monkeypatch):
        monkeypatch.setattr("sys.argv", ["host", "--unrelated"])
        out = str(tmp_path / "psi.csv")
        assert main(["psi", model_file, "--out", out]) == 0
        manifest = json.loads((tmp_path / "psi.csv.manifest.json").read_text())
        assert manifest["command"] == ["psi", model_file, "--out", out]

    def test_failed_schur_is_no_convergence(self, case_1a_file, gees_fails, capsys):
        path, _ = case_1a_file
        assert main(["psi", path]) == 1
        out, err = capsys.readouterr()
        assert out == "" and "\n" not in err.strip()
        assert json.loads(err)["error"] == "NoConvergence"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1e-12"])
    def test_bad_tol_is_usage_error(self, case_1a_file, capsys, tol):
        # a NaN tol printed an all-zero psi with exit 0, and density raised
        # SingularNormalization; every verb that solves psi rejects it
        model, pert = case_1a_file
        for argv in (["psi", model], ["perturb", model, pert],
                     ["density", model, "--x", "0:1:3"]):
            assert main(argv + [f"--tol={tol}"]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert json.loads(err) == {
                "error": "Usage",
                "message": f"bad tol {float(tol)!r}, expected 0 <= tol < inf"}


class TestPerturb:
    def test_zero_generator_direction(self, model_file, tmp_path, capsys):
        pert = tmp_path / "zero.json"
        pert.write_text(json.dumps({"kind": "generator",
                                    "direction": [[0.0, 0.0], [0.0, 0.0]]}))
        assert main(["perturb", model_file, str(pert)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["psi1"] == [[0.0]]

    def test_missing_direction(self, model_file, tmp_path, capsys):
        pert = tmp_path / "nodir.json"
        pert.write_text(json.dumps({"kind": "generator"}))
        assert main(["perturb", model_file, str(pert)]) == 1
        assert error_report(capsys)["error"] == "InvalidPerturbation"

    def test_case_1a_eps_check(self, case_1a_file, capsys):
        path, pert = case_1a_file
        assert main(["perturb", path, pert, "--eps-check", "1e-4"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["regime"] == "to_plus"
        assert "psi_op_m" in doc["aux_blocks"]
        check = doc["eps_check"][f"{1e-4:.17g}"]
        assert abs(check["e_plus"] - 5.37e-7) <= 0.02 * 5.37e-7

    @staticmethod
    def perturb_zero_phases(tmp_path, capsys, on_zero, on_other=0.0):
        """Run ``perturb`` on a 9-phase model with three zero-rate phases;
        the rate direction is ``on_zero`` there, ``on_other`` elsewhere."""
        from conftest import random_recurrent_model
        from conftest import model_to_dict
        rng = np.random.default_rng(70)
        model = random_recurrent_model(
            9, rng, signs=[1, 1, 1, 0, 0, 0, -1, -1, -1])
        mp = tmp_path / "m.json"
        mp.write_text(json.dumps(model_to_dict(model)))
        ct = np.full(9, on_other)
        ct[model.perm[model.i0]] = on_zero
        pp = tmp_path / "p.json"
        pp.write_text(json.dumps({"kind": "rate", "direction": list(ct)}))
        assert main(["perturb", str(mp), str(pp)]) == 0
        return json.loads(capsys.readouterr().out)

    def test_negative_scientific_eps_check_is_a_value(self, case_1a_file, tmp_path, capsys):
        # argparse took "-1e-3" for an unknown option; the "=" form parsed
        model, _ = case_1a_file
        A = np.array(json.loads(Path(model).read_text())["A"])
        pert = tmp_path / "scaled.json"  # A + eps A / 10 is a generator for eps > -10
        pert.write_text(json.dumps({"kind": "generator", "direction": (A / 10).tolist()}))
        checks = []
        for flag in (["--eps-check", "-1e-3"], ["--eps-check=-1e-3"]):
            assert main(["perturb", model, str(pert), *flag]) == 0
            checks.append(json.loads(capsys.readouterr().out)["eps_check"])
        assert list(checks[0]) == [f"{-1e-3:.17g}"] and checks[0] == checks[1]

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_check_is_usage_error(self, case_1a_generator, capsys, eps):
        # with a generator direction this ended in a ValueError traceback
        model, pert = case_1a_generator
        assert main(["perturb", model, pert, "--eps-check", "1e-4", eps]) == 2
        assert error_report(capsys)["error"] == "Usage"

    def test_general_regime_lists_blocks(self, tmp_path, capsys):
        doc = self.perturb_zero_phases(tmp_path, capsys, [0.5, 0.8, -0.6])
        assert doc["regime"] == "general"
        assert "psi_op_om" in doc["aux_blocks"]
        assert "psi2_p_om" in doc["aux_blocks"]

    def test_unaffected_regime_lists_the_same_blocks(self, tmp_path, capsys):
        general = self.perturb_zero_phases(tmp_path, capsys, [0.5, 0.8, -0.6])
        doc = self.perturb_zero_phases(tmp_path, capsys, 0.0, on_other=0.1)
        assert doc["regime"] == "unaffected"
        assert doc["aux_blocks"] == general["aux_blocks"]


class TestDensity:
    def test_two_phase_decay(self, model_file, capsys):
        assert main(["density", model_file, "--x", "0.5:5:10"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,pi_0,pi_1"
        rows = np.array([[float(v) for v in line.split(",")]
                         for line in lines[1:]])
        expected = 0.375 * np.exp(-0.5 * rows[:, 0])
        assert np.abs(rows[:, 1] + rows[:, 2] - expected).max() < 1e-8

    def test_rate_perturbation_rejected(self, model_file, tmp_path, capsys):
        pert = tmp_path / "rate.json"
        pert.write_text(json.dumps({"kind": "rate", "direction": [0.1, 0.0]}))
        code = main(["density", model_file, "--pert", str(pert),
                     "--x", "1:2:2"])
        assert code == 1
        assert json.loads(capsys.readouterr().err)["error"] == "NotGeneratorKind"

    def test_first_order_columns(self, model_file, tmp_path, capsys):
        pert = tmp_path / "gen.json"
        pert.write_text(json.dumps({"kind": "generator",
                                    "direction": [[-0.5, 0.5], [0.2, -0.2]]}))
        assert main(["density", model_file, "--pert", str(pert),
                     "--x", "1:2:2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "x,pi_0,pi_1,pi1_0,pi1_1"

    def test_quadrature_mass_complements_atoms(self, model_file, tmp_path):
        out = tmp_path / "dens.csv"
        assert main(["density", model_file, "--x", "0.0001:80:8000",
                     "--out", str(out)]) == 0
        rows = np.loadtxt(str(out), delimiter=",", skiprows=1)
        mass = np.trapezoid(rows[:, 1:].sum(axis=1), rows[:, 0])
        manifest = json.loads((tmp_path / "dens.csv.manifest.json").read_text())
        atoms = sum(manifest["diagnostics"]["zero_mass"])
        assert abs(mass - (1.0 - atoms)) < 2e-4

    @pytest.mark.parametrize("grid", ["0:1e308:3"])
    def test_overflowing_level_is_inconclusive(self, case_1a_generator, capsys, grid):
        # the density there is zero, but x times the scaling norm of K overflows
        model, pert = case_1a_generator
        for extra in ([], ["--pert", pert]):
            assert main(["density", model, "--x", grid] + extra) == 1
            out, err = capsys.readouterr()
            assert out == "" and "\n" not in err.strip()
            assert json.loads(err)["error"] == "Inconclusive"

    def test_underflowed_levels_are_zero_rows(self, case_1a_generator, capsys):
        # at 5e39 and 1e40 the density has underflowed to exactly zero
        model, pert = case_1a_generator
        for extra in ([], ["--pert", pert]):
            assert main(["density", model, "--x", "0:1e40:3"] + extra) == 0
            rows = [line.split(",") for line in capsys.readouterr().out.splitlines()[1:]]
            assert [float(r[0]) for r in rows] == [0.0, 5e39, 1e40]
            assert all(float(v) == 0.0 for r in rows[1:] for v in r[1:])
            assert max(float(v) for v in rows[0][1:]) > 0.0

    def test_bad_grid_is_usage_error(self, model_file, capsys):
        assert main(["density", model_file, "--x", "nope"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "Usage"

    def test_negative_level_is_usage_error(self, model_file, capsys):
        assert main(["density", model_file, "--x=-1:2:3"]) == 2
        assert error_report(capsys)["error"] == "Usage"

    def test_negative_level_with_pert_is_usage_error(self, model_file, tmp_path,
                                                      capsys):
        pert = tmp_path / "pert.json"
        pert.write_text(json.dumps({"kind": "generator",
                                    "direction": [[-0.1, 0.1], [0.0, 0.0]]}))
        assert main(["density", model_file, "--x=-1:2:3",
                     "--pert", str(pert)]) == 2
        assert error_report(capsys)["error"] == "Usage"


class TestCase:
    def test_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "case2a.csv"
        assert main(["case", "--id", "2a", "--eps-grid", "1e-4:1e-2:5",
                     "--out", str(out)]) == 0
        summary = capsys.readouterr().err
        assert "r_minus=-621" in summary
        assert "e_plus(0.01) = 2.08e-08 reference 2.08e-08 PASS" in summary
        body = out.read_text().splitlines()
        assert body[0].startswith("case_id,eps,")
        assert len(body) == 6

    @pytest.mark.parametrize("grid", ["1e-4:0:5", "1e-4:1e-2:1"])
    def test_bad_eps_grid_is_usage_error(self, grid, capsys):
        # a zero end gave log10(0) = -inf; one point fit a slope with R^2 = -inf
        assert main(["case", "--id", "1a", "--eps-grid", grid]) == 2
        assert error_report(capsys)["error"] == "Usage"

    def test_unknown_case_exit_code(self, capsys):
        assert main(["case", "--id", "bogus"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UnknownCase"

    def test_2b_summary_cell_passes(self, capsys):
        assert main(["case", "--id", "2b", "--eps-grid", "1e-4:1e-2:3"]) == 0
        summary = capsys.readouterr().err
        assert "e_inf(0.0001) = 5.11e-08 reference 5.11e-08 PASS" in summary

    def test_2a_summary_checks_errata(self, capsys):
        assert main(["case", "--id", "2a", "--eps-grid", "1e-4:1e-2:3"]) == 0
        summary = capsys.readouterr().err
        assert "FAIL" not in summary
        assert "reference 2.08e-12 (published 1.92e-12, erratum) PASS" in summary

    def test_deterministic_csv_body(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["case", "--id", "3b", "--eps-grid", "1e-4:1e-2:4", "--out", str(a)])
        main(["case", "--id", "3b", "--eps-grid", "1e-4:1e-2:4", "--out", str(b)])
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestSimulate:
    def test_csv_and_manifest(self, model_file, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        assert main(["simulate", model_file, "--replications", "300",
                     "--seed", "4", "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "start,hit,estimate,stderr"
        assert lines[1].startswith("0,1,1,")
        manifest = json.loads((tmp_path / "sim.csv.manifest.json").read_text())
        assert manifest["diagnostics"]["censored_fraction"] == 0.0

    def test_zero_replications_is_usage_error(self, model_file, capsys):
        assert main(["simulate", model_file, "--replications", "0"]) == 2
        assert error_report(capsys)["error"] == "Usage"

    @pytest.mark.parametrize("max_time", ["inf", "nan"])
    def test_non_finite_max_time_is_usage_error(self, model_file, capsys, max_time):
        assert main(["simulate", model_file, "--replications", "5",
                     "--max-time", max_time]) == 2
        report = error_report(capsys)
        assert report == {"error": "Usage",
                          "message": "max_time must be positive and finite"}

    def test_one_sided_model_is_empty_side(self, tmp_path, capsys):
        path = tmp_path / "down.json"
        path.write_text(json.dumps({"A": [[0.0]], "c": [-1.0]}))
        assert main(["simulate", str(path), "--replications", "10"]) == 1
        assert error_report(capsys)["error"] == "EmptySide"


@pytest.mark.parametrize("argv,text", [(["--version"], __version__ + "\n"),
                                       (["psi", "--help"], "usage: mmfq psi")])
def test_help_and_version_exit_zero(capsys, argv, text):
    # parser errors are Usage reports; these two still print their text
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(text)


TWO_PHASE = '{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [1.0, -2.0]}'
UP_ONLY = '{"A": [[0.0]], "c": [1.0]}'
NAN_RATE = '{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [NaN, -2.0]}'
# norm(A) / 1e-320 overflows
TINY_RATE = '{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [1e-320, -1.0]}'
GENERATOR = '{"kind": "generator", "direction": [[-2.0, 2.0], [0.0, 0.0]]}'
RATE = '{"kind": "rate", "direction": [0.1, 0.0]}'
# inf-norm 2e308 overflows: numpy warned on stderr, and the row-sum tolerance was infinite
OVERFLOW = "[[-1e308, 1e308], [1e308, -1e308]]"
# the zero-rate block's diagonal -(1 + 1e-17) rounds to -1, so -A_00 = [[1, -1], [-1, 1]]
SINGULAR_ZERO_BLOCK = ('{"A": [[-1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 1.0, 0.0], '
                       '[0.0, 1.0, -1.0, 1e-17], [1.0, 0.0, 0.0, -1.0]], "c": [1.0, 0.0, 0.0, -1.0]}')
QUICK_START = '{"A": [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]], "c": [1.0, 0.0, -1.5]}'


def malformed(name, argv, code, error, model=TWO_PHASE, pert=GENERATOR):
    """One row of the contract table: ``argv`` names the model file "{m}"
    and the perturbation file "{p}", written from ``model`` and ``pert``."""
    return pytest.param(argv, model, pert, code, error, id=name)


MALFORMED_INPUTS = [
    # each of these ended in a traceback or, for the last two, in another code
    malformed("model-number", ["validate", "{m}"], 1, "DimensionMismatch", model="5"),
    malformed("model-null", ["psi", "{m}"], 1, "DimensionMismatch", model="null"),
    # these named the phases after the characters or keys, with exit 0
    malformed("labels-string", ["validate", "{m}"], 1, "DimensionMismatch",
              model='{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [1.0, -2.0], "labels": "ab"}'),
    malformed("labels-object", ["validate", "{m}"], 1, "DimensionMismatch",
              model='{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [1.0, -2.0], '
                    '"labels": {"x": 1, "y": 2}}'),
    # these wrote a CSV header with repeated columns, or rows with more fields than it
    malformed("labels-duplicate", ["density", "{m}", "--x", "0:1:3"], 1, "DimensionMismatch",
              model=QUICK_START[:-1] + ', "labels": ["a", "a", "a"]}'),
    malformed("labels-comma", ["psi", "{m}"], 1, "DimensionMismatch",
              model=QUICK_START[:-1] + ', "labels": ["up,1", "mid\\nx", "down"]}'),
    malformed("model-1d-A", ["psi", "{m}"], 1, "DimensionMismatch",
              model='{"A": [-1.0, 1.0], "c": [1.0, -2.0]}'),
    malformed("model-scalar-c", ["psi", "{m}"], 1, "DimensionMismatch",
              model='{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": 5}'),
    malformed("nan-rate-validate", ["validate", "{m}"], 1, "DimensionMismatch", model=NAN_RATE),
    malformed("nan-rate-psi", ["psi", "{m}"], 1, "DimensionMismatch", model=NAN_RATE),
    malformed("nan-rate-simulate", ["simulate", "{m}", "--replications", "5"], 1,
              "DimensionMismatch", model=NAN_RATE),
    malformed("pert-list", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation", pert="[1, 2]"),
    malformed("pert-list-density", ["density", "{m}", "--pert", "{p}", "--x", "0:1:3"], 1,
              "InvalidPerturbation", pert="[1, 2]"),
    malformed("pert-string", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation", pert='"rate"'),
    malformed("pert-ragged", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation",
              pert='{"kind": "generator", "direction": [[-1.0, 1.0], [0.0]]}'),
    malformed("pert-flat-generator", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation",
              pert='{"kind": "generator", "direction": [0.1, 0.0]}'),
    malformed("pert-non-number", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation",
              pert='{"kind": "rate", "direction": [0.1, "x"]}'),
    malformed("pert-nan", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation",
              pert='{"kind": "rate", "direction": [NaN, 0.0]}'),
    malformed("max-newton-negative", ["psi", "{m}", "--max-newton", "-1"], 2, "Usage"),
    malformed("pert-unknown-kind", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation",
              pert='{"kind": "foo", "direction": [0.1, 0.0]}'),
    # these printed a numpy overflow warning first, then SingularSystem or exit 0
    malformed("overflow-validate", ["validate", "{m}"], 1, "NotAGenerator",
              model=f'{{"A": {OVERFLOW}, "c": [1.0, -2.0]}}'),
    malformed("overflow-psi", ["psi", "{m}"], 1, "NotAGenerator",
              model=f'{{"A": {OVERFLOW}, "c": [1.0, -2.0]}}'),
    malformed("overflow-direction", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation",
              pert=f'{{"kind": "generator", "direction": {OVERFLOW}}}'),
    # these reported ShapeMismatch: the perturbed partition no longer matched
    malformed("rate-eps-zero", ["perturb", "{m}", "{p}", "--eps-check", "0"], 1,
              "InvalidEpsilon", model=QUICK_START,
              pert='{"kind": "rate", "direction": [0.0, 0.8, 0.0]}'),
    malformed("rate-eps-negative", ["perturb", "{m}", "{p}", "--eps-check", "-0.1"], 1,
              "InvalidEpsilon", model=QUICK_START,
              pert='{"kind": "rate", "direction": [0.0, 0.8, 0.0]}'),
    # argparse printed its usage lines and exited 2 on these
    malformed("missing-positional", ["psi"], 2, "Usage"),
    malformed("unknown-flag", ["psi", "{m}", "--bogus"], 2, "Usage"),
    # these already gave one JSON line
    malformed("model-list", ["validate", "{m}"], 1, "DimensionMismatch", model="[1, 2]"),
    malformed("direction-wrong-shape", ["perturb", "{m}", "{p}"], 1, "DimensionMismatch",
              pert='{"kind": "rate", "direction": [0.1, 0.0, 0.3]}'),
    malformed("generator-direction-wrong-size", ["perturb", "{m}", "{p}"], 1,
              "DimensionMismatch",
              pert='{"kind": "generator", "direction": '
                   '[[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, -1.0]]}'),
    malformed("labels-wrong-length", ["validate", "{m}"], 1, "DimensionMismatch",
              model='{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [1.0, -2.0], "labels": ["a"]}'),
    malformed("generator-eps-negative", ["perturb", "{m}", "{p}", "--eps-check", "-1"], 1,
              "InvalidEpsilon"),
    malformed("generator-eps-huge", ["perturb", "{m}", "{p}", "--eps-check", "1e300"], 1,
              "SingularSystem"),
    malformed("rate-eps-nan", ["perturb", "{m}", "{p}", "--eps-check", "nan"], 2, "Usage",
              pert=RATE),
    malformed("density-grid-nan", ["density", "{m}", "--x", "0:nan:3"], 2, "Usage"),
    malformed("eps-grid-one-point", ["case", "--id", "1a", "--eps-grid", "1e-4:1e-2:1"], 2,
              "Usage"),
    # this printed a RankWarning and a divide-by-zero warning, then
    # r_squared -inf with exit 0
    malformed("eps-grid-equal-ends", ["case", "--id", "1b", "--eps-grid", "1e-3:1e-3:2"], 2,
              "Usage"),
    malformed("replications-zero", ["simulate", "{m}", "--replications", "0"], 2, "Usage"),
    malformed("max-time-nan", ["simulate", "{m}", "--max-time", "nan"], 2, "Usage"),
    malformed("unknown-case", ["case", "--id", "bogus"], 2, "UnknownCase"),
    malformed("up-only-psi", ["psi", "{m}"], 1, "EmptySide", model=UP_ONLY),
    malformed("up-only-density", ["density", "{m}", "--x", "0:1:3"], 1, "EmptySide",
              model=UP_ONLY),
    malformed("up-only-simulate", ["simulate", "{m}", "--replications", "5"], 1, "EmptySide",
              model=UP_ONLY),
    # psi warned and wrote NaN with exit 0; density and perturb ended in a
    # ValueError traceback, and so did perturb on a direction this small
    malformed("tiny-rate-psi", ["psi", "{m}"], 1, "DimensionMismatch", model=TINY_RATE),
    malformed("tiny-rate-density", ["density", "{m}", "--x", "0:1:3"], 1, "DimensionMismatch",
              model=TINY_RATE),
    malformed("tiny-rate-perturb", ["perturb", "{m}", "{p}"], 1, "DimensionMismatch",
              model=TINY_RATE, pert=RATE),
    malformed("tiny-rate-direction", ["perturb", "{m}", "{p}"], 1, "InvalidPerturbation",
              model=QUICK_START, pert='{"kind": "rate", "direction": [0.0, 1e-320, 0.0]}'),
    # the migrated rate 8e-321 warned, then NoConvergence; 5e-324 rounds it to 0
    malformed("tiny-rate-eps", ["perturb", "{m}", "{p}", "--eps-check", "1e-320"], 1,
              "InvalidEpsilon", model=QUICK_START,
              pert='{"kind": "rate", "direction": [0.0, 0.8, 0.0]}'),
    malformed("rounded-rate-eps", ["perturb", "{m}", "{p}", "--eps-check", "5e-324"], 1,
              "InvalidEpsilon", model=QUICK_START,
              pert='{"kind": "rate", "direction": [0.0, 0.8, 0.0]}'),
    # these warned of an overflow, then ended in a ValueError traceback
    malformed("overflow-expansion-unaffected", ["perturb", "{m}", "{p}"], 1,
              "InvalidPerturbation",
              model='{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [0.5, -2.0]}',
              pert='{"kind": "rate", "direction": [1e308, 0.0]}'),
    malformed("overflow-expansion-to-minus", ["perturb", "{m}", "{p}"], 1,
              "InvalidPerturbation",
              model='{"A": [[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [1.0, 1.0, -2.0]], '
                    '"c": [1.0, 0.0, -2.0]}',
              pert='{"kind": "rate", "direction": [0.0, -1e308, 0.0]}'),
    # a model that validates but whose zero-rate block is singular in double precision
    malformed("singular-zero-block", ["psi", "{m}"], 1, "SingularBlock", model=SINGULAR_ZERO_BLOCK),
    # the shifted step's scale leaves the double range, and a subnormal pivot
    # makes (-A_00)^{-1} infinite: unguarded, each warns and writes a NaN psi
    # with exit 0
    malformed("shift-out-of-range", ["psi", "{m}"], 1, "NoConvergence",
              model='{"A": [[-1.0, 1.0], [1.0, -1.0]], "c": [3.642e-230, -3.853e-244]}'),
    malformed("zero-block-solve-out-of-range", ["psi", "{m}"], 1, "SingularBlock",
              model='{"A": [[-0.01324, 7.095e-238, 0.01324], [1.207, -1.207, 1.989e-178], '
                    '[0.0, 6.127e-317, -6.127e-317]], "c": [-0.0178, 0.4746, 0.0]}'),
]


@pytest.mark.parametrize("argv,model,pert,code,error", MALFORMED_INPUTS)
def test_malformed_input_is_one_json_line(tmp_path, capsys, argv, model, pert, code, error):
    files = {"{m}": tmp_path / "m.json", "{p}": tmp_path / "p.json"}
    files["{m}"].write_text(model)
    files["{p}"].write_text(pert)
    assert main([str(files.get(a, a)) for a in argv]) == code
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


MANIFEST_KEYS = ["command", "inputs", "options", "version", "wall_time_s", "diagnostics"]
PSI_OPTIONS = {"tol": DEFAULT_TOL, "max_newton": DEFAULT_MAX_NEWTON}
SOLVE_DIAGNOSTICS = {"iterations", "residual"}


def output_mode(name, argv, inputs, options, diagnostics):
    """One row of the manifest contract: ``argv`` names the model file
    "{m}", the perturbation file "{p}" and the output file "{o}"."""
    return pytest.param(argv, inputs, options, diagnostics, id=name)


OUTPUT_MODES = [
    output_mode("psi-csv-file", ["psi", "{m}", "--out", "{o}"], ["{m}"], PSI_OPTIONS,
                SOLVE_DIAGNOSTICS | {"row_sum_defect"}),
    output_mode("psi-csv-stdout", ["psi", "{m}"], None, None, None),
    output_mode("psi-json-file", ["psi", "{m}", "--json", "--out", "{o}"], ["{m}"],
                PSI_OPTIONS, SOLVE_DIAGNOSTICS | {"row_sum_defect"}),
    output_mode("psi-json-stdout", ["psi", "{m}", "--json", "--max-newton", "7"], ["{m}"],
                {"tol": DEFAULT_TOL, "max_newton": 7}, SOLVE_DIAGNOSTICS | {"row_sum_defect"}),
    output_mode("perturb-file", ["perturb", "{m}", "{p}", "--out", "{o}"], ["{m}", "{p}"],
                {"tol": DEFAULT_TOL, "eps_check": []}, SOLVE_DIAGNOSTICS),
    output_mode("perturb-stdout", ["perturb", "{m}", "{p}", "--eps-check", "1e-3"],
                ["{m}", "{p}"], {"tol": DEFAULT_TOL, "eps_check": [1e-3]}, SOLVE_DIAGNOSTICS),
    output_mode("density-file", ["density", "{m}", "--pert", "{p}", "--x", "0:1:3",
                                 "--out", "{o}"], ["{m}", "{p}"],
                {"x": "0:1:3", "tol": DEFAULT_TOL}, {"zero_mass", "drift"}),
    output_mode("case-file", ["case", "--id", "1a", "--eps-grid", "1e-3:1e-2:2",
                              "--out", "{o}"], [], {"id": "1a", "eps_grid": "1e-3:1e-2:2"},
                {"slope", "r_squared", "r_minus", "drift"}),
    output_mode("simulate-file", ["simulate", "{m}", "--replications", "20", "--seed", "3",
                                  "--out", "{o}"], ["{m}"],
                {"replications": 20, "seed": 3, "max_time": 1e4}, {"censored_fraction"}),
    output_mode("validate-stdout", ["validate", "{m}"], ["{m}"], {}, set()),
    output_mode("density-stdout", ["density", "{m}", "--x", "0:1:3"], None, None, None),
    output_mode("case-stdout", ["case", "--id", "1a", "--eps-grid", "1e-3:1e-2:2"],
                None, None, None),
    output_mode("simulate-stdout", ["simulate", "{m}", "--replications", "20"], None, None, None),
]
# the header that a CSV on stdout starts with, by verb
CSV_HEADERS = {"psi": "matrix,row,col,value", "density": "x,pi_0,pi_1",
               "case": "case_id,eps,e_plus,e_oplus,e_inf,e_minus,e_ominus,slope,r_squared",
               "simulate": "start,hit,estimate,stderr"}


@pytest.mark.parametrize("argv,inputs,options,diagnostics", OUTPUT_MODES)
def test_manifest_contract(tmp_path, capsys, argv, inputs, options, diagnostics):
    files = {"{m}": tmp_path / "m.json", "{p}": tmp_path / "p.json", "{o}": tmp_path / "out"}
    files["{m}"].write_text(TWO_PHASE)
    files["{p}"].write_text(GENERATOR)
    argv = [str(files.get(a, a)) for a in argv]
    assert main(argv) == 0
    stdout = capsys.readouterr().out
    to_file = "--out" in argv
    as_json = "--json" in argv or argv[0] in ("perturb", "validate")
    # a sibling manifest goes with a CSV file, and with nothing else
    sibling = tmp_path / "out.manifest.json"
    assert sorted(tmp_path.glob("*manifest*")) == ([sibling] if to_file and not as_json else [])
    if as_json:
        text = files["{o}"].read_text() if to_file else stdout
        manifest = json.loads(text)["manifest"]
    elif to_file:
        manifest = json.loads(sibling.read_text())
    else:
        # a CSV on stdout is the body alone: its header, then rows of as many
        # fields, with no manifest and no summary
        rows = list(csv.reader(io.StringIO(stdout)))
        assert rows[0] == CSV_HEADERS[argv[0]].split(",") and "manifest" not in stdout
        assert len(rows) > 1 and all(len(row) == len(rows[0]) for row in rows)
        return
    assert list(manifest) == MANIFEST_KEYS
    assert manifest["command"] == argv
    assert manifest["inputs"] == [str(files[k]) for k in inputs]
    assert manifest["options"] == options
    assert manifest["version"] == __version__
    assert manifest["wall_time_s"] >= 0.0
    assert set(manifest["diagnostics"]) == diagnostics
