"""Exit codes, report shapes, and option handling of the front end."""

import json
import os
import subprocess
import sys

import pytest

from qbisim import cli

DEPHASE = """\
C(; q) := meas Mcomp[q; x] . nil
D(; q) := apply Dephase[q] . nil
"""


@pytest.fixture
def module_file(tmp_path):
    path = tmp_path / "dephase.qp"
    path.write_text(DEPHASE)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_tolerance_range(self):
        with pytest.raises(ValueError):
            cli.CommandConfig("check", tol=0.2)
        with pytest.raises(ValueError):
            cli.CommandConfig("check", tol=0.0)
        assert cli.CommandConfig("check", tol=0.1).tol == 0.1

    def test_budgets_positive(self):
        with pytest.raises(ValueError):
            cli.CommandConfig("lts", max_configs=0)
        with pytest.raises(ValueError):
            cli.CommandConfig("lts", budget=0)

    def test_n_at_least_one(self):
        with pytest.raises(ValueError):
            cli.CommandConfig("bb84", n=0)

    def test_env_tolerance(self, monkeypatch):
        monkeypatch.setenv("QBISIM_TOL", "0.01")
        ns = cli.build_parser().parse_args(["bb84", "--n", "1"])
        assert cli.CommandConfig.from_args(ns).tol == 0.01


class TestParse:
    def test_valid_file(self, capsys, module_file):
        code, out, _ = run(capsys, "parse", module_file)
        assert code == 0
        assert set(json.loads(out)["definitions"]) == {"C", "D"}

    def test_syntax_error_names_the_position(self, capsys, tmp_path):
        bad = tmp_path / "bad.qp"
        bad.write_text("C( := broken\n")
        code, _, err = run(capsys, "parse", str(bad))
        assert code == 2
        assert "line 1" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "parse", str(tmp_path / "absent.qp"))
        assert code == 3


class TestLts:
    def test_measurement_graph(self, capsys, module_file):
        code, out, _ = run(capsys, "lts", module_file,
                           "--root", "C", "--rho", "q=+")
        assert code == 0
        graph = json.loads(out)
        assert len(graph["states"]) == 3
        assert len(graph["transitions"]) == 1
        assert graph["acyclic"] is True

    def test_nil_root_is_a_single_node(self, capsys, module_file):
        code, out, _ = run(capsys, "lts", module_file, "--root", "nil",
                           "--depth", "0")
        assert code == 0
        assert len(json.loads(out)["states"]) == 1

    def test_depth_zero_on_a_live_root(self, capsys, module_file):
        code, _, err = run(capsys, "lts", module_file,
                           "--root", "C", "--rho", "q=+", "--depth", "0")
        assert code == 4
        assert "depth" in err

    def test_state_budget(self, capsys, module_file):
        code, _, _ = run(capsys, "lts", module_file,
                         "--root", "C", "--rho", "q=+", "--max-configs", "1")
        assert code == 4

    def test_dot_output(self, capsys, module_file):
        code, out, _ = run(capsys, "lts", module_file,
                           "--root", "C", "--rho", "q=+", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph")


class TestCheck:
    def test_distribution_flavor_holds(self, capsys, module_file):
        code, out, _ = run(capsys, "check", module_file, "--left", "C",
                           "--right", "D", "--rho", "q=+", "--replay")
        assert code == 0
        report = json.loads(out)
        assert report["report"]["verdict"] == "holds"
        assert report["replay"] is True

    def test_state_flavor_discriminates(self, capsys, module_file):
        code, out, _ = run(capsys, "check", module_file, "--left", "C",
                           "--right", "D", "--rho", "q=+",
                           "--flavor", "state", "--replay")
        assert code == 1
        report = json.loads(out)
        assert report["report"]["verdict"] == "fails"
        assert report["report"]["clause"] == "ii"
        assert report["replay"] is True

    def test_term_roots(self, capsys, module_file):
        code, out, _ = run(capsys, "check", module_file,
                           "--left", "meas Mcomp[q; x] . nil",
                           "--right", "D", "--rho", "q=+")
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "holds"

    def test_rho_file(self, capsys, module_file, tmp_path):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps({
            "register": ["q"],
            "matrix": [[0.5, [0.5, 0.0]], [[0.5, 0.0], 0.5]],
        }))
        code, out, _ = run(capsys, "check", module_file, "--left", "C",
                           "--right", "D", "--rho-file", str(rho))
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "holds"

    @pytest.mark.parametrize("data", [
        {"matrix": [[1.0, 0.0], [0.0, 0.0]]},
        [["q"], [[1.0, 0.0], [0.0, 0.0]]],
        {"register": ["q"], "matrix": [1.0, 0.0]},
    ], ids=["no-register", "top-level-list", "flat-matrix"])
    def test_malformed_rho_file(self, capsys, module_file, tmp_path, data):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(data))
        code, _, err = run(capsys, "check", module_file, "--left", "C",
                           "--right", "D", "--rho-file", str(rho))
        assert code == 2
        assert "'register' list and a 'matrix' list of rows" in err

    def test_output_file(self, capsys, module_file, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "check", module_file, "--left", "C",
                           "--right", "D", "--rho", "q=+",
                           "--output", str(target))
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["report"]["verdict"] == "holds"

    def test_env_tolerance_out_of_range(self, capsys, module_file, monkeypatch):
        monkeypatch.setenv("QBISIM_TOL", "0.5")
        code, _, err = run(capsys, "check", module_file, "--left", "C",
                           "--right", "D", "--rho", "q=+")
        assert code == 2
        assert "tolerance" in err

    def test_bad_rho_assignment(self, capsys, module_file):
        code, _, _ = run(capsys, "check", module_file, "--left", "C",
                         "--right", "D", "--rho", "q:plus")
        assert code == 2


class TestDistance:
    def test_identical_roots(self, capsys, module_file):
        code, out, _ = run(capsys, "distance", module_file, "--left", "C",
                           "--right", "C", "--rho", "q=+", "--replay")
        assert code == 0
        report = json.loads(out)
        assert report["bound"]["value"] == 0.0
        assert report["replay"] is True

    def test_witness_included(self, capsys, module_file):
        code, out, _ = run(capsys, "distance", module_file, "--left", "C",
                           "--right", "D", "--rho", "q=+")
        assert code == 0
        assert json.loads(out)["bound"]["witness"]["pairs"]


# two commuting internal moves: certification proves them confluent
CONFLUENT = """\
L(; q1, q2) := ( apply X[q1] . m!0 . nil || apply H[q2] . m?x . a!x . nil ) \\ {m}
R(; q1, q2) := apply X[q1] . apply H[q2] . a!0 . nil
"""


class TestCertificate:
    @pytest.fixture
    def confluent_file(self, tmp_path):
        path = tmp_path / "confluent.qp"
        path.write_text(CONFLUENT)
        return str(path)

    def test_check_reports_proved_confluence(self, capsys, confluent_file):
        code, out, _ = run(capsys, "check", confluent_file, "--left", "L",
                           "--right", "R")
        assert code == 0
        report = json.loads(out)["report"]
        assert report["mode"] == "canonical"
        assert "proved" in report["detail"]

    def test_distance_reports_proved_confluence(self, capsys, confluent_file):
        code, out, _ = run(capsys, "distance", confluent_file, "--left", "L",
                           "--right", "R")
        assert code == 0
        bound = json.loads(out)["bound"]
        assert bound["mode"] == "canonical"
        assert bound["value"] == 0.0
        assert "proved" in bound["detail"]

    def test_seed_is_not_an_option(self, capsys, confluent_file):
        with pytest.raises(SystemExit) as exc:
            cli.main(["check", confluent_file, "--left", "L", "--right", "R",
                      "--seed", "7"])
        assert exc.value.code == 2


class TestBb84:
    def test_soundness_n1(self, capsys):
        code, out, _ = run(capsys, "bb84", "--n", "1", "--mode", "soundness")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "bisimilar"
        assert report["p_fail"] == 0

    def test_security_n1(self, capsys):
        code, out, _ = run(capsys, "bb84", "--n", "1", "--mode", "security")
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "secure"
        assert report["bound"] <= report["c_pow_n"]

    def test_n_zero_is_a_usage_error(self, capsys):
        code, _, err = run(capsys, "bb84", "--n", "0")
        assert code == 2
        assert "at least 1" in err


def test_console_entry_point(module_file):
    # the child imports the same package as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "qbisim", "check", module_file,
         "--left", "C", "--right", "D", "--rho", "q=+"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["report"]["verdict"] == "holds"
