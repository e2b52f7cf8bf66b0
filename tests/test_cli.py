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

# every process construct and every action, for `parse`
EVERY_CONSTRUCT = """\
channels { c : {0, 1}; d : {0, 1} }
P(n; q) := if n < 1 then ( tau . c?x . d!x . nil ) else ( #e?r . #f!r . nil )
Q(; q) := ( P(0; q) || c!1 . nil ) \\ {c} [d -> c]
  + pchoice { 1/2 -> meas Mcomp[q; y] . nil ; 1/2 -> apply H[q] . nil }
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

    def test_every_construct_prints(self, capsys, tmp_path):
        path = tmp_path / "every.qp"
        path.write_text(EVERY_CONSTRUCT)
        code, out, _ = run(capsys, "parse", str(path))
        assert code == 0
        module = json.loads(out)
        nodes, actions = set(), set()
        stack = [module]
        while stack:
            obj = stack.pop()
            if isinstance(obj, dict):
                nodes.update([obj["node"]] if "node" in obj else ())
                actions.update([obj["kind"]] if "kind" in obj else ())
                stack += obj.values()
            elif isinstance(obj, list):
                stack += obj
        assert nodes == {"nil", "call", "prefix", "sum", "par", "restrict", "relabel",
                         "if", "pchoice"}
        assert actions == {"tau", "input", "output", "qinput", "qoutput", "apply", "meas"}
        relabel, pchoice = module["definitions"]["Q"]["body"]["parts"]
        assert relabel["mapping"] == [["d", "c"]]
        restrict = relabel["body"]
        assert (restrict["node"], restrict["channels"]) == ("restrict", ["c"])
        call, _ = restrict["body"]["parts"]
        assert call == {"node": "call", "name": "P", "cargs": ["0"], "qargs": ["q"]}
        assert [b["weight"] for b in pchoice["branches"]] == [0.5, 0.5]
        guarded, _ = module["definitions"]["P"]["body"]["parts"]
        assert (guarded["node"], guarded["cond"]) == ("if", "n < 1")

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

    def test_depth_closes_within_the_bound(self, capsys, module_file):
        code, out, _ = run(capsys, "lts", module_file, "--root", "tau . nil",
                           "--depth", "1")
        assert code == 0
        assert len(json.loads(out)["states"]) == 2

    def test_depth_past_the_bound(self, capsys, module_file):
        code, _, err = run(capsys, "lts", module_file, "--root", "tau . tau . nil",
                           "--depth", "1")
        assert code == 4
        assert "depth" in err

    def test_text_output(self, capsys, module_file):
        code, out, _ = run(capsys, "lts", module_file,
                           "--root", "C", "--rho", "q=+", "--format", "text")
        assert code == 0
        assert out.splitlines()[0] == "3 states, 1 transitions, acyclic=True"

    def test_state_budget(self, capsys, module_file):
        code, _, _ = run(capsys, "lts", module_file,
                         "--root", "C", "--rho", "q=+", "--max-configs", "1")
        assert code == 4

    @pytest.mark.parametrize("root, words", [
        ("apply Mcomp[q] . nil", "apply of Mcomp, which is a measurement"),
        ("meas H[q; x] . nil", "meas of H, which is a super-operator"),
    ])
    def test_an_operation_of_the_wrong_kind(self, capsys, module_file, root, words):
        code, out, err = run(capsys, "lts", module_file, "--root", root, "--rho", "q=+")
        assert code == cli.EXIT_USAGE and out == ""
        assert words in err and "Traceback" not in err

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

    @pytest.mark.parametrize("command", ["check", "distance"])
    def test_max_configs_is_not_an_option(self, capsys, module_file, command):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, module_file, "--left", "C", "--right", "D",
                      "--rho", "q=+", "--max-configs", "1"])
        assert exc.value.code == 2

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

    @pytest.mark.parametrize("data, message", [
        ({"matrix": [[1.0, 0.0], [0.0, 0.0]]}, "'register' list and a 'matrix' list of rows"),
        ([["q"], [[1.0, 0.0], [0.0, 0.0]]], "'register' list and a 'matrix' list of rows"),
        ({"register": ["q"], "matrix": [1.0, 0.0]}, "'register' list and a 'matrix' list of rows"),
        ({"register": ["q"], "matrix": [[["1", "0"], 0.0], [0.0, 0.0]]},
         "bad matrix entry ['1', '0']"),
    ], ids=["no-register", "top-level-list", "flat-matrix", "string-entry"])
    def test_malformed_rho_file(self, capsys, module_file, tmp_path, data, message):
        rho = tmp_path / "rho.json"
        rho.write_text(json.dumps(data))
        code, _, err = run(capsys, "check", module_file, "--left", "C",
                           "--right", "D", "--rho-file", str(rho))
        assert code == 2
        assert message in err

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


QUANTUM_INPUT = """\
A := #c?q . d!0 . nil
B := #c?q . tau . d!0 . nil
"""


class TestRegistry:
    """`registry "file"` declarations load relative to the module file."""

    FLIP = [{"name": "Flip", "acts_on_arity": 1,
             "kraus": [[[0.0, 1.0], [1.0, 0.0]]]}]

    @pytest.fixture
    def flip_module(self, tmp_path):
        path = tmp_path / "flip.qp"
        path.write_text('registry "ops.json"\n'
                        "C(; q) := apply Flip[q] . nil\n"
                        "D(; q) := apply X[q] . nil\n")
        return path

    def test_declared_operation_is_loaded(self, capsys, flip_module):
        (flip_module.parent / "ops.json").write_text(json.dumps(self.FLIP))
        code, out, _ = run(capsys, "lts", str(flip_module), "--root", "C",
                           "--with-states")
        assert code == 0
        final = json.loads(out)["states"][-1]
        assert final["state"] == [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        code, out, _ = run(capsys, "check", str(flip_module), "--left", "C",
                           "--right", "D", "--flavor", "state")
        assert code == 0
        assert json.loads(out)["report"]["verdict"] == "holds"

    def test_missing_registry_file(self, capsys, flip_module):
        code, _, err = run(capsys, "lts", str(flip_module), "--root", "C")
        assert code == 3
        assert "ops.json" in err

    def test_malformed_registry_file(self, capsys, flip_module):
        (flip_module.parent / "ops.json").write_text(json.dumps([{"acts_on_arity": 1}]))
        code, _, err = run(capsys, "lts", str(flip_module), "--root", "C")
        assert code == 2
        assert "bad registry entry" in err


class TestQuantumInput:
    @pytest.mark.parametrize("argv", [
        ["check"], ["check", "--flavor", "state"], ["distance", "--replay"],
    ], ids=["check", "check-state", "distance-replay"])
    def test_visible_input_is_not_handled(self, capsys, tmp_path, argv):
        path = tmp_path / "input.qp"
        path.write_text(QUANTUM_INPUT)
        command = [argv[0], str(path), "--left", "A", "--right", "B", *argv[1:]]
        code, _, err = run(capsys, *command, "--rho", "q1=0")
        assert code == 4
        assert "model not handled" in err
        # with no free qubit in the register no input can fire
        code, _, _ = run(capsys, *command)
        assert code == 0


# a chain of 2,000 visible steps, deeper than the interpreter's stack limit
CHAIN = """\
Chain(n;) := if n < 2000 then ( a!0 . Chain(n + 1;) )
Start(;) := Chain(0;)
Late(;) := tau . Chain(0;)
"""


class TestDeepModel:
    """The canonical walk runs on an explicit stack, so a model deeper than
    the interpreter's stack limit gets a verdict."""

    @pytest.mark.parametrize("command", ["check", "distance"])
    def test_recursion_depth_is_not_a_refutation(self, capsys, tmp_path, command):
        path = tmp_path / "chain.qp"
        path.write_text(CHAIN)
        code, out, err = run(capsys, command, str(path), "--left", "Start", "--right", "Late")
        assert code == 0 and err == ""
        payload = json.loads(out)
        if command == "check":
            assert (payload["report"]["verdict"], payload["report"]["mode"]) == ("holds", "canonical")
        else:
            assert (payload["bound"]["value"], payload["bound"]["mode"]) == (0.0, "canonical")


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
