"""Command-line interface: subcommands, exit codes, determinism.

Core claims:
    - exit codes encode the outcome: 0 smooth/ok, 1 input error, 2 a
      singularity was found
    - analyze reproduces the worked example through the JSON surface
    - unload is the identity on consistent input
    - cartier emits the expected cluster and a passing certificate
    - outputs are byte-identical across runs and re-parse
    - missing or undecodable files, a safety-cap overrun and running out of
      memory or recursion depth end in a one-line message and an exit code,
      never a traceback; so does a weight, a component number, a
      multiplicity or a selftest seed or cluster count that is not an ASCII
      integer or is too long to convert, and a negative cluster count
    - importing the package and every runtime module does not import the
      oracle (only `selftest` and the tests need it), and every name in
      `sandwiched.__all__` resolves
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sandwiched
from sandwiched import cli, unload
from sandwiched.cli import main

D1 = "cluster d1 { O ; p1 -> O ; q1 -> p1 }\nweights d1 { O=1 p1=1 q1=1 }\n"


@pytest.fixture
def d1_file(tmp_path):
    path = tmp_path / "d1.cluster"
    path.write_text(D1, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(d1_file, capsys):
    code, out, _ = run(capsys, "validate", d1_file)
    assert code == 0
    assert "d1: ok (3 points)" in out


def test_validate_reports_diagnostics(tmp_path, capsys):
    path = tmp_path / "bad.cluster"
    path.write_text("cluster bad { O ; p1 -> O ; p2 -> p1 ; w -> p2, O }\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "satellite-inheritance" in out


def test_operational_commands_reject_invalid_structure(tmp_path, capsys):
    path = tmp_path / "bad.cluster"
    path.write_text("cluster bad { O ; p1 -> O ; p2 -> p1 ; w -> p2, O }\n", encoding="utf-8")
    code, _, err = run(capsys, "unload", str(path))
    assert code == 1
    assert "satellite-inheritance" in err


def test_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "syntax.cluster"
    path.write_text("cluster x { O ; p1 -> nowhere }\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 1
    assert "line 1" in err and "column" in err


def test_analyze_satellite_json(d1_file, capsys):
    code, out, _ = run(capsys, "analyze", d1_file, "--at", "sat:O,p1", "--format", "json")
    assert code == 2  # singular found
    payload = json.loads(out)
    assert payload["mult"] == 2
    assert payload["emdim"] == 3
    assert payload["br"] == 2
    assert payload["minimal"] is True


def test_analyze_smooth_exit_zero(d1_file, capsys):
    code, out, _ = run(capsys, "analyze", d1_file, "--at", "free:q1")
    assert code == 0
    assert json.loads(out)["smooth"] is True


def test_analyze_component_selector(d1_file, capsys):
    code, out, _ = run(capsys, "analyze", d1_file, "--at", "c0")
    assert code == 2
    assert json.loads(out)["T_Q"] == ["O", "p1"]


def test_analyze_dot_resolution_graph(d1_file, capsys):
    code, out, _ = run(capsys, "analyze", d1_file, "--at", "c0", "--format", "dot")
    assert code == 2
    assert '"O" [label="O (2)"];' in out


def test_singularities_json(d1_file, capsys):
    code, out, _ = run(capsys, "singularities", d1_file)
    assert code == 2
    payload = json.loads(out)
    assert len(payload["singularities"]) == 1


def test_singularities_smooth_surface(tmp_path, capsys):
    path = tmp_path / "s.cluster"
    path.write_text("cluster s { O }\nweights s { O=1 }\n", encoding="utf-8")
    code, out, _ = run(capsys, "singularities", str(path))
    assert code == 0
    assert json.loads(out)["singularities"] == []


def test_unload_fixed_point(d1_file, capsys):
    code, out, _ = run(capsys, "unload", d1_file)
    assert code == 0
    assert out == D1


def test_unload_json_trace(tmp_path, capsys):
    path = tmp_path / "i.cluster"
    path.write_text(
        "cluster i { O ; p1 -> O ; q1 -> p1 ; w -> p1, O }\n"
        "weights i { O=1 p1=1 q1=1 w=1 }\n",
        encoding="utf-8",
    )
    code, out, _ = run(capsys, "unload", str(path), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["nu"] == {"O": 2, "p1": 1, "q1": 0, "w": 0}
    assert [s["point"] for s in payload["steps"]] == ["O", "p1", "w"]
    assert all(s["tame"] for s in payload["steps"])


def test_cartier_emits_cluster_and_certificate(d1_file, tmp_path, capsys):
    out_path = tmp_path / "t.cluster"
    code, out, _ = run(
        capsys,
        "cartier", d1_file, "--at", "c0", "--alpha", "q1=2",
        "--emit-cluster", str(out_path),
    )
    assert code == 0
    certificate = json.loads(out)
    assert certificate["passed"] is True
    assert certificate["readout"] == {"q1": 2}
    emitted = out_path.read_text(encoding="utf-8")
    assert "O=3 p1=2 q1=1" in emitted
    code2, out2, _ = run(capsys, "validate", str(out_path))
    assert code2 == 0


def test_synthesize(tmp_path, capsys):
    graph = tmp_path / "a1.graph"
    graph.write_text("weight a=2\n", encoding="utf-8")
    code, out, _ = run(capsys, "synthesize", str(graph))
    assert code == 0
    assert "cluster synthesized { O ; u -> O ; a -> u, O ; a_e0 -> a }" in out
    payload = json.loads(out.split("\n", 2)[2])
    assert payload["mult"] == 2
    assert len(payload["Kplus_Q"]) == 3


def test_synthesize_long_path(tmp_path, capsys):
    n = 2100
    graph = tmp_path / "path.graph"
    lines = [f"weight v{i}=2" for i in range(n)] + [f"v{i} v{i + 1}" for i in range(n - 1)]
    graph.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run(capsys, "synthesize", str(graph))
    assert code == 0, err
    payload = json.loads(out.split("\n", 2)[2])
    assert len(payload["T_Q"]) == n


def test_export_views(d1_file, capsys):
    code, out, _ = run(capsys, "export", d1_file, "--view", "enriques")
    assert code == 0 and "graph \"enriques_d1\"" in out
    code, out, _ = run(capsys, "export", d1_file, "--view", "dual")
    assert code == 0 and "(2)" in out
    code, out, _ = run(capsys, "export", d1_file, "--format", "json")
    assert code == 0 and json.loads(out)["schema"] == 1
    code, out, _ = run(capsys, "export", d1_file, "--format", "dsl")
    assert code == 0 and out == D1


def test_byte_identical_runs(d1_file, capsys):
    _, first, _ = run(capsys, "analyze", d1_file, "--at", "sat:O,p1")
    _, second, _ = run(capsys, "analyze", d1_file, "--at", "sat:O,p1")
    assert first == second


def test_selftest_runs(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "5", "--clusters", "25")
    assert code == 0
    assert "selftest seed=5" in out


def test_missing_name_on_multi_cluster_file(tmp_path, capsys):
    path = tmp_path / "two.cluster"
    path.write_text("cluster a { O }\ncluster b { O }\n", encoding="utf-8")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 0  # validate checks all clusters
    code, _, err = run(capsys, "unload", str(path))
    assert code == 1
    assert "--name" in err
    code, out, _ = run(capsys, "unload", str(path), "--name", "a")
    assert code == 0


def test_cartier_seed_point_flag(d1_file, capsys):
    code, out, _ = run(
        capsys, "cartier", d1_file, "--at", "c0", "--alpha", "q1=2",
        "--seed-point", "p1",
    )
    assert code == 0
    assert json.loads(out.split("\n", 2)[2])["passed"] is True


def test_singularities_dot_output(d1_file, capsys):
    code, out, _ = run(capsys, "singularities", d1_file, "--format", "dot")
    assert code == 2
    assert 'graph "dual_d1_c0"' in out


def test_missing_file_is_an_input_error(tmp_path, capsys):
    path = str(tmp_path / "absent.cluster")
    for argv in (["validate", path], ["unload", path], ["synthesize", path]):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


def test_undecodable_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "latin1.cluster"
    path.write_bytes("cluster d { O }\nweights d { O=1 }  # caf\u00e9\n".encode("latin-1"))
    for command in ("validate", "analyze", "synthesize"):
        argv = [command, str(path)] + (["--at", "c0"] if command == "analyze" else [])
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert err.startswith(f"error: {path}: not valid UTF-8") and err.count("\n") == 1


@pytest.mark.parametrize(
    "weight, message",
    [("²", "unexpected character '²'"), ("1" * 5000, "weight of 'O' has too many digits")],
    ids=["superscript", "5000-digits"],
)
def test_bad_integer_weight_is_an_input_error(tmp_path, capsys, weight, message):
    path = tmp_path / "w.cluster"
    path.write_text(f"cluster d1 {{ O }}\nweights d1 {{ O={weight} }}\n", encoding="utf-8")
    code, out, err = run(capsys, "validate", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: line 2, column 16: {message}\n"


@pytest.mark.parametrize(
    "at, message",
    [
        ("c²", "cannot parse boundary point 'c²'"),
        ("c" + "1" * 5000, "component number has too many digits"),
    ],
    ids=["superscript", "5000-digits"],
)
def test_bad_component_number_is_an_input_error(d1_file, capsys, at, message):
    code, out, err = run(capsys, "analyze", d1_file, "--at", at)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "alpha, message",
    [
        ("q1=１", "multiplicity '１' is not an integer"),
        ("q1=1_0", "multiplicity '1_0' is not an integer"),
        ("q1=²", "multiplicity '²' is not an integer"),
        ("q1=" + "1" * 5000, "multiplicity of 'q1' has too many digits"),
        ("q1=-1", "prescribed multiplicities must be positive"),
        ("q1=2,q1=3", "multiplicity of 'q1' given twice"),
    ],
    ids=["full-width", "underscore", "superscript", "5000-digits", "negative", "repeated"],
)
def test_bad_multiplicity_is_an_input_error(d1_file, capsys, alpha, message):
    code, out, err = run(capsys, "cartier", d1_file, "--at", "c0", "--alpha", alpha)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--clusters", "-3"), "cluster count -3 is negative"),
        (("--clusters", "１"), "cluster count '１' is not an integer"),
        (("--clusters", "1_0"), "cluster count '1_0' is not an integer"),
        (("--clusters", " 3"), "cluster count ' 3' is not an integer"),
        (("--clusters", "1" * 5000), "cluster count has too many digits"),
        (("--seed", "²"), "seed '²' is not an integer"),
    ],
    ids=["negative", "full-width", "underscore", "space", "5000-digits", "superscript-seed"],
)
def test_bad_selftest_count_is_an_input_error(capsys, argv, message):
    code, out, err = run(capsys, "selftest", *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_selftest_accepts_a_negative_seed_and_zero_clusters(capsys):
    code, out, _ = run(capsys, "selftest", "--seed", "-3", "--clusters", "0")
    assert code == 0
    assert out.startswith("selftest seed=-3: 0 clusters, 0 boundary points analyzed")


def test_unload_cap_overrun_exits_3(tmp_path, capsys, monkeypatch):
    path = tmp_path / "i.cluster"
    path.write_text(
        "cluster i { O ; p1 -> O ; q1 -> p1 ; w -> p1, O }\n"
        "weights i { O=1 p1=1 q1=1 w=1 }\n",
        encoding="utf-8",
    )
    monkeypatch.setattr(cli, "unload", lambda cluster: unload(cluster, cap=1))
    code, out, err = run(capsys, "unload", str(path))
    assert code == 3
    assert out == ""
    assert err == "internal error: unloading exceeded the 1-step safety cap\n"


@pytest.mark.parametrize(
    "callee, argv, error, message",
    [
        ("unload", ["unload"], MemoryError(), "internal error: MemoryError\n"),
        (
            "enumerate_singularities",
            ["singularities"],
            RecursionError("maximum recursion depth exceeded"),
            "internal error: RecursionError: maximum recursion depth exceeded\n",
        ),
    ],
    ids=["memory", "recursion"],
)
def test_resource_exhaustion_exits_3(d1_file, capsys, monkeypatch, callee, argv, error, message):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, callee, exhausted)
    code, out, err = run(capsys, *argv, d1_file)
    assert code == 3
    assert out == ""
    assert err == message


def test_import_leaves_oracle_unloaded():
    source = str(Path(sandwiched.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source, os.environ.get("PYTHONPATH")]))
    script = (
        "import importlib, pkgutil, sys, sandwiched\n"
        "runtime = [m.name for m in pkgutil.iter_modules(sandwiched.__path__) if m.name != 'oracle']\n"
        "for name in runtime:\n"
        "    importlib.import_module('sandwiched.' + name)\n"
        "print('cli' in runtime, 'sandwiched.oracle' in sys.modules)\n"
        "print([name for name in sandwiched.__all__ if not hasattr(sandwiched, name)])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path}, check=True,
    )
    assert result.stdout == "True False\n[]\n"
