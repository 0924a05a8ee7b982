import ast
import glob
import importlib.util
import io
import json
import os
import pathlib
import re
import shutil
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from types import FunctionType, SimpleNamespace

import pytest

import ckkernel
from ckkernel import cli
from ckkernel.cli import _parse_weights, main
from ckkernel.errors import DomainError
from ckkernel.kernel import certify
from ckkernel.lfunction import central_values
from ckkernel.petersson import triangle_check


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def certificate_floats(cert):
    return [cert.rho.value, cert.rho.abs_err, cert.per_k_bound, cert.global_bound]


class TestJsonDump:
    """The floats printed by --json parse back to the library's exact floats."""

    def test_round_trips_through_stdlib_parser(self):
        code, out, _ = run_cli(["certify", "--weight", "16", "--json"])
        assert code == 0
        doc = json.loads(out)["certificate"]
        printed = [doc["rho"], doc["rho_abs_err"], doc["per_k_bound"], doc["global_bound"]]
        assert printed == certificate_floats(certify(16))
        assert all(type(v) is float for v in printed)

    def test_floats_keep_full_precision(self):
        code, out, _ = run_cli(["report", "--weights", "12", "--json", "--triangle"])
        assert code == 0
        (doc,) = json.loads(out)
        cert = doc["certificate"]
        assert [cert["rho"], cert["rho_abs_err"], cert["per_k_bound"],
                cert["global_bound"]] == certificate_floats(certify(12))
        lvals = [(lv.value, lv.abs_err) for _, lv in central_values(12)]
        assert [(lv["value"], lv["abs_err"]) for lv in doc["l_values"]] == lvals
        tri = triangle_check(12)
        assert doc["triangle"] == {
            "lhs": tri.lhs.value,
            "lhs_abs_err": tri.lhs.abs_err,
            "rhs": tri.rhs.value,
            "rhs_abs_err": tri.rhs.abs_err,
            "ratio": tri.ratio,
        }


class TestParseWeights:
    def test_single_and_range(self):
        assert _parse_weights("12") == [12]
        assert _parse_weights("12:24:4") == [12, 16, 20, 24]

    def test_rejects_bad_ranges(self):
        for text in ("12:24", "a:b:c", "24:12:4", "12:24:0"):
            with pytest.raises(DomainError):
                _parse_weights(text)

    def test_rejects_unsupported_weights(self):
        with pytest.raises(DomainError):
            _parse_weights("14")
        with pytest.raises(DomainError):
            _parse_weights("12:44:4")


class TestCertifyCommand:
    def test_success_exit_zero(self):
        code, out, _ = run_cli(["certify", "--weight", "12"])
        assert code == 0
        assert "nonvanishing = True" in out

    def test_json_output(self):
        code, out, _ = run_cli(["certify", "--weight", "16", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["certificate"]["nonvanishing"] is True
        assert doc["certificate"]["sign"] == 1

    def test_domain_error_exit_one(self):
        code, _, err = run_cli(["certify", "--weight", "14"])
        assert code == 1
        assert "error" in err

    def test_precision_error_exit_two(self):
        code, _, err = run_cli(["certify", "--weight", "12", "--eps", "1e-15"])
        assert code == 2

    def test_usage_error_exit_one(self):
        code, _, _ = run_cli(["certify"])
        assert code == 1
        code, _, _ = run_cli(["no-such-command"])
        assert code == 1


class TestOtherCommands:
    def test_rk(self):
        code, out, _ = run_cli(["rk", "--weight", "12", "--n", "1"])
        assert code == 0
        assert "rho" in out

    def test_check_bounds(self):
        code, out, _ = run_cli(["check-bounds"])
        assert code == 0
        assert "global bound" in out
        assert "NOT monotone" not in out

    def test_report_json_structure(self):
        code, out, _ = run_cli(["report", "--weights", "12", "--json"])
        assert code == 0
        docs = json.loads(out)
        assert len(docs) == 1
        doc = docs[0]
        assert set(doc) == {
            "schema_version",
            "weight",
            "certificate",
            "l_values",
            "triangle",
            "timings_ms",
        }
        assert doc["weight"] == 12
        assert doc["triangle"] is None
        assert len(doc["l_values"]) == 1
        assert doc["l_values"][0]["value"] > 0

    def test_report_timings_resolve_below_a_millisecond(self):
        code, out, _ = run_cli(["report", "--weights", "12", "--json"])
        assert code == 0
        timings = json.loads(out)[0]["timings_ms"]
        assert set(timings) == {"certify", "l_values"}
        assert all(type(t) is float and t > 0.0 for t in timings.values())

    def test_report_with_triangle(self):
        code, out, _ = run_cli(["report", "--weights", "12", "--json", "--triangle"])
        assert code == 0
        tri = json.loads(out)[0]["triangle"]
        assert tri is not None and tri["ratio"] > 0

    def test_report_evaluates_each_quantity_once(self, monkeypatch):
        # every binding the report reaches r_k(k, 1) and L(f, k/2) through
        kernel_calls, l_calls = [], []

        def counting(calls, fn, key):
            def wrapped(*args, **kwargs):
                calls.append(key(*args))
                return fn(*args, **kwargs)
            return wrapped

        for mod in (ckkernel.kernel, ckkernel.petersson):
            monkeypatch.setattr(mod, "r_k", counting(kernel_calls, mod.r_k, lambda k, n, *_: (k, n)))
        monkeypatch.setattr(ckkernel.lfunction, "completed_l", counting(
            l_calls, ckkernel.lfunction.completed_l, lambda f, *_: (f.weight, f.a)))
        code, _, _ = run_cli(["report", "--weights", "12:28:4", "--triangle", "--json"])
        assert code == 0
        weights = range(12, 29, 4)
        assert kernel_calls == [(k, 1) for k in weights]
        assert len(set(l_calls)) == len(l_calls) == sum(map(ckkernel.dim_cusp, weights))

    def test_report_text_matches_json(self):
        argv = ["report", "--weights", "12:28:4", "--triangle"]
        code, out, _ = run_cli(argv)
        assert code == 0
        _, js, _ = run_cli(argv + ["--json"])
        # one block per weight: its k= line, one line per form, one triangle line
        expected = []
        for doc in json.loads(js):
            expected.append(f"k={doc['weight']}: rho = {doc['certificate']['rho']:.15g} ")
            expected += [f"    L(f_{i}, k/2) = " for i in range(len(doc["l_values"]))]
            expected.append("    triangle: ")
        weights = range(12, 29, 4)
        lines = out.splitlines()
        assert len(lines) == len(expected) == 2 * len(weights) + sum(map(ckkernel.dim_cusp, weights))
        for line, start in zip(lines, expected):
            assert line.startswith(start), (line, start)

    def test_report_deterministic_modulo_timings(self):
        _, out1, _ = run_cli(["report", "--weights", "12:16:4", "--json"])
        _, out2, _ = run_cli(["report", "--weights", "12:16:4", "--json"])
        doc1, doc2 = json.loads(out1), json.loads(out2)
        for d in (*doc1, *doc2):
            d.pop("timings_ms")
        assert doc1 == doc2

    def test_report_rejects_bad_weights(self):
        code, _, err = run_cli(["report", "--weights", "14:14:1"])
        assert code == 1
        assert "rejected" in err or "error" in err


def without_timings(out):
    docs = json.loads(out)
    for doc in docs:
        doc.pop("timings_ms")
    return docs


# README's command lines, each with the namespace it parses to and other
# spellings of it: --opt=value, a unique prefix, a repeated option's last value
_README_LINES = [
    (["certify", "--weight", "12"],
     SimpleNamespace(func=cli._cmd_certify, weight=12, eps=1e-10, json=False),
     [["certify", "--weight=12"], ["certify", "--we", "12"],
      ["certify", "--weight", "14", "--weight", "12"]]),
    (["certify", "--weight", "16", "--json"],
     SimpleNamespace(func=cli._cmd_certify, weight=16, eps=1e-10, json=True),
     [["certify", "--j", "--w=16"], ["certify", "--json", "--weight", "16", "--json"]]),
    (["rk", "--weight", "12", "--n", "1"],
     SimpleNamespace(func=cli._cmd_rk, weight=12, n=1, eps=1e-10),
     [["rk", "--weight", "12"], ["rk", "--n=1", "--e", "1e-10", "--weight=12"]]),
    (["check-bounds"], SimpleNamespace(func=cli._cmd_check_bounds), []),
    (["report", "--weights", "12:40:4", "--json", "--triangle"],
     SimpleNamespace(func=cli._cmd_report, weights="12:40:4", eps=1e-10, triangle=True, json=True),
     [["report", "--weights=12:40:4", "--t", "--j"], ["report", "--triangle", "--weights", "12",
                                                     "--json", "--weights", "12:40:4"]]),
]

# argvs that are usage errors: no command, an unknown command, an unknown
# option, a stray positional, a missing required option or value, a value on
# a flag, a bad int or float
_MALFORMED = [
    [], ["no-such-command"], ["--weight", "12"], ["-x"],
    ["certify", "--bogus"], ["certify", "--weight", "12", "-x"], ["check-bounds", "--json"],
    ["certify", "--weight", "12", "stray"], ["report", "stray", "--weights", "12"],
    ["certify"], ["rk", "--n", "1"], ["report", "--json"], ["certify", "--weight"],
    ["certify", "--weight", "12", "--json=yes"], ["report", "--weights", "12", "--triangle=1"],
    ["certify", "--weight", "twelve"], ["rk", "--weight", "12", "--n", "1.5"],
    ["certify", "--weight", "12", "--eps", "small"], ["report", "--weights", "12", "--eps="],
]


class TestParser:
    @pytest.mark.parametrize("argv, expected, spellings", _README_LINES,
                             ids=[" ".join(argv) for argv, _, _ in _README_LINES])
    def test_readme_command_lines(self, argv, expected, spellings):
        # each line parses to its namespace, and main prints what its handler
        # prints for that namespace
        assert cli._parse(argv) == expected
        for other in spellings:
            assert cli._parse(other) == expected, other
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        direct = io.StringIO()
        with redirect_stdout(direct):
            assert expected.func(expected) == 0
        if argv[0] == "report":
            assert without_timings(out) == without_timings(direct.getvalue())
        else:
            assert out == direct.getvalue()

    @pytest.mark.parametrize("argv", _MALFORMED,
                             ids=[" ".join(argv) or "(none)" for argv in _MALFORMED])
    def test_usage_errors_exit_one_on_stderr(self, argv):
        code, out, err = run_cli(argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: ")

    @pytest.mark.parametrize("command", ["certify", "rk", "check-bounds", "report"])
    def test_help_names_every_option(self, command):
        # alone, and after a valid option
        options = cli._COMMANDS[command][1]
        first = ["--eps", "1e-10"] if "eps" in options else []
        for flag in ("-h", "--help", "--he"):
            for argv in ([command, flag], [command, *first, flag]):
                code, out, err = run_cli(argv)
                assert (code, err) == (0, ""), argv
                assert out.startswith(f"usage: ckkernel {command} ")
                assert all(f"--{name}" in out for name in options)

    def test_help_wins_over_an_unknown_option(self):
        # a help token before or after an unknown option prints the help;
        # without one the unknown option is a usage error
        for argv in (["certify", "--help", "--bogus"], ["certify", "--bogus", "--help"],
                     ["certify", "--bogus", "--he"]):
            code, out, err = run_cli(argv)
            assert (code, err) == (0, ""), argv
            assert out.startswith("usage: ckkernel certify ")
        code, out, err = run_cli(["certify", "--weight", "12", "--bogus"])
        assert (code, out) == (1, "")
        assert err == "error: option --bogus not recognized\n"

    def test_top_level_help_lists_every_command(self):
        for argv in (["-h"], ["--help"], ["--help", "no-such-command"]):
            code, out, err = run_cli(argv)
            assert (code, err) == (0, "")
            assert [line.split()[2] for line in out.splitlines() if line.startswith("usage:")] == [
                "certify", "rk", "check-bounds", "report"]


def test_import_leaves_argparse_unloaded():
    # building an argparse parser and its subparsers cost about a millisecond
    # of each report; the table and getopt replace it
    src = os.path.dirname(os.path.dirname(ckkernel.__file__))
    code = "import sys, ckkernel, ckkernel.cli; print('argparse' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_import_leaves_mpmath_unloaded():
    # mpmath is a test dependency only; loading it would add to every run's start-up
    src = os.path.dirname(os.path.dirname(ckkernel.__file__))
    code = "import sys, ckkernel, ckkernel.cli; print('mpmath' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_import_leaves_numpy_unloaded():
    # numpy is a test dependency only; importing it costs more start-up than the package itself
    src = os.path.dirname(os.path.dirname(ckkernel.__file__))
    code = "import sys, ckkernel, ckkernel.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


def test_sources_compile_with_warnings_as_errors():
    # an invalid escape in a docstring is a SyntaxWarning from Python 3.12 on, printed
    # at every start that compiles the source afresh (no cached bytecode)
    src = os.path.dirname(ckkernel.__file__)
    names = sorted(n for n in os.listdir(src) if n.endswith(".py"))
    assert "kernel.py" in names
    for name in names:
        path = os.path.join(src, name)
        with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(fh.read(), path, "exec")


def layer_trees() -> dict:
    """The syntax tree of each layer module of the package, by module name."""
    src = os.path.dirname(ckkernel.__file__)
    trees = {}
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py") and n != "__init__.py"):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            trees[name[:-3]] = ast.parse(fh.read())
    return trees


BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def bench_sources() -> dict:
    """The text of each Python file under perfbench, by its relative path."""
    sources = {}
    for name in glob.glob("**/*.py", root_dir=BENCH_DIR, recursive=True):
        with open(os.path.join(BENCH_DIR, name), encoding="utf-8") as fh:
            sources[name] = fh.read()
    return sources


def used(node, name, bare):
    """Whether the tree reads name as an attribute, or as a bare name when
    bare is true, outside a def or class of that name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name:
        return False
    if isinstance(node, ast.Name) and node.id == name:
        return bare
    if isinstance(node, ast.Attribute) and node.attr == name:
        return True
    return any(used(child, name, bare) for child in ast.iter_child_nodes(node))


def test_every_exported_name_is_used_by_the_program_or_the_benchmark():
    # a name in a layer module's __all__ is used as code in the package outside
    # its own def or class: as an attribute, or as a bare name in its own module
    # or one that imports it (not in a string or a docstring, and not a local of
    # the same name elsewhere); or it is named in perfbench, whose tracer, hooks
    # and tests read it.  The rest is test-only code.
    trees = layer_trees()
    with open(os.path.join(BENCH_DIR, "layers.json"), encoding="utf-8") as fh:
        bench_text = "\n".join([*bench_sources().values(), fh.read()])

    def imports(tree):
        return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}

    unused = [
        f"{module}.{name}"
        for module in trees
        for name in getattr(importlib.import_module(f"ckkernel.{module}"), "__all__", ())
        if not any(used(tree, name, user == module or name in imports(tree))
                   for user, tree in trees.items())
        and not re.search(rf"\b{re.escape(name)}\b", bench_text)
    ]
    assert unused == []


def test_every_public_method_of_an_exported_class_is_read_by_the_program_or_the_benchmark():
    # a public method or property of a class in a layer module's __all__ is
    # read as an attribute by the package's or perfbench's code outside its own
    # def (not in a comment, a string or a docstring); the rest is test-only
    # code.  perfbench reads Eigenform.coefficient and .n_coeffs,
    # QExpansion.prec and QuadratureSpec.x_nodes
    layers = layer_trees()
    trees = [*layers.values(), *map(ast.parse, bench_sources().values())]
    kinds = (FunctionType, property, classmethod, staticmethod)
    members = {}  # "module.Class.name" -> name
    for module in layers:
        mod = importlib.import_module(f"ckkernel.{module}")
        for cls in (getattr(mod, n) for n in getattr(mod, "__all__", ())):
            if isinstance(cls, type):
                members |= {f"{module}.{cls.__name__}.{name}": name
                            for name, member in vars(cls).items()
                            if not name.startswith("_") and isinstance(member, kinds)}
    assert {"qexpansion.Eigenform.coefficient", "qexpansion.QExpansion.prec"} <= set(members)
    unused = [m for m, name in members.items() if not any(used(tree, name, False) for tree in trees)]
    assert unused == []


def test_every_imported_name_is_used_by_its_module():
    # no linter runs on the package, so an import that a change leaves behind
    # is found here: each layer module uses every name it imports as code, a
    # bare name or the head of an attribute (not in a string or a docstring);
    # `from __future__ import annotations` is the one exception
    src = os.path.dirname(ckkernel.__file__)
    unused = []
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py") and n != "__init__.py"):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        imported = [alias.asname or alias.name.split(".")[0] for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{name}: {n}" for n in imported if n not in used and n != "annotations"]
    assert unused == []


def test_no_module_calls_math_gamma():
    # every Gamma the program takes has an integer or half-integer argument and
    # comes in closed form from exact factorials, with a derived bar; math.gamma
    # and math.lgamma carry only CPython's tested, unproved ulp claims
    src = os.path.dirname(ckkernel.__file__)
    calls = []
    for name in sorted(n for n in os.listdir(src) if n.endswith(".py")):
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                calls += [f"{name}: from math import {a.name}" for a in node.names
                          if a.name in ("gamma", "lgamma")]
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "math"
                    and node.func.attr in ("gamma", "lgamma")):
                calls.append(f"{name}:{node.lineno}: math.{node.func.attr}")
    assert calls == []


def test_code_lines_counts_only_code():
    # tools/code_lines.py skips blank lines, comments and docstrings, and counts
    # each line of a statement that spans several, and of a string that is code
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                        "code_lines.py")
    spec = importlib.util.spec_from_file_location("code_lines", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    source = '''"""Module docstring,
over two lines."""

import math  # a comment

# a comment line


def f(x):
    """One line."""
    return math.fsum((x,
                      1.0))


class C:
    """Two
    lines."""

    text = """a string
    that is code"""
'''
    assert tool.code_lines(source) == 7
    out = subprocess.run([sys.executable, path], capture_output=True, text=True, check=True)
    assert out.stdout.splitlines()[-1].split()[0] == "total"


def test_halve_charges_rows_each_occur_once(tmp_path):
    # tools/halve_charges.py mutates one charge per row; each row's text must
    # occur exactly once in the package, so the table cannot drift from it
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "halve_charges", os.path.join(root, "tools", "halve_charges.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    package = pathlib.Path(root, "src", "ckkernel")
    tool.check(package)
    assert {row[1] for row in tool.ROWS} <= {p.name for p in package.glob("*.py")}
    for name, module, text, halved, _ in tool.ROWS:
        assert halved != text, name
    # a second copy of a row's text, or none, stops the run
    shutil.copytree(package, tmp_path / "ckkernel")
    name, module, text, _, _ = tool.ROWS[0]
    extra = tmp_path / "ckkernel" / "errors.py"
    extra.write_text(extra.read_text() + f"# {text}\n")
    with pytest.raises(ValueError, match=name):
        tool.check(tmp_path / "ckkernel")
    target = tmp_path / "ckkernel" / module
    target.write_text(target.read_text().replace(text, "()"))
    with pytest.raises(ValueError, match=name):
        tool.check(tmp_path / "ckkernel")
