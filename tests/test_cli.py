"""Command line interface: output shapes, exit codes, file handling."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import probalc
from probalc import cli
from probalc.bdd import BddManager
from probalc.cli import EXIT_OK, EXIT_PARSE, EXIT_RESOURCE, main
from probalc.generators import generate_synthetic
from probalc.parser import parse_kb, parse_query, serialize_kb
from probalc.semantics import probability_query

from conftest import CRIME_TEXT

QUERY = "raskolnikov : GreatMan"


@pytest.fixture
def crime_path(tmp_path):
    path = tmp_path / "crime.kb"
    path.write_text(CRIME_TEXT)
    return path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestQueryCommand:
    def test_human_output(self, capsys, crime_path):
        code, out, err = run(capsys, "query", str(crime_path), QUERY)
        assert code == EXIT_OK
        assert err == ""
        assert "probability: 0.176" in out
        assert "justifications (2):" in out
        assert "justification 1:" in out
        assert "axiom 1: 0.2 :: Nihilist <= GreatMan" in out
        assert "axiom 3: 0.6 :: (raskolnikov, alyona) : killed" in out
        assert "formula: (x1 & x2) | (x1 & x3)" in out
        assert "bdd nodes: 3" in out
        assert "time:" in out and "ms" in out

    def test_json_output(self, capsys, crime_path):
        code, out, err = run(capsys, "query", str(crime_path), QUERY, "--json")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["probability"] - 0.176) < 1e-12
        assert payload["justifications"] == [[0, 1, 2], [0, 1, 3]]
        assert payload["formula"] == "(x1 & x2) | (x1 & x3)"
        assert payload["bdd_nodes"] == 3
        assert (payload["tableau_calls"], payload["hst_nodes"], payload["memo_hits"]) == (7, 7, 6)
        assert "exact_probability" not in payload
        assert payload["time_ms"] >= 0.0
        assert payload["config"]["method"] == "glassbox"
        assert payload["config"]["engine"] == "bdd"

    def test_an_underflowing_answer_prints_its_exact_value(self, capsys, tmp_path):
        """Two 1e-200 choices multiply to 1e-400, which a float pass rounds to 0."""
        path = tmp_path / "tiny.kb"
        path.write_text("1e-200 :: a : A\n1e-200 :: a : B\n")
        code, out, _ = run(capsys, "query", str(path), "a : A and B")
        assert code == EXIT_OK
        assert out.startswith("probability: 1e-400\n")
        code, out, _ = run(capsys, "query", str(path), "a : A and B", "--json")
        payload = json.loads(out)
        assert (payload["probability"], payload["exact_probability"]) == (0.0, "1e-400")

    def test_bruteforce_prints_an_underflowing_answer_exactly(self, capsys, tmp_path):
        """World enumeration sums the entailing 1e-400 world again in ``decimal``."""
        path = tmp_path / "tiny.kb"
        path.write_text("1e-200 :: a : A\n1e-200 :: a : B\n")
        code, out, _ = run(capsys, "query", str(path), "a : A and B", "--engine", "bruteforce")
        assert code == EXIT_OK
        assert out.startswith("probability: 1e-400\n")

    def test_bruteforce_json_reports_an_underflowing_answer_exactly(self, capsys, tmp_path):
        path = tmp_path / "tiny.kb"
        path.write_text("1e-200 :: a : A\n1e-200 :: a : B\n")
        code, out, _ = run(
            capsys, "query", str(path), "a : A and B", "--engine", "bruteforce", "--json"
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert (payload["probability"], payload["exact_probability"]) == (0.0, "1e-400")
        assert payload["bdd_nodes"] == 0

    def test_json_output_is_stable_except_for_timing(self, capsys, crime_path):
        payloads = []
        for _ in range(2):
            _, out, _ = run(capsys, "query", str(crime_path), QUERY, "--json")
            payload = json.loads(out)
            payload.pop("time_ms")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    @pytest.mark.parametrize("engine", ["bdd", "bruteforce"])
    def test_method_engine_combinations(self, capsys, crime_path, method, engine):
        code, out, _ = run(
            capsys,
            "query", str(crime_path), QUERY,
            "--method", method, "--engine", engine, "--json",
        )
        assert code == EXIT_OK
        payload = json.loads(out)
        assert abs(payload["probability"] - 0.176) < 1e-12
        assert payload["justifications"] == [[0, 1, 2], [0, 1, 3]]
        assert payload["bdd_nodes"] == (3 if engine == "bdd" else 0)

    def test_subsumption_query_text(self, capsys, tmp_path):
        path = tmp_path / "chain.kb"
        path.write_text("0.6 :: A <= B\n0.7 :: B <= C\n")
        code, out, _ = run(capsys, "query", str(path), "A <= C", "--json")
        assert code == EXIT_OK
        assert abs(json.loads(out)["probability"] - 0.42) < 1e-12

    def test_dot_export(self, capsys, crime_path, tmp_path):
        dot_path = tmp_path / "diagram.dot"
        code, _, _ = run(
            capsys, "query", str(crime_path), QUERY, "--dot", str(dot_path)
        )
        assert code == EXIT_OK
        dot = dot_path.read_text()
        assert dot.startswith("digraph bdd {")
        assert 'label="x1"' in dot

    @pytest.mark.parametrize(
        "source, engine", [("crime", "bdd"), ("crime", "bruteforce"), ("chain", "bdd")]
    )
    def test_dot_export_builds_one_diagram(
        self, capsys, monkeypatch, crime_path, tmp_path, source, engine
    ):
        """``--dot`` writes the diagram the query built; nothing builds a second one."""
        path, text = crime_path, QUERY
        if source == "chain":
            path, text = tmp_path / "chain.kb", "B0 <= B7"
            path.write_text(serialize_kb(generate_synthetic(7)))
        builds = []
        build = BddManager.build

        def counting_build(self, formula, **kwargs):
            builds.append(formula)
            return build(self, formula, **kwargs)

        monkeypatch.setattr(BddManager, "build", counting_build)
        dot_path = tmp_path / "diagram.dot"
        code, _, err = run(
            capsys, "query", str(path), text, "--engine", engine, "--dot", str(dot_path)
        )
        assert (code, err, len(builds)) == (EXIT_OK, "", 1)
        kb = parse_kb(path.read_text())
        fresh = BddManager(len(kb.prob_indices))
        formula = probability_query(kb, parse_query(text)).formula
        assert dot_path.read_text() == fresh.to_dot(fresh.build(formula))

    def test_world_limit_exit_code(self, capsys, tmp_path):
        path = tmp_path / "chain.kb"
        path.write_text(serialize_kb(generate_synthetic(7)))
        code, out, err = run(capsys, "query", str(path), "B0 <= B7", "--engine", "bruteforce")
        assert (code, out) == (EXIT_RESOURCE, "")
        assert err == "aborted: 21 annotated axioms exceed the enumeration cap of 20\n"

    def test_kb_parse_error(self, capsys, tmp_path):
        path = tmp_path / "broken.kb"
        path.write_text("A <=\n")
        code, out, err = run(capsys, "query", str(path), QUERY)
        assert code == EXIT_PARSE
        assert out == ""
        assert "parse error at 1:" in err

    def test_query_parse_error(self, capsys, crime_path):
        code, _, err = run(capsys, "query", str(crime_path), "a : ")
        assert code == EXIT_PARSE
        assert "parse error" in err

    def test_query_parse_error_on_its_second_line(self, capsys, crime_path):
        code, out, err = run(capsys, "query", str(crime_path), "raskolnikov :\n GreatMan B")
        assert (code, out) == (EXIT_PARSE, "")
        assert err == "parse error at 2:11: unexpected trailing input\n"

    def test_missing_kb_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "query", str(tmp_path / "nope.kb"), QUERY)
        assert code == EXIT_PARSE
        assert "cannot read" in err

    def test_timeout_exit_code(self, capsys, crime_path):
        code, _, err = run(
            capsys, "query", str(crime_path), QUERY, "--timeout", "1e-9"
        )
        assert code == EXIT_RESOURCE
        assert "aborted" in err


class TestGenCommand:
    def test_chain_to_stdout(self, capsys):
        code, out, _ = run(capsys, "gen", "2")
        assert code == EXIT_OK
        kb = parse_kb(out)
        assert len(kb) == 6
        assert all(a.probability == 0.6 for a in kb.axioms)

    def test_chain_to_file(self, capsys, tmp_path):
        out_path = tmp_path / "chain.kb"
        code, out, _ = run(capsys, "gen", "3", "-o", str(out_path))
        assert code == EXIT_OK
        assert out == ""
        assert len(parse_kb(out_path.read_text())) == 9

    def test_random_kb_round_trips(self, capsys):
        code, out, _ = run(capsys, "gen", "--random", "--seed", "3")
        assert code == EXIT_OK
        kb = parse_kb(out)
        assert 3 <= len(kb) <= 10

    def test_random_is_seed_deterministic(self, capsys):
        _, first, _ = run(capsys, "gen", "--random", "--seed", "5")
        _, second, _ = run(capsys, "gen", "--random", "--seed", "5")
        assert first == second

    def test_missing_size_is_an_error(self, capsys):
        code, _, err = run(capsys, "gen")
        assert code == EXIT_PARSE
        assert "chain length" in err

    def test_rejects_zero_layers(self, capsys):
        with pytest.raises(SystemExit):
            main(["gen", "0"])


class TestCheckCommand:
    def test_consistent_kb(self, capsys, crime_path):
        code, out, _ = run(capsys, "check", str(crime_path))
        assert code == EXIT_OK
        assert out.strip() == "consistent"

    def test_inconsistent_kb(self, capsys, tmp_path):
        path = tmp_path / "bad.kb"
        path.write_text("a : A\na : not A\n")
        code, out, _ = run(capsys, "check", str(path))
        assert code == EXIT_OK
        assert out.strip() == "inconsistent"

    def test_json_flag(self, capsys, crime_path):
        code, out, _ = run(capsys, "check", str(crime_path), "--json")
        assert code == EXIT_OK
        assert json.loads(out) == {"consistent": True}

    def test_parse_error_exit_code(self, capsys, tmp_path):
        path = tmp_path / "broken.kb"
        path.write_text("0.5 ::\n")
        code, _, err = run(capsys, "check", str(path))
        assert code == EXIT_PARSE
        assert "parse error" in err


FAILING_INPUTS = {
    "gen-axioms-2": ["gen", "--random", "--axioms", "2"],
    "gen-unwritable-out": ["gen", "3", "-o", "{missing}/x.kb"],
    "query-unwritable-dot": ["query", "{crime}", QUERY, "--dot", "{missing}/x.dot"],
    "query-timeout-0": ["query", "{crime}", QUERY, "--timeout", "0"],
    "check-timeout-0": ["check", "{crime}", "--timeout", "0"],
    "query-timeout-nan": ["query", "{crime}", QUERY, "--timeout", "nan"],
    "query-not-utf8": ["query", "{not_utf8}", QUERY],
    "check-not-utf8": ["check", "{not_utf8}"],
    "gen-0": ["gen", "0"],
    "bench-removed": ["bench", "2"],
}


@pytest.mark.parametrize("argv", FAILING_INPUTS.values(), ids=FAILING_INPUTS.keys())
def test_bad_input_exits_1(capsys, tmp_path, crime_path, argv):
    """Usage errors, bad option values and unusable files exit 1 without a traceback.

    A usage error leaves ``main`` as ``SystemExit``; the other cases
    return their code from ``main``.
    """
    not_utf8 = tmp_path / "not_utf8.kb"
    not_utf8.write_bytes(b"a : A\n0.5 :: a : C\xff\n")
    paths = {"crime": crime_path, "not_utf8": not_utf8, "missing": tmp_path / "missing"}
    try:
        code = main([arg.format(**paths) for arg in argv])
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (EXIT_PARSE, "")
    assert "Traceback" not in captured.err
    if "{not_utf8}" in argv:
        assert captured.err.startswith(f"cannot read {not_utf8}: ")
        assert captured.err.count("\n") == 1
    if "{missing}/x.kb" in argv or "{missing}/x.dot" in argv:
        assert captured.err.startswith(f"cannot write {tmp_path / 'missing'}/x.")


def test_infinite_timeout_means_no_deadline(capsys, crime_path):
    code, out, err = run(capsys, "query", str(crime_path), QUERY, "--timeout", "inf")
    assert (code, err) == (EXIT_OK, "")
    assert out.startswith("probability: 0.176\n")


LONG_CHAIN = "".join(f"0.99 :: A{i} <= A{i + 1}\n" for i in range(1200))


@pytest.mark.parametrize("command", ["query", "check"])
def test_reasoner_recursion_error_aborts(capsys, tmp_path, command):
    """A chain of 1,200 inclusions.

    The query unfolds A0 through all 1,200 inclusions.  The unfolding
    uses an explicit stack, so it answers 0.99**1200 where it once
    exhausted the Python stack.  The consistency check has no individual
    to unfold them on, so it answers as well.
    """
    path = tmp_path / "long.kb"
    path.write_text(LONG_CHAIN)
    if command == "query":
        code, out, err = run(capsys, "query", str(path), "A0 <= A1200")
        assert (code, err) == (EXIT_OK, "")
        first = out.splitlines()[0]
        assert first.startswith("probability: ")
        assert abs(float(first.split()[1]) - 0.99**1200) < 1e-12
    else:
        assert run(capsys, "check", str(path)) == (EXIT_OK, "consistent\n", "")


def test_dot_export_of_a_deep_diagram(capsys, tmp_path):
    """The 1,200-inclusion chain's diagram has one node per level; ``--dot`` writes them all."""
    path = tmp_path / "long.kb"
    path.write_text(LONG_CHAIN)
    dot_path = tmp_path / "long.dot"
    code, out, err = run(capsys, "query", str(path), "A0 <= A1200", "--dot", str(dot_path))
    assert (code, err) == (EXIT_OK, "")
    assert "bdd nodes: 1200" in out
    nodes = [line for line in dot_path.read_text().splitlines() if re.match(r"  n\d+ \[", line)]
    assert len(nodes) == 1200


@pytest.mark.parametrize("command", ["query", "check"])
def test_out_of_memory_aborts(capsys, monkeypatch, crime_path, command):
    """A MemoryError from the reasoning step is reported with the budget exit code."""

    def exhausted(*args, **kwargs):
        raise MemoryError

    target = "probability_query" if command == "query" else "is_consistent"
    monkeypatch.setattr(cli, target, exhausted)
    argv = ["query", str(crime_path), QUERY] if command == "query" else ["check", str(crime_path)]
    assert run(capsys, *argv) == (EXIT_RESOURCE, "", "aborted: out of memory\n")


def query_in_a_fresh_interpreter(path, query):
    package_root = Path(probalc.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "probalc.cli", "query", str(path), query],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(package_root)},
        timeout=120,
    )


@pytest.mark.parametrize("count", [200, 1500])
def test_search_recursion_at_depth(tmp_path, count):
    """``count`` separate disjunctions on one individual.

    Without the query's annotated assertion the rest is satisfiable, so
    that check branches on every disjunction, one open branch point per
    disjunction.  The search keeps them on its own stack, so 1,500 answer
    like 200 (they exhausted the Python stack while each branch point
    was a recursive call).
    """
    path = tmp_path / "disjunctions.kb"
    path.write_text("".join(f"a : A{i} or B{i}\n" for i in range(count)) + "0.5 :: a : C\n")
    result = query_in_a_fresh_interpreter(path, "a : C")
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert result.stdout.startswith("probability: 0.5\n")


def test_nested_witnesses_at_depth(tmp_path):
    """A chain of 1,500 nested existentials: 1,500 witnesses, one below the other."""
    path = tmp_path / "witnesses.kb"
    path.write_text("a : " + "exists r. " * 1500 + "A\n0.5 :: a : C\n")
    result = query_in_a_fresh_interpreter(path, "a : C")
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert result.stdout.startswith("probability: 0.5\n")


def test_long_justification_gets_a_diagram(tmp_path):
    """One justification of 600 annotated inclusions: a 600-level diagram.

    Built by folding ``apply_and``, the diagram recursed once per level and
    aborted with ``maximum recursion depth exceeded``.
    """
    path = tmp_path / "long.kb"
    path.write_text("".join(f"0.999 :: A{i} <= A{i + 1}\n" for i in range(600)))
    result = query_in_a_fresh_interpreter(path, "A0 <= A600")
    assert result.returncode == EXIT_OK, result.stderr
    assert "Traceback" not in result.stderr
    first = result.stdout.splitlines()[0]
    assert first.startswith("probability: ")
    assert abs(float(first.split()[1]) - 0.999**600) < 1e-12
    assert "bdd nodes: 600" in result.stdout


DEEP_NOT = "a : " + "not " * 2000 + "A\n"
DEEP_PARENS = "a : " + "(" * 2000 + "A" + ")" * 2000 + "\n"


@pytest.mark.parametrize("text", [DEEP_NOT, DEEP_PARENS], ids=["not", "parens"])
@pytest.mark.parametrize("place", ["query-kb", "query-text", "check"])
def test_deep_nesting_answers(capsys, tmp_path, crime_path, place, text):
    """2,000 nested concepts parse and answer: no walk recurses per level."""
    path = tmp_path / "deep.kb"
    path.write_text(text)
    argv = {
        "query-kb": ["query", str(path), "a : A"],
        "query-text": ["query", str(crime_path), text.strip()],
        "check": ["check", str(path)],
    }[place]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (EXIT_OK, "")
    expected = {
        "query-kb": "probability: 1\n",
        "query-text": "probability: 0\n",
        "check": "consistent\n",
    }[place]
    assert out.startswith(expected)


TERMS = [f"A{i}" for i in range(1500)]


@pytest.mark.parametrize("operator", ["and", "or"])
class TestFlatConcepts:
    """1,500 terms of one operator, a right-nested chain 1,500 levels deep."""

    @pytest.fixture
    def flat_path(self, tmp_path, operator):
        path = tmp_path / "flat.kb"
        path.write_text(f"a : {f' {operator} '.join(TERMS)}\n0.5 :: a : C\n")
        return path

    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    def test_query(self, capsys, flat_path, method):
        code, out, err = run(capsys, "query", str(flat_path), "a : C", "--method", method)
        assert (code, err) == (EXIT_OK, "")
        assert out.startswith("probability: 0.5\n")
        code, out, err = run(capsys, "query", str(flat_path), "a : C", "--method", method, "--json")
        assert (code, err) == (EXIT_OK, "")
        payload = json.loads(out)
        assert (payload["probability"], payload["justifications"]) == (0.5, [[1]])

    @pytest.mark.parametrize("method", ["glassbox", "blackbox"])
    def test_justification_lines(self, capsys, flat_path, operator, method):
        """Axiom 1 is printed whole when it entails the query."""
        code, out, err = run(capsys, "query", str(flat_path), "a : A7", "--method", method)
        assert (code, err) == (EXIT_OK, "")
        if operator == "and":
            assert out.startswith("probability: 1\n")
            assert f"axiom 1: a : {' and '.join(TERMS)}\n" in out
        else:
            assert out.startswith("probability: 0\n")

    def test_check(self, capsys, flat_path):
        assert run(capsys, "check", str(flat_path)) == (EXIT_OK, "consistent\n", "")

    def test_query_text(self, capsys, crime_path, operator):
        text = f"a : {f' {operator} '.join(TERMS)}"
        code, out, err = run(capsys, "query", str(crime_path), text, "--json")
        assert (code, err) == (EXIT_OK, "")
        assert json.loads(out)["probability"] == 0.0


def test_closed_pipe_ends_quietly(tmp_path):
    """A reader that leaves after the first line gets no traceback on stderr.

    The chain n=8 query prints ~160 KB, more than a pipe holds, so the
    writes after the reader closes fail with ``BrokenPipeError``.
    """
    path = tmp_path / "chain.kb"
    path.write_text(serialize_kb(generate_synthetic(8)))
    package_root = Path(probalc.__file__).resolve().parents[1]
    process = subprocess.Popen(
        [sys.executable, "-m", "probalc.cli", "query", str(path), "B0 <= B8"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(package_root)},
    )
    first = process.stdout.readline()
    process.stdout.close()
    err = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=120) == EXIT_OK
    assert first.startswith(b"probability: ")
    assert err == b""


class TestEntrypoint:
    def test_installed_script_runs(self):
        """The declared ``probalc`` console script runs ``gen 1``.

        The script's target is read from ``pyproject.toml`` and run in a
        fresh interpreter through the same wrapper pip writes for a console
        script, so the test needs no install.  An installed ``probalc`` on
        ``PATH`` is run as well.
        """
        tomllib = pytest.importorskip("tomllib")

        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with pyproject.open("rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["probalc"]
        module, attr = target.split(":")
        wrapper = f"import sys\nfrom {module} import {attr}\nsys.exit({attr}())"
        package_root = Path(probalc.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(package_root)}
        commands = [([sys.executable, "-c", wrapper, "gen", "1"], env)]
        installed = shutil.which("probalc")
        if installed is not None:
            commands.append(([installed, "gen", "1"], None))

        for argv, run_env in commands:
            result = subprocess.run(
                argv, capture_output=True, text=True, env=run_env, timeout=60
            )
            assert result.returncode == EXIT_OK, result.stderr
            assert "B0 <= P1 and Q1" in result.stdout, result.stderr
