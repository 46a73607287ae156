"""The benchmark's own tests, each at a tiny size.

    python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402

from plogic import parse, truth_table  # noqa: E402
from plogic.proof import proof_to_text, prove_tautology  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_every_workload_reports_every_metric(name, capsys):
    assert name in {w["name"] for w in SPEC["workloads"]}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    plain = run.run(name, seed=5, seconds=0.2, trace=False, small=True)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == _names("end_to_end")
    traced = run.run(name, seed=5, seconds=0.2, trace=True, small=True)
    assert traced["correct"] and traced["failed"] == 0
    assert set(traced["metrics"]) == _names("per_layer")
    for key, metric in (plain["metrics"] | traced["metrics"]).items():
        assert metric["unit"] == units[key]
    assert all(m["value"] > 0 for m in plain["metrics"].values())
    out = capsys.readouterr().out
    for key in units:
        assert key in out


def test_same_seed_same_inputs(tmp_path):
    def outputs(seed, where):
        wl = workloads.build("semantics-sweep", seed, tmp_path / where, small=True)
        return [op.run() for op in wl.schedule]

    assert outputs(7, "a") == outputs(7, "b")
    assert outputs(7, "a") != outputs(8, "c")


def test_injected_wrong_answer_counts_as_failed(tmp_path):
    proof = prove_tautology(parse("p imp (q imp p)"))
    path = tmp_path / "proof.prf"
    path.write_text(proof_to_text(proof))
    n = len(proof.lines)
    good = workloads._verify_op("good", path, n, 0, f"accepted ({n} lines)\n")
    # The file holds a valid proof, so expecting a rejection is a wrong answer.
    wrong = workloads._verify_op("wrong", path, n, 4, "rejected at line 1: DefMismatch (")

    def boom():
        raise ValueError("crash")

    crashing = workloads.Op("crash", "verify", boom, good.expect)
    records = [run.run_for([op], seconds=1e-9)[0] for op in (good, wrong, crashing)]
    assert [r[2] for r in records] == [n, 0, 0]
    assert records[0][3] is None
    assert records[1][3].startswith("wrong answer")
    assert records[2][3].startswith("raised ValueError")


def test_spans_nest_and_self_times_are_non_negative(tmp_path):
    ops = [
        op
        for name in ("verify", "semantics-sweep")
        for op in workloads.build(name, 2, tmp_path / name, small=True).schedule
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for i, op in enumerate(ops):
            run.execute(op, i, tracer, new_input=True)
    finally:
        tracer.uninstall()
    assert len(tracer.start) > 100
    names = {tracer.names[i] for i in tracer.name}
    assert {"op.verify", "cli.main", "io.load", "parser.parse", "checker.check"} <= names
    for i, parent in enumerate(tracer.parent):
        assert tracer.start[i] <= tracer.end[i]
        if parent >= 0:
            assert tracer.start[parent] <= tracer.start[i]
            assert tracer.end[i] <= tracer.end[parent]
            assert tracer.op[i] == tracer.op[parent]
        else:
            assert tracer.names[tracer.name[i]].startswith("op.")
    assert all(t >= -1e-12 for t in tracer.self_times())
    # wrappers are gone again
    import plogic.cli

    assert plogic.cli.parse is parse


def test_oracle_matches_the_library_on_tables():
    for text in ["(p nor !(q nor r)) xor (!(p nor q) nor r)", "!!(a imp !(b xiff !c))", "p"]:
        f = parse(text)
        table = truth_table(f)
        cols = oracle.Columns(oracle.atom_order(f))
        paths = oracle.column_paths(f)
        assert [p for p, _ in paths] == ["".join(s.value for s in c.path) for c in table.columns]
        for (_, node), col in zip(paths, table.columns):
            assert cols.bits(cols.value(node)) == "".join(map(str, col.values))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "prove", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
