"""Tests of the benchmark itself: seeded generation, known answers, the two
known analyzer defects, the tracer and the result line.

    python3 -m pytest bench
"""

import json
import random
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import spans
import speed
import workloads
from spans import TARGETS, Tracer

BENCH = Path(__file__).resolve().parent
flowcheck = run.import_flowcheck()
checker = run.Checker(flowcheck)


def failure(program):
    return checker.failure(program, flowcheck.analyze_source(program.source))


@pytest.mark.parametrize("name", workloads.NAMES)
def test_same_seed_gives_identical_programs(name):
    first = workloads.build(name, 7, run.ROOT)
    second = workloads.build(name, 7, run.ROOT)
    assert first == second
    other = workloads.build(name, 8, run.ROOT)
    assert other.blocks != first.blocks


def test_workload_shapes():
    fanout = workloads.build("fanout", 3, run.ROOT).blocks
    for block in fanout:
        sizes = sorted(p.source.count("\tgo ") + (p.variant == "missing") for p in block)
        assert sizes == list(workloads.FANOUT_LADDER)
    for block in fanout:
        variants = [p.variant for p in sorted(block, key=lambda p: p.size)]
        assert variants == [workloads.FANOUT_VARIANTS[i % 4] for i in range(23)]

    guards = workloads.build("guards", 3, run.ROOT).blocks
    assert [p.variant for p in guards[0]].count("k=4") == 1
    assert all(p.variant != "k=4" for block in guards[1:] for p in block)
    assert max(p.source.count("\tif ") for block in guards for p in block) <= workloads.CHAIN_MAX


def test_corpus_answers_follow_directories():
    programs = workloads.corpus_programs(run.ROOT / "corpus")
    assert len(programs) == 26
    for program in programs:
        assert failure(program) is None, program.name


@pytest.mark.parametrize("variant", ["spawn_order", "missing"])
def test_fanout_answers_agree_on_small_sizes(variant):
    rng = random.Random(1)
    for n in (2, 5, 16, 40):
        program = workloads.fanout_program(rng, n, variant)
        assert failure(program) is None, program.source


def test_guard_answers_agree_on_small_sizes():
    rng = random.Random(2)
    programs = [workloads.independent_guards(rng, k) for k in (1, 1, 2, 2, 2)]
    programs += [workloads.guard_chain(rng, n) for n in (2, 5, 9, 16)]
    assert any(answer == workloads.DEADLOCK for p in programs for _, answer in p.answers)
    for program in programs:
        assert failure(program) is None, program.source


def test_guard_points_cover_every_interval():
    program = workloads.guards_program(
        random.Random(0), [("v0", "<=", 3), ("v0", ">", 7)], "chain=2")
    assert [dict(point)["v0"] for point, _ in program.answers] == [2, 3, 4, 6, 7, 8]


def test_checker_rejects_a_wrong_answer():
    program = workloads.guard_chain(random.Random(4), 6)
    flipped = tuple(
        (point, workloads.NO_DEADLOCK if answer == workloads.DEADLOCK else workloads.DEADLOCK)
        for point, answer in program.answers)
    wrong = workloads.Program(program.name, "guards", program.variant, program.source, flipped)
    assert "where Go gives" in failure(wrong)
    assert run.known_defect(wrong, failure(wrong)) is None


# The two defects below are real analyzer failures that the fanout workload
# counts in ``failed``.  When a change fixes one, these tests fail and the
# entry in run.KNOWN_DEFECTS goes with them.

@pytest.mark.parametrize("variant, first_capped", [("spawn_order", 167), ("missing", 168)])
def test_known_defect_step_cap_at_500_steps(variant, first_capped):
    rng = random.Random(5)
    assert failure(workloads.fanout_program(rng, first_capped - 1, variant)) is None
    program = workloads.fanout_program(rng, first_capped, variant)
    reason = failure(program)
    assert reason.startswith("Inconclusive: step cap 500")
    assert run.known_defect(program, reason) == "fanout-step-cap"


def test_step_cap_below_500_steps_is_not_the_known_defect():
    program = workloads.fanout_program(random.Random(5), 40, "spawn_order")
    analysis = flowcheck.analyze_source(program.source, max_steps=100)
    reason = checker.failure(program, analysis)
    assert reason.startswith("Inconclusive: step cap 100")
    assert run.known_defect(program, reason) is None


def test_known_defect_cross_type_reorder():
    source = (
        "package main\n\nfunc wi(a chan int) {\n\ta <- 1\n}\n\n"
        "func ws(b chan string) {\n\tb <- \"x\"\n}\n\n"
        "func main() {\n\ta := make(chan int)\n\tb := make(chan string)\n"
        "\tgo wi(a)\n\tgo ws(b)\n\t<-b\n\t<-a\n}\n"
    )
    (case,) = flowcheck.analyze_source(source).cases
    assert case.verdict.kind == "Deadlock"
    assert flowcheck.render(case.verdict.residual) == "[!Int; ![?Int]]"

    rng = random.Random(6)
    for n in (2, 16, 40):
        program = workloads.fanout_program(rng, n, "reordered")
        reason = failure(program)
        assert reason == "Deadlock where Go gives NoDeadlock"
        assert run.known_defect(program, reason) == "fanout-cross-type-reorder"


def _traced_counts(name):
    workload = workloads.build(name, 1, run.ROOT)
    programs = workload.blocks[1][:4]
    tracer = Tracer()
    tracer.install()
    try:
        for index, program in enumerate(programs):
            tracer.run(index, flowcheck.analyze_source, program.source)
    finally:
        tracer.uninstall()
    return tracer


@pytest.mark.parametrize("name", workloads.NAMES)
def test_trace_counts_repeat_exactly(name):
    first, second = _traced_counts(name), _traced_counts(name)
    assert first.counts == second.counts
    assert first.calls == second.calls
    assert first.counts["engine.steps"] > 0
    assert (first.calls["solver.solve"] > 0) == (name == "guards")


def test_tracer_restores_every_attribute(monkeypatch):
    monkeypatch.setattr(spans, "MAX_STORED_SPANS", 5)
    before = [getattr(sys.modules[m], a) for m, a, _, _ in TARGETS]
    tracer = Tracer()
    tracer.install()
    tracer.run(0, flowcheck.analyze_source, workloads.fanout_program(random.Random(0), 3, "spawn_order").source)
    tracer.uninstall()
    assert [getattr(sys.modules[m], a) for m, a, _, _ in TARGETS] == before
    assert len(tracer.starts) == 5 and tracer.dropped > 0
    assert tracer.parents[0] == -1 and all(0 <= p < i for i, p in enumerate(tracer.parents) if i)
    assert abs(sum(tracer.self_s.values()) - (tracer.ends[0] - tracer.starts[0])) < 1e-6


def test_speed_measure_takes_out_and_reads_the_samples():
    probe = speed.SpeedProbe()
    n = speed.NOMINAL_S
    # samples of n, 3n, n and 2n seconds, starting at 0, 1, 2 and 3
    probe.starts.extend([0.0, 1.0, 2.0, 3.0])
    probe.ends.extend([n, 1.0 + 3 * n, 2.0 + n, 3.0 + 2 * n])
    # between two samples: their mean
    took, scale = probe.measure(0.5, 0.9)
    assert took == pytest.approx(0.4) and scale == pytest.approx(1 / 2)
    # across two samples: those, and one on each side
    took, scale = probe.measure(0.5, 2.5)
    assert took == pytest.approx(2.0 - 4 * n) and scale == pytest.approx(4 / 7)
    # after the last sample: the last one
    assert probe.measure(3.5, 3.6)[1] == pytest.approx(1 / 2)


def test_speed_probe_samples_while_the_main_thread_works():
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        while time.perf_counter() < start + 6 * speed.EVERY_S:
            pass
        end = time.perf_counter()
    assert len(probe.starts) >= 6 and list(probe.starts) == sorted(probe.starts)
    took, scale = probe.measure(start, end)
    assert 0 < took < end - start and scale > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def _result(argv, capsys):
    assert run.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _units(result):
    return {name: metric["unit"] for name, metric in result["metrics"].items()}


def test_result_line_untraced(capsys):
    result = _result(["--workload", "corpus", "--seconds", "0.1"], capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_SAMPLES
    assert _units(result) == _declared("end_to_end")


def test_result_line_traced(capsys, monkeypatch):
    monkeypatch.setattr(workloads, "CORPUS_TRACE_BLOCKS", 2)
    result = _result(["--workload", "corpus", "--seconds", "0.2", "--trace", "1"], capsys)
    assert result["correct"]
    assert _units(result) == _declared("per_layer")
    assert result["metrics"]["engine.steps"]["value"] > 0
    assert (BENCH / "out" / "spans-corpus.tsv").is_file()


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
