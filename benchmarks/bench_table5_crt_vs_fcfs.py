"""Table 5: CRT relative to FCFS on one and eight processors, with the
paper's numbers printed alongside.

Shape targets from the paper's table: tasks is the big uniprocessor win
(92%, 2.38x); photo's uniprocessor result is approximately zero/negative;
tsp's uniprocessor elimination is small (compulsory misses); the SMP
column is positive for tasks and tsp.
"""

from conftest import report

from repro.experiments.table5 import format_table5, run_table5


def test_table5_crt_vs_fcfs():
    measured = run_table5()
    report("table5", format_table5(measured))

    assert measured["tasks"]["elim_1cpu"] > 80.0
    assert measured["tasks"]["perf_1cpu"] > 1.8

    assert abs(measured["photo"]["elim_1cpu"]) < 10.0
    assert 0.85 < measured["photo"]["perf_1cpu"] < 1.1

    assert 0.0 < measured["tsp"]["elim_1cpu"] < 30.0
    assert measured["tsp"]["elim_8cpu"] > 10.0

    assert measured["merge"]["elim_1cpu"] > 15.0
