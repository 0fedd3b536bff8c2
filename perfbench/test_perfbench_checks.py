"""Self-test of the benchmark's checks: clean artifacts pass, a corrupted value fails.

Runs each task once at a small resolution, so it takes a few seconds.  Also
tests the known-fault matching and the span checks on hand-made inputs.
"""

import csv

import pytest

from artifact_checks import check_config, read_rows
from spans import ROOT, round_metrics, round_problems
from workloads import CELL_AFFINE_PART, INJECTIVITY_FAULT, expected_fault, make_config


def _sweep_one(tmp_path, config):
    from beltramilab import cli

    rows = read_rows(cli.sweep([config], tmp_path))
    assert rows[0]["status"] == "ok", rows[0]["error"]
    return tmp_path / "run_000", rows[0]


def _scale_value(path, row, column, factor):
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    table[row + 1][column] = repr(float(table[row + 1][column]) * factor)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(table)


CASES = [
    (make_config("primary-pair", "unit_square", 16, 11, False, "pair"), "det.csv", 40, "det.csv"),
    (make_config("primary-pair", "unit_square", 16, 11, False, "pair"), "pair.csv", 100, "weak residual"),
    (make_config("cell", "periodic_cell", 16, 12, False, "cell", {"affine_part": CELL_AFFINE_PART}),
     "cell_map.csv", 16, "U(x + e1)"),
    (make_config("diagnose", "unit_square", 16, 7, True, "diag", {"max_level": 2}),
     "square_stats.csv", 0, "level-0 mean_w"),
    (make_config("diagnose", "periodic_cell", 16, 13, False, "diag", {"max_level": 2}),
     "square_stats.csv", 0, "level-0 mean_w"),
]


@pytest.mark.parametrize("config, artifact, row, expected", CASES,
                         ids=[f"{c['task']}-{c['domain']}-{a}" for c, a, _, _ in CASES])
def test_corrupted_artifact_is_caught(tmp_path, config, artifact, row, expected):
    run_dir, sweep_row = _sweep_one(tmp_path, config)
    assert check_config(config, run_dir, sweep_row) == []
    column = {"det.csv": 3, "pair.csv": 3, "cell_map.csv": 3, "square_stats.csv": 6}[artifact]
    _scale_value(run_dir / artifact, row, column, 1.001)
    problems = check_config(config, run_dir, sweep_row)
    assert any(expected in p for p in problems), problems


def test_known_fault_matches_only_as_listed():
    config = make_config("diagnose", "unit_square", 64, 106, False, "diag", {"max_level": 5})
    row = {"status": "error", "error": INJECTIVITY_FAULT + "; cannot change coordinates", "min_det": ""}
    assert expected_fault(config, row)
    assert not expected_fault(config, {**row, "error": "weight must be positive"})
    assert not expected_fault({**config, "seed": 107}, row)
    pair = make_config("primary-pair", "unit_square", 64, 1008, False, "pair")
    assert expected_fault(pair, {"status": "invariant_failed", "error": "", "min_det": "-0.38"})
    assert not expected_fault(pair, {"status": "invariant_failed", "error": "", "min_det": "0.01"})


def _span(i, name, parent, start, end):
    return {"id": i, "name": name, "parent": parent, "start": start, "end": end}


@pytest.mark.parametrize("inner, expected", [
    ("grid.build_mesh", None),
    ("grid.new_layer", "feeds no self-time metric"),
], ids=["mapped", "unmapped"])
def test_span_checks_catch_unmapped_names(inner, expected):
    tree = [_span(0, ROOT, None, 0.0, 1.0), _span(1, "cli.run", 0, 0.0, 1.0),
            _span(2, inner, 1, 0.0, 0.99)]
    problems = round_problems(tree, round_metrics(tree))
    if expected is None:
        assert problems == []
    else:
        assert any(expected in p for p in problems), problems


def test_span_checks_catch_large_cli_self_time():
    tree = [_span(0, ROOT, None, 0.0, 1.0), _span(1, "cli.run", 0, 0.0, 1.0),
            _span(2, "grid.build_mesh", 1, 0.0, 0.5)]
    problems = round_problems(tree, round_metrics(tree))
    assert any("cli self time" in p for p in problems), problems
