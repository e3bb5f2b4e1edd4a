"""Error metrics, the id-join evaluator, and the bundled reference table."""

import random

import pytest

from boneage.errors import ContractError
from boneage.metrics import (
    evaluate,
    load_reference_table,
    mae,
    mape,
    read_table,
    selftest_report,
)

from reference import mae_ref, mape_ref


# ---------------------------------------------------------------------------
# mae / mape
# ---------------------------------------------------------------------------


def test_mae_trivial_cases():
    assert mae([10.0], [12.0]) == 2.0
    assert mae([100.0, 100.0], [90.0, 110.0]) == 10.0


def test_mape_trivial_cases():
    assert mape([100.0], [110.0]) == pytest.approx(0.1)
    assert mape([100.0, 200.0], [110.0, 180.0]) == pytest.approx((0.1 + 0.1) / 2)


def test_mae_of_identical_lists_is_zero():
    xs = [120.0, 150.0, 180.0]
    assert mae(xs, xs) == 0.0
    assert mape(xs, xs) == 0.0


@pytest.mark.parametrize("seed", range(5))
def test_metrics_match_loop_oracles(seed):
    rng = random.Random(seed)
    pairs = [(rng.uniform(100, 200), rng.uniform(100, 200)) for _ in range(17)]
    expert = [p[0] for p in pairs]
    system = [p[1] for p in pairs]
    assert mae(expert, system) == pytest.approx(mae_ref(pairs), abs=1e-12)
    assert mape(expert, system) == pytest.approx(mape_ref(pairs), abs=1e-12)


def test_metrics_are_permutation_invariant():
    expert = [120.0, 132.0, 156.0, 180.0]
    system = [126.0, 130.0, 150.0, 182.0]
    order = [2, 0, 3, 1]
    assert mae(expert, system) == pytest.approx(
        mae([expert[i] for i in order], [system[i] for i in order])
    )
    assert mape(expert, system) == pytest.approx(
        mape([expert[i] for i in order], [system[i] for i in order])
    )


def test_metrics_input_validation():
    with pytest.raises(ContractError):
        mae([1.0, 2.0], [1.0])
    with pytest.raises(ContractError):
        mae([], [])
    with pytest.raises(ContractError):
        mape([0.0], [5.0])  # zero expert reading has no percentage error
    with pytest.raises(ContractError):
        mape([-120.0], [120.0])


# ---------------------------------------------------------------------------
# evaluate: id join
# ---------------------------------------------------------------------------


def test_evaluate_joins_on_id_not_order():
    labels = [("1", 120.0), ("2", 150.0), ("3", 180.0)]
    predictions = [("3", 174.0), ("1", 126.0), ("2", 150.0)]
    report = evaluate(predictions, labels)
    assert report.count == 3
    assert report.cases == [("1", 120.0, 126.0), ("2", 150.0, 150.0), ("3", 180.0, 174.0)]
    assert report.mae_months == pytest.approx(4.0)


def test_evaluate_is_input_order_invariant():
    labels = [("a", 120.0), ("b", 150.0)]
    predictions = [("a", 121.0), ("b", 152.0)]
    r1 = evaluate(predictions, labels)
    r2 = evaluate(list(reversed(predictions)), list(reversed(labels)))
    assert r1.cases == r2.cases
    assert r1.mae_months == r2.mae_months


def test_evaluate_sorts_numeric_ids_numerically():
    labels = [(str(i), 120.0) for i in (10, 2, 1)]
    predictions = [(str(i), 121.0) for i in (1, 10, 2)]
    report = evaluate(predictions, labels)
    assert [c[0] for c in report.cases] == ["1", "2", "10"]


def test_evaluate_reports_both_sides_of_an_id_mismatch():
    labels = [("1", 120.0), ("2", 150.0)]
    predictions = [("1", 121.0), ("7", 150.0)]
    with pytest.raises(ContractError, match=r"\['2'\].*\['7'\]"):
        evaluate(predictions, labels)


def test_evaluate_rejects_duplicate_ids():
    with pytest.raises(ContractError, match="duplicate"):
        evaluate([("1", 120.0), ("1", 121.0)], [("1", 120.0)])


def test_report_format_lines():
    report = evaluate([("1", 126.0)], [("1", 120.0)])
    lines = report.format_lines()
    assert lines[0] == "cases: 1"
    assert lines[1] == "mae_months: 6.0000"
    assert lines[2] == "mape: 0.050000"
    assert lines[3] == "  1: expert=120 system=126"


# ---------------------------------------------------------------------------
# bundled reference table
# ---------------------------------------------------------------------------


def test_reference_table_shape():
    cases = load_reference_table()
    assert len(cases) == 12
    assert len({c[0] for c in cases}) == 12
    for _, expert, system in cases:
        assert 100.0 < expert < 200.0
        assert 100.0 < system < 200.0


def test_selftest_matches_loop_oracles():
    cases = load_reference_table()
    pairs = [(expert, system) for _, expert, system in cases]
    report = selftest_report()
    assert report.mae_months == pytest.approx(mae_ref(pairs), abs=1e-9)
    assert report.mape == pytest.approx(mape_ref(pairs), abs=1e-9)


def test_selftest_pins_the_published_errors():
    report = selftest_report()
    assert report.count == 12
    assert report.mae_months == pytest.approx(2.8, abs=0.005)
    assert report.mape == pytest.approx(0.0182, abs=0.0005)


CASE_COLUMNS = ("case_id", "expert_months", "system_months")


def test_read_table_from_custom_text():
    text = "case_id,expert_months,system_months\nx,120,126\n"
    assert read_table("cases.csv", text, CASE_COLUMNS) == [("x", 120.0, 126.0)]


def test_read_table_rejects_bad_columns():
    with pytest.raises(ContractError, match="columns"):
        read_table("bad.csv", "id,months\nx,120\n", CASE_COLUMNS)


def test_read_table_rejects_empty():
    with pytest.raises(ContractError, match="no data rows"):
        read_table("empty.csv", "case_id,expert_months,system_months\n", CASE_COLUMNS)


def test_read_table_names_the_line_a_bad_cell_is_on():
    # blank lines are skipped as rows but still counted as lines
    with pytest.raises(ContractError, match=r"^t\.csv:4: months must be finite, got 'nan'$"):
        read_table("t.csv", "id,months\n\na,1\nb,nan\n", ("id", "months"))
