"""SuiteReport: counting cases, skips, failures and library errors."""
import pytest

from kolmo.errors import NumericalFailureError
from kolmo.verify import SKIP, SuiteReport


def test_record_counts_pass_skip_and_failure():
    report = SuiteReport("demo")
    report.record("a", lambda: None)
    report.record("b", lambda: SKIP)
    report.record("c", lambda: "too far off")
    assert (report.total, report.passed, report.skipped, report.failed) == (3, 1, 1, 1)
    assert report.failures == ["c: too far off"]


def test_skip_is_not_a_string():
    # A check returning any message, even "SKIP", is a failure.
    report = SuiteReport("demo")
    report.record("a", lambda: "SKIP")
    assert report.failed == 1 and report.skipped == 0


def test_library_error_is_a_failure_naming_its_type():
    def check():
        raise NumericalFailureError("no convergence")

    report = SuiteReport("demo")
    report.record("case 4", check)
    assert report.failed == 1
    assert report.failures == ["case 4: NumericalFailureError: no convergence"]


def test_other_exceptions_propagate():
    def check():
        raise RuntimeError("bug")

    with pytest.raises(RuntimeError, match="bug"):
        SuiteReport("demo").record("a", check)


def test_failures_keep_the_first_twenty_messages():
    report = SuiteReport("demo").run(25, 0, lambda rng: f"draw {rng.integers(10)}")
    assert report.failed == 25
    assert len(report.failures) == 20
    assert report.failures[0].startswith("case 0: draw ")
    assert report.ok is False


def test_run_draws_from_one_seeded_generator():
    draws = []
    report = SuiteReport("demo").run(3, 7, lambda rng: draws.append(rng.random()))
    again = []
    SuiteReport("demo").run(3, 7, lambda rng: again.append(rng.random()))
    assert report.passed == 3 and report.ok is True
    assert draws == again and len(set(draws)) == 3


def test_run_counts_fixed_cases_recorded_before_it():
    report = SuiteReport("demo")
    report.record("fixed", lambda: "wrong")
    report.run(2, 0, lambda rng: None)
    assert (report.total, report.passed, report.failed, report.ok) == (3, 2, 1, False)


def test_to_dict_key_order():
    doc = SuiteReport("demo").to_dict()
    assert list(doc) == [
        "suite", "total", "passed", "failed", "skipped", "ok", "failures", "notes",
    ]

