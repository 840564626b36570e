import threading
import time

import pytest

from placescan.classifiers import VARIANTS
from placescan.evaluate import run_experiment
from placescan.simulate import SimConfig, generate_dataset


_acceptance_lines: list[str] = []


def record_acceptance(line: str) -> None:
    """Collect one verdict line per acceptance criterion for the summary."""
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def no_lane_thread_left():
    """Fail any test that leaves a cross-validation lane thread alive."""
    yield
    lanes = [t.name for t in threading.enumerate() if t.name.startswith("placescan-lane")]
    assert not lanes, f"lane threads left alive: {lanes}"


@pytest.fixture(scope="session")
def synth400():
    """The acceptance dataset: 100 rows per class, seed 42, noise on."""
    return generate_dataset(SimConfig.uniform(100, seed=42))


@pytest.fixture(scope="session")
def synth_small():
    """Cheap 60-row dataset for contract and serialization tests."""
    return generate_dataset(SimConfig.uniform(15, seed=7))


@pytest.fixture(scope="session")
def experiment_400(synth400):
    """Full 6-variant 5-fold CV on the acceptance dataset, with wall time."""
    start = time.perf_counter()
    report = run_experiment(list(VARIANTS), synth400, k=5, seed=42)
    elapsed = time.perf_counter() - start
    return report, elapsed
