"""The one-thread OpenBLAS pin, and model bits independent of the thread count."""
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from placescan import blas

SRC = Path(__file__).resolve().parents[1] / "src"

needs_openblas = pytest.mark.skipif(blas._library() is None, reason="no OpenBLAS loaded")


def blas_threads():
    """The loaded OpenBLAS's thread count, or None without one."""
    functions = blas._library()
    return None if functions is None else functions[0]()


@pytest.fixture
def two_blas_threads():
    """OpenBLAS on two threads for the test, so that a pin to one shows."""
    get, set_ = blas._library()
    before = get()
    set_(2)
    yield
    set_(before)


@needs_openblas
class TestOneThread:
    def test_pins_and_restores(self, two_blas_threads):
        with blas.one_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_nested_entries_restore_once(self, two_blas_threads):
        with blas.one_thread():
            with blas.one_thread():
                assert blas_threads() == 1
            assert blas_threads() == 1
        assert blas_threads() == 2

    def test_restores_when_the_body_raises(self, two_blas_threads):
        with pytest.raises(KeyError):
            with blas.one_thread():
                raise KeyError("body")
        assert blas_threads() == 2

    def test_overlapping_entries_from_two_threads(self, two_blas_threads):
        entered, release = threading.Event(), threading.Event()

        def other():
            with blas.one_thread():
                entered.set()
                release.wait()

        thread = threading.Thread(target=other)
        thread.start()
        assert entered.wait(timeout=10)
        with blas.one_thread():
            pass
        # the other thread's entry is still open, so the pin holds
        assert blas_threads() == 1
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert blas_threads() == 2

    def test_many_threads_entering_at_once(self, two_blas_threads):
        seen = []

        def enter_repeatedly():
            for _ in range(200):
                with blas.one_thread():
                    seen.append(blas_threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=enter_repeatedly) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen == [1] * 800
        assert blas_threads() == 2

    def test_without_a_library_nothing_is_set(self, two_blas_threads, monkeypatch):
        get, _ = blas._library()
        monkeypatch.setattr(blas, "_library", lambda: None)
        with blas.one_thread():
            assert get() == 2
        assert get() == 2


_TRAIN_SCRIPT = """
import hashlib
from placescan.classifiers import ModelSpec, model_to_json, train
from placescan.simulate import SimConfig, generate_dataset

data = generate_dataset(SimConfig.uniform(30, seed=42))
for variant in ("mlp", "cnn"):
    text = model_to_json(train(ModelSpec(variant, params={"epochs": 1}), data))
    print(variant, hashlib.sha256(text.encode("utf-8")).hexdigest())
"""


def _model_digests(threads: int) -> str:
    env = {
        **os.environ,
        "OPENBLAS_NUM_THREADS": str(threads),
        "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
    }
    done = subprocess.run(
        [sys.executable, "-c", _TRAIN_SCRIPT], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    )
    return done.stdout


def test_model_files_do_not_depend_on_the_blas_thread_count():
    one, two = _model_digests(1), _model_digests(2)
    assert [line.split()[0] for line in one.splitlines()] == ["mlp", "cnn"]
    assert one == two
