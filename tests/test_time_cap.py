"""The per-test time cap of conftest.py: a hanging test fails as itself, and the run goes on."""
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HANGING = '''
import time


def test_hangs():
    while True:
        time.sleep(0.01)


def test_after_the_hang():
    pass
'''


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="the cap needs SIGALRM")
def test_a_hanging_test_fails_at_its_cap_and_the_next_one_runs(tmp_path):
    conftest = (Path(__file__).parent / "conftest.py").read_text()
    assert "TEST_CAP_S = 60\n" in conftest
    (tmp_path / "conftest.py").write_text(conftest.replace("TEST_CAP_S = 60\n", "TEST_CAP_S = 1\n"))
    (tmp_path / "test_hang.py").write_text(HANGING)
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           str(tmp_path)], capture_output=True, text=True, timeout=30,
                          cwd=tmp_path)
    assert time.monotonic() - start < 20
    assert proc.returncode == 1
    assert "the test ran past its cap of 1 s" in proc.stdout
    assert "1 failed, 1 passed" in proc.stdout
