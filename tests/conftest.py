from __future__ import annotations

import io
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLES = REPO_ROOT / "samples.ccspec"
ERROR_CORPUS = Path(__file__).resolve().parent / "data" / "errors"


class Result:
    """What one in-process run of the CLI wrote, and how it ended."""

    def __init__(self, stdout_bytes: bytes, stderr: str, exit_code: int, exception):
        self.stdout_bytes, self.stderr = stdout_bytes, stderr
        self.stdout = stdout_bytes.decode("utf-8")
        self.exit_code, self.exception = exit_code, exception


class Runner:
    """Runs ``main.main(args=...)`` in-process with stdout and stderr captured
    apart, as UTF-8 bytes with no file descriptor.  ``SystemExit`` becomes the
    exit code; any other exception is kept, with exit code 1, not raised."""

    def invoke(self, main, args) -> Result:
        saved = sys.stdout, sys.stderr
        out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in saved)
        sys.stdout, sys.stderr = out, err
        exit_code, exception = 0, None
        try:
            main.main(args=list(args), prog_name="configcount", standalone_mode=False)
        except SystemExit as exc:
            exit_code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # kept for the test to read, not raised
            exit_code, exception = 1, exc
        finally:
            sys.stdout, sys.stderr = saved
        for stream in (out, err):
            stream.flush()
        return Result(out.buffer.getvalue(), err.buffer.getvalue().decode("utf-8"),
                      exit_code, exception)


@pytest.fixture
def samples_path() -> Path:
    return SAMPLES


@pytest.fixture
def runner() -> Runner:
    return Runner()
