from __future__ import annotations

import io
import sys
from collections.abc import Mapping
from pathlib import Path

import pytest

from configcount.verify import FAMILIES

REPO_ROOT = Path(__file__).resolve().parent.parent
SAMPLES = REPO_ROOT / "samples.ccspec"
ERROR_CORPUS = Path(__file__).resolve().parent / "data" / "errors"


def assert_same_text(got, expected, context):
    if got != expected:
        # Name the first differing byte: a diff of long outputs takes minutes.
        at = next(i for i, (a, b) in enumerate(zip(got + "$", expected + "$")) if a != b)
        pytest.fail(f"{context}: byte {at}: {got[at - 40:at + 40]!r} "
                    f"!= {expected[at - 40:at + 40]!r}")


# Grids one point wide or high, with one square, with short rows and with rows
# longer than a listing block or a render piece.
BLOCK_GRIDS = [(1, 1), (1, 5), (5, 1), (2, 2), (3, 5), (7, 3), (22, 26), (5000, 3)]


def block_cuts(keys):
    """Key indices where the (k, a) blocks of ``keys`` meet: the first key, a
    key mid-row, the last key of the first block and of a middle block, the
    first key of the block after each, and the last key."""
    if not keys:
        return []
    ends = [i for i in range(1, len(keys)) if keys[i][:2] != keys[i - 1][:2]]
    width = sum(1 for key in keys if key[:3] == keys[0][:3])
    cuts = {0, width // 2, len(keys) - 1}
    for end in ends[:1] + ends[len(ends) // 2:][:1]:
        cuts |= {end - 1, end}
    return sorted(cuts)


class Result:
    """What one in-process run of the CLI wrote, and how it ended."""

    def __init__(self, stdout_bytes: bytes, stderr: str, exit_code: int, exception):
        self.stdout_bytes, self.stderr = stdout_bytes, stderr
        self.stdout = stdout_bytes.decode("utf-8")
        self.exit_code, self.exception = exit_code, exception


class Runner:
    """Runs ``main.main(args=...)`` in-process with stdout and stderr captured
    apart, as UTF-8 bytes with no file descriptor.  ``SystemExit`` becomes the
    exit code; any other exception is kept, with exit code 1, not raised.
    ``standalone_mode`` is false unless a test asks for a standalone run."""

    def invoke(self, main, args, standalone_mode=False) -> Result:
        saved = sys.stdout, sys.stderr
        out, err = (io.TextIOWrapper(io.BytesIO(), encoding="utf-8") for _ in saved)
        sys.stdout, sys.stderr = out, err
        exit_code, exception = 0, None
        try:
            main.main(args=list(args), prog_name="configcount",
                      standalone_mode=standalone_mode)
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


def perturb_total(monkeypatch, name: str, delta: int) -> None:
    """Make family ``name`` of ``verify.FAMILIES``, which every command
    dispatches through, give its closed-form total ``delta`` more."""
    family = FAMILIES[name]
    total = type(family).total  # the class's own, so faults never stack or cancel
    monkeypatch.setitem(vars(family), "total", lambda classes: total(family, classes) + delta)


class _FirstClassShifted(Mapping):
    """``classes`` with its first class ``delta`` more.  Other attributes
    (``cols``, ``rows``, ``tilted``, ``margins``) read through to ``classes``."""

    def __init__(self, classes: Mapping, delta: int):
        self._classes, self._first, self._delta = classes, next(iter(classes), None), delta

    def __getitem__(self, key):
        return self._classes[key] + (self._delta if key == self._first else 0)

    def __iter__(self):
        return iter(self._classes)

    def __len__(self) -> int:
        return len(self._classes)

    def __getattr__(self, name: str):
        return getattr(self._classes, name)


def perturb_first_class(monkeypatch, name: str, delta: int) -> None:
    """Make family ``name`` of ``verify.FAMILIES`` count its first class ``delta`` more."""
    family = FAMILIES[name]
    classes = type(family).classes
    monkeypatch.setitem(vars(family), "classes", lambda spec, budget, table: _FirstClassShifted(
        classes(family, spec, budget, table), delta))


@pytest.fixture
def samples_path() -> Path:
    return SAMPLES


@pytest.fixture
def runner() -> Runner:
    return Runner()
