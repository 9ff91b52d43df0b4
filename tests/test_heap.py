"""The heap policy that importing heptapile sets, each case in a fresh interpreter.

Each check runs in its own process, so that pytest's own heap, and the
policy this process already set when it imported heptapile, cannot hide
or fake the effect.
"""

import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heptapile

_SRC = str(Path(heptapile.__file__).resolve().parent.parent)


def _run(code: str, *args: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_STEADY_STATE = """
import resource
from heptapile import build_ball, validate_ball
from heptapile.verify import ROUTES

def faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt

b = build_ball(12)
steps = [("validate_ball", lambda: validate_ball(b))]
steps += [(name, lambda route=ROUTES[name]: route(b, [0]))
          for name in ("batch", "least", "wave")]
for _, step in steps:
    step()
for name, step in steps:
    before = faults()
    step()
    print(name, faults() - before)
"""


@pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                    reason="the C library has no mallopt")
def test_second_validation_and_relaxations_reuse_freed_pages():
    # under glibc's default thresholds each route's fresh int64 results
    # (about 1,025 pages each at m=12) come back as new pages every call
    lines = _run(_STEADY_STATE).split()
    counts = dict(zip(lines[::2], map(int, lines[1::2])))
    assert set(counts) == {"validate_ball", "batch", "least", "wave"}
    assert all(count < 64 for count in counts.values()), counts


_WITHOUT_MALLOPT = """
import ctypes
import sys

def stub(name, *args, **kwargs):
    if sys.argv[1] == "oserror":
        raise OSError("no C library")
    return object()

ctypes.CDLL = stub
import heptapile
from heptapile import (build_ball, max_stable, perturb, predicted_beta,
                       predicted_odometer, relax, total_topplings)

b = build_ball(4)
res = relax(perturb(max_stable(b), [0]))
assert res.state == predicted_beta(b, [0])
assert res.odometer == predicted_odometer(b, [0])
assert res.topples == total_topplings(4)
print("ok")
"""


@pytest.mark.parametrize("case", ["oserror", "no-mallopt"])
def test_import_and_relax_without_mallopt(case):
    assert _run(_WITHOUT_MALLOPT, case) == "ok\n"


def test_trim_threshold_is_left_alone_where_mmap_threshold_is_refused():
    # a trim threshold alone would make glibc mmap every block above 128 KiB
    code = """
import ctypes
import types
calls = []

def mallopt(param, value):
    calls.append((param, value))
    return 0

ctypes.CDLL = lambda name, *args, **kwargs: types.SimpleNamespace(mallopt=mallopt)
import heptapile
print(calls)
"""
    assert _run(code) == f"[(-3, {32 << 20})]\n"
