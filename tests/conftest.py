import gc
import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.fixture
def workloads():
    """``perfbench/workloads.py``, the benchmark's inputs, loaded afresh under
    a name of its own."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


@pytest.fixture
def collector_off():
    """The cyclic garbage collector disabled for the test, then set back
    to what it was.  What exists before the test is collected and then
    frozen, so a ``gc.collect()`` in the test scans only what the test
    made."""
    enabled = gc.isenabled()
    gc.disable()
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()
        if enabled:
            gc.enable()
        else:
            gc.disable()
