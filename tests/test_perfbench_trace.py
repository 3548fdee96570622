"""The benchmark's tracer must find every library attribute it wraps.

``perfbench/trace.py`` replaces module and class attributes by name; a
rename in ``src/`` would otherwise surface only when a traced benchmark run
fails.
"""

import importlib.util
from pathlib import Path

from finitebath import bms, cli, emme, exact, presets, rates, thermo

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def load_trace():
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrap_target_exists():
    fb = {"cli": cli, "rates": rates, "emme": emme, "exact": exact, "bms": bms,
          "thermo": thermo, "presets": presets}
    for owner, attr, name in load_trace().wrap_targets(fb):
        if isinstance(owner, type):
            # the tracer reads class attributes from __dict__, not inherited ones
            assert attr in owner.__dict__, f"{owner.__name__}.{attr} for span {name}"
        else:
            assert callable(getattr(owner, attr, None)), f"{owner.__name__}.{attr} for span {name}"
