"""The placement flows need nothing beyond numpy and scipy.

Each engine runs in a fresh interpreter where ``import networkx``
fails, so a stray import anywhere on a flow's path shows up here even
when networkx happens to be installed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import repro
from repro.api import METHODS

_SCRIPT = textwrap.dedent("""
    import sys
    sys.modules["networkx"] = None  # every import of it now fails

    from repro.annealing import SAParams
    from repro.api import METHODS, place
    from repro.circuits import make
    from repro.eplace import EPlaceParams
    from repro.legalize import DetailedParams
    from repro.placement import audit_constraints, total_overlap

    dp = DetailedParams(iterate_rounds=2, refine_rounds=1)
    kwargs = {
        "eplace-a": dict(gp_params=EPlaceParams(max_iters=150, bins=16),
                         dp_params=dp),
        "xu-ispd19": {},
        "annealing": dict(params=SAParams(iterations=1500, seed=2)),
    }
    for method in METHODS:
        result = place(make("Adder"), method, **kwargs[method])
        assert total_overlap(result.placement) < 1e-6, method
        assert audit_constraints(result.placement).ok, method
        print(method, "ok")
""")


def test_every_engine_places_without_networkx():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT], env=env, capture_output=True,
        text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        word for method in METHODS for word in (method, "ok")
    ]
