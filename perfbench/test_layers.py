"""The layer wrappers must not change what the CLI writes.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
HERE = ROOT / "perfbench"
ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

JOBS = {
    "check": ("check", "--sub", "corpus:reduction_sub_x2_y2", "--sup", "corpus:square_maximal",
              "--json-out", "{out}/check.json"),
    "density": ("density", "--module", "corpus:maximal_ideal", "--kind", "adic,saturated,epsilon",
                "--fit", "--csv-out", "{out}/d.csv", "--json-out", "{out}/d.json"),
    "multiplicity": ("multiplicity", "--module", "corpus:ideal_x2_xy", "--epsilon", "--diagonal",
                     "--mixed", "--cache-dir", "{out}/cache", "--json-out", "{out}/m.json"),
}


def _run(prefix: list[str], job: str, out: Path) -> None:
    out.mkdir()
    args = [a.format(out=out) for a in JOBS[job]]
    proc = subprocess.run([sys.executable, *prefix, *args], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("job", sorted(JOBS))
def test_outputs_byte_identical_with_and_without_wrappers(job, tmp_path):
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    stats = tmp_path / "stats.json"
    _run(["-m", "reesdensity.cli"], job, plain)
    _run([str(HERE / "layers.py"), str(stats)], job, traced)
    files = sorted(p.name for p in plain.iterdir() if p.is_file())
    assert any(name.endswith(".json") for name in files)
    assert files == sorted(p.name for p in traced.iterdir() if p.is_file())
    for name in files:
        assert (plain / name).read_bytes() == (traced / name).read_bytes(), name

    data = json.loads(stats.read_text(encoding="utf-8"))
    assert data["missing"] == []
    assert data["spans"]["cli.main"][0] == 1
    # kernels are bound by name in consumer modules; this only counts if the
    # wrapper replaced those bindings, not just the one on ``backend``
    assert data["spans"]["backend.minimalize_exponents"][0] > 0


def test_missing_function_is_reported_not_raised():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import layers

        tracer = layers.Tracer()
        tracer.install("core.gone", "reesdensity.core", "no_such_function")
        tracer.install("core.gone_method", "reesdensity.core", "PowerCache.no_such_method")
        assert tracer.missing == ["core.gone", "core.gone_method"]
    finally:
        del sys.path[:2]
