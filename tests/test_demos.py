"""Every demo script, and the README's library quick start, runs to
completion against this checkout, and each demo prints exactly what it
printed when its digest was pinned."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# SHA-256 of each demo's stdout.  The demos are the only callers of
# verify_limit, levi_containment_check and deform_to_levi, so these
# digests keep that output from drifting unnoticed.  Every demo prints
# the same bytes under any PYTHONHASHSEED.
DEMO_STDOUT_SHA = {
    "01_orbits_and_cocharacters.py":
        "e6933e671a443436bd493bbe50ee39a6dca34edd2270636bc5c99925e6617774",
    "02_springer_family.py":
        "9431b679fd6044901b8eb8963e3505f2dce08942326d14bf15e7616d4fa71026",
    "03_truncated_exponential.py":
        "4975704536df57de5899205ece515a813f9d1e99dbbb1f3ee62220fadbfa2d8a",
    "04_optimal_sl2.py":
        "039a6aacdfaa6b7c8a9fab6cf294b8a20b6d56f541467a582e69d3d995c138e7",
    "05_conjugacy_uniqueness.py":
        "56cfb1569b9cb172cfd83ebedc04317841008cd6015ca47037f7e8d68aa75a58",
    "06_tilting_certificates.py":
        "9552cf6fe0fdb8a5dcc90e92c311bf40ccc0dcbb765ffaf10dc7ce47c1ca8cd8",
}


def test_all_demos_are_collected():
    assert len(DEMOS) == 6
    assert sorted(DEMO_STDOUT_SHA) == [d.name for d in DEMOS]


def _run_python(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.name)
def test_demo_runs(demo):
    proc = _run_python([str(demo)])
    assert proc.returncode == 0, proc.stderr
    digest = hashlib.sha256(proc.stdout.encode()).hexdigest()
    assert digest == DEMO_STDOUT_SHA[demo.name], proc.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "build_optimal" in code
    proc = _run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "(2, 0, -2, 1, -1)"
