"""A fresh interpreter loads no scipy: importing the package and running
the ``risk`` and ``equivalence`` subcommands, KS battery included, need only
numpy (scipy is a test dependency).

Each check runs in its own interpreter, because this test process has loaded
scipy long before (the test oracles use it).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from flrlab import two_sample_equivalence_test

SRC = Path(__file__).resolve().parents[1] / "src"

SEQUENCE_CONFIG = """
[design]
alpha = 2.0

[theta]
beta = 2.0
c_theta = 1.0
mode = boundary

[model]
kind = sequence
sigma = 1.0
n_grid = 50,100,200

[estimator]
kind = pinsker-oracle

[run]
reps = 3
seed = 7
"""

FLR_CONFIG = """
[design]
kind = basis-expansion
alpha = 2.0

[theta]
beta = 2.0
c_theta = 1.0
mode = boundary

[model]
kind = flr
sigma = 1.0
n_grid = 25

[estimator]
kind = pinsker-oracle

[run]
reps = 2
seed = 7
draws = 40
"""


def fresh(code: str, cwd: Path) -> str:
    """Standard output of ``code`` run in a new interpreter on the package sources."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_scipy(tmp_path):
    out = fresh("import sys, flrlab, flrlab.cli; print('scipy' in sys.modules)", tmp_path)
    assert out.strip() == "False"


def test_risk_subcommand_loads_no_scipy(tmp_path):
    (tmp_path / "exp.ini").write_text(SEQUENCE_CONFIG, encoding="utf-8")
    out = fresh(
        "import json, sys\n"
        "from flrlab.cli import main\n"
        "rc = main(['risk', '--config', 'exp.ini', '--out', 'out'])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))",
        tmp_path)
    rc, loaded = json.loads(out.strip().splitlines()[-1])
    assert rc == 0
    assert (tmp_path / "out" / "risk.csv").exists()
    assert loaded == []


def test_equivalence_subcommand_loads_no_scipy(tmp_path):
    (tmp_path / "exp.ini").write_text(FLR_CONFIG, encoding="utf-8")
    out = fresh(
        "import json, sys\n"
        "from flrlab.cli import main\n"
        "rc = main(['equivalence', '--config', 'exp.ini', '--out', 'out'])\n"
        "print(json.dumps([rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))",
        tmp_path)
    rc, loaded = json.loads(out.strip().splitlines()[-1])
    assert rc == 0
    assert (tmp_path / "out" / "ks.csv").exists()
    assert loaded == []


def test_battery_in_a_fresh_interpreter_matches_this_process(tmp_path):
    rng = np.random.default_rng(5)
    a = rng.standard_normal((300, 6))
    b = rng.standard_normal((300, 6)) + np.linspace(0.0, 0.4, 6)
    np.save(tmp_path / "a.npy", a)
    np.save(tmp_path / "b.npy", b)
    fresh(
        "import numpy as np\n"
        "from flrlab import two_sample_equivalence_test\n"
        "r = two_sample_equivalence_test(np.load('a.npy'), np.load('b.npy'))\n"
        "np.save('out.npy', np.stack([r.statistics, r.p_values]))",
        tmp_path)
    there = np.load(tmp_path / "out.npy")
    here = two_sample_equivalence_test(a, b)
    assert np.array_equal(there[0], here.statistics)
    assert np.array_equal(there[1], here.p_values)
