"""What `import skeinsolve.cli` loads: every command pays for it first."""

import json
import os
import subprocess
import sys
from pathlib import Path

import skeinsolve

# Standard-library modules no command needs at start-up: dataclasses brings
# inspect (and ast, dis, tokenize), and fractions brings decimal.
UNUSED_AT_START = ("dataclasses", "inspect", "fractions", "decimal")

PROBE = """
import json, sys
import skeinsolve.cli
loaded = [m for m in %r if m in sys.modules]
from skeinsolve import RationalFunction, S
from fractions import Fraction
values = [(S + 2).evaluate(s=3), RationalFunction(S, S + 1).evaluate(s=2, a=5)]
print(json.dumps({"loaded": loaded,
                  "fractions": [isinstance(v, Fraction) for v in values],
                  "values": [str(v) for v in values]}))
""" % (UNUSED_AT_START,)


def test_cli_import_loads_no_unused_modules():
    # -S keeps site hooks (.pth files) from loading modules of their own
    src = str(Path(skeinsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["fractions"] == [True, True]
    assert report["values"] == ["5", "2/3"]
