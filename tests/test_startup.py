"""What `import skeinsolve.cli` loads: every command pays for it first."""

import os
import subprocess
import sys
from pathlib import Path

import skeinsolve

# Modules no command needs at start-up: dataclasses brings inspect (and ast,
# dis, tokenize), and fractions brings decimal.  json, the result cache and
# the records serializer serve only the commands that read or write
# records, which import them themselves.
UNUSED_AT_START = ("dataclasses", "inspect", "fractions", "decimal",
                   "json", "skeinsolve.cache", "skeinsolve.serialize")

PROBE = """
import sys
import skeinsolve.cli
print(" ".join(m for m in %r if m in sys.modules))
""" % (UNUSED_AT_START,)


def test_cli_import_loads_no_unused_modules():
    # -S keeps site hooks (.pth files) from loading modules of their own
    src = str(Path(skeinsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
