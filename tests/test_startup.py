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


RECORDS_ONLY = ("json", "skeinsolve.cache", "skeinsolve.serialize")

# closed-form and invariant in text format print the value and read no cache
TEXT_COMMANDS_PROBE = """
import io, sys
from contextlib import redirect_stdout
import skeinsolve.cli
with redirect_stdout(io.StringIO()):
    assert skeinsolve.cli.main(["closed-form", "--geometry", "unknot", "--partition", "2,1"]) == 0
    assert skeinsolve.cli.main(["invariant", "--partition", "2,1"]) == 0
print(" ".join(m for m in %r if m in sys.modules))
""" % (RECORDS_ONLY,)


def _loaded(probe: str) -> list[str]:
    # -S keeps site hooks (.pth files) from loading modules of their own
    src = str(Path(skeinsolve.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_cli_import_loads_no_unused_modules():
    assert _loaded(PROBE) == []


def test_text_closed_form_and_invariant_load_no_records_modules():
    assert _loaded(TEXT_COMMANDS_PROBE) == []
