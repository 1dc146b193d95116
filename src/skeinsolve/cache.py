"""On-disk cache of solved skein vectors, keyed by geometry, degree, schema
version and package version.

An entry is one cache-only line holding the sha256 of the served bytes,
followed by those exact bytes, so a hit is byte-identical to a fresh
computation; the CLI's --no-cache flag provides the cross-check path.  The
package version in the key keeps a newer solver from serving an older one's
bytes.  Together they vouch for a hit, so a text read wraps its records as
written instead of reducing them again; it still checks their shape, and the
CLI treats records that do not read back as a miss.  A records read serves
the stored bytes unparsed.  The directory comes from SKEINSOLVE_CACHE_DIR,
falling back to XDG_CACHE_HOME if absolute, then to ~/.cache.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

try:
    # CPython's own sha256: hashlib would load OpenSSL first, which costs
    # every psi command about 6 ms and 3.6 MB of resident memory
    from _sha256 import sha256
except ImportError:  # other interpreters, and CPython 3.12 on
    from hashlib import sha256

from . import SCHEMA_VERSION, __version__
from .partitions import partitions_through

ENV_VAR = "SKEINSOLVE_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_VAR)
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "")  # the XDG spec ignores a relative one
    root = Path(xdg) if os.path.isabs(xdg) else Path.home() / ".cache"
    return root / "skeinsolve"


class ResultCache:
    """Directory of serialized skein vectors."""

    def __init__(self, root: Path | str | None = None):
        self.root = Path(root) if root is not None else default_cache_dir()

    def path_for(self, geometry: str, max_degree: int) -> Path:
        name = (f"psi-{geometry}-N{max_degree}-schema{SCHEMA_VERSION}"
                f"-v{__version__}.jsonl")
        return self.root / name

    def load(self, geometry: str, max_degree: int) -> str | None:
        """The stored text, or None (a miss) when the entry is missing,
        unreadable, fails its checksum or is not a complete record stream
        for this key."""
        path = self.path_for(geometry, max_degree)
        try:
            head, _, body = path.read_bytes().partition(b"\n")
            if head != _checksum_line(body):
                return None
            text = body.decode("utf-8")
        except (OSError, UnicodeDecodeError):
            return None
        return text if _is_complete(text, geometry, max_degree) else None

    def store(self, geometry: str, max_degree: int, text: str) -> Path:
        path = self.path_for(geometry, max_degree)
        path.parent.mkdir(parents=True, exist_ok=True)
        body = text.encode("utf-8")
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(_checksum_line(body) + b"\n" + body)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        return path


def _checksum_line(body: bytes) -> bytes:
    return b"sha256 " + sha256(body).hexdigest().encode("ascii")


def _is_complete(text: str, geometry: str, max_degree: int) -> bool:
    """Whether text has this key's header and one record, a line that is not
    blank, per partition through max_degree: every coefficient is a nonzero
    hook-content product, so a cut entry has too few lines.  The records are
    not parsed.  A header json cannot decode, nested too deeply for it
    included, is not this key's."""
    lines = text.split("\n")  # the last is what follows the final newline
    try:
        header = json.loads(lines[0])
    except (ValueError, RecursionError):
        return False
    expected = {"kind": "skein-vector", "schema": SCHEMA_VERSION,
                "geometry": geometry, "max_degree": max_degree}
    return (isinstance(header, dict)
            and all(header.get(k) == v for k, v in expected.items())
            and len(lines) == 2 + len(partitions_through(max_degree))
            and all(line.strip() for line in lines[:-1]))
