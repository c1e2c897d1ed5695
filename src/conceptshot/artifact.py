"""Every file the program writes, the one framing of its binary files, and
the one reader of its JSON documents.

A binary artifact is a 4-byte magic, the length of its header as a
little-endian u32, the header as compact sorted-key JSON, then raw
little-endian tables back to back in C order.  The header says what the
tables are; the module that owns a format turns it into each table's dtype
and shape.  Reading checks the file's size against those shapes before any
table is read, and every malformed or unreadable file becomes ``DataError``.

Every write goes to a temporary file beside its target, in a parent
directory created when missing, and is moved over the target by
``os.replace``: a failure leaves the old file and no temporary, and an
``OSError`` becomes a ``DataError`` that names the target.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress

import numpy as np

from .errors import DataError


def _write_atomic(path, mode: str, write):
    path = os.fspath(path)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(tmp, mode, newline=None if "b" in mode else "") as f:
            write(f)
        os.replace(tmp, path)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}")
    finally:
        with suppress(OSError):
            os.unlink(tmp)              # left only when something failed


def write_text_atomic(path, chunks):
    """Write the strings ``chunks`` to ``path``, atomically."""
    _write_atomic(path, "w", lambda f: f.writelines(chunks))


def write_binary(path, magic: bytes, header: dict, tables):
    """Write ``header``, then each array of ``tables`` in its own (little-
    endian) dtype, atomically; no byte-string copy of a table is made."""
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()

    def write(f):
        f.write(magic + len(blob).to_bytes(4, "little") + blob)
        for t in tables:
            f.write(np.ascontiguousarray(t).data)

    _write_atomic(path, "wb", write)


def read_json(path, what: str, error):
    """The JSON document of the ``what`` file at ``path``; a failure raises ``error``."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise error(f"{what} file not found: {path}")
    except OSError as exc:
        raise error(f"cannot read {what} file {path}: {exc}")
    except UnicodeDecodeError as exc:
        raise error(f"{what} file {path} is not UTF-8 text: {exc}")
    except json.JSONDecodeError as exc:
        raise error(f"{what} file {path} is not valid JSON: {exc}")
    except RecursionError:
        raise error(f"{what} file {path} is nested too deep to parse")


def read_binary(path, magic: bytes, what: str, layout):
    """(header, tables) of the binary artifact ``what`` at ``path``.

    ``layout`` maps the parsed header to the (dtype, shape) of each table.
    A ``DataError`` it raises passes through; a KeyError, TypeError,
    ValueError or AttributeError is reported as a malformed header, as is
    a header nested too deep to parse.  The file must hold exactly those
    tables, with no byte missing or left over.
    """
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(8)
            if head[:4] != magic:
                raise DataError(f"{path} is not a {what} file")
            hlen = int.from_bytes(head[4:], "little")
            if len(head) < 8 or 8 + hlen > size:
                raise DataError(f"{what} file {path} is truncated in its header")
            try:
                header = json.loads(f.read(hlen).decode())
                tables = [(np.dtype(dt), tuple(shape)) for dt, shape in layout(header)]
                if not all(type(k) is int and k >= 0 for _, s in tables for k in s):
                    raise ValueError(f"bad table shapes {[s for _, s in tables]}")
            except DataError:
                raise
            except (KeyError, TypeError, ValueError, AttributeError,
                    RecursionError) as exc:
                raise DataError(f"{path} has a malformed {what} header: {exc}")
            expect = 8 + hlen + sum(dt.itemsize * math.prod(s) for dt, s in tables)
            if size != expect:
                raise DataError(f"{what} file is {size} bytes, expected {expect}: "
                                + ("truncated" if size < expect else "trailing bytes"))
            return header, [np.fromfile(f, dt, math.prod(s)).reshape(s)
                            for dt, s in tables]
    except FileNotFoundError:
        raise DataError(f"{what} file not found: {path}")
    except OSError as exc:
        raise DataError(f"cannot read {what} file {path}: {exc}")
