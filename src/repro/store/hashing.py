"""Canonical hashing: one stable identity per config or request.

The solve service's request coalescing and the bench's ``config_hash``
need the same primitive: a hash that is a pure function of a value's
*content* — independent of dict insertion order, of whether a number
arrived as ``2``, ``np.int64(2)`` or inside an ``ndarray``, and of float
printing vagaries.  ``repr``-based schemes are fragile (``-0.0`` vs
``0.0``, platform ``repr`` history) and pickling is version-dependent,
so this module defines its own tiny canonical text form:

* every scalar is tagged with its type (``i:``/``f:``/``b:``/``s:``/…)
  so ``1``, ``1.0``, ``True`` and ``"1"`` never collide;
* floats are serialised with :meth:`float.hex`, which is exact and
  stable across platforms (``nan``/``inf`` round-trip through ``hex``
  too, and ``-0.0`` keeps its sign);
* numpy scalars and arrays are normalised to the Python values they
  hold, so ``np.float64(1.5)`` hashes like ``1.5`` and an array hashes
  like the nested list of its values;
* mappings are serialised in sorted-key order (keys must be strings);
* lists and tuples are interchangeable (both are "sequences" — a config
  that round-trips through JSON must keep its hash).

:func:`stable_hash` is the raw primitive and :func:`hash_config` its
mapping entry point.  :func:`plain_data` is the matching JSON
normaliser that :meth:`repro.analysis.sweep.ResultTable.to_dict` uses.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping

import numpy as np

__all__ = [
    "canonical_text",
    "stable_hash",
    "hash_config",
    "plain_data",
]


def _fragments(obj: Any, out: list) -> None:
    if obj is None:
        out.append("n")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("b:1" if obj else "b:0")
    elif isinstance(obj, (int, np.integer)):
        out.append(f"i:{int(obj)}")
    elif isinstance(obj, (float, np.floating)):
        # float.hex is exact (unlike decimal repr round-trips of old) and
        # distinguishes -0.0 from 0.0; nan/inf serialise as 'nan'/'inf'.
        out.append(f"f:{float(obj).hex()}")
    elif isinstance(obj, str):
        out.append("s:" + json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, bytes):
        out.append("y:" + obj.hex())
    elif isinstance(obj, np.ndarray):
        _fragments(obj.tolist(), out)
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for item in obj:
            _fragments(item, out)
            out.append(",")
        out.append("]")
    elif isinstance(obj, Mapping):
        keys = list(obj)
        if any(not isinstance(k, str) for k in keys):
            raise TypeError(
                "canonical hashing requires string mapping keys, got "
                f"{sorted(type(k).__name__ for k in keys if not isinstance(k, str))}"
            )
        out.append("{")
        for key in sorted(keys):
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _fragments(obj[key], out)
            out.append(",")
        out.append("}")
    else:
        raise TypeError(
            f"cannot canonically hash a value of type {type(obj).__name__}: {obj!r}"
        )


def canonical_text(obj: Any) -> str:
    """The canonical text form of ``obj`` (exposed mainly for tests)."""
    out: list = []
    _fragments(obj, out)
    return "".join(out)


def stable_hash(obj: Any, *, length: int | None = None) -> str:
    """SHA-256 of the canonical text form, as a hex digest.

    ``length`` truncates the digest (e.g. for file-name prefixes); the
    full 64-hex digest is returned by default.
    """
    digest = hashlib.sha256(canonical_text(obj).encode("ascii")).hexdigest()
    return digest if length is None else digest[:length]


def hash_config(config: Mapping) -> str:
    """The canonical hash of a configuration mapping (a sweep grid cell's
    params, a solver config, …).  Insensitive to key order and to numpy
    scalar wrappers; sensitive to actual value and type differences."""
    if not isinstance(config, Mapping):
        raise TypeError(f"hash_config expects a mapping, got {type(config).__name__}")
    return stable_hash(config)


def plain_data(obj: Any) -> Any:
    """Normalise a value into plain JSON-typed Python data.

    Numpy scalars become Python scalars, arrays become nested lists, and
    tuples become lists — so a table written as JSON compares equal
    (``==``) to its round-tripped self.
    """
    if isinstance(obj, dict):
        return {str(k): plain_data(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [plain_data(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return plain_data(obj.tolist())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    return obj
