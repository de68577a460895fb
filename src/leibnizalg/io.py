"""Algebra file format: exact rational structure constants as JSON text.

Coefficients serialize as exact rational strings ("p/q" or "p"), never
decimals; zero entries are omitted. Emit-then-parse reproduces the product
table identically.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional

from .algebra import Algebra, algebra_from_products

FORMAT = "leibnizalg-algebra/1"


class AlgebraFileError(ValueError):
    """Malformed algebra file (bad index, duplicate entry, parse failure)."""


def algebra_to_dict(alg: Algebra) -> dict:
    d = alg.dim
    entries = [[i, j, k, str(c)] for i in range(d) for j in range(d) for k, c in alg.table[i][j]]
    out = {
        "format": FORMAT,
        "dim": d,
        "labels": list(alg.labels),
        "entries": entries,
    }
    meta = alg.metadata or {}
    clean = {}
    if "family" in meta:
        clean["family"] = str(meta["family"])
    if "n" in meta:
        clean["n"] = int(meta["n"])
    if "params" in meta:
        clean["params"] = {str(k): str(Fraction(v)) for k, v in meta["params"].items()}
    if clean:
        out["metadata"] = clean
    return out


def algebra_from_dict(data: dict) -> Algebra:
    """The algebra of a parsed file. Each field must have the type that
    :func:`algebra_to_dict` writes (an integer is a JSON integer, not a bool,
    a float or a string); anything else raises :class:`AlgebraFileError`."""
    if not isinstance(data, dict):
        raise AlgebraFileError("top-level value must be an object")
    if data.get("format") != FORMAT:
        raise AlgebraFileError(f"unsupported format {data.get('format')!r}; expected {FORMAT!r}")
    d = data.get("dim")
    if type(d) is not int:
        raise AlgebraFileError("missing or non-integer 'dim'")
    if d < 1:
        raise AlgebraFileError("dim must be >= 1")
    labels = data.get("labels")
    if labels is None:
        labels = [f"e{i}" for i in range(d)]
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise AlgebraFileError("'labels' must be a list of strings")
    if len(labels) != d:
        raise AlgebraFileError(f"{len(labels)} labels for dim {d}")
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise AlgebraFileError("'entries' must be a list")
    products: dict = {}
    seen = set()
    for pos, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 4 and all(type(x) is int for x in entry[:3])):
            raise AlgebraFileError(f"entry {pos}: expected [i, j, k, coefficient] with integer i, j, k")
        i, j, k, coeff = entry
        if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
            raise AlgebraFileError(f"entry {pos}: index ({i},{j},{k}) out of range for dim {d}")
        if (i, j, k) in seen:
            raise AlgebraFileError(f"entry {pos}: duplicate index ({i},{j},{k})")
        seen.add((i, j, k))
        try:
            products.setdefault((i, j), []).append((k, Fraction(str(coeff))))
        except (ValueError, ZeroDivisionError):
            raise AlgebraFileError(f"entry {pos}: cannot parse coefficient {coeff!r} exactly")
    raw = data.get("metadata")
    metadata: Optional[dict] = None
    if raw is not None:
        try:
            if not isinstance(raw.get("family", ""), str) or type(raw.get("n", 0)) is not int:
                raise TypeError
            metadata = {k: raw[k] for k in ("family", "n") if k in raw}
            if "params" in raw:
                metadata["params"] = {k: Fraction(str(v)) for k, v in raw["params"].items()}
        except (AttributeError, TypeError, ValueError, ZeroDivisionError):
            raise AlgebraFileError("'metadata' must be an object with a string 'family', "
                                   "an integer 'n' and exact rational 'params'")
    return algebra_from_products(labels, products, metadata)


def dumps(alg: Algebra) -> str:
    return json.dumps(algebra_to_dict(alg), indent=1, sort_keys=True)


def loads(text: str) -> Algebra:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFileError(f"invalid JSON: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return algebra_from_dict(data)
