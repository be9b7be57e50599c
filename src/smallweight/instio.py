"""Reading and writing instance files.

Grammar (one record per line, ``\\n`` line endings)::

    knapsack-file  := "knapsack" SP n SP t NL (w SP p NL){n}
    subsetsum-file := "subsetsum" SP n SP t NL (w NL){n}

All numbers are unsigned decimals with no leading zeros (except ``0``
itself).  Lines whose first non-blank character is ``#`` are comments:
accepted anywhere on input, never produced on output.  Input limits are
checked when the instance is built (``KnapsackInstance`` and
``SubsetSumInstance`` validate themselves), so a successfully parsed instance
is always within bounds.
"""

from __future__ import annotations

import re

from .model import (
    InstanceFormatError,
    Item,
    KnapsackInstance,
    SubsetSumInstance,
)

_NUMBER = re.compile(r"^(0|[1-9][0-9]*)$")


def _parse_number(token: str, what: str, lineno: int) -> int:
    if not _NUMBER.match(token):
        raise InstanceFormatError(
            f"line {lineno}: {what} {token!r} is not a plain decimal number"
        )
    return int(token)


def _content_lines(text: str) -> list[tuple[int, str]]:
    lines: list[tuple[int, str]] = []
    # Line number of the text after the final newline; the grammar ends every
    # line with NL, so an empty tail there is not a line.
    tail = text.count("\n") + 1
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if raw.strip().startswith("#"):
            continue
        if raw == "" and lineno == tail:
            continue
        lines.append((lineno, raw))
    return lines


def parse_instance(text: str) -> KnapsackInstance | SubsetSumInstance:
    """Parse instance text, raising InstanceFormatError on any deviation."""
    lines = _content_lines(text)
    if not lines:
        raise InstanceFormatError("empty input")
    lineno, header = lines[0]
    fields = header.split(" ")
    if len(fields) != 3:
        raise InstanceFormatError(
            f"line {lineno}: header must be '<kind> <n> <t>', got {header!r}"
        )
    kind, n_tok, t_tok = fields
    if kind not in ("knapsack", "subsetsum"):
        raise InstanceFormatError(f"line {lineno}: unknown kind {kind!r}")
    n = _parse_number(n_tok, "item count", lineno)
    t = _parse_number(t_tok, "capacity", lineno)
    body = lines[1:]
    if len(body) != n:
        raise InstanceFormatError(
            f"expected {n} item lines, found {len(body)}"
        )
    if kind == "knapsack":
        items = []
        for lineno, raw in body:
            parts = raw.split(" ")
            if len(parts) != 2:
                raise InstanceFormatError(
                    f"line {lineno}: expected '<weight> <profit>', got {raw!r}"
                )
            w = _parse_number(parts[0], "weight", lineno)
            p = _parse_number(parts[1], "profit", lineno)
            items.append(Item(w, p))
        return KnapsackInstance(tuple(items), t)
    weights = []
    for lineno, raw in body:
        if " " in raw or raw == "":
            raise InstanceFormatError(
                f"line {lineno}: expected a single weight, got {raw!r}"
            )
        weights.append(_parse_number(raw, "weight", lineno))
    return SubsetSumInstance(tuple(weights), t)


def serialize_instance(instance: KnapsackInstance | SubsetSumInstance) -> str:
    """Render an instance in the file grammar (no comments, trailing newline)."""
    if isinstance(instance, KnapsackInstance):
        out = [f"knapsack {instance.n} {instance.t}"]
        out.extend(f"{w} {p}" for w, p in instance.items)
    else:
        out = [f"subsetsum {instance.n} {instance.t}"]
        out.extend(str(w) for w in instance.weights)
    return "\n".join(out) + "\n"
