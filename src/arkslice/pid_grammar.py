"""Parse, validate, canonicalize and serialize semantic PID strings.

Surface syntax::

    ark:/NAAN/DATASET.S1+S2.M1+M2@SELECTOR

where SELECTOR is ``*`` or ``+``-joined terms of the form ``[_]start~end``.
A leading underscore marks the term as an exclusion. The single-timestamp
shorthand ``@t`` is accepted on input and canonicalized to ``t~t``.

Pure functions, no I/O.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import (
    ArksliceError,
    BadNaan,
    DuplicateName,
    InvalidRange,
    InvariantViolation,
    MalformedPid,
)

NAME_RE = re.compile(r"[A-Za-z0-9_-]+")  # fullmatch: "$" lets a final "\n" by


def is_decimal(text: str) -> bool:
    """Whether ``text`` is a nonempty run of ASCII digits ``0``-``9``."""
    return text.isascii() and text.isdigit()


@dataclass(frozen=True)
class RangeTerm:
    """One inclusive interval of timestamp keys, optionally excluding."""

    start: int
    end: int
    exclude: bool = False


@dataclass(frozen=True)
class RangeSelector:
    """Either the wildcard (all rows) or an ordered list of range terms."""

    terms: tuple[RangeTerm, ...] = ()
    wildcard: bool = False

    @classmethod
    def all_rows(cls) -> "RangeSelector":
        return cls(wildcard=True)

    @classmethod
    def of(cls, *terms: RangeTerm) -> "RangeSelector":
        return cls(terms=tuple(terms))


@dataclass(frozen=True)
class PidQuery:
    """Parsed form of a semantic PID."""

    naan: str
    dataset: str
    sensors: tuple[str, ...]
    measurements: tuple[str, ...]
    selector: RangeSelector = field(default_factory=RangeSelector.all_rows)


def _check_name(name: str, what: str) -> str:
    if not name:
        raise MalformedPid(f"empty {what}")
    if not NAME_RE.fullmatch(name):
        raise MalformedPid(f"illegal character in {what} {name!r}")
    return name


def _parse_namelist(text: str, what: str) -> tuple[str, ...]:
    names = tuple(_check_name(part, what) for part in text.split("+"))
    if len(set(names)) != len(names):
        raise DuplicateName(f"repeated {what} in {text!r}")
    return names


def _parse_bound(text: str) -> int:
    if not is_decimal(text):
        raise InvalidRange(f"non-integer bound {text!r}")
    return int(text)


def _parse_term(text: str) -> RangeTerm:
    if not text:
        raise MalformedPid("empty range term")
    exclude = text.startswith("_")
    body = text[1:] if exclude else text
    if not body:
        raise MalformedPid("empty range term")
    parts = body.split("~")
    if len(parts) == 1:
        start = end = _parse_bound(parts[0])
    elif len(parts) == 2:
        start = _parse_bound(parts[0])
        end = _parse_bound(parts[1])
    else:
        raise InvalidRange(f"too many '~' in term {text!r}")
    if start > end:
        raise InvalidRange(f"reversed bounds {start}~{end}")
    return RangeTerm(start, end, exclude)


def _parse_selector(text: str) -> RangeSelector:
    if not text:
        raise MalformedPid("empty selector")
    if text == "*":
        return RangeSelector.all_rows()
    return RangeSelector(terms=tuple(_parse_term(t) for t in text.split("+")))


def split_ark(text: str) -> tuple[str, str]:
    """Split ``ark:/NAAN/BODY`` into ``(NAAN, BODY)``, checking only the
    shape. The caller must already have stripped any scheme/host prefix."""
    if not isinstance(text, str) or not text.startswith("ark:/"):
        raise MalformedPid("PID must start with 'ark:/'")
    naan, sep, body = text[len("ark:/"):].partition("/")
    if not sep:
        raise MalformedPid("missing '/' after NAAN")
    if not body:
        raise MalformedPid("missing body after 'ark:/NAAN/'")
    return naan, body


def parse_pid(text: str) -> PidQuery:
    """Parse a full ``ark:/...`` PID string into a PidQuery."""
    return parse_pid_body(*split_ark(text))


def parse_pid_body(naan: str, body: str) -> PidQuery:
    """The PidQuery of ``ark:/NAAN/BODY``, given the NAAN and the body."""
    if not is_decimal(naan):
        raise BadNaan(f"NAAN must be decimal digits, got {naan!r}")
    left, at, sel_text = body.partition("@")
    if not at:
        raise MalformedPid("missing '@' selector separator")
    parts = left.split(".")
    if len(parts) != 3:
        raise MalformedPid(
            f"expected DATASET.SENSORS.MEASUREMENTS, got {len(parts)} parts"
        )
    return PidQuery(
        naan=naan,
        dataset=_check_name(parts[0], "dataset name"),
        sensors=_parse_namelist(parts[1], "sensor"),
        measurements=_parse_namelist(parts[2], "measurement"),
        selector=_parse_selector(sel_text),
    )


def serialize_pid(q: PidQuery) -> str:
    """Render a PidQuery back to its canonical PID string.

    ``parse_pid(serialize_pid(q)) == q`` exactly; the single-timestamp
    shorthand is always expanded to the full ``t~t`` form. The string is
    checked by parsing it: a query the grammar cannot express raises
    ``InvariantViolation`` naming the reason.
    """
    if q.selector.wildcard:
        sel = "*"
    else:
        sel = "+".join(
            f"{'_' if t.exclude else ''}{t.start}~{t.end}"
            for t in q.selector.terms
        )
    text = (
        f"ark:/{q.naan}/{q.dataset}"
        f".{'+'.join(q.sensors)}.{'+'.join(q.measurements)}@{sel}"
    )
    try:
        parsed = parse_pid(text)
    except ArksliceError as exc:
        raise InvariantViolation(f"{text!r} does not parse: {exc}") from None
    if parsed != q:
        raise InvariantViolation(f"{text!r} parses to another query")
    return text


def _merged(spans) -> list[tuple[int, int]]:
    """Sort ``[lo, hi)`` spans and merge those that overlap or touch."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(spans):
        if lo >= hi:
            continue
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _key_ranges(sel: RangeSelector, domain) -> list[tuple[int, int]]:
    """The positions a selector keeps in a strictly increasing domain.

    Returns disjoint, ascending ``[lo, hi)`` index ranges: the union of the
    inclusive terms (the whole domain when there are none, or for the
    wildcard) minus the union of the exclusive terms. Each term costs two
    binary searches, so the work grows with the number of terms, not with
    the domain. ``domain`` is any sorted sequence, a list or an int64
    array; comparisons stay exact for bounds beyond 64 bits.
    """
    keep: list[tuple[int, int]] = []
    drop: list[tuple[int, int]] = []
    for t in sel.terms:  # the wildcard has none
        span = (bisect_left(domain, t.start), bisect_right(domain, t.end))
        (drop if t.exclude else keep).append(span)
    keep = _merged(keep) if keep else [(0, len(domain))]
    drop = _merged(drop)
    out: list[tuple[int, int]] = []
    j = 0
    for lo, hi in keep:
        while j < len(drop) and drop[j][1] <= lo:
            j += 1
        k = j
        while k < len(drop) and drop[k][0] < hi:
            dlo, dhi = drop[k]
            if dlo > lo:
                out.append((lo, dlo))
            lo = dhi
            k += 1
        if lo < hi:
            out.append((lo, hi))
    return out


def effective_key_set(sel: RangeSelector, domain):
    """Apply a selector to a strictly increasing timestamp domain.

    The result is the union of the inclusive terms intersected with the
    domain (all of it when there are none, or for the wildcard), minus the
    union of the exclusive terms. Both interval bounds are inclusive.
    A list domain gives a list; an int64 array gives an array, a view of
    the domain when one range is kept, so the domain is never copied.
    """
    ranges = _key_ranges(sel, domain)
    if not isinstance(domain, np.ndarray):
        return list(chain.from_iterable(domain[lo:hi] for lo, hi in ranges))
    if len(ranges) == 1:
        lo, hi = ranges[0]
        return domain[lo:hi]
    if not ranges:
        return domain[:0]
    return np.concatenate([domain[lo:hi] for lo, hi in ranges])
