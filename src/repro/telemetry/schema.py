"""Schema checks for ``repro-telemetry/1`` JSONL streams.

A dependency-free structural validator (no jsonschema in the base image):
:func:`validate_jsonl` walks a stream line by line and returns every
violation it finds, so CI can gate exported telemetry without executing
anything else.  Also runnable as a module::

    python -m repro.telemetry.schema out.jsonl

which exits non-zero when the file is invalid (used by the CI telemetry
job).
"""

from __future__ import annotations

import json
import sys

from repro.telemetry.events import EVENT_KINDS
from repro.telemetry.export import SCHEMA

__all__ = ["validate_records", "validate_jsonl"]

_METRIC_KINDS = {"counter", "gauge", "histogram"}
_HISTOGRAM_KEYS = {"count", "total", "min", "max", "mean"}
#: ``sumsq`` rides along so merged standard deviations stay exact; streams
#: written before it existed (or by trimmed exporters) remain valid.
_HISTOGRAM_OPTIONAL = {"sumsq"}
_SPAN_KEYS = {"count", "total_s", "self_s", "mean_s", "min_s", "max_s"}
#: Event kinds earlier releases wrote under the same schema tag (2.0.0's
#: decision cache); their streams stay valid.
RETIRED_EVENT_KINDS = frozenset({"decision_cache_hit", "decision_cache_miss"})


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_metric(record: dict, where: str, errors: list[str]) -> None:
    kind = record.get("kind")
    if kind not in _METRIC_KINDS:
        errors.append(f"{where}: metric kind must be one of {sorted(_METRIC_KINDS)}, got {kind!r}")
        return
    if not isinstance(record.get("name"), str) or not record["name"]:
        errors.append(f"{where}: metric needs a non-empty string 'name'")
    labels = record.get("labels", {})
    if not isinstance(labels, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in labels.items()
    ):
        errors.append(f"{where}: labels must map strings to strings")
    value = record.get("value")
    if kind == "histogram":
        if not isinstance(value, dict) or not (
            _HISTOGRAM_KEYS <= set(value) <= _HISTOGRAM_KEYS | _HISTOGRAM_OPTIONAL
        ):
            errors.append(f"{where}: histogram value must have keys {sorted(_HISTOGRAM_KEYS)}")
        elif not all(_is_number(v) for v in value.values()):
            errors.append(f"{where}: histogram fields must be numeric")
    elif not _is_number(value):
        errors.append(f"{where}: {kind} value must be numeric, got {value!r}")


def _check_span(record: dict, where: str, errors: list[str]) -> None:
    if not isinstance(record.get("name"), str) or not record["name"]:
        errors.append(f"{where}: span needs a non-empty string 'name'")
    missing = _SPAN_KEYS - set(record)
    if missing:
        errors.append(f"{where}: span missing fields {sorted(missing)}")
    for key in _SPAN_KEYS & set(record):
        if not _is_number(record[key]):
            errors.append(f"{where}: span field {key!r} must be numeric")


def _check_event(record: dict, where: str, errors: list[str]) -> None:
    kind = record.get("kind")
    if not isinstance(kind, str) or not kind:
        errors.append(f"{where}: event needs a non-empty string 'kind'")
    elif kind not in EVENT_KINDS and kind not in RETIRED_EVENT_KINDS:
        errors.append(f"{where}: unknown event kind {kind!r} (taxonomy: {sorted(EVENT_KINDS)})")
    if not _is_number(record.get("t")):
        errors.append(f"{where}: event needs a numeric time 't'")
    if "node" in record and not isinstance(record["node"], int):
        errors.append(f"{where}: event 'node' must be an integer")
    if "data" in record and not isinstance(record["data"], dict):
        errors.append(f"{where}: event 'data' must be an object")


def validate_records(records: list[tuple[int, dict]], errors: list[str]) -> None:
    """Validate one header-to-summary block of parsed ``(lineno, record)``."""
    if not records:
        return
    lineno, head = records[0]
    if head.get("record") != "header":
        errors.append(f"line {lineno}: block must start with a header record")
    elif head.get("schema") != SCHEMA:
        errors.append(f"line {lineno}: schema must be {SCHEMA!r}, got {head.get('schema')!r}")
    if records[-1][1].get("record") != "summary":
        errors.append(f"line {records[-1][0]}: block must end with a summary record")
    for lineno, record in records[1:]:
        where = f"line {lineno}"
        rtype = record.get("record")
        if rtype == "metric":
            _check_metric(record, where, errors)
        elif rtype == "span":
            _check_span(record, where, errors)
        elif rtype == "event":
            _check_event(record, where, errors)
        elif rtype == "summary":
            for key in ("events_recorded", "events_dropped"):
                if not isinstance(record.get(key), int):
                    errors.append(f"{where}: summary needs integer {key!r}")
            if not isinstance(record.get("event_counts"), dict):
                errors.append(f"{where}: summary needs an 'event_counts' object")
        elif rtype == "header":
            errors.append(f"{where}: unexpected header inside a block")
        else:
            errors.append(f"{where}: unknown record type {rtype!r}")


def validate_jsonl(path) -> list[str]:
    """Validate a JSONL telemetry file; returns a list of error strings.

    An empty list means the file is schema-valid.  Files may contain
    several appended header-to-summary blocks (see
    :func:`repro.telemetry.export.write_jsonl` with ``append=True``).
    """
    errors: list[str] = []
    block: list[tuple[int, dict]] = []
    any_lines = False
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            any_lines = True
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(f"line {lineno}: invalid JSON ({exc})")
                continue
            if not isinstance(record, dict):
                errors.append(f"line {lineno}: each line must be a JSON object")
                continue
            if record.get("record") == "header" and block:
                validate_records(block, errors)
                block = []
            block.append((lineno, record))
    if block:
        validate_records(block, errors)
    if not any_lines:
        errors.append("file contains no records")
    return errors


def main(argv: list[str] | None = None) -> int:
    """``python -m repro.telemetry.schema FILE [FILE...]`` entry point."""
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.telemetry.schema FILE [FILE...]", file=sys.stderr)
        return 2
    failed = False
    for path in paths:
        errors = validate_jsonl(path)
        if errors:
            failed = True
            for error in errors:
                print(f"{path}: {error}", file=sys.stderr)
        else:
            print(f"{path}: OK ({SCHEMA})")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
