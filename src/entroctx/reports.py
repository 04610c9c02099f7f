"""File formats: JSON reports and counts, literal-entropy files, sweep CSV.

Entropy fields are written snapped to 11 decimals (the precision of the
bundled reference tables) and the stored m_value is recomputed from the
snapped entries, so a written report re-parses bit-for-bit and its
m_value always recomputes exactly from its own fields.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from .entropy import EntropyReport, cycle_pair_keys, evaluate_m_cycle
from .sampling import CountsRecord, _texts

_DECIMALS = 11


def _label_to_text(label) -> str:
    if isinstance(label, str):
        return label
    return "".join("+" if v > 0 else "-" for v in label)


def _text_to_label(text: str):
    if text and set(text) <= {"+", "-"}:
        return tuple(1 if ch == "+" else -1 for ch in text)
    return text


def report_to_dict(report: EntropyReport, lp_feasible: bool | None) -> dict:
    singles = {
        str(k): round(v, _DECIMALS) for k, v in sorted(report.h_singles.items())
    }
    n = report.n_observables
    pairs = {
        f"{i}-{j}": round(report.h_pairs[(i, j)], _DECIMALS)
        for i, j in cycle_pair_keys(n)
    }
    return {
        "h_singles": singles,
        "h_pairs": pairs,
        "m_value": evaluate_m_cycle(pairs, singles, n),
        "convention": report.convention,
        "lp_feasible": lp_feasible,
        "flags": list(report.flags),
    }


def _field(data, name: str, kind: str = "entropies"):
    try:
        return data[name]
    except (KeyError, TypeError):
        raise ValueError(f"{kind} file lacks the {name!r} field") from None


def report_from_dict(data: dict) -> tuple[EntropyReport, bool | None]:
    pairs = dict(_field(data, "h_pairs"))
    lp_feasible = data.get("lp_feasible")
    if not (lp_feasible is None or isinstance(lp_feasible, bool)):
        raise ValueError(
            f"report 'lp_feasible' must be true, false or null, not {lp_feasible!r}"
        )
    report = EntropyReport(
        h_singles=dict(_field(data, "h_singles")),
        h_pairs=pairs,
        m_value=float(_field(data, "m_value")),
        convention=_field(data, "convention"),
        n_observables=len(pairs),
        flags=_texts("report 'flags'", data.get("flags", [])),
    )
    return report, lp_feasible


def write_report(path, report: EntropyReport, lp_feasible: bool | None) -> dict:
    payload = report_to_dict(report, lp_feasible)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")
    return payload


def read_report(path) -> tuple[EntropyReport, bool | None]:
    return report_from_dict(json.loads(Path(path).read_text()))


def counts_to_dict(observable_texts, record: CountsRecord) -> dict:
    return {
        "context": list(observable_texts),
        "shots": record.shots,
        "counts": {
            _label_to_text(lb): int(v) for lb, v in record.counts.items()
        },
    }


def counts_from_dict(data: dict) -> tuple[tuple[str, ...], CountsRecord]:
    texts = _texts("counts file 'context'", _field(data, "context", "counts"))
    counts = _field(data, "counts", "counts")
    if not isinstance(counts, dict):
        raise ValueError(f"counts file 'counts' must be an object, not {counts!r}")
    labelled = {_text_to_label(k): v for k, v in counts.items()}
    return texts, CountsRecord(_field(data, "shots", "counts"), labelled)


def write_counts(path, observable_texts, record: CountsRecord) -> None:
    payload = counts_to_dict(observable_texts, record)
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def read_counts(path) -> tuple[tuple[str, ...], CountsRecord]:
    """A counts file's context and record; a malformed file is named."""
    try:
        return counts_from_dict(json.loads(Path(path).read_text()))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def literal_entropies_to_report(data: dict) -> EntropyReport:
    """Report from a file that states entropies directly instead of counts.

    Schema: {"entropies": {"h_singles": {...}, "h_pairs": {...}},
    "convention": "fine"|"coarse"}; m is recomputed from the entries.
    """
    body = _field(data, "entropies")
    pairs = _field(body, "h_pairs")
    return EntropyReport.from_entropies(
        _field(body, "h_singles"),
        pairs,
        convention=data.get("convention", "fine"),
        n=len(pairs),
        flags=("literal-entropies input",),
    )


def read_entropies_file(path) -> EntropyReport:
    """Report or literal-entropies file; the "entropies" key marks the latter."""
    data = json.loads(Path(path).read_text())
    if isinstance(data, dict) and "entropies" in data:
        return literal_entropies_to_report(data)
    return report_from_dict(data)[0]


SWEEP_COLUMNS = ("alpha", "beta", "M_coarse", "M_fine", "lp_feasible")


def write_sweep_csv(path, rows) -> None:
    """Rows of (alpha, beta, m_coarse, m_fine, feasible), sorted for diffing."""
    ordered = sorted(rows, key=lambda r: (r[0], r[1]))
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_COLUMNS)
        for alpha, beta, m_coarse, m_fine, feasible in ordered:
            writer.writerow(
                [
                    repr(float(alpha)),
                    repr(float(beta)),
                    repr(float(m_coarse)),
                    repr(float(m_fine)),
                    "true" if feasible else "false",
                ]
            )


def read_sweep_csv(path) -> list[tuple]:
    """write_sweep_csv's rows; a row that is not 4 numbers and true or false
    is refused with the file and line."""
    rows = []
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        if tuple(header) != SWEEP_COLUMNS:
            raise ValueError(f"unexpected sweep header {header}")
        for cells in reader:
            where = f"{path}, line {reader.line_num}"
            if len(cells) != len(SWEEP_COLUMNS):
                raise ValueError(f"{where}: {len(cells)} cells, not {len(SWEEP_COLUMNS)}")
            if cells[4] not in ("true", "false"):
                raise ValueError(f"{where}: lp_feasible is {cells[4]!r}, not true or false")
            try:
                rows.append((*map(float, cells[:4]), cells[4] == "true"))
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
    return rows
