#!/usr/bin/env python3
"""Fail on drift between the source tree and two reference tables in docs/.

Knobs: every quoted "HDLS_..." string in src/, bench/, examples/ and tests/
(the form every getenv() call and env_config reader uses) against the knob
rows of docs/knobs.md's reference table.

Metric families: every quoted "hdls_..." string in src/ (the form every
registry().counter/gauge/histogram call uses) against the rows of
docs/observability.md's family table. A row may name two families as
`hdls_a_x_total` / `_y_total`; the shorthand replaces as many trailing
segments of the first name as it has.

Exit 0 when every pair of sets matches, 1 with a per-name diagnosis
otherwise.
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SOURCE_DIRS = ["src", "bench", "examples", "tests"]
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".c"}
KNOBS_DOC = REPO / "docs" / "knobs.md"
METRICS_DOC = REPO / "docs" / "observability.md"


def quoted_in_source(dirnames: list[str], pattern: str) -> set[str]:
    found: set[str] = set()
    for dirname in dirnames:
        for path in (REPO / dirname).rglob("*"):
            if path.suffix not in SOURCE_SUFFIXES:
                continue
            text = path.read_text(encoding="utf-8", errors="replace")
            found.update(re.findall(pattern, text))
    return found


def knobs_in_doc() -> set[str]:
    knobs: set[str] = set()
    for line in KNOBS_DOC.read_text(encoding="utf-8").splitlines():
        # Table rows only: | `HDLS_FOO` | ... |  (prose mentions don't count
        # as documentation of a knob).
        m = re.match(r"\|\s*`(HDLS_[A-Z0-9_]+)`\s*\|", line)
        if m:
            knobs.add(m.group(1))
    return knobs


def expand_shorthand(first: str, short: str) -> str:
    """`hdls_a_yields_total` + `_sleeps_total` -> `hdls_a_sleeps_total`."""
    tail = short.strip("_").split("_")
    return "_".join(first.split("_")[: -len(tail)] + tail)


def families_in_doc() -> set[str]:
    families: set[str] = set()
    for line in METRICS_DOC.read_text(encoding="utf-8").splitlines():
        # Family-table rows only: the first cell starts with `hdls_...`.
        if not re.match(r"\|\s*`hdls_", line):
            continue
        names = re.findall(r"`([a-z0-9_]+)`", line.split("|")[1])
        first = names[0]
        families.add(first)
        for name in names[1:]:
            families.add(expand_shorthand(first, name) if name.startswith("_") else name)
    return families


def diff(kind: str, in_source: set[str], in_doc: set[str], doc: Path) -> bool:
    """Prints the drift between the two sets; True when they agree."""
    doc_name = doc.relative_to(REPO)
    for name in sorted(in_source - in_doc):
        print(f"ERROR: {kind} {name} is used in the source tree but has no row in {doc_name}")
    for name in sorted(in_doc - in_source):
        print(f"ERROR: {kind} {name} has a row in {doc_name} but no source reference "
              f"(stale doc?)")
    if in_source != in_doc:
        return False
    print(f"{kind} check ok: {len(in_source)} names, source and {doc_name} agree")
    return True


def main() -> int:
    knobs_ok = diff("knob", quoted_in_source(SOURCE_DIRS, r'"(HDLS_[A-Z0-9_]+)"'),
                    knobs_in_doc(), KNOBS_DOC)
    families_ok = diff("metric family", quoted_in_source(["src"], r'"(hdls_[a-z0-9_]+)"'),
                       families_in_doc(), METRICS_DOC)
    return 0 if knobs_ok and families_ok else 1


if __name__ == "__main__":
    sys.exit(main())
