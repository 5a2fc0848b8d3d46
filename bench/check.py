"""Output checks made from outside the program: exit codes, the stdout/stderr
split, XML parsed with the standard library, DOT statements counted with a
regular expression, all compared with the generator's counts."""

from __future__ import annotations

import hashlib
import re
import xml.etree.ElementTree as ET
from collections import Counter
from pathlib import Path

_QUOTED = r'"(?:[^"\\]|\\.)*"'
_DOT_NODE_RE = re.compile(rf"^\s*{_QUOTED} \[shape=(box|ellipse|circle)\b", re.M)
_DOT_EDGE_RE = re.compile(rf"^\s*{_QUOTED} -> {_QUOTED} \[label=", re.M)
_DOT_KIND = {"box": "concept", "ellipse": "entity", "circle": "omitted"}


def xml_counts(text: str) -> dict:
    """Nodes by kind and role edges of a semantic graph XML document."""
    root = ET.fromstring(text)
    if root.tag != "semanticgraph":
        raise ValueError(f"root element is {root.tag!r}")
    kinds = Counter(child.tag for child in root)
    edges = sum(1 for child in root for sub in child if sub.tag == "role")
    return {"concept": kinds["concept"], "entity": kinds["entity"],
            "omitted": kinds["omitted"], "edges": edges}


def dot_counts(text: str) -> dict:
    """Nodes by kind (from their shape) and edge statements of a DOT graph."""
    if not text.startswith("digraph semanticgraph {") or not text.rstrip().endswith("}"):
        raise ValueError("not a semanticgraph digraph")
    kinds = Counter(_DOT_KIND[shape] for shape in _DOT_NODE_RE.findall(text))
    return {"concept": kinds["concept"], "entity": kinds["entity"],
            "omitted": kinds["omitted"], "edges": len(_DOT_EDGE_RE.findall(text))}


def violation_codes(text: str) -> dict:
    """Violation lines (``CODE<TAB>subject<TAB>message``) counted by code."""
    codes: Counter = Counter()
    for line in text.splitlines():
        fields = line.split("\t")
        if len(fields) < 3:
            raise ValueError(f"not a violation line: {line[:80]!r}")
        codes[fields[0]] += 1
    return dict(codes)


_COUNTERS = {"xml": xml_counts, "dot": dot_counts}


def _check_stream(name: str, expect: dict, text: str) -> list[str]:
    kind = expect["kind"]
    try:
        if kind == "empty":
            got, want = text, ""
        elif kind == "violations":
            got, want = violation_codes(text), expect["codes"]
        elif kind == "lines":
            got, want = text.splitlines(), expect["lines"]
        else:
            got, want = _COUNTERS[kind](text), expect["counts"]
    except (ValueError, ET.ParseError) as exc:
        return [f"{name}: unreadable {kind} output: {exc}"]
    if got != want:
        shown = str(got)[:200]
        return [f"{name}: expected {kind} {str(want)[:200]}, got {shown}"]
    return []


def check_job(job: dict, code: int, stdout: str, stderr: str, workdir: Path) -> list[str]:
    """Every way the job's outcome differs from the generator's expectation."""
    problems = []
    if code != job["exit"]:
        problems.append(f"exit code {code}, expected {job['exit']}")
    problems += _check_stream("stdout", job["stdout"], stdout)
    problems += _check_stream("stderr", job["stderr"], stderr)
    for spec in job["files"]:
        path = workdir / spec["path"]
        if not path.is_file():
            problems.append(f"{spec['path']}: not written")
            continue
        problems += _check_stream(spec["path"], spec, path.read_text(encoding="utf-8"))
    return [f"{job['id']} ({' '.join(job['argv'])}): {p}" for p in problems]


def job_digest(job: dict, code: int, stdout: str, stderr: str, workdir: Path) -> str:
    """SHA-256 over everything the job returned, printed and wrote."""
    digest = hashlib.sha256(f"{code}\0{stdout}\0{stderr}".encode("utf-8"))
    for spec in job["files"]:
        path = workdir / spec["path"]
        digest.update(b"\0" + (path.read_bytes() if path.is_file() else b"<missing>"))
    return digest.hexdigest()
