"""The exit-code contract of the file-reading commands on fuzzed inputs.

Exit 0 and exit 1 must agree with the JSON report: 1 exactly when the report
records a violation.  Exit 2 must print nothing on stdout and one `error:`
line on stderr.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from birough.cli import main
from strategies import relation_texts

# What each command's JSON report records as a violation.
VIOLATED = {
    "approx": lambda body: False,
    "neighbors": lambda body: not body["saturation_identity"],
    "classify": lambda body: body["laws"]["violated"] > 0,
    "verify": lambda body: not body["pass"],
    "tables": lambda body: not body["conformant"],
    "witness": lambda body: not body["found"],
}


def v_labels(relation_text: str) -> list[str]:
    """The labels of the first 'V:' header line, if there is one."""
    for line in relation_text.splitlines():
        tokens = line.split()
        if tokens[:1] == ["V:"]:
            return tokens[1:] or ["y1"]
    return ["y1"]


@st.composite
def valid_relation_texts(draw) -> str:
    u, v = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    lines = ["V: " + " ".join(f"y{j + 1}" for j in range(v))]
    for i in range(u):
        lines.append(f"x{i + 1}: " + " ".join(draw(st.sampled_from("01")) for _ in range(v)))
    return "\n".join(lines) + "\n"


@st.composite
def class_texts(draw, labels: list[str]) -> str:
    """A partition of ``labels`` into named blocks, with a few mistakes."""
    order = draw(st.permutations(labels))
    cuts = []
    if len(order) > 1:
        cuts = sorted(draw(st.sets(st.integers(1, len(order) - 1), max_size=3)))
    lines = [
        [f"B{b + 1}:", *order[start:stop]]
        for b, (start, stop) in enumerate(zip([0, *cuts], [*cuts, len(order)]))
    ]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        k = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["unknown", "overlap", "drop", "duplicate", "empty", "colon"]))
        if kind == "unknown":
            lines[k].append("zz")
        elif kind == "overlap":
            lines[k].append(draw(st.sampled_from(labels)))
        elif kind == "drop" and len(lines[k]) > 1:
            del lines[k][-1]
        elif kind == "duplicate":
            lines.append(list(lines[k]))
        elif kind == "empty":
            lines.append([f"E{k}:"])
        else:
            lines[k][0] = lines[k][0].rstrip(":")
    return "\n".join(" ".join(tokens) for tokens in lines) + "\n"


@st.composite
def invocations(draw) -> tuple[str, list[str], dict[str, bytes]]:
    """(command, argv with {rel}/{cls} placeholders, file contents)."""
    text = draw(valid_relation_texts() | relation_texts())
    data = text.encode("utf-8")
    if draw(st.integers(0, 9)) == 0:
        at = draw(st.integers(0, len(data) - 1))
        data = data[:at] + b"\xff" + data[at + 1:]
    files = {"rel": data}
    labels = v_labels(text)
    command = draw(st.sampled_from(sorted(VIOLATED)))
    if command == "approx":
        chosen = draw(st.lists(st.sampled_from([*labels, "zz"]), max_size=3))
        argv = ["approx", "{rel}", "--set", ",".join(chosen)]
    elif command == "neighbors":
        argv = ["neighbors", "{rel}"]
    elif command == "classify":
        files["cls"] = draw(class_texts(labels)).encode("utf-8")
        argv = ["classify", "{rel}", "--classes", "{cls}"]
    elif command == "verify":
        argv = ["verify", "{rel}", "--samples", str(draw(st.sampled_from([0, 3])))]
    elif command == "tables":
        op = draw(st.sampled_from(["union", "intersection"]))
        argv = ["tables", "--op", op, "--relation", "{rel}"]
    else:
        types = st.sampled_from("1234")
        argv = [
            "witness", "--op", draw(st.sampled_from(["union", "intersection"])),
            "--left", draw(types), "--right", draw(types), "--result", draw(types),
            "--max-u", str(draw(st.integers(1, 3))), "--max-v", str(draw(st.integers(1, 3))),
        ]
    return command, [*argv, "--format", "json"], files


@settings(max_examples=200, deadline=None)
@given(invocations())
def test_exit_code_matches_report(invocation):
    command, argv, files = invocation
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, data in files.items():
            path = Path(tmp) / f"input.{name}"
            path.write_bytes(data)
            paths[f"{{{name}}}"] = str(path)
        argv = [paths.get(arg, arg) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    if code == 2:
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1, err
        return
    assert err == ""
    body = json.loads(out)
    assert body["command"] == command
    assert code == (1 if VIOLATED[command](body) else 0), (code, body)
