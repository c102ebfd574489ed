"""Traced launcher: one ``birough`` command with spans at module boundaries.

Usage, from the root of a checkout with ``src`` on PYTHONPATH:

    python3 perfbench/tracer.py OUT.json <birough arguments...>

The launcher times ``import birough.cli``, then replaces with timing wrappers
the names one birough module imports from another (``birough.lab.type_code``,
``birough.classify.lower_approximation``, ...), a few public functions that
their own module calls (``approx.lower_approximation`` inside ``approximate``,
``lab.random_subset_bits``, ``lab.generate_relations``) and the public
``BinaryRelation`` methods.  It then calls ``birough.cli.main`` and writes the
aggregated spans to OUT.json.  Stdout belongs to the command alone, so it
stays byte-identical to an untraced run.

Every call is a span with a parent span; self time is the span minus its
child spans.  Spans are aggregated per (parent, name) edge as call count,
total ns and self ns, so memory stays bounded however hot a call is.

The benchmark process imports this module for ``layer_metrics``, which turns
the trace files of one pass into the per-layer metrics; that import loads
no birough code.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time

CLI_COMMANDS = ("neighbors", "approx", "classify", "tables", "witness", "verify")

LOWER = ("approx.lower_approximation", "approx.lower_bits")
UPPER = ("approx.upper_approximation", "approx.upper_bits")
PARSE = (
    "formats.parse_relation_file",
    "formats.parse_classification_file",
    "formats.parse_tables_json",
)
REPORTS = tuple(
    f"formats.build_{kind}_report"
    for kind in ("approx", "neighbors", "classify", "verify", "tables", "witness")
)
SWEEPS = ("lab.witness_inventory", "lab.find_type_witness", "lab.check_relation_against_tables")
LAW_REPORTS = ("classify.family_law_report", "classify.measure_law_report")
RELATION_METHODS = (
    "__init__",
    "column_bits",
    "columns",
    "quotient_partitions",
    "saturation_identity_holds",
    "right_neighborhood",
    "left_neighborhood",
)

# (name, unit) of every per-layer metric, in report order.  Times are totals
# over one pass of the workload's command list and include child spans,
# except where the name of the metric is defined as self time in README.md.
PER_LAYER = (
    [("cli.import_s", "s")]
    + [(f"cli.{command}_s", "s") for command in CLI_COMMANDS]
    + [
        ("formats.parse_s", "s"),
        ("formats.parse_mb", "MB"),
        ("formats.report_s", "s"),
        ("formats.emit_s", "s"),
        ("formats.emit_mb", "MB"),
        ("relation.construct_calls", "count"),
        ("relation.construct_s", "s"),
        ("relation.column_bits_calls", "count"),
        ("relation.columns_s", "s"),
        ("relation.quotient_s", "s"),
        ("relation.saturation_s", "s"),
        ("relation.neighborhood_s", "s"),
        ("approx.lower_calls", "count"),
        ("approx.upper_calls", "count"),
        ("approx.rows_scanned", "count"),
        ("approx.lower_s", "s"),
        ("approx.upper_s", "s"),
        ("approx.type_code_calls", "count"),
        ("approx.type_code_s", "s"),
        ("classify.family_s", "s"),
        ("classify.laws_s", "s"),
        ("classify.law_instances", "count"),
        ("classify.union_reuse_ratio", "ratio"),
        ("lab.relations", "count"),
        ("lab.distinct_row_sets_ratio", "ratio"),
        ("lab.sweep_s", "s"),
        ("lab.laws_s", "s"),
        ("lab.subset_draw_calls", "count"),
        ("lab.subset_draw_s", "s"),
        ("lab.serial_iff_s", "s"),
        ("lab.reconstruct_s", "s"),
        ("lab.pairs", "count"),
        ("trace.overhead_s", "s"),
        ("trace.spans", "count"),
    ]
)


class Tracer:
    """Span aggregation plus the counters the wrappers' notes feed."""

    def __init__(self) -> None:
        self.stack: list[list] = [["-", 0]]  # [name, child ns]; "-" is the root
        self.edges: dict[tuple[str, str], list[int]] = {}
        self.counters: dict[str, int] = {}
        self.row_sets: set = set()
        self.classify_masks: set = set()

    def add(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, note=None):
        stack, edges, clock = self.stack, self.edges, time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                edge = edges.get((parent[0], name))
                if edge is None:
                    edge = edges[parent[0], name] = [0, 0, 0]
                edge[0] += 1
                edge[1] += elapsed
                edge[2] += elapsed - frame[1]
            if note is not None:
                note(args, result)
            return result

        return traced

    def count_relations(self, fn):
        """Wrap a relation generator: count what it yields, and distinct row sets."""

        def counted(*args, **kwargs):
            for rel in fn(*args, **kwargs):
                self.add("lab.relations", 1)
                self.row_sets.add((rel.v_size, frozenset(rel.rows)))
                yield rel

        return counted

    def to_obj(self) -> dict:
        return {
            "edges": [[p, n, *stats] for (p, n), stats in self.edges.items()],
            "counters": self.counters,
            "row_sets": len(self.row_sets),
            "classify_masks": len(self.classify_masks),
        }


def install(tracer: Tracer) -> None:
    """Replace birough names with traced wrappers (see the module docstring)."""
    from birough import approx, classify, cli, lab, relation

    add = tracer.add

    def patch(module, name, span, note=None):
        setattr(module, name, tracer.wrap(span, getattr(module, name), note))

    def rel_rows(args, _):
        add("approx.rows_scanned", args[0].u_size)

    def list_rows(args, _):
        add("approx.rows_scanned", len(args[0]))

    def classify_rows(kind):
        def note(args, _):
            rel_rows(args, _)
            add("classify.approx_calls", 1)
            tracer.classify_masks.add((kind, args[1].bits))

        return note

    for kind in ("lower", "upper"):
        name = f"{kind}_approximation"
        patch(approx, name, f"approx.{name}", rel_rows)
        patch(classify, name, f"approx.{name}", classify_rows(kind))
    patch(cli, "upper_approximation", "approx.upper_approximation", rel_rows)
    patch(cli, "approximate", "approx.approximate")
    for name in ("lower_bits", "upper_bits", "type_code"):
        patch(lab, name, f"approx.{name}", list_rows)

    patch(cli, "approximate_family", "classify.approximate_family")
    for name in LAW_REPORTS:
        patch(cli, name.split(".")[1], name, lambda args, report: add("classify.law_instances", len(report.entries)))

    for name in PARSE:
        short = name.split(".")[1]
        patch(cli, short, name, lambda args, _: add("formats.parse_chars", len(args[0])))
    for name in REPORTS:
        patch(cli, name.split(".")[1], name)
    patch(cli, "emit_report", "formats.emit_report", lambda args, out: add("formats.emit_chars", len(out)))

    for name in SWEEPS + ("lab.verify_serial_iff", "lab.reconstruct_relation"):
        patch(cli, name.split(".")[1], name)
    patch(
        cli,
        "verify_algebraic_properties",
        "lab.verify_algebraic_properties",
        lambda args, report: add("lab.pairs", report.record("monotonicity").instances),
    )
    patch(lab, "random_subset_bits", "lab.random_subset_bits")
    for module, name in ((lab, "generate_relations"), (cli, "generate_relations"), (cli, "random_campaign")):
        setattr(module, name, tracer.count_relations(getattr(module, name)))

    cls = relation.BinaryRelation
    for name in RELATION_METHODS:
        setattr(cls, name, tracer.wrap(f"relation.BinaryRelation.{name}", getattr(cls, name)))


def main() -> None:
    out_path, argv = sys.argv[1], sys.argv[2:]
    start = time.perf_counter_ns()
    cli = importlib.import_module("birough.cli")
    import_ns = time.perf_counter_ns() - start
    tracer = Tracer()
    install(tracer)
    start = time.perf_counter_ns()
    try:
        code = cli.main(argv)
    finally:
        main_ns = time.perf_counter_ns() - start
        sys.stdout.flush()
        obj = {"command": argv[0] if argv else "", "import_ns": import_ns, "main_ns": main_ns}
        obj.update(tracer.to_obj())
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(obj, handle)
    raise SystemExit(code)


# --- benchmark side ------------------------------------------------------------


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one pass, from the trace files of its commands.

    ``trace.overhead_s`` needs the untraced pass and is filled in by the caller.
    """
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    counters: dict[str, int] = {}
    for trace in traces:
        for _, name, count, tot, own in trace["edges"]:
            calls[name] = calls.get(name, 0) + count
            total[name] = total.get(name, 0) + tot
            self_ns[name] = self_ns.get(name, 0) + own
        for key, value in trace["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def n(*names):
        return sum(calls.get(name, 0) for name in names)

    def s(*names):
        return sum(total.get(name, 0) for name in names) / 1e9

    def own(*names):
        return sum(self_ns.get(name, 0) for name in names) / 1e9

    def ratio(num, den):
        return num / den if den else 0.0

    rel = "relation.BinaryRelation."
    imports = [t["import_ns"] for t in traces]
    out = {"cli.import_s": statistics.median(imports) / 1e9 if imports else 0.0}
    for command in CLI_COMMANDS:
        out[f"cli.{command}_s"] = sum(t["main_ns"] for t in traces if t["command"] == command) / 1e9
    out.update(
        {
            "formats.parse_s": s(*PARSE),
            "formats.parse_mb": counters.get("formats.parse_chars", 0) / 1e6,
            "formats.report_s": own(*REPORTS),
            "formats.emit_s": s("formats.emit_report"),
            "formats.emit_mb": counters.get("formats.emit_chars", 0) / 1e6,
            "relation.construct_calls": n(rel + "__init__"),
            "relation.construct_s": s(rel + "__init__"),
            "relation.column_bits_calls": n(rel + "column_bits"),
            "relation.columns_s": s(rel + "columns"),
            "relation.quotient_s": s(rel + "quotient_partitions"),
            "relation.saturation_s": s(rel + "saturation_identity_holds"),
            "relation.neighborhood_s": s(rel + "right_neighborhood", rel + "left_neighborhood"),
            "approx.lower_calls": n(*LOWER),
            "approx.upper_calls": n(*UPPER),
            "approx.rows_scanned": counters.get("approx.rows_scanned", 0),
            "approx.lower_s": s(*LOWER),
            "approx.upper_s": s(*UPPER),
            "approx.type_code_calls": n("approx.type_code"),
            "approx.type_code_s": s("approx.type_code"),
            "classify.family_s": s("classify.approximate_family"),
            "classify.laws_s": own(*LAW_REPORTS),
            "classify.law_instances": counters.get("classify.law_instances", 0),
            "classify.union_reuse_ratio": ratio(
                sum(t["classify_masks"] for t in traces), counters.get("classify.approx_calls", 0)
            ),
            "lab.relations": counters.get("lab.relations", 0),
            "lab.distinct_row_sets_ratio": ratio(
                sum(t["row_sets"] for t in traces), counters.get("lab.relations", 0)
            ),
            "lab.sweep_s": own(*SWEEPS),
            "lab.laws_s": s("lab.verify_algebraic_properties"),
            "lab.subset_draw_calls": n("lab.random_subset_bits"),
            "lab.subset_draw_s": s("lab.random_subset_bits"),
            "lab.serial_iff_s": s("lab.verify_serial_iff"),
            "lab.reconstruct_s": s("lab.reconstruct_relation"),
            "lab.pairs": counters.get("lab.pairs", 0),
            "trace.spans": sum(calls.values()),
        }
    )
    return out


if __name__ == "__main__":
    main()
