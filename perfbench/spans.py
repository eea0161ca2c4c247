"""Layer spans recorded from outside the program.

The tracer wraps the public functions of each racgk module at every
name they are bound to, so a call through `racgk.bredon.kernel_basis`
or `racgk.cli.enumerate_spherical` is caught as well as one through the
defining module.  Per-entry helpers (bar_structure_constant, is_clique,
the submask iterators) are left alone: their cost shows in the self time
of the span that calls them.

A span is [name, start, end, parent index, report id, counts].  Spans
stay in memory for the whole run and are aggregated when it ends.  Counts
that need the result (matrix sizes, entry bit lengths) are taken after
the span closes; that time is recorded as a `trace.count` child of the
caller, so it is excluded from every layer's self time.
"""

import time

LAYERS = ("graphs", "bredon", "intlinalg", "kring", "repring", "charlab", "cli")


def _chains(args, result):
    return {"chains": sum(len(level) for level in result)}


def _build(args, result):
    return {"cells": sum(result.ranks),
            "nnz": sum(1 for d in result.diffs for row in d for x in row if x)}


def _rho(args, result):
    return {"monomials": 1 << args[0].n, "useful": result["rank"]}


def _max_bits(*matrices):
    return max((max(map(abs, row)).bit_length()
                for mat in matrices for row in mat if row), default=0)


def _snf(args, result):
    mat = args[0]
    m, n = len(mat), len(mat[0]) if mat else 0
    diag, u, v = result
    return {"entries": m * n, "transform_entries": m * m + n * n,
            "max_bits": _max_bits(mat, [diag], u, v)}


def _hnf(args, result):
    rows_out = result[0] if isinstance(result, tuple) else result
    return {"rows_in": len(args[0]), "rows_out": len(rows_out)}


# (span name, defining module, attribute path, counter)
TARGETS = [
    ("graphs.parse", "graphs", "parse_graph", None),
    ("graphs.cliques", "graphs", "enumerate_spherical", None),
    ("graphs.chains", "graphs", "poset_chains", _chains),
    ("graphs.split", "graphs", "validate_decomposition", None),
    ("bredon.build", "bredon", "build_bredon_complex", _build),
    ("bredon.cohomology", "bredon", "cohomology", None),
    ("bredon.limit", "bredon", "inverse_limit", None),
    ("bredon.rho", "bredon", "rho_surjectivity", _rho),
    ("bredon.iso", "bredon", "clique_basis_isomorphism", None),
    ("bredon.kunneth", "bredon", "interval_tensor_kunneth", None),
    ("intlinalg.snf", "intlinalg", "smith_normal_form", _snf),
    ("intlinalg.kernel", "intlinalg", "kernel_basis", None),
    ("intlinalg.solve", "intlinalg", "ColumnSolver.solve", None),
    ("intlinalg.hnf", "intlinalg", "row_hnf", _hnf),
    ("intlinalg.matmul", "intlinalg", "mat_mul", None),
    ("kring.presentation", "kring", "presentation_report", None),
    ("kring.star_mul", "kring", "multiply_star", None),
    ("kring.bar_mul", "kring", "multiply_bar", None),
    ("kring.convert", "kring", "convert_basis", None),
    ("kring.completed_mul", "kring", "completed_multiply", None),
    ("kring.ideal_power", "kring", "ideal_power", None),
    ("kring.restrict", "kring", "restrict_to_clique", None),
    ("kring.mv_check", "kring", "mayer_vietoris_check", None),
    ("repring.element", "repring", "RepRingElement.__init__", None),
    ("charlab.report", "charlab", "lemma_d8_report", None),
    ("charlab.report", "charlab", "lemma_c4_real_report", None),
    ("cli.main", "cli", "main", None),
]

# metric name -> span whose time or call count per report it reports
TIMES = {
    "graphs.cliques_s": "graphs.cliques", "graphs.chains_s": "graphs.chains",
    "bredon.build_s": "bredon.build", "bredon.cohomology_s": "bredon.cohomology",
    "bredon.limit_s": "bredon.limit", "bredon.rho_s": "bredon.rho",
    "bredon.iso_s": "bredon.iso", "bredon.kunneth_s": "bredon.kunneth",
    "intlinalg.snf_s": "intlinalg.snf", "intlinalg.kernel_s": "intlinalg.kernel",
    "intlinalg.solve_s": "intlinalg.solve", "intlinalg.hnf_s": "intlinalg.hnf",
    "intlinalg.matmul_s": "intlinalg.matmul",
    "kring.ideal_power_s": "kring.ideal_power", "kring.star_mul_s": "kring.star_mul",
    "kring.bar_mul_s": "kring.bar_mul", "kring.convert_s": "kring.convert",
    "kring.completed_mul_s": "kring.completed_mul", "kring.mv_check_s": "kring.mv_check",
    "kring.restrict_s": "kring.restrict", "charlab.report_s": "charlab.report",
    "cli.main_s": "cli.main",
}
CALLS = {
    "graphs.cliques_calls": "graphs.cliques", "bredon.build_calls": "bredon.build",
    "bredon.limit_calls": "bredon.limit", "intlinalg.snf_calls": "intlinalg.snf",
    "intlinalg.kernel_calls": "intlinalg.kernel", "intlinalg.solve_calls": "intlinalg.solve",
    "intlinalg.hnf_calls": "intlinalg.hnf", "kring.ideal_power_calls": "kring.ideal_power",
    "kring.star_mul_calls": "kring.star_mul", "kring.bar_mul_calls": "kring.bar_mul",
    "kring.restrict_calls": "kring.restrict",
}
# metric name -> (span, counter) summed per report
COUNTS = {
    "graphs.chains": ("graphs.chains", "chains"),
    "bredon.cells": ("bredon.build", "cells"),
    "bredon.nnz": ("bredon.build", "nnz"),
    "bredon.rho_monomials": ("bredon.rho", "monomials"),
    "intlinalg.snf_entries": ("intlinalg.snf", "entries"),
    "intlinalg.snf_transform_entries": ("intlinalg.snf", "transform_entries"),
    "intlinalg.hnf_rows_in": ("intlinalg.hnf", "rows_in"),
    "intlinalg.hnf_rows_out": ("intlinalg.hnf", "rows_out"),
}


def metric_units():
    """Every per-layer metric the traced run emits, with its unit."""
    units = {name: "s/report" for name in TIMES}
    units.update((name, "calls/report") for name in CALLS)
    units.update((name, "1/report") for name in COUNTS)
    units.update(("%s.self_s" % layer, "s/report") for layer in LAYERS)
    units["intlinalg.snf_max_bits"] = "bits"
    units["bredon.rho_useful_ratio"] = "ratio"
    units["trace.overhead_ratio"] = "ratio"
    return units


class Tracer:
    """Installs span wrappers on the racgk modules and restores them."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.report = None
        self._restore = []

    def wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            record = [name, 0.0, 0.0, parent, self.report, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                record[5] = count(args, result)
                spans.append(["trace.count", record[2], clock(), parent,
                              self.report, None])
            return result

        return traced

    def install(self, modules):
        """Wrap every target at every module-level name bound to it."""
        for name, module, attr, count in TARGETS:
            owner = modules[module]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            if path:
                original = owner.__dict__[leaf]
                self._set(owner, leaf, self.wrap(name, original, count))
                continue
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original, count)
            for mod in modules.values():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)

    def _set(self, owner, key, value):
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self):
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)


def layer_metrics(spans, reports):
    """Per-report layer metrics from the spans of `reports` traced reports.

    A span's self time is its duration minus that of its direct children
    (trace.count spans included); a layer's self time sums the self time
    of its spans."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _report, _counts in spans:
        if parent is not None:
            child[parent] += end - start
    total, calls, counts, self_time = {}, {}, {}, {}
    max_bits = 0
    for i, (name, start, end, _parent, _report, c) in enumerate(spans):
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".")[0]
        self_time[layer] = self_time.get(layer, 0.0) + end - start - child[i]
        for key, value in (c or {}).items():
            if key == "max_bits":
                max_bits = max(max_bits, value)
            else:
                counts[(name, key)] = counts.get((name, key), 0) + value
    per = 1.0 / reports
    out = {m: total.get(span, 0.0) * per for m, span in TIMES.items()}
    out.update((m, calls.get(span, 0) * per) for m, span in CALLS.items())
    out.update((m, counts.get(key, 0) * per) for m, key in COUNTS.items())
    out.update(("%s.self_s" % layer, self_time.get(layer, 0.0) * per)
               for layer in LAYERS)
    out["intlinalg.snf_max_bits"] = max_bits
    monomials = counts.get(("bredon.rho", "monomials"), 0)
    out["bredon.rho_useful_ratio"] = (
        counts.get(("bredon.rho", "useful"), 0) / monomials if monomials else 0.0)
    return out
