"""Spans around parafusion's public functions, installed from outside.

Nothing in the library changes: ``Tracer.install`` replaces each listed
function by a wrapper in every ``parafusion`` module namespace that holds
it, because ``from .linalg import hnf`` binds a second reference. Classes
are traced through their constructor hook. Generators
(``enumerate_quadratic``) and hot helpers with millions of calls
(``mat_mul``, ``row_mul``, ``fuse``, ``canonical_label``) are left alone.

Spans are kept in memory as ``(id, parent, name, start, end, self)`` and
written out by ``write_spans`` when the repetition ends. A span's self
time is its duration minus the durations of its direct children.
"""
from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

TARGETS = {
    "linalg": (
        "shell_vectors", "size_reduce_basis", "coset_minimum", "ldl", "hnf",
        "snf", "solve_left", "mat_inv",
    ),
    "lattices": (
        "shell", "Lattice", "Isometry", "discriminant_group", "rssd_involution",
        "lattice_intersection", "same_lattice", "quotient_invariants",
        "verify_weyl", "c_nu_radical",
    ),
    "codes": (
        "code_properties", "classify_weight4", "orbit_classification",
        "classify_word", "ambient_lattice", "build_lattice", "glue_form_report",
        "one_minus_nu_dual_equals_lattice", "build_ee8_pair",
        "shell4_count_by_cosets",
    ),
    "central": (
        "compose", "quadratic_from_values", "lift_inverse", "lift_order",
        "lift_power", "commuting_lift", "mu_plus_mu_g_solve",
    ),
    "fusion": ("verify_zk_grading", "fuse_vectors", "verify_weight_one_tops"),
    "orbifold": (
        "derive_full_table", "verify_table", "verify_sigma_grading",
        "verify_collapse",
    ),
    "u5a": ("verify_induction_tables", "u_fuse", "induce", "orbit_of"),
    "cli": ("main",),
}

# Constructor hook traced for each class target.
CLASS_HOOKS = {"Lattice": "__init__", "Isometry": "__post_init__"}

# Counts a traced run adds to the self time and calls of each target.
EXTRA_COUNTS = (
    "lattices.shell.vectors",
    "codes.words",
    "codes.weight4_words",
    "central.quadratic_from_values.points",
    "fusion.label_pairs",
    "cli.output_bytes",
    "trace.overhead_s",
    "trace.unattributed_s",
)


def metric_names() -> set[str]:
    """Every per-layer metric name a traced run can report."""
    names = set(EXTRA_COUNTS)
    for short, attrs in TARGETS.items():
        for attr in attrs:
            names.add(f"{short}.{attr}.self_s")
            names.add(f"{short}.{attr}.calls")
    return names


def _qfv_points(args, kwargs):
    # quadratic_from_values checks all 2^n points for n <= 12, else 256.
    n = kwargs["n"] if "n" in kwargs else args[1]
    return 2**n if n <= 12 else 256


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []
        self._next_id = 0

    def _count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, name: str, fn, on_call=None):
        """A wrapper recording one span per call of ``fn``; ``on_call`` maps
        (args, kwargs, result) to extra counts."""
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += end - start
                spans.append(
                    (span_id, parent[0] if parent else None, name, start, end,
                     end - start - frame[1])
                )
            if on_call is not None:
                for counter, n in on_call(args, kwargs, result).items():
                    self._count(counter, n)
            return result

        return traced

    def install(self) -> None:
        from parafusion import fusion

        all_labels = fusion.all_labels
        extras = {
            "lattices.shell": lambda a, kw, r: {"lattices.shell.vectors": len(r)},
            "codes.code_properties": lambda a, kw, r: {
                "codes.words": r.size,
                "codes.weight4_words": dict(r.weight_distribution).get(4, 0),
            },
            "central.quadratic_from_values": lambda a, kw, r: {
                "central.quadratic_from_values.points": _qfv_points(a, kw)
            },
            "fusion.verify_zk_grading": lambda a, kw, r: {
                "fusion.label_pairs": len(all_labels(a[0] if a else kw["k"])) ** 2
            },
        }
        namespaces = [
            m for key, m in sorted(sys.modules.items())
            if key == "parafusion" or key.startswith("parafusion.")
        ]
        for short, names in TARGETS.items():
            module = importlib.import_module(f"parafusion.{short}")
            for attr in names:
                name = f"{short}.{attr}"
                orig = getattr(module, attr)
                if isinstance(orig, type):
                    hook = CLASS_HOOKS[attr]
                    setattr(orig, hook, self.wrap(name, getattr(orig, hook)))
                    continue
                wrapped = self.wrap(name, orig, extras.get(name))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is orig:
                            setattr(ns, key, wrapped)

    def layer_metrics(self) -> dict[str, float]:
        """Self time and call count per traced name, plus the extra counts."""
        out: dict[str, float] = dict(self.counts)
        for _, _, name, _, _, self_s in self.spans:
            out[f"{name}.self_s"] = out.get(f"{name}.self_s", 0.0) + self_s
            out[f"{name}.calls"] = out.get(f"{name}.calls", 0) + 1
        return out

    def top_level_s(self) -> float:
        return sum(end - start for _, parent, _, start, end, _ in self.spans if parent is None)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
