"""Layer trace taken from outside the program.

A traced round replaces, in memory, the module attributes through which
each layer is called (for example `trainer.pairwise_score_tables`,
`trainer.adamw_step`, `autodiff.Var.backward`, `evaluation.encode_bag`)
with wrappers that record one span per call: name, start, end, the
enclosing span and the score route being trained. Spans stay in memory
and are written out when the round ends. An attribute that no longer
exists is reported as a missing span; the round carries on without it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

# (span name, module, attribute path) of every layer boundary wrapped
BOUNDARIES = (
    ("synthgen.generate_corpus", "synthgen", "generate_corpus"),
    ("synthgen.write_corpus", "synthgen", "write_corpus"),
    ("synthgen.read_corpus", "synthgen", "read_corpus"),
    ("jsonio.dumps_canonical", "jsonio", "dumps_canonical"),
    ("trainer.train", "trainer", "train"),
    ("evaluation.train", "evaluation", "train"),
    ("trainer.sample_batch", "trainer", "sample_batch"),
    ("trainer.encode_bag", "trainer", "encode_bag"),
    ("trainer.pairwise_score_tables", "trainer", "pairwise_score_tables"),
    ("scoring.aggregate_global", "scoring", "aggregate_global"),
    ("trainer.infonce_score_table", "trainer", "infonce_score_table"),
    ("autodiff.Var.backward", "autodiff", "Var.backward"),
    ("trainer.adamw_step", "trainer", "adamw_step"),
    ("trainer.save_checkpoint", "trainer", "save_checkpoint"),
    ("trainer.load_checkpoint", "trainer", "load_checkpoint"),
    ("evaluation.zero_shot_classify", "evaluation", "zero_shot_classify"),
    ("evaluation.pooled_image_features", "evaluation", "pooled_image_features"),
    ("evaluation.linear_probe", "evaluation", "linear_probe"),
    ("evaluation.evaluate_grounding", "evaluation", "evaluate_grounding"),
    ("evaluation.retrieval_eval", "evaluation", "retrieval_eval"),
    ("evaluation.encode_bag", "evaluation", "encode_bag"),
)

# the grid's eleven score routes, named as in evaluation.default_grid()
# with '+' written '-'
ROUTES = ("Max", "Avg", "LSE", "NOR", "NAND", "g-Avg", "g-Att", "g-NL",
          "LSE-Avg", "LSE-Att", "LSE-NL")
GLOBAL_ROUTES = tuple(r for r in ROUTES if r.startswith("g-") or "-" in r)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith("_us_per_case"):
        return "us"
    if name.endswith("_ms") or ".tables_ms." in name or ".backward_ms." in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def route_name(local_agg, global_agg) -> str:
    if global_agg is None:
        return local_agg.kind
    if local_agg is None:
        return f"g-{global_agg.kind}"
    return f"{local_agg.kind}-{global_agg.kind}"


def tape_size(root) -> int:
    """Nodes of the tape that feed `root`, counted by walking parent links."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for parent in stack.pop()._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


class Tracer:
    def __init__(self):
        self.spans = []        # (id, name, start, end, parent id, route)
        self.tape_nodes = []   # (route, nodes) per backward sweep
        self.missing = []
        self.route = None
        self._stack = []
        self._next_id = 0
        self._installed = []

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, name, start, end, parent, self.route))

    def install(self, modules: dict) -> None:
        for name, module_name, path in BOUNDARIES:
            owner = modules.get(module_name)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            setattr(owner, attr, self._wrapper(name, original))
            self._installed.append((owner, attr, original))

    def restore(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrapper(self, name, original):
        tracer = self

        if name == "trainer.pairwise_score_tables":
            def wrapper(*args, **kwargs):
                local_agg = args[4] if len(args) > 4 else kwargs["local_agg"]
                global_agg = args[5] if len(args) > 5 else kwargs["global_agg"]
                tracer.route = route_name(local_agg, global_agg)
                with tracer.span(name):
                    return original(*args, **kwargs)
        elif name == "autodiff.Var.backward":
            def wrapper(root, *args, **kwargs):
                try:
                    tracer.tape_nodes.append((tracer.route, tape_size(root)))
                except AttributeError:
                    if "autodiff.Var._parents" not in tracer.missing:
                        tracer.missing.append("autodiff.Var._parents")
                with tracer.span(name):
                    return original(root, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(name):
                    return original(*args, **kwargs)
        wrapper.__wrapped__ = original
        return wrapper

    def write(self, path) -> None:
        fields = ("id", "name", "start", "end", "parent", "route")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans,
                       "missing": self.missing}, fh)

    def summary(self, grounding_cases: int) -> dict:
        """Per-layer figures of one traced round (see the README table).

        A stage that runs several times a round contributes the mean of its
        executions, so totals and counts read per execution."""
        name_of = {s[0]: s[1] for s in self.spans}
        parent_of = {s[0]: s[4] for s in self.spans}
        executions = defaultdict(int)
        for _, name, *_ in self.spans:
            if name.startswith("stage."):
                executions[name] += 1

        def weight(sid):
            while sid is not None and not name_of[sid].startswith("stage."):
                sid = parent_of[sid]
            return 1.0 / executions[name_of[sid]] if sid is not None else 1.0

        total = defaultdict(float)
        calls = defaultdict(float)
        by_route = defaultdict(float)
        route_calls = defaultdict(float)
        dumps_in_gen = 0.0
        for sid, name, start, end, _, route in self.spans:
            w = weight(sid)
            total[name] += w * (end - start)
            calls[name] += w
            if route is not None:
                by_route[name, route] += w * (end - start)
                route_calls[name, route] += w
            if name == "jsonio.dumps_canonical" and \
                    name_of.get(parent_of[sid]) == "synthgen.write_corpus":
                dumps_in_gen += w * (end - start)

        steps = {r: route_calls["trainer.pairwise_score_tables", r] for r in ROUTES}
        all_steps = sum(steps.values())

        def per_call_ms(name, route=None):
            key = name if route is None else (name, route)
            n = calls[key] if route is None else route_calls[key]
            t = total[key] if route is None else by_route[key]
            return 1e3 * t / n if n else 0.0

        def per_step_ms(name):
            return 1e3 * total[name] / all_steps if all_steps else 0.0

        nodes = defaultdict(list)
        for route, count in self.tape_nodes:
            nodes[route].append(count)
        train_s = total["trainer.train"] + total["evaluation.train"]
        m = {
            "synthgen.generate_s": total["synthgen.generate_corpus"],
            "synthgen.write_corpus_s": total["synthgen.write_corpus"],
            "jsonio.dumps_s": dumps_in_gen,
            "synthgen.read_corpus_s": total["synthgen.read_corpus"],
            "trainer.save_checkpoint_ms": per_call_ms("trainer.save_checkpoint"),
            "trainer.load_checkpoint_ms": per_call_ms("trainer.load_checkpoint"),
            "trainer.steps": round(all_steps),
            "trainer.step_ms": 1e3 * train_s / all_steps if all_steps else 0.0,
            "trainer.sample_batch_ms": per_call_ms("trainer.sample_batch"),
            "trainer.adamw_ms": per_call_ms("trainer.adamw_step"),
            "encoders.encode_ms": per_step_ms("trainer.encode_bag"),
            "objective.infonce_ms": per_step_ms("trainer.infonce_score_table"),
            "evaluation.zero_shot_ms":
                1e3 * total["evaluation.zero_shot_classify"],
            "evaluation.probe_ms": 1e3 * (total["evaluation.pooled_image_features"]
                                          + total["evaluation.linear_probe"]),
            "evaluation.grounding_ms": 1e3 * total["evaluation.evaluate_grounding"],
            "evaluation.grounding_us_per_case":
                1e6 * total["evaluation.evaluate_grounding"] / grounding_cases
                if grounding_cases else 0.0,
            "evaluation.retrieval_ms": 1e3 * total["evaluation.retrieval_eval"],
            "evaluation.encode_calls": round(calls["evaluation.encode_bag"]),
        }
        for r in ROUTES:
            m[f"scoring.tables_ms.{r}"] = per_call_ms("trainer.pairwise_score_tables", r)
            m[f"autodiff.backward_ms.{r}"] = per_call_ms("autodiff.Var.backward", r)
            m[f"autodiff.tape_nodes_per_step.{r}"] = \
                sum(nodes[r]) / len(nodes[r]) if nodes[r] else 0
        for r in GLOBAL_ROUTES:
            m[f"aggregators.global_calls_per_step.{r}"] = \
                route_calls["scoring.aggregate_global", r] / steps[r] if steps[r] else 0
        m["trace.missing_spans"] = len(self.missing)
        return m
