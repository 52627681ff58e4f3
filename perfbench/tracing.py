"""Spans around the library's public functions, recorded from outside.

``Tracer.install`` replaces each traced function with a wrapper in every
``eigencone`` module that holds it, so calls made inside the library are
caught as well as the benchmark's own. Spans stay in memory until
``write``; nothing in ``src/`` knows it is being traced.
"""

import json
import sys
import time

# (module, function) pairs wrapped in a traced run: the boundaries of the
# pipeline layers, named as in the per-layer metrics.
TRACED = (
    ("weyl", "weyl_group"),
    ("schubert", "levi_movable"),
    ("schubert", "multi_coeff"),
    ("faces", "enumerate_regular_facets"),
    ("faces", "tens_membership"),
    ("rays", "gamma_hrep"),
    ("rays", "classify_face"),
    ("rays", "face_extremal_rays"),
    ("rays", "basic_divisor_class"),
    ("rays", "levi_cone_rays"),
    ("rays", "induct"),
    ("rays", "invariant_dim"),
    ("cone", "extremal_rays"),
)


def _info(name, args, kwargs, result):
    """The few facts about a call that the per-layer counts need."""
    if name == "faces.enumerate_regular_facets":
        s, rs = args[0], args[1]
        quotient = bool(kwargs.get("quotient_symmetry", args[2] if len(args) > 2 else False))
        return (rs.cartan_label, s, quotient, len(result))
    if name == "rays.gamma_hrep":
        return (args[0].cartan_label, args[1], len(result.inequalities))
    if name == "cone.extremal_rays":
        return len(result)
    if name in ("faces.tens_membership", "rays.invariant_dim"):
        return bool(result)
    return None


class Tracer:
    """In-memory span recorder: one span per call of a traced function."""

    def __init__(self):
        # each span: [name, start, end, parent index, child seconds, info]
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        clock = time.process_time  # as the solve is timed: see worker.py

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else None, 0.0, None]
            spans.append(span)
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if span[3] is not None:
                    spans[span[3]][4] += span[2] - span[1]
            span[5] = _info(name, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every TRACED function wherever an eigencone module binds it."""
        modules = [m for k, m in list(sys.modules.items())
                   if (k == "eigencone" or k.startswith("eigencone.")) and m is not None]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"eigencone.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def write(self, path):
        """Dump the spans as JSON lines: name, start, end, parent, self_s."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, child, info) in enumerate(self.spans):
                fh.write(json.dumps([i, name, start, end, parent, end - start - child, info]) + "\n")

    def layer_metrics(self, product_tables):
        """Per-layer metrics from the recorded spans."""
        calls, self_s, total_s, longest = {}, {}, {}, {}
        for name, start, end, _, child, _ in self.spans:
            dur = end - start
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child
            total_s[name] = total_s.get(name, 0.0) + dur
            longest[name] = max(longest.get(name, 0.0), dur)

        # An enumeration is cold when it is the first for its root system:
        # the product table starts empty. Later ones reuse the products.
        cold_s = warm_s = 0.0
        seen_types, facet_lists = set(), {}
        hrep_rows, members, witnesses = {}, [], []
        ray_total = 0
        for name, start, end, _, _, info in self.spans:
            if name == "faces.enumerate_regular_facets":
                label, s, quotient, count = info
                if label in seen_types:
                    warm_s += end - start
                else:
                    cold_s += end - start
                    seen_types.add(label)
                facet_lists[(label, s, quotient)] = count
            elif name == "rays.gamma_hrep":
                hrep_rows[info[:2]] = info[2]
            elif name == "cone.extremal_rays":
                ray_total += info
            elif name == "faces.tens_membership":
                members.append(info)
            elif name == "rays.invariant_dim":
                witnesses.append(info)

        def ratio(flags):
            return sum(flags) / len(flags) if flags else 0.0

        return {
            "weyl.weyl_group.s": total_s.get("weyl.weyl_group", 0.0),
            "schubert.levi_movable.calls": calls.get("schubert.levi_movable", 0),
            "schubert.levi_movable.self_s": self_s.get("schubert.levi_movable", 0.0),
            "schubert.multi_coeff.calls": calls.get("schubert.multi_coeff", 0),
            "schubert.multi_coeff.self_s": self_s.get("schubert.multi_coeff", 0.0),
            "schubert.products": sum(len(t._products) for t in product_tables),
            "faces.enumerate.cold_s": cold_s,
            "faces.enumerate.warm_s": warm_s,
            "faces.facets": sum(facet_lists.values()),
            "faces.tens_membership.calls": calls.get("faces.tens_membership", 0),
            "faces.tens_membership.self_s": self_s.get("faces.tens_membership", 0.0),
            "faces.member_ratio": ratio(members),
            "rays.gamma_hrep.self_s": self_s.get("rays.gamma_hrep", 0.0),
            "rays.hrep_rows": sum(hrep_rows.values()),
            "cone.extremal_rays.calls": calls.get("cone.extremal_rays", 0),
            "cone.extremal_rays.self_s": self_s.get("cone.extremal_rays", 0.0),
            "cone.extremal_rays.max_s": longest.get("cone.extremal_rays", 0.0),
            "cone.rays": ray_total,
            "rays.classify_face.self_s": self_s.get("rays.classify_face", 0.0),
            "rays.face_extremal_rays.self_s": self_s.get("rays.face_extremal_rays", 0.0),
            "rays.basic_divisor_class.self_s": self_s.get("rays.basic_divisor_class", 0.0),
            "rays.levi_cone_rays.self_s": self_s.get("rays.levi_cone_rays", 0.0),
            "rays.induct.calls": calls.get("rays.induct", 0),
            "rays.induct.self_s": self_s.get("rays.induct", 0.0),
            "rays.invariant_dim.calls": calls.get("rays.invariant_dim", 0),
            "rays.invariant_dim.self_s": self_s.get("rays.invariant_dim", 0.0),
            "rays.invariant_dim.witness_ratio": ratio(witnesses),
        }
