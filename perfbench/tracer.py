"""Per-layer tracing of k2local from outside the program.

``Tracer.install()`` replaces each traced function by a wrapper in every
``k2local.*`` module namespace (and class) that refers to it, so calls made
through names imported with ``from .series import invert`` are seen too.
``Tracer.uninstall()`` puts every original back.  A wrapper records the
call count, the self time (its span minus the spans of wrapped calls made
inside it) and the inclusive time of the outermost call in its probe, with
the tracer's own bookkeeping taken out of both.
"""

from __future__ import annotations

import bisect
import math
import sys
import time

# probe -> targets as (module, qualified name); a probe sums its targets
PROBES = {
    "ff.mul": [("ff", "FqElem.__mul__"), ("ff", "GRElem.__mul__")],
    "ff.add": [("ff", "FqElem.__add__"), ("ff", "GRElem.__add__")],
    "ff.inv": [("ff", "FqElem.inv"), ("ff", "GRElem.inv")],
    "ff.pow": [("ff", "FqElem.__pow__"), ("ff", "GRElem.__pow__")],
    "ff.embed": [("ff", "trace_rel"), ("ff", "norm_rel"),
                 ("ff", "Embedding.apply")],
    "series.mul": [("series", "Laurent2.__mul__")],
    "series.add": [("series", "Laurent2.__add__")],
    "series.pow": [("series", "Laurent2.__pow__")],
    "series.invert": [("series", "invert")],
    "series.lift": [("series", "lift_padic"), ("series", "reduce_mod_p")],
    "forms.dlog": [("forms", "dlog")],
    "forms.wedge": [("forms", "wedge")],
    "forms.deriv": [("forms", "d_du"), ("forms", "d_dt")],
    "forms.residue": [("forms", "residue")],
    "witt.polys": [("witt", "witt_polynomials")],
    "witt.arith": [("witt", "witt_arith")],
    "witt.unghost": [("witt", "unghost")],
    "witt.trace": [("witt", "witt_trace_to_prime")],
    "symbols.pairer_setup": [("symbols", "WittPairer.__init__")],
    "symbols.pair": [("symbols", "WittPairer.pair_untraced")],
    "symbols.decompose": [("symbols", "k2_decompose")],
    "symbols.equiv": [("symbols", "k2_equiv")],
    "symbols.tame": [("symbols", "tame_symbol_det"),
                     ("symbols", "tame_symbol_signed"),
                     ("symbols", "boundary")],
    "globalfield.expand": [("globalfield", "expand_at_place"),
                           ("globalfield", "expand_point")],
    "globalfield.factor": [("globalfield", "factor_poly1")],
    "globalfield.witt_terms": [("globalfield", "curve_witt_terms"),
                               ("globalfield", "point_witt_terms")],
    "globalfield.tame_terms": [("globalfield", "curve_tame_terms"),
                               ("globalfield", "point_tame_terms")],
    "globalfield.ratfunc": [("globalfield", "RatFunc.__init__")],
    "globalfield.gcd": [("globalfield", "_tpoly_gcd"),
                        ("globalfield", "poly1_gcd")],
    "globalfield.duality": [("globalfield", "duality_kernel_point"),
                            ("globalfield", "duality_level_curve")],
    "cli.eval": [("cli", "eval_local"), ("cli", "eval_rational")],
    "cli.run": [("cli", "run")],
}

# metric -> (unit, how to read it); see README.md for what each one moves
METRICS = {
    "ff.mul_calls": ("count", ("calls", "ff.mul")),
    "ff.add_calls": ("count", ("calls", "ff.add")),
    "ff.inv_calls": ("count", ("calls", "ff.inv")),
    "ff.self_s": ("s", ("self", "ff.mul", "ff.add", "ff.inv", "ff.pow")),
    "ff.field_builds": ("count", ("extra", "field_builds")),
    "ff.embed_s": ("s", ("incl", "ff.embed")),
    "series.mul_calls": ("count", ("calls", "series.mul")),
    "series.mul_self_s": ("s", ("self", "series.mul")),
    "series.invert_calls": ("count", ("calls", "series.invert")),
    "series.invert_self_s": ("s", ("self", "series.invert")),
    "series.invert_s": ("s", ("incl", "series.invert")),
    "series.mul_pairs": ("count", ("extra", "mul_pairs")),
    "series.mul_kept_ratio": ("ratio", ("extra", "mul_kept_ratio")),
    "series.mul_per_invert": ("count/call", ("extra", "mul_per_invert")),
    "series.add_self_s": ("s", ("self", "series.add")),
    "series.pow_calls": ("count", ("calls", "series.pow")),
    "series.lift_s": ("s", ("incl", "series.lift")),
    "forms.dlog_s": ("s", ("incl", "forms.dlog")),
    "forms.wedge_s": ("s", ("incl", "forms.wedge")),
    "forms.deriv_s": ("s", ("incl", "forms.deriv")),
    "forms.residue_calls": ("count", ("calls", "forms.residue")),
    "witt.poly_gen_s": ("s", ("extra", "poly_gen_s")),
    "witt.arith_calls": ("count", ("calls", "witt.arith")),
    "witt.arith_s": ("s", ("incl", "witt.arith")),
    "witt.unghost_s": ("s", ("incl", "witt.unghost")),
    "witt.trace_s": ("s", ("incl", "witt.trace")),
    "symbols.pairer_setups": ("count", ("calls", "symbols.pairer_setup")),
    "symbols.pairer_setup_self_s": ("s", ("self", "symbols.pairer_setup")),
    "symbols.pair_calls": ("count", ("calls", "symbols.pair")),
    "symbols.pair_self_s": ("s", ("self", "symbols.pair")),
    "symbols.pairs_per_setup": ("count/call", ("extra", "pairs_per_setup")),
    "symbols.decompose_calls": ("count", ("calls", "symbols.decompose")),
    "symbols.decompose_self_s": ("s", ("self", "symbols.decompose")),
    "symbols.equiv_self_s": ("s", ("self", "symbols.equiv")),
    "symbols.tame_s": ("s", ("incl", "symbols.tame")),
    "globalfield.places_per_op": ("count/op", ("extra", "places_per_op")),
    "globalfield.expand_calls": ("count", ("calls", "globalfield.expand")),
    "globalfield.expand_self_s": ("s", ("self", "globalfield.expand")),
    "globalfield.factor_s": ("s", ("incl", "globalfield.factor")),
    "globalfield.reciprocity_self_s": ("s", ("self", "globalfield.witt_terms",
                                             "globalfield.tame_terms")),
    "globalfield.ratfunc_builds": ("count", ("calls", "globalfield.ratfunc")),
    "globalfield.ratfunc_self_s": ("s", ("self", "globalfield.ratfunc")),
    "globalfield.gcd_calls": ("count", ("calls", "globalfield.gcd")),
    "globalfield.duality_self_s": ("s", ("self", "globalfield.duality")),
    "globalfield.param_cache_size": ("count", ("extra", "param_cache_size")),
    "cli.eval_s": ("s", ("incl", "cli.eval")),
    "cli.run_self_s": ("s", ("self", "cli.run")),
}

# metrics the traced run must see nonzero on each workload
EXPECTED = {
    "local-pairing": [
        "ff.mul_calls", "ff.add_calls", "ff.inv_calls", "ff.self_s",
        "ff.field_builds", "series.mul_calls", "series.mul_self_s",
        "series.invert_calls", "series.invert_self_s", "series.mul_pairs",
        "series.mul_kept_ratio", "series.mul_per_invert",
        "series.add_self_s", "series.pow_calls", "series.lift_s",
        "forms.dlog_s", "forms.wedge_s", "forms.deriv_s", "witt.poly_gen_s",
        "witt.arith_calls", "witt.arith_s", "witt.unghost_s", "witt.trace_s",
        "symbols.pairer_setups", "symbols.pairer_setup_self_s",
        "symbols.pair_calls", "symbols.pair_self_s",
        "symbols.pairs_per_setup"],
    "global-reciprocity": [
        "ff.mul_calls", "ff.self_s", "ff.field_builds", "ff.embed_s",
        "series.mul_calls", "series.invert_calls", "series.mul_pairs",
        "witt.poly_gen_s", "symbols.pairer_setups", "symbols.pair_calls",
        "symbols.pair_self_s", "symbols.tame_s",
        "globalfield.places_per_op", "globalfield.expand_calls",
        "globalfield.expand_self_s", "globalfield.factor_s",
        "globalfield.reciprocity_self_s", "globalfield.param_cache_size"],
    "cli-mix": [
        "ff.inv_calls", "ff.field_builds", "series.mul_calls",
        "symbols.pair_calls", "symbols.pair_self_s",
        "symbols.decompose_calls", "symbols.decompose_self_s",
        "symbols.equiv_self_s", "symbols.tame_s",
        "globalfield.ratfunc_builds", "globalfield.ratfunc_self_s",
        "globalfield.gcd_calls", "globalfield.duality_self_s",
        "cli.eval_s", "cli.run_self_s"],
}

_CACHED_BUILDERS = [("ff", "_field_instance"), ("ff", "galois_ring"),
                    ("ff", "get_embedding")]


class Probe:
    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.depth = 0


def _k2_modules():
    return {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
            if name.startswith("k2local.") and mod is not None}


def _resolve(modules, modname, qualname):
    """(owner, attribute name, original) for a module function or method."""
    owner = modules[modname]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr] if path else getattr(owner, attr)


def kept_pairs(f, g, prod):
    """(pairs, kept) for the product ``prod = f * g`` of two Laurent2 values.

    ``pairs`` counts the coefficient pairs whose t-degree falls inside the
    product's t-window; ``kept`` those whose u-degree also falls inside the
    product's known region for that row.
    """
    tp = prod.t_prec
    pairs = kept = 0
    for j1, row1 in f.terms.items():
        for j2, row2 in g.terms.items():
            j = j1 + j2
            if j >= tp:
                continue
            n = len(row1) * len(row2)
            pairs += n
            bound = prod.u_prec.get(j, math.inf)
            if bound == math.inf:
                kept += n
                continue
            cols = sorted(row2)
            kept += sum(bisect.bisect_left(cols, bound - i1) for i1 in row1)
    return pairs, kept


class Tracer:
    """Wraps the PROBES targets; ``metrics()`` turns the records into values."""

    def __init__(self):
        self.probes = {name: Probe() for name in PROBES}
        self.stack = []            # [child footprint, descendants' overhead]
        self.patches = []          # (owner, attribute, original)
        self.extra = {"mul_pairs": 0, "mul_kept": 0, "mul_in_invert": 0,
                      "poly_gen_s": 0.0, "places": 0}

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, probe, after=None):
        stack = self.stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            t0 = clock()
            stack.append([0.0, 0.0])
            probe.depth += 1
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = clock()
                child, over = stack.pop()
                probe.depth -= 1
                span = t1 - t0
                probe.calls += 1
                probe.self_s += span - child
                if probe.depth == 0:
                    probe.incl_s += span - over
                if done and after is not None:
                    after(args, out, span)
                if stack:
                    footprint = clock() - t0
                    frame = stack[-1]
                    frame[0] += footprint
                    frame[1] += footprint - span + over
        traced.__wrapped__ = fn
        return traced

    def _after_hooks(self, modules):
        extra = self.extra
        inv = self.probes["series.invert"]
        polys = modules["witt"].witt_polynomials

        def after_mul(args, prod, span):
            pairs, kept = kept_pairs(args[0], args[1], prod)
            extra["mul_pairs"] += pairs
            extra["mul_kept"] += kept
            if inv.depth:
                extra["mul_in_invert"] += 1

        misses = [polys.cache_info().misses]

        def after_polys(args, out, span):
            now = polys.cache_info().misses
            if now != misses[0]:
                misses[0] = now
                extra["poly_gen_s"] += span

        def after_witt_terms(args, out, span):
            extra["places"] += len(out)
        return {"series.mul": after_mul, "witt.polys": after_polys,
                "globalfield.witt_terms": after_witt_terms}

    def install(self):
        """Wrap every target wherever a k2local namespace refers to it."""
        modules = _k2_modules()
        self._modules = modules
        hooks = self._after_hooks(modules)
        for name, targets in PROBES.items():
            for modname, qualname in targets:
                owner, attr, orig = _resolve(modules, modname, qualname)
                wrapped = self._wrap(orig, self.probes[name], hooks.get(name))
                if "." in qualname:
                    self.patches.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)
                    continue
                for mod in modules.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self.patches.append((mod, key, orig))
                            setattr(mod, key, wrapped)
        self.builds_before = self._builds()

    def _builds(self):
        return sum(_resolve(self._modules, m, q)[2].cache_info().misses
                   for m, q in _CACHED_BUILDERS)

    def uninstall(self):
        for owner, attr, orig in reversed(self.patches):
            setattr(owner, attr, orig)
        self.patches.clear()

    # -- reading -----------------------------------------------------------

    def metrics(self, ops, overhead_ratio):
        """Per-layer metric values after a traced pass of ``ops`` operations."""
        mods = self._modules
        p = self.probes
        ex = self.extra
        derived = {
            "field_builds": self._builds() - self.builds_before,
            "mul_pairs": ex["mul_pairs"],
            "mul_kept_ratio": ex["mul_kept"] / ex["mul_pairs"]
            if ex["mul_pairs"] else 0.0,
            "mul_per_invert": ex["mul_in_invert"] / p["series.invert"].calls
            if p["series.invert"].calls else 0.0,
            "poly_gen_s": ex["poly_gen_s"],
            "pairs_per_setup": p["symbols.pair"].calls
            / p["symbols.pairer_setup"].calls
            if p["symbols.pairer_setup"].calls else 0.0,
            "places_per_op": ex["places"] / ops if ops else 0.0,
            "param_cache_size": len(mods["globalfield"]._param_cache),
        }
        out = {}
        for name, (unit, (kind, *keys)) in METRICS.items():
            if kind == "extra":
                value = derived[keys[0]]
            elif kind == "calls":
                value = sum(p[k].calls for k in keys)
            elif kind == "self":
                value = sum(p[k].self_s for k in keys)
            else:
                value = sum(p[k].incl_s for k in keys)
            out[name] = {"value": value, "unit": unit}
        out["trace_overhead_ratio"] = {"value": overhead_ratio,
                                       "unit": "ratio"}
        return out


def missing_layers(workload, metrics):
    """Expected metrics that recorded nothing on this workload."""
    return [m for m in EXPECTED[workload] if not metrics[m]["value"]]
