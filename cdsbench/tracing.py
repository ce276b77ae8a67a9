"""Traced pass: spans and counters around the calls into each cdslab layer.

Nothing inside ``src/`` is instrumented.  ``Tracer.installed()`` replaces
every module attribute (and, for methods, the class attribute) that
resolves to a traced function with a wrapper, so callers that look the
name up at call time go through it; leaving the block puts the originals
back.  Spans are kept in memory and written as JSONL at the end.

A span records its name, start, end, parent span and the job it ran in.
A layer's self time is its spans' durations minus the time covered by
their direct child spans.  The scalar GF(2^n) operations run millions of
times per pass, so they are counted without a span; so is
``chebyshev_radius``, whose time stays in the verifier's self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import defaultdict

# Counter name -> (module, attribute) of the functions counted only.
COUNTED = {
    "gf_mul": ("cdslab.classical", "gf_mul"),
    "gf_inv": ("cdslab.classical", "gf_inv"),
    "chebyshev": ("cdslab.verifier", "chebyshev_radius"),
}

# (module, attribute or Class.method, span name).
SPANNED = (
    ("cdslab.framework", "enumerate_message_distribution", "framework.enumerate"),
    ("cdslab.framework", "cds_decode_failure", "framework.enumerate"),
    ("cdslab.framework", "psm_decode_failure", "framework.enumerate"),
    ("cdslab.framework", "mid_protocol_state", "framework.mid_state"),
    ("cdslab.quantum", "HybridNeqCdqs.__init__", "quantum.hybrid_build"),
    ("cdslab.quantum", "HybridNeqCdqs.entanglement_fidelity", "quantum.hybrid_measure"),
    ("cdslab.quantum", "HybridNeqCdqs.product_distance", "quantum.hybrid_measure"),
    ("cdslab.quantum", "BhmPsqm.inner_layer_secure", "quantum.bhm"),
    ("cdslab.quantum", "BhmPsqm.vote_identity_holds", "quantum.bhm"),
    ("cdslab.quantum", "BhmPsqm.message_distribution", "quantum.bhm"),
    ("cdslab.quantum", "BhmPsqm.outcome_distribution", "quantum.bhm"),
    ("cdslab.verifier", "cds_verify", "verifier.cds_verify"),
    ("cdslab.verifier", "psm_verify", "verifier.psm_verify"),
    ("cdslab.verifier", "cdqs_verify", "verifier.cdqs_verify"),
    ("cdslab.verifier", "linprog", "verifier.lp"),
    ("cdslab.qcore.channels", "apply_channel", "qcore.apply_channel"),
    ("cdslab.qcore.channels", "apply_channel_matrix", "qcore.apply_channel_matrix"),
    ("cdslab.qcore.channels", "apply_isometry", "qcore.apply_isometry"),
    ("cdslab.qcore.channels", "choi_state", "qcore.choi_state"),
    ("cdslab.qcore.channels", "channel_from_choi", "qcore.choi"),
    ("cdslab.qcore.optimize", "find_best_decoder", "qcore.decoder_search"),
    ("cdslab.qcore.distances", "trace_norm", "qcore.trace_norm"),
    ("cdslab.lowerbound", "cheat_optimize", "lowerbound.seesaw"),
    ("cdslab.lowerbound", "honest_acceptance", "lowerbound.honest"),
    ("cdslab.lowerbound", "honest_acceptance_by_secret", "lowerbound.honest"),
    ("cdslab.lowerbound", "message_orthogonality_check", "lowerbound.orthogonality"),
    ("cdslab.lowerbound", "quantize_state", "lowerbound.quantize"),
    ("cdslab.lowerbound", "build_two_prover_proof", "lowerbound.build_proof"),
    ("cdslab.forrelation", "acceptance_probability", "forrelation.simulate"),
    ("cdslab.cli", "emit_report", "cli.emit"),
)

_COMPLEX_BYTES = 16


def _measure(name, args, kwargs, result) -> dict:
    """Sizes of one call, taken from its arguments and result."""
    if name == "framework.enumerate":
        return {"r_values": 1 << args[0].randomness_bits}
    if name == "qcore.apply_channel_matrix":
        channel, mat = args[0], args[1]
        din, dout = channel.dim_in, channel.dim_out
        dim = mat.shape[0]
        rest = dim // din
        kraus = len(channel.kraus_operators)
        # two tensordots per Kraus operator, see apply_channel_matrix
        madds = kraus * din * rest * rest * dout * (din + dout)
        moved = kraus * _COMPLEX_BYTES * rest * rest * (
            din * din + 2 * dout * din + 2 * dout * dout
        )
        return {"kraus": kraus, "dim": dim, "madds": madds, "bytes": moved}
    if name in ("qcore.choi", "qcore.trace_norm"):
        mat = getattr(args[0], "entries", args[0])
        return {"dim": len(mat)}
    if name == "qcore.choi_state":
        return {"dim": args[0].dim_in * args[0].dim_out}
    if name in ("qcore.decoder_search", "lowerbound.seesaw"):
        return {"rounds": result.rounds, "converged": bool(result.converged)}
    if name.startswith("verifier.") and name != "verifier.lp":
        return {"inputs": len(result.inputs)}
    if name == "verifier.lp":
        a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
        rows = sum(a.shape[0] for a in (a_ub, a_eq) if a is not None)
        return {"rows": rows, "cols": len(args[0])}
    return {}


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = defaultdict(int)
        self.errors = 0
        self.job = None
        self._stack: list = []
        self._saved: list = []
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "job": self.job,
            "start": time.perf_counter() - self._t0,
            "end": None,
        }
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self._t0
            self._stack.pop()

    def _spanned(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as record:
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    tracer.errors += 1
                    raise
                record.update(_measure(name, args, kwargs, result))
            return result

        return wrapper

    def _counted(self, key, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_everywhere(self, original, wrapper):
        """Point every cdslab module attribute bound to ``original`` at ``wrapper``."""
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "cdslab" or mod_name.startswith("cdslab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, original))
                    setattr(module, attr, wrapper)

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function for the duration of the block."""
        try:
            for key, (mod_name, attr) in COUNTED.items():
                original = getattr(importlib.import_module(mod_name), attr)
                self._patch_everywhere(original, self._counted(key, original))
            for mod_name, target, name in SPANNED:
                module = importlib.import_module(mod_name)
                if "." in target:
                    cls_name, method = target.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    self._saved.append((cls, method, original))
                    setattr(cls, method, self._spanned(name, original))
                else:
                    original = getattr(module, target)
                    self._patch_everywhere(original, self._spanned(name, original))
            yield self
        finally:
            self.restore()

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.write(json.dumps(
                {"counts": dict(self.counts), "errors": self.errors}, sort_keys=True
            ) + "\n")

    def layer_metrics(self, job_names) -> dict:
        """Per-layer metrics of this pass, without ``trace.overhead_s``.

        ``job_names`` lists every job of every workload; jobs that did not
        run in this pass report 0.
        """
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        by_name = defaultdict(list)
        self_s = defaultdict(float)
        for s in self.spans:
            by_name[s["name"]].append(s)
            self_s[s["name"]] += s["end"] - s["start"] - covered[s["id"]]

        def duration(name):
            return sum((s["end"] - s["start"] for s in by_name[name]), 0.0)

        def calls(*names):
            return sum(len(by_name[n]) for n in names)

        def total(key, *names):
            return sum(s[key] for n in names for s in by_name[n])

        def peak(*names):
            return max((s["dim"] for n in names for s in by_name[n]), default=0)

        def converged_ratio(name):
            done = by_name[name]
            return sum(s["converged"] for s in done) / len(done) if done else 0.0

        raw = [
            s for s in by_name["qcore.apply_channel_matrix"]
            if s["parent"] is None or self.spans[s["parent"]]["name"] != "qcore.apply_channel"
        ]
        apply_names = ("qcore.apply_channel", "qcore.apply_channel_matrix")
        choi_names = ("qcore.choi", "qcore.choi_state")
        m = {
            "classical.gf_mul.calls": self.counts["gf_mul"],
            "classical.gf_inv.calls": self.counts["gf_inv"],
            "framework.enumerate.calls": calls("framework.enumerate"),
            "framework.enumerate.r_values": total("r_values", "framework.enumerate"),
            "framework.enumerate.self_s": self_s["framework.enumerate"],
            "framework.mid_state.calls": calls("framework.mid_state"),
            "framework.mid_state.self_s": self_s["framework.mid_state"],
            "quantum.hybrid_build.s": duration("quantum.hybrid_build"),
            "quantum.hybrid_measure.calls": calls("quantum.hybrid_measure"),
            "quantum.hybrid_measure.self_s": self_s["quantum.hybrid_measure"],
            "quantum.bhm.self_s": self_s["quantum.bhm"],
            "verifier.cds_verify.self_s": self_s["verifier.cds_verify"],
            "verifier.psm_verify.self_s": self_s["verifier.psm_verify"],
            "verifier.cdqs_verify.self_s": self_s["verifier.cdqs_verify"],
            "verifier.inputs_certified": total(
                "inputs", "verifier.cds_verify", "verifier.psm_verify", "verifier.cdqs_verify"
            ),
            "verifier.chebyshev.calls": self.counts["chebyshev"],
            "verifier.lp.calls": calls("verifier.lp"),
            "verifier.lp.self_s": self_s["verifier.lp"],
            "verifier.lp.rows": total("rows", "verifier.lp"),
            "verifier.lp.cols": total("cols", "verifier.lp"),
            "qcore.apply_channel.calls": calls("qcore.apply_channel"),
            "qcore.apply_channel.raw_calls": len(raw),
            "qcore.apply_channel.kraus_ops": total("kraus", "qcore.apply_channel_matrix"),
            "qcore.apply_channel.peak_dim": peak("qcore.apply_channel_matrix"),
            "qcore.apply_channel.gmadds": total("madds", "qcore.apply_channel_matrix") / 1e9,
            "qcore.apply_channel.gbytes": total("bytes", "qcore.apply_channel_matrix") / 1e9,
            "qcore.apply_channel.self_s": sum(self_s[n] for n in apply_names),
            "qcore.apply_isometry.calls": calls("qcore.apply_isometry"),
            "qcore.apply_isometry.self_s": self_s["qcore.apply_isometry"],
            "qcore.choi.calls": calls("qcore.choi"),
            "qcore.choi.peak_dim": peak(*choi_names),
            "qcore.choi.self_s": sum(self_s[n] for n in choi_names),
            "qcore.decoder_search.calls": calls("qcore.decoder_search"),
            "qcore.decoder_search.rounds": total("rounds", "qcore.decoder_search"),
            "qcore.decoder_search.converged_ratio": converged_ratio("qcore.decoder_search"),
            "qcore.decoder_search.self_s": self_s["qcore.decoder_search"],
            "qcore.trace_norm.calls": calls("qcore.trace_norm"),
            "qcore.trace_norm.peak_dim": peak("qcore.trace_norm"),
            "qcore.trace_norm.self_s": self_s["qcore.trace_norm"],
            "lowerbound.seesaw.calls": calls("lowerbound.seesaw"),
            "lowerbound.seesaw.rounds": total("rounds", "lowerbound.seesaw"),
            "lowerbound.seesaw.converged_ratio": converged_ratio("lowerbound.seesaw"),
            "lowerbound.seesaw.self_s": self_s["lowerbound.seesaw"],
            "lowerbound.honest.self_s": self_s["lowerbound.honest"],
            "lowerbound.orthogonality.self_s": self_s["lowerbound.orthogonality"],
            "lowerbound.quantize.calls": calls("lowerbound.quantize"),
            "lowerbound.quantize.self_s": self_s["lowerbound.quantize"],
            "lowerbound.build_proof.self_s": self_s["lowerbound.build_proof"],
            "forrelation.simulate.calls": calls("forrelation.simulate"),
            "forrelation.simulate.self_s": self_s["forrelation.simulate"],
            "cli.emit.self_s": self_s["cli.emit"],
            "trace.errors": self.errors,
        }
        for job in job_names:
            m[f"job.{job}.s"] = duration(f"job.{job}")
        return m
