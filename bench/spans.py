"""Spans around the calls between f2rep's modules, recorded from outside.

The program is not edited: `install` replaces the names one module
imported from another (cli's `scan`, search's `_order_scan_int`, ...) by
wrappers that record a span per call.  Spans are kept in memory as
(name, start, end, parent, attr) and written out when the pass ends.
A layer's self time is its spans' time minus the time of spans they caused.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# Index blocks of f2rep's scan pool (search._BLOCK): one block per task.
SCAN_BLOCK = 4096

# (module, name looked up at call time, span name, attr from the arguments)
HOOKS = [
    ("cli", "scan", "search.scan", None),
    ("cli", "write_scan_csv", "search.write", None),
    ("cli", "write_scan_jsonl", "search.write", None),
    ("cli", "verify_family", "families.verify", None),
    ("search", "_record", "search.record", lambda n, bound: n),
    ("search", "_text_from_int", "gf2poly.text", None),
    ("search", "_order_scan_int", "order_beta.order", None),
    ("search", "_divrem_int", "order_beta.cofactor", lambda a, b: a.bit_length() - b.bit_length()),
    ("families", "verify_order_divides", "order_beta.verify_order", None),
    ("families", "cofactor", "order_beta.cofactor", lambda f, N: N - f.degree),
    ("families", "h_closed_form", "families.closed_form", None),
    ("order_beta", "_modpow_x_int", "gf2poly.modpow_x", None),
]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []

    def _enter(self) -> tuple[int, int]:
        i = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(i)
        return i, parent

    def _leave(self, i: int, name: str, t0: float, parent: int, attr) -> None:
        t1 = time.perf_counter()
        self._stack.pop()
        self.spans[i] = (name, t0, t1, parent, attr)

    def call(self, name: str, fn, attr=None):
        def traced(*args, **kwargs):
            i, parent = self._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._leave(i, name, t0, parent, attr(*args) if attr else None)

        return traced

    def generator(self, name: str, fn):
        """Span per item pulled, since a generator does its work in next()."""

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                i, parent = self._enter()
                t0 = time.perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(i, name, t0, parent, None)
                yield item

        return traced

    def install(self) -> list[str]:
        """Wrap every hook; return those the program no longer has."""
        missing = []
        for mod_name, attr, span, arg in HOOKS:
            mod = sys.modules.get(f"f2rep.{mod_name}")
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            wrap = self.generator(span, fn) if inspect.isgeneratorfunction(fn) else self.call(span, fn, arg)
            setattr(mod, attr, wrap)
        return missing

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            for i, span in enumerate(self.spans):
                name, t0, t1, parent, attr = span
                fh.write(json.dumps([i, name, t0, t1, parent, attr]) + "\n")

    def metrics(self) -> dict[str, float]:
        total = defaultdict(float)
        child = defaultdict(float)
        calls = defaultdict(int)
        blocks = defaultdict(float)
        member_max = 0.0
        cof = {"lt256": 0.0, "256_511": 0.0, "ge512": 0.0}
        for name, t0, t1, parent, attr in self.spans:
            d = t1 - t0
            total[name] += d
            calls[name] += 1
            if parent >= 0:
                child[parent] += d
        selfs = defaultdict(float)
        for i, (name, t0, t1, parent, attr) in enumerate(self.spans):
            selfs[name] += t1 - t0 - child[i]
            if name == "search.record":
                blocks[(attr - 1) // SCAN_BLOCK] += t1 - t0
            elif name == "families.verify":
                member_max = max(member_max, t1 - t0)
            elif name == "order_beta.cofactor":
                key = "lt256" if attr < 256 else "256_511" if attr < 512 else "ge512"
                cof[key] += t1 - t0
        return {
            "trace.wall_s": total["cli.main"],
            "cli.self_s": selfs["cli.main"],
            "search.scan_s": selfs["search.scan"] + selfs["search.record"],
            "search.write_s": selfs["search.write"],
            "search.block_max_s": max(blocks.values(), default=0.0),
            "search.block_sum_s": sum(blocks.values(), 0.0),
            "order_beta.order_s": selfs["order_beta.order"],
            "order_beta.order_calls": calls["order_beta.order"],
            "order_beta.cofactor_s": selfs["order_beta.cofactor"],
            "order_beta.cofactor_q_lt256_s": cof["lt256"],
            "order_beta.cofactor_q256_511_s": cof["256_511"],
            "order_beta.cofactor_q_ge512_s": cof["ge512"],
            "order_beta.cofactor_calls": calls["order_beta.cofactor"],
            "order_beta.verify_order_s": selfs["order_beta.verify_order"],
            "gf2poly.modpow_x_s": selfs["gf2poly.modpow_x"],
            "gf2poly.text_s": selfs["gf2poly.text"],
            "families.verify_s": selfs["families.verify"],
            "families.closed_form_s": selfs["families.closed_form"],
            "families.member_max_s": member_max,
        }
