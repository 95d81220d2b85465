"""The benchmark tracer names oddsym functions by module and attribute; a
rename or deletion in the package fails here instead of in a traced run."""

import importlib
import importlib.util
from pathlib import Path

from oddsym import combinat, form

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_targets_resolve():
    tracer = load_tracer()
    for name, (module, attr) in tracer.SPANS.items():
        owner = importlib.import_module(f"oddsym.{module}")
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), name
        else:
            assert callable(getattr(owner, attr, None)), name


def test_cache_targets_resolve():
    tracer = load_tracer()
    for name, (module, attr) in tracer.CACHES.items():
        target = getattr(importlib.import_module(f"oddsym.{module}"), attr, None)
        assert hasattr(target, "cache_info"), name


def test_install_records_and_uninstall_restores():
    tracer = load_tracer()
    before = form.pair_words_odd
    words = form.e_word((2,)), form.h_word((1, 1))
    want = before(*words)
    t = tracer.Tracer()
    t.install()
    try:
        assert form.pair_words_odd(*words) == want
    finally:
        t.uninstall()
    assert form.pair_words_odd is before
    assert t.metrics()["form.pair_words_odd.calls"] == 1


def test_after_hooks_count_results():
    tracer = load_tracer()
    rsk = importlib.import_module("oddsym.rsk")  # oddsym.rsk is the function
    t = tracer.Tracer()
    t.install()
    try:
        mats = combinat.matrices_with_margins((2, 1), (1, 1, 1))
        after_mats = dict(t.counters)
        tabs = combinat.ssyt((2, 1), (1, 1, 1))
        after_tabs = dict(t.counters)
        report = rsk.odd_rsk_check((2, 1), (1, 1, 1))
    finally:
        t.uninstall()
    assert after_mats["combinat.margin_matrices"] == len(mats) == 3
    assert after_tabs["combinat.tableaux"] == len(tabs) == 2
    assert t.counters["rsk.report_matrices"] == len(report["matrices"]) == 3
