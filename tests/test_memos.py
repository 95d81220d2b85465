"""The library's memo caches, pinned by name: each memo hides cost from a cold
measurement and holds memory for the life of the process, so adding or
dropping one changes this list."""

import importlib
import pkgutil

import oddsym

MEMOS = {
    "bases._kostka_column",
    "bases._schur_table",
    "cli.build_parser",
    "combinat.compositions_of",
    "combinat.partitions_of",
    "form._htilde_rows",
    "form._pair_colored",
    "form._pair_h",
    "gramdet.gram_det",
    "oddring._coproduct_word",
    "oddring._e_elt",
    "oddring._h_in_e",
    "oddring.gram_h_inverse",
    "oddring.normalize_word",
}


def memos() -> set:
    """module.name of every callable with cache_info that an oddsym module
    defines, at module level or in one of its classes."""
    found = set()
    for info in pkgutil.iter_modules(oddsym.__path__):
        name = f"oddsym.{info.name}"
        module = importlib.import_module(name)
        for attr, value in vars(module).items():
            if getattr(value, "__module__", None) != name:
                continue
            if hasattr(value, "cache_info"):
                found.add(f"{info.name}.{attr}")
            if isinstance(value, type):
                found |= {f"{info.name}.{attr}.{method}"
                          for method, member in vars(value).items()
                          if hasattr(member, "cache_info")}
    return found


def test_memo_set_is_pinned():
    assert memos() == MEMOS
