"""Loaders for the shipped fixture corpus."""

from __future__ import annotations

from importlib import resources

from .fileformat import parse_site
from .site import SiteSpec

SITE_NAMES = ("point", "arrow", "diamond", "chain3", "wide5", "diamond_empty")


def fixture_text(name: str) -> str:
    package = resources.files(__package__) / "fixtures"
    for suffix in (".site", ".lat"):
        candidate = package / f"{name}{suffix}"
        if candidate.is_file():
            return candidate.read_text()
    raise FileNotFoundError(f"no fixture named {name!r}")


def load_site(name: str) -> SiteSpec:
    return parse_site(fixture_text(name))


def all_sites() -> dict[str, SiteSpec]:
    return {name: load_site(name) for name in SITE_NAMES}
