"""Minimal HTML templating for the data portal (no external deps).

Escapes all interpolated content; layout mirrors a Django Globus Portal
Framework site: a header, a search/facet sidebar, and record pages with
plots and a metadata table.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["escape", "page", "table", "link_list"]


def escape(value: object) -> str:
    return (
        str(value)
        .replace("&", "&amp;")
        .replace("<", "&lt;")
        .replace(">", "&gt;")
        .replace('"', "&quot;")
    )


_PAGE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font-family: Helvetica, Arial, sans-serif; margin: 0; color: #222; }}
header {{ background: #1a3e5c; color: white; padding: 14px 28px; }}
header h1 {{ margin: 0; font-size: 20px; }}
main {{ display: flex; gap: 24px; padding: 20px 28px; }}
nav {{ min-width: 220px; }}
section {{ flex: 1; }}
table {{ border-collapse: collapse; margin: 12px 0; }}
td, th {{ border: 1px solid #ccc; padding: 5px 10px; font-size: 13px; text-align: left; }}
th {{ background: #eef3f7; }}
.facet {{ margin-bottom: 14px; }}
.facet h3 {{ margin: 4px 0; font-size: 13px; text-transform: uppercase; color: #555; }}
.facet li {{ font-size: 13px; list-style: none; }}
.facet ul {{ padding-left: 8px; margin: 2px 0; }}
figure {{ margin: 12px 0; }}
figcaption {{ font-size: 12px; color: #666; }}
a {{ color: #1a5c8a; }}
.record-list li {{ margin: 6px 0; font-size: 14px; }}
</style>
</head>
<body>
<header><h1>{header}</h1></header>
<main>
<nav>{sidebar}</nav>
<section>{body}</section>
</main>
</body>
</html>
"""


def page(title: str, header: str, body: str, sidebar: str = "") -> str:
    """Assemble a full page.  ``body``/``sidebar`` are trusted HTML built
    by this module's helpers; ``title``/``header`` are escaped."""
    return _PAGE.format(
        title=escape(title), header=escape(header), body=body, sidebar=sidebar
    )


def table(rows: Iterable[tuple[object, object]], headers: tuple[str, str] = ("Field", "Value")) -> str:
    """Two-column table with escaped cells (the Fig. 2C metadata table)."""
    cells = "".join(
        f"<tr><td>{escape(k)}</td><td>{escape(v)}</td></tr>" for k, v in rows
    )
    return (
        f"<table><tr><th>{escape(headers[0])}</th><th>{escape(headers[1])}</th></tr>"
        f"{cells}</table>"
    )


def link_list(links: Iterable[tuple[str, str]], css_class: str = "record-list") -> str:
    """``[(href, label), ...]`` — hrefs are attribute-escaped."""
    return (
        f"<ul class='{css_class}'>"
        + "".join(
            f"<li><a href='{escape(href)}'>{escape(label)}</a></li>"
            for href, label in links
        )
        + "</ul>"
    )
