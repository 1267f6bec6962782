"""The SVG writer: well-formed XML, one polyline per finite run, labels."""

import warnings
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from weakslit.svg import PALETTE, render_plot

SVG_NS = "{http://www.w3.org/2000/svg}"


def _render(series, **kwargs):
    defaults = dict(title="demo plot", xlabel="x [thing]", ylabel="y [other]")
    defaults.update(kwargs)
    return render_plot(series, **defaults)


def _elements(doc, tag):
    root = ET.fromstring(doc)
    return list(root.iter(SVG_NS + tag))


def test_output_is_well_formed_xml():
    x = np.linspace(0.0, 1.0, 50)
    doc = _render([(x, np.sin(x), "sine")])
    ET.fromstring(doc)  # raises on malformed markup


def test_one_polyline_per_series():
    x = np.linspace(0.0, 1.0, 50)
    series = [(x, np.sin(x), "a"), (x, np.cos(x), "b"), (x, x ** 2, "c")]
    assert len(_elements(_render(series), "polyline")) == 3


def test_nan_gap_splits_polyline():
    x = np.linspace(0.0, 1.0, 50)
    y = np.sin(x)
    y[20:25] = np.nan
    polys = _elements(_render([(x, y, "gappy")]), "polyline")
    assert len(polys) == 2
    for poly in polys:
        assert "nan" not in poly.get("points")


def test_titles_labels_and_legend_present():
    x = np.linspace(0.0, 1.0, 50)
    doc = _render([(x, x, "ramp")], title="growth", xlabel="time [s]",
                  ylabel="height [m]")
    texts = [el.text for el in _elements(doc, "text")]
    for wanted in ("growth", "time [s]", "height [m]", "ramp"):
        assert wanted in texts


def test_secondary_axis_doubles_tick_labels():
    x = np.linspace(0.0, 4.0, 50)
    plain = _render([(x, x, "r")])
    twin = _render([(x, x, "r")], x2label="x [scaled]", x2scale=10.0)
    assert "x [scaled]" in [el.text for el in _elements(twin, "text")]
    scaled = [el.text for el in _elements(twin, "text")]
    for tick in ("10", "20", "30", "40"):
        assert tick in scaled
    assert len(_elements(twin, "text")) > len(_elements(plain, "text"))


def test_tick_at_zero_prints_without_a_sign():
    """An axis that starts just below zero rounds its first tick up to
    -0.0; it is labelled 0."""
    x = np.linspace(-0.2, 4.0, 50)
    labels = [el.text for el in _elements(_render([(x, x, "r")]), "text")]
    assert "0" in labels
    assert "-0" not in labels


def test_constant_series_still_renders():
    x = np.linspace(0.0, 1.0, 10)
    doc = _render([(x, np.full(10, 2.5), "flat")])
    assert len(_elements(doc, "polyline")) == 1


def test_single_point_still_renders():
    doc = _render([(np.array([1.0]), np.array([0.25]), "one")])
    ET.fromstring(doc)
    assert "nan" not in doc and "inf" not in doc
    (dot,) = _elements(doc, "circle")
    assert dot.get("fill") == PALETTE[0]
    assert not _elements(doc, "polyline")


def test_series_without_a_finite_point_frames_the_origin():
    """Like a constant series: a frame, ticks on both axes, the labels
    and the legend, with no polyline and no dot."""
    x = np.linspace(0.0, 1.0, 5)
    doc = _render([(x, np.full(5, np.nan), "undefined")],
                  x2label="x [scaled]", x2scale=2.0)
    assert "nan" not in doc and "inf" not in doc
    texts = [el.text for el in _elements(doc, "text")]
    for wanted in ("demo plot", "x [thing]", "y [other]", "x [scaled]",
                   "undefined", "0"):
        assert wanted in texts
    assert len(_elements(doc, "rect")) == 2 and _elements(doc, "line")
    assert not _elements(doc, "polyline") and not _elements(doc, "circle")


def test_empty_series_beside_a_full_one():
    x = np.linspace(0.0, 1.0, 5)
    doc = _render([(x, x, "full"), (np.array([]), np.array([]), "empty")])
    assert len(_elements(doc, "polyline")) == 1


def test_isolated_point_between_gaps_is_a_dot():
    x = np.linspace(0.0, 1.0, 9)
    y = np.array([0.0, 1.0, np.nan, 2.0, np.nan, 3.0, 4.0, np.nan, 5.0])
    doc = _render([(x, y, "dotted")])
    assert len(_elements(doc, "polyline")) == 2
    assert len(_elements(doc, "circle")) == 2


def test_rendering_is_deterministic():
    x = np.linspace(-3.0, 3.0, 200)
    series = [(x, np.exp(-x ** 2), "bump")]
    assert _render(series) == _render(series)


@pytest.mark.parametrize("x, y", [
    ([0.0, 1.0], [-1.7e308, 1.7e308]),
    ([0.0, 1.0], [0.0, 1.7e308]),
    ([-1.7e308, 1.7e308], [0.0, 1.0]),
    ([0.0, 1.0], [1e20, 1e20]),
], ids=["y-both-signs", "y-one-sign", "x-both-signs", "large-constant"])
def test_ranges_near_the_float_limit_are_laid_out(x, y):
    """Finite data whose span or padding would overflow, or a constant
    that +-0.5 does not move: no error, no warning, one polyline with
    finite coordinates and the data's own values on the tick labels."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        doc = _render([(np.array(x), np.array(y), "wide")],
                      x2label="x [scaled]", x2scale=0.5)
    assert "nan" not in doc and "inf" not in doc
    (poly,) = _elements(doc, "polyline")
    coords = [float(v) for pt in poly.get("points").split()
              for v in pt.split(",")]
    assert all(0.0 <= v <= 640.0 for v in coords)
    labels = [float(el.text) for el in _elements(doc, "text")
              if el.text.lstrip("-")[:1].isdigit()]
    wide = max(np.abs(x).max(), np.abs(y).max())
    assert max(np.abs(labels)) > 0.5 * wide
