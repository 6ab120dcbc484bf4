"""The contour writers: every CSV field is exactly ``f"{x:.17g}"``, and the
JSON text is exactly what ``json.dumps`` makes of the whole grid."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharplp import campaigns, cli


def _reference_lines(alpha_labels, p_label, values):
    return "".join(f"{a}{p_label}{v:.17g}\n" for a, v in zip(alpha_labels, values.tolist()))


def _assert_same_text(got, want):
    """Equality that reports the first differing line: pytest's own diff of a
    9 MB CSV takes minutes."""
    if got != want:
        g, w = got.splitlines(), want.splitlines()
        i = next((i for i, pair in enumerate(zip(g, w)) if pair[0] != pair[1]), min(len(g), len(w)))
        pytest.fail(f"line {i}: {g[i : i + 1]} != {w[i : i + 1]}; {len(g)} against {len(w)} lines")


def _lines(values):
    """One p-row of ``cli._csv_lines`` with alpha labels of varied widths."""
    alpha_labels = [f"{j * 7}," for j in range(values.size)]
    got = cli._csv_lines(
        cli._ascii_rows(alpha_labels), cli._ascii_rows(["p,"]), values[None, :]
    )
    return got, _reference_lines(alpha_labels, "p,", values)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
            st.floats(0.1, 10.0, exclude_max=True),
        ),
        min_size=1,
        max_size=40,
    )
)
def test_lines_match_per_value_format(xs):
    _assert_same_text(*_lines(np.array(xs, dtype=float)))


def test_fast_path_edges():
    xs = np.array([0.1, np.nextafter(1.0, 0.0), 1.0, np.nextafter(10.0, 0.0), 10.0])
    got, want = _lines(xs)
    _assert_same_text(got, want)
    assert [line.split(",")[2] for line in got.splitlines()] == [
        "0.10000000000000001", "0.99999999999999989", "1", "9.9999999999999982", "10",
    ]
    # the neighbours just outside [0.1, 10) take the per-value path
    _assert_same_text(*_lines(np.array([np.nextafter(0.1, 0.0), np.nextafter(10.0, 11.0), 0.0, -0.0])))


@pytest.mark.parametrize("k, lo, hi, scale", [(-17, 1.0, 10.0, 10**16), (-18, 0.1, 1.0, 10**17)])
def test_exact_ties_round_half_even(k, lo, hi, scale):
    # x = odd * 2^k makes x * 10^16 (x >= 1) or x * 10^17 (x < 1) end in .5
    odd = np.arange(int(lo * 2.0**-k) + 1, int(hi * 2.0**-k), 2)[::97]
    xs = np.ldexp(odd.astype(float), k)
    xs = xs[(xs >= lo) & (xs < hi)]
    halves = [Fraction(x) * scale for x in xs.tolist()]
    assert all(h.denominator == 2 for h in halves)
    # both rounding directions occur: the integer part is even for some, odd for others
    assert {int(h) % 2 for h in halves} == {0, 1}
    _assert_same_text(*_lines(xs))


def _reference_csv(options):
    alphas, ps, values = campaigns.factor_grid(
        options["alpha_min"], options["alpha_max"], options["p_min"], options["p_max"],
        options["n_alpha"], options["n_p"],
    )
    alpha_labels = [f"{a:.17g}," for a in alphas.tolist()]
    return "alpha,p,value\n" + "".join(
        _reference_lines(alpha_labels, f"{p:.17g},", row) for p, row in zip(ps.tolist(), values)
    )


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--alpha-min", "0.01", "--alpha-max", "0.99", "--p-min", "-40", "--p-max", "-0.5",
         "--na", "50", "--np", "50"],
        ["--na", "400", "--np", "37"],
    ],
    ids=["default", "negative_p", "partial_block"],
)
def test_contour_csv_matches_per_value_format(argv, tmp_path):
    out = tmp_path / "grid.csv"
    config = cli.parse_config(["contour", *argv, "--out", str(out)])
    assert cli.run(config) == 0
    _assert_same_text(out.read_text(encoding="ascii"), _reference_csv(config.options))


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["--alpha-min", "0.01", "--alpha-max", "0.99", "--p-min", "-40", "--p-max", "-0.5",
         "--na", "50", "--np", "50"],
        ["--alpha-min", "0", "--na", "7", "--np", "5"],
        ["--na", "400", "--np", "37"],
    ],
    ids=["default", "negative_p", "window_7x5", "partial_block"],
)
def test_contour_json_matches_one_json_dumps(argv, tmp_path):
    # the rows are written in blocks; the reference renders the whole payload at once
    out = tmp_path / "grid.json"
    config = cli.parse_config(["contour", *argv, "--format", "json", "--out", str(out)])
    assert cli.run(config) == 0
    o = config.options
    alphas, ps, values = campaigns.factor_grid(
        o["alpha_min"], o["alpha_max"], o["p_min"], o["p_max"], o["n_alpha"], o["n_p"]
    )
    rows = [
        [a, p, v]
        for p, row in zip(ps.tolist(), values.tolist())
        for a, v in zip(alphas.tolist(), row)
    ]
    want = cli._json_text({"header": ["alpha", "p", "value"], "rows": rows})
    _assert_same_text(out.read_text(encoding="utf-8"), want)


def test_contour_windows_reach_both_paths():
    # the negative-p window puts values below 0.1; n_p = 37 leaves a partial block
    _, _, values = campaigns.factor_grid(0.01, 0.99, -40.0, -0.5, 50, 50)
    assert int(np.count_nonzero(values < 0.1)) == 96
    assert 37 % (cli._BLOCK_CELLS // 400) != 0
