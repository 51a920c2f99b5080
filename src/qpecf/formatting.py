"""Numeric text formatting shared by the CLI and file writers."""


def sig12(x: float) -> str:
    """Render a float with 12 significant digits.

    A trailing ".0" is kept on integral values so float columns stay
    visibly floats ("1.0", not "1").
    """
    s = f"{float(x):.12g}"
    if "." not in s and "e" not in s and "nan" not in s and "inf" not in s:
        s += ".0"
    return s


def render_csv(columns: dict, rows) -> str:
    """CSV text: a header of the column names, then one comma-joined line per row.

    columns maps each name, in order, to the formatter of its values (sig12
    or str); each row holds one value per column. The text ends in a newline.
    """
    lines = [",".join(columns)]
    lines += [",".join(fmt(v) for fmt, v in zip(columns.values(), row)) for row in rows]
    return "\n".join(lines) + "\n"
