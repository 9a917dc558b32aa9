"""Terminal bar charts for the regenerated figures.

The paper's figures are plots; where a table hides the shape, these
renderers make orderings and gaps visible directly in the terminal.
``insane bench <figure> --chart`` uses them.
"""


def hbar_chart(title, labels, values, unit="", width=50, reference=None):
    """A horizontal bar chart.

    ``reference`` optionally maps labels to paper values, drawn as a
    marker on each bar's scale.
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not values:
        return title + "\n(no data)"
    peak = max(values)
    if reference:
        peak = max(peak, max(reference.values()))
    peak = peak or 1.0
    label_width = max(len(str(label)) for label in labels)
    lines = [title]
    for label, value in zip(labels, values):
        filled = int(round(width * value / peak))
        bar = "#" * filled
        if reference and label in reference:
            marker = int(round(width * reference[label] / peak))
            bar = _place_marker(bar, marker, width)
        lines.append(
            "%s  %s %.2f%s" % (str(label).ljust(label_width), bar.ljust(width), value, unit)
        )
    if reference:
        lines.append("%s  (| marks the paper's value)" % (" " * label_width))
    return "\n".join(lines)


def _place_marker(bar, position, width):
    position = min(max(position, 0), width - 1)
    padded = list(bar.ljust(width))
    padded[position] = "|"
    return "".join(padded)


def grouped_series_chart(title, x_labels, series, unit="", width=40):
    """Several named series over the same x axis, one block per x value.

    ``series`` is a dict name -> list of values aligned with ``x_labels``.
    """
    lengths = {len(values) for values in series.values()}
    if lengths != {len(x_labels)}:
        raise ValueError("every series must align with x_labels")
    peak = max(max(values) for values in series.values()) or 1.0
    name_width = max(len(name) for name in series)
    lines = [title]
    for index, x_label in enumerate(x_labels):
        lines.append("%s:" % x_label)
        for name, values in series.items():
            value = values[index]
            filled = int(round(width * value / peak))
            lines.append(
                "  %s  %s %.2f%s"
                % (name.ljust(name_width), ("#" * filled).ljust(width), value, unit)
            )
    return "\n".join(lines)


def sparkline(values, width=None):
    """A one-line magnitude profile using block characters."""
    if not values:
        return ""
    blocks = " .:-=+*#%@"
    peak = max(values) or 1.0
    return "".join(blocks[min(int(v / peak * (len(blocks) - 1)), len(blocks) - 1)] for v in values)
