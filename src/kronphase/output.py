"""Plot-ready output files: CSV tables and a JSON run manifest.

CSV conventions: comma separator, `.` decimal point, reals at 17
significant digits (lossless float round trip), LF line endings, and a
`# key=value` metadata preamble above the header row.
"""

from __future__ import annotations

import json


def fmt_real(x):
    return "%.17g" % float(x)


def _fmt_cell(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return fmt_real(v)
    return str(v)


def write_csv(path, preamble, header, rows):
    """Write one observable table.

    preamble is an ordered mapping written as `# key=value` lines;
    header is the column-name row; rows are value tuples.
    """
    _write_lines(path, preamble, header, (",".join(_fmt_cell(v) for v in row) + "\n" for row in rows))


def _write_lines(path, preamble, header, lines):
    """write_csv of rows already formatted, each ending in LF."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            for key, value in preamble.items():
                fh.write("# %s=%s\n" % (key, _fmt_cell(value)))
            fh.write(",".join(header) + "\n")
            fh.writelines(lines)
    except OSError as exc:
        raise OSError("failed writing %s: %s" % (path, exc)) from exc


def write_manifest(path, manifest):
    """Write the run manifest as UTF-8 JSON with sorted keys."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True, ensure_ascii=False)
            fh.write("\n")
    except OSError as exc:
        raise OSError("failed writing %s: %s" % (path, exc)) from exc
    except TypeError as exc:
        raise ValueError("manifest is not JSON serializable: %s" % exc) from exc
