"""Plain counterpart of one ``python -m nrquad`` launch.

Computes the same result as the nrquad command with the plain rules and
prints it in the same format, so that the two outputs can be compared
field by field.  It never imports nrquad.

usage: python plain_cli.py COMMAND FORMAT TEXT F_SRC DF_SRC A B PANELS VALIDATE
  COMMAND  integrate | trace | compare
  FORMAT   table | csv | json
  TEXT     the nrquad expression, echoed in the output
  F_SRC    plain Python source of f in x; DF_SRC the same for f'
  VALIDATE 1 runs the 64-sample precondition check, 0 skips it
"""

import math
import sys

import plain


def _six(value):
    return f"{value:.6f}"


def _pct(value):
    return "nan" if math.isnan(value) else f"{math.floor(value * 10000.0) / 10000.0:.4f}"


def _table(header, columns, rows):
    lines = [f"{key}: {value}" for key, value in header] + ["", "  ".join(columns)]
    lines += ["  ".join(row) for row in rows]
    return "\n".join(lines)


def render(command, fmt, doc):
    if fmt == "json":
        import json

        def no_nan(value):
            if isinstance(value, float) and math.isnan(value):
                return None
            if isinstance(value, dict):
                return {k: no_nan(v) for k, v in value.items()}
            if isinstance(value, list):
                return [no_nan(v) for v in value]
            return value

        return json.dumps(no_nan(doc), indent=2)
    interval = f"[{doc['interval'][0]!r}, {doc['interval'][1]!r}]"
    if command == "integrate":
        if fmt == "csv":
            return "value,closing_area,residual_gap,status,panel_count,termination\n" + (
                f"{doc['value']!r},{doc['closing_area']!r},{doc['residual_gap']!r},{doc['status']},"
                f"{len(doc['panels'])},{doc['trace']['termination']}"
            )
        header = [
            ("expression", doc["expression"]),
            ("interval", interval),
            ("value", repr(doc["value"])),
            ("status", doc["status"]),
            ("panels", len(doc["panels"])),
            ("closing_area", repr(doc["closing_area"])),
            ("residual_gap", repr(doc["residual_gap"])),
            ("termination", doc["trace"]["termination"]),
        ]
        rows = [[str(k), _six(p["x_k"]), _six(p["width"]), _six(p["area"])] for k, p in enumerate(doc["panels"])]
        return _table(header, ["k", "x_k", "width", "area"], rows)
    if command == "trace":
        keys = ["x_k", "f_k", "df_k", "step", "area"]
        if fmt == "csv":
            lines = ["index," + ",".join(keys)]
            lines += [",".join([str(s["index"])] + [repr(s[k]) for k in keys]) for s in doc["steps"]]
            return "\n".join(lines)
        header = [("expression", doc["expression"]), ("interval", interval), ("termination", doc["termination"])]
        rows = [[str(s["index"])] + [_six(s[k]) for k in keys] for s in doc["steps"]]
        return _table(header, ["index"] + keys, rows)
    if fmt == "csv":
        lines = ["method,value,abs_error,rel_error_pct"]
        for row in doc["rows"]:
            if "error" in row:
                lines.append(f"{row['method']},error: {row['error'].replace(',', ';')},,")
            else:
                lines.append(f"{row['method']},{row['value']!r},{row['abs_error']!r},{row['rel_error_pct']!r}")
        return "\n".join(lines)
    lines = [f"expression: {doc['expression']}", f"interval: {interval}", f"reference: {doc['reference']!r}", ""]
    for row in doc["rows"]:
        if "error" in row:
            lines.append(f"{row['method']}  error: {row['error']}")
        else:
            lines.append(f"{row['method']}  {_six(row['value'])}  {_six(row['abs_error'])}  {_pct(row['rel_error_pct'])}")
    d = doc["nr_details"]
    lines += ["", f"nr: panels={d['panel_count']}  residual_gap={d['residual_gap']!r}  termination={d['termination']}"]
    return "\n".join(lines)


def main(argv):
    command, fmt, text, f_src, df_src, a, b, panels, validate = argv
    f, df = plain.plain_function(f_src), plain.plain_function(df_src)
    a, b, panels, validate = float(a), float(b), int(panels), validate == "1"
    if command == "compare":
        doc = plain.compare_doc(text, f, df, a, b, panels, validate)
    else:
        rule = plain.nr_rule(f, df, a, b, validate=validate)
        doc = (plain.integrate_doc if command == "integrate" else plain.trace_doc)(text, a, b, rule)
    print(render(command, fmt, doc))


if __name__ == "__main__":
    main(sys.argv[1:])
