"""File formats: sensor-log CSVs, scenario config, GPS interpolation.

CSV conventions (decimal dot, 12 significant digits, headered):

* IMU -- ``t_end_s,dtheta_x,dtheta_y,dtheta_z,dv_x,dv_y,dv_z`` with one row
  per IMU sample (half update interval); angles in rad, velocities in m/s.
* GPS -- ``t_s,lat_rad,lon_rad,h_m,vN_mps,vU_mps,vE_mps``.
* Truth -- ``t_s,q_s,q_x,q_y,q_z,vN,vU,vE,lat,lon,h`` where the quaternion
  encodes the body-to-nav attitude (``quat_to_dcm(q)`` is ``C_b^n``).

The scenario/sensor configuration is a single YAML document with
``scenario`` and ``sensors`` sections, whose keys are the fields of
:class:`ScenarioConfig` and :class:`SensorErrors`; see
``data/default_scenario.yaml`` for the grouping and the defaults.
"""

from dataclasses import dataclass, fields, is_dataclass, replace
from itertools import chain, islice

import numpy as np

from .earth import wrap_longitude
from .errors import FormatError, GapError
from .simulate import ScenarioConfig, SensorErrors, simulation_sensor_defaults

_FMT = "%.12g"

IMU_HEADER = "t_end_s,dtheta_x,dtheta_y,dtheta_z,dv_x,dv_y,dv_z"
GPS_HEADER = "t_s,lat_rad,lon_rad,h_m,vN_mps,vU_mps,vE_mps"
TRUTH_HEADER = "t_s,q_s,q_x,q_y,q_z,vN,vU,vE,lat,lon,h"


def write_csv(path, header, columns, preamble=""):
    """Write equal-length ``columns`` under ``header``, 12 significant digits.

    ``preamble`` (whole lines, such as ``#`` comments) precedes the header;
    its non-ASCII characters are written as backslash escapes, so the file
    stays ASCII.
    """
    table = np.column_stack(columns)
    rows, width = table.shape
    # one format pass over the whole table: the same bytes as row by row
    body = (",".join([_FMT] * width) + "\n") * rows % tuple(table.ravel().tolist())
    with open(path, "w", encoding="ascii", errors="backslashreplace") as fh:
        fh.write(preamble + header + "\n")
        fh.write(body)


def _line_error(message, line, path, lineno):
    """A :class:`FormatError` at ``lineno``; it names the first non-ASCII
    byte of ``line`` instead of ``message`` when there is one."""
    for column, char in enumerate(line, start=1):
        if not char.isascii():  # a byte >= 0x80, decoded by surrogateescape
            message = f"non-ASCII byte 0x{ord(char) - 0xDC00:02x} at column {column}"
            break
    return FormatError(message, path=path, line=lineno)


def _read_csv(path, header):
    """The data rows of a headered log as an ``(N, n_cols)`` float array,
    one column per field of ``header``.

    numpy's C tokenizer (``np.loadtxt``) parses the rows.  Where it raises,
    returns the wrong width or would warn of a log with no data rows, the
    line loop :func:`_parse_lines` reads the file instead: it alone skips
    whitespace-only lines and accepts every numeral ``float`` does (such as
    ``1_0``), and its :class:`FormatError` names the offending line.
    """
    n_cols = header.count(",") + 1
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise _line_error(
                f"expected header {header!r}, got {first!r}", first, path, 1
            )
        row = fh.readline()
        if row.strip():  # else the log may have no data rows: loadtxt warns
            try:
                data = np.loadtxt(
                    chain((row,), fh), delimiter=",", comments=None, ndmin=2
                )
            except ValueError:
                pass
            else:
                if data.shape[1] == n_cols:
                    return data
        fh.seek(0)
        fh.readline()
        return _parse_lines(fh, path, n_cols)


def _parse_lines(lines, path, n_cols):
    """Rows of ``n_cols`` comma-separated floats, one per line of ``lines``
    (the log after its header line); blank lines are skipped."""
    values = []  # every row's fields, one flat list
    extend = values.extend
    for lineno, line in enumerate(lines, start=2):
        text = line.strip()
        if not text:
            continue
        parts = text.split(",")
        if len(parts) != n_cols:
            raise _line_error(
                f"expected {n_cols} fields, got {len(parts)}", line, path, lineno
            )
        try:
            extend(map(float, parts))
        except ValueError as exc:
            raise _line_error(str(exc), line, path, lineno) from None
    return np.array(values, dtype=float).reshape(-1, n_cols)


def data_line(path, row):
    """The 1-based file line of data row ``row`` of a log that
    :func:`_read_csv` read: blank lines are not rows."""
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        lines = (n for n, line in enumerate(fh, start=1) if n > 1 and line.strip())
        return next(islice(lines, row, None))


def write_imu(path, t_end, dtheta, dv):
    """IMU sample log: one row per half-interval increment."""
    write_csv(path, IMU_HEADER, [t_end, dtheta, dv])


def read_imu(path):
    data = _read_csv(path, IMU_HEADER)
    return data[:, 0], data[:, 1:4], data[:, 4:7]


def write_gps(path, t, v, p):
    """GPS fix log; positions internally [lon, lat, h], stored lat-first."""
    write_csv(path, GPS_HEADER, [t, p[:, [1, 0, 2]], v])


def read_gps(path):
    data = _read_csv(path, GPS_HEADER)
    t = data[:, 0]
    p = np.stack([data[:, 2], data[:, 1], data[:, 3]], axis=-1)
    v = data[:, 4:7]
    return t, v, p


def write_truth(path, t, q, v, p):
    """Reference trajectory log (simulation mode only)."""
    write_csv(path, TRUTH_HEADER, [t, q, v, p[:, [1, 0, 2]]])


def read_truth(path):
    data = _read_csv(path, TRUTH_HEADER)
    t = data[:, 0]
    q = data[:, 1:5]
    v = data[:, 5:8]
    p = np.stack([data[:, 9], data[:, 8], data[:, 10]], axis=-1)
    return t, q, v, p


# ---------------------------------------------------------------------------
# Configuration files.


@dataclass(frozen=True)
class _Config:  # the whole document, one section per config dataclass
    scenario: ScenarioConfig
    sensors: SensorErrors


# These ScenarioConfig fields sit one level down in the YAML, at (group, key).
_GROUPED = {
    "roll": ("attitude", "roll"),
    "pitch": ("attitude", "pitch"),
    "yaw": ("attitude", "yaw"),
    "vel_mean_mps": ("velocity", "mean_mps"),
    "vel_north": ("velocity", "north"),
    "vel_up": ("velocity", "up"),
    "vel_east": ("velocity", "east"),
}


def _layout(obj):
    """Nested YAML keys of a config dataclass, each leaf a field name."""
    grouped = _GROUPED if isinstance(obj, ScenarioConfig) else {}
    layout = {}
    for f in fields(obj):
        group, key = grouped.get(f.name, (None, f.name))
        (layout.setdefault(group, {}) if group else layout)[key] = f.name
    return layout


def _dump(obj, layout=None):
    """The YAML mapping of a config dataclass, each value converted to its
    field's declared type, so that ``50`` and ``50.0`` dump (and hash) alike."""
    kinds = {f.name: f.type for f in fields(obj)}
    doc = {}
    for key, sub in (layout or _layout(obj)).items():
        if isinstance(sub, dict):
            doc[key] = _dump(obj, sub)
            continue
        value, kind = getattr(obj, sub), kinds[sub]
        doc[key] = _dump(value) if is_dataclass(value) else (
            [float(x) for x in value] if kind is tuple else kind(value))
    return doc


def _leaves(layout, doc, path):
    """``(field name, value, key path)`` of each key in the mapping ``doc``."""
    if not isinstance(doc, dict):
        raise FormatError(f"{path or 'config'} must be a mapping, got {doc!r}")
    for key, value in doc.items():
        key_path = f"{path}.{key}" if path else str(key)
        if key not in layout:
            raise FormatError(f"unknown key {key_path}")
        if isinstance(layout[key], dict):
            yield from _leaves(layout[key], value, key_path)
        else:
            yield layout[key], value, key_path


def _override(default, doc, path=""):
    """``default`` with the fields that the mapping ``doc`` names replaced."""
    changes = {name: _value(getattr(default, name), value, key_path)
               for name, value, key_path in _leaves(_layout(default), doc, path)}
    try:
        return replace(default, **changes)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


_KIND = {float: "a number", int: "an integer", tuple: "a list"}


def _value(default, value, path):
    """``value`` as the type of ``default`` (floats from strings too: ``1e-3``)."""
    if is_dataclass(default):
        return _override(default, value, path)
    if isinstance(default, tuple) and isinstance(value, list):
        return tuple(_value(0.0, x, f"{path}[{i}]") for i, x in enumerate(value))
    if isinstance(default, float) and type(value) in (int, float, str):
        try:
            return float(value)
        except ValueError:
            pass
    elif isinstance(default, int) and type(value) is int:
        return value
    raise FormatError(f"{path} must be {_KIND[type(default)]}, got {value!r}")


def config_to_dict(cfg, errors):
    return _dump(_Config(cfg, errors))


def config_from_dict(doc):
    """``(ScenarioConfig, SensorErrors)``: the CLI's built-in defaults with
    the keys ``doc`` names replaced.  Raises :class:`FormatError` naming the
    key path of an unknown key, a section that is not a mapping or a value
    of the wrong type."""
    config = _override(_Config(ScenarioConfig(), simulation_sensor_defaults()), doc)
    return config.scenario, config.sensors


# yaml, json and hashlib are imported by the functions below, on first use:
# a run that reads no config and hashes none never loads them.


def save_config(path, cfg, errors):
    import yaml

    with open(path, "w", encoding="ascii") as fh:
        yaml.safe_dump(config_to_dict(cfg, errors), fh, sort_keys=False)


def load_config(path):
    import yaml

    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.isascii():
                raise _line_error(None, line, path, lineno)
        fh.seek(0)
        try:
            doc = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise FormatError(f"config is not YAML: {' '.join(str(exc).split())}",
                              path=path) from None
    try:
        return config_from_dict(doc)
    except FormatError as exc:
        exc.path = path
        raise


def config_hash(cfg, errors):
    """Stable hex digest of a scenario + sensor configuration."""
    import hashlib
    import json

    doc = json.dumps(config_to_dict(cfg, errors), sort_keys=True)
    return hashlib.sha256(doc.encode("ascii")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# GPS interpolation.

MAX_GAP_S = 2.0  # longest gap between GPS fixes that interpolation bridges, s


def interpolate_fixes(gps_t, gps_v, gps_p, grid_t):
    """Linear interpolation of GPS fixes onto the update-endpoint grid.

    Longitude is unwrapped before interpolation so dateline crossings stay
    continuous.  Raises :class:`GapError` when the log holds no fixes, the
    fixes do not cover the grid or any gap between consecutive fixes
    exceeds ``MAX_GAP_S``, and :class:`FormatError` when the times are not
    finite and increasing or a fix's velocity or position is not finite.
    """
    if gps_t.size == 0:
        raise GapError("GPS log holds no fixes")
    gaps = np.diff(gps_t)
    if not (gaps > 0.0).all():  # NaN-safe, as are the checks below
        raise FormatError("GPS timestamps must be finite and strictly increasing")
    if not (gaps <= MAX_GAP_S).all():
        raise GapError(
            f"GPS gap of {float(np.max(gaps)):.3f} s exceeds {MAX_GAP_S} s"
        )
    tol = 1e-9
    if not (gps_t[0] <= grid_t[0] + tol and gps_t[-1] >= grid_t[-1] - tol):
        raise GapError(
            f"GPS span [{gps_t[0]}, {gps_t[-1]}] does not cover "
            f"[{grid_t[0]}, {grid_t[-1]}]"
        )
    finite = np.isfinite(gps_v).all(axis=1) & np.isfinite(gps_p).all(axis=1)
    if not finite.all():
        raise FormatError(f"GPS fix at t={gps_t[np.argmin(finite)]:g} s is not finite")
    v = np.stack([np.interp(grid_t, gps_t, gps_v[:, i]) for i in range(3)], axis=-1)
    lon = np.interp(grid_t, gps_t, np.unwrap(gps_p[:, 0]))
    lat = np.interp(grid_t, gps_t, gps_p[:, 1])
    h = np.interp(grid_t, gps_t, gps_p[:, 2])
    p = np.stack([wrap_longitude(lon), lat, h], axis=-1)
    return v, p
