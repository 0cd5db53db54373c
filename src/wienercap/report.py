"""Report bundles: deterministic JSON/CSV serialization of run artifacts.

A bundle is a directory holding manifest.json (command, config hash, seed,
package and dependency versions, file list), a byte-exact copy of the
config (config.txt), and the per-command reports.  JSON is written with
sorted keys; floats go through repr, so identical runs produce identical
bytes and every value round-trips.  A bundle written into a directory
that holds an earlier one first deletes the files that bundle's manifest
lists, and the manifest, so no report of the earlier run is left behind;
files no bundle wrote stay.  The directory is touched only at a bundle's
first write, so a run rejected before it writes anything leaves an
earlier bundle as it was, and makes no directory.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, is_dataclass

import numpy as np
import scipy

from . import __version__
from .config import config_hash


def _plain(obj):
    """Recursively convert numpy / dataclass values to JSON-native ones."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return _plain(asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, float) and (obj != obj or obj in (float("inf"), float("-inf"))):
        return repr(obj)  # JSON has no NaN/inf; store as string
    return obj


def csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _remove_earlier_bundle(out_dir: str) -> None:
    """Delete the files named by out_dir's manifest.json, then the manifest;
    a missing or unreadable manifest leaves the directory as it is."""
    path = os.path.join(out_dir, "manifest.json")
    try:
        with open(path, encoding="utf-8") as fh:
            names = json.load(fh)["files"]
    except (OSError, ValueError, KeyError, TypeError):
        return
    for name in names if isinstance(names, list) else []:
        # plain names only: a manifest cannot reach outside out_dir
        if isinstance(name, str) and name == os.path.basename(name):
            file = os.path.join(out_dir, name)
            if os.path.isfile(file):
                os.remove(file)
    os.remove(path)


class ReportBundle:
    def __init__(self, out_dir, command: str, config_text: str, seed: int):
        self.out_dir = str(out_dir)
        self.command = command
        self.config_text = config_text
        self.seed = seed
        self.files = []
        self._opened = False

    def _path(self, name: str) -> str:
        """The path of file name in the bundle, whose directory is made,
        cleared of an earlier bundle and given config.txt on first use."""
        if not self._opened:
            os.makedirs(self.out_dir, exist_ok=True)
            _remove_earlier_bundle(self.out_dir)
            with open(os.path.join(self.out_dir, "config.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(self.config_text)
            self._opened = True
        return os.path.join(self.out_dir, name)

    def write_json(self, name: str, payload) -> str:
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_plain(payload), fh, sort_keys=True, indent=2)
            fh.write("\n")
        self.files.append(name)
        return path

    def write_csv(self, name: str, header, rows) -> str:
        path = self._path(name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(csv_cell(v) for v in row) + "\n")
        self.files.append(name)
        return path

    def finalize(self) -> str:
        manifest = {
            "command": self.command,
            "config_sha256": config_hash(self.config_text),
            "seed": self.seed,
            "package": "wienercap",
            "package_version": __version__,
            "numpy_version": np.__version__,
            "scipy_version": scipy.__version__,
            "files": sorted(self.files + ["config.txt"]),
        }
        path = self._path("manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")
        return path
