"""Reference canonical order for mesh connectivity.

The production :func:`repro.apps.mesh._canonical_rows` packs each row into
one int64 key and dedups with a 1-D ``np.unique``.  This oracle states the
order directly: 2-D row dedup, degenerate rows dropped, then an explicit
lexicographic sort.
"""

from __future__ import annotations

import numpy as np


def canonical(edges: np.ndarray, faces: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    edges = np.unique(np.sort(edges, axis=1), axis=0)
    edges = edges[edges[:, 0] != edges[:, 1]]
    edges = edges[np.lexsort((edges[:, 1], edges[:, 0]))]
    if faces.shape[0]:
        faces = np.unique(np.sort(faces, axis=1), axis=0)
        faces = faces[
            (faces[:, 0] != faces[:, 1]) & (faces[:, 1] != faces[:, 2])
        ]
        faces = faces[np.lexsort((faces[:, 2], faces[:, 1], faces[:, 0]))]
    return edges, faces
