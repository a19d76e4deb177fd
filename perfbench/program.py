"""Import platoonsec from the checkout's ``src/``, never from elsewhere."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class ProgramNotFound(RuntimeError):
    pass


def import_platoonsec():
    """The ``platoonsec`` package under ``ROOT/src``.

    Raises ProgramNotFound when the sources are absent, or when an installed
    copy elsewhere would shadow them.
    """
    package = ROOT / "src" / "platoonsec"
    if not (package / "__init__.py").is_file():
        raise ProgramNotFound(f"no platoonsec sources under {package}")
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import platoonsec

    if Path(platoonsec.__file__).resolve().parent != package.resolve():
        raise ProgramNotFound(f"platoonsec imported from {platoonsec.__file__}, not {package}")
    return platoonsec
