import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_and_library_matrix_is_semidefinite():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    eig = namespace["omega"].eigenvalues
    assert eig[0] >= -1e-8 * np.max(np.abs(eig))


def test_star_import_binds_every_exported_name():
    import compstat
    namespace = {}
    exec("from compstat import *", namespace)
    assert [name for name in compstat.__all__ if name not in namespace] == []
