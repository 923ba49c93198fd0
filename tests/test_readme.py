import re
import sys
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


def test_every_exported_name_has_a_reader():
    # an export that nothing in the pipeline, the catalog or the acceptance
    # gate names is surface without a caller
    import compstat
    package = Path(compstat.__file__).resolve().parent
    readers = [*package.rglob("*.py"), Path(__file__).with_name("test_acceptance.py")]
    texts = {path: path.read_text(encoding="utf-8") for path in readers}
    unread = []
    for name in compstat.__all__:
        if name == "__version__":
            continue
        module = sys.modules[getattr(compstat, name).__module__]
        home = {Path(module.__file__).resolve(), package / "__init__.py"}
        if not any(re.search(rf"\b{name}\b", text)
                   for path, text in texts.items() if path not in home):
            unread.append(name)
    assert unread == []
