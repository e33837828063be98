"""The README's quick start runs as written.

Core claims:
    - the `d1.cluster` heredoc and each `sandwiched` line of the Quick start
      block, run through `cli.main` in a fresh directory, exit 0, 2, 2, 0
      and 0, as the block's `# exit code` comments say
    - the cluster that `cartier --emit-cluster` writes re-parses
    - the library block runs and its asserts hold
"""

import re
import shlex
from pathlib import Path

from sandwiched import dsl
from sandwiched.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs_as_written(tmp_path, monkeypatch):
    section = README.read_text(encoding="utf-8").split("## Quick start", 1)[1].split("\n## ", 1)[0]
    shell = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    library = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    heredoc = re.search(r"cat > d1\.cluster << 'EOF'\n(.*?\n)EOF\n", shell, re.S).group(1)
    (tmp_path / "d1.cluster").write_text(heredoc, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    codes, stated = [], []
    for line in shell.splitlines():
        if line.startswith("sandwiched "):
            codes.append(main(shlex.split(line, comments=True)[1:]))
            comment = re.search(r"# exit code (\d)", line)
            stated.append(int(comment.group(1)) if comment else 0)
    assert codes == [0, 2, 2, 0, 0]
    assert stated == codes
    assert dsl.parse((tmp_path / "out.cluster").read_text(encoding="utf-8"))
    exec(compile(library, str(README), "exec"), {})
