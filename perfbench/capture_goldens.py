"""Capture goldens.json: the digest of every small_queries report.

Runs each request of the fixed pool once through the CLI of the distseq
in ./src and stores its exit code and the hash of its report without the
elapsed line.  Capture only from a commit whose reports are known right:
every later run is compared with these.

    python3 perfbench/capture_goldens.py <commit-id>
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs the path above)


def main(commit: str) -> None:
    pool = workloads.request_pool()
    reports = {}
    cwd = os.getcwd()
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as workdir:
        os.chdir(workdir)
        try:
            for entries in pool.values():
                for entry in entries:
                    for name, text in entry.files.items():
                        Path(name).write_text(text, encoding="utf-8")
                    digests = []
                    for argv in entry.requests:
                        code, text = workloads.run_cli(argv)
                        if code != 0:
                            raise SystemExit(f"{entry.key}: exit {code}\n{text}")
                        digests.append(workloads.report_digest(code, text))
                    reports[entry.key] = digests
        finally:
            os.chdir(cwd)
    header = {"captured_at": commit,
              "pool_fingerprint": workloads.pool_fingerprint(pool)}
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reports.items())]
    with open(workloads.GOLDENS, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header)[:-1] + ', "reports": {\n'
                 + ",\n".join(lines) + "\n}}\n")
    print(f"{len(reports)} entries written to {workloads.GOLDENS}")


if __name__ == "__main__":
    main(sys.argv[1])
