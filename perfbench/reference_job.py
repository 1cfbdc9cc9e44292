"""A fixed job that shares no code with dnfenum, for timing the machine.

    python3 perfbench/reference_job.py

Like the CLI it starts an interpreter, allocates many small dicts, walks
them and formats bit strings.  run.py runs it between the timed CLI runs and
scales each CLI time by how much slower than usual this job ran at that
moment.  It must never change: a different job changes every scaled time.
"""

import random

rng = random.Random(5)
root: dict = {}
for _ in range(60000):
    node = root
    for _ in range(6):
        node = node.setdefault(rng.randrange(24), {})
stack = [root]
total = 0
while stack:
    nd = stack.pop()
    total += len(nd)
    stack.extend(nd.values())
text = "\n".join(format(rng.getrandbits(40), "040b") for _ in range(100000))
print(total, len(text))
