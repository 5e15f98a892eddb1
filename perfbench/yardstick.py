"""A fixed amount of pure-Python work, run as a child process between commands.

It imports nothing from configcount, so no change to the program moves it;
what moves it is the machine: on a shared host the speed of the same command
drifts by up to 1.8x within minutes.  It does the kind of work the CLI does
(a fresh interpreter, frozen dataclasses hashed into a set and a Counter,
JSON and string formatting), so drift slows both alike.
"""

import json
from collections import Counter
from dataclasses import dataclass

N = 13


@dataclass(frozen=True)
class Point:
    x: int
    y: int


@dataclass(frozen=True)
class Square:
    corners: tuple
    k: int


def squares(n: int) -> list[Square]:
    out = []
    for k in range(1, n):
        for a in range(k):
            for x in range(n - k):
                for y in range(n - k):
                    out.append(Square((Point(x + a, y), Point(x + k, y + a),
                                       Point(x + k - a, y + k), Point(x, y + k - a)), k))
    return out


found = squares(N)
if not len(set(found)) == len(found) == N * N * (N * N - 1) // 12:
    raise SystemExit("yardstick: wrong square count")
per_k = Counter(s.k for s in found)
text = json.dumps([[p.x, p.y] for s in found for p in s.corners])
print(len(found), len(per_k), len(text))
