"""Fixed pure-Python job that the benchmark times beside each pass.

Its wall time measures how fast the machine runs Python at that moment, so
the benchmark can report pass times in multiples of it.  The mix resembles
birough's work: integer bit operations, dict updates and text formatting.
It reads and writes nothing.
"""

rows = [(i * 2654435761) & 0xFFFFFFFFFFFF for i in range(150000)]
groups: dict[int, int] = {}
for i, row in enumerate(rows):
    key = row & 0xFFF
    groups[key] = groups.get(key, 0) | (1 << (i & 127))
text = "\n".join(
    f"x{i}: " + " ".join("1" if row >> j & 1 else "0" for j in range(16))
    for i, row in enumerate(rows[:30000])
)
