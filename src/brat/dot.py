"""Graphviz DOT rendering of Bratteli diagrams.

Vertices are named v_<level>_<index>.  Multiplicities up to 4 are drawn
as parallel edges; larger ones collapse to a single labeled edge.  The
output is deterministic: levels ascending, then source index, then
target index.
"""

from __future__ import annotations

from .bratteli import BratteliDiagram, _validated_depth

PARALLEL_EDGE_LIMIT = 4


def export_dot(diagram: BratteliDiagram, depth: int) -> str:
    """Render the first `depth` levels as a DOT digraph."""
    diagram.check()
    _validated_depth(diagram, depth)
    lines = ["digraph bratteli {", "  rankdir=TB;", '  node [shape=circle, label=""];']
    for level in range(depth + 1):
        names = " ".join("v_%d_%d;" % (level, i) for i in range(diagram.width_at(level)))
        lines.append("  { rank=same; %s }" % names)
    for level in range(1, depth + 1):
        matrix = diagram.matrix_at(level)
        for j in range(diagram.width_at(level - 1)):
            for i in range(diagram.width_at(level)):
                count = matrix[i][j]
                if count == 0:
                    continue
                edge = "  v_%d_%d -> v_%d_%d" % (level - 1, j, level, i)
                if count <= PARALLEL_EDGE_LIMIT:
                    lines.extend([edge + ";"] * count)
                else:
                    lines.append('%s [label="%d"];' % (edge, count))
    lines.append("}")
    return "\n".join(lines) + "\n"
