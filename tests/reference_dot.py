"""The improvement-MDP DOT export as it was before edges were formatted once.

Test-only oracle: ``improvement_mdp_to_dot`` renders every edge label again
for each product state and for both copies of the state, one line at a time.
``prefplan.synthesis.improvement_mdp_to_dot`` must give the same string.
"""

from prefplan.synthesis import ImprovementMdp


def improvement_mdp_to_dot(im: ImprovementMdp) -> str:
    pm, improved = im.cache.product, im.cache.improved
    names = pm.mdp.actions
    lines = ["digraph improvement_mdp {", "  rankdir=LR;"]
    for v in range(pm.n_states()):
        sid = pm.state_ids[v]
        lines.append(f'  v{v}B [shape=box label="{sid} bot"];')
        lines.append(f'  v{v}T [shape=box label="{sid} top" style=filled fillcolor="palegreen"];')
    for v in range(pm.n_states()):
        # (successor, improving, label) per edge of the kept actions
        edges = [
            (w, routed == improved, f'[label="{names[a]}:{p:g}"];')
            for a, row in im.rows[v].items()
            for (w, p), routed in zip(pm.dist(v, a), row)
        ]
        for src, entered in ((f"v{v}B", False), (f"v{v}T", True)):
            if v in im.dead:
                lines.append(f'  {src} -> {src} [label="dead:1"];')
            for w, up, label in edges:
                lines.append(f"  {src} -> v{w}{'T' if up and not entered else 'B'} {label}")
    lines.append("}")
    return "\n".join(lines) + "\n"
