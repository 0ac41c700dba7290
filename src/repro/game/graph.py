"""Geographic games on patrol graphs.

The paper's motivating domains are spatial: poaching sites in a park,
checkpoints in a terminal.  This module builds interval security games
from a *patrol graph* — a spatial network of sites — so that payoffs and
operational constraints inherit geographic structure:

* sites live on a random geometric graph (or any networkx graph you
  supply);
* animal density (attacker value) starts at a few hotspots and diffuses
  along edges (a discrete heat kernel), so nearby sites have correlated
  stakes — the structure real parks exhibit;
* ranger stations partition the graph into zones (BFS Voronoi cells);
  each station's team count caps the total coverage inside its zone,
  yielding the :class:`~repro.game.constraints.CoverageConstraints` that
  the constrained CUBIS extension consumes.

:func:`geographic_game` returns the triple
``(game, constraints, layout)`` used by the ``examples/park_graph.py``
scenario.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.game.constraints import CoverageConstraints
from repro.game.payoffs import IntervalPayoffs
from repro.game.ssg import IntervalSecurityGame
from repro.utils.rng import as_generator

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["GraphLayout", "diffuse_density", "geographic_game", "station_zones"]


def _networkx():
    """Import networkx, the optional ``repro[graph]`` extra, on first use
    rather than with the package: no solve needs it."""
    try:
        import networkx
    except ImportError as exc:
        raise ImportError(
            "geographic games need networkx: pip install 'repro[graph]'"
        ) from exc
    return networkx


@dataclass(frozen=True)
class GraphLayout:
    """The spatial side of a geographic game.

    Attributes
    ----------
    graph:
        The site graph (nodes relabelled ``0..T-1``).
    density:
        Diffused attacker-value density per site.
    stations:
        Node indices of the ranger stations.
    zone_of:
        ``zone_of[i]`` = index of the station whose zone contains site ``i``.
    """

    graph: nx.Graph
    density: np.ndarray
    stations: tuple
    zone_of: np.ndarray


def diffuse_density(graph: nx.Graph, hotspots, *, steps: int = 3, retention: float = 0.5) -> np.ndarray:
    """Spread unit mass from hotspot nodes along edges.

    Each step keeps ``retention`` of a node's mass in place and spreads
    the rest equally over its neighbours — a lazy random-walk smoothing
    that leaves total mass invariant.  Returns a density vector indexed by
    the graph's (integer) nodes.
    """
    n = graph.number_of_nodes()
    if not 0.0 <= retention <= 1.0:
        raise ValueError(f"retention must be in [0, 1], got {retention}")
    density = np.zeros(n)
    for h in hotspots:
        if not (0 <= h < n):
            raise ValueError(f"hotspot {h} is not a node index in [0, {n})")
        density[h] += 1.0
    for _ in range(steps):
        nxt = retention * density
        for u in graph.nodes:
            deg = graph.degree[u]
            if deg == 0:
                nxt[u] += (1 - retention) * density[u]
                continue
            share = (1 - retention) * density[u] / deg
            for v in graph.neighbors(u):
                nxt[v] += share
        density = nxt
    return density


def station_zones(graph: nx.Graph, stations) -> np.ndarray:
    """Assign every site to its nearest station (BFS hop distance,
    ties broken by station order).  Returns ``zone_of`` indices."""
    stations = list(stations)
    if not stations:
        raise ValueError("need at least one station")
    n = graph.number_of_nodes()
    best_dist = np.full(n, np.inf)
    zone_of = np.zeros(n, dtype=np.int64)
    nx = _networkx()
    for z, s in enumerate(stations):
        lengths = nx.single_source_shortest_path_length(graph, s)
        for node, d in lengths.items():
            if d < best_dist[node]:
                best_dist[node] = d
                zone_of[node] = z
    if np.any(np.isinf(best_dist)):
        raise ValueError("graph is disconnected from every station")
    return zone_of


def geographic_game(
    num_sites: int = 16,
    num_stations: int = 2,
    teams_per_station: int = 2,
    *,
    num_hotspots: int = 2,
    uncertainty: float = 1.0,
    radius: float = 0.45,
    seed=None,
) -> tuple[IntervalSecurityGame, CoverageConstraints, GraphLayout]:
    """Build a geographic interval game with zone-capped patrols.

    Returns ``(game, constraints, layout)``: the game has
    ``num_stations * teams_per_station`` total resources, and the
    constraints cap each zone's coverage at its station's team count —
    rangers cannot be teleported across the park.
    """
    rng = as_generator(seed)
    if num_sites < 2:
        raise ValueError(f"num_sites must be >= 2, got {num_sites}")
    if num_stations < 1 or teams_per_station < 1:
        raise ValueError("need at least one station and one team per station")

    # Connected random geometric graph (retry with growing radius).
    nx = _networkx()
    r = radius
    for _ in range(20):
        graph = nx.random_geometric_graph(num_sites, r, seed=int(rng.integers(2**31)))
        if nx.is_connected(graph):
            break
        r *= 1.2
    else:
        raise RuntimeError("could not build a connected site graph")
    graph = nx.convert_node_labels_to_integers(graph)

    hotspots = rng.choice(num_sites, size=min(num_hotspots, num_sites), replace=False)
    density = diffuse_density(graph, hotspots, steps=3, retention=0.5)
    # Scale density into the conventional attacker-reward range [1.5, 10].
    dmax = density.max()
    reward_c = 1.5 + 8.5 * (density / dmax if dmax > 0 else density)
    penalty_c = rng.uniform(-4.0, -2.0, size=num_sites)
    gap = reward_c - penalty_c
    h_eff = np.minimum(uncertainty, 0.49 * gap)
    payoffs = IntervalPayoffs.zero_sum_midpoint(
        attacker_reward_lo=reward_c - h_eff,
        attacker_reward_hi=reward_c + h_eff,
        attacker_penalty_lo=penalty_c - h_eff,
        attacker_penalty_hi=penalty_c + h_eff,
    )

    stations = tuple(
        int(s) for s in rng.choice(num_sites, size=num_stations, replace=False)
    )
    zone_of = station_zones(graph, stations)
    zones = [np.flatnonzero(zone_of == z) for z in range(num_stations)]
    # A zone cannot absorb more coverage than its site count; cap at the
    # attainable amount so the game stays feasible.
    caps = [min(float(teams_per_station), float(len(z))) for z in zones]
    constraints = CoverageConstraints.zone_caps(num_sites, zones, caps)

    total_resources = min(float(sum(caps)), float(num_sites))
    game = IntervalSecurityGame(payoffs, num_resources=total_resources)
    layout = GraphLayout(graph=graph, density=density, stations=stations, zone_of=zone_of)
    return game, constraints, layout
