"""Graph operators: distributed connected components over an edge
Dataset, and the dedup composite built on it (near-dup pairs ->
duplicate clusters -> one canonical doc per cluster).

The reference has no graph operators (its only key is ``unique_id``,
SURVEY.md §1.1); this is engine scope for the LLM-data-pipeline dedup
story: pairwise dedup ops (``jaccard_near_dups``, MinHash-LSH, SimHash,
cosine) emit EDGES, but purging needs the transitive closure -- docs A~B
and B~C must collapse to ONE cluster even when A~C was never emitted.

Algorithm: iterative min-label propagation ("hash-to-min") WITH pointer
doubling. Every node starts labeled with itself; each round, every node
adopts the minimum label among itself, its neighbors' labels, and its
label's label (the doubling step: labels form a pointer forest toward
component minima, and chasing one extra hop per round halves the
remaining depth). Converges to label = min node id of the connected
component in ``O(log diameter)`` rounds -- duplicate clusters are
near-cliques (diameter 1-3), so 2-3 rounds in practice; ``max_iters``
is a safety bound, not the expected count.

Scale contract: each round is ONE hash-partitioned exchange
(``partitioned_join`` of the symmetrized edge table against the current
label table, then a ``by_partition`` min-reduce on the node). Nothing
ever lands on the driver except a per-round scalar (count of changed
labels, computed inside the same reduce -- no extra exchange). The
edge table and the label table are both bounded by the DUPLICATE-PAIR
graph, which at corpus scale is orders of magnitude smaller than the
corpus itself; the corpus is never part of the iteration.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..stages.derive import by_partition, default_num_parts


def _min_reduce(df: pd.DataFrame) -> pd.DataFrame:
    """Per-partition label reduce: new label = min over candidates; a
    node's label changed iff the min beats its unique is_old row (at
    init every is_old row carries node==label, so dup old rows are
    value-identical and min() is exact)."""
    df = df.drop(columns=["part"])
    g = df.groupby("node", sort=False)
    new = g["label"].min()
    old = df.loc[df["is_old"] == 1].groupby("node", sort=False)["label"].min()
    out = new.reset_index()
    out["changed"] = (new.to_numpy() != old.reindex(new.index).to_numpy()).astype(
        np.int64
    )
    return out


def connected_components(
    edges: "ray.data.Dataset",
    src: str = "id_a",
    dst: str = "id_b",
    node_col: str = "node",
    comp_col: str = "component",
    num_parts: int | None = None,
    max_iters: int = 50,
) -> "ray.data.Dataset":
    """Connected components of the undirected graph given by ``edges``.

    Returns one row per node that appears in ``edges`` with
    ``comp_col`` = the minimum node id in its component (the canonical
    cluster representative). Isolated nodes (absent from ``edges``) are
    by definition their own component -- callers that want them listed
    left-join this result against their id table (see
    ``dedup_components``).

    Works for any orderable id type (ints, strings); convergence is
    detected by an exact changed-label count folded into the reduce, not
    a sum heuristic. Raises ``RuntimeError`` if ``max_iters`` rounds do
    not converge (a non-converged labeling would silently split
    clusters; at default 50 that means a duplicate "cluster" shaped like
    a 50-hop path, which indicates a thresholding bug upstream).
    """
    import ray.data as rd

    if num_parts is None:
        num_parts = default_num_parts()

    def sym_edges(t: pa.Table) -> pa.Table:
        u = pa.concat_arrays(
            [t[src].combine_chunks(), t[dst].combine_chunks()]
        )
        v = pa.concat_arrays(
            [t[dst].combine_chunks(), t[src].combine_chunks()]
        )
        return pa.Table.from_arrays([u, v], names=["u", "v"])

    # the symmetrized edge table is re-read every round: pin it once
    sym = edges.map_batches(sym_edges, batch_format="pyarrow").materialize()
    if sym.count() == 0:
        # no edges -> no non-singleton components; schema-stable empty
        # (sym is already materialized: schema() is free and avoids
        # re-executing the upstream pair pipeline)
        sch = sym.schema()
        id_type = sch.types[0] if sch is not None else _edge_id_type(edges, src)
        return rd.from_arrow(
            pa.schema([(node_col, id_type), (comp_col, id_type)]).empty_table()
        )
    id_type = sym.schema().types[0]

    # round 0 needs no join -- labels are implicit (label(u) = u), so the
    # candidate rows come straight off the edges: neighbor candidates
    # (node=v, label=u) + self rows (node=u, label=u, is_old=1)
    def init_candidates(t: pa.Table) -> pa.Table:
        node = pa.concat_arrays([t["v"].combine_chunks(), t["u"].combine_chunks()])
        label = pa.concat_arrays([t["u"].combine_chunks(), t["u"].combine_chunks()])
        n = len(t)
        is_old = pa.array(
            np.concatenate([np.zeros(n, np.int8), np.ones(n, np.int8)])
        )
        return pa.Table.from_arrays(
            [node, label, is_old], names=["node", "label", "is_old"]
        )

    cand = sym.map_batches(init_candidates, batch_format="pyarrow")
    labels = None
    for _ in range(max_iters):
        reduced = (
            by_partition(cand, "node", _min_reduce, num_parts=num_parts)
            # map_groups emits blocks tracking its INPUT block count, and
            # cand unions 3 label-derived branches -- without this cap the
            # label table's block count grows ~4x per round (measured:
            # 1 -> 5 -> 21 -> 85 -> 341) and scheduling overhead explodes
            .repartition(num_parts)
            .materialize()  # labels are dup-graph-bounded; pinning them
        )  # truncates lineage so round k doesn't replay rounds 0..k-1
        changed = reduced.sum("changed")
        labels = reduced.drop_columns(["changed"])
        if not changed:
            break
        # next round's candidates, three sources unioned into one reduce:
        #   1. neighbor propagation: label(u) flows to v (join sym on u)
        #   2. pointer doubling: label(label(u)) flows to u (join labels
        #      against themselves on the label value) -- this is what
        #      turns O(diameter) rounds into O(log diameter)
        #   3. own label as the is_old row (change detection)
        from .join import partitioned_join

        prop = partitioned_join(
            sym,
            labels.rename_columns({"node": "u"}),
            left_on="u",
            num_parts=num_parts,
            left_schema=pa.schema([("u", id_type), ("v", id_type)]),
            right_schema=pa.schema([("u", id_type), ("label", id_type)]),
        )

        chase = partitioned_join(
            labels.rename_columns({"label": "ptr"}),
            labels.rename_columns({"node": "ptr", "label": "label2"}),
            left_on="ptr",
            num_parts=num_parts,
            left_schema=pa.schema([("node", id_type), ("ptr", id_type)]),
            right_schema=pa.schema([("ptr", id_type), ("label2", id_type)]),
        )

        def neighbor_rows(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [
                    t["v"].combine_chunks(),
                    t["label"].combine_chunks(),
                    pa.array(np.zeros(len(t), np.int8)),
                ],
                names=["node", "label", "is_old"],
            )

        def chase_rows(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [
                    t["node"].combine_chunks(),
                    t["label2"].combine_chunks(),
                    pa.array(np.zeros(len(t), np.int8)),
                ],
                names=["node", "label", "is_old"],
            )

        def self_rows(t: pa.Table) -> pa.Table:
            return pa.Table.from_arrays(
                [
                    t["node"].combine_chunks(),
                    t["label"].combine_chunks(),
                    pa.array(np.ones(len(t), np.int8)),
                ],
                names=["node", "label", "is_old"],
            )

        cand = (
            prop.map_batches(neighbor_rows, batch_format="pyarrow")
            .union(chase.map_batches(chase_rows, batch_format="pyarrow"))
            .union(labels.map_batches(self_rows, batch_format="pyarrow"))
        )
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds; "
            "the duplicate graph has a path longer than max_iters -- raise "
            "max_iters or check the pair threshold upstream"
        )

    return labels.rename_columns({"node": node_col, "label": comp_col})


def dedup_components(
    ds: "ray.data.Dataset",
    threshold: float = 0.8,
    id_col: str = "doc_id",
    text_col: str = "text",
    k: int = 5,
    num_parts: int | None = None,
    method: str = "jaccard",
) -> "ray.data.Dataset":
    """Duplicate-CLUSTER assignment for every document: near-dup pairs
    -> connected components -> one row per doc with ``component`` = min
    doc id of its duplicate cluster (singletons map to themselves).

    ``method="jaccard"`` (default) generates pairs with the EXACT
    all-pairs n-gram Jaccard (``jaccard_near_dups``, recall 1.0 -- the
    oracle path, O(N^2) compute); ``method="minhash"`` uses the banded
    MinHash-LSH pipeline (``minhash_near_dups_distributed``, the 100-TB
    scale path: precision 1.0 via exact verify, recall pytest-pinned
    >= 0.9 at the default banding).

    ``component`` IS the keep-decision: keeping rows where
    ``doc_id == component`` retains exactly one canonical doc per
    transitive duplicate cluster, which pairwise purging cannot express
    (A~B, B~C with no A~C edge must still collapse to one survivor).
    """
    from .dedup import jaccard_near_dups, minhash_near_dups_distributed
    from .join import partitioned_join

    if num_parts is None:
        num_parts = default_num_parts()
    if method == "jaccard":
        pairs = jaccard_near_dups(
            ds, threshold=threshold, id_col=id_col, text_col=text_col, k=k
        )
    elif method == "minhash":
        pairs = minhash_near_dups_distributed(
            ds, threshold=threshold, id_col=id_col, text_col=text_col, k=k,
            num_parts=num_parts,
        )
    else:
        raise ValueError(f"method must be 'jaccard' or 'minhash', got {method!r}")
    comp = connected_components(
        pairs.drop_columns(["jaccard"]),
        src="id_a",
        dst="id_b",
        node_col=id_col,
        comp_col="component",
        num_parts=num_parts,
    )
    ids = ds.select_columns([id_col])
    sch = ds.schema()
    id_type = sch.types[sch.names.index(id_col)]
    joined = partitioned_join(
        ids,
        comp,
        left_on=id_col,
        how="left",
        num_parts=num_parts,
        left_schema=pa.schema([(id_col, id_type)]),
        right_schema=pa.schema([(id_col, id_type), ("component", id_type)]),
    )

    # the left join leaves singletons' component as null (pandas path:
    # NaN-upcast); coalesce to self and restore the id dtype
    def coalesce(df: pd.DataFrame) -> pd.DataFrame:
        comp_filled = df["component"].fillna(df[id_col]).astype(df[id_col].dtype)
        return pd.DataFrame({id_col: df[id_col], "component": comp_filled})

    return joined.map_batches(coalesce, batch_format="pandas")


def _edge_id_type(edges: "ray.data.Dataset", src: str) -> pa.DataType:
    sch = edges.schema()
    return sch.types[sch.names.index(src)]


def triangle_count(
    edges,
    src: str = "id_a",
    dst: str = "id_b",
    num_parts: int | None = None,
):
    """Exact triangle count of an undirected simple graph given as an
    edge Dataset (src < dst rows; duplicates tolerated, self-loops
    dropped). Returns a 1-row Dataset: (n_triangles, n_edges, n_nodes).

    Classic scale algorithm (degree-oriented wedge counting): orient
    every edge from the lower-(degree, id) endpoint to the higher one --
    each triangle then has exactly ONE node with two out-edges, so
    counting wedges (v <- u -> w) that close with an oriented edge
    (v -> w) counts each triangle exactly once, and out-degrees are
    bounded by O(sqrt(m)) on skewed graphs (the hub explosion the
    naive per-node wedge join suffers).

    Three bounded exchanges: (1) degree count (node, partial) groupby;
    (2) wedge generation co-partitioned on the pivot u; (3) wedge-edge
    semi join hash-partitioned on the closing pair (v, w). Only (v, w)
    pairs and 16-byte edges move; the driver sees one row.
    """
    import ray.data as rd

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src].to_numpy(dtype=np.int64)
        b = df[dst].to_numpy(dtype=np.int64)
        keep = a != b
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
        return pd.DataFrame({"a": lo, "b": hi}).drop_duplicates()

    # block-level dedup; exact dedup happens inside the per-a partition
    e = by_partition(
        edges.map_batches(clean, batch_format="pandas"), "a",
        lambda g: g.drop(columns=["part"]).drop_duplicates(),
        num_parts=num_parts,
    ).materialize()

    # pass 1: degrees (node, n) -- bounded by |V|
    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        n = np.concatenate([df["a"].to_numpy(), df["b"].to_numpy()])
        out = (
            pd.Series(n, name="node").value_counts().rename("n").reset_index()
        )
        out.columns = ["node", "n"]
        return out.astype({"node": np.int64, "n": np.int64})

    def deg_a(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"a": df["node"].astype(np.int64), "da": df["sum(n)"].astype(np.int64)}
        )

    def deg_b(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"b": df["node"].astype(np.int64), "db": df["sum(n)"].astype(np.int64)}
        )

    # degrees stay a Dataset: joined back onto the edges through the
    # partitioned hash join, never pulled to the driver (|V| can be huge)
    deg = (
        e.map_batches(deg_partial, batch_format="pandas")
        .groupby("node")
        .sum("n")
        .materialize()
    )
    n_nodes = deg.count()

    from .join import partitioned_join

    e_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])
    dega_schema = pa.schema([("a", pa.int64()), ("da", pa.int64())])
    degb_schema = pa.schema([("b", pa.int64()), ("db", pa.int64())])
    ed = partitioned_join(
        e,
        deg.map_batches(deg_a, batch_format="pandas"),
        left_on="a",
        num_parts=num_parts,
        left_schema=e_schema,
        right_schema=dega_schema,
    )
    ed = partitioned_join(
        ed,
        deg.map_batches(deg_b, batch_format="pandas"),
        left_on="b",
        num_parts=num_parts,
        left_schema=pa.schema(
            [("a", pa.int64()), ("b", pa.int64()), ("da", pa.int64())]
        ),
        right_schema=degb_schema,
    )

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        a = df["a"].to_numpy(dtype=np.int64)
        b = df["b"].to_numpy(dtype=np.int64)
        da = df["da"].to_numpy(dtype=np.int64)
        db = df["db"].to_numpy(dtype=np.int64)
        # orient from the lexicographically lower (degree, id) endpoint
        swap = (da > db) | ((da == db) & (a > b))
        u = np.where(swap, b, a)
        v = np.where(swap, a, b)
        return pd.DataFrame({"u": u, "v": v})

    oriented = ed.map_batches(orient, batch_format="pandas").materialize()

    # pass 2: wedges (v, w) per pivot u, co-partitioned on u
    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, grp in g.groupby("u", sort=False):
            vs = np.sort(grp["v"].to_numpy())
            k = len(vs)
            if k < 2:
                continue
            ia, ib = np.triu_indices(k, k=1)
            outs.append(pd.DataFrame({"x": vs[ia], "y": vs[ib]}))
        if not outs:
            return pd.DataFrame(
                {"x": pd.Series([], dtype="int64"),
                 "y": pd.Series([], dtype="int64"),
                 "is_edge": pd.Series([], dtype="int8")}
            )
        out = pd.concat(outs, ignore_index=True)
        out["is_edge"] = np.int8(0)
        return out

    w = by_partition(oriented, "u", wedges, num_parts=num_parts)

    # pass 3: close wedges against the UNDIRECTED edge set, partitioned
    # on the unordered closing pair
    def edge_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"x": df["a"], "y": df["b"], "is_edge": np.int8(1)}
        )

    def pair_key(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        lo = np.minimum(df["x"].to_numpy(), df["y"].to_numpy())
        hi = np.maximum(df["x"].to_numpy(), df["y"].to_numpy())
        df["x"], df["y"] = lo, hi
        df["pair"] = lo * 1_000_003 + hi
        return df

    both = w.union(e.map_batches(edge_rows, batch_format="pandas"))

    def close(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["pair", "part"])
        key = g["x"].to_numpy() * (1 << 32) + g["y"].to_numpy()
        is_e = g["is_edge"].to_numpy() == 1
        edge_keys = np.unique(key[is_e])
        hits = np.isin(key[~is_e], edge_keys)
        return pd.DataFrame({"t": np.array([int(hits.sum())], dtype=np.int64)})

    parts = by_partition(
        both.map_batches(pair_key, batch_format="pandas"), "pair", close,
        num_parts=num_parts,
    )
    total = parts.sum("t")
    n_edges = e.count()

    return rd.from_items(
        [
            {
                "n_triangles": int(total),
                "n_edges": int(n_edges),
                "n_nodes": int(n_nodes),
            }
        ]
    )


def pagerank(
    edges,
    src: str = "id_a",
    dst: str = "id_b",
    damping: float = 0.85,
    iters: int = 10,
    num_parts: int | None = None,
):
    """PageRank over the undirected simple graph of ``edges`` (each
    edge walks both ways), K fixed power iterations (fixed count, not an
    epsilon test, so the output is bit-deterministic and the unrolled
    SQL oracle can replay it):
    ``r'(v) = (1-d)/N + d * sum_{u~v} r(u)/deg(u)``, ranks seeded 1/N
    over the N nodes that appear in edges. Returns (node, rank 6dp).

    Scale shape (same contract as connected_components above): per
    round ONE partitioned hash join ships ranks to their edge
    partitions, contributions pre-aggregate per batch before the ONE
    node-hash reduce that also carries the degree rows, and the rank
    table is repartitioned + materialized per round (groupby output
    block count tracks input blocks -- without the cap blocks multiply
    per round). Nothing driver-side except N."""
    import ray.data as rd

    from .join import partitioned_join

    if num_parts is None:
        num_parts = default_num_parts()

    def clean(df: pd.DataFrame) -> pd.DataFrame:
        a = df[src].to_numpy(dtype=np.int64)
        b = df[dst].to_numpy(dtype=np.int64)
        keep = a != b
        lo = np.minimum(a[keep], b[keep])
        hi = np.maximum(a[keep], b[keep])
        return pd.DataFrame({"lo": lo, "hi": hi}).drop_duplicates()

    def sym(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"]).drop_duplicates()
        return pd.DataFrame(
            {
                "u": np.concatenate([g["lo"].to_numpy(), g["hi"].to_numpy()]),
                "v": np.concatenate([g["hi"].to_numpy(), g["lo"].to_numpy()]),
            }
        )

    e = by_partition(
        edges.map_batches(clean, batch_format="pandas"), "lo", sym,
        num_parts=num_parts,
    ).materialize()

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            pd.Series(df["u"].to_numpy(), name="node")
            .value_counts()
            .rename("dg")
            .reset_index()
        )
        out.columns = ["node", "dg"]
        return out.astype({"node": np.int64, "dg": np.int64})

    deg = (
        e.map_batches(deg_partial, batch_format="pandas")
        .groupby("node")
        .sum("dg")
        .materialize()
    )
    n_nodes = deg.count()
    if n_nodes == 0:
        return rd.from_arrow(
            pa.schema([("node", pa.int64()), ("rank", pa.float64())])
            .empty_table()
        )
    base = (1.0 - damping) / n_nodes

    def init_ranks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "u": df["node"].astype(np.int64),
                "r": np.full(len(df), 1.0 / n_nodes),
                "dg": df["sum(dg)"].astype(np.int64),
            }
        )

    ranks = deg.map_batches(init_ranks, batch_format="pandas").materialize()
    e_schema = pa.schema([("u", pa.int64()), ("v", pa.int64())])
    r_schema = pa.schema(
        [("u", pa.int64()), ("r", pa.float64()), ("dg", pa.int64())]
    )

    def contrib(df: pd.DataFrame) -> pd.DataFrame:
        w = df["r"].to_numpy() / df["dg"].to_numpy()
        out = (
            pd.DataFrame({"node": df["v"].to_numpy(), "val": w})
            .groupby("node", sort=False)["val"]
            .sum()
            .reset_index()
        )
        out["kind"] = np.int8(0)
        return out

    def deg_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "node": df["node"].astype(np.int64),
                "val": df["sum(dg)"].to_numpy(dtype=np.float64),
            }
        )
        out["kind"] = np.int8(1)
        return out

    deg_kind = deg.map_batches(deg_rows, batch_format="pandas").materialize()

    def reduce_ranks(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop(columns=["part"])
        k = g["kind"].to_numpy()
        s = (
            g[k == 0]
            .groupby("node", sort=False)["val"]
            .sum()
        )
        d = g[k == 1].set_index("node")["val"]
        s = s.reindex(d.index, fill_value=0.0)
        return pd.DataFrame(
            {
                "u": d.index.to_numpy().astype(np.int64),
                "r": base + damping * s.to_numpy(),
                "dg": d.to_numpy().astype(np.int64),
            }
        )

    for _ in range(iters):
        joined = partitioned_join(
            e,
            ranks,
            left_on="u",
            num_parts=num_parts,
            left_schema=e_schema,
            right_schema=r_schema,
        )
        cand = joined.map_batches(contrib, batch_format="pandas").union(
            deg_kind
        )
        ranks = (
            by_partition(cand, "node", reduce_ranks, num_parts=num_parts)
            .repartition(num_parts)
            .materialize()
        )

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        r = df["r"].to_numpy() + 1e-7
        return pd.DataFrame(
            {
                "node": df["u"].astype(np.int64),
                "rank": np.sign(r) * np.floor(np.abs(r) * 1e6 + 0.5) / 1e6,
            }
        )

    return ranks.map_batches(finish, batch_format="pandas")
