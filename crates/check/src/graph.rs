//! The pipeline-graph IR and its static analyses.
//!
//! `bonsai-check`'s shape checks validate each configuration struct in
//! isolation; this module reasons about the *composed* design. Any
//! loader → merge-tree → coupler → memory-channel dataflow lowers into a
//! [`PipelineGraph`]: nodes for the hardware units, edges annotated with
//! FIFO depth (records), credit count (producer send credits) and peak
//! byte rate per cycle. Four analyses run over the IR, each with its own
//! stable `BON03x` code:
//!
//! 1. **Deadlock freedom** ([`PipelineGraph::analyze_deadlock`], `BON030`
//!    / `BON031`): zero-credit edges and dependency cycles wedge the
//!    pipeline; FIFOs shallower than the consumer's flush requirement
//!    stall a merger forever.
//! 2. **Bandwidth feasibility** ([`PipelineGraph::analyze_bandwidth`],
//!    `BON032`): max-flow from the source to the sink must reach the
//!    required sustained throughput; on failure the min-cut localizes
//!    the bottleneck edges.
//! 3. **Latency-bound certification** (`BON033`, driven from
//!    `bonsai-model::check` which owns the analytical side):
//!    [`PipelineGraph::critical_path_cycles`] and
//!    [`PipelineGraph::max_flow_bytes_per_cycle`] provide the static
//!    lower bound the model is certified against.
//! 4. **Dead components** ([`PipelineGraph::analyze_dead_components`],
//!    `BON034` / `BON035`): nodes on no source→sink path and memory
//!    channels backed by zero banks are design bugs.
//!
//! The IR round-trips through JSON ([`PipelineGraph::to_json`] /
//! [`PipelineGraph::from_json`]) and renders to Graphviz DOT
//! ([`PipelineGraph::to_dot`]); `docs/GRAPH_IR.md` documents both
//! formats. Lowering from the configuration types lives in
//! `bonsai-amt::graph` (this crate stays dependency-free).

use crate::{codes, Diagnostic};

/// Index of a node inside [`PipelineGraph::nodes`].
pub type NodeId = usize;

/// What hardware unit a node models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// Virtual super-source feeding the read-side memory channels.
    Source,
    /// An off-chip memory channel backed by `banks` physical banks.
    /// `write` distinguishes the write-back side from the read side.
    MemoryChannel {
        /// Physical banks backing this channel (0 is a `BON035` error).
        banks: usize,
        /// `true` for the write-back direction.
        write: bool,
    },
    /// The batching data loader (§V-A).
    Loader,
    /// A `width`-merger at tree `level` (root = level 0).
    Merger {
        /// Tree level, root = 0.
        level: usize,
        /// Records per cycle this merger emits (`k`).
        width: usize,
    },
    /// A serial-to-parallel coupler feeding a `width`-merger at `level`.
    Coupler {
        /// Level of the parent merger the coupler feeds.
        level: usize,
        /// Output tuple width of the coupler.
        width: usize,
    },
    /// The write drain collecting the root output.
    WriteDrain,
    /// Virtual super-sink behind the write-side memory channels.
    Sink,
}

impl NodeKind {
    fn kind_str(&self) -> &'static str {
        match self {
            NodeKind::Source => "source",
            NodeKind::MemoryChannel { .. } => "memory_channel",
            NodeKind::Loader => "loader",
            NodeKind::Merger { .. } => "merger",
            NodeKind::Coupler { .. } => "coupler",
            NodeKind::WriteDrain => "write_drain",
            NodeKind::Sink => "sink",
        }
    }
}

/// One hardware unit in the pipeline graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Stable name, e.g. `"merger_l2_3"` (used in diagnostics and DOT).
    pub name: String,
    /// Unit kind with its static parameters.
    pub kind: NodeKind,
    /// Pipeline latency through the unit in cycles (critical path).
    pub latency_cycles: u64,
}

/// One dataflow link with its backpressure annotations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// FIFO depth in records between the two units.
    pub fifo_depth: u64,
    /// Producer send credits (how many transfers may be in flight
    /// before an acknowledgement returns). Zero means the producer can
    /// never send: a hard deadlock.
    pub credits: u64,
    /// Peak sustained byte rate per cycle over this link.
    pub bytes_per_cycle: u64,
}

/// The pipeline-graph IR. See the module docs for the analyses.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineGraph {
    /// All nodes; a [`NodeId`] indexes this vector.
    pub nodes: Vec<Node>,
    /// All edges, in insertion order.
    pub edges: Vec<Edge>,
}

/// What [`PipelineGraph::analyze_all`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphAnalysis {
    /// `BON030`–`BON035` and `BON037` findings (empty = clean).
    pub diagnostics: Vec<Diagnostic>,
    /// The max-flow the bandwidth analysis ran
    /// ([`PipelineGraph::max_flow_bytes_per_cycle`]); `None` when the
    /// graph is malformed.
    pub max_flow_bytes_per_cycle: Option<u64>,
}

/// How many offending items a single aggregated diagnostic names before
/// eliding the rest (the full count is always reported).
const MAX_NAMED: usize = 4;

impl PipelineGraph {
    /// Creates an empty graph.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(
        &mut self,
        name: impl Into<String>,
        kind: NodeKind,
        latency_cycles: u64,
    ) -> NodeId {
        self.nodes.push(Node {
            name: name.into(),
            kind,
            latency_cycles,
        });
        self.nodes.len() - 1
    }

    /// Adds an edge between two existing nodes.
    pub fn add_edge(&mut self, edge: Edge) {
        self.edges.push(edge);
    }

    /// The unique [`NodeKind::Source`] node, if the graph is well formed.
    #[must_use]
    pub fn source(&self) -> Option<NodeId> {
        self.find_unique(NodeKind::Source)
    }

    /// The unique [`NodeKind::Sink`] node, if the graph is well formed.
    #[must_use]
    pub fn sink(&self) -> Option<NodeId> {
        self.find_unique(NodeKind::Sink)
    }

    fn find_unique(&self, kind: NodeKind) -> Option<NodeId> {
        let mut found = None;
        for (id, n) in self.nodes.iter().enumerate() {
            if n.kind == kind {
                if found.is_some() {
                    return None;
                }
                found = Some(id);
            }
        }
        found
    }

    fn edge_name(&self, e: &Edge) -> String {
        format!("{}->{}", self.nodes[e.from].name, self.nodes[e.to].name)
    }

    fn name_some(&self, items: &[String]) -> String {
        let shown: Vec<&str> = items.iter().take(MAX_NAMED).map(String::as_str).collect();
        if items.len() > MAX_NAMED {
            format!("{} (+{} more)", shown.join(", "), items.len() - MAX_NAMED)
        } else {
            shown.join(", ")
        }
    }

    /// Structural validation (`BON037`): edge endpoints must exist and
    /// exactly one source and one sink must be present.
    #[must_use]
    pub fn validate(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let dangling: Vec<String> = self
            .edges
            .iter()
            .enumerate()
            .filter(|(_, e)| e.from >= self.nodes.len() || e.to >= self.nodes.len())
            .map(|(i, e)| format!("edge#{i}({}->{})", e.from, e.to))
            .collect();
        if !dangling.is_empty() {
            out.push(
                Diagnostic::error(
                    codes::GRAPH_MALFORMED,
                    "graph edge references a node that does not exist",
                )
                .with("dangling", self.name_some(&dangling)),
            );
        }
        if self.source().is_none() || self.sink().is_none() {
            out.push(Diagnostic::error(
                codes::GRAPH_MALFORMED,
                "graph must have exactly one source and one sink node",
            ));
        }
        out
    }

    fn adjacency(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for (i, e) in self.edges.iter().enumerate() {
            adj[e.from].push(i);
        }
        adj
    }

    /// Deadlock-freedom analysis (`BON030`, `BON031`).
    ///
    /// `BON030` fires once for the set of zero-credit edges (a producer
    /// that can never obtain a send credit is wedged from cycle 0) and
    /// once per dependency cycle found in the dataflow graph (bounded
    /// FIFOs around a cycle deadlock as soon as they fill). `BON031`
    /// fires once for the set of edges whose FIFO is shallower than the
    /// consuming merger's flush requirement: a `k`-merger must be able
    /// to hold one full `k`-record tuple plus the flush terminal (§V-B),
    /// so its input FIFOs need at least `k + 1` records; every other
    /// edge needs at least 1.
    ///
    /// This analysis looks only at `credits` and `fifo_depth`, never at
    /// `bytes_per_cycle` — the three annotations map one-to-one onto
    /// `BON030`/`BON031`/`BON032` so a single corrupted annotation flips
    /// exactly one diagnostic.
    #[must_use]
    pub fn analyze_deadlock(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();

        let zero_credit: Vec<String> = self
            .edges
            .iter()
            .filter(|e| e.credits == 0)
            .map(|e| self.edge_name(e))
            .collect();
        if !zero_credit.is_empty() {
            out.push(
                Diagnostic::error(
                    codes::GRAPH_DEADLOCK,
                    "zero-credit edge: the producer can never obtain a send credit",
                )
                .with("edges", self.name_some(&zero_credit))
                .with("count", zero_credit.len()),
            );
        }

        if let Some(cycle) = self.find_cycle() {
            let names: Vec<String> = cycle
                .iter()
                .map(|&id| self.nodes[id].name.clone())
                .collect();
            out.push(
                Diagnostic::error(
                    codes::GRAPH_DEADLOCK,
                    "dataflow cycle: bounded FIFOs around a cycle deadlock once full",
                )
                .with("cycle", names.join(" -> ")),
            );
        }

        let shallow: Vec<String> = self
            .edges
            .iter()
            .filter(|e| {
                e.to < self.nodes.len() && e.fifo_depth < self.min_fifo_for(&self.nodes[e.to].kind)
            })
            .map(|e| {
                format!(
                    "{} (depth {}, need {})",
                    self.edge_name(e),
                    e.fifo_depth,
                    self.min_fifo_for(&self.nodes[e.to].kind)
                )
            })
            .collect();
        if !shallow.is_empty() {
            out.push(
                Diagnostic::error(
                    codes::GRAPH_FIFO_BELOW_FLUSH,
                    "FIFO depth below the consumer's flush requirement (k-record tuple + terminal)",
                )
                .with("edges", self.name_some(&shallow))
                .with("count", shallow.len()),
            );
        }
        out
    }

    /// Minimum FIFO records an input edge into `kind` needs to make
    /// forward progress.
    fn min_fifo_for(&self, kind: &NodeKind) -> u64 {
        match kind {
            NodeKind::Merger { width, .. } | NodeKind::Coupler { width, .. } => *width as u64 + 1,
            _ => 1,
        }
    }

    /// DFS cycle detection over the dataflow edges. Returns one cycle's
    /// node path when the graph is not a DAG.
    fn find_cycle(&self) -> Option<Vec<NodeId>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let adj = self.adjacency();
        let mut color = vec![WHITE; self.nodes.len()];
        let mut parent = vec![usize::MAX; self.nodes.len()];
        for start in 0..self.nodes.len() {
            if color[start] != WHITE {
                continue;
            }
            // Iterative DFS: (node, next edge index in adj).
            let mut stack = vec![(start, 0usize)];
            color[start] = GRAY;
            while let Some(&mut (u, ref mut i)) = stack.last_mut() {
                if *i < adj[u].len() {
                    let e = &self.edges[adj[u][*i]];
                    *i += 1;
                    if e.to >= self.nodes.len() {
                        continue;
                    }
                    match color[e.to] {
                        WHITE => {
                            color[e.to] = GRAY;
                            parent[e.to] = u;
                            stack.push((e.to, 0));
                        }
                        GRAY => {
                            // Found a back edge u -> e.to: unwind the path.
                            let mut path = vec![e.to];
                            let mut v = u;
                            while v != e.to && v != usize::MAX {
                                path.push(v);
                                v = parent[v];
                            }
                            path.reverse();
                            return Some(path);
                        }
                        _ => {}
                    }
                } else {
                    color[u] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }

    /// One Edmonds–Karp run over the `bytes_per_cycle` capacities:
    /// the max-flow value and, per node, whether it ends on the source
    /// side of the min cut. `None` when the graph has no unique
    /// source/sink or an edge dangles (`BON037`'s job).
    fn max_flow_and_source_side(&self) -> Option<(u64, Vec<bool>)> {
        let (s, t) = (self.source()?, self.sink()?);
        let n = self.nodes.len();
        if self.edges.iter().any(|e| e.from >= n || e.to >= n) {
            return None;
        }
        // Residual arcs: forward = edge index, backward = edge index + E.
        let e_count = self.edges.len();
        let mut cap: Vec<u64> = self
            .edges
            .iter()
            .map(|e| e.bytes_per_cycle)
            .chain(std::iter::repeat_n(0, e_count))
            .collect();
        let mut radj = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            radj[e.from].push(i);
            radj[e.to].push(i + e_count);
        }
        let arc_ends = |i: usize| -> (usize, usize) {
            if i < e_count {
                (self.edges[i].from, self.edges[i].to)
            } else {
                (self.edges[i - e_count].to, self.edges[i - e_count].from)
            }
        };
        let mut flow = 0u64;
        loop {
            // BFS for an augmenting path.
            let mut pred_arc = vec![usize::MAX; n];
            let mut seen = vec![false; n];
            let mut queue = std::collections::VecDeque::from([s]);
            seen[s] = true;
            while let Some(u) = queue.pop_front() {
                for &arc in &radj[u] {
                    let (_, v) = arc_ends(arc);
                    if !seen[v] && cap[arc] > 0 {
                        seen[v] = true;
                        pred_arc[v] = arc;
                        queue.push_back(v);
                    }
                }
            }
            if !seen[t] {
                // Saturated: `seen` is the source side of the min cut.
                return Some((flow, seen));
            }
            // Bottleneck along the path.
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let arc = pred_arc[v];
                bottleneck = bottleneck.min(cap[arc]);
                v = arc_ends(arc).0;
            }
            let mut v = t;
            while v != s {
                let arc = pred_arc[v];
                cap[arc] -= bottleneck;
                let rev = if arc < e_count {
                    arc + e_count
                } else {
                    arc - e_count
                };
                cap[rev] += bottleneck;
                v = arc_ends(arc).0;
            }
            flow += bottleneck;
        }
    }

    /// Maximum sustained byte rate per cycle from source to sink.
    /// Returns `None` when the graph is malformed (`BON037`).
    #[must_use]
    pub fn max_flow_bytes_per_cycle(&self) -> Option<u64> {
        self.max_flow_and_source_side().map(|(flow, _)| flow)
    }

    /// Edge indices forming the min cut: the edges crossing from the
    /// source side of the saturated residual graph. Empty when the
    /// graph is malformed.
    #[must_use]
    pub fn min_cut_edges(&self) -> Vec<usize> {
        self.max_flow_and_source_side()
            .map_or_else(Vec::new, |(_, side)| self.cut_edges(&side))
    }

    fn cut_edges(&self, source_side: &[bool]) -> Vec<usize> {
        self.edges
            .iter()
            .enumerate()
            .filter(|(_, e)| source_side[e.from] && !source_side[e.to])
            .map(|(i, _)| i)
            .collect()
    }

    /// Bandwidth-feasibility analysis (`BON032`): the max-flow from the
    /// source to the sink must reach `required_bytes_per_cycle`. On
    /// failure the min-cut localizes the bottleneck edges in the
    /// diagnostic instead of just failing.
    #[must_use]
    pub fn analyze_bandwidth(&self, required_bytes_per_cycle: u64) -> Vec<Diagnostic> {
        match self.max_flow_and_source_side() {
            Some((flow, side)) => self.bandwidth_findings(required_bytes_per_cycle, flow, &side),
            None => Vec::new(), // structural errors are BON037's job
        }
    }

    fn bandwidth_findings(
        &self,
        required_bytes_per_cycle: u64,
        flow: u64,
        source_side: &[bool],
    ) -> Vec<Diagnostic> {
        if flow >= required_bytes_per_cycle {
            return Vec::new();
        }
        let cut: Vec<String> = self
            .cut_edges(source_side)
            .iter()
            .map(|&i| {
                let e = &self.edges[i];
                format!("{} ({} B/cyc)", self.edge_name(e), e.bytes_per_cycle)
            })
            .collect();
        vec![Diagnostic::error(
            codes::GRAPH_BANDWIDTH_INFEASIBLE,
            "pipeline min-cut bandwidth is below the required sustained throughput",
        )
        .with("max_flow_bytes_per_cycle", flow)
        .with("required_bytes_per_cycle", required_bytes_per_cycle)
        .with("bottleneck", self.name_some(&cut))]
    }

    /// Static pipeline-fill latency: the longest source→sink path,
    /// summing node latencies. Returns `None` if the graph is cyclic or
    /// has no unique source/sink (those are deadlock/structural errors).
    #[must_use]
    pub fn critical_path_cycles(&self) -> Option<u64> {
        let (s, t) = (self.source()?, self.sink()?);
        if self.find_cycle().is_some() {
            return None;
        }
        // Longest path over the DAG in topological order (Kahn).
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            if e.to < n {
                indeg[e.to] += 1;
            }
        }
        let adj = self.adjacency();
        let mut order = Vec::with_capacity(n);
        let mut queue: std::collections::VecDeque<usize> =
            (0..n).filter(|&i| indeg[i] == 0).collect();
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for &ei in &adj[u] {
                let v = self.edges[ei].to;
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        let mut best: Vec<Option<u64>> = vec![None; n];
        best[s] = Some(self.nodes[s].latency_cycles);
        for &u in &order {
            let Some(b) = best[u] else { continue };
            for &ei in &adj[u] {
                let v = self.edges[ei].to;
                let cand = b + self.nodes[v].latency_cycles;
                if best[v].is_none_or(|cur| cand > cur) {
                    best[v] = Some(cand);
                }
            }
        }
        best[t]
    }

    /// Dead-component analysis (`BON034`, `BON035`): every non-virtual
    /// node must lie on some source→sink path, and every memory channel
    /// must be backed by at least one physical bank.
    #[must_use]
    pub fn analyze_dead_components(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        if let (Some(s), Some(t)) = (self.source(), self.sink()) {
            let fwd = self.reachable(s, false);
            let bwd = self.reachable(t, true);
            let dead: Vec<String> = (0..self.nodes.len())
                .filter(|&i| i != s && i != t && !(fwd[i] && bwd[i]))
                .map(|i| self.nodes[i].name.clone())
                .collect();
            if !dead.is_empty() {
                out.push(
                    Diagnostic::error(
                        codes::GRAPH_DEAD_COMPONENT,
                        "node lies on no source->sink dataflow path (dead hardware)",
                    )
                    .with("nodes", self.name_some(&dead))
                    .with("count", dead.len()),
                );
            }
        }
        let zero_bank: Vec<String> = self
            .nodes
            .iter()
            .filter(|n| matches!(n.kind, NodeKind::MemoryChannel { banks: 0, .. }))
            .map(|n| n.name.clone())
            .collect();
        if !zero_bank.is_empty() {
            out.push(
                Diagnostic::error(
                    codes::GRAPH_CHANNEL_ZERO_BANKS,
                    "memory channel has zero assigned banks",
                )
                .with("channels", self.name_some(&zero_bank))
                .with("count", zero_bank.len()),
            );
        }
        out
    }

    fn reachable(&self, from: NodeId, reverse: bool) -> Vec<bool> {
        let mut adj = vec![Vec::new(); self.nodes.len()];
        for e in &self.edges {
            if e.from < self.nodes.len() && e.to < self.nodes.len() {
                if reverse {
                    adj[e.to].push(e.from);
                } else {
                    adj[e.from].push(e.to);
                }
            }
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(u) = stack.pop() {
            for &v in &adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// Runs structure, deadlock, bandwidth and dead-component analyses
    /// in order, with one max-flow run whose value is handed back so
    /// the latency certification (which additionally needs the
    /// analytical model and lives in `bonsai-model::check`) reuses it.
    #[must_use]
    pub fn analyze_all(&self, required_bytes_per_cycle: u64) -> GraphAnalysis {
        let mut diagnostics = self.validate();
        if !diagnostics.is_empty() {
            // The other passes assume a structurally sound graph.
            return GraphAnalysis {
                diagnostics,
                max_flow_bytes_per_cycle: None,
            };
        }
        diagnostics.extend(self.analyze_deadlock());
        let flow = self.max_flow_and_source_side();
        if let Some((flow, side)) = &flow {
            diagnostics.extend(self.bandwidth_findings(required_bytes_per_cycle, *flow, side));
        }
        diagnostics.extend(self.analyze_dead_components());
        GraphAnalysis {
            diagnostics,
            max_flow_bytes_per_cycle: flow.map(|(flow, _)| flow),
        }
    }

    // --- Emitters --------------------------------------------------------

    /// Renders the graph as Graphviz DOT.
    #[must_use]
    pub fn to_dot(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("digraph bonsai_pipeline {\n  rankdir=LR;\n");
        for (i, n) in self.nodes.iter().enumerate() {
            let shape = match n.kind {
                NodeKind::Source | NodeKind::Sink => "circle",
                NodeKind::MemoryChannel { .. } => "cylinder",
                NodeKind::Loader | NodeKind::WriteDrain => "box",
                NodeKind::Merger { .. } => "trapezium",
                NodeKind::Coupler { .. } => "hexagon",
            };
            let _ = writeln!(
                s,
                "  n{i} [label=\"{}\\n{}\" shape={shape}];",
                escape(&n.name),
                n.kind.kind_str()
            );
        }
        for e in &self.edges {
            let _ = writeln!(
                s,
                "  n{} -> n{} [label=\"{}B/cyc f={} c={}\"];",
                e.from, e.to, e.bytes_per_cycle, e.fifo_depth, e.credits
            );
        }
        s.push_str("}\n");
        s
    }

    /// Serializes the graph to the documented JSON schema
    /// (`docs/GRAPH_IR.md`). [`PipelineGraph::from_json`] round-trips it.
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::from("{\"version\":1,\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"kind\":\"{}\"",
                escape(&n.name),
                n.kind.kind_str()
            );
            match n.kind {
                NodeKind::MemoryChannel { banks, write } => {
                    let _ = write!(s, ",\"banks\":{banks},\"write\":{write}");
                }
                NodeKind::Merger { level, width } | NodeKind::Coupler { level, width } => {
                    let _ = write!(s, ",\"level\":{level},\"width\":{width}");
                }
                _ => {}
            }
            let _ = write!(s, ",\"latency_cycles\":{}}}", n.latency_cycles);
        }
        s.push_str("],\"edges\":[");
        for (i, e) in self.edges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"from\":{},\"to\":{},\"fifo_depth\":{},\"credits\":{},\"bytes_per_cycle\":{}}}",
                e.from, e.to, e.fifo_depth, e.credits, e.bytes_per_cycle
            );
        }
        s.push_str("]}");
        s
    }

    /// Parses a graph from the documented JSON schema. Structural
    /// problems (dangling edges) are *not* rejected here — they surface
    /// as `BON037` from [`PipelineGraph::validate`] so tooling can load
    /// and inspect a broken dump.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let obj = v.as_obj().ok_or("top level must be an object")?;
        let version = json::get(obj, "version")
            .and_then(json::Value::as_u64)
            .ok_or("missing integer field: version")?;
        if version != 1 {
            return Err(format!("unsupported graph schema version {version}"));
        }
        let mut g = PipelineGraph::new();
        for nv in json::get(obj, "nodes")
            .and_then(json::Value::as_arr)
            .ok_or("missing array field: nodes")?
        {
            let n = nv.as_obj().ok_or("node must be an object")?;
            let name = json::get(n, "name")
                .and_then(json::Value::as_str)
                .ok_or("node missing string field: name")?;
            let kind_str = json::get(n, "kind")
                .and_then(json::Value::as_str)
                .ok_or("node missing string field: kind")?;
            let u = |key: &str| -> Result<u64, String> {
                json::get(n, key)
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("node {name} missing integer field: {key}"))
            };
            let kind = match kind_str {
                "source" => NodeKind::Source,
                "sink" => NodeKind::Sink,
                "loader" => NodeKind::Loader,
                "write_drain" => NodeKind::WriteDrain,
                "memory_channel" => NodeKind::MemoryChannel {
                    banks: u("banks")? as usize,
                    write: json::get(n, "write")
                        .and_then(json::Value::as_bool)
                        .ok_or_else(|| format!("node {name} missing bool field: write"))?,
                },
                "merger" => NodeKind::Merger {
                    level: u("level")? as usize,
                    width: u("width")? as usize,
                },
                "coupler" => NodeKind::Coupler {
                    level: u("level")? as usize,
                    width: u("width")? as usize,
                },
                other => return Err(format!("unknown node kind: {other}")),
            };
            g.add_node(name, kind, u("latency_cycles")?);
        }
        for ev in json::get(obj, "edges")
            .and_then(json::Value::as_arr)
            .ok_or("missing array field: edges")?
        {
            let e = ev.as_obj().ok_or("edge must be an object")?;
            let u = |key: &str| -> Result<u64, String> {
                json::get(e, key)
                    .and_then(json::Value::as_u64)
                    .ok_or_else(|| format!("edge missing integer field: {key}"))
            };
            g.add_edge(Edge {
                from: u("from")? as usize,
                to: u("to")? as usize,
                fifo_depth: u("fifo_depth")?,
                credits: u("credits")?,
                bytes_per_cycle: u("bytes_per_cycle")?,
            });
        }
        Ok(g)
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// A minimal JSON reader for the graph schema: objects, arrays, strings
/// (with basic escapes), non-negative integers, booleans and null. The
/// workspace is deliberately dependency-free, so this lives here rather
/// than pulling in a serde stack for one fixed schema.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// `null`
        Null,
        /// `true` / `false`
        Bool(bool),
        /// Non-negative integer (the schema has no floats or negatives).
        UInt(u64),
        /// String
        Str(String),
        /// Array
        Arr(Vec<Value>),
        /// Object as ordered key/value pairs.
        Obj(Vec<(String, Value)>),
    }

    impl Value {
        pub fn as_obj(&self) -> Option<&[(String, Value)]> {
            match self {
                Value::Obj(m) => Some(m),
                _ => None,
            }
        }
        pub fn as_arr(&self) -> Option<&[Value]> {
            match self {
                Value::Arr(a) => Some(a),
                _ => None,
            }
        }
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::UInt(n) => Some(*n),
                _ => None,
            }
        }
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Field lookup on an object.
    pub fn get<'a>(obj: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
        obj.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parses `text` as a single JSON value (trailing whitespace only).
    pub fn parse(text: &str) -> Result<Value, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(v)
    }

    fn skip_ws(b: &[u8], pos: &mut usize) {
        while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    }

    fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
        if *pos < b.len() && b[*pos] == c {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, *pos))
        }
    }

    fn parse_value(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b'{') => parse_obj(b, pos),
            Some(b'[') => parse_arr(b, pos),
            Some(b'"') => Ok(Value::Str(parse_string(b, pos)?)),
            Some(b't') => parse_lit(b, pos, b"true", Value::Bool(true)),
            Some(b'f') => parse_lit(b, pos, b"false", Value::Bool(false)),
            Some(b'n') => parse_lit(b, pos, b"null", Value::Null),
            Some(c) if c.is_ascii_digit() => parse_uint(b, pos),
            _ => Err(format!("unexpected input at byte {}", *pos)),
        }
    }

    fn parse_lit(b: &[u8], pos: &mut usize, lit: &[u8], v: Value) -> Result<Value, String> {
        if b.len() - *pos >= lit.len() && &b[*pos..*pos + lit.len()] == lit {
            *pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", *pos))
        }
    }

    fn parse_uint(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        let start = *pos;
        while *pos < b.len() && b[*pos].is_ascii_digit() {
            *pos += 1;
        }
        if *pos < b.len() && matches!(b[*pos], b'.' | b'e' | b'E' | b'-' | b'+') {
            return Err(format!(
                "the graph schema only uses non-negative integers (byte {})",
                *pos
            ));
        }
        std::str::from_utf8(&b[start..*pos])
            .ok()
            .and_then(|s| s.parse().ok())
            .map(Value::UInt)
            .ok_or_else(|| format!("invalid number at byte {start}"))
    }

    fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
        expect(b, pos, b'"')?;
        let mut out = Vec::new();
        while *pos < b.len() {
            match b[*pos] {
                b'"' => {
                    *pos += 1;
                    return String::from_utf8(out).map_err(|_| "invalid utf-8 in string".into());
                }
                b'\\' => {
                    *pos += 1;
                    match b.get(*pos) {
                        Some(b'"') => out.push(b'"'),
                        Some(b'\\') => out.push(b'\\'),
                        Some(b'/') => out.push(b'/'),
                        Some(b'n') => out.push(b'\n'),
                        Some(b't') => out.push(b'\t'),
                        Some(b'r') => out.push(b'\r'),
                        _ => return Err(format!("unsupported escape at byte {}", *pos)),
                    }
                    *pos += 1;
                }
                c => {
                    out.push(c);
                    *pos += 1;
                }
            }
        }
        Err("unterminated string".into())
    }

    fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b']') {
            *pos += 1;
            return Ok(Value::Arr(items));
        }
        loop {
            items.push(parse_value(b, pos)?);
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b']') => {
                    *pos += 1;
                    return Ok(Value::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
            }
        }
    }

    fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Value, String> {
        expect(b, pos, b'{')?;
        let mut items = Vec::new();
        skip_ws(b, pos);
        if b.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Ok(Value::Obj(items));
        }
        loop {
            skip_ws(b, pos);
            let key = parse_string(b, pos)?;
            skip_ws(b, pos);
            expect(b, pos, b':')?;
            let value = parse_value(b, pos)?;
            items.push((key, value));
            skip_ws(b, pos);
            match b.get(*pos) {
                Some(b',') => *pos += 1,
                Some(b'}') => {
                    *pos += 1;
                    return Ok(Value::Obj(items));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal healthy pipeline: source -> channel -> loader ->
    /// merger(l1) x2 -> coupler -> root merger -> drain -> channel ->
    /// sink, sized for p=2, r=4 (required 8 B/cyc).
    fn tiny_graph() -> PipelineGraph {
        let mut g = PipelineGraph::new();
        let s = g.add_node("source", NodeKind::Source, 0);
        let cr = g.add_node(
            "chan_r0",
            NodeKind::MemoryChannel {
                banks: 1,
                write: false,
            },
            8,
        );
        let ld = g.add_node("loader", NodeKind::Loader, 1);
        let m1a = g.add_node("merger_l1_0", NodeKind::Merger { level: 1, width: 1 }, 1);
        let m1b = g.add_node("merger_l1_1", NodeKind::Merger { level: 1, width: 1 }, 1);
        let cp = g.add_node("coupler_l0_0", NodeKind::Coupler { level: 0, width: 2 }, 1);
        let root = g.add_node("merger_l0_0", NodeKind::Merger { level: 0, width: 2 }, 1);
        let dr = g.add_node("drain", NodeKind::WriteDrain, 1);
        let cw = g.add_node(
            "chan_w0",
            NodeKind::MemoryChannel {
                banks: 1,
                write: true,
            },
            8,
        );
        let t = g.add_node("sink", NodeKind::Sink, 0);
        let e = |from, to, fifo, credits, bytes| Edge {
            from,
            to,
            fifo_depth: fifo,
            credits,
            bytes_per_cycle: bytes,
        };
        g.add_edge(e(s, cr, 1024, 2, 32));
        g.add_edge(e(cr, ld, 1024, 2, 32));
        g.add_edge(e(ld, m1a, 64, 2, 8));
        g.add_edge(e(ld, m1b, 64, 2, 8));
        g.add_edge(e(m1a, cp, 16, 8, 4));
        g.add_edge(e(m1b, cp, 16, 8, 4));
        g.add_edge(e(cp, root, 16, 8, 8));
        g.add_edge(e(root, dr, 16, 8, 8));
        g.add_edge(e(dr, cw, 1024, 2, 32));
        g.add_edge(e(cw, t, 1024, 2, 32));
        g
    }

    #[test]
    fn healthy_graph_passes_all_analyses() {
        let g = tiny_graph();
        assert!(g.validate().is_empty());
        let all = g.analyze_all(8);
        assert!(all.diagnostics.is_empty(), "{all:?}");
        assert_eq!(all.max_flow_bytes_per_cycle, Some(8));
    }

    #[test]
    fn zero_credit_edge_is_bon030() {
        let mut g = tiny_graph();
        g.edges[2].credits = 0;
        let d = g.analyze_deadlock();
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, codes::GRAPH_DEADLOCK);
    }

    #[test]
    fn dataflow_cycle_is_bon030() {
        let mut g = tiny_graph();
        // Feed the drain back into the loader: a backpressure loop.
        g.add_edge(Edge {
            from: 7,
            to: 2,
            fifo_depth: 16,
            credits: 2,
            bytes_per_cycle: 8,
        });
        let d = g.analyze_deadlock();
        assert!(d.iter().any(|d| d.code == codes::GRAPH_DEADLOCK), "{d:?}");
        let cycle = d.iter().find(|d| d.message.contains("cycle")).unwrap();
        let path = &cycle.context.iter().find(|(k, _)| *k == "cycle").unwrap().1;
        assert!(path.contains("loader") && path.contains("drain"), "{path}");
    }

    #[test]
    fn shallow_fifo_is_bon031() {
        let mut g = tiny_graph();
        // The root is a 2-merger: its input FIFO needs >= 3 records.
        g.edges[6].fifo_depth = 2;
        let d = g.analyze_deadlock();
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].code, codes::GRAPH_FIFO_BELOW_FLUSH);
    }

    #[test]
    fn min_cut_localizes_the_bottleneck() {
        let mut g = tiny_graph();
        // Starve one leaf merger: flow drops to 4 + 8 capped by... the
        // two leaf edges now carry 8 + 2 = 10, but merger_l1_a's output
        // edge caps its side at 4 anyway; required 8 still feasible.
        // Throttle the root edge instead: hard bottleneck of 4 B/cyc.
        g.edges[7].bytes_per_cycle = 4;
        assert_eq!(g.max_flow_bytes_per_cycle(), Some(4));
        let d = g.analyze_bandwidth(8);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::GRAPH_BANDWIDTH_INFEASIBLE);
        let cut = &d[0]
            .context
            .iter()
            .find(|(k, _)| *k == "bottleneck")
            .unwrap()
            .1;
        assert!(cut.contains("merger_l0_0->drain"), "{cut}");
    }

    #[test]
    fn max_flow_matches_hand_computation() {
        let g = tiny_graph();
        // Leaf edges carry 8 each but each l1 merger only outputs 4;
        // coupler/root carry 8: max flow is 8.
        assert_eq!(g.max_flow_bytes_per_cycle(), Some(8));
    }

    #[test]
    fn dead_node_is_bon034_and_zero_bank_channel_is_bon035() {
        let mut g = tiny_graph();
        g.add_node("orphan_merger", NodeKind::Merger { level: 3, width: 1 }, 1);
        g.add_node(
            "chan_r_dead",
            NodeKind::MemoryChannel {
                banks: 0,
                write: false,
            },
            8,
        );
        let d = g.analyze_dead_components();
        let codes_seen: Vec<_> = d.iter().map(|d| d.code).collect();
        assert!(codes_seen.contains(&codes::GRAPH_DEAD_COMPONENT), "{d:?}");
        assert!(
            codes_seen.contains(&codes::GRAPH_CHANNEL_ZERO_BANKS),
            "{d:?}"
        );
    }

    #[test]
    fn dangling_edge_is_bon037() {
        let mut g = tiny_graph();
        g.add_edge(Edge {
            from: 0,
            to: 999,
            fifo_depth: 1,
            credits: 1,
            bytes_per_cycle: 1,
        });
        let d = g.validate();
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].code, codes::GRAPH_MALFORMED);
        // analyze_all stops at structural errors.
        assert_eq!(g.analyze_all(8).diagnostics.len(), 1);
        // Both faces of the max-flow helper decline the graph instead
        // of indexing past the node list (`from_json` admits it).
        assert_eq!(g.max_flow_bytes_per_cycle(), None);
        assert_eq!(g.min_cut_edges(), Vec::<usize>::new());
        assert!(g.analyze_bandwidth(8).is_empty());
    }

    #[test]
    fn missing_source_is_bon037() {
        let mut g = tiny_graph();
        g.nodes[0].kind = NodeKind::Loader;
        assert!(g
            .validate()
            .iter()
            .any(|d| d.code == codes::GRAPH_MALFORMED));
    }

    #[test]
    fn critical_path_sums_longest_route() {
        let g = tiny_graph();
        // source(0) + chan(8) + loader(1) + merger_l1(1) + coupler(1) +
        // root(1) + drain(1) + chan_w(8) + sink(0) = 21.
        assert_eq!(g.critical_path_cycles(), Some(21));
    }

    #[test]
    fn json_round_trips_exactly() {
        let g = tiny_graph();
        let text = g.to_json();
        let back = PipelineGraph::from_json(&text).expect("round trip");
        assert_eq!(g, back);
        // And the re-serialization is stable.
        assert_eq!(text, back.to_json());
    }

    #[test]
    fn json_rejects_garbage_and_wrong_versions() {
        assert!(PipelineGraph::from_json("not json").is_err());
        assert!(PipelineGraph::from_json("{\"version\":2,\"nodes\":[],\"edges\":[]}").is_err());
        assert!(PipelineGraph::from_json("{\"version\":1,\"nodes\":[]}").is_err());
        // Floats are not part of the schema.
        assert!(PipelineGraph::from_json("{\"version\":1.5,\"nodes\":[],\"edges\":[]}").is_err());
    }

    #[test]
    fn json_with_escapes_round_trips() {
        let mut g = PipelineGraph::new();
        g.add_node("weird\"name\\x", NodeKind::Source, 0);
        g.add_node("sink", NodeKind::Sink, 0);
        let back = PipelineGraph::from_json(&g.to_json()).unwrap();
        assert_eq!(g, back);
    }

    #[test]
    fn dot_mentions_every_node_and_edge() {
        let g = tiny_graph();
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph bonsai_pipeline {"));
        for (i, _) in g.nodes.iter().enumerate() {
            assert!(dot.contains(&format!("n{i} ")), "missing node n{i}");
        }
        assert_eq!(dot.matches(" -> ").count(), g.edges.len());
        assert!(dot.trim_end().ends_with('}'));
    }
}
