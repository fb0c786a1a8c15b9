//! The application `Γ`: a set of process graphs plus their messages, with
//! derived adjacency, topological orders and the hyper-period.

use std::collections::HashMap;

use crate::architecture::Architecture;
use crate::error::ModelError;
use crate::graph::ProcessGraph;
use crate::ids::{GraphId, MessageId, NodeId, ProcessId};
use crate::message::Message;
use crate::process::Process;
use crate::time::{lcm, Time};

/// A dependency arc of a process graph.
///
/// Arcs between processes on the same node are plain precedence constraints
/// (the communication cost is folded into the sender's WCET, paper §2.1);
/// arcs between processes on different nodes carry a [`Message`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Edge {
    /// The predecessor process.
    pub source: ProcessId,
    /// The successor process.
    pub dest: ProcessId,
    /// The message inserted on the arc, if the endpoints are on different
    /// nodes.
    pub message: Option<MessageId>,
}

/// An application `Γ` mapped on an architecture: process graphs, processes,
/// messages, and derived structure.
///
/// Build one with [`Application::builder`]; the builder validates the model
/// against the target [`Architecture`] (mapping, acyclicity, deadlines).
///
/// # Examples
///
/// ```
/// use mcs_model::{Application, Architecture, NodeRole, Time};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut arch = Architecture::builder();
/// let n1 = arch.add_node("N1", NodeRole::TimeTriggered);
/// let n2 = arch.add_node("N2", NodeRole::EventTriggered);
/// arch.add_node("NG", NodeRole::Gateway);
/// let arch = arch.build()?;
///
/// let mut app = Application::builder();
/// let g = app.add_graph("G1", Time::from_millis(240), Time::from_millis(200));
/// let p1 = app.add_process(g, "P1", n1, Time::from_millis(30));
/// let p2 = app.add_process(g, "P2", n2, Time::from_millis(20));
/// app.link(p1, p2, 8); // cross-node: a message is inserted on the arc
/// let app = app.build(&arch)?;
/// assert_eq!(app.messages().len(), 1);
/// assert_eq!(app.hyperperiod(), Time::from_millis(240));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Application {
    graphs: Vec<ProcessGraph>,
    processes: Vec<Process>,
    messages: Vec<Message>,
    edges: Vec<Edge>,
    /// Outgoing arcs per process.
    succs: Vec<Vec<Edge>>,
    /// Incoming arcs per process.
    preds: Vec<Vec<Edge>>,
    /// Topological order of each graph's processes.
    topo: Vec<Vec<ProcessId>>,
    hyperperiod: Time,
}

impl Application {
    /// Starts building an application.
    pub fn builder() -> ApplicationBuilder {
        ApplicationBuilder::default()
    }

    /// The process graphs, ordered by id.
    pub fn graphs(&self) -> &[ProcessGraph] {
        &self.graphs
    }

    /// The processes, ordered by id.
    pub fn processes(&self) -> &[Process] {
        &self.processes
    }

    /// The messages, ordered by id.
    pub fn messages(&self) -> &[Message] {
        &self.messages
    }

    /// All dependency arcs.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Looks up a process graph.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this application.
    pub fn graph(&self, id: GraphId) -> &ProcessGraph {
        &self.graphs[id.index()]
    }

    /// Looks up a process.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this application.
    pub fn process(&self, id: ProcessId) -> &Process {
        &self.processes[id.index()]
    }

    /// Looks up a message.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this application.
    pub fn message(&self, id: MessageId) -> &Message {
        &self.messages[id.index()]
    }

    /// Outgoing arcs of a process.
    pub fn successors(&self, id: ProcessId) -> &[Edge] {
        &self.succs[id.index()]
    }

    /// Incoming arcs of a process.
    pub fn predecessors(&self, id: ProcessId) -> &[Edge] {
        &self.preds[id.index()]
    }

    /// The period of the graph a process belongs to.
    pub fn process_period(&self, id: ProcessId) -> Time {
        self.graph(self.process(id).graph()).period()
    }

    /// The period of a message (identical to its sender's graph period).
    pub fn message_period(&self, id: MessageId) -> Time {
        self.graph(self.message(id).graph()).period()
    }

    /// A topological order of the processes of `graph`.
    pub fn topological_order(&self, graph: GraphId) -> &[ProcessId] {
        &self.topo[graph.index()]
    }

    /// Source processes (no predecessors) of a graph.
    pub fn sources(&self, graph: GraphId) -> Vec<ProcessId> {
        self.graph(graph)
            .processes()
            .iter()
            .copied()
            .filter(|&p| self.preds[p.index()].is_empty())
            .collect()
    }

    /// Sink processes (no successors) of a graph.
    pub fn sinks(&self, graph: GraphId) -> Vec<ProcessId> {
        self.graph(graph)
            .processes()
            .iter()
            .copied()
            .filter(|&p| self.succs[p.index()].is_empty())
            .collect()
    }

    /// The hyper-period: LCM of all graph periods.
    pub fn hyperperiod(&self) -> Time {
        self.hyperperiod
    }

    /// Processes mapped on `node`, in id order.
    pub fn processes_on(&self, node: NodeId) -> impl Iterator<Item = &Process> + '_ {
        self.processes.iter().filter(move |p| p.node() == node)
    }

    /// Messages whose sender is mapped on `node`, in id order.
    pub fn messages_from(&self, node: NodeId) -> impl Iterator<Item = &Message> + '_ {
        self.messages
            .iter()
            .filter(move |m| self.process(m.source()).node() == node)
    }

    /// Returns a copy of the application with `process`'s WCET replaced —
    /// the primitive of WCET sensitivity analysis.
    ///
    /// The BCET is clamped down to the new WCET if necessary.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ZeroWcet`] if `wcet` is zero.
    pub fn with_wcet(&self, process: ProcessId, wcet: Time) -> Result<Application, ModelError> {
        if wcet.is_zero() {
            return Err(ModelError::ZeroWcet(process));
        }
        let mut copy = self.clone();
        let p = &mut copy.processes[process.index()];
        p.set_wcet(wcet);
        if p.bcet() > wcet {
            p.set_bcet(wcet);
        }
        Ok(copy)
    }

    /// CPU utilization of `node`: sum over mapped processes of `C_i / T_i`.
    pub fn node_utilization(&self, node: NodeId) -> f64 {
        self.processes_on(node)
            .map(|p| p.wcet().ticks() as f64 / self.process_period(p.id()).ticks() as f64)
            .sum()
    }
}

/// Builder for [`Application`].
#[derive(Clone, Debug, Default)]
pub struct ApplicationBuilder {
    graphs: Vec<ProcessGraph>,
    processes: Vec<Process>,
    links: Vec<(ProcessId, ProcessId, u32)>,
    bcets: HashMap<ProcessId, Time>,
    local_deadlines: HashMap<ProcessId, Time>,
    blockings: HashMap<ProcessId, Time>,
}

impl ApplicationBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a process graph with the given period and end-to-end deadline.
    pub fn add_graph(&mut self, name: impl Into<String>, period: Time, deadline: Time) -> GraphId {
        let id = GraphId::new(self.graphs.len() as u32);
        self.graphs
            .push(ProcessGraph::new(id, name.into(), period, deadline));
        id
    }

    /// Adds a process to `graph`, mapped on `node`, with the given WCET.
    ///
    /// # Panics
    ///
    /// Panics if `graph` was not created by this builder.
    pub fn add_process(
        &mut self,
        graph: GraphId,
        name: impl Into<String>,
        node: NodeId,
        wcet: Time,
    ) -> ProcessId {
        let id = ProcessId::new(self.processes.len() as u32);
        self.processes
            .push(Process::new(id, name.into(), graph, node, wcet));
        self.graphs[graph.index()].push_process(id);
        id
    }

    /// Adds a dependency arc from `source` to `dest`.
    ///
    /// If the two processes are mapped on different nodes, a message of
    /// `size_bytes` is inserted on the arc at [`build`](Self::build) time;
    /// otherwise the size is ignored and the arc is a plain precedence
    /// constraint.
    pub fn link(&mut self, source: ProcessId, dest: ProcessId, size_bytes: u32) -> &mut Self {
        self.links.push((source, dest, size_bytes));
        self
    }

    /// Sets the best-case execution time of a process (simulator input).
    pub fn set_bcet(&mut self, process: ProcessId, bcet: Time) -> &mut Self {
        self.bcets.insert(process, bcet);
        self
    }

    /// Sets a local deadline on a process.
    pub fn set_local_deadline(&mut self, process: ProcessId, deadline: Time) -> &mut Self {
        self.local_deadlines.insert(process, deadline);
        self
    }

    /// Sets the blocking bound `B_i` of a process.
    pub fn set_blocking(&mut self, process: ProcessId, blocking: Time) -> &mut Self {
        self.blockings.insert(process, blocking);
        self
    }

    /// Remaps a process to a different node (used by design-space exploration
    /// before `build`).
    pub fn set_node(&mut self, process: ProcessId, node: NodeId) -> &mut Self {
        self.processes[process.index()].set_node(node);
        self
    }

    /// Validates the model against `arch` and produces the [`Application`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError`] if a process references an unknown node, a
    /// graph has a non-positive period or a deadline exceeding its period, a
    /// link crosses graphs, a message has zero size, a graph is cyclic, or a
    /// process's BCET exceeds its WCET.
    pub fn build(mut self, arch: &Architecture) -> Result<Application, ModelError> {
        for (&pid, &bcet) in &self.bcets {
            if bcet > self.processes[pid.index()].wcet() {
                return Err(ModelError::BcetExceedsWcet(pid));
            }
            self.processes[pid.index()].set_bcet(bcet);
        }
        for (&pid, &d) in &self.local_deadlines {
            self.processes[pid.index()].set_local_deadline(Some(d));
        }
        for (&pid, &b) in &self.blockings {
            self.processes[pid.index()].set_blocking(b);
        }

        for graph in &self.graphs {
            if graph.period().is_zero() {
                return Err(ModelError::ZeroPeriod(graph.id()));
            }
            if graph.deadline().is_zero() || graph.deadline() > graph.period() {
                return Err(ModelError::InvalidDeadline(graph.id()));
            }
            if graph.is_empty() {
                return Err(ModelError::EmptyGraph(graph.id()));
            }
        }
        for process in &self.processes {
            if !arch.contains_node(process.node()) {
                return Err(ModelError::UnknownNode(process.id()));
            }
            if process.wcet().is_zero() {
                return Err(ModelError::ZeroWcet(process.id()));
            }
        }

        let mut messages = Vec::new();
        let mut edges = Vec::new();
        for &(src, dst, size) in &self.links {
            let (ps, pd) = (&self.processes[src.index()], &self.processes[dst.index()]);
            if ps.graph() != pd.graph() {
                return Err(ModelError::CrossGraphLink(src, dst));
            }
            let message = if ps.node() != pd.node() {
                if size == 0 {
                    return Err(ModelError::ZeroSizeMessage(src, dst));
                }
                let id = MessageId::new(messages.len() as u32);
                messages.push(Message::new(
                    id,
                    format!("m{}", id.raw()),
                    ps.graph(),
                    src,
                    dst,
                    size,
                ));
                Some(id)
            } else {
                None
            };
            edges.push(Edge {
                source: src,
                dest: dst,
                message,
            });
        }

        let n = self.processes.len();
        let mut succs = vec![Vec::new(); n];
        let mut preds = vec![Vec::new(); n];
        for &edge in &edges {
            succs[edge.source.index()].push(edge);
            preds[edge.dest.index()].push(edge);
        }

        // Kahn's algorithm per graph; detects cycles. Every edge stays
        // within one graph (cross-graph links are rejected above), so one
        // dense in-degree table serves all graphs.
        let mut indeg: Vec<usize> = preds.iter().map(Vec::len).collect();
        let mut topo = Vec::with_capacity(self.graphs.len());
        for graph in &self.graphs {
            let mut ready: Vec<ProcessId> = graph
                .processes()
                .iter()
                .copied()
                .filter(|p| indeg[p.index()] == 0)
                .collect();
            let mut order = Vec::with_capacity(graph.len());
            while let Some(p) = ready.pop() {
                order.push(p);
                for edge in &succs[p.index()] {
                    let d = &mut indeg[edge.dest.index()];
                    *d -= 1;
                    if *d == 0 {
                        ready.push(edge.dest);
                    }
                }
            }
            if order.len() != graph.len() {
                return Err(ModelError::CyclicGraph(graph.id()));
            }
            topo.push(order);
        }

        let hyperperiod = self
            .graphs
            .iter()
            .map(ProcessGraph::period)
            .fold(Time::from_ticks(1), lcm);

        Ok(Application {
            graphs: self.graphs,
            processes: self.processes,
            messages,
            edges,
            succs,
            preds,
            topo,
            hyperperiod,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::architecture::NodeRole;

    fn arch() -> (Architecture, NodeId, NodeId) {
        let mut b = Architecture::builder();
        let n1 = b.add_node("N1", NodeRole::TimeTriggered);
        let n2 = b.add_node("N2", NodeRole::EventTriggered);
        b.add_node("NG", NodeRole::Gateway);
        (b.build().expect("valid"), n1, n2)
    }

    #[test]
    fn cross_node_links_create_messages() {
        let (arch, n1, n2) = arch();
        let mut b = Application::builder();
        let g = b.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        let p1 = b.add_process(g, "P1", n1, Time::from_millis(5));
        let p2 = b.add_process(g, "P2", n2, Time::from_millis(5));
        let p3 = b.add_process(g, "P3", n1, Time::from_millis(5));
        b.link(p1, p2, 8);
        b.link(p1, p3, 16); // same node: no message
        let app = b.build(&arch).expect("valid");
        assert_eq!(app.messages().len(), 1);
        assert_eq!(app.messages()[0].size_bytes(), 8);
        assert_eq!(app.successors(p1).len(), 2);
        assert_eq!(app.predecessors(p2).len(), 1);
        assert!(app.successors(p1)[1].message.is_none());
    }

    #[test]
    fn topological_order_respects_edges() {
        let (arch, n1, _) = arch();
        let mut b = Application::builder();
        let g = b.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        let a = b.add_process(g, "a", n1, Time::from_millis(1));
        let c = b.add_process(g, "c", n1, Time::from_millis(1));
        let d = b.add_process(g, "d", n1, Time::from_millis(1));
        b.link(a, c, 0);
        b.link(c, d, 0);
        let app = b.build(&arch).expect("valid");
        let order = app.topological_order(g);
        let pos = |p: ProcessId| order.iter().position(|&q| q == p).expect("present");
        assert!(pos(a) < pos(c));
        assert!(pos(c) < pos(d));
        assert_eq!(app.sources(g), vec![a]);
        assert_eq!(app.sinks(g), vec![d]);
    }

    #[test]
    fn cycles_are_rejected() {
        let (arch, n1, _) = arch();
        let mut b = Application::builder();
        let g = b.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        let a = b.add_process(g, "a", n1, Time::from_millis(1));
        let c = b.add_process(g, "c", n1, Time::from_millis(1));
        b.link(a, c, 0);
        b.link(c, a, 0);
        assert_eq!(b.build(&arch).unwrap_err(), ModelError::CyclicGraph(g));
    }

    #[test]
    fn deadline_must_not_exceed_period() {
        let (arch, n1, _) = arch();
        let mut b = Application::builder();
        let g = b.add_graph("G", Time::from_millis(100), Time::from_millis(150));
        b.add_process(g, "a", n1, Time::from_millis(1));
        assert_eq!(b.build(&arch).unwrap_err(), ModelError::InvalidDeadline(g));
    }

    #[test]
    fn zero_wcet_and_unknown_node_are_rejected() {
        let (arch, n1, _) = arch();
        let mut b = Application::builder();
        let g = b.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        let p = b.add_process(g, "a", n1, Time::ZERO);
        assert_eq!(b.clone().build(&arch).unwrap_err(), ModelError::ZeroWcet(p));

        let mut b2 = Application::builder();
        let g2 = b2.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        let q = b2.add_process(g2, "a", NodeId::new(99), Time::from_millis(1));
        assert_eq!(b2.build(&arch).unwrap_err(), ModelError::UnknownNode(q));
    }

    #[test]
    fn hyperperiod_is_lcm_of_graph_periods() {
        let (arch, n1, _) = arch();
        let mut b = Application::builder();
        let g1 = b.add_graph("G1", Time::from_millis(60), Time::from_millis(60));
        let g2 = b.add_graph("G2", Time::from_millis(40), Time::from_millis(40));
        b.add_process(g1, "a", n1, Time::from_millis(1));
        b.add_process(g2, "b", n1, Time::from_millis(1));
        let app = b.build(&arch).expect("valid");
        assert_eq!(app.hyperperiod(), Time::from_millis(120));
    }

    #[test]
    fn utilization_sums_over_node() {
        let (arch, n1, n2) = arch();
        let mut b = Application::builder();
        let g = b.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        b.add_process(g, "a", n1, Time::from_millis(25));
        b.add_process(g, "b", n1, Time::from_millis(25));
        b.add_process(g, "c", n2, Time::from_millis(10));
        let app = b.build(&arch).expect("valid");
        assert!((app.node_utilization(n1) - 0.5).abs() < 1e-9);
        assert!((app.node_utilization(n2) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn bcet_cannot_exceed_wcet() {
        let (arch, n1, _) = arch();
        let mut b = Application::builder();
        let g = b.add_graph("G", Time::from_millis(100), Time::from_millis(100));
        let p = b.add_process(g, "a", n1, Time::from_millis(5));
        b.set_bcet(p, Time::from_millis(6));
        assert_eq!(b.build(&arch).unwrap_err(), ModelError::BcetExceedsWcet(p));
    }

    #[test]
    fn cross_graph_links_are_rejected() {
        let (arch, n1, _) = arch();
        let mut b = Application::builder();
        let g1 = b.add_graph("G1", Time::from_millis(100), Time::from_millis(100));
        let g2 = b.add_graph("G2", Time::from_millis(100), Time::from_millis(100));
        let a = b.add_process(g1, "a", n1, Time::from_millis(1));
        let c = b.add_process(g2, "c", n1, Time::from_millis(1));
        b.link(a, c, 4);
        assert_eq!(
            b.build(&arch).unwrap_err(),
            ModelError::CrossGraphLink(a, c)
        );
    }
}
