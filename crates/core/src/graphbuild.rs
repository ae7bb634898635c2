//! Schematic-to-graph conversion (paper §II-B).
//!
//! Devices *and* nets become nodes; every terminal connection becomes two
//! directed edges of opposing types; edge types are keyed by device class
//! and terminal (`net -> transistor_gate`, `transistor_gate -> net`, ...);
//! connections to supply and ground rails are dropped.

use paragraph_gnn::{GraphSchema, HeteroGraph};
use paragraph_netlist::{Circuit, DeviceId, DeviceKind, NetClass, NetId, Terminal};
use paragraph_tensor::Tensor;

use crate::features::{device_features, net_features, FeatureNorm, NodeType};

/// Terminal classes that distinguish edge types (gate vs source vs drain
/// etc.). Symmetric two-terminal passives collapse to a single `Pin`
/// class; diodes keep anode/cathode distinct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TerminalClass {
    /// MOSFET gate.
    Gate,
    /// MOSFET source.
    Source,
    /// MOSFET drain.
    Drain,
    /// MOSFET bulk.
    Bulk,
    /// Resistor/capacitor pin (symmetric).
    Pin,
    /// Diode anode.
    Anode,
    /// Diode cathode.
    Cathode,
    /// BJT collector.
    Collector,
    /// BJT base.
    Base,
    /// BJT emitter.
    Emitter,
}

/// One `(device node type, terminal class)` pair; each pair yields two
/// directed edge types.
pub const EDGE_CLASSES: [(NodeType, TerminalClass); 15] = [
    (NodeType::Transistor, TerminalClass::Gate),
    (NodeType::Transistor, TerminalClass::Source),
    (NodeType::Transistor, TerminalClass::Drain),
    (NodeType::Transistor, TerminalClass::Bulk),
    (NodeType::TransistorThick, TerminalClass::Gate),
    (NodeType::TransistorThick, TerminalClass::Source),
    (NodeType::TransistorThick, TerminalClass::Drain),
    (NodeType::TransistorThick, TerminalClass::Bulk),
    (NodeType::Resistor, TerminalClass::Pin),
    (NodeType::Capacitor, TerminalClass::Pin),
    (NodeType::Diode, TerminalClass::Anode),
    (NodeType::Diode, TerminalClass::Cathode),
    (NodeType::Bjt, TerminalClass::Collector),
    (NodeType::Bjt, TerminalClass::Base),
    (NodeType::Bjt, TerminalClass::Emitter),
];

/// Total directed edge types: one `net -> terminal` and one
/// `terminal -> net` per class.
pub const NUM_EDGE_TYPES: usize = EDGE_CLASSES.len() * 2;

fn terminal_class(kind: DeviceKind, terminal: Terminal) -> TerminalClass {
    match (kind, terminal) {
        (DeviceKind::Mosfet { .. }, Terminal::Gate) => TerminalClass::Gate,
        (DeviceKind::Mosfet { .. }, Terminal::Source) => TerminalClass::Source,
        (DeviceKind::Mosfet { .. }, Terminal::Drain) => TerminalClass::Drain,
        (DeviceKind::Mosfet { .. }, Terminal::Bulk) => TerminalClass::Bulk,
        (DeviceKind::Resistor | DeviceKind::Capacitor, _) => TerminalClass::Pin,
        (DeviceKind::Diode, Terminal::Pos) => TerminalClass::Anode,
        (DeviceKind::Diode, Terminal::Neg) => TerminalClass::Cathode,
        (DeviceKind::Bjt { .. }, Terminal::Collector) => TerminalClass::Collector,
        (DeviceKind::Bjt { .. }, Terminal::Base) => TerminalClass::Base,
        (DeviceKind::Bjt { .. }, Terminal::Emitter) => TerminalClass::Emitter,
        (kind, terminal) => unreachable!("no class for {kind:?}/{terminal:?}"),
    }
}

/// Human-readable name of a directed edge type, in the paper's notation
/// (`net -> transistor_gate`, `transistor_gate -> net`, ...).
pub fn edge_type_name(edge_type: usize) -> String {
    let (device, class) = EDGE_CLASSES[edge_type / 2];
    let device_to_net = edge_type % 2 == 1;
    let terminal = format!("{}_{:?}", device.name(), class).to_lowercase();
    if device_to_net {
        format!("{terminal} -> net")
    } else {
        format!("net -> {terminal}")
    }
}

/// Edge-type index for `(device type, terminal class)`, with
/// `device_to_net` selecting the direction.
pub fn edge_type(device: NodeType, class: TerminalClass, device_to_net: bool) -> usize {
    let idx = EDGE_CLASSES
        .iter()
        .position(|(d, c)| *d == device && *c == class)
        .expect("valid edge class");
    idx * 2 + usize::from(device_to_net)
}

/// The fixed schema shared by every circuit graph.
pub fn circuit_schema() -> GraphSchema {
    GraphSchema {
        node_feat_dims: NodeType::ALL.iter().map(|t| t.feat_dim()).collect(),
        num_edge_types: NUM_EDGE_TYPES,
    }
}

/// A circuit converted to a heterogeneous graph, with the net/device <->
/// node correspondence.
#[derive(Debug, Clone)]
pub struct CircuitGraph {
    /// The graph (raw, un-normalised features until
    /// [`CircuitGraph::normalize`] is applied).
    pub graph: HeteroGraph,
    /// Graph node per net (`None` for supply/ground).
    pub net_node: Vec<Option<u32>>,
    /// Graph node per device.
    pub device_node: Vec<u32>,
    /// Inverse: net id of each graph node, when it is a net node.
    pub net_of_node: Vec<Option<NetId>>,
    /// Inverse: device id of each graph node, when it is a device node.
    pub device_of_node: Vec<Option<DeviceId>>,
    /// Raw per-type feature rows (kept so normalisation can be re-applied).
    raw_features: Vec<Vec<Vec<f32>>>,
}

impl CircuitGraph {
    /// Global node ids of all net nodes.
    pub fn net_nodes(&self) -> Vec<u32> {
        self.net_node.iter().flatten().copied().collect()
    }

    /// Raw feature rows per node type (training-set statistics are fitted
    /// over these).
    pub fn raw_features(&self) -> &Vec<Vec<Vec<f32>>> {
        &self.raw_features
    }

    /// Applies feature normalisation to the graph in place (idempotent
    /// with respect to the stored raw features: always starts from raw).
    pub fn normalize(&mut self, norm: &FeatureNorm) {
        set_feature_tensors(&mut self.graph, &self.raw_features, Some(norm));
    }
}

/// Sets each node type's feature tensor from its raw rows, normalised
/// by `norm` when one is given.
fn set_feature_tensors(graph: &mut HeteroGraph, raw: &[Vec<Vec<f32>>], norm: Option<&FeatureNorm>) {
    for (t, rows) in raw.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let mut m = Tensor::zeros(rows.len(), rows[0].len());
        for (i, row) in rows.iter().enumerate() {
            let out = m.row_mut(i);
            out.copy_from_slice(row);
            if let Some(norm) = norm {
                norm.apply(t as u16, out);
            }
        }
        graph.set_features(t as u16, m);
    }
}

/// Computes the raw per-type feature rows of a circuit **without**
/// building the graph — exactly the rows [`build_graph`] would store
/// (signal nets first in net-id order, then devices in device order).
///
/// This is the cheap path for observers that only need feature
/// statistics (e.g. the serving drift monitor, which compares every
/// incoming circuit — cache hits included — against the training
/// baseline): no edges, no tensors, no allocation beyond the rows and
/// the fanout table, and linear in the circuit's size.
pub fn raw_feature_rows(circuit: &Circuit) -> Vec<Vec<Vec<f32>>> {
    let mut raw: Vec<Vec<Vec<f32>>> = vec![Vec::new(); NodeType::ALL.len()];
    let net_rows = &mut raw[NodeType::Net.id() as usize];
    for (net, fanout) in circuit.nets().iter().zip(circuit.fanouts()) {
        if net.class == NetClass::Signal {
            net_rows.push(net_features(fanout));
        }
    }
    for dev in circuit.devices() {
        raw[NodeType::of_device(dev.kind).id() as usize].push(device_features(dev));
    }
    raw
}

/// Builds the heterogeneous graph of a flat circuit (paper §II-B).
///
/// # Examples
///
/// ```
/// use paragraph::build_graph;
/// use paragraph_netlist::parse_spice;
///
/// // The paper's Figure 3 example: an inverter has 3 signal-net nodes
/// // (in, out — rails dropped) + 2 transistor nodes.
/// let c = parse_spice(
///     "mp out in vdd vdd pch\nmn out in vss vss nch\n.end\n")?.flatten()?;
/// let cg = build_graph(&c);
/// assert_eq!(cg.graph.num_nodes(), 4); // in, out + 2 devices
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn build_graph(circuit: &Circuit) -> CircuitGraph {
    let schema = circuit_schema();

    // Assign node ids: signal nets first, then devices.
    let mut node_types = Vec::new();
    let mut net_node = vec![None; circuit.num_nets()];
    let mut net_of_node = Vec::new();
    let mut device_of_node = Vec::new();
    for (id, net) in circuit.nets().iter().enumerate() {
        if net.class == NetClass::Signal {
            net_node[id] = Some(node_types.len() as u32);
            node_types.push(NodeType::Net.id());
            net_of_node.push(Some(NetId(id as u32)));
            device_of_node.push(None);
        }
    }
    let mut device_node = Vec::with_capacity(circuit.num_devices());
    for (id, dev) in circuit.devices().iter().enumerate() {
        device_node.push(node_types.len() as u32);
        node_types.push(NodeType::of_device(dev.kind).id());
        net_of_node.push(None);
        device_of_node.push(Some(DeviceId(id as u32)));
    }

    let mut graph = HeteroGraph::new(&schema, node_types);

    // Features, grouped per type in graph row order.
    let raw = raw_feature_rows(circuit);
    set_feature_tensors(&mut graph, &raw, None);

    // Edges: two directed edges per (signal) terminal connection.
    let mut src: Vec<Vec<u32>> = vec![Vec::new(); NUM_EDGE_TYPES];
    let mut dst: Vec<Vec<u32>> = vec![Vec::new(); NUM_EDGE_TYPES];
    for (dev_id, dev) in circuit.devices().iter().enumerate() {
        let dev_node = device_node[dev_id];
        let dev_type = NodeType::of_device(dev.kind);
        for (terminal, net) in &dev.conns {
            let Some(net_node_id) = net_node[net.0 as usize] else {
                continue; // rail connection: dropped, per the paper
            };
            let class = terminal_class(dev.kind, *terminal);
            let to_dev = edge_type(dev_type, class, false);
            src[to_dev].push(net_node_id);
            dst[to_dev].push(dev_node);
            let to_net = edge_type(dev_type, class, true);
            src[to_net].push(dev_node);
            dst[to_net].push(net_node_id);
        }
    }
    for (t, (s, d)) in src.into_iter().zip(dst).enumerate() {
        graph.set_edges(t, s, d);
    }
    graph.union_edges();

    CircuitGraph {
        graph,
        net_node,
        device_node,
        net_of_node,
        device_of_node,
        raw_features: raw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use paragraph_netlist::parse_spice;

    fn inverter() -> Circuit {
        parse_spice("mp out in vdd vdd pch\nmn out in vss vss nch\n.end\n")
            .unwrap()
            .flatten()
            .unwrap()
    }

    /// The paper's Figure 3: the inverter graph has net nodes for in/out
    /// only, and gate edges for both transistors.
    #[test]
    fn figure3_inverter_graph() {
        let c = inverter();
        let cg = build_graph(&c);
        assert_eq!(cg.graph.num_nodes(), 4);
        // Rail connections dropped: PMOS source+bulk (vdd) and NMOS
        // source+bulk (vss) produce no edges. Each transistor has gate +
        // drain = 2 connections x 2 directions = 4 edges; 2 transistors.
        assert_eq!(cg.graph.num_edges(), 8);
        cg.graph.validate().unwrap();
    }

    #[test]
    fn every_connection_yields_two_opposing_edges() {
        let c = inverter();
        let cg = build_graph(&c);
        // For each edge type pair (2k, 2k+1) the edges mirror each other.
        for k in 0..EDGE_CLASSES.len() {
            let fwd = cg.graph.edges(2 * k);
            let bwd = cg.graph.edges(2 * k + 1);
            assert_eq!(fwd.len(), bwd.len());
            for i in 0..fwd.len() {
                assert_eq!(fwd.src[i], bwd.dst[i]);
                assert_eq!(fwd.dst[i], bwd.src[i]);
            }
        }
    }

    #[test]
    fn gate_and_drain_edges_have_distinct_types() {
        let c = inverter();
        let cg = build_graph(&c);
        let gate = edge_type(NodeType::Transistor, TerminalClass::Gate, false);
        let drain = edge_type(NodeType::Transistor, TerminalClass::Drain, false);
        assert_ne!(gate, drain);
        assert_eq!(cg.graph.edges(gate).len(), 2); // both gates on 'in'
        assert_eq!(cg.graph.edges(drain).len(), 2); // both drains on 'out'
    }

    #[test]
    fn schema_is_consistent() {
        let s = circuit_schema();
        assert_eq!(s.num_node_types(), 7);
        assert_eq!(s.num_edge_types, 30);
    }

    #[test]
    fn mixed_devices_graph_validates() {
        let src = "\
mp out in vdd vdd pch nf=2\n\
mn out in vss vss nch\n\
mh pad out vss vss nch_hv l=150n\n\
r1 out fb 10k\n\
c1 fb vss 50f\n\
d1 pad vdd dnom nf=4\n\
q1 vss bias ref pnp\n.end\n";
        let c = parse_spice(src).unwrap().flatten().unwrap();
        let cg = build_graph(&c);
        cg.graph.validate().unwrap();
        // in, out, pad, fb, bias, ref are signal nets.
        assert_eq!(cg.net_nodes().len(), 6);
        // All 7 devices present.
        assert_eq!(cg.device_node.len(), 7);
        // Thick-gate transistor uses its own edge types.
        let thick_gate = edge_type(NodeType::TransistorThick, TerminalClass::Gate, false);
        assert_eq!(cg.graph.edges(thick_gate).len(), 1);
    }

    #[test]
    fn normalization_applies_from_raw() {
        let c = inverter();
        let mut cg = build_graph(&c);
        let before = cg.graph.features(NodeType::Net.id()).clone();
        let norm = FeatureNorm::identity();
        cg.normalize(&norm);
        assert_eq!(&before, cg.graph.features(NodeType::Net.id()));
        // A shifting norm changes features, and re-applying identity
        // restores them (normalize always starts from raw).
        let mut shift = FeatureNorm::identity();
        shift.mean[0] = vec![1.0];
        cg.normalize(&shift);
        assert_ne!(&before, cg.graph.features(NodeType::Net.id()));
        cg.normalize(&norm);
        assert_eq!(&before, cg.graph.features(NodeType::Net.id()));
    }

    /// The graph-free feature path must produce exactly the rows the
    /// graph builder stores, for every node type.
    #[test]
    fn raw_feature_rows_match_built_graph() {
        let src = "\
mp out in vdd vdd pch nf=2\n\
mn out in vss vss nch\n\
r1 out fb 10k\n\
c1 fb vss 50f\n\
d1 out vdd dnom\n.end\n";
        let c = parse_spice(src).unwrap().flatten().unwrap();
        assert_eq!(&raw_feature_rows(&c), build_graph(&c).raw_features());
    }

    #[test]
    fn dangling_signal_net_has_node() {
        let mut c = Circuit::new("t");
        c.net("floating");
        let cg = build_graph(&c);
        assert_eq!(cg.graph.num_nodes(), 1);
        assert_eq!(cg.graph.num_edges(), 0);
    }
}

#[cfg(test)]
mod edge_name_tests {
    use super::*;

    #[test]
    fn edge_names_follow_paper_notation() {
        let gate_in = edge_type(NodeType::Transistor, TerminalClass::Gate, false);
        assert_eq!(edge_type_name(gate_in), "net -> transistor_gate");
        let gate_out = edge_type(NodeType::Transistor, TerminalClass::Gate, true);
        assert_eq!(edge_type_name(gate_out), "transistor_gate -> net");
        let anode = edge_type(NodeType::Diode, TerminalClass::Anode, false);
        assert_eq!(edge_type_name(anode), "net -> diode_anode");
    }

    #[test]
    fn all_edge_type_names_are_unique() {
        let names: std::collections::HashSet<String> =
            (0..NUM_EDGE_TYPES).map(edge_type_name).collect();
        assert_eq!(names.len(), NUM_EDGE_TYPES);
    }
}
