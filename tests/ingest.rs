//! Netlist ingest is pinned. Three things must not drift when parse,
//! write or feature code is reworked:
//!
//! * the SPICE text `write_flat_spice` renders — the serving cache key
//!   is `fnv1a` of it, and perfbench generates its request streams with
//!   it — and the hierarchical text of `write_spice`;
//! * the netlist `parse_spice` builds and `flatten` expands from a deck
//!   with mixed-case cards, `+` continuations, `$`/`;` comments and
//!   subcircuits;
//! * the net fanout feature (`ln(1 + fanout)`) that `raw_feature_rows`
//!   and `build_graph` compute, against the per-net `Circuit::fanout`
//!   reference.
//!
//! The digests were computed with the per-line parser and the
//! `Subckt`-copying writer these functions replaced.

use paragraph::{build_graph, net_features, raw_feature_rows, NodeType};
use paragraph_circuitgen::{
    compose_chip, FAMILY_ANALOG, FAMILY_DAC, FAMILY_DIGITAL, FAMILY_IO, FAMILY_MEM, FAMILY_PLL,
    FAMILY_PMU, FAMILY_REF,
};
use paragraph_netlist::{
    parse_spice, write_flat_spice, write_spice, Circuit, DeviceParams, Instance, MosPolarity,
    NetClass, NetId, Netlist, Subckt,
};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One seeded chip of 24 blocks per circuitgen family.
fn family_chips() -> Vec<Circuit> {
    let families = [
        FAMILY_DIGITAL,
        FAMILY_ANALOG,
        FAMILY_IO,
        FAMILY_DAC,
        FAMILY_PLL,
        FAMILY_MEM,
        FAMILY_PMU,
        FAMILY_REF,
    ];
    families
        .iter()
        .enumerate()
        .map(|(i, family)| compose_chip(&format!("chip{i}"), 1_000 + i as u64, family, 24))
        .collect()
}

#[test]
fn flat_spice_text_is_pinned_for_every_family() {
    const PINNED: [u64; 8] = [
        12520308224487756730,
        10283944600025455669,
        11425364602558092243,
        86700056126317972,
        739566112706695626,
        9345797086998611125,
        9991423996273690474,
        3977049633855802751,
    ];
    let digests: Vec<u64> = family_chips()
        .iter()
        .map(|c| fnv1a(write_flat_spice(c).as_bytes()))
        .collect();
    assert_eq!(digests, PINNED, "write_flat_spice text changed");
}

/// A two-level netlist whose subcircuit bodies are generated chips.
fn hierarchical_netlist() -> Netlist {
    let mut netlist = Netlist::new("soc");
    for (name, family, seed) in [("ana", FAMILY_ANALOG, 11), ("dig", FAMILY_DIGITAL, 12)] {
        let circuit = compose_chip(name, seed, family, 6);
        let ports = circuit
            .signal_nets()
            .take(3)
            .map(|(_, n)| n.name.clone())
            .collect();
        netlist.add_subckt(Subckt {
            name: name.into(),
            ports,
            circuit,
            instances: vec![],
        });
    }
    for (inst, subckt, conns) in [
        ("x0", "ana", ["a", "b", "c"]),
        ("xd1", "dig", ["c", "d", "e"]),
        ("u2", "ana", ["e", "a", "f"]),
    ] {
        netlist.top.instances.push(Instance {
            name: inst.into(),
            subckt: subckt.into(),
            conns: conns.iter().map(|s| (*s).to_owned()).collect(),
        });
    }
    let top = &mut netlist.top.circuit;
    let (a, f, vdd) = (top.net("a"), top.net("f"), top.net("vdd"));
    top.add_mosfet(
        "mtop",
        MosPolarity::Pmos,
        true,
        f,
        a,
        vdd,
        vdd,
        DeviceParams::default(),
    );
    top.add_resistor("rload", f, a, 4.7e3, 2.5e-6);
    netlist
}

#[test]
fn hierarchical_spice_text_is_pinned() {
    let text = write_spice(&hierarchical_netlist());
    assert_eq!(
        fnv1a(text.as_bytes()),
        4113689502465688216,
        "write_spice text changed"
    );
}

/// Digest of everything a circuit holds, in storage order.
fn circuit_digest(c: &Circuit, out: &mut Vec<u8>) {
    out.extend_from_slice(c.name.as_bytes());
    for net in c.nets() {
        out.extend_from_slice(net.name.as_bytes());
        out.push(net.class as u8);
    }
    for d in c.devices() {
        out.extend_from_slice(d.name.as_bytes());
        out.extend_from_slice(d.kind.tag().as_bytes());
        let p = &d.params;
        for v in [p.l, p.w, p.value] {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for v in [p.nf, p.nfin, p.multi] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        for (t, n) in &d.conns {
            out.extend_from_slice(t.tag().as_bytes());
            out.extend_from_slice(&n.0.to_le_bytes());
        }
    }
}

const MIXED_DECK: &str = "\
* Mixed-case deck: comments, continuations and two subcircuits
.OPTION post=2
.Subckt INV In Out VDD VSS
MP Out In VDD VDD PCH L=16N NFIN=4
+ NF=2 $ trailing comment
Mn out in vss vss nch l=20n ; another comment
.ENDS
.subckt Buf a y vdd_io gnd
xI0 a mid VDD_IO GND inv
XI1 mid y vdd_io gnd INV
C_load y GND 2.2F m=3
R1 a mid 1.5K L=2U
.ends buf
* top level
X0 in0 n1 vdd vss BUF
x1 n1 OUT vdd vss buf
MH pad n1 VSS VSS NCH_HV l=150n nfin=8
+ nf=4
+ m=2
D1 pad VDD dnom NF=3
Q1 vss bias$x ref PNP
c2 out 0 10fF
r$2 out fb 1meg
.END
";

#[test]
fn parse_of_mixed_deck_is_pinned() {
    let netlist = parse_spice(MIXED_DECK).unwrap();
    let mut bytes = Vec::new();
    for sub in netlist.subckts.iter().chain([&netlist.top]) {
        bytes.extend_from_slice(sub.name.as_bytes());
        for port in &sub.ports {
            bytes.extend_from_slice(port.as_bytes());
        }
        circuit_digest(&sub.circuit, &mut bytes);
        for inst in &sub.instances {
            bytes.extend_from_slice(inst.name.as_bytes());
            bytes.extend_from_slice(inst.subckt.as_bytes());
            for conn in &inst.conns {
                bytes.extend_from_slice(conn.as_bytes());
            }
        }
    }
    assert_eq!(
        fnv1a(&bytes),
        13096108832182007530,
        "parsed netlist changed"
    );

    let flat = netlist.flatten().unwrap();
    flat.validate().unwrap();
    assert_eq!(flat.num_devices(), 17);
    let mut bytes = Vec::new();
    circuit_digest(&flat, &mut bytes);
    assert_eq!(
        fnv1a(&bytes),
        7612654278065983342,
        "flattened circuit changed"
    );
}

/// The net rows of `raw_feature_rows`, and the graph's stored rows and
/// net feature tensor, equal `ln(1 + fanout)` from the per-net scan.
fn assert_fanout_features(c: &Circuit) {
    let expected: Vec<Vec<f32>> = (0..c.num_nets())
        .filter(|&i| c.nets()[i].class == NetClass::Signal)
        .map(|i| net_features(c.fanout(NetId(i as u32))))
        .collect();
    let net_type = NodeType::Net.id() as usize;
    let rows = raw_feature_rows(c);
    assert_eq!(rows[net_type], expected, "{}", c.name);
    let cg = build_graph(c);
    assert_eq!(cg.raw_features(), &rows, "{}", c.name);
    if !expected.is_empty() {
        let stored: Vec<f32> = cg.graph.features(NodeType::Net.id()).as_slice().to_vec();
        let flat: Vec<f32> = expected.concat();
        assert_eq!(stored, flat, "{}", c.name);
    }
}

#[test]
fn net_features_match_the_per_net_fanout_scan() {
    for mut c in family_chips() {
        assert_fanout_features(&c);
        // A dangling signal net, a device on rails alone, and a signal
        // net whose one device otherwise sits on a rail.
        c.net("floating");
        let (vdd, vss, lonely) = (c.net("vdd"), c.net("vss"), c.net("lonely"));
        c.add_mosfet(
            "mrails",
            MosPolarity::Nmos,
            false,
            vdd,
            vss,
            vss,
            vss,
            DeviceParams::default(),
        );
        c.add_capacitor("clonely", lonely, vss, 1e-15, 1);
        assert_fanout_features(&c);
    }
    // Nothing but rails, and nothing at all.
    let mut rails = Circuit::new("rails");
    let (vdd, gnd) = (rails.net("vdd"), rails.net("gnd"));
    rails.add_resistor("rr", vdd, gnd, 1e3, 1e-6);
    assert_fanout_features(&rails);
    assert_fanout_features(&Circuit::new("empty"));
}

/// Name, nets (in order, with classes) and `write_flat_spice` text.
fn flat_form(c: &Circuit) -> (String, Vec<(String, NetClass)>, String) {
    let nets = c.nets().iter().map(|n| (n.name.clone(), n.class)).collect();
    (c.name.clone(), nets, write_flat_spice(c))
}

/// `flatten` moves a top level without instances out of the netlist.
/// It must equal the device-by-device copy, which flatten makes when the
/// top instantiates something: here an empty, port-less subcircuit that
/// adds nothing.
#[test]
fn flatten_moves_a_flat_top_as_it_would_copy_it() {
    let mut decks: Vec<String> = family_chips().iter().map(write_flat_spice).collect();
    decks.push(
        ".subckt unused a b\nmx a b vss vss nch\n.ends\nmp o i vdd vdd pch\nmn o i vss vss nch\n"
            .to_owned(),
    );
    decks.push(String::new());
    for deck in &decks {
        let netlist = parse_spice(deck).unwrap();
        let kept = netlist.clone();
        let devices = kept.top.circuit.devices().as_ptr();
        let moved = kept.flatten().unwrap();
        assert_eq!(moved.devices().as_ptr(), devices, "moved, not copied");
        let mut forced = netlist;
        forced.add_subckt(Subckt {
            name: "empty".into(),
            ports: vec![],
            circuit: Circuit::new("empty"),
            instances: vec![],
        });
        forced.top.instances.push(Instance {
            name: "xe".into(),
            subckt: "empty".into(),
            conns: vec![],
        });
        let copied = forced.flatten().unwrap();
        assert_eq!(flat_form(&moved), flat_form(&copied), "{deck:.60}");
        for net in moved.nets() {
            assert!(moved.find_net(&net.name).is_some(), "{}", net.name);
        }
    }
    // A hand-built top whose nets are not numbered in first-use order
    // (or not all used) is copied, so it flattens as before.
    let mut netlist = Netlist::new("hand");
    let top = &mut netlist.top.circuit;
    let (a, b, _unused) = (top.net("a"), top.net("b"), top.net("unused"));
    top.add_resistor("r1", b, a, 1e3, 1e-6);
    let flat = netlist.flatten().unwrap();
    let names: Vec<&str> = flat.nets().iter().map(|n| n.name.as_str()).collect();
    assert_eq!(names, ["b", "a"]);
}
