//! Circuit data model: nets, devices, and the flat [`Circuit`] container.

use std::collections::HashMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::units::starts_with_ignore_case;

/// MOSFET channel polarity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MosPolarity {
    /// N-channel.
    Nmos,
    /// P-channel.
    Pmos,
}

/// The device classes modelled by the paper (Table II).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// FinFET transistor; `thick_gate` marks the high-voltage I/O flavour
    /// the paper tracks separately (`tran_th` in Table IV).
    Mosfet {
        /// Channel polarity.
        polarity: MosPolarity,
        /// Thick-gate (I/O voltage) device.
        thick_gate: bool,
    },
    /// Passive resistor.
    Resistor,
    /// Passive capacitor.
    Capacitor,
    /// Junction diode.
    Diode,
    /// Bipolar transistor.
    Bjt {
        /// PNP when true, NPN otherwise.
        pnp: bool,
    },
}

impl DeviceKind {
    /// Ordered terminal list for this device class.
    pub fn terminals(self) -> &'static [Terminal] {
        match self {
            DeviceKind::Mosfet { .. } => &[
                Terminal::Drain,
                Terminal::Gate,
                Terminal::Source,
                Terminal::Bulk,
            ],
            DeviceKind::Resistor | DeviceKind::Capacitor | DeviceKind::Diode => {
                &[Terminal::Pos, Terminal::Neg]
            }
            DeviceKind::Bjt { .. } => &[Terminal::Collector, Terminal::Base, Terminal::Emitter],
        }
    }

    /// Short lowercase tag used in reports (`tran`, `tran_th`, `res`, ...).
    pub fn tag(self) -> &'static str {
        match self {
            DeviceKind::Mosfet {
                thick_gate: false, ..
            } => "tran",
            DeviceKind::Mosfet {
                thick_gate: true, ..
            } => "tran_th",
            DeviceKind::Resistor => "res",
            DeviceKind::Capacitor => "cap",
            DeviceKind::Diode => "dio",
            DeviceKind::Bjt { .. } => "bjt",
        }
    }

    /// True for either MOSFET flavour.
    pub fn is_mosfet(self) -> bool {
        matches!(self, DeviceKind::Mosfet { .. })
    }
}

impl fmt::Display for DeviceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.tag())
    }
}

/// A device terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Terminal {
    /// MOSFET drain.
    Drain,
    /// MOSFET gate.
    Gate,
    /// MOSFET source.
    Source,
    /// MOSFET bulk/body.
    Bulk,
    /// Two-terminal device positive pin.
    Pos,
    /// Two-terminal device negative pin.
    Neg,
    /// BJT collector.
    Collector,
    /// BJT base.
    Base,
    /// BJT emitter.
    Emitter,
}

impl Terminal {
    /// Short lowercase tag (`d`, `g`, `s`, ...).
    pub fn tag(self) -> &'static str {
        match self {
            Terminal::Drain => "d",
            Terminal::Gate => "g",
            Terminal::Source => "s",
            Terminal::Bulk => "b",
            Terminal::Pos => "p",
            Terminal::Neg => "n",
            Terminal::Collector => "c",
            Terminal::Base => "bs",
            Terminal::Emitter => "e",
        }
    }
}

/// Sizing and value parameters carried by every device.
///
/// Only the fields meaningful for a device's kind are used: transistors use
/// `l`, `w`, `nf`, `nfin`, `multi`; resistors use `l` and `value` (ohms);
/// capacitors use `multi` and `value` (farads); diodes use `nf`; BJTs use
/// `multi`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeviceParams {
    /// Gate poly length / resistor length, in metres.
    pub l: f64,
    /// Width in metres (derived from fins for FinFETs).
    pub w: f64,
    /// Number of fingers.
    pub nf: u32,
    /// Number of fins per finger.
    pub nfin: u32,
    /// Multiplier (parallel copies).
    pub multi: u32,
    /// Primary electrical value: ohms for resistors, farads for capacitors.
    pub value: f64,
}

impl Default for DeviceParams {
    fn default() -> Self {
        Self {
            l: 16e-9,
            w: 0.0,
            nf: 1,
            nfin: 2,
            multi: 1,
            value: 0.0,
        }
    }
}

/// Index of a net within its [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NetId(pub u32);

/// Index of a device within its [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DeviceId(pub u32);

/// Electrical class of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum NetClass {
    /// Ordinary signal net (parasitics are predicted for these).
    #[default]
    Signal,
    /// Power-supply rail (ignored during graph construction, per the paper).
    Supply,
    /// Ground rail (also ignored).
    Ground,
}

/// A net (electrical node) in the circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Net {
    /// Net name (unique within the circuit).
    pub name: String,
    /// Supply/ground/signal classification.
    pub class: NetClass,
}

/// A device instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Device {
    /// Instance name (unique within the circuit).
    pub name: String,
    /// Device class.
    pub kind: DeviceKind,
    /// Sizing parameters.
    pub params: DeviceParams,
    /// Terminal connections, in `kind.terminals()` order.
    pub conns: Vec<(Terminal, NetId)>,
}

impl Device {
    /// Net connected to `terminal`, if any.
    pub fn net_on(&self, terminal: Terminal) -> Option<NetId> {
        self.conns
            .iter()
            .find(|(t, _)| *t == terminal)
            .map(|(_, n)| *n)
    }
}

/// Error produced by [`Circuit::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateCircuitError {
    message: String,
}

impl fmt::Display for ValidateCircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for ValidateCircuitError {}

/// A flat circuit: a bag of named nets plus devices connecting them.
///
/// # Examples
///
/// ```
/// use paragraph_netlist::{Circuit, DeviceKind, DeviceParams, MosPolarity, Terminal};
///
/// let mut c = Circuit::new("inv");
/// let vin = c.net("in");
/// let vout = c.net("out");
/// let vdd = c.net("vdd");
/// let vss = c.net("vss");
/// c.add_mosfet("mp", MosPolarity::Pmos, false, vout, vin, vdd, vdd, DeviceParams::default());
/// c.add_mosfet("mn", MosPolarity::Nmos, false, vout, vin, vss, vss, DeviceParams::default());
/// assert_eq!(c.num_devices(), 2);
/// assert_eq!(c.fanout(vout), 2);
/// c.validate().unwrap();
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Circuit {
    /// Circuit name.
    pub name: String,
    nets: Vec<Net>,
    devices: Vec<Device>,
    #[serde(skip)]
    net_index: HashMap<String, NetId>,
}

impl Circuit {
    /// Creates an empty circuit.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            ..Self::default()
        }
    }

    /// Returns the id of the net named `name`, creating it (with a class
    /// inferred from the name) if needed.
    pub fn net(&mut self, name: impl AsRef<str>) -> NetId {
        let name = name.as_ref();
        if let Some(&id) = self.net_index.get(name) {
            return id;
        }
        let class = classify_net_name(name);
        let id = NetId(self.nets.len() as u32);
        self.nets.push(Net {
            name: name.to_owned(),
            class,
        });
        self.net_index.insert(name.to_owned(), id);
        id
    }

    /// Returns the id of an existing net, if present.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.net_index.get(name).copied()
    }

    /// Adds a device with explicit terminal connections.
    ///
    /// # Panics
    ///
    /// Panics if the terminal list does not match `kind.terminals()`.
    pub fn add_device(
        &mut self,
        name: impl Into<String>,
        kind: DeviceKind,
        conns: &[(Terminal, NetId)],
        params: DeviceParams,
    ) -> DeviceId {
        let terminals = conns.iter().map(|(t, _)| t);
        assert!(
            terminals.eq(kind.terminals()),
            "terminal list mismatch for {kind}: {conns:?}"
        );
        let id = DeviceId(self.devices.len() as u32);
        self.devices.push(Device {
            name: name.into(),
            kind,
            params,
            conns: conns.to_vec(),
        });
        id
    }

    /// Convenience: adds a 4-terminal MOSFET.
    #[allow(clippy::too_many_arguments)]
    pub fn add_mosfet(
        &mut self,
        name: impl Into<String>,
        polarity: MosPolarity,
        thick_gate: bool,
        drain: NetId,
        gate: NetId,
        source: NetId,
        bulk: NetId,
        params: DeviceParams,
    ) -> DeviceId {
        self.add_device(
            name,
            DeviceKind::Mosfet {
                polarity,
                thick_gate,
            },
            &[
                (Terminal::Drain, drain),
                (Terminal::Gate, gate),
                (Terminal::Source, source),
                (Terminal::Bulk, bulk),
            ],
            params,
        )
    }

    /// Convenience: adds a resistor of `ohms` between `pos` and `neg`.
    pub fn add_resistor(
        &mut self,
        name: impl Into<String>,
        pos: NetId,
        neg: NetId,
        ohms: f64,
        length: f64,
    ) -> DeviceId {
        self.add_device(
            name,
            DeviceKind::Resistor,
            &[(Terminal::Pos, pos), (Terminal::Neg, neg)],
            DeviceParams {
                value: ohms,
                l: length,
                ..DeviceParams::default()
            },
        )
    }

    /// Convenience: adds a capacitor of `farads` between `pos` and `neg`.
    pub fn add_capacitor(
        &mut self,
        name: impl Into<String>,
        pos: NetId,
        neg: NetId,
        farads: f64,
        multi: u32,
    ) -> DeviceId {
        self.add_device(
            name,
            DeviceKind::Capacitor,
            &[(Terminal::Pos, pos), (Terminal::Neg, neg)],
            DeviceParams {
                value: farads,
                multi,
                ..DeviceParams::default()
            },
        )
    }

    /// Convenience: adds a diode.
    pub fn add_diode(
        &mut self,
        name: impl Into<String>,
        pos: NetId,
        neg: NetId,
        nf: u32,
    ) -> DeviceId {
        self.add_device(
            name,
            DeviceKind::Diode,
            &[(Terminal::Pos, pos), (Terminal::Neg, neg)],
            DeviceParams {
                nf,
                ..DeviceParams::default()
            },
        )
    }

    /// Convenience: adds a BJT.
    pub fn add_bjt(
        &mut self,
        name: impl Into<String>,
        pnp: bool,
        collector: NetId,
        base: NetId,
        emitter: NetId,
    ) -> DeviceId {
        self.add_device(
            name,
            DeviceKind::Bjt { pnp },
            &[
                (Terminal::Collector, collector),
                (Terminal::Base, base),
                (Terminal::Emitter, emitter),
            ],
            DeviceParams::default(),
        )
    }

    /// All nets, indexed by [`NetId`].
    pub fn nets(&self) -> &[Net] {
        &self.nets
    }

    /// All devices, indexed by [`DeviceId`].
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Net lookup.
    pub fn net_ref(&self, id: NetId) -> &Net {
        &self.nets[id.0 as usize]
    }

    /// Device lookup.
    pub fn device_ref(&self, id: DeviceId) -> &Device {
        &self.devices[id.0 as usize]
    }

    /// Number of nets (including supply/ground).
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.devices.len()
    }

    /// Number of device terminals attached to `net`. Scans every
    /// terminal: use [`Circuit::fanouts`] for more than one net.
    pub fn fanout(&self, net: NetId) -> usize {
        self.devices
            .iter()
            .flat_map(|d| d.conns.iter())
            .filter(|(_, n)| *n == net)
            .count()
    }

    /// [`Circuit::fanout`] of every net, indexed by [`NetId`], from one
    /// pass over the device terminals.
    pub fn fanouts(&self) -> Vec<usize> {
        let mut counts = vec![0; self.nets.len()];
        for (_, net) in self.devices.iter().flat_map(|d| d.conns.iter()) {
            counts[net.0 as usize] += 1;
        }
        counts
    }

    /// Per-kind device counts `(tran, tran_th, res, cap, bjt, dio)` as in
    /// Table IV of the paper.
    pub fn kind_counts(&self) -> KindCounts {
        let mut counts = KindCounts::default();
        for d in &self.devices {
            match d.kind {
                DeviceKind::Mosfet {
                    thick_gate: false, ..
                } => counts.tran += 1,
                DeviceKind::Mosfet {
                    thick_gate: true, ..
                } => counts.tran_th += 1,
                DeviceKind::Resistor => counts.res += 1,
                DeviceKind::Capacitor => counts.cap += 1,
                DeviceKind::Bjt { .. } => counts.bjt += 1,
                DeviceKind::Diode => counts.dio += 1,
            }
        }
        counts.net = self
            .nets
            .iter()
            .filter(|n| n.class == NetClass::Signal)
            .count();
        counts
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns an error naming the first offending device or net when a
    /// terminal references a missing net, names collide, or a device's
    /// terminal list does not match its kind.
    pub fn validate(&self) -> Result<(), ValidateCircuitError> {
        let err = |message: String| Err(ValidateCircuitError { message });
        let mut seen = HashMap::new();
        for (i, net) in self.nets.iter().enumerate() {
            if let Some(prev) = seen.insert(&net.name, i) {
                return err(format!(
                    "duplicate net name '{}' (#{prev} and #{i})",
                    net.name
                ));
            }
        }
        let mut dev_seen = HashMap::new();
        for (i, dev) in self.devices.iter().enumerate() {
            if let Some(prev) = dev_seen.insert(&dev.name, i) {
                return err(format!(
                    "duplicate device name '{}' (#{prev} and #{i})",
                    dev.name
                ));
            }
            let expected = dev.kind.terminals();
            if dev.conns.len() != expected.len()
                || dev.conns.iter().zip(expected).any(|((t, _), e)| t != e)
            {
                return err(format!("device '{}' has malformed terminals", dev.name));
            }
            for (_, net) in &dev.conns {
                if net.0 as usize >= self.nets.len() {
                    return err(format!("device '{}' references missing net", dev.name));
                }
            }
        }
        Ok(())
    }

    /// Rebuilds the name index (needed after deserialisation).
    pub fn rebuild_index(&mut self) {
        self.net_index = self
            .nets
            .iter()
            .enumerate()
            .map(|(i, n)| (n.name.clone(), NetId(i as u32)))
            .collect();
    }

    /// Whether copying the devices, terminal by terminal, into an empty
    /// circuit of the same name would rebuild this circuit exactly: the
    /// name index covers every net, each net has the class its name
    /// implies, and the nets are all used and numbered in the order the
    /// terminals first name them (as [`crate::parse_spice`] builds them).
    pub(crate) fn is_rebuilt_by_copy(&self) -> bool {
        if self.net_index.len() != self.nets.len()
            || self
                .nets
                .iter()
                .any(|n| n.class != classify_net_name(&n.name))
        {
            return false;
        }
        // Ids below `next` have all been seen, so a terminal on net
        // `next` is its first use and one above it is out of order.
        let mut next = 0;
        for &(_, NetId(id)) in self.devices.iter().flat_map(|d| &d.conns) {
            match (id as usize).cmp(&next) {
                std::cmp::Ordering::Equal => next += 1,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Less => {}
            }
        }
        next == self.nets.len()
    }

    /// Iterator over signal nets only (the nets the paper predicts
    /// parasitics for).
    pub fn signal_nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .filter(|(_, n)| n.class == NetClass::Signal)
            .map(|(i, n)| (NetId(i as u32), n))
    }
}

/// Per-kind counts matching the columns of Table IV.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KindCounts {
    /// Signal nets.
    pub net: usize,
    /// Thin-oxide transistors.
    pub tran: usize,
    /// Thick-gate transistors.
    pub tran_th: usize,
    /// Resistors.
    pub res: usize,
    /// Capacitors.
    pub cap: usize,
    /// BJTs.
    pub bjt: usize,
    /// Diodes.
    pub dio: usize,
}

impl KindCounts {
    /// Total device count.
    pub fn total_devices(&self) -> usize {
        self.tran + self.tran_th + self.res + self.cap + self.bjt + self.dio
    }
}

/// Infers supply/ground class from a net name, as commonly spelled in
/// industrial netlists.
pub fn classify_net_name(name: &str) -> NetClass {
    let starts_with_any =
        |prefixes: &[&str]| prefixes.iter().any(|p| starts_with_ignore_case(name, p));
    if name == "0" || starts_with_any(&["vss", "gnd", "agnd", "dgnd"]) {
        NetClass::Ground
    } else if starts_with_any(&["vdd", "vcc", "avdd", "dvdd", "vpwr"]) {
        NetClass::Supply
    } else {
        NetClass::Signal
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inverter() -> Circuit {
        let mut c = Circuit::new("inv");
        let vin = c.net("in");
        let vout = c.net("out");
        let vdd = c.net("vdd");
        let vss = c.net("vss");
        c.add_mosfet(
            "mp",
            MosPolarity::Pmos,
            false,
            vout,
            vin,
            vdd,
            vdd,
            DeviceParams::default(),
        );
        c.add_mosfet(
            "mn",
            MosPolarity::Nmos,
            false,
            vout,
            vin,
            vss,
            vss,
            DeviceParams::default(),
        );
        c
    }

    #[test]
    fn net_interning_is_idempotent() {
        let mut c = Circuit::new("t");
        let a = c.net("a");
        let b = c.net("a");
        assert_eq!(a, b);
        assert_eq!(c.num_nets(), 1);
    }

    #[test]
    fn classifies_rails() {
        assert_eq!(classify_net_name("VDD"), NetClass::Supply);
        assert_eq!(classify_net_name("vdd_core"), NetClass::Supply);
        assert_eq!(classify_net_name("VSS"), NetClass::Ground);
        assert_eq!(classify_net_name("0"), NetClass::Ground);
        assert_eq!(classify_net_name("out"), NetClass::Signal);
        assert_eq!(classify_net_name("AGnd_io"), NetClass::Ground);
        assert_eq!(classify_net_name("DVdd"), NetClass::Supply);
        assert_eq!(classify_net_name("vs"), NetClass::Signal);
        assert_eq!(classify_net_name("00"), NetClass::Signal);
        assert_eq!(classify_net_name("µvdd"), NetClass::Signal);
    }

    #[test]
    fn fanout_counts_terminals() {
        let mut c = inverter();
        let out = c.find_net("out").unwrap();
        assert_eq!(c.fanout(out), 2);
        let vdd = c.find_net("vdd").unwrap();
        // Source + bulk of the PMOS.
        assert_eq!(c.fanout(vdd), 2);
        c.net("dangling");
        let per_net: Vec<usize> = (0..c.num_nets())
            .map(|i| c.fanout(NetId(i as u32)))
            .collect();
        assert_eq!(c.fanouts(), per_net);
        assert_eq!(per_net, [2, 2, 2, 2, 0]);
    }

    #[test]
    fn kind_counts_match_table_iv_columns() {
        let mut c = inverter();
        let a = c.net("a");
        let b = c.net("b");
        c.add_resistor("r1", a, b, 1e3, 1e-6);
        c.add_capacitor("c1", a, b, 1e-15, 2);
        c.add_diode("d1", a, b, 4);
        c.add_bjt("q1", false, a, b, b);
        let k = c.kind_counts();
        assert_eq!(
            (k.tran, k.tran_th, k.res, k.cap, k.bjt, k.dio),
            (2, 0, 1, 1, 1, 1)
        );
        assert_eq!(k.net, 4); // in, out, a, b
    }

    #[test]
    fn validate_detects_duplicates() {
        let mut c = inverter();
        let vin = c.find_net("in").unwrap();
        let vout = c.find_net("out").unwrap();
        c.add_resistor("mp", vin, vout, 1.0, 1e-6); // duplicate name "mp"
        let e = c.validate().unwrap_err();
        assert!(e.to_string().contains("duplicate device name"));
    }

    #[test]
    fn validate_ok_on_inverter() {
        inverter().validate().unwrap();
    }

    #[test]
    fn device_net_on() {
        let c = inverter();
        let d = c.device_ref(DeviceId(0));
        assert_eq!(d.net_on(Terminal::Gate), c.find_net("in"));
        assert_eq!(d.net_on(Terminal::Collector), None);
    }

    #[test]
    #[should_panic(expected = "terminal list mismatch")]
    fn add_device_rejects_bad_terminals() {
        let mut c = Circuit::new("t");
        let a = c.net("a");
        c.add_device(
            "x",
            DeviceKind::Resistor,
            &[(Terminal::Gate, a)],
            DeviceParams::default(),
        );
    }
}
